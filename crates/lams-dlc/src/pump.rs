//! The host pump: the one loop that drives a sender/receiver pair.
//!
//! A host owns a clock and a medium; the pump owns the order in which
//! the machines are driven. The real-socket host (`lams-dlc-io`) and the
//! model checker both run it, each over its own [`Link`]. One pass runs
//! at one clock reading `t`, ordered so that what it produces is also
//! consumed in it:
//!
//! 1. offer fresh SDUs until the sender refuses one;
//! 2. fire due timers on both machines;
//! 3. sender frames → [`Link::send_data`] → arrivals to the receiver;
//! 4. application delivery, resequenced and checked to be in order and
//!    to carry the SDU's payload;
//! 5. receiver frames → [`Link::send_feedback`] → arrivals to the sender;
//! 6. both event queues drained.
//!
//! So a Request-NAK reaching the receiver at `t` is answered at `t`. The
//! pump then sleeps to the earliest of both machines' `poll_timeout()`,
//! the link's next arrival and the host's wake; with none, it deadlocks.

use crate::{Frame, PacketId, Resequencer, RxStatus};
use bytes::Bytes;
use proto_core::{Clock, Duration, Instant, ReceiverMachine, SenderMachine, Trace, TraceEvent};

/// The frame-level medium between the machines: it may lose, delay,
/// duplicate or corrupt frames, or fail and end the run. Never blocks.
pub trait Link {
    /// Carry `frame` from the sender at `t`; `peer_reference` is the
    /// receiver's expansion reference (highest info sequence it got).
    fn send_data(&mut self, t: Instant, frame: Frame, peer_reference: u64) -> Result<(), String>;
    /// The next frame that has reached the receiver by `t`, expanded
    /// against the receiver's `reference`.
    fn recv_data(&mut self, t: Instant, reference: u64) -> Arrival;
    /// Carry `frame` from the receiver at `t`; `peer_reference` is the
    /// sender's reference (highest info sequence it emitted).
    fn send_feedback(
        &mut self,
        t: Instant,
        frame: Frame,
        peer_reference: u64,
    ) -> Result<(), String>;
    /// The next frame that has reached the sender by `t`, expanded
    /// against the sender's `reference`.
    fn recv_feedback(&mut self, t: Instant, reference: u64) -> Arrival;
    /// When the earliest frame in flight arrives, if the link knows:
    /// `None` with nothing in flight, and always `None` for a socket.
    fn next_arrival(&self) -> Option<Instant> {
        None
    }
}

/// A frame with its physical-layer verdict, nothing yet, or an error.
pub type Arrival = Result<Option<(Frame, RxStatus)>, String>;

/// How a run ended when nothing went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every SDU was delivered in order and the sender holds nothing.
    Complete,
    /// The sender's failure timer declared the link dead.
    LinkFailed,
}

/// What the host's per-pass closure sees.
pub struct Pass<'a, S> {
    /// The clock reading the pass ran at.
    pub t: Instant,
    /// The clock reading the run started at.
    pub start: Instant,
    /// SDUs delivered in order so far.
    pub delivered: u64,
    /// The sender, for hosts that observe its state.
    pub sender: &'a S,
}

/// The end of a run.
#[derive(Clone, Debug)]
pub struct Run {
    /// The verdict, or the error that ended the run: from the link or
    /// the host, an out-of-order delivery, a payload that is not the
    /// SDU's, or a deadlock.
    pub outcome: Result<Verdict, String>,
    /// SDUs delivered in order.
    pub delivered: u64,
    /// Passes that followed a sleep.
    pub wakes: u64,
    /// Total over those passes of how late the clock read against the
    /// instant slept to: exactly zero on a manual clock.
    pub wake_lateness: Duration,
    /// Clock time from start to end.
    pub elapsed: Duration,
}

/// One transfer of SDUs `0..sdus`, each `payload_len` copies of its id's
/// low byte, framed on `trace` by `trace_header`/`run_started`/`run_finished`.
pub struct Pump {
    /// SDUs to transfer.
    pub sdus: u64,
    /// Payload length of each SDU in bytes.
    pub payload_len: usize,
    /// The host's trace handle, labelled `host`; the machines get it
    /// relabelled `tx` and `rx`.
    pub trace: Trace,
}

impl Pump {
    /// Start both machines on `clock` and pump them over `link` until a
    /// [`Verdict`] or an error. `on_pass` runs after every pass, before
    /// the verdict, and returns the host's next wake or an error.
    pub fn run<S, R, L, F>(
        &self,
        clock: &dyn Clock,
        sender: &mut S,
        receiver: &mut R,
        link: &mut L,
        on_pass: F,
    ) -> Run
    where
        S: SenderMachine<Frame = Frame>,
        R: ReceiverMachine<Frame = Frame>,
        L: Link,
        F: FnMut(&Pass<'_, S>, &mut L) -> Result<Option<Instant>, String>,
    {
        let start = clock.now();
        self.trace.emit(start, || TraceEvent::TraceHeader {
            clock_domain: clock.domain().as_str(),
        });
        self.trace.emit(start, || TraceEvent::RunStarted);
        sender.set_trace(self.trace.labelled("tx"));
        receiver.set_trace(self.trace.labelled("rx"));
        sender.start(start);
        receiver.start(start);

        let mut state = RunState {
            start,
            payloads: {
                let mut fill = vec![0; self.payload_len];
                (0..self.sdus.min(256))
                    .map(|b| {
                        fill.fill(b as u8);
                        Bytes::copy_from_slice(&fill)
                    })
                    .collect()
            },
            ..RunState::default()
        };
        let outcome = state.drive(self, clock, sender, receiver, link, on_pass);
        let end = clock.now();
        self.trace.emit(end, || TraceEvent::RunFinished {
            deadline_hit: outcome != Ok(Verdict::Complete),
        });
        Run {
            outcome,
            delivered: state.delivered,
            wakes: state.wakes,
            wake_lateness: state.wake_lateness,
            elapsed: end - start,
        }
    }
}

/// What the pump carries from one pass to the next.
#[derive(Default)]
struct RunState {
    start: Instant,
    next_id: u64,   // next SDU to offer the sender
    delivered: u64, // SDUs released in order: the next id expected
    reseq: Resequencer,
    tx_reference: u64, // highest info sequence the sender emitted
    rx_reference: u64, // highest info sequence handed to the receiver
    wakes: u64,
    wake_lateness: Duration,
    /// The resequencer's output, reused across deliveries.
    released: Vec<(PacketId, Bytes)>,
    /// SDU `id`'s payload is `payloads[id % 256]`, built once per run
    /// and shared by every SDU with that low byte.
    payloads: Vec<Bytes>,
}

impl RunState {
    fn drive<S, R, L, F>(
        &mut self,
        pump: &Pump,
        clock: &dyn Clock,
        sender: &mut S,
        receiver: &mut R,
        link: &mut L,
        mut on_pass: F,
    ) -> Result<Verdict, String>
    where
        S: SenderMachine<Frame = Frame>,
        R: ReceiverMachine<Frame = Frame>,
        L: Link,
        F: FnMut(&Pass<'_, S>, &mut L) -> Result<Option<Instant>, String>,
    {
        let mut slept_to: Option<Instant> = None;
        loop {
            let t = clock.now();
            if let Some(target) = slept_to.take() {
                self.wakes += 1;
                self.wake_lateness += t - target;
            }

            while self.next_id < pump.sdus {
                let payload = self.payloads[(self.next_id & 0xff) as usize].clone();
                if !sender.push(self.next_id, payload) {
                    break;
                }
                self.next_id += 1;
            }

            // Timers are a no-op for a machine with nothing due.
            sender.on_timeout(t);
            receiver.on_timeout(t);

            while let Some(frame) = sender.poll_transmit(t) {
                if let Frame::Info(info) = &frame {
                    self.tx_reference = self.tx_reference.max(info.seq);
                }
                link.send_data(t, frame, self.rx_reference)?;
            }
            while let Some((frame, status)) = link.recv_data(t, self.rx_reference)? {
                if let Frame::Info(info) = &frame {
                    self.rx_reference = self.rx_reference.max(info.seq);
                }
                receiver.handle_frame(t, frame, status);
            }

            while let Some(d) = receiver.poll_deliver(t) {
                self.reseq
                    .offer_into(PacketId(d.id), d.payload, &mut self.released);
                for (id, payload) in self.released.drain(..) {
                    if id.0 != self.delivered {
                        return Err(format!(
                            "out-of-order delivery: got {} want {}",
                            id.0, self.delivered
                        ));
                    }
                    if payload[..] != self.payloads[(id.0 & 0xff) as usize][..] {
                        return Err(format!(
                            "payload mismatch: SDU {} is not {} copies of {:#04x}",
                            id.0,
                            pump.payload_len,
                            id.0 & 0xff
                        ));
                    }
                    self.delivered += 1;
                }
            }

            while let Some(frame) = receiver.poll_transmit(t) {
                link.send_feedback(t, frame, self.tx_reference)?;
            }
            while let Some((frame, status)) = link.recv_feedback(t, self.tx_reference)? {
                sender.handle_frame(t, frame, status);
            }

            // No host consumes the machines' notifications.
            while sender.poll_event().is_some() {}
            while receiver.poll_event().is_some() {}

            let pass = Pass {
                t,
                start: self.start,
                delivered: self.delivered,
                sender: &*sender,
            };
            let host_wake = on_pass(&pass, link)?;
            if self.delivered == pump.sdus && sender.buffered() == 0 {
                return Ok(Verdict::Complete);
            }
            if sender.is_failed() {
                return Ok(Verdict::LinkFailed);
            }
            let machines = earliest(sender.poll_timeout(), receiver.poll_timeout());
            let wake = earliest(machines, earliest(link.next_arrival(), host_wake));
            let wake = wake.ok_or_else(|| {
                let (delivered, sdus) = (self.delivered, pump.sdus);
                format!("deadlock: no pending event with {delivered} of {sdus} SDUs delivered")
            })?;
            // A wall clock already past the wake starts the next pass at once.
            let now = clock.now();
            if wake > now {
                clock.sleep(wake - now);
                slept_to = Some(wake);
            }
        }
    }
}

/// The earlier of two optional deadlines; `None` only when both are.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlFrame, LamsConfig, Receiver, Sender, SenderState};
    use proto_core::{Delivered, Machine, ManualClock};
    use std::collections::VecDeque;

    /// A zero-delay link that loses every feedback frame until the
    /// sender probes with a Request-NAK, and logs the `(pass, t)` at
    /// which the probe left and its Enforced-NAK reached the sender.
    #[derive(Default)]
    struct Scripted {
        data: VecDeque<Frame>,
        feedback: VecDeque<Frame>,
        passes: u64,
        probe_sent: Option<(u64, Instant)>,
        answer_received: Option<(u64, Instant)>,
    }

    impl Link for Scripted {
        fn send_data(&mut self, t: Instant, frame: Frame, _: u64) -> Result<(), String> {
            if matches!(frame, Frame::Control(ControlFrame::RequestNak { .. })) {
                self.probe_sent.get_or_insert((self.passes, t));
            }
            self.data.push_back(frame);
            Ok(())
        }

        fn recv_data(&mut self, _: Instant, _: u64) -> Arrival {
            Ok(self.data.pop_front().map(|f| (f, RxStatus::Ok)))
        }

        fn send_feedback(&mut self, _: Instant, frame: Frame, _: u64) -> Result<(), String> {
            if self.probe_sent.is_some() {
                self.feedback.push_back(frame);
            }
            Ok(())
        }

        fn recv_feedback(&mut self, t: Instant, _: u64) -> Arrival {
            let frame = self.feedback.pop_front();
            if let Some(Frame::Control(ControlFrame::CheckPoint(cp))) = &frame {
                if cp.enforced {
                    self.answer_received.get_or_insert((self.passes, t));
                }
            }
            Ok(frame.map(|f| (f, RxStatus::Ok)))
        }
    }

    #[test]
    fn request_nak_is_answered_within_its_pass() {
        let cfg = LamsConfig::paper_default();
        let mut sender = Sender::new(cfg.clone());
        let mut receiver = Receiver::new(cfg);
        let mut link = Scripted::default();
        let pump = Pump {
            sdus: 5,
            payload_len: 8,
            trace: Trace::disabled(),
        };
        let run = pump.run(
            &ManualClock::new(),
            &mut sender,
            &mut receiver,
            &mut link,
            |pass, link| {
                assert_ne!(
                    pass.sender.state(),
                    SenderState::Enforced,
                    "enforced recovery must resolve in the pass it began"
                );
                link.passes += 1;
                Ok(None)
            },
        );
        assert_eq!(run.outcome, Ok(Verdict::Complete));
        assert_eq!(receiver.stats().enforced_sent, 1);
        let probe = link.probe_sent.expect("muted checkpoints force a probe");
        assert!(probe.1 > Instant::ZERO);
        assert_eq!(
            link.answer_received,
            Some(probe),
            "the Enforced-NAK must reach the sender in the probe's pass, at its instant"
        );
    }

    /// A zero-delay link that flips one byte of the third information
    /// frame's payload and still reports it clean: a fault upstream of
    /// the CRC.
    #[derive(Default)]
    struct Flipper {
        data: VecDeque<Frame>,
        feedback: VecDeque<Frame>,
        info_sent: u64,
    }

    impl Link for Flipper {
        fn send_data(&mut self, _: Instant, frame: Frame, _: u64) -> Result<(), String> {
            let frame = match frame {
                Frame::Info(mut info) => {
                    self.info_sent += 1;
                    if self.info_sent == 3 {
                        let mut bytes = info.payload.to_vec();
                        bytes[0] ^= 0x01;
                        info.payload = Bytes::from(bytes);
                    }
                    Frame::Info(info)
                }
                control => control,
            };
            self.data.push_back(frame);
            Ok(())
        }

        fn recv_data(&mut self, _: Instant, _: u64) -> Arrival {
            Ok(self.data.pop_front().map(|f| (f, RxStatus::Ok)))
        }

        fn send_feedback(&mut self, _: Instant, frame: Frame, _: u64) -> Result<(), String> {
            self.feedback.push_back(frame);
            Ok(())
        }

        fn recv_feedback(&mut self, _: Instant, _: u64) -> Arrival {
            Ok(self.feedback.pop_front().map(|f| (f, RxStatus::Ok)))
        }
    }

    #[test]
    fn a_clean_frame_with_a_wrong_payload_ends_the_run() {
        let cfg = LamsConfig::paper_default();
        let pump = Pump {
            sdus: 5,
            payload_len: 8,
            trace: Trace::disabled(),
        };
        let run = pump.run(
            &ManualClock::new(),
            &mut Sender::new(cfg.clone()),
            &mut Receiver::new(cfg),
            &mut Flipper::default(),
            |_, _| Ok(None),
        );
        assert_eq!(
            run.outcome,
            Err("payload mismatch: SDU 2 is not 8 copies of 0x02".to_string())
        );
        assert_eq!(run.delivered, 2);
    }

    /// A machine with no timers that refuses every SDU and never speaks.
    struct Idle;

    impl Machine for Idle {
        type Frame = Frame;
        type Event = ();
        fn start(&mut self, _: Instant) {}
        fn handle_frame(&mut self, _: Instant, _: Frame, _: RxStatus) {}
        fn poll_transmit(&mut self, _: Instant) -> Option<Frame> {
            None
        }
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn on_timeout(&mut self, _: Instant) {}
        fn set_trace(&mut self, _: Trace) {}
    }

    impl SenderMachine for Idle {
        fn push(&mut self, _: u64, _: Bytes) -> bool {
            false
        }
        fn buffered(&self) -> usize {
            0
        }
        fn transmissions(&self) -> u64 {
            0
        }
        fn retransmissions(&self) -> u64 {
            0
        }
    }

    impl ReceiverMachine for Idle {
        fn poll_deliver(&mut self, _: Instant) -> Option<Delivered> {
            None
        }
        fn occupancy(&self) -> usize {
            0
        }
    }

    #[test]
    fn nothing_to_wake_for_is_a_deadlock_not_a_hang() {
        let pump = Pump {
            sdus: 1,
            payload_len: 8,
            trace: Trace::disabled(),
        };
        let mut passes = 0;
        let run = pump.run(
            &ManualClock::new(),
            &mut Idle,
            &mut Idle,
            &mut Scripted::default(),
            |_, _| {
                passes += 1;
                Ok(None)
            },
        );
        assert_eq!(
            run.outcome,
            Err("deadlock: no pending event with 0 of 1 SDUs delivered".to_string())
        );
        assert_eq!(passes, 1);
    }
}
