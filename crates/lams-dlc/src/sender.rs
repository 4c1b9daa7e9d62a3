//! The LAMS-DLC sender state machine (§3.2).
//!
//! Sans-IO: the owner injects received control frames via
//! [`Sender::handle_frame`], drains outbound frames via
//! [`Sender::poll_transmit`], fires timers via [`Sender::on_timeout`] at
//! the instant returned by [`Sender::poll_timeout`], and drains
//! notifications via [`Sender::poll_event`]. The notifications are the
//! few a host can act on (buffer releases, enforced recovery, link
//! failure, rate changes); renumbering and its cause travel only on the
//! trace, as `renumbered` and `retx_cause` records.
//!
//! ## Operation
//!
//! * New SDUs queue in the sending buffer and are transmitted at the line
//!   rate scaled by the Stop-Go [`RateController`]. Retransmissions wait
//!   in a queue of their own ahead of them, so picking the next frame is
//!   one pop in every state. Each transmission —
//!   first or repeat — consumes a **fresh sequence number** (§3.2), so
//!   wire numbers are strictly monotone and the receiver detects losses by
//!   gaps.
//! * A received **Check-Point-NAK** (a) retransmits every NAK'd frame
//!   still held (already-renumbered seqs are ignored, as the paper
//!   specifies), (b) releases every outstanding frame at or below the
//!   checkpoint's `covered` horizon that was not NAK'd — the implicit
//!   positive acknowledgement — and (c) resets the checkpoint timer.
//! * If the checkpoint timer (`C_depth · W_cp`) expires, the sender enters
//!   **enforced recovery**: it emits a Request-NAK, stops sending *new*
//!   I-frames (checkpoint-recovery retransmissions remain allowed), and
//!   starts the failure timer. An Enforced-NAK resolves the episode; a
//!   failure-timer expiry declares the link failed (§3.2).
//!
//! ## Zero-loss hardening
//!
//! The paper argues frame loss requires `C_depth` *consecutive* checkpoint
//! losses (probability `P_C^{C_depth} < ε`) and accepts that risk. We close
//! it exactly: checkpoints carry a monotone index, and when the sender
//! observes an index jump larger than `C_depth` it treats the implicit
//! acknowledgement of that checkpoint as unsafe — every frame it would
//! have released is renumbered and retransmitted instead (possible
//! duplication, which the destination resequencer absorbs; never loss).
//! This matches the paper's priority of "zero packet loss capability" and
//! its note that a newer protocol revision also removes duplication.

use crate::config::LamsConfig;
use crate::events::SenderEvent;
use crate::flow::RateController;
use crate::frame::{CheckPoint, ControlFrame, Frame, InfoFrame, PacketId, RxStatus};
use bytes::Bytes;
use proto_core::{earliest, Duration, Instant};
use proto_core::{SeqWindow, Trace, TraceEvent};
use std::collections::VecDeque;

/// Why a queued SDU is awaiting (re)transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxReason {
    New,
    /// NAK'd by a checkpoint; carries the superseded sequence number and
    /// the index of the checkpoint that triggered the retransmission.
    Nak {
        old: u64,
        cp: u64,
    },
    /// Resolving deadline passed with no checkpoint accounting for it.
    ResolveExpired(u64),
    /// Released unsafely by a checkpoint after an index gap; retransmitted
    /// defensively (see module docs). Carries the superseded sequence
    /// number and the gapped checkpoint's index.
    Suspect {
        old: u64,
        cp: u64,
    },
}

#[derive(Clone, Debug)]
struct QueuedSdu {
    packet_id: PacketId,
    payload: Bytes,
    reason: TxReason,
}

/// SDUs awaiting (re)transmission, in two queues. Retransmissions go
/// to the front of their own queue, so the one queued last leaves
/// first; fresh SDUs go to the back of theirs. Retransmissions always
/// leave before fresh SDUs, and enforced recovery holds back only the
/// fresh queue, so the next frame is one pop.
#[derive(Debug, Default)]
struct TxQueue {
    retx: VecDeque<QueuedSdu>,
    fresh: VecDeque<QueuedSdu>,
    /// Test-only reference rule: one deque, retransmissions pushed to
    /// its front and fresh SDUs to its back, and the first entry that
    /// may leave removed. When set, every operation uses it instead, so
    /// a test can drive both rules side by side.
    #[cfg(test)]
    single: Option<VecDeque<QueuedSdu>>,
}

impl TxQueue {
    #[inline]
    fn len(&self) -> usize {
        #[cfg(test)]
        if let Some(q) = &self.single {
            return q.len();
        }
        self.retx.len() + self.fresh.len()
    }

    #[inline]
    fn push_fresh(&mut self, sdu: QueuedSdu) {
        #[cfg(test)]
        if let Some(q) = &mut self.single {
            return q.push_back(sdu);
        }
        self.fresh.push_back(sdu);
    }

    fn push_retx(&mut self, sdu: QueuedSdu) {
        #[cfg(test)]
        if let Some(q) = &mut self.single {
            return q.push_front(sdu);
        }
        self.retx.push_front(sdu);
    }

    /// True when [`TxQueue::pop`] would yield an SDU.
    #[inline]
    fn has_transmittable(&self, running: bool) -> bool {
        #[cfg(test)]
        if let Some(q) = &self.single {
            return q.iter().any(|q| q.reason != TxReason::New || running);
        }
        !self.retx.is_empty() || running && !self.fresh.is_empty()
    }

    /// The next SDU to send: a retransmission if any, else a fresh SDU
    /// while `running`.
    #[inline]
    fn pop(&mut self, running: bool) -> Option<QueuedSdu> {
        #[cfg(test)]
        if let Some(q) = &mut self.single {
            let idx = q
                .iter()
                .position(|q| q.reason != TxReason::New || running)?;
            return q.remove(idx);
        }
        match self.retx.pop_front() {
            Some(sdu) => Some(sdu),
            None if running => self.fresh.pop_front(),
            None => None,
        }
    }
}

#[derive(Clone, Debug)]
struct Outstanding {
    packet_id: PacketId,
    payload: Bytes,
    sent_at: Instant,
    resolve_deadline: Instant,
}

/// Sender lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderState {
    /// Normal operation.
    Running,
    /// Enforced recovery in progress: Request-NAK outstanding, new
    /// I-frames halted.
    Enforced,
    /// Link declared failed; only the network layer can act now.
    Failed,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// I-frames transmitted for the first time.
    pub new_transmissions: u64,
    /// I-frame retransmissions (NAK, resolve-expiry, or suspect).
    pub retransmissions: u64,
    /// Frames released by checkpoint coverage.
    pub released: u64,
    /// Checkpoints processed.
    pub checkpoints: u64,
    /// Corrupted frames discarded on arrival.
    pub rx_corrupted: u64,
    /// Request-NAK probes sent.
    pub request_naks: u64,
    /// Checkpoint index gaps exceeding `C_depth` (unsafe-release episodes).
    pub unsafe_gaps: u64,
    /// Frames defensively retransmitted after an unsafe gap.
    pub suspect_retransmissions: u64,
    /// Frames retransmitted because their resolving deadline passed.
    pub resolve_expiries: u64,
}

/// The LAMS-DLC sending endpoint.
pub struct Sender {
    cfg: LamsConfig,
    state: SenderState,
    next_seq: u64,
    queue: TxQueue,
    /// The retransmission buffer, keyed by wire sequence number. Every
    /// transmission takes a fresh number and holds it for at most about
    /// one resolving period, so the live numbers form one narrow band.
    /// Resolving deadlines rise with the number (enforced recovery
    /// raises them all with the same `max`), so the first entry is also
    /// the one due first.
    outstanding: SeqWindow<Outstanding>,
    /// Deadline for the checkpoint timer; `None` until [`Sender::start`].
    cp_deadline: Option<Instant>,
    /// Failure deadline while in enforced recovery.
    failure_deadline: Option<Instant>,
    last_cp_index: u64,
    probe_counter: u64,
    pending_request_nak: Option<u64>,
    /// When the most recent Request-NAK was handed to the link (rate-limits
    /// re-probing to one per expected response time).
    last_probe_at: Option<Instant>,
    rate: RateController,
    /// `t_f` stretched by the current rate; recomputed only when
    /// Stop-Go changes the rate.
    spacing: Duration,
    /// The configured resolving period, which every transmission's
    /// resolving deadline adds.
    resolving: Duration,
    next_tx_allowed: Instant,
    events: VecDeque<SenderEvent>,
    stats: SenderStats,
    queue_capacity: Option<usize>,
    trace: Trace,
}

/// Error returned by [`Sender::push`] when the sending buffer is capped
/// and full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

impl Sender {
    /// Create a sender. Call [`Sender::start`] when the link goes active.
    pub fn new(cfg: LamsConfig) -> Self {
        cfg.validate().expect("invalid LamsConfig");
        let flow = cfg.flow.clone();
        let rate = RateController::new(flow);
        Sender {
            spacing: cfg.t_f.mul_f64(rate.spacing_multiplier()),
            resolving: cfg.resolving_period(),
            cfg,
            state: SenderState::Running,
            next_seq: 1,
            queue: TxQueue::default(),
            outstanding: SeqWindow::default(),
            cp_deadline: None,
            failure_deadline: None,
            last_cp_index: 0,
            probe_counter: 0,
            pending_request_nak: None,
            last_probe_at: None,
            rate,
            next_tx_allowed: Instant::ZERO,
            events: VecDeque::new(),
            stats: SenderStats::default(),
            queue_capacity: None,
            trace: Trace::disabled(),
        }
    }

    /// Cap the sending queue (SDUs awaiting first transmission); `push`
    /// then fails with [`QueueFull`] when the cap is reached.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// Mark the link active at `now`. Arms the checkpoint timer with an
    /// initial grace of one RTT plus the normal timeout (the first
    /// checkpoint cannot arrive before the link round-trips).
    pub fn start(&mut self, now: Instant) {
        self.cp_deadline = Some(now + self.cfg.expected_rtt + self.cfg.checkpoint_timeout());
        self.next_tx_allowed = now;
        // Announce the timing configuration on the trace stream: this
        // marks the node as a LAMS sender and gives online auditors the
        // bounds they check (checkpoint cadence, resolving period).
        self.trace.emit(now, || TraceEvent::SenderConfig {
            w_cp_ns: self.cfg.w_cp.as_nanos(),
            c_depth: self.cfg.c_depth as u64,
            rtt_ns: self.cfg.expected_rtt.as_nanos(),
            cp_timeout_ns: self.cfg.checkpoint_timeout().as_nanos(),
            resolving_ns: self.resolving.as_nanos(),
            failure_ns: self.cfg.failure_timeout().as_nanos(),
        });
    }

    /// Current lifecycle state.
    #[inline]
    pub fn state(&self) -> SenderState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Protocol configuration.
    pub fn config(&self) -> &LamsConfig {
        &self.cfg
    }

    /// Current sending-rate fraction set by flow control.
    pub fn rate(&self) -> f64 {
        self.rate.rate()
    }

    /// SDUs queued and awaiting (re)transmission.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Frames transmitted and not yet resolved (the paper's sending-buffer
    /// occupancy: what `B_LAMS` bounds).
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Total sending-buffer occupancy: queued plus outstanding.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.queue.len() + self.outstanding.len()
    }

    /// Accept an SDU from the network layer.
    #[inline]
    pub fn push(&mut self, packet_id: PacketId, payload: Bytes) -> Result<(), QueueFull> {
        if let Some(cap) = self.queue_capacity {
            if self.queue.len() >= cap {
                return Err(QueueFull);
            }
        }
        self.queue.push_fresh(QueuedSdu {
            packet_id,
            payload,
            reason: TxReason::New,
        });
        Ok(())
    }

    /// Drain the next protocol notification.
    #[inline]
    pub fn poll_event(&mut self) -> Option<SenderEvent> {
        self.events.pop_front()
    }

    /// Earliest instant at which [`Sender::on_timeout`] or
    /// [`Sender::poll_transmit`] has work to do, if any.
    #[inline]
    pub fn poll_timeout(&self) -> Option<Instant> {
        if self.state == SenderState::Failed {
            return None;
        }
        let timers = earliest(self.cp_deadline, self.failure_deadline);
        let resolve = self.outstanding.first().map(|(_, o)| o.resolve_deadline);
        let t = earliest(timers, resolve);
        if self.pending_request_nak.is_some() || self.has_transmittable() {
            earliest(t, Some(self.next_tx_allowed))
        } else {
            t
        }
    }

    #[inline]
    fn has_transmittable(&self) -> bool {
        self.queue
            .has_transmittable(self.state == SenderState::Running)
    }

    /// Fire any timers due at `now`.
    #[inline]
    pub fn on_timeout(&mut self, now: Instant) {
        if self.state == SenderState::Failed {
            return;
        }
        // Resolving-deadline sweep: frames unaccounted past their deadline
        // are renumbered and retransmitted (safety net for tail losses).
        while let Some((seq, o)) = self.outstanding.first() {
            if o.resolve_deadline > now {
                break;
            }
            let o = self.outstanding.remove(seq).expect("present");
            self.stats.resolve_expiries += 1;
            self.queue.push_retx(QueuedSdu {
                packet_id: o.packet_id,
                payload: o.payload,
                reason: TxReason::ResolveExpired(seq),
            });
        }
        // Checkpoint timer → enforced recovery.
        if self.state == SenderState::Running {
            if let Some(d) = self.cp_deadline {
                if now >= d {
                    self.enter_enforced(now);
                }
            }
        }
        // Failure timer → link declared failed.
        if self.state == SenderState::Enforced {
            if let Some(d) = self.failure_deadline {
                if now >= d {
                    self.state = SenderState::Failed;
                    self.failure_deadline = None;
                    self.cp_deadline = None;
                    self.pending_request_nak = None;
                    self.events.push_back(SenderEvent::LinkFailed { at: now });
                    self.trace.emit(now, || TraceEvent::LinkFailed);
                }
            }
        }
    }

    fn enter_enforced(&mut self, now: Instant) {
        self.probe_counter += 1;
        let probe = self.probe_counter;
        self.state = SenderState::Enforced;
        self.pending_request_nak = Some(probe);
        self.cp_deadline = None;
        self.failure_deadline = Some(now + self.cfg.failure_timeout());
        // Nothing can resolve while the link is suspect: extend every
        // outstanding frame's resolving deadline past the recovery window
        // so the expiry safety-net doesn't duplicate frames the enforced
        // recovery is about to account for.
        let extended = now + self.cfg.failure_timeout() + self.resolving;
        for o in self.outstanding.values_mut() {
            o.resolve_deadline = o.resolve_deadline.max(extended);
        }
        self.events
            .push_back(SenderEvent::EnforcedRecoveryStarted { probe, at: now });
        self.trace
            .emit(now, || TraceEvent::EnforcedRecoveryStarted {
                outstanding: self.outstanding.len() as u64,
            });
    }

    /// Produce the next outbound frame, if transmission is currently
    /// allowed. Control frames (Request-NAK) take priority and are not
    /// rate-limited; retransmissions precede new I-frames; new I-frames
    /// require [`SenderState::Running`] and are paced by flow control.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Frame> {
        if self.state == SenderState::Failed {
            return None;
        }
        if let Some(probe) = self.pending_request_nak.take() {
            self.stats.request_naks += 1;
            self.last_probe_at = Some(now);
            return Some(Frame::Control(ControlFrame::RequestNak { probe }));
        }
        if now < self.next_tx_allowed {
            return None;
        }
        let sdu = self.queue.pop(self.state == SenderState::Running)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        match sdu.reason {
            TxReason::New => self.stats.new_transmissions += 1,
            TxReason::Nak { old, cp } => {
                self.stats.retransmissions += 1;
                self.trace.emit(now, || TraceEvent::Renumbered {
                    old_seq: old,
                    new_seq: seq,
                });
                self.trace.emit(now, || TraceEvent::RetxCause {
                    seq,
                    cause: "nak",
                    cp_index: cp,
                });
            }
            TxReason::ResolveExpired(old) => {
                self.stats.retransmissions += 1;
                self.trace.emit(now, || TraceEvent::Renumbered {
                    old_seq: old,
                    new_seq: seq,
                });
                self.trace.emit(now, || TraceEvent::RetxCause {
                    seq,
                    cause: "resolve",
                    cp_index: 0,
                });
            }
            TxReason::Suspect { old, cp } => {
                self.stats.retransmissions += 1;
                self.stats.suspect_retransmissions += 1;
                self.trace.emit(now, || TraceEvent::Renumbered {
                    old_seq: old,
                    new_seq: seq,
                });
                self.trace.emit(now, || TraceEvent::RetxCause {
                    seq,
                    cause: "suspect",
                    cp_index: cp,
                });
            }
        }
        self.trace.emit(now, || TraceEvent::IFrameTx {
            seq,
            retx: sdu.reason != TxReason::New,
            len: sdu.payload.len() as u64,
        });
        self.outstanding.insert(
            seq,
            Outstanding {
                packet_id: sdu.packet_id,
                payload: sdu.payload.clone(),
                sent_at: now,
                resolve_deadline: now + self.resolving,
            },
        );
        // Pace the next I-frame by the flow-controlled spacing.
        self.next_tx_allowed = now + self.spacing;
        Some(Frame::Info(InfoFrame {
            seq,
            packet_id: sdu.packet_id,
            payload: sdu.payload,
        }))
    }

    /// Inject a frame received from the peer. Only control frames are
    /// meaningful to the sender; corrupted frames are dropped (the control
    /// FEC grade makes this rare).
    pub fn handle_frame(&mut self, now: Instant, frame: Frame, status: RxStatus) {
        if self.state == SenderState::Failed {
            return;
        }
        if status != RxStatus::Ok {
            self.stats.rx_corrupted += 1;
            return;
        }
        match frame {
            Frame::Control(ControlFrame::CheckPoint(cp)) => self.handle_checkpoint(now, cp),
            // A Request-NAK addressed to a sender endpoint is a peer
            // protocol error in this unidirectional pairing; ignore.
            Frame::Control(ControlFrame::RequestNak { .. }) => {}
            Frame::Info(_) => {}
        }
    }

    fn handle_checkpoint(&mut self, now: Instant, cp: CheckPoint) {
        // The channel is FIFO, so a smaller index is a duplicate; drop it.
        if cp.index <= self.last_cp_index {
            return;
        }
        let gap = cp.index - self.last_cp_index;
        let first_contact = self.last_cp_index == 0;
        if self.trace.enabled() && !first_contact && gap > 1 {
            // Intermediate indices never arrived: surface each inferred
            // loss (capped so a pathological gap can't flood the trace).
            for lost in (self.last_cp_index + 1..cp.index).take(32) {
                self.trace
                    .emit(now, || TraceEvent::CheckpointLost { index: lost });
            }
        }
        self.last_cp_index = cp.index;
        self.stats.checkpoints += 1;
        self.trace.emit(now, || TraceEvent::CheckpointReceived {
            index: cp.index,
            covered: cp.covered,
            naks: cp.naks.len() as u64,
        });

        // Any checkpoint proves the link alive: re-arm the checkpoint
        // timer. Enforced state is left only by an enforced checkpoint.
        if self.state == SenderState::Running {
            self.cp_deadline = Some(now + self.cfg.checkpoint_timeout());
        } else if self.state == SenderState::Enforced && !cp.enforced {
            // An ordinary checkpoint while enforced means the link is
            // alive but the Request-NAK (or its Enforced-NAK) was lost:
            // re-probe — at most once per expected response time — and
            // restart the failure timer. Declaring failure while the
            // receiver demonstrably responds would be wrong — the paper's
            // failure timer covers total silence.
            let response_window = self.cfg.expected_rtt + self.cfg.deadline_slack;
            let probe_stale = self
                .last_probe_at
                .is_none_or(|t| now.duration_since(t) >= response_window);
            if self.pending_request_nak.is_none() && probe_stale {
                self.probe_counter += 1;
                self.pending_request_nak = Some(self.probe_counter);
            }
            self.failure_deadline = Some(now + self.cfg.failure_timeout());
        }
        if cp.enforced && self.state == SenderState::Enforced {
            self.state = SenderState::Running;
            self.failure_deadline = None;
            self.pending_request_nak = None;
            self.cp_deadline = Some(now + self.cfg.checkpoint_timeout());
            self.events
                .push_back(SenderEvent::EnforcedRecoveryResolved {
                    probe: cp.probe.unwrap_or(self.probe_counter),
                });
            self.trace
                .emit(now, || TraceEvent::EnforcedRecoveryResolved);
        }

        // Checkpoint recovery: retransmit NAK'd frames still held. A NAK
        // for a sequence number no longer outstanding means that frame was
        // already renumbered and retransmitted — ignored, per §3.2.
        for &nak in &cp.naks {
            if let Some(o) = self.outstanding.remove(nak) {
                self.queue.push_retx(QueuedSdu {
                    packet_id: o.packet_id,
                    payload: o.payload,
                    reason: TxReason::Nak {
                        old: nak,
                        cp: cp.index,
                    },
                });
            }
        }

        // Implicit positive acknowledgement: outstanding frames at or
        // below the covered horizon and not NAK'd have arrived clean.
        //
        // Exception (zero-loss hardening, see module docs): if more than
        // C_depth checkpoint indices were missed, NAK information may have
        // been lost with them; the frames this checkpoint would release
        // are retransmitted defensively instead. The first checkpoint of a
        // connection is always safe: the receiver's cumulative window
        // reaches back to link start until C_depth intervals have elapsed,
        // and indices count from 1.
        let unsafe_release = !first_contact && gap > self.cfg.c_depth as u64
            || first_contact && cp.index > self.cfg.c_depth as u64;
        if unsafe_release {
            self.stats.unsafe_gaps += 1;
        }
        while let Some((seq, _)) = self.outstanding.first() {
            if seq > cp.covered {
                break;
            }
            let o = self.outstanding.remove(seq).expect("present");
            if unsafe_release {
                self.queue.push_retx(QueuedSdu {
                    packet_id: o.packet_id,
                    payload: o.payload,
                    reason: TxReason::Suspect {
                        old: seq,
                        cp: cp.index,
                    },
                });
            } else {
                self.stats.released += 1;
                let held_ns = now.duration_since(o.sent_at).as_nanos();
                self.events.push_back(SenderEvent::Released {
                    packet_id: o.packet_id,
                    seq,
                    held_for_ns: held_ns,
                });
                self.trace.emit(now, || TraceEvent::BufferRelease {
                    seq,
                    held_ns,
                    cp_index: cp.index,
                });
            }
        }

        // Flow control.
        if self.rate.on_stop_go(now, cp.stop_go) {
            self.spacing = self.cfg.t_f.mul_f64(self.rate.spacing_multiplier());
            self.events.push_back(SenderEvent::RateChanged {
                rate: self.rate.rate(),
            });
            self.trace.emit(now, || TraceEvent::StopGo {
                stop: cp.stop_go == crate::frame::StopGo::Stop,
            });
        }
    }

    /// The resolving period currently configured (`R + W_cp/2 +
    /// C_depth·W_cp` plus slack) — exposed for tests and experiments.
    pub fn resolving_period(&self) -> Duration {
        self.resolving
    }
}

impl proto_core::Machine for Sender {
    type Frame = Frame;
    type Event = SenderEvent;

    #[inline]
    fn start(&mut self, now: Instant) {
        Sender::start(self, now);
    }

    #[inline]
    fn handle_frame(&mut self, now: Instant, frame: Frame, status: RxStatus) {
        Sender::handle_frame(self, now, frame, status);
    }

    #[inline]
    fn poll_transmit(&mut self, now: Instant) -> Option<Frame> {
        Sender::poll_transmit(self, now)
    }

    #[inline]
    fn poll_timeout(&self) -> Option<Instant> {
        Sender::poll_timeout(self)
    }

    #[inline]
    fn on_timeout(&mut self, now: Instant) {
        Sender::on_timeout(self, now);
    }

    #[inline]
    fn poll_event(&mut self) -> Option<SenderEvent> {
        Sender::poll_event(self)
    }

    #[inline]
    fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }
}

impl proto_core::SenderMachine for Sender {
    #[inline]
    fn push(&mut self, id: u64, payload: Bytes) -> bool {
        Sender::push(self, PacketId(id), payload).is_ok()
    }

    #[inline]
    fn buffered(&self) -> usize {
        Sender::buffered(self)
    }

    #[inline]
    fn is_failed(&self) -> bool {
        self.state() == SenderState::Failed
    }

    #[inline]
    fn rate(&self) -> f64 {
        Sender::rate(self)
    }

    #[inline]
    fn transmissions(&self) -> u64 {
        let s = self.stats();
        s.new_transmissions + s.retransmissions
    }

    #[inline]
    fn retransmissions(&self) -> u64 {
        self.stats().retransmissions
    }

    #[inline]
    fn released_holding_ns(event: &SenderEvent) -> Option<u64> {
        match event {
            SenderEvent::Released { held_for_ns, .. } => Some(*held_for_ns),
            _ => None,
        }
    }

    #[inline]
    fn stat_pairs(&self) -> Vec<(&'static str, f64)> {
        let s = self.stats();
        vec![
            ("lams.sender.request_naks", s.request_naks as f64),
            ("lams.sender.unsafe_gaps", s.unsafe_gaps as f64),
            ("lams.sender.resolve_expiries", s.resolve_expiries as f64),
            (
                "lams.sender.suspect_retransmissions",
                s.suspect_retransmissions as f64,
            ),
            ("lams.sender.checkpoints_received", s.checkpoints as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::StopGo;
    use crate::recorded::{recorder, Recorded};
    use proptest::prelude::*;
    use proto_core::Machine;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A sender started at 0 and emitting into a fresh [`Recorded`];
    /// with `single`, it picks its next frame by the queue's test-only
    /// single-deque rule.
    fn traced_sender(single: bool) -> (Sender, Rc<RefCell<Recorded>>) {
        let (trace, sink) = recorder("tx");
        let mut s = Sender::new(cfg()).with_trace(trace);
        if single {
            s.queue.single = Some(VecDeque::new());
        }
        s.start(Instant::ZERO);
        (s, sink)
    }

    /// The `(old, new)` pairs of the sender's `renumbered` records.
    fn renumbered(sink: &RefCell<Recorded>) -> Vec<(u64, u64)> {
        let events = &sink.borrow().0;
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Renumbered { old_seq, new_seq } => Some((old_seq, new_seq)),
                _ => None,
            })
            .collect()
    }

    fn cfg() -> LamsConfig {
        LamsConfig::paper_default()
    }

    fn mk_cp(index: u64, covered: u64, naks: Vec<u64>) -> Frame {
        Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index,
            covered,
            naks,
            enforced: false,
            probe: None,
            stop_go: StopGo::Go,
        }))
    }

    fn started_sender() -> (Sender, Instant) {
        let mut s = Sender::new(cfg());
        let now = Instant::ZERO;
        s.start(now);
        (s, now)
    }

    fn push_n(s: &mut Sender, n: u64) {
        for i in 0..n {
            s.push(PacketId(i), Bytes::from_static(b"payload")).unwrap();
        }
    }

    /// Transmit as many frames as the sender will emit at `now`.
    fn drain_tx(s: &mut Sender, now: &mut Instant) -> Vec<Frame> {
        let mut out = Vec::new();
        loop {
            match s.poll_transmit(*now) {
                Some(f) => out.push(f),
                None => {
                    // Advance past pacing if more work remains.
                    match s.poll_timeout() {
                        Some(t) if t > *now && s.queued() > 0 => *now = t,
                        _ => break,
                    }
                }
            }
        }
        out
    }

    #[test]
    fn transmits_with_monotone_fresh_seqs() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 5);
        let frames = drain_tx(&mut s, &mut now);
        let seqs: Vec<u64> = frames
            .iter()
            .map(|f| match f {
                Frame::Info(i) => i.seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(s.outstanding(), 5);
        assert_eq!(s.stats().new_transmissions, 5);
    }

    #[test]
    fn pacing_enforces_frame_spacing() {
        let (mut s, now) = started_sender();
        push_n(&mut s, 2);
        assert!(s.poll_transmit(now).is_some());
        // Immediately after, pacing blocks.
        assert!(s.poll_transmit(now).is_none());
        let next = s.poll_timeout().unwrap();
        assert_eq!(next, now + cfg().t_f);
        assert!(s.poll_transmit(next).is_some());
    }

    #[test]
    fn checkpoint_releases_covered_frames() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 3);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(1, 2, vec![]), RxStatus::Ok);
        // Frames 1 and 2 released; 3 still outstanding.
        assert_eq!(s.outstanding(), 1);
        assert_eq!(s.stats().released, 2);
        let mut released = Vec::new();
        while let Some(e) = s.poll_event() {
            if let SenderEvent::Released { seq, .. } = e {
                released.push(seq);
            }
        }
        assert_eq!(released, vec![1, 2]);
    }

    #[test]
    fn nak_renumbers_and_retransmits() {
        let ((mut s, sink), mut now) = (traced_sender(false), Instant::ZERO);
        push_n(&mut s, 3);
        drain_tx(&mut s, &mut now);
        // NAK frame 2; frames 1 and 3 covered.
        s.handle_frame(now, mk_cp(1, 3, vec![2]), RxStatus::Ok);
        assert_eq!(s.stats().released, 2);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.queued(), 1);
        now += Duration::from_micros(100);
        let f = s.poll_transmit(now).expect("retransmission");
        match f {
            Frame::Info(i) => {
                assert_eq!(i.seq, 4, "retransmission gets a fresh number");
                assert_eq!(i.packet_id, PacketId(1));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(renumbered(&sink), vec![(2, 4)]);
        assert_eq!(s.stats().retransmissions, 1);
    }

    #[test]
    fn duplicate_nak_for_renumbered_frame_ignored() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 2);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(1, 2, vec![1]), RxStatus::Ok);
        let _ = drain_tx(&mut s, &mut now); // retransmit as seq 3
        let retx_before = s.stats().retransmissions;
        // Cumulative NAK repeats seq 1 in the next checkpoint: ignored.
        s.handle_frame(now, mk_cp(2, 2, vec![1]), RxStatus::Ok);
        assert_eq!(s.stats().retransmissions, retx_before);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn stale_checkpoint_dropped() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 1);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(5, 0, vec![]), RxStatus::Ok);
        let n = s.stats().checkpoints;
        s.handle_frame(now, mk_cp(5, 1, vec![]), RxStatus::Ok);
        s.handle_frame(now, mk_cp(4, 1, vec![]), RxStatus::Ok);
        assert_eq!(s.stats().checkpoints, n);
        assert_eq!(s.outstanding(), 1, "stale checkpoint must not release");
    }

    #[test]
    fn corrupted_control_frame_dropped() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 1);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(1, 1, vec![]), RxStatus::PayloadCorrupted);
        assert_eq!(s.outstanding(), 1);
        assert_eq!(s.stats().rx_corrupted, 1);
        assert_eq!(s.stats().checkpoints, 0);
    }

    #[test]
    fn checkpoint_timeout_enters_enforced_recovery() {
        let (mut s, now) = started_sender();
        // Receive one checkpoint to arm the normal timer.
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        let deadline = s.poll_timeout().unwrap();
        assert_eq!(deadline, now + cfg().checkpoint_timeout());
        s.on_timeout(deadline);
        assert_eq!(s.state(), SenderState::Enforced);
        // The Request-NAK goes out ahead of any data.
        match s.poll_transmit(deadline) {
            Some(Frame::Control(ControlFrame::RequestNak { probe })) => {
                assert_eq!(probe, 1)
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            s.poll_event(),
            Some(SenderEvent::EnforcedRecoveryStarted { probe: 1, .. })
        ));
    }

    #[test]
    fn enforced_state_blocks_new_but_allows_retransmissions() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 2);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        let deadline = now + cfg().checkpoint_timeout();
        s.on_timeout(deadline);
        assert_eq!(s.state(), SenderState::Enforced);
        let _ = s.poll_transmit(deadline); // Request-NAK
                                           // Queue a new SDU: must not transmit while enforced.
        s.push(PacketId(99), Bytes::from_static(b"new")).unwrap();
        now = deadline + Duration::from_millis(1);
        assert!(s.poll_transmit(now).is_none());
        // But a NAK-triggered retransmission flows (ordinary checkpoint in
        // enforced state performs checkpoint recovery without resuming).
        // The probe is NOT re-armed yet: the first Request-NAK's response
        // window has not elapsed.
        s.handle_frame(now, mk_cp(2, 2, vec![1]), RxStatus::Ok);
        assert_eq!(s.state(), SenderState::Enforced);
        now += Duration::from_micros(50);
        match s.poll_transmit(now) {
            Some(Frame::Info(i)) => assert_eq!(i.packet_id, PacketId(0)),
            other => panic!("{other:?}"),
        }
        // Once the response window has passed, a further ordinary
        // checkpoint re-arms the probe (the first one evidently got lost).
        now = now + cfg().expected_rtt + Duration::from_millis(2);
        s.handle_frame(now, mk_cp(3, 2, vec![]), RxStatus::Ok);
        match s.poll_transmit(now) {
            Some(Frame::Control(ControlFrame::RequestNak { probe })) => {
                assert_eq!(probe, 2, "lost probe must be retried")
            }
            other => panic!("{other:?}"),
        }
        // Still no new frames.
        now += Duration::from_millis(1);
        assert!(s.poll_transmit(now).is_none());
    }

    #[test]
    fn enforced_nak_resolves_recovery() {
        let (mut s, now) = started_sender();
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        let deadline = now + cfg().checkpoint_timeout();
        s.on_timeout(deadline);
        let _ = s.poll_transmit(deadline);
        let enak = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 2,
            covered: 0,
            naks: vec![],
            enforced: true,
            probe: Some(1),
            stop_go: StopGo::Go,
        }));
        let t = deadline + Duration::from_millis(10);
        s.handle_frame(t, enak, RxStatus::Ok);
        assert_eq!(s.state(), SenderState::Running);
        let resolved = std::iter::from_fn(|| s.poll_event())
            .any(|e| matches!(e, SenderEvent::EnforcedRecoveryResolved { probe: 1 }));
        assert!(resolved);
    }

    #[test]
    fn failure_timer_declares_link_failed() {
        let (mut s, now) = started_sender();
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        let d1 = now + cfg().checkpoint_timeout();
        s.on_timeout(d1);
        let _ = s.poll_transmit(d1);
        let d2 = s.poll_timeout().unwrap();
        assert_eq!(d2, d1 + cfg().failure_timeout());
        s.on_timeout(d2);
        assert_eq!(s.state(), SenderState::Failed);
        let failed = std::iter::from_fn(|| s.poll_event())
            .any(|e| matches!(e, SenderEvent::LinkFailed { .. }));
        assert!(failed);
        // A failed sender is inert.
        assert!(s.poll_transmit(d2).is_none());
        assert!(s.poll_timeout().is_none());
    }

    #[test]
    fn resolve_expiry_retransmits_tail_loss() {
        let ((mut s, sink), mut now) = (traced_sender(false), Instant::ZERO);
        push_n(&mut s, 1);
        drain_tx(&mut s, &mut now);
        // Keep checkpoints flowing (empty ones that never cover seq 1 —
        // the tail frame vanished entirely).
        let rp = s.resolving_period();
        let mut idx = 0;
        let mut t = now;
        while t < now + rp {
            idx += 1;
            s.handle_frame(t, mk_cp(idx, 0, vec![]), RxStatus::Ok);
            t += cfg().w_cp;
        }
        s.on_timeout(t);
        assert_eq!(s.stats().resolve_expiries, 1);
        let f = s.poll_transmit(t + Duration::from_millis(1)).expect("retx");
        match f {
            Frame::Info(i) => assert_eq!(i.packet_id, PacketId(0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(renumbered(&sink), vec![(1, 2)]);
        let cause = sink.borrow().0.iter().any(|e| {
            matches!(
                e,
                TraceEvent::RetxCause {
                    seq: 2,
                    cause: "resolve",
                    ..
                }
            )
        });
        assert!(cause);
    }

    #[test]
    fn unsafe_index_gap_retransmits_instead_of_releasing() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 2);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        // Jump from index 1 to index 1 + c_depth + 1: more than C_depth
        // checkpoints lost → coverage is unsafe.
        let jump = 1 + cfg().c_depth as u64 + 1;
        now += Duration::from_millis(1);
        s.handle_frame(now, mk_cp(jump, 2, vec![]), RxStatus::Ok);
        assert_eq!(s.stats().unsafe_gaps, 1);
        assert_eq!(s.stats().released, 0, "must not release across the gap");
        assert_eq!(s.queued(), 2, "both frames requeued defensively");
        let frames = drain_tx(&mut s, &mut now);
        assert_eq!(frames.len(), 2);
        assert_eq!(s.stats().suspect_retransmissions, 2);
    }

    #[test]
    fn small_index_gap_is_safe() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 1);
        drain_tx(&mut s, &mut now);
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        now += Duration::from_millis(1);
        // Gap of exactly c_depth (indices 2..c_depth missed) is still safe.
        s.handle_frame(
            now,
            mk_cp(1 + cfg().c_depth as u64, 1, vec![]),
            RxStatus::Ok,
        );
        assert_eq!(s.stats().released, 1);
        assert_eq!(s.stats().unsafe_gaps, 0);
    }

    #[test]
    fn stop_go_feedback_changes_rate() {
        let (mut s, now) = started_sender();
        let cp = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 1,
            covered: 0,
            naks: vec![],
            enforced: false,
            probe: None,
            stop_go: StopGo::Stop,
        }));
        s.handle_frame(now, cp, RxStatus::Ok);
        assert!((s.rate() - 0.5).abs() < 1e-12);
        let changed = std::iter::from_fn(|| s.poll_event())
            .any(|e| matches!(e, SenderEvent::RateChanged { .. }));
        assert!(changed);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut s = Sender::new(cfg()).with_queue_capacity(2);
        s.start(Instant::ZERO);
        assert!(s.push(PacketId(0), Bytes::new()).is_ok());
        assert!(s.push(PacketId(1), Bytes::new()).is_ok());
        assert_eq!(s.push(PacketId(2), Bytes::new()), Err(QueueFull));
    }

    #[test]
    fn flow_control_stretches_pacing() {
        // After a Stop, the inter-frame spacing doubles (rate 0.5).
        let (mut s, now) = started_sender();
        push_n(&mut s, 3);
        let f1 = s.poll_transmit(now).expect("first frame");
        assert!(f1.is_info());
        let stop = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 1,
            covered: 0,
            naks: vec![],
            enforced: false,
            probe: None,
            stop_go: StopGo::Stop,
        }));
        s.handle_frame(now, stop, RxStatus::Ok);
        assert!((s.rate() - 0.5).abs() < 1e-12);
        // The frame sent after the Stop is spaced 2·t_f from its own
        // transmission time.
        let t1 = now + cfg().t_f; // pre-Stop spacing still applies once
        let f2 = s.poll_transmit(t1).expect("second frame");
        assert!(f2.is_info());
        assert!(s.poll_transmit(t1 + cfg().t_f).is_none(), "half rate");
        assert!(s.poll_transmit(t1 + cfg().t_f * 2).is_some());
    }

    #[test]
    fn released_event_reports_holding_time() {
        let (mut s, mut now) = started_sender();
        push_n(&mut s, 1);
        drain_tx(&mut s, &mut now);
        let sent_at = now;
        let later = sent_at + Duration::from_millis(20);
        s.handle_frame(later, mk_cp(1, 1, vec![]), RxStatus::Ok);
        let held = std::iter::from_fn(|| s.poll_event())
            .find_map(|e| match e {
                SenderEvent::Released { held_for_ns, .. } => Some(held_for_ns),
                _ => None,
            })
            .expect("released");
        assert_eq!(held, 20_000_000);
    }

    #[test]
    fn failed_sender_rejects_everything_quietly() {
        let (mut s, now) = started_sender();
        s.handle_frame(now, mk_cp(1, 0, vec![]), RxStatus::Ok);
        let d1 = now + cfg().checkpoint_timeout();
        s.on_timeout(d1);
        let _ = s.poll_transmit(d1);
        s.on_timeout(d1 + cfg().failure_timeout());
        assert_eq!(s.state(), SenderState::Failed);
        // Late frames and checkpoints are ignored without panicking.
        s.handle_frame(
            d1 + Duration::from_secs(1),
            mk_cp(99, 50, vec![1]),
            RxStatus::Ok,
        );
        assert_eq!(s.state(), SenderState::Failed);
        assert!(s.poll_transmit(d1 + Duration::from_secs(1)).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The two-queue sender picks the same frame as the single-deque
        /// rule at every step, through pushes, checkpoint NAKs, resolving
        /// expiries, unsafe index gaps and enforced recovery.
        #[test]
        fn pick_order_matches_the_single_queue_rule(
            ops in proptest::collection::vec((0u8..8, 0u64..8), 1..200),
        ) {
            let cfg = cfg();
            let (mut two, sink) = traced_sender(false);
            let (mut one, one_sink) = traced_sender(true);
            let (mut now, mut next_id, mut cp_index) = (Instant::ZERO, 0u64, 0u64);
            let mut sent: Vec<u64> = Vec::new();
            for (op, arg) in ops {
                let highest = sent.last().copied().unwrap_or(0);
                // NAK about a third of the last 16 numbers sent.
                let naks: Vec<u64> = sent
                    .iter()
                    .rev()
                    .take(16)
                    .rev()
                    .copied()
                    .filter(|seq| (seq + arg) % 3 == 0)
                    .collect();
                let stop_go = if arg % 4 == 3 { StopGo::Stop } else { StopGo::Go };
                let cp = |index: u64, enforced: bool| {
                    Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                        index,
                        covered: highest.saturating_sub(arg),
                        naks: naks.clone(),
                        enforced,
                        probe: enforced.then_some(arg),
                        stop_go,
                    }))
                };
                let mut input = |frame: Frame, now: Instant| {
                    two.handle_frame(now, frame.clone(), RxStatus::Ok);
                    one.handle_frame(now, frame, RxStatus::Ok);
                };
                match op {
                    0 | 1 => {
                        for _ in 0..=arg {
                            let a = two.push(PacketId(next_id), Bytes::from_static(b"sdu"));
                            let b = one.push(PacketId(next_id), Bytes::from_static(b"sdu"));
                            prop_assert_eq!(a, b);
                            next_id += 1;
                        }
                    }
                    2 => {
                        cp_index += 1;
                        input(cp(cp_index, false), now);
                    }
                    3 => {
                        // More than C_depth checkpoints lost: unsafe release.
                        cp_index += cfg.c_depth as u64 + 1 + arg % 2;
                        input(cp(cp_index, false), now);
                    }
                    4 => {
                        cp_index += 1;
                        input(cp(cp_index, true), now);
                    }
                    5 | 6 => {
                        // Silence: resolving expiries, then (for long
                        // enough) the checkpoint timer and enforced
                        // recovery.
                        now += if op == 5 { cfg.resolving_period() } else { cfg.checkpoint_timeout() };
                        now += Duration::from_micros(arg * 100);
                        two.on_timeout(now);
                        one.on_timeout(now);
                    }
                    _ => {}
                }
                // Transmit for a few frame times.
                for _ in 0..=arg * 2 {
                    loop {
                        let (a, b) = (two.poll_transmit(now), one.poll_transmit(now));
                        prop_assert_eq!(&a, &b);
                        match a {
                            Some(Frame::Info(i)) => sent.push(i.seq),
                            Some(_) => {}
                            None => break,
                        }
                    }
                    now += cfg.t_f;
                }
                prop_assert_eq!(two.queued(), one.queued());
                prop_assert_eq!(two.poll_timeout(), one.poll_timeout());
                prop_assert_eq!(two.state(), one.state());
            }
            // Same frames, same retransmission flags, causes and
            // renumberings, in the same order.
            prop_assert_eq!(&sink.borrow().0, &one_sink.borrow().0);
        }
    }

    #[test]
    fn initial_grace_exceeds_plain_timeout() {
        let (s, now) = started_sender();
        let d = s.poll_timeout().unwrap();
        assert_eq!(d, now + cfg().expected_rtt + cfg().checkpoint_timeout());
    }
}

// ------------------------------------------------------------ sans-IO host contract
