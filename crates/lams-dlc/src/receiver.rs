//! The LAMS-DLC receiver state machine (§3.2).
//!
//! The receiver:
//!
//! * delivers clean I-frames upward **immediately and out of order**
//!   (after the deterministic processing time `t_proc`) — the receiving
//!   buffer never holds frames for resequencing, which is what makes its
//!   size "transparent" (§3.3, §4);
//! * records erroneous I-frames — payload-corrupted arrivals *and* frames
//!   inferred lost from sequence gaps (losses are detectable errors,
//!   assumption 9; gaps work because the sender's wire numbers are
//!   strictly monotone) — and reports each for `C_depth` consecutive
//!   checkpoints (the cumulative NAK);
//! * emits a Check-Point command every `W_cp` for as long as the link is
//!   active, carrying the cumulative NAK list, the coverage horizon
//!   (implicit positive acknowledgement) and the Stop-Go bit;
//! * answers a Request-NAK immediately with an Enforced-NAK covering the
//!   resolving period (or a Resolving Command if it has nothing to
//!   report).
//!
//! It has no notification stream (`Event = ()`): what it could report
//! (errors recorded, Enforced-NAKs sent, overflow, duplicates, congestion
//! onset and clearance) is a [`ReceiverStats`] counter or a trace record
//! (`nak`, `checkpoint_emitted`, `buffer_watermark`).
//!
//! Errors are recorded in strictly ascending order. Gap inference,
//! corruption and overflow each record numbers above `highest_seen` (or
//! the first arrival's own number) and then raise it, and any later
//! arrival at or below `highest_seen` — a frame numbered 0 repeated
//! included — is dropped as stale, so every error exceeds every earlier
//! one. Each checkpoint interval keeps its errors as a sorted `Vec`, and
//! the cumulative NAK list is the in-order concatenation of the last
//! `C_depth` intervals: one linear pass, no set union, no sort and no
//! deduplication.

use crate::config::LamsConfig;
use crate::dedup::DedupWindow;
use crate::frame::{CheckPoint, ControlFrame, Frame, InfoFrame, PacketId, RxStatus, StopGo};
use bytes::Bytes;
use proto_core::{earliest, Instant};
use proto_core::{Trace, TraceEvent};
use std::collections::VecDeque;

/// A datagram handed to the network layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// End-to-end datagram id (for the destination resequencer).
    pub packet_id: PacketId,
    /// Link sequence number it arrived under (diagnostics only — the
    /// number is not stable across retransmissions).
    pub seq: u64,
    /// Payload.
    pub payload: Bytes,
    /// When processing completed and the datagram became available.
    pub ready_at: Instant,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Clean I-frames accepted for delivery.
    pub accepted: u64,
    /// Payload-corrupted arrivals recorded for NAKing.
    pub corrupted: u64,
    /// Frames inferred lost from sequence gaps.
    pub gaps_inferred: u64,
    /// Periodic checkpoints emitted.
    pub checkpoints_sent: u64,
    /// Enforced-NAKs sent in answer to Request-NAKs.
    pub enforced_sent: u64,
    /// Clean frames discarded because the processing queue was full.
    pub overflow_discards: u64,
    /// Duplicate wire sequence numbers ignored (should stay 0 on a FIFO
    /// link).
    pub stale_seq_dropped: u64,
    /// Duplicate datagrams suppressed by the link-level dedup window
    /// (the §3.2 "more recent version"; 0 unless enabled).
    pub duplicates_suppressed: u64,
}

/// The LAMS-DLC receiving endpoint.
pub struct Receiver {
    cfg: LamsConfig,
    /// Highest logical sequence number accounted for (arrived or inferred).
    highest_seen: u64,
    /// True once any I-frame has arrived: until then `highest_seen` is 0
    /// without 0 having been seen.
    any_arrived: bool,
    /// Errors detected during the current (open) checkpoint interval,
    /// in ascending order.
    current_errors: Vec<u64>,
    /// Errors of the most recent completed intervals, newest at the
    /// back; at most `C_depth` kept, so their in-order concatenation is
    /// exactly the cumulative NAK content.
    history: VecDeque<Vec<u64>>,
    cp_index: u64,
    next_cp_at: Option<Instant>,
    /// Deterministic single-server processing queue: (ready_at, delivery).
    processing: VecDeque<Delivery>,
    server_free_at: Instant,
    /// Maximum frames allowed in the processing queue.
    capacity: usize,
    /// Occupancy at or above which checkpoints signal Stop.
    stop_watermark: usize,
    congested: bool,
    pending_tx: VecDeque<Frame>,
    stats: ReceiverStats,
    /// Optional link-level duplicate suppression (§3.2 extension).
    dedup: Option<DedupWindow>,
    trace: Trace,
}

impl Receiver {
    /// Create a receiver with effectively unbounded processing capacity
    /// (the paper's transparent-buffer operating point).
    pub fn new(cfg: LamsConfig) -> Self {
        Self::with_capacity(cfg, usize::MAX / 2, usize::MAX / 2)
    }

    /// Create a receiver with a bounded processing queue: `capacity`
    /// frames total, Stop signalled at `stop_watermark` occupancy. Used by
    /// the flow-control experiments.
    pub fn with_capacity(cfg: LamsConfig, capacity: usize, stop_watermark: usize) -> Self {
        cfg.validate().expect("invalid LamsConfig");
        assert!(stop_watermark <= capacity);
        Receiver {
            cfg,
            highest_seen: 0,
            any_arrived: false,
            current_errors: Vec::new(),
            history: VecDeque::new(),
            cp_index: 0,
            next_cp_at: None,
            processing: VecDeque::new(),
            server_free_at: Instant::ZERO,
            capacity,
            stop_watermark,
            congested: false,
            pending_tx: VecDeque::new(),
            stats: ReceiverStats::default(),
            dedup: None,
            trace: Trace::disabled(),
        }
    }

    /// Enable the zero-duplication extension (§3.2's "more recent
    /// version"): datagrams repeated within one resolving period are
    /// suppressed at the link level, so the destination sees each id at
    /// most once even across enforced recovery. Memory is bounded by the
    /// resolving window.
    pub fn with_dedup(mut self) -> Self {
        let horizon = self.cfg.resolving_period();
        self.dedup = Some(DedupWindow::new(horizon));
        self
    }

    /// Mark the link active at `now`: the first checkpoint is scheduled one
    /// interval later, and checkpoints then flow for as long as the link
    /// is up (§3: "commands are sent by the receiver so long as the link
    /// is active").
    pub fn start(&mut self, now: Instant) {
        self.next_cp_at = Some(now + self.cfg.w_cp);
        self.server_free_at = now;
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Frames currently in the processing queue.
    #[inline]
    pub fn processing_occupancy(&self) -> usize {
        self.processing.len()
    }

    /// Highest sequence number accounted for.
    pub fn highest_seen(&self) -> u64 {
        self.highest_seen
    }

    /// Earliest instant at which the receiver has time-driven work.
    #[inline]
    pub fn poll_timeout(&self) -> Option<Instant> {
        earliest(self.next_cp_at, self.processing.front().map(|d| d.ready_at))
    }

    /// Fire timers due at `now` (checkpoint emission).
    #[inline]
    pub fn on_timeout(&mut self, now: Instant) {
        while let Some(at) = self.next_cp_at {
            if at > now {
                break;
            }
            self.emit_checkpoint(at, false, None);
            self.next_cp_at = Some(at + self.cfg.w_cp);
        }
    }

    /// Drain the next outbound control frame.
    #[inline]
    pub fn poll_transmit(&mut self, _now: Instant) -> Option<Frame> {
        self.pending_tx.pop_front()
    }

    /// Pop the next completed delivery whose processing finished by `now`.
    #[inline]
    pub fn poll_deliver(&mut self, now: Instant) -> Option<Delivery> {
        if self.processing.front().is_some_and(|d| d.ready_at <= now) {
            let d = self.processing.pop_front().expect("front");
            self.update_congestion(now);
            Some(d)
        } else {
            None
        }
    }

    /// Inject a frame from the channel.
    pub fn handle_frame(&mut self, now: Instant, frame: Frame, status: RxStatus) {
        match frame {
            Frame::Info(i) => self.handle_info(now, i, status),
            Frame::Control(ControlFrame::RequestNak { probe }) => {
                if status == RxStatus::Ok {
                    self.handle_request_nak(now, probe);
                }
                // A corrupted Request-NAK is indistinguishable from noise;
                // the sender's failure timer covers the retry.
            }
            // Checkpoints are sender-bound; ignore at the receiver.
            Frame::Control(ControlFrame::CheckPoint(_)) => {}
        }
    }

    fn handle_info(&mut self, now: Instant, info: InfoFrame, status: RxStatus) {
        self.trace.emit(now, || TraceEvent::IFrameRx {
            seq: info.seq,
            clean: status == RxStatus::Ok,
            len: info.payload.len() as u64,
        });
        // Gap inference: wire numbers are strictly monotone, so numbers
        // skipped below this arrival are lost frames (assumption 9).
        if self.any_arrived && info.seq <= self.highest_seen {
            // Duplicate or reordered wire frame — cannot happen on the
            // FIFO link; drop defensively.
            self.stats.stale_seq_dropped += 1;
            return;
        }
        self.any_arrived = true;
        let expected = self.highest_seen + 1;
        for missing in expected..info.seq {
            self.record_error(now, missing);
            self.stats.gaps_inferred += 1;
        }
        self.highest_seen = info.seq;

        match status {
            RxStatus::PayloadCorrupted => {
                self.stats.corrupted += 1;
                self.record_error(now, info.seq);
            }
            RxStatus::Ok => {
                if let Some(d) = self.dedup.as_mut() {
                    if !d.accept(now, info.packet_id) {
                        self.stats.duplicates_suppressed += 1;
                        return;
                    }
                }
                if self.processing.len() >= self.capacity {
                    // §3.4: the receiver may discard overflow while
                    // signalling Stop; the discarded frame is NAK'd so the
                    // sender retransmits it later.
                    self.stats.overflow_discards += 1;
                    self.record_error(now, info.seq);
                } else {
                    self.stats.accepted += 1;
                    let start = self.server_free_at.max(now);
                    let ready_at = start + self.cfg.t_proc;
                    self.server_free_at = ready_at;
                    self.processing.push_back(Delivery {
                        packet_id: info.packet_id,
                        seq: info.seq,
                        payload: info.payload,
                        ready_at,
                    });
                    self.update_congestion(now);
                }
            }
        }
    }

    fn record_error(&mut self, now: Instant, seq: u64) {
        debug_assert!(
            self.last_error().is_none_or(|last| last < seq),
            "error {seq} recorded after an equal or higher one"
        );
        self.current_errors.push(seq);
        // The open interval closes into checkpoint `cp_index + 1`: that is
        // the first checkpoint whose cumulative NAK list carries this error.
        self.trace.emit(now, || TraceEvent::Nak {
            seq,
            cp_index: self.cp_index + 1,
        });
    }

    /// The highest error still held, if any: the newest non-empty
    /// interval's last entry.
    fn last_error(&self) -> Option<u64> {
        let mut newest = std::iter::once(&self.current_errors).chain(self.history.iter().rev());
        newest.find_map(|errors| errors.last().copied())
    }

    fn handle_request_nak(&mut self, now: Instant, probe: u64) {
        // §3.2: "upon receiving a Request-NAK the receiver must respond
        // immediately with an Enforced-NAK" carrying all erroneous frames
        // from the resolving period — which the cumulative window spans.
        self.emit_checkpoint(now, true, Some(probe));
        self.stats.enforced_sent += 1;
    }

    fn emit_checkpoint(&mut self, now: Instant, enforced: bool, probe: Option<u64>) {
        // Close the current interval into history; keep C_depth intervals,
        // recycling the oldest one's buffer as the next open interval.
        let closing = core::mem::take(&mut self.current_errors);
        self.history.push_back(closing);
        while self.history.len() > self.cfg.c_depth as usize {
            if let Some(mut aged) = self.history.pop_front() {
                aged.clear();
                self.current_errors = aged;
            }
        }
        let mut naks = Vec::with_capacity(self.history.iter().map(Vec::len).sum());
        // Errors are strictly ascending (see the module doc), so the
        // concatenation is already a sorted set.
        for interval in &self.history {
            naks.extend_from_slice(interval);
        }
        self.cp_index += 1;
        let stop_go = if self.processing.len() >= self.stop_watermark {
            StopGo::Stop
        } else {
            StopGo::Go
        };
        self.stats.checkpoints_sent += 1;
        self.trace.emit(now, || TraceEvent::CheckpointEmitted {
            index: self.cp_index,
            covered: self.highest_seen,
            naks: naks.len() as u64,
            enforced,
            stop: stop_go == StopGo::Stop,
        });
        self.pending_tx
            .push_back(Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                index: self.cp_index,
                covered: self.highest_seen,
                naks,
                enforced,
                probe,
                stop_go,
            })));
    }

    #[inline]
    fn update_congestion(&mut self, now: Instant) {
        let now_congested = self.processing.len() >= self.stop_watermark;
        if now_congested && !self.congested {
            self.congested = true;
            self.trace.emit(now, || TraceEvent::BufferWatermark {
                buffer: "rx",
                level: self.processing.len() as u64,
                rising: true,
            });
        } else if !now_congested && self.congested {
            self.congested = false;
            self.trace.emit(now, || TraceEvent::BufferWatermark {
                buffer: "rx",
                level: self.processing.len() as u64,
                rising: false,
            });
        }
    }
}

impl proto_core::Machine for Receiver {
    type Frame = Frame;
    type Event = ();

    #[inline]
    fn start(&mut self, now: Instant) {
        Receiver::start(self, now);
    }

    #[inline]
    fn handle_frame(&mut self, now: Instant, frame: Frame, status: RxStatus) {
        Receiver::handle_frame(self, now, frame, status);
    }

    #[inline]
    fn poll_transmit(&mut self, now: Instant) -> Option<Frame> {
        Receiver::poll_transmit(self, now)
    }

    #[inline]
    fn poll_timeout(&self) -> Option<Instant> {
        Receiver::poll_timeout(self)
    }

    #[inline]
    fn on_timeout(&mut self, now: Instant) {
        Receiver::on_timeout(self, now);
    }

    #[inline]
    fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }
}

impl proto_core::ReceiverMachine for Receiver {
    #[inline]
    fn poll_deliver(&mut self, now: Instant) -> Option<proto_core::Delivered> {
        Receiver::poll_deliver(self, now).map(|d| proto_core::Delivered {
            id: d.packet_id.0,
            payload: d.payload,
        })
    }

    #[inline]
    fn occupancy(&self) -> usize {
        self.processing_occupancy()
    }

    #[inline]
    fn stat_pairs(&self) -> Vec<(&'static str, f64)> {
        let s = self.stats();
        vec![
            (
                "lams.receiver.overflow_discards",
                s.overflow_discards as f64,
            ),
            ("lams.receiver.enforced_naks_sent", s.enforced_sent as f64),
            ("lams.receiver.checkpoints_sent", s.checkpoints_sent as f64),
            ("lams.receiver.gaps_inferred", s.gaps_inferred as f64),
            ("lams.receiver.corrupted_arrivals", s.corrupted as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorded::{recorder, Recorded};
    use proptest::prelude::*;
    use proto_core::{Duration, Machine};
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    /// `r` emitting into a fresh [`Recorded`].
    fn traced(r: Receiver) -> (Receiver, Rc<RefCell<Recorded>>) {
        let (trace, sink) = recorder("rx");
        (r.with_trace(trace), sink)
    }

    /// The cumulative NAK list as a union of interval sets, then sorted:
    /// the computation the linear concatenation replaced, kept as the
    /// oracle for it.
    fn cumulative_naks_by_union(history: &VecDeque<BTreeSet<u64>>) -> Vec<u64> {
        let mut naks: Vec<u64> = history
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        naks.sort_unstable();
        naks
    }

    fn cfg() -> LamsConfig {
        LamsConfig::paper_default()
    }

    fn started() -> (Receiver, Instant) {
        let mut r = Receiver::new(cfg());
        r.start(Instant::ZERO);
        (r, Instant::ZERO)
    }

    fn info(seq: u64) -> Frame {
        Frame::Info(InfoFrame {
            seq,
            packet_id: PacketId(1000 + seq),
            payload: Bytes::from_static(b"data"),
        })
    }

    fn next_cp(r: &mut Receiver, at: Instant) -> CheckPoint {
        r.on_timeout(at);
        match r.poll_transmit(at) {
            Some(Frame::Control(ControlFrame::CheckPoint(cp))) => cp,
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_flow_periodically_even_when_idle() {
        let (mut r, now) = started();
        assert_eq!(r.poll_timeout(), Some(now + cfg().w_cp));
        for k in 1..=5u64 {
            let cp = next_cp(&mut r, now + cfg().w_cp * k);
            assert_eq!(cp.index, k);
            assert!(cp.naks.is_empty());
            assert_eq!(cp.covered, 0);
            assert!(!cp.enforced);
        }
        assert_eq!(r.stats().checkpoints_sent, 5);
    }

    #[test]
    fn clean_frame_delivered_after_t_proc() {
        let (mut r, now) = started();
        r.handle_frame(now, info(1), RxStatus::Ok);
        assert_eq!(r.processing_occupancy(), 1);
        assert!(r.poll_deliver(now).is_none(), "not ready before t_proc");
        let ready = now + cfg().t_proc;
        let d = r.poll_deliver(ready).expect("delivery");
        assert_eq!(d.packet_id, PacketId(1001));
        assert_eq!(d.seq, 1);
        assert_eq!(r.processing_occupancy(), 0);
        assert_eq!(r.stats().accepted, 1);
    }

    #[test]
    fn out_of_order_numbers_deliver_immediately() {
        // Wire seq jumps 1 → 3 (2 was lost): 3 is delivered without
        // waiting — the relaxed in-sequence constraint in action.
        let (mut r, now) = started();
        r.handle_frame(now, info(1), RxStatus::Ok);
        r.handle_frame(now, info(3), RxStatus::Ok);
        let t = now + cfg().t_proc * 2;
        let d1 = r.poll_deliver(t).unwrap();
        let d2 = r.poll_deliver(t).unwrap();
        assert_eq!((d1.seq, d2.seq), (1, 3));
        assert_eq!(r.stats().gaps_inferred, 1);
    }

    #[test]
    fn corrupted_frame_recorded_and_nacked() {
        let (mut r, now) = started();
        r.handle_frame(now, info(1), RxStatus::PayloadCorrupted);
        let cp = next_cp(&mut r, now + cfg().w_cp);
        assert_eq!(cp.naks, vec![1]);
        assert_eq!(cp.covered, 1, "corrupted frame still advances coverage");
        assert_eq!(r.stats().corrupted, 1);
    }

    #[test]
    fn gap_inferred_loss_nacked() {
        let (mut r, now) = started();
        r.handle_frame(now, info(5), RxStatus::Ok);
        let cp = next_cp(&mut r, now + cfg().w_cp);
        assert_eq!(cp.naks, vec![1, 2, 3, 4]);
        assert_eq!(cp.covered, 5);
    }

    #[test]
    fn cumulative_nak_repeats_for_c_depth_checkpoints() {
        let (mut r, now) = started();
        r.handle_frame(now, info(1), RxStatus::PayloadCorrupted);
        let c_depth = cfg().c_depth as u64;
        for k in 1..=c_depth {
            let cp = next_cp(&mut r, now + cfg().w_cp * k);
            assert_eq!(cp.naks, vec![1], "checkpoint {k} must repeat the NAK");
        }
        // After C_depth checkpoints the NAK ages out.
        let cp = next_cp(&mut r, now + cfg().w_cp * (c_depth + 1));
        assert!(cp.naks.is_empty(), "NAK did not age out: {:?}", cp.naks);
    }

    #[test]
    fn distinct_intervals_carry_disjoint_new_information() {
        // Errors in different intervals accumulate; the checkpoint's list
        // is their union over the window.
        let (mut r, now) = started();
        r.handle_frame(now, info(1), RxStatus::PayloadCorrupted);
        let cp1 = next_cp(&mut r, now + cfg().w_cp);
        assert_eq!(cp1.naks, vec![1]);
        r.handle_frame(now + cfg().w_cp, info(2), RxStatus::PayloadCorrupted);
        let cp2 = next_cp(&mut r, now + cfg().w_cp * 2);
        assert_eq!(cp2.naks, vec![1, 2]);
    }

    #[test]
    fn request_nak_answered_immediately_with_enforced() {
        let (r, now) = started();
        let (mut r, sink) = traced(r);
        r.handle_frame(now, info(1), RxStatus::PayloadCorrupted);
        let t = now + Duration::from_micros(100);
        r.handle_frame(
            t,
            Frame::Control(ControlFrame::RequestNak { probe: 7 }),
            RxStatus::Ok,
        );
        match r.poll_transmit(t) {
            Some(Frame::Control(ControlFrame::CheckPoint(cp))) => {
                assert!(cp.enforced);
                assert_eq!(cp.probe, Some(7));
                assert_eq!(cp.naks, vec![1]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().enforced_sent, 1);
        let sent = sink.borrow().0.iter().any(|e| {
            matches!(
                e,
                TraceEvent::CheckpointEmitted {
                    enforced: true,
                    naks: 1,
                    ..
                }
            )
        });
        assert!(sent);
    }

    #[test]
    fn enforced_nak_with_no_errors_is_resolving_command() {
        let (mut r, now) = started();
        r.handle_frame(
            now,
            Frame::Control(ControlFrame::RequestNak { probe: 1 }),
            RxStatus::Ok,
        );
        match r.poll_transmit(now) {
            Some(Frame::Control(ControlFrame::CheckPoint(cp))) => {
                assert!(cp.is_resolving_command());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupted_request_nak_ignored() {
        let (mut r, now) = started();
        r.handle_frame(
            now,
            Frame::Control(ControlFrame::RequestNak { probe: 1 }),
            RxStatus::PayloadCorrupted,
        );
        assert!(r.poll_transmit(now).is_none());
        assert_eq!(r.stats().enforced_sent, 0);
    }

    #[test]
    fn overflow_discards_and_naks() {
        let mut r = Receiver::with_capacity(cfg(), 2, 1);
        r.start(Instant::ZERO);
        let now = Instant::ZERO;
        r.handle_frame(now, info(1), RxStatus::Ok);
        r.handle_frame(now, info(2), RxStatus::Ok);
        r.handle_frame(now, info(3), RxStatus::Ok); // over capacity
        assert_eq!(r.stats().overflow_discards, 1);
        assert_eq!(r.processing_occupancy(), 2);
        let cp = next_cp(&mut r, now + cfg().w_cp);
        assert_eq!(cp.naks, vec![3], "discarded frame must be NAK'd");
        assert_eq!(cp.stop_go, StopGo::Stop);
    }

    #[test]
    fn stop_go_tracks_watermark() {
        let (mut r, sink) = traced(Receiver::with_capacity(cfg(), 10, 2));
        r.start(Instant::ZERO);
        let now = Instant::ZERO;
        r.handle_frame(now, info(1), RxStatus::Ok);
        let cp = next_cp(&mut r, now + cfg().w_cp);
        assert_eq!(cp.stop_go, StopGo::Go);
        r.handle_frame(now + cfg().w_cp, info(2), RxStatus::Ok);
        r.handle_frame(now + cfg().w_cp, info(3), RxStatus::Ok);
        let cp = next_cp(&mut r, now + cfg().w_cp * 2);
        assert_eq!(cp.stop_go, StopGo::Stop);
        // Drain the queue; congestion clears.
        let mut t = now + cfg().w_cp * 2;
        let mut drained = 0;
        while drained < 3 {
            t += cfg().t_proc;
            if r.poll_deliver(t).is_some() {
                drained += 1;
            }
        }
        let crossings: Vec<bool> = sink
            .borrow()
            .0
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::BufferWatermark { rising, .. } => Some(rising),
                _ => None,
            })
            .collect();
        assert_eq!(crossings, vec![true, false], "onset, then clearance");
        let cp = next_cp(&mut r, t.max(now + cfg().w_cp * 3));
        assert_eq!(cp.stop_go, StopGo::Go);
    }

    #[test]
    fn stale_wire_seq_dropped() {
        let (mut r, now) = started();
        r.handle_frame(now, info(5), RxStatus::Ok);
        r.handle_frame(now, info(3), RxStatus::Ok);
        assert_eq!(r.stats().stale_seq_dropped, 1);
        assert_eq!(r.stats().accepted, 1);
    }

    #[test]
    fn a_repeated_seq_zero_is_stale() {
        let (mut r, now) = started();
        r.handle_frame(now, info(0), RxStatus::Ok);
        r.handle_frame(now, info(0), RxStatus::Ok);
        assert_eq!(r.stats().accepted, 1);
        assert_eq!(r.stats().stale_seq_dropped, 1);
        let delivered = std::iter::from_fn(|| r.poll_deliver(now + cfg().t_proc * 2)).count();
        assert_eq!(delivered, 1);
    }

    #[test]
    fn processing_is_single_server_fifo() {
        // Two frames arriving together complete t_proc apart.
        let (mut r, now) = started();
        r.handle_frame(now, info(1), RxStatus::Ok);
        r.handle_frame(now, info(2), RxStatus::Ok);
        let d1 = r.poll_deliver(now + cfg().t_proc).expect("first");
        assert_eq!(d1.ready_at, now + cfg().t_proc);
        assert!(r.poll_deliver(now + cfg().t_proc).is_none());
        let d2 = r.poll_deliver(now + cfg().t_proc * 2).expect("second");
        assert_eq!(d2.ready_at, now + cfg().t_proc * 2);
    }

    #[test]
    fn enforced_nak_while_congested_carries_stop() {
        // A Request-NAK during congestion must still be answered
        // immediately, and the Enforced-NAK carries the Stop bit.
        let mut r = Receiver::with_capacity(cfg(), 4, 1);
        r.start(Instant::ZERO);
        let now = Instant::ZERO;
        for s in 1..=3 {
            r.handle_frame(now, info(s), RxStatus::Ok);
        }
        r.handle_frame(
            now,
            Frame::Control(ControlFrame::RequestNak { probe: 9 }),
            RxStatus::Ok,
        );
        match r.poll_transmit(now) {
            Some(Frame::Control(ControlFrame::CheckPoint(cp))) => {
                assert!(cp.enforced);
                assert_eq!(cp.stop_go, StopGo::Stop);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checkpoint_indices_strictly_increase_across_enforced() {
        // Enforced-NAKs share the checkpoint index sequence, so the
        // sender's staleness/gap logic stays sound.
        let (mut r, now) = started();
        let cp1 = next_cp(&mut r, now + cfg().w_cp);
        r.handle_frame(
            now + cfg().w_cp,
            Frame::Control(ControlFrame::RequestNak { probe: 1 }),
            RxStatus::Ok,
        );
        let enak = match r.poll_transmit(now + cfg().w_cp) {
            Some(Frame::Control(ControlFrame::CheckPoint(cp))) => cp,
            other => panic!("{other:?}"),
        };
        let cp3 = next_cp(&mut r, now + cfg().w_cp * 2);
        assert!(cp1.index < enak.index);
        assert!(enak.index < cp3.index);
    }

    #[test]
    fn watermark_equal_capacity_never_stops_until_full() {
        let mut r = Receiver::with_capacity(cfg(), 2, 2);
        r.start(Instant::ZERO);
        let now = Instant::ZERO;
        r.handle_frame(now, info(1), RxStatus::Ok);
        let cp = next_cp(&mut r, now + cfg().w_cp);
        assert_eq!(cp.stop_go, StopGo::Go);
        r.handle_frame(now + cfg().w_cp, info(2), RxStatus::Ok);
        let cp = next_cp(&mut r, now + cfg().w_cp * 2);
        assert_eq!(cp.stop_go, StopGo::Stop);
    }

    #[test]
    fn dedup_extension_suppresses_repeats() {
        let mut r = Receiver::new(cfg()).with_dedup();
        r.start(Instant::ZERO);
        let now = Instant::ZERO;
        // Original under seq 1, duplicate (same packet id) under the
        // renumbered seq 2 — the enforced-recovery duplication pattern.
        r.handle_frame(
            now,
            Frame::Info(InfoFrame {
                seq: 1,
                packet_id: PacketId(500),
                payload: Bytes::from_static(b"d"),
            }),
            RxStatus::Ok,
        );
        r.handle_frame(
            now + Duration::from_millis(3),
            Frame::Info(InfoFrame {
                seq: 2,
                packet_id: PacketId(500),
                payload: Bytes::from_static(b"d"),
            }),
            RxStatus::Ok,
        );
        assert_eq!(r.stats().duplicates_suppressed, 1);
        assert_eq!(r.stats().accepted, 1);
        // Coverage still advances past the duplicate's sequence number.
        assert_eq!(r.highest_seen(), 2);
        // Exactly one delivery comes out.
        let t = now + cfg().t_proc * 4;
        assert!(r.poll_deliver(t).is_some());
        assert!(r.poll_deliver(t).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn checkpoint_naks_match_the_set_union_oracle(
            c_depth in 1u32..6,
            capacity in 1usize..12,
            dedup in proptest::bool::ANY,
            ops in proptest::collection::vec((0u8..7, 0u64..6), 1..300),
        ) {
            let cfg = LamsConfig { c_depth, ..cfg() };
            let mut r = Receiver::with_capacity(cfg.clone(), capacity, capacity);
            if dedup {
                r = r.with_dedup();
            }
            let (mut r, sink) = traced(r);
            r.start(Instant::ZERO);
            let mut now = Instant::ZERO;
            let mut current = BTreeSet::new();
            let mut history: VecDeque<BTreeSet<u64>> = VecDeque::new();
            let mut checkpoints = 0;
            for (kind, k) in ops {
                let fresh = r.highest_seen() + 1 + k; // k numbers lost before it
                let packet_id = PacketId(fresh % 8); // repeats for the dedup window
                let arrival = |seq| Frame::Info(InfoFrame {
                    seq,
                    packet_id,
                    payload: Bytes::from_static(b"data"),
                });
                match kind {
                    // Clean or corrupted arrivals after a gap of `k`; clean
                    // ones overflow a full processing queue.
                    0 | 1 => r.handle_frame(now, arrival(fresh), RxStatus::Ok),
                    2 => r.handle_frame(now, arrival(fresh), RxStatus::PayloadCorrupted),
                    // A stale number, or 0 while nothing has arrived (a
                    // repeated 0 is stale too).
                    3 => r.handle_frame(
                        now,
                        arrival(r.highest_seen().saturating_sub(k)),
                        RxStatus::PayloadCorrupted,
                    ),
                    4 => r.handle_frame(
                        now,
                        Frame::Control(ControlFrame::RequestNak { probe: k }),
                        RxStatus::Ok,
                    ),
                    // Time passes: due checkpoints fire, processing drains.
                    _ => {
                        now += cfg.w_cp * k / 2 + cfg.t_proc * k;
                        r.on_timeout(now);
                        while r.poll_deliver(now).is_some() {}
                    }
                }
                for event in sink.borrow_mut().0.drain(..) {
                    if let TraceEvent::Nak { seq, .. } = event {
                        current.insert(seq);
                    }
                }
                while let Some(frame) = r.poll_transmit(now) {
                    let Frame::Control(ControlFrame::CheckPoint(cp)) = frame else {
                        panic!("receiver sent {frame:?}");
                    };
                    history.push_back(core::mem::take(&mut current));
                    while history.len() > c_depth as usize {
                        history.pop_front();
                    }
                    prop_assert_eq!(cp.naks, cumulative_naks_by_union(&history));
                    checkpoints += 1;
                }
            }
            prop_assert_eq!(r.stats().checkpoints_sent, checkpoints);
        }
    }

    #[test]
    fn missed_checkpoint_ticks_catch_up() {
        // If the driver calls on_timeout late, every due checkpoint is
        // still emitted (indices stay contiguous).
        let (mut r, now) = started();
        r.on_timeout(now + cfg().w_cp * 3);
        let mut indices = Vec::new();
        while let Some(Frame::Control(ControlFrame::CheckPoint(cp))) =
            r.poll_transmit(now + cfg().w_cp * 3)
        {
            indices.push(cp.index);
        }
        assert_eq!(indices, vec![1, 2, 3]);
    }
}

// ------------------------------------------------------------ sans-IO host contract
