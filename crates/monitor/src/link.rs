//! One link's monitor state: a single frame table shared by the
//! invariant audit and the latency attribution.
//!
//! A [`LinkState`] mirrors the sender/receiver pair of one link, rebuilt
//! from the trace alone. It keeps one [`Frame`] per unresolved user
//! frame in a [`FrameTable`]: the entries sit in a slab with a free
//! list, and a window keyed by current wire sequence number maps each
//! number to its slot. Handlers read and write an entry in place,
//! `Renumbered` moves the slot to the fresh number, and a release frees
//! the slot for the next fresh frame. Each event handler takes two
//! steps on that entry:
//!
//! - the **audit** checks the five LAMS-DLC invariants (see
//!   [`crate::Invariant`]) and feeds the tallies, windowed series and
//!   lifecycles;
//! - the **attribution** then splits the frame's delivery latency into
//!   the phases of [`crate::attribution`] and cross-checks each NAK
//!   resolution cycle against the analytic resolving period.
//!
//! Both steps read the same checkpoint log and the same
//! enforced-recovery and Stop-Go span logs. Only links whose sender
//! announced a [`telemetry::TraceEvent::SenderConfig`] are armed: the
//! HDLC baselines reuse sequence numbers by design, satisfy none of the
//! LAMS invariants, and keep no per-frame state here.

use crate::attribution::{AttributionAgg, Phase};
use crate::finding::{AuditFinding, Findings, Invariant};
use crate::lifecycle::FrameLifecycle;
use crate::series::LinkSeries;
use proto_core::{SeqSet, SeqWindow};
use sim_core::{Duration, Instant};
use std::collections::BTreeMap;

/// Sender timing parameters announced at `start()`, the wall slack
/// already added to each audited bound.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkTiming {
    /// Checkpoint interval `W_cp`.
    pub w_cp: Duration,
    /// Sender checkpoint timeout (`C_depth·W_cp` + slack).
    pub cp_timeout: Duration,
    /// Expected round-trip time `R`.
    pub rtt: Duration,
    /// Numbering bound: the sender's resolving period
    /// (`R + W_cp/2 + C_depth·W_cp` + its own slack).
    pub resolving: Duration,
    /// Failure-timer duration.
    pub failure: Duration,
    /// Resolution bound, nanoseconds: the analytic resolving period
    /// (`analysis::periods::resolving_period_raw`) plus the wall slack.
    pub resolution_ns: u64,
}

impl LinkTiming {
    /// The bounds a `SenderConfig` announces, each widened by
    /// `slack_ns`, the monitor's wall-clock allowance (0 on sim streams).
    pub fn announced(
        w_cp_ns: u64,
        c_depth: u64,
        rtt_ns: u64,
        cp_timeout_ns: u64,
        resolving_ns: u64,
        failure_ns: u64,
        slack_ns: u64,
    ) -> Self {
        let analytic = analysis::periods::resolving_period_raw(
            rtt_ns as f64 / 1e9,
            w_cp_ns as f64 / 1e9,
            c_depth as u32,
        );
        LinkTiming {
            w_cp: Duration::from_nanos(w_cp_ns + slack_ns),
            cp_timeout: Duration::from_nanos(cp_timeout_ns + slack_ns),
            rtt: Duration::from_nanos(rtt_ns),
            resolving: Duration::from_nanos(resolving_ns + slack_ns),
            failure: Duration::from_nanos(failure_ns + slack_ns),
            resolution_ns: (analytic * 1e9).round() as u64 + slack_ns,
        }
    }
}

/// Per-run tallies folded into the experiment metrics at run end.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkTally {
    /// Completed lifecycles (frames released).
    pub frames: u64,
    /// Unique clean deliveries.
    pub delivered: u64,
    /// NAKs observed.
    pub naks: u64,
    /// Retransmissions observed.
    pub retransmissions: u64,
    /// Peak unresolved-frame count.
    pub max_outstanding: u64,
    /// Delivery latency samples (first send → first clean arrival), ns.
    pub latencies: Vec<u64>,
}

impl LinkTally {
    /// Add another link's tallies: sums, the larger peak, and its
    /// latency samples after these.
    pub fn add(&mut self, other: &LinkTally) {
        self.frames += other.frames;
        self.delivered += other.delivered;
        self.naks += other.naks;
        self.retransmissions += other.retransmissions;
        self.max_outstanding = self.max_outstanding.max(other.max_outstanding);
        self.latencies.extend_from_slice(&other.latencies);
    }
}

/// One unresolved user frame, keyed by its current wire sequence number.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct Frame {
    /// The copy under the current wire number arrived clean. Per
    /// number, not per frame: renumbering leaves it behind.
    arrived: bool,
    first_seq: u64,
    first_tx: Instant,
    /// Latest bound by which the frame must resolve (release or
    /// renumber); extended when enforced recovery restarts the clock.
    deadline: Instant,
    naks: u32,
    retx: u32,
    /// First clean arrival; after it, events no longer charge phases.
    delivered_at: Option<Instant>,
    /// True once any copy was a retransmission (for the in-flight HWM).
    is_retx: bool,
    /// Renumbered but the fresh copy has not left the sender yet.
    renumber_pending: bool,
    /// Monotone segmentation cursor, nanoseconds; the phase sums always
    /// equal `cursor − first_tx`.
    cursor: u64,
    phases: [u64; 8],
    /// Bit `p` is set once phase `p` holds a charge; every other phase
    /// holds 0, so a delivery reads and folds only the charged ones.
    charged: u8,
    /// Copies the sender decided to send so far (1 = original only).
    copies: u32,
    /// First checkpoint index that carried the current NAK, if any.
    err_cp_first: Option<u64>,
    /// When the receiver recorded the current error (opens a resolution
    /// cycle closed by the sender's retransmission decision).
    pending_err: Option<u64>,
    /// Worst cumulation-repeat count this frame saw.
    max_repeats: u64,
}

impl Frame {
    /// Add `ns` to `phase`.
    fn charge(&mut self, phase: Phase, ns: u64) {
        self.phases[phase as usize] += ns;
        self.charged |= u8::from(ns != 0) << phase as u8;
    }

    /// Charge `[cursor, to]` to `phase` when `to` is ahead of the
    /// cursor; out-of-order milestones charge nothing.
    fn seg(&mut self, to: u64, phase: Phase) {
        if to > self.cursor {
            self.charge(phase, to - self.cursor);
            self.cursor = to;
        }
    }

    /// The charged phases' indices and charges, in phase order.
    fn charges(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mut bits = self.charged;
        std::iter::from_fn(move || {
            let phase = bits.trailing_zeros() as usize;
            bits &= bits.checked_sub(1)?;
            Some((phase, self.phases[phase]))
        })
    }

    /// The flight phase a copy's arrival closes into.
    fn flight(&self) -> Phase {
        if self.copies == 1 {
            Phase::FirstFlight
        } else {
            Phase::RetxFlight
        }
    }
}

/// A slot in a [`FrameTable`]'s slab.
type Slot = u32;

/// The unresolved frames of one link, keyed by current wire number.
///
/// Entries live in a slab with a free list, and a [`SeqWindow`] maps
/// each wire number to its slot. Handlers read and write an entry in
/// place, renumbering moves a slot from one number to another, and a
/// released slot is reused by the next fresh frame: no entry is moved
/// after it is written.
#[derive(Debug, Default)]
struct FrameTable {
    slab: Vec<Frame>,
    free: Vec<Slot>,
    index: SeqWindow<Slot>,
}

impl FrameTable {
    /// Frames held.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot holding the frame numbered `seq`.
    fn slot(&self, seq: u64) -> Option<Slot> {
        self.index.get(seq).copied()
    }

    /// The frame numbered `seq`.
    fn get(&self, seq: u64) -> Option<&Frame> {
        self.slot(seq).map(|slot| self.entry(slot))
    }

    /// The frame numbered `seq`, mutably.
    fn get_mut(&mut self, seq: u64) -> Option<&mut Frame> {
        let slot = self.slot(seq)?;
        Some(self.entry_mut(slot))
    }

    /// The frame in `slot`, which stays readable after [`FrameTable::remove`]
    /// freed it until the next [`FrameTable::insert`].
    fn entry(&self, slot: Slot) -> &Frame {
        &self.slab[slot as usize]
    }

    /// The frame in `slot`, mutably.
    fn entry_mut(&mut self, slot: Slot) -> &mut Frame {
        &mut self.slab[slot as usize]
    }

    /// Store `frame` under `seq`, replacing any frame numbered `seq`.
    fn insert(&mut self, seq: u64, frame: Frame) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = frame;
                slot
            }
            None => {
                self.slab.push(frame);
                Slot::try_from(self.slab.len() - 1).expect("fewer than 2^32 open frames")
            }
        };
        self.link(seq, slot);
    }

    /// Number the frame in `slot` `seq`, freeing the slot of any frame
    /// numbered `seq` before.
    fn link(&mut self, seq: u64, slot: Slot) {
        if let Some(replaced) = self.index.insert(seq, slot) {
            self.free.push(replaced);
        }
    }

    /// Take the number `seq` away from its frame, keeping the slot.
    fn unlink(&mut self, seq: u64) -> Option<Slot> {
        self.index.remove(seq)
    }

    /// Drop the frame numbered `seq`, returning its freed slot.
    fn remove(&mut self, seq: u64) -> Option<Slot> {
        let slot = self.unlink(seq)?;
        self.free.push(slot);
        Some(slot)
    }

    /// Every frame with its number, in ascending order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Frame)> {
        self.index
            .iter()
            .map(|(seq, &slot)| (seq, self.entry(slot)))
    }

    /// Restart every frame's resolution clock at `extended` at the
    /// latest.
    fn extend_deadlines(&mut self, extended: Instant) {
        for &mut slot in self.index.values_mut() {
            let frame = &mut self.slab[slot as usize];
            if frame.deadline < extended {
                frame.deadline = extended;
            }
        }
    }
}

/// Total overlap of `[from, to]` with the closed spans plus a
/// still-open span, nanoseconds.
fn overlap(spans: &[(u64, u64)], open: Option<u64>, from: u64, to: u64) -> u64 {
    let mut total = 0;
    for &(a, b) in spans {
        total += b.min(to).saturating_sub(a.max(from));
    }
    if let Some(a) = open {
        total += to.saturating_sub(a.max(from));
    }
    total
}

/// Mirrors one link's protocol state from its event stream.
pub(crate) struct LinkState {
    key: &'static str,
    experiment: &'static str,
    /// Set by `SenderConfig`: the one arming gate.
    timing: Option<LinkTiming>,
    cfg_node: &'static str,
    cfg_at: Instant,
    last_wire_seq: Option<u64>,
    frames: FrameTable,
    /// Wire numbers that arrived clean and hold no frame (any more):
    /// released frames, renumbered-away copies, stray arrivals. A live
    /// frame's number keeps the bit in [`Frame::arrived`] instead.
    arrived: SeqSet,
    /// Last accepted checkpoint `(t, index, covered)`, in arrival order:
    /// a damaged stream can move the index backwards.
    last_cp_rx: Option<(Instant, u64, u64)>,
    /// Last emitted checkpoint `(t, index)`, in arrival order.
    last_cp_emit: Option<(Instant, u64)>,
    /// Checkpoint emission instants by index (receiver side), ns.
    cp_emit: BTreeMap<u64, u64>,
    /// Checkpoint acceptance instants by index (sender side), ns.
    cp_rx: BTreeMap<u64, u64>,
    stop_open: Option<u64>,
    stop_spans: Vec<(u64, u64)>,
    enforced_open: Option<u64>,
    enforced_spans: Vec<(u64, u64)>,
    failed: bool,
    retx_open: u64,
    /// Windowed series for this link over the current run.
    pub series: LinkSeries,
    /// Per-run tallies.
    pub tally: LinkTally,
    keep_lifecycles: bool,
    /// Completed lifecycles (only populated when requested).
    pub lifecycles: Vec<FrameLifecycle>,
    /// The running attribution aggregate.
    pub agg: AttributionAgg,
}

impl LinkState {
    /// Fresh state for link `key` inside `experiment`.
    pub fn new(
        key: &'static str,
        experiment: &'static str,
        window: Duration,
        keep_lifecycles: bool,
    ) -> Self {
        LinkState {
            key,
            experiment,
            timing: None,
            cfg_node: "",
            cfg_at: Instant::ZERO,
            last_wire_seq: None,
            frames: FrameTable::default(),
            arrived: SeqSet::default(),
            last_cp_rx: None,
            last_cp_emit: None,
            cp_emit: BTreeMap::new(),
            cp_rx: BTreeMap::new(),
            stop_open: None,
            stop_spans: Vec::new(),
            enforced_open: None,
            enforced_spans: Vec::new(),
            failed: false,
            retx_open: 0,
            series: LinkSeries::new(window),
            tally: LinkTally::default(),
            keep_lifecycles,
            lifecycles: Vec::new(),
            agg: AttributionAgg::default(),
        }
    }

    /// True once the link's sender announced its configuration (i.e.
    /// this is a LAMS-DLC link and the monitor is active on it).
    pub fn armed(&self) -> bool {
        self.timing.is_some()
    }

    /// Unresolved frames right now.
    #[cfg(test)]
    pub(crate) fn open_frames(&self) -> usize {
        self.frames.len()
    }

    /// Sequence numbers the frame window's dense ring spans.
    #[cfg(test)]
    pub(crate) fn ring_span(&self) -> usize {
        self.frames.index.ring_span()
    }

    fn find(
        &self,
        t: Instant,
        node: &'static str,
        invariant: Invariant,
        window: (Instant, Instant),
        detail: String,
    ) -> AuditFinding {
        AuditFinding {
            t,
            node,
            experiment: self.experiment,
            invariant,
            window,
            detail,
        }
    }

    /// Was enforced recovery active at any point of `[from, to]`? Only
    /// the open span and the newest closed one count.
    fn enforced_overlaps(&self, from: Instant, to: Instant) -> bool {
        let (from, to) = (from.as_nanos(), to.as_nanos());
        if let Some(s) = self.enforced_open {
            if s <= to {
                return true;
            }
        }
        if let Some(&(s, e)) = self.enforced_spans.last() {
            return s <= to && e >= from;
        }
        false
    }

    /// `SenderConfig`: arm the link.
    pub fn on_sender_config(&mut self, t: Instant, node: &'static str, timing: LinkTiming) {
        self.timing = Some(timing);
        self.cfg_node = node;
        self.cfg_at = t;
        self.agg.res_bound_ns = timing.resolution_ns;
    }

    /// `IFrameTx` at the sender. Fresh sends open a frame; a
    /// retransmission was already charged by its `retx_cause` record.
    pub fn on_tx(
        &mut self,
        t: Instant,
        node: &'static str,
        seq: u64,
        retx: bool,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        // (b) Wire sequence numbers are strictly monotone: every
        // transmission, first or repeated, consumes a fresh number.
        if let Some(last) = self.last_wire_seq {
            if seq <= last {
                out.push(self.find(
                    t,
                    node,
                    Invariant::MonotoneSeq,
                    (t, t),
                    format!("wire seq {seq} not above previous {last}"),
                ));
            }
        }
        self.last_wire_seq = Some(self.last_wire_seq.map_or(seq, |l| l.max(seq)));

        if retx {
            self.tally.retransmissions += 1;
            match self.frames.get_mut(seq) {
                Some(frame) if frame.renumber_pending => {
                    frame.renumber_pending = false;
                    frame.retx += 1;
                    // The retransmitted copy restarts its own resolving
                    // period, like any outstanding frame.
                    frame.deadline = t + timing.resolving;
                    if !frame.is_retx {
                        frame.is_retx = true;
                        self.retx_open += 1;
                    }
                }
                _ => out.push(self.find(
                    t,
                    node,
                    Invariant::MonotoneSeq,
                    (t, t),
                    format!("retransmission of seq {seq} without a renumbering event"),
                )),
            }
        } else {
            let arrived = match self.frames.get(seq) {
                Some(live) => {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::MonotoneSeq,
                        (t, t),
                        format!("first transmission reuses live seq {seq}"),
                    ));
                    live.arrived
                }
                None => self.arrived.contains(seq),
            };
            self.frames.insert(
                seq,
                Frame {
                    arrived,
                    first_seq: seq,
                    first_tx: t,
                    deadline: t + timing.resolving,
                    naks: 0,
                    retx: 0,
                    delivered_at: None,
                    is_retx: false,
                    renumber_pending: false,
                    cursor: t.as_nanos(),
                    phases: [0; 8],
                    charged: 0,
                    copies: 1,
                    err_cp_first: None,
                    pending_err: None,
                    max_repeats: 0,
                },
            );
        }
        let outstanding = self.frames.len() as u64;
        self.tally.max_outstanding = self.tally.max_outstanding.max(outstanding);
        let retx_open = self.retx_open;
        let w = self.series.at(t);
        w.tx += 1;
        if retx {
            w.retx += 1;
        }
        w.outstanding_hwm = w.outstanding_hwm.max(outstanding);
        w.retx_in_flight_hwm = w.retx_in_flight_hwm.max(retx_open);
    }

    /// `IFrameRx` at the receiver. A frame's first clean arrival closes
    /// its attribution: charge the final flight segment, audit the phase
    /// sum against the measured latency, and fold into the aggregate.
    pub fn on_rx(&mut self, t: Instant, seq: u64, clean: bool, out: &mut Findings) {
        if self.timing.is_none() || !clean {
            return;
        }
        let first = match self.frames.get_mut(seq) {
            Some(frame) => {
                if frame.delivered_at.is_none() {
                    frame.delivered_at = Some(t);
                    let tn = t.as_nanos();
                    let flight = frame.flight();
                    frame.seg(tn, flight);
                    let agg = &mut self.agg;
                    let latency = tn.saturating_sub(frame.first_tx.as_nanos());
                    let sum: u64 = frame.charges().map(|(_, ns)| ns).sum();
                    if sum != latency {
                        agg.audit_failures += 1;
                        out.push(AuditFinding {
                            t,
                            node: self.cfg_node,
                            experiment: self.experiment,
                            invariant: Invariant::AttributionSum,
                            window: (frame.first_tx, t),
                            detail: format!(
                                "phase sum {sum} ns != measured latency {latency} ns for seq {seq}"
                            ),
                        });
                    }
                    agg.sdus += 1;
                    if frame.copies > 1 {
                        agg.errored += 1;
                    } else {
                        agg.clean += 1;
                    }
                    agg.latency_total_ns += latency;
                    agg.max_nak_repeats = agg.max_nak_repeats.max(frame.max_repeats);
                    for (phase, ns) in frame.charges() {
                        agg.phases[phase].add(ns);
                    }
                }
                !std::mem::replace(&mut frame.arrived, true)
            }
            None => self.arrived.insert(seq),
        };
        if first {
            self.tally.delivered += 1;
            self.series.at(t).delivered += 1;
        }
    }

    /// `Nak` at the receiver: count it, close the frame's flight
    /// segment and open its NAK wait (and resolution cycle).
    pub fn on_nak(&mut self, t: Instant, seq: u64, cp_index: u64) {
        if self.timing.is_none() {
            return;
        }
        self.tally.naks += 1;
        self.series.at(t).naks += 1;
        if let Some(frame) = self.frames.get_mut(seq) {
            frame.naks += 1;
            if frame.delivered_at.is_none() {
                let tn = t.as_nanos();
                let flight = frame.flight();
                frame.seg(tn, flight);
                if frame.err_cp_first.is_none() {
                    frame.err_cp_first = Some(cp_index);
                }
                frame.pending_err = Some(tn);
            }
        }
    }

    /// `CheckpointEmitted` at the receiver: cadence invariant (c),
    /// receiver side — consecutive emissions at most `W_cp` apart, with
    /// contiguous indices.
    pub fn on_cp_emit(&mut self, t: Instant, node: &'static str, index: u64, out: &mut Findings) {
        let Some(timing) = self.timing else { return };
        if let Some((prev_t, prev_idx)) = self.last_cp_emit {
            let gap = t.saturating_duration_since(prev_t);
            if gap > timing.w_cp {
                out.push(self.find(
                    t,
                    node,
                    Invariant::CheckpointCadence,
                    (prev_t, t),
                    format!(
                        "checkpoint emission gap {:.6}s exceeds W_cp {:.6}s",
                        gap.as_secs_f64(),
                        timing.w_cp.as_secs_f64()
                    ),
                ));
            }
            if prev_idx.checked_add(1) != Some(index) {
                out.push(self.find(
                    t,
                    node,
                    Invariant::StreamIntegrity,
                    (prev_t, t),
                    format!("checkpoint index {index} after {prev_idx} (must be contiguous)"),
                ));
            }
        }
        self.last_cp_emit = Some((t, index));
        self.cp_emit.insert(index, t.as_nanos());
    }

    /// `CheckpointReceived` at the sender: cadence invariant (c), sender
    /// side — silence beyond the checkpoint timeout is only legal under
    /// enforced recovery.
    pub fn on_cp_rx(
        &mut self,
        t: Instant,
        node: &'static str,
        index: u64,
        covered: u64,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        let (since, bound) = match self.last_cp_rx {
            Some((prev_t, _, _)) => (prev_t, timing.cp_timeout),
            // First checkpoint: the sender grants one RTT of grace on
            // top of the timeout (mirrors Sender::start()).
            None => (self.cfg_at, timing.rtt + timing.cp_timeout),
        };
        let gap = t.saturating_duration_since(since);
        if gap > bound && !self.enforced_overlaps(since, t) {
            out.push(self.find(
                t,
                node,
                Invariant::CheckpointCadence,
                (since, t),
                format!(
                    "checkpoint silence {:.6}s exceeds {:.6}s without enforced recovery",
                    gap.as_secs_f64(),
                    bound.as_secs_f64()
                ),
            ));
        }
        if let Some((prev_t, prev_idx, _)) = self.last_cp_rx {
            if index <= prev_idx {
                out.push(self.find(
                    t,
                    node,
                    Invariant::StreamIntegrity,
                    (prev_t, t),
                    format!("accepted checkpoint index {index} not above {prev_idx}"),
                ));
            }
        }
        self.last_cp_rx = Some((t, index, covered));
        self.cp_rx.insert(index, t.as_nanos());
    }

    /// `Renumbered` at the sender: the frame moves to its fresh number.
    /// Invariant (e): the old copy's fate was decided within its
    /// resolving period (one extra period of drain allowance covers the
    /// retransmit-queue wait between requeue and renumbering).
    pub fn on_renumbered(
        &mut self,
        t: Instant,
        node: &'static str,
        old_seq: u64,
        new_seq: u64,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        match self.frames.unlink(old_seq) {
            Some(slot) => {
                let frame = self.frames.entry(slot);
                if frame.arrived {
                    self.arrived.insert(old_seq);
                }
                let bound = frame.deadline + timing.resolving;
                if t > bound {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::NumberingBound,
                        (frame.first_tx, t),
                        format!(
                            "seq {old_seq} renumbered at {:.6}s, past its resolving bound {:.6}s",
                            t.as_secs_f64(),
                            bound.as_secs_f64()
                        ),
                    ));
                }
                let arrived = match self.frames.get(new_seq) {
                    Some(live) => live.arrived,
                    None => self.arrived.contains(new_seq),
                };
                let frame = self.frames.entry_mut(slot);
                frame.renumber_pending = true;
                frame.arrived = arrived;
                self.frames.link(new_seq, slot);
            }
            None => out.push(self.find(
                t,
                node,
                Invariant::StreamIntegrity,
                (t, t),
                format!("renumbering of unknown seq {old_seq} -> {new_seq}"),
            )),
        }
    }

    /// `RetxCause`: the sender decided to retransmit `seq` (already
    /// renumbered) and said why. Decompose the elapsed time into phases
    /// and close the open resolution cycle against the resolution bound:
    /// the cycle ends when the checkpoint carrying the NAK reached the
    /// sender (enforced-recovery overlap excluded). Queueing after that
    /// is `retx_wait` and `stop_go`, which the numbering bound allows.
    pub fn on_retx_cause(
        &mut self,
        t: Instant,
        seq: u64,
        cause: &'static str,
        cp_index: u64,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        let LinkState {
            experiment,
            cfg_node,
            frames,
            cp_emit,
            cp_rx,
            stop_open,
            stop_spans,
            enforced_open,
            enforced_spans,
            agg,
            ..
        } = self;
        let Some(f) = frames.get_mut(seq) else {
            return;
        };
        if f.delivered_at.is_some() {
            return;
        }
        let tn = t.as_nanos();
        match cause {
            "nak" => {
                let err_cp = f.err_cp_first.take().unwrap_or(cp_index);
                if let Some(&e) = cp_emit.get(&err_cp) {
                    f.seg(e, Phase::NakWait);
                }
                let repeats = cp_index.saturating_sub(err_cp);
                f.max_repeats = f.max_repeats.max(repeats);
                if repeats > 0 {
                    if let Some(&e) = cp_emit.get(&cp_index) {
                        f.seg(e, Phase::NakLoss);
                    }
                }
                if let Some(&r) = cp_rx.get(&cp_index) {
                    f.seg(r, Phase::ControlFlight);
                }
                // Tail up to the decision: Stop-Go throttle overlap
                // first, the remainder is sender-side queueing/pacing.
                if tn > f.cursor {
                    let tail = tn - f.cursor;
                    let stop = overlap(stop_spans, *stop_open, f.cursor, tn).min(tail);
                    f.charge(Phase::StopGo, stop);
                    f.charge(Phase::RetxWait, tail - stop);
                    f.cursor = tn;
                }
                // Resolution cross-check: error record → the sender
                // learning of it, minus enforced-recovery restarts.
                if let Some(err_t) = f.pending_err.take() {
                    let learned = cp_rx.get(&cp_index).copied().unwrap_or(tn);
                    let cycle = learned.saturating_sub(err_t);
                    let allow = overlap(enforced_spans, *enforced_open, err_t, learned);
                    let adjusted = cycle.saturating_sub(allow);
                    agg.res_cycles += 1;
                    agg.res_max_ns = agg.res_max_ns.max(adjusted);
                    let bound = timing.resolution_ns;
                    if adjusted > bound {
                        agg.res_violations += 1;
                        out.push(AuditFinding {
                            t,
                            node: cfg_node,
                            experiment,
                            invariant: Invariant::ResolutionBound,
                            window: (Instant::from_nanos(err_t), Instant::from_nanos(learned)),
                            detail: format!(
                                "NAK resolution took {:.3} ms (adjusted; raw {:.3} ms) \
                                 > resolving period bound {:.3} ms for seq {seq}",
                                adjusted as f64 / 1e6,
                                cycle as f64 / 1e6,
                                bound as f64 / 1e6,
                            ),
                        });
                    }
                }
            }
            "resolve" => {
                // Enforced recovery / resolving timer forced the copy
                // out: everything since the last milestone is enforced
                // restart time.
                f.seg(tn, Phase::Enforced);
                f.err_cp_first = None;
                f.pending_err = None;
            }
            _ => {
                // "suspect": defensive retransmit after a checkpoint
                // index gap — time spent waiting out the lost reports.
                f.seg(tn, Phase::NakLoss);
                f.err_cp_first = None;
                f.pending_err = None;
            }
        }
        f.copies += 1;
    }

    /// `EnforcedRecoveryStarted`: open the enforced span, and restart
    /// every outstanding frame's resolution clock (mirrors the sender's
    /// deadline extension).
    pub fn on_enforced_start(&mut self, t: Instant) {
        let Some(timing) = self.timing else { return };
        if self.enforced_open.is_none() {
            self.enforced_open = Some(t.as_nanos());
        }
        self.frames
            .extend_deadlines(t + timing.failure + timing.resolving);
    }

    /// `EnforcedRecoveryResolved`: close the enforced span.
    pub fn on_enforced_end(&mut self, t: Instant) {
        if let Some(s) = self.enforced_open.take() {
            self.enforced_spans.push((s, t.as_nanos()));
        }
    }

    /// `StopGo`. A stop opens a throttle span and, because flow control
    /// slows the sender's drain, renumbered copies wait longer in the
    /// retransmit queue than the full-line-rate numbering bound allows
    /// (§3.4): every open frame's resolution clock restarts. A go
    /// closes the span.
    pub fn on_stop_go(&mut self, t: Instant, stop: bool) {
        let Some(timing) = self.timing else { return };
        let tn = t.as_nanos();
        if stop {
            self.frames.extend_deadlines(t + timing.resolving);
            if self.stop_open.is_none() {
                self.stop_open = Some(tn);
            }
        } else if let Some(a) = self.stop_open.take() {
            self.stop_spans.push((a, tn));
        }
    }

    /// `LinkFailed`: suppress end-of-run unresolved-frame findings.
    pub fn on_link_failed(&mut self) {
        self.failed = true;
    }

    /// `BufferRelease` at the sender: invariants (a), (d) and (e). A
    /// release before clean delivery leaves a partial attribution,
    /// counted as incomplete and never folded into the phase sums.
    pub fn on_release(&mut self, t: Instant, node: &'static str, seq: u64, out: &mut Findings) {
        if self.timing.is_none() {
            return;
        }
        // (d) Release happens inside checkpoint processing, at the
        // checkpoint instant, and only up to the covered horizon.
        match self.last_cp_rx {
            None => out.push(self.find(
                t,
                node,
                Invariant::ReleaseOnAck,
                (t, t),
                format!("seq {seq} released before any checkpoint arrived"),
            )),
            Some((cp_t, _, covered)) => {
                if cp_t != t {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::ReleaseOnAck,
                        (cp_t, t),
                        format!(
                            "seq {seq} released at {:.6}s, not at the covering checkpoint ({:.6}s)",
                            t.as_secs_f64(),
                            cp_t.as_secs_f64()
                        ),
                    ));
                }
                if seq > covered {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::ReleaseOnAck,
                        (cp_t, t),
                        format!("seq {seq} released beyond the covered horizon {covered}"),
                    ));
                }
            }
        }
        // (a) The released copy must have arrived clean at the receiver.
        let frame = self.frames.remove(seq).map(|slot| self.frames.entry(slot));
        let arrived = match frame {
            Some(f) => f.arrived,
            None => self.arrived.contains(seq),
        };
        if !arrived {
            out.push(self.find(
                t,
                node,
                Invariant::NoLoss,
                (t, t),
                format!("seq {seq} released without a clean arrival at the receiver"),
            ));
        }
        let Some(frame) = frame else {
            out.push(self.find(
                t,
                node,
                Invariant::StreamIntegrity,
                (t, t),
                format!("release of unknown seq {seq}"),
            ));
            return;
        };
        if frame.arrived {
            self.arrived.insert(seq);
        }
        // (e) Release within the (possibly extended) resolving bound of
        // the released copy.
        if t > frame.deadline {
            out.push(self.find(
                t,
                node,
                Invariant::NumberingBound,
                (frame.first_tx, t),
                format!(
                    "seq {seq} released at {:.6}s, past its resolving bound {:.6}s",
                    t.as_secs_f64(),
                    frame.deadline.as_secs_f64()
                ),
            ));
        }
        self.tally.frames += 1;
        match frame.delivered_at {
            Some(d) => self
                .tally
                .latencies
                .push(d.saturating_duration_since(frame.first_tx).as_nanos()),
            None => self.agg.incomplete += 1,
        }
        if frame.is_retx {
            self.retx_open = self.retx_open.saturating_sub(1);
        }
        self.series.at(t).releases += 1;
        if self.keep_lifecycles {
            self.lifecycles.push(FrameLifecycle {
                link: self.key,
                first_seq: frame.first_seq,
                final_seq: seq,
                first_tx: frame.first_tx,
                naks: frame.naks,
                retransmits: frame.retx,
                delivered_at: frame.delivered_at,
                released_at: Some(t),
            });
        }
    }

    /// End of run. With a clean finish (no deadline, no link failure)
    /// every frame must have resolved — invariant (a). Frames still in
    /// flight (or parked in the resequencer) become partial
    /// attributions: counted as incomplete, never folded into the
    /// phase totals.
    pub fn on_run_finished(&mut self, t: Instant, deadline_hit: bool, out: &mut Findings) {
        if self.timing.is_none() {
            return;
        }
        let audit = !deadline_hit && !self.failed;
        for (seq, frame) in self.frames.iter() {
            if audit {
                out.push(self.find(
                    t,
                    self.cfg_node,
                    Invariant::NoLoss,
                    (frame.first_tx, t),
                    format!(
                        "seq {seq} (first sent {:.6}s) never resolved by run end",
                        frame.first_tx.as_secs_f64()
                    ),
                ));
            }
            if frame.delivered_at.is_none() {
                self.agg.incomplete += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proto_core::WINDOW_CAP;

    const CAP: u64 = WINDOW_CAP as u64;

    /// Sequence numbers on both sides of the table's dense ring: one
    /// band near 0 and others `WINDOW_CAP` or more above it, so numbers
    /// land below the ring's base and beyond its span as it moves.
    const ANCHORS: [u64; 6] = [0, 5, CAP - 3, CAP + 2, 2 * CAP, 1 << 32];

    /// A frame told apart from others by `tag`.
    fn frame(tag: u64) -> Frame {
        Frame {
            arrived: tag.is_multiple_of(2),
            first_seq: tag,
            first_tx: Instant::from_nanos(tag),
            deadline: Instant::from_nanos(tag + 1),
            naks: 0,
            retx: 0,
            delivered_at: None,
            is_retx: false,
            renumber_pending: false,
            cursor: tag,
            phases: [tag; 8],
            charged: 0xff,
            copies: 1,
            err_cp_first: None,
            pending_err: None,
            max_repeats: 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The slab-backed table answers like an ordered map of frames
        /// under inserts, removals, renumberings and in-place writes, and
        /// reuses freed slots instead of growing.
        #[test]
        fn frame_table_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..6, 0usize..6, 0u64..8, 0usize..6, 0u64..8), 1..200),
        ) {
            let mut table = FrameTable::default();
            let mut model: BTreeMap<u64, Frame> = BTreeMap::new();
            let mut peak = 0;
            for (i, (op, anchor, off, to_anchor, to_off)) in ops.into_iter().enumerate() {
                let seq = ANCHORS[anchor] + off;
                let to = ANCHORS[to_anchor] + to_off;
                match op {
                    0 | 1 => {
                        table.insert(seq, frame(i as u64));
                        model.insert(seq, frame(i as u64));
                    }
                    2 => {
                        let removed = table.remove(seq).map(|slot| table.entry(slot).clone());
                        prop_assert_eq!(removed, model.remove(&seq));
                    }
                    3 => {
                        // Renumbering moves the slot; a frame already under
                        // the fresh number is replaced.
                        let slot = table.unlink(seq);
                        if let Some(slot) = slot {
                            table.entry_mut(slot).renumber_pending = true;
                            table.link(to, slot);
                        }
                        let moved = model.remove(&seq);
                        prop_assert_eq!(slot.is_some(), moved.is_some());
                        if let Some(mut f) = moved {
                            f.renumber_pending = true;
                            model.insert(to, f);
                        }
                    }
                    4 => {
                        if let Some(f) = table.get_mut(seq) {
                            f.naks += 1;
                        }
                        if let Some(f) = model.get_mut(&seq) {
                            f.naks += 1;
                        }
                    }
                    _ => {
                        let extended = Instant::from_nanos(i as u64 * 3);
                        table.extend_deadlines(extended);
                        for f in model.values_mut() {
                            f.deadline = f.deadline.max(extended);
                        }
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.get(seq), model.get(&seq));
                prop_assert_eq!(table.get(to), model.get(&to));
                // Every slot is either numbered or free, and freed slots
                // are reused: the slab outgrows the peak frame count by at
                // most the one slot an insert takes before it frees the
                // frame it replaces.
                prop_assert_eq!(table.slab.len(), table.len() + table.free.len());
                prop_assert!(table.slab.len() <= peak + 1);
            }
            let got: Vec<(u64, &Frame)> = table.iter().collect();
            let want: Vec<(u64, &Frame)> = model.iter().map(|(&s, f)| (s, f)).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_released_slot_is_reused_and_renumbering_keeps_the_entry() {
        let mut table = FrameTable::default();
        table.insert(10, frame(1));
        table.insert(11, frame(2));
        let slot = table.remove(10).expect("held");
        assert_eq!(table.entry(slot), &frame(1), "readable until reused");
        table.insert(12, frame(3));
        assert_eq!(table.slot(12), Some(slot), "the freed slot is reused");
        assert_eq!(table.slab.len(), 2);
        // Renumbering 11 far beyond the ring's span moves its slot, not
        // its entry.
        let moved = table.unlink(11).expect("held");
        table.link(11 + 2 * CAP, moved);
        assert_eq!(table.get(11 + 2 * CAP), Some(&frame(2)));
        assert_eq!(table.get(11), None);
        assert_eq!(table.slot(11 + 2 * CAP), Some(moved));
        assert_eq!(table.len(), 2);
    }
}
