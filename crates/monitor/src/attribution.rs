//! Causal latency attribution: per-SDU critical-path reconstruction.
//!
//! A [`LinkAttribution`] replays one link's trace stream and splits every
//! delivered SDU's latency (first transmission → first clean arrival of
//! the chain) into named phases that partition the interval *exactly*,
//! in integer nanoseconds:
//!
//! | phase            | meaning                                             |
//! |------------------|-----------------------------------------------------|
//! | `first_flight`   | propagation + serialization of the first copy       |
//! | `nak_wait`       | corruption → first checkpoint carrying the NAK      |
//! | `nak_loss`       | extra intervals because carrying checkpoints were   |
//! |                  | lost (NAK cumulation repeats), and Suspect waits    |
//! | `control_flight` | the triggering checkpoint's flight back to the tx   |
//! | `stop_go`        | sender throttled by Stop-Go while the retx queued   |
//! | `retx_wait`      | sender-side queueing/pacing before the retx left    |
//! | `retx_flight`    | propagation of the retransmitted copy               |
//! | `enforced`       | time burned inside enforced-recovery restarts       |
//!
//! Resequencer hold time is attributed *after* delivery and therefore
//! lives outside the per-SDU sum; it is aggregated per experiment from
//! the collector's `reseq_hold` records.
//!
//! Segmentation uses a monotone cursor per chain: each milestone `m`
//! charges `m − cursor` to its phase only when `m` is ahead of the
//! cursor, so out-of-order milestones contribute zero and the phase sums
//! always partition `[first_tx, delivered]`. An internal audit checks
//! `Σ phases == measured latency` for every delivered SDU and raises an
//! [`Invariant::AttributionSum`] finding if the bookkeeping ever drifts.
//!
//! The same pass cross-checks observed NAK resolution cycles (receiver
//! records the error → sender decides the retransmission) against the
//! analytic resolving period `R + W_cp/2 + C_depth·W_cp` computed from
//! the link's announced `sender_config` with the formula in
//! `analysis::periods::resolving_period_raw`. Stop-Go throttle spans and
//! enforced-recovery restarts pause the protocol clock, so their overlap
//! with the cycle is excluded before comparing. Excesses surface as
//! [`Invariant::ResolutionBound`] findings.

use crate::finding::{AuditFinding, Findings, Invariant};
use proto_core::SeqWindow;
use sim_core::Instant;
use std::collections::BTreeMap;
use telemetry::Json;

/// The latency phases, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// First copy's flight time (send → arrival, clean or corrupted).
    FirstFlight,
    /// Corruption → emission of the first checkpoint carrying the NAK.
    NakWait,
    /// Extra full checkpoint intervals because carrying checkpoints were
    /// lost in transit (the NAK rode the cumulation window), plus
    /// Suspect defensive-retransmit wait.
    NakLoss,
    /// The triggering checkpoint's flight back to the sender.
    ControlFlight,
    /// Stop-Go throttle time while the retransmission was queued.
    StopGo,
    /// Sender-side queueing/pacing before the retransmission left.
    RetxWait,
    /// Retransmitted copy's flight time.
    RetxFlight,
    /// Enforced-recovery (resolve/failure timer) restart time.
    Enforced,
}

/// Stable machine-readable phase names, indexable by `Phase as usize`.
pub const PHASE_NAMES: [&str; 8] = [
    "first_flight",
    "nak_wait",
    "nak_loss",
    "control_flight",
    "stop_go",
    "retx_wait",
    "retx_flight",
    "enforced",
];

/// Aggregate of one phase (or of resequencer holds) over many SDUs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// SDUs that spent a non-zero time in this phase.
    pub count: u64,
    /// Total nanoseconds charged to this phase.
    pub total_ns: u64,
    /// Largest single-SDU charge, nanoseconds.
    pub max_ns: u64,
}

impl PhaseAgg {
    /// Record one SDU's charge (zero charges are not counted).
    pub fn add(&mut self, ns: u64) {
        if ns == 0 {
            return;
        }
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another aggregate into this one.
    pub fn absorb(&mut self, other: &PhaseAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// `{count, total_ns, max_ns}` — all integers, so an offline replay
    /// can reproduce the rendered block byte-for-byte.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.into()),
            ("total_ns", self.total_ns.into()),
            ("max_ns", self.max_ns.into()),
        ])
    }
}

/// Per-experiment attribution summary: phase breakdown, partial-chain
/// counts, and the resolution-vs-analytic-bound cross-check.
#[derive(Clone, Debug, Default)]
pub struct AttributionAgg {
    /// Delivered SDUs attributed.
    pub sdus: u64,
    /// Delivered on the first copy (latency == `first_flight`).
    pub clean: u64,
    /// Needed at least one retransmission.
    pub errored: u64,
    /// Chains cut short by run end or anomalous release: counted, never
    /// folded into the phase sums.
    pub incomplete: u64,
    /// Delivered SDUs whose phase sum failed to match their latency.
    pub audit_failures: u64,
    /// Sum of delivered-SDU latencies; equals the sum of all phase
    /// `total_ns` by construction (audited per SDU).
    pub latency_total_ns: u64,
    /// Worst NAK cumulation-repeat count seen before a retransmission.
    pub max_nak_repeats: u64,
    /// Per-phase aggregates, indexed like [`PHASE_NAMES`].
    pub phases: [PhaseAgg; 8],
    /// Post-delivery resequencer hold (outside the per-SDU sum).
    pub reseq: PhaseAgg,
    /// NAK resolution cycles measured (error record → retx decision).
    pub res_cycles: u64,
    /// Worst adjusted resolution cycle, nanoseconds.
    pub res_max_ns: u64,
    /// Resolving-period bound the cycles are checked against,
    /// nanoseconds: the analytic period, plus `MonitorConfig::wall_slack`
    /// on a wall-clock stream (0 until a `sender_config` was seen).
    pub res_bound_ns: u64,
    /// Cycles that exceeded the bound.
    pub res_violations: u64,
}

impl AttributionAgg {
    /// Fold another aggregate into this one (sums; maxima for maxima).
    pub fn absorb(&mut self, other: &AttributionAgg) {
        self.sdus += other.sdus;
        self.clean += other.clean;
        self.errored += other.errored;
        self.incomplete += other.incomplete;
        self.audit_failures += other.audit_failures;
        self.latency_total_ns += other.latency_total_ns;
        self.max_nak_repeats = self.max_nak_repeats.max(other.max_nak_repeats);
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.absorb(theirs);
        }
        self.reseq.absorb(&other.reseq);
        self.res_cycles += other.res_cycles;
        self.res_max_ns = self.res_max_ns.max(other.res_max_ns);
        self.res_bound_ns = self.res_bound_ns.max(other.res_bound_ns);
        self.res_violations += other.res_violations;
    }

    /// The report's `attribution` block. Every value is an integer so
    /// the offline `trace-tools attribution` replay reproduces it
    /// byte-for-byte.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sdus", self.sdus.into()),
            ("clean", self.clean.into()),
            ("errored", self.errored.into()),
            ("incomplete", self.incomplete.into()),
            ("audit_failures", self.audit_failures.into()),
            ("latency_total_ns", self.latency_total_ns.into()),
            ("max_nak_repeats", self.max_nak_repeats.into()),
            (
                "phases",
                Json::obj(
                    PHASE_NAMES
                        .iter()
                        .zip(self.phases.iter())
                        .map(|(name, agg)| (*name, agg.to_json())),
                ),
            ),
            ("reseq_hold", self.reseq.to_json()),
            (
                "resolution",
                Json::obj([
                    ("cycles", self.res_cycles.into()),
                    ("max_ns", self.res_max_ns.into()),
                    ("bound_ns", self.res_bound_ns.into()),
                    ("violations", self.res_violations.into()),
                ]),
            ),
        ])
    }
}

/// One in-flight chain's attribution state, keyed by its current wire
/// sequence number (renumbering moves it).
#[derive(Clone, Debug)]
struct Chain {
    /// First transmission instant, nanoseconds.
    first_tx: u64,
    /// Monotone segmentation cursor; phase sums always equal
    /// `cursor − first_tx`.
    cursor: u64,
    phases: [u64; 8],
    /// Copies sent so far (1 = original only).
    copies: u32,
    /// First checkpoint index that carried the current NAK, if any.
    err_cp_first: Option<u64>,
    /// When the receiver recorded the current error (opens a resolution
    /// cycle closed by the sender's retransmission decision).
    pending_err: Option<u64>,
    /// Worst cumulation-repeat count this chain saw.
    max_repeats: u64,
    /// Delivered clean; later events no longer charge phases.
    done: bool,
}

impl Chain {
    fn new(t: u64) -> Self {
        Chain {
            first_tx: t,
            cursor: t,
            phases: [0; 8],
            copies: 1,
            err_cp_first: None,
            pending_err: None,
            max_repeats: 0,
            done: false,
        }
    }

    /// Charge `[cursor, to]` to `phase` when `to` is ahead of the
    /// cursor; out-of-order milestones charge nothing.
    fn seg(&mut self, to: u64, phase: Phase) {
        if to > self.cursor {
            self.phases[phase as usize] += to - self.cursor;
            self.cursor = to;
        }
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

/// Reconstructs per-SDU latency attribution for one link from its trace
/// stream. Mirrors [`crate::LinkAuditor`]'s gating: only links that
/// announced a `sender_config` (LAMS-DLC senders) produce output.
pub struct LinkAttribution {
    experiment: &'static str,
    /// Sender node label (for findings); set by `sender_config`.
    cfg_node: &'static str,
    /// Resolving-period bound from the announced config, slack
    /// included; `None` until armed.
    bound_ns: Option<u64>,
    chains: SeqWindow<Chain>,
    /// Checkpoint emission instants by index (receiver side).
    cp_emit: BTreeMap<u64, u64>,
    /// Checkpoint acceptance instants by index (sender side).
    cp_rx: BTreeMap<u64, u64>,
    stop_open: Option<u64>,
    stop_spans: Vec<(u64, u64)>,
    enforced_open: Option<u64>,
    enforced_spans: Vec<(u64, u64)>,
    /// The running aggregate, drained at run end.
    pub agg: AttributionAgg,
}

impl LinkAttribution {
    /// Fresh attribution state for one link inside `experiment`.
    pub fn new(experiment: &'static str) -> Self {
        LinkAttribution {
            experiment,
            cfg_node: "",
            bound_ns: None,
            chains: SeqWindow::default(),
            cp_emit: BTreeMap::new(),
            cp_rx: BTreeMap::new(),
            stop_open: None,
            stop_spans: Vec::new(),
            enforced_open: None,
            enforced_spans: Vec::new(),
            agg: AttributionAgg::default(),
        }
    }

    /// Whether this link announced a LAMS-DLC sender config.
    pub fn armed(&self) -> bool {
        self.bound_ns.is_some()
    }

    /// Sequence numbers the chain window's dense ring spans.
    #[cfg(test)]
    pub(crate) fn ring_span(&self) -> usize {
        self.chains.ring_span()
    }

    /// Sender announced its timing: arm attribution and fix the
    /// resolution bound, the analytic resolving period plus `slack_ns`
    /// (the monitor's wall-clock allowance; 0 on sim streams).
    pub fn on_sender_config(
        &mut self,
        node: &'static str,
        w_cp_ns: u64,
        rtt_ns: u64,
        c_depth: u64,
        slack_ns: u64,
    ) {
        self.cfg_node = node;
        let bound = analysis::periods::resolving_period_raw(
            rtt_ns as f64 / 1e9,
            w_cp_ns as f64 / 1e9,
            c_depth as u32,
        );
        self.bound_ns = Some((bound * 1e9).round() as u64 + slack_ns);
        self.agg.res_bound_ns = self.bound_ns.unwrap_or(0);
    }

    /// A copy left the sender. Fresh sends open a chain; retransmissions
    /// were already charged by the preceding `retx_cause` record.
    pub fn on_tx(&mut self, t: Instant, seq: u64, retx: bool) {
        if !retx {
            self.chains.insert(seq, Chain::new(t.as_nanos()));
        }
    }

    /// Renumbering moves the chain to its fresh wire sequence number.
    pub fn on_renumbered(&mut self, old_seq: u64, new_seq: u64) {
        if let Some(c) = self.chains.remove(old_seq) {
            self.chains.insert(new_seq, c);
        }
    }

    /// The sender decided to retransmit `seq` (already renumbered) and
    /// told us why: decompose the elapsed time into phases and close the
    /// open resolution cycle against the analytic bound.
    pub fn on_retx_cause(
        &mut self,
        t: Instant,
        seq: u64,
        cause: &'static str,
        cp_index: u64,
        out: &mut Findings,
    ) {
        let LinkAttribution {
            experiment,
            cfg_node,
            bound_ns,
            chains,
            cp_emit,
            cp_rx,
            stop_open,
            stop_spans,
            enforced_open,
            enforced_spans,
            agg,
        } = self;
        let Some(c) = chains.get_mut(seq) else {
            return;
        };
        if c.done {
            return;
        }
        let tn = t.as_nanos();
        match cause {
            "nak" => {
                let err_cp = c.err_cp_first.take().unwrap_or(cp_index);
                if let Some(&e) = cp_emit.get(&err_cp) {
                    c.seg(e, Phase::NakWait);
                }
                let repeats = cp_index.saturating_sub(err_cp);
                c.max_repeats = c.max_repeats.max(repeats);
                if repeats > 0 {
                    if let Some(&e) = cp_emit.get(&cp_index) {
                        c.seg(e, Phase::NakLoss);
                    }
                }
                if let Some(&r) = cp_rx.get(&cp_index) {
                    c.seg(r, Phase::ControlFlight);
                }
                // Tail up to the decision: Stop-Go throttle overlap
                // first, the remainder is sender-side queueing/pacing.
                if tn > c.cursor {
                    let tail = tn - c.cursor;
                    let stop = overlap(stop_spans, *stop_open, c.cursor, tn).min(tail);
                    c.phases[Phase::StopGo as usize] += stop;
                    c.phases[Phase::RetxWait as usize] += tail - stop;
                    c.cursor = tn;
                }
                // Resolution cross-check: error record → retx decision,
                // minus spans where the protocol clock was paused.
                if let Some(err_t) = c.pending_err.take() {
                    let cycle = tn.saturating_sub(err_t);
                    let allow = overlap(stop_spans, *stop_open, err_t, tn)
                        + overlap(enforced_spans, *enforced_open, err_t, tn);
                    let adjusted = cycle.saturating_sub(allow);
                    agg.res_cycles += 1;
                    agg.res_max_ns = agg.res_max_ns.max(adjusted);
                    if let Some(bound) = *bound_ns {
                        if adjusted > bound {
                            agg.res_violations += 1;
                            out.push(AuditFinding {
                                t,
                                node: cfg_node,
                                experiment,
                                invariant: Invariant::ResolutionBound,
                                window: (Instant::from_nanos(err_t), t),
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
            }
            "resolve" => {
                // Enforced recovery / resolving timer forced the copy
                // out: everything since the last milestone is enforced
                // restart time.
                c.seg(tn, Phase::Enforced);
                c.err_cp_first = None;
                c.pending_err = None;
            }
            _ => {
                // "suspect": defensive retransmit after a checkpoint
                // index gap — time spent waiting out the lost reports.
                c.seg(tn, Phase::NakLoss);
                c.err_cp_first = None;
                c.pending_err = None;
            }
        }
        c.copies += 1;
    }

    /// The receiver recorded an error for `seq`: close the flight
    /// segment and open the NAK wait (and the resolution cycle).
    pub fn on_nak(&mut self, t: Instant, seq: u64, cp_index: u64) {
        let Some(c) = self.chains.get_mut(seq) else {
            return;
        };
        if c.done {
            return;
        }
        let tn = t.as_nanos();
        let flight = c.flight();
        c.seg(tn, flight);
        if c.err_cp_first.is_none() {
            c.err_cp_first = Some(cp_index);
        }
        c.pending_err = Some(tn);
    }

    /// A copy arrived. Clean first arrivals close the chain: charge the
    /// final flight segment, audit the phase sum against the measured
    /// latency, and fold into the aggregate.
    pub fn on_rx(&mut self, t: Instant, seq: u64, clean: bool, out: &mut Findings) {
        if !clean {
            return;
        }
        let Some(c) = self.chains.get_mut(seq) else {
            return;
        };
        if c.done {
            return;
        }
        let tn = t.as_nanos();
        let flight = c.flight();
        c.seg(tn, flight);
        c.done = true;
        let latency = tn.saturating_sub(c.first_tx);
        let sum: u64 = c.phases.iter().sum();
        if sum != latency {
            self.agg.audit_failures += 1;
            out.push(AuditFinding {
                t,
                node: self.cfg_node,
                experiment: self.experiment,
                invariant: Invariant::AttributionSum,
                window: (Instant::from_nanos(c.first_tx), t),
                detail: format!(
                    "phase sum {sum} ns != measured latency {latency} ns for seq {seq}"
                ),
            });
        }
        self.agg.sdus += 1;
        if c.copies > 1 {
            self.agg.errored += 1;
        } else {
            self.agg.clean += 1;
        }
        self.agg.latency_total_ns += latency;
        self.agg.max_nak_repeats = self.agg.max_nak_repeats.max(c.max_repeats);
        for (agg, &ns) in self.agg.phases.iter_mut().zip(c.phases.iter()) {
            agg.add(ns);
        }
    }

    /// Receiver emitted checkpoint `index`.
    pub fn on_cp_emit(&mut self, t: Instant, index: u64) {
        self.cp_emit.insert(index, t.as_nanos());
    }

    /// Sender accepted checkpoint `index`.
    pub fn on_cp_rx(&mut self, t: Instant, index: u64) {
        self.cp_rx.insert(index, t.as_nanos());
    }

    /// Stop-Go flow-control transition on the sender.
    pub fn on_stop_go(&mut self, t: Instant, stop: bool) {
        let tn = t.as_nanos();
        if stop {
            if self.stop_open.is_none() {
                self.stop_open = Some(tn);
            }
        } else if let Some(a) = self.stop_open.take() {
            self.stop_spans.push((a, tn));
        }
    }

    /// Enforced recovery started on the sender.
    pub fn on_enforced_start(&mut self, t: Instant) {
        if self.enforced_open.is_none() {
            self.enforced_open = Some(t.as_nanos());
        }
    }

    /// Enforced recovery resolved.
    pub fn on_enforced_end(&mut self, t: Instant) {
        if let Some(a) = self.enforced_open.take() {
            self.enforced_spans.push((a, t.as_nanos()));
        }
    }

    /// The sender released `seq` (implicit ACK): the chain is complete.
    /// A release before clean delivery leaves a partial chain, counted
    /// as incomplete and never folded into the phase sums.
    pub fn on_release(&mut self, seq: u64) {
        if let Some(c) = self.chains.remove(seq) {
            if !c.done {
                self.agg.incomplete += 1;
            }
        }
    }

    /// Run ended: chains still in flight (or parked in the resequencer)
    /// become well-formed partial attributions — counted as incomplete,
    /// with no phase-sum audit and no fold into the phase totals.
    pub fn on_run_finished(&mut self) {
        for (_, c) in self.chains.iter() {
            if !c.done {
                self.agg.incomplete += 1;
            }
        }
        self.chains.clear();
        self.cp_emit.clear();
        self.cp_rx.clear();
        self.stop_open = None;
        self.stop_spans.clear();
        self.enforced_open = None;
        self.enforced_spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn armed() -> LinkAttribution {
        let mut at = LinkAttribution::new("e1");
        // W_cp = 5 ms, RTT = 27 ms, C_depth = 3 → bound = 44.5 ms.
        at.on_sender_config("tx", 5 * MS, 27 * MS, 3, 0);
        at
    }

    #[test]
    fn clean_delivery_is_pure_first_flight() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_rx(Instant::from_nanos(15 * MS), 1, true, &mut out);
        at.on_release(1);
        at.on_run_finished();
        assert_eq!(out.total(), 0);
        assert_eq!((at.agg.sdus, at.agg.clean, at.agg.errored), (1, 1, 0));
        assert_eq!(at.agg.latency_total_ns, 14 * MS);
        assert_eq!(at.agg.phases[Phase::FirstFlight as usize].total_ns, 14 * MS);
        let other: u64 = (1..8).map(|i| at.agg.phases[i].total_ns).sum();
        assert_eq!(other, 0);
    }

    #[test]
    fn errored_delivery_partitions_into_phases() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        // tx @1, corrupt arrival @15 (NAK, checkpoint 1 carries it),
        // cp1 emitted @16, accepted @30, retx decision @30, clean @44.
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_nak(Instant::from_nanos(15 * MS), 1, 1);
        at.on_cp_emit(Instant::from_nanos(16 * MS), 1);
        at.on_cp_rx(Instant::from_nanos(30 * MS), 1);
        at.on_renumbered(1, 2);
        at.on_retx_cause(Instant::from_nanos(30 * MS), 2, "nak", 1, &mut out);
        at.on_tx(Instant::from_nanos(30 * MS), 2, true);
        at.on_rx(Instant::from_nanos(44 * MS), 2, true, &mut out);
        at.on_release(2);
        at.on_run_finished();
        assert_eq!(out.total(), 0, "{:?}", out.list());
        assert_eq!((at.agg.sdus, at.agg.clean, at.agg.errored), (1, 0, 1));
        let p = |ph: Phase| at.agg.phases[ph as usize].total_ns;
        assert_eq!(p(Phase::FirstFlight), 14 * MS);
        assert_eq!(p(Phase::NakWait), MS);
        assert_eq!(p(Phase::NakLoss), 0);
        assert_eq!(p(Phase::ControlFlight), 14 * MS);
        assert_eq!(p(Phase::StopGo), 0);
        assert_eq!(p(Phase::RetxWait), 0);
        assert_eq!(p(Phase::RetxFlight), 14 * MS);
        assert_eq!(at.agg.latency_total_ns, 43 * MS);
        let total: u64 = at.agg.phases.iter().map(|a| a.total_ns).sum();
        assert_eq!(total, at.agg.latency_total_ns);
        // Resolution cycle 15 ms, well under the 44.5 ms bound.
        assert_eq!(at.agg.res_cycles, 1);
        assert_eq!(at.agg.res_max_ns, 15 * MS);
        assert_eq!(at.agg.res_violations, 0);
    }

    #[test]
    fn lost_checkpoints_become_nak_loss_and_repeats() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_nak(Instant::from_nanos(15 * MS), 1, 1);
        at.on_cp_emit(Instant::from_nanos(16 * MS), 1);
        // Checkpoints 1 and 2 lost; 3 gets through at 26 → accepted @40.
        at.on_cp_emit(Instant::from_nanos(21 * MS), 2);
        at.on_cp_emit(Instant::from_nanos(26 * MS), 3);
        at.on_cp_rx(Instant::from_nanos(40 * MS), 3);
        at.on_renumbered(1, 2);
        at.on_retx_cause(Instant::from_nanos(40 * MS), 2, "nak", 3, &mut out);
        at.on_rx(Instant::from_nanos(54 * MS), 2, true, &mut out);
        at.on_run_finished();
        let p = |ph: Phase| at.agg.phases[ph as usize].total_ns;
        assert_eq!(p(Phase::NakWait), MS); // 15 → 16
        assert_eq!(p(Phase::NakLoss), 10 * MS); // 16 → 26
        assert_eq!(p(Phase::ControlFlight), 14 * MS); // 26 → 40
        assert_eq!(at.agg.max_nak_repeats, 2);
        let total: u64 = at.agg.phases.iter().map(|a| a.total_ns).sum();
        assert_eq!(total, at.agg.latency_total_ns);
    }

    #[test]
    fn stop_go_overlap_splits_the_decision_tail() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_nak(Instant::from_nanos(15 * MS), 1, 1);
        at.on_cp_emit(Instant::from_nanos(16 * MS), 1);
        at.on_cp_rx(Instant::from_nanos(30 * MS), 1);
        // Stop-Go throttles the sender 30 → 36 ms; decision at 40 ms.
        at.on_stop_go(Instant::from_nanos(30 * MS), true);
        at.on_stop_go(Instant::from_nanos(36 * MS), false);
        at.on_renumbered(1, 2);
        at.on_retx_cause(Instant::from_nanos(40 * MS), 2, "nak", 1, &mut out);
        at.on_rx(Instant::from_nanos(54 * MS), 2, true, &mut out);
        at.on_run_finished();
        let p = |ph: Phase| at.agg.phases[ph as usize].total_ns;
        assert_eq!(p(Phase::StopGo), 6 * MS);
        assert_eq!(p(Phase::RetxWait), 4 * MS);
        // The stop span also pauses the resolution clock: 25 − 6 = 19.
        assert_eq!(at.agg.res_max_ns, 19 * MS);
        assert_eq!(at.agg.res_violations, 0);
        let total: u64 = at.agg.phases.iter().map(|a| a.total_ns).sum();
        assert_eq!(total, at.agg.latency_total_ns);
    }

    #[test]
    fn resolve_retx_charges_enforced() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_enforced_start(Instant::from_nanos(20 * MS));
        at.on_renumbered(1, 2);
        at.on_retx_cause(Instant::from_nanos(61 * MS), 2, "resolve", 0, &mut out);
        at.on_enforced_end(Instant::from_nanos(62 * MS));
        at.on_rx(Instant::from_nanos(75 * MS), 2, true, &mut out);
        at.on_run_finished();
        let p = |ph: Phase| at.agg.phases[ph as usize].total_ns;
        assert_eq!(p(Phase::Enforced), 60 * MS); // 1 → 61
        assert_eq!(p(Phase::RetxFlight), 14 * MS);
        assert_eq!(at.agg.res_cycles, 0, "resolve closes no NAK cycle");
        let total: u64 = at.agg.phases.iter().map(|a| a.total_ns).sum();
        assert_eq!(total, at.agg.latency_total_ns);
    }

    #[test]
    fn resolution_beyond_bound_is_a_finding() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_nak(Instant::from_nanos(15 * MS), 1, 1);
        at.on_cp_emit(Instant::from_nanos(16 * MS), 1);
        at.on_cp_rx(Instant::from_nanos(30 * MS), 1);
        at.on_renumbered(1, 2);
        // Decision only at 90 ms: 75 ms cycle > 44.5 ms bound.
        at.on_retx_cause(Instant::from_nanos(90 * MS), 2, "nak", 1, &mut out);
        assert_eq!(at.agg.res_violations, 1);
        assert_eq!(out.total(), 1);
        assert_eq!(out.list()[0].invariant, Invariant::ResolutionBound);
        assert!(out.list()[0].detail.contains("resolving period"));
    }

    #[test]
    fn truncated_chains_count_incomplete_without_folding() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        // One delivered, one still in flight, one renumbered but not yet
        // re-delivered when the run ends.
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_rx(Instant::from_nanos(15 * MS), 1, true, &mut out);
        at.on_tx(Instant::from_nanos(2 * MS), 2, false);
        at.on_tx(Instant::from_nanos(3 * MS), 3, false);
        at.on_nak(Instant::from_nanos(17 * MS), 3, 1);
        at.on_renumbered(3, 4);
        at.on_retx_cause(Instant::from_nanos(30 * MS), 4, "nak", 1, &mut out);
        at.on_run_finished();
        assert_eq!(at.agg.sdus, 1);
        assert_eq!(at.agg.incomplete, 2);
        assert_eq!(out.total(), 0, "partial chains raise no findings");
        // Phase totals still partition only the delivered SDU.
        let total: u64 = at.agg.phases.iter().map(|a| a.total_ns).sum();
        assert_eq!(total, at.agg.latency_total_ns);
    }

    #[test]
    fn absorb_merges_aggregates() {
        let mut a = AttributionAgg::default();
        let mut b = AttributionAgg::default();
        a.sdus = 2;
        a.phases[0].add(10);
        a.res_max_ns = 5;
        b.sdus = 3;
        b.phases[0].add(20);
        b.res_max_ns = 9;
        b.incomplete = 1;
        a.absorb(&b);
        assert_eq!(a.sdus, 5);
        assert_eq!(a.incomplete, 1);
        assert_eq!(
            a.phases[0],
            PhaseAgg {
                count: 2,
                total_ns: 30,
                max_ns: 20
            }
        );
        assert_eq!(a.res_max_ns, 9);
    }

    #[test]
    fn json_block_is_all_integers() {
        let mut out = Findings::with_cap(16);
        let mut at = armed();
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_rx(Instant::from_nanos(15 * MS), 1, true, &mut out);
        at.on_run_finished();
        let j = at.agg.to_json();
        let s = j.render();
        assert!(
            !s.contains('.'),
            "attribution JSON must be integer-only: {s}"
        );
        assert_eq!(j.get("sdus").and_then(Json::as_f64), Some(1.0));
        let ff = j
            .get("phases")
            .and_then(|p| p.get("first_flight"))
            .expect("first_flight");
        assert_eq!(ff.get("total_ns").and_then(Json::as_f64), Some(14e6));
        assert!(j
            .get("resolution")
            .and_then(|r| r.get("bound_ns"))
            .is_some());
    }

    #[test]
    fn unarmed_links_stay_silent() {
        let mut out = Findings::with_cap(16);
        let mut at = LinkAttribution::new("e1");
        assert!(!at.armed());
        at.on_tx(Instant::from_nanos(MS), 1, false);
        at.on_rx(Instant::from_nanos(15 * MS), 1, true, &mut out);
        at.on_run_finished();
        // The aggregate fills in, but the monitor only folds armed links.
        assert_eq!(at.agg.res_bound_ns, 0);
    }
}
