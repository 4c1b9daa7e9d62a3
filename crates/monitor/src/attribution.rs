//! Causal latency attribution: per-SDU critical-path reconstruction.
//!
//! The monitor's per-link state (the `link` module) splits every
//! delivered SDU's latency (first transmission → first clean arrival of
//! the frame) into named phases that partition the interval *exactly*,
//! in integer nanoseconds, in the same pass that audits the frame:
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
//! Segmentation uses a monotone cursor per frame: each milestone `m`
//! charges `m − cursor` to its phase only when `m` is ahead of the
//! cursor, so out-of-order milestones contribute zero and the phase sums
//! always partition `[first_tx, delivered]`. An internal audit checks
//! `Σ phases == measured latency` for every delivered SDU and raises an
//! [`crate::Invariant::AttributionSum`] finding if the bookkeeping ever drifts.
//!
//! The same pass cross-checks observed NAK resolution cycles (receiver
//! records the error → the checkpoint carrying the NAK reaches the
//! sender) against the analytic resolving period `R + W_cp/2 +
//! C_depth·W_cp` computed from the link's announced `sender_config` with
//! the formula in `analysis::periods::resolving_period_raw`. The period
//! bounds how long the sender takes to *learn* a frame's fate; the
//! queueing before the retransmission leaves is `retx_wait` and
//! `stop_go`, outside the cycle. Enforced-recovery restarts pause the
//! protocol clock, so their overlap with the cycle is excluded before
//! comparing. Excesses surface as
//! [`crate::Invariant::ResolutionBound`] findings. This resolution bound
//! is not the numbering bound the audit checks renumbering and release
//! against: that one is the sender's own announced `resolving_ns`.

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
    /// NAK resolution cycles measured (error record → the NAK-bearing
    /// checkpoint's arrival at the sender).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::{Findings, Invariant};
    use crate::link::{LinkState, LinkTiming};
    use sim_core::{Duration, Instant};

    const MS: u64 = 1_000_000;

    fn at(ms: u64) -> Instant {
        Instant::from_nanos(ms * MS)
    }

    /// A link armed through its sender-config handler: W_cp = 5 ms,
    /// RTT = 27 ms, C_depth = 3, so the resolution bound is 44.5 ms;
    /// the numbering bound is generous enough never to fire here.
    fn armed() -> LinkState {
        let mut s = LinkState::new("", "e1", Duration::from_millis(100), false);
        let timing = LinkTiming::announced(5 * MS, 3, 27 * MS, 1000 * MS, 1000 * MS, 1000 * MS, 0);
        s.on_sender_config(Instant::ZERO, "tx", timing);
        s
    }

    fn tx(s: &mut LinkState, ms: u64, seq: u64, retx: bool, out: &mut Findings) {
        s.on_tx(at(ms), "tx", seq, retx, out);
    }

    fn cp(s: &mut LinkState, emit_ms: u64, rx_ms: Option<u64>, index: u64, out: &mut Findings) {
        s.on_cp_emit(at(emit_ms), "rx", index, out);
        if let Some(r) = rx_ms {
            s.on_cp_rx(at(r), "tx", index, index, out);
        }
    }

    fn phase(s: &LinkState, ph: Phase) -> u64 {
        s.agg.phases[ph as usize].total_ns
    }

    fn phase_total(s: &LinkState) -> u64 {
        s.agg.phases.iter().map(|a| a.total_ns).sum()
    }

    #[test]
    fn clean_delivery_is_pure_first_flight() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_rx(at(15), 1, true, &mut out);
        cp(&mut s, 16, Some(30), 1, &mut out);
        s.on_release(at(30), "tx", 1, &mut out);
        s.on_run_finished(at(31), false, &mut out);
        assert_eq!(out.total(), 0, "{:?}", out.list());
        assert_eq!((s.agg.sdus, s.agg.clean, s.agg.errored), (1, 1, 0));
        assert_eq!(s.agg.latency_total_ns, 14 * MS);
        assert_eq!(phase(&s, Phase::FirstFlight), 14 * MS);
        assert_eq!(phase_total(&s), 14 * MS);
    }

    #[test]
    fn errored_delivery_partitions_into_phases() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        // tx @1, corrupt arrival @15 (NAK, checkpoint 1 carries it),
        // cp1 emitted @16, accepted @30, retx decision @30, clean @44.
        tx(&mut s, 1, 1, false, &mut out);
        s.on_nak(at(15), 1, 1);
        cp(&mut s, 16, Some(30), 1, &mut out);
        s.on_renumbered(at(30), "tx", 1, 2, &mut out);
        s.on_retx_cause(at(30), 2, "nak", 1, &mut out);
        tx(&mut s, 30, 2, true, &mut out);
        s.on_rx(at(44), 2, true, &mut out);
        s.on_run_finished(at(45), true, &mut out);
        assert_eq!(out.total(), 0, "{:?}", out.list());
        assert_eq!((s.agg.sdus, s.agg.clean, s.agg.errored), (1, 0, 1));
        assert_eq!(phase(&s, Phase::FirstFlight), 14 * MS);
        assert_eq!(phase(&s, Phase::NakWait), MS);
        assert_eq!(phase(&s, Phase::NakLoss), 0);
        assert_eq!(phase(&s, Phase::ControlFlight), 14 * MS);
        assert_eq!(phase(&s, Phase::StopGo), 0);
        assert_eq!(phase(&s, Phase::RetxWait), 0);
        assert_eq!(phase(&s, Phase::RetxFlight), 14 * MS);
        assert_eq!(s.agg.latency_total_ns, 43 * MS);
        assert_eq!(phase_total(&s), s.agg.latency_total_ns);
        // Resolution cycle 15 ms, well under the 44.5 ms bound.
        assert_eq!(s.agg.res_cycles, 1);
        assert_eq!(s.agg.res_max_ns, 15 * MS);
        assert_eq!(s.agg.res_violations, 0);
    }

    #[test]
    fn lost_checkpoints_become_nak_loss_and_repeats() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_nak(at(15), 1, 1);
        // Checkpoints 1 and 2 lost; 3 gets through at 26 → accepted @40.
        cp(&mut s, 16, None, 1, &mut out);
        cp(&mut s, 21, None, 2, &mut out);
        cp(&mut s, 26, Some(40), 3, &mut out);
        s.on_renumbered(at(40), "tx", 1, 2, &mut out);
        s.on_retx_cause(at(40), 2, "nak", 3, &mut out);
        s.on_rx(at(54), 2, true, &mut out);
        s.on_run_finished(at(55), true, &mut out);
        assert_eq!(phase(&s, Phase::NakWait), MS); // 15 → 16
        assert_eq!(phase(&s, Phase::NakLoss), 10 * MS); // 16 → 26
        assert_eq!(phase(&s, Phase::ControlFlight), 14 * MS); // 26 → 40
        assert_eq!(s.agg.max_nak_repeats, 2);
        assert_eq!(phase_total(&s), s.agg.latency_total_ns);
    }

    #[test]
    fn stop_go_overlap_splits_the_decision_tail() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_nak(at(15), 1, 1);
        cp(&mut s, 16, Some(30), 1, &mut out);
        // Stop-Go throttles the sender 30 → 36 ms; decision at 40 ms.
        s.on_stop_go(at(30), true);
        s.on_stop_go(at(36), false);
        s.on_renumbered(at(40), "tx", 1, 2, &mut out);
        s.on_retx_cause(at(40), 2, "nak", 1, &mut out);
        s.on_rx(at(54), 2, true, &mut out);
        s.on_run_finished(at(55), true, &mut out);
        assert_eq!(phase(&s, Phase::StopGo), 6 * MS);
        assert_eq!(phase(&s, Phase::RetxWait), 4 * MS);
        // The cycle ends when checkpoint 1 arrives: 15 → 30 ms.
        assert_eq!(s.agg.res_max_ns, 15 * MS);
        assert_eq!(s.agg.res_violations, 0);
        assert_eq!(phase_total(&s), s.agg.latency_total_ns);
    }

    #[test]
    fn queueing_after_a_timely_nak_is_no_finding() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_nak(at(15), 1, 1);
        // Checkpoints 1 and 2 lost; 3 carries the NAK in at 40 ms, a
        // 25 ms cycle inside the 44.5 ms bound.
        cp(&mut s, 16, None, 1, &mut out);
        cp(&mut s, 21, None, 2, &mut out);
        cp(&mut s, 26, Some(40), 3, &mut out);
        s.on_renumbered(at(40), "tx", 1, 2, &mut out);
        // The retransmission then queues 20 ms behind a burst: the
        // decision at 60 ms is 45 ms after the error.
        s.on_retx_cause(at(60), 2, "nak", 3, &mut out);
        s.on_rx(at(74), 2, true, &mut out);
        s.on_run_finished(at(75), true, &mut out);
        assert_eq!(out.total(), 0, "{:?}", out.list());
        assert_eq!((s.agg.res_cycles, s.agg.res_violations), (1, 0));
        assert_eq!(s.agg.res_max_ns, 25 * MS);
        assert_eq!(phase(&s, Phase::RetxWait), 20 * MS);
        assert_eq!(phase_total(&s), s.agg.latency_total_ns);
    }

    #[test]
    fn resolve_retx_charges_enforced() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_enforced_start(at(20));
        s.on_renumbered(at(61), "tx", 1, 2, &mut out);
        s.on_retx_cause(at(61), 2, "resolve", 0, &mut out);
        s.on_enforced_end(at(62));
        s.on_rx(at(75), 2, true, &mut out);
        s.on_run_finished(at(76), true, &mut out);
        assert_eq!(phase(&s, Phase::Enforced), 60 * MS); // 1 → 61
        assert_eq!(phase(&s, Phase::RetxFlight), 14 * MS);
        assert_eq!(s.agg.res_cycles, 0, "resolve closes no NAK cycle");
        assert_eq!(phase_total(&s), s.agg.latency_total_ns);
    }

    #[test]
    fn resolution_beyond_bound_is_a_finding() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_nak(at(15), 1, 1);
        // Checkpoint 1 reaches the sender only at 90 ms: 75 ms cycle >
        // 44.5 ms bound.
        cp(&mut s, 16, Some(90), 1, &mut out);
        s.on_renumbered(at(90), "tx", 1, 2, &mut out);
        s.on_retx_cause(at(90), 2, "nak", 1, &mut out);
        assert_eq!(s.agg.res_violations, 1);
        assert_eq!(out.total(), 1);
        assert_eq!(out.list()[0].invariant, Invariant::ResolutionBound);
        assert!(out.list()[0].detail.contains("resolving period"));
    }

    #[test]
    fn truncated_chains_count_incomplete_without_folding() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        // One delivered, one still in flight, one renumbered but not yet
        // re-delivered when the run ends.
        tx(&mut s, 1, 1, false, &mut out);
        s.on_rx(at(15), 1, true, &mut out);
        tx(&mut s, 2, 2, false, &mut out);
        tx(&mut s, 3, 3, false, &mut out);
        s.on_nak(at(17), 3, 1);
        s.on_renumbered(at(30), "tx", 3, 4, &mut out);
        s.on_retx_cause(at(30), 4, "nak", 1, &mut out);
        s.on_run_finished(at(31), true, &mut out);
        assert_eq!(s.agg.sdus, 1);
        assert_eq!(s.agg.incomplete, 2);
        assert_eq!(out.total(), 0, "partial chains raise no findings");
        // Phase totals still partition only the delivered SDU.
        assert_eq!(phase_total(&s), s.agg.latency_total_ns);
    }

    #[test]
    fn json_block_is_all_integers() {
        let mut out = Findings::with_cap(16);
        let mut s = armed();
        tx(&mut s, 1, 1, false, &mut out);
        s.on_rx(at(15), 1, true, &mut out);
        s.on_run_finished(at(16), true, &mut out);
        let j = s.agg.to_json();
        let text = j.render();
        assert!(
            !text.contains('.'),
            "attribution JSON must be integer-only: {text}"
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
        let mut s = LinkState::new("", "e1", Duration::from_millis(100), false);
        assert!(!s.armed());
        tx(&mut s, 1, 1, false, &mut out);
        s.on_rx(at(15), 1, true, &mut out);
        s.on_nak(at(16), 1, 1);
        s.on_run_finished(at(31), false, &mut out);
        assert_eq!(out.total(), 0);
        assert_eq!(s.open_frames(), 0, "no frame state without a sender config");
        assert_eq!((s.agg.sdus, s.agg.res_bound_ns), (0, 0));
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
}
