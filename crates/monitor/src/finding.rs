//! Structured audit findings: what broke, where, and when.

use sim_core::Instant;
use std::fmt;
use telemetry::Json;

/// The LAMS-DLC runtime invariants the auditor checks (paper §3), plus
/// a catch-all for records that are structurally impossible for a
/// well-formed trace (the fault-injection tests exercise it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// (a) No-loss delivery: every buffered frame is either delivered
    /// clean before release or still resolving when the run ends.
    NoLoss,
    /// (b) Renumbering: wire sequence numbers are strictly monotone;
    /// every retransmission carries a fresh number.
    MonotoneSeq,
    /// (c) Checkpoint cadence: the receiver emits every `W_cp`; the
    /// sender hears one within `C_depth·W_cp` (+slack) or enters
    /// enforced recovery.
    CheckpointCadence,
    /// (d) Buffer release only on implicit positive acknowledgement
    /// (a checkpoint covering the frame, at the checkpoint instant).
    ReleaseOnAck,
    /// (e) Bounded numbering: every frame resolves (release or
    /// renumber) within its resolving period.
    NumberingBound,
    /// The event stream itself is inconsistent (release of an unknown
    /// frame, non-monotone checkpoint indices, ...).
    StreamIntegrity,
    /// An observed NAK resolution cycle (receiver error record →
    /// sender retransmission decision, Stop-Go and enforced-recovery
    /// overlap excluded) exceeded the analytic resolving period
    /// `R + W_cp/2 + C_depth·W_cp` (plus the wall slack on wall-clock
    /// streams).
    ResolutionBound,
    /// A delivered SDU's latency-attribution phases failed to sum to
    /// its measured delivery latency (internal audit of the
    /// attribution layer itself).
    AttributionSum,
}

impl Invariant {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::NoLoss => "no_loss",
            Invariant::MonotoneSeq => "monotone_seq",
            Invariant::CheckpointCadence => "checkpoint_cadence",
            Invariant::ReleaseOnAck => "release_on_ack",
            Invariant::NumberingBound => "numbering_bound",
            Invariant::StreamIntegrity => "stream_integrity",
            Invariant::ResolutionBound => "resolution_bound",
            Invariant::AttributionSum => "attribution_sum",
        }
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Simulated time of the offending event.
    pub t: Instant,
    /// Node (trace label) the offending event belongs to.
    pub node: &'static str,
    /// Experiment the run belonged to (`""` outside the runner).
    pub experiment: &'static str,
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// The offending event window `[from, to]` in simulated time
    /// (for instantaneous violations both ends equal `t`).
    pub window: (Instant, Instant),
    /// Human-readable description with the relevant numbers.
    pub detail: String,
}

impl AuditFinding {
    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("t", Json::Num(self.t.as_secs_f64())),
            ("node", self.node.into()),
            ("experiment", self.experiment.into()),
            ("invariant", self.invariant.name().into()),
            ("from", Json::Num(self.window.0.as_secs_f64())),
            ("to", Json::Num(self.window.1.as_secs_f64())),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.6}s {}{}{}] {}: {}",
            self.t.as_secs_f64(),
            self.node,
            if self.experiment.is_empty() { "" } else { " " },
            self.experiment,
            self.invariant.name(),
            self.detail
        )
    }
}

/// Bounded findings accumulator: keeps the first `cap` findings in
/// arrival order, counts the rest so a pathological run can't eat
/// unbounded memory while still failing loudly.
#[derive(Debug, Default)]
pub struct Findings {
    list: Vec<AuditFinding>,
    cap: usize,
    total: u64,
}

impl Findings {
    /// A collector keeping at most `cap` findings.
    pub fn with_cap(cap: usize) -> Self {
        Findings {
            list: Vec::new(),
            cap,
            total: 0,
        }
    }

    /// Record one finding (kept while under the cap).
    pub fn push(&mut self, f: AuditFinding) {
        self.total += 1;
        if self.list.len() < self.cap {
            self.list.push(f);
        }
    }

    /// Findings detected, including ones beyond the cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Findings dropped once the cap was reached.
    pub fn suppressed(&self) -> u64 {
        self.total - self.list.len() as u64
    }

    /// The kept findings in arrival order.
    pub fn list(&self) -> &[AuditFinding] {
        &self.list
    }

    /// Drain into the kept findings, resetting the collector.
    pub fn take(&mut self) -> Vec<AuditFinding> {
        self.total = 0;
        std::mem::take(&mut self.list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(n: u64) -> AuditFinding {
        AuditFinding {
            t: Instant::from_nanos(n),
            node: "tx",
            experiment: "e1",
            invariant: Invariant::NoLoss,
            window: (Instant::from_nanos(n), Instant::from_nanos(n)),
            detail: format!("f{n}"),
        }
    }

    #[test]
    fn cap_bounds_kept_findings() {
        let mut fs = Findings::with_cap(2);
        for i in 0..5 {
            fs.push(finding(i));
        }
        assert_eq!(fs.total(), 5);
        assert_eq!(fs.list().len(), 2);
        assert_eq!(fs.suppressed(), 3);
        assert_eq!(fs.list()[0].detail, "f0");
    }

    #[test]
    fn json_and_display_carry_the_window() {
        let f = finding(3);
        let j = f.to_json();
        assert_eq!(j.get("invariant").and_then(Json::as_str), Some("no_loss"));
        assert!(j.get("from").and_then(Json::as_f64).is_some());
        let s = f.to_string();
        assert!(s.contains("no_loss") && s.contains("f3"), "{s}");
    }
}
