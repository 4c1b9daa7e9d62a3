//! Rendering for the self-profiling results a profiled `repro` run
//! collects: the `lams-dlc.profile/1` JSON document, a human-readable
//! per-experiment table, and collapsed-stack ("folded") flamegraph
//! lines.
//!
//! The span data itself comes from the `profile` crate (see
//! [`profile::Report`]); this module owns everything about how the
//! harness surfaces it. All span durations stay integer nanoseconds
//! end-to-end so the offline validator can check the tree exactly:
//! every child's total nests inside its parent's, and
//! `self = total − Σ children` holds with no rounding.

use crate::runner::ExperimentRun;
use profile::{alloc::AllocSnapshot, SampleSummary, SpanTree};
use telemetry::{Json, Registry};

/// Registry counter: span enters whose timing went unattributed.
pub const SPANS_DROPPED: &str = "profile.spans.dropped";
/// Registry counter: span enters that failed node allocation (table at
/// capacity).
pub const SPANS_TRUNCATED: &str = "profile.spans.truncated";

/// One experiment's self-profile: the span tree plus the wall clock it
/// is measured against, capacity-loss counters, queue-depth samples,
/// and (when the binary installed the counting allocator) the
/// allocation delta.
#[derive(Clone, Debug, Default)]
pub struct ExperimentProfile {
    /// Wall-clock nanoseconds from profiler install to drain — the
    /// denominator for span coverage.
    pub wall_ns: u64,
    /// The recorded span tree (call-path keyed).
    pub tree: SpanTree,
    /// Span enters whose timing went unattributed.
    pub dropped: u64,
    /// Span enters rejected because the span table was at capacity.
    pub truncated: u64,
    /// Event-queue depth samples taken at the engine's periodic sample
    /// ticks.
    pub queue_depth: SampleSummary,
    /// Allocation events/bytes during the experiment, or `None` when
    /// this binary has no counting allocator installed.
    pub alloc: Option<AllocSnapshot>,
}

impl ExperimentProfile {
    /// Assemble from a drained [`profile::Report`] plus the wall clock
    /// and allocation delta measured around it.
    pub fn from_report(
        report: profile::Report,
        wall_ns: u64,
        alloc: Option<AllocSnapshot>,
    ) -> Self {
        ExperimentProfile {
            wall_ns,
            tree: report.tree,
            dropped: report.dropped,
            truncated: report.truncated,
            queue_depth: report.queue_depth,
            alloc,
        }
    }

    /// Fraction of the experiment's wall clock covered by top-level
    /// spans (0.0 when no wall clock was measured).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.tree.total_root_ns() as f64 / self.wall_ns as f64
    }

    /// The capacity-loss counters as a telemetry [`Registry`], under
    /// the canonical names [`SPANS_DROPPED`] / [`SPANS_TRUNCATED`].
    pub fn counters(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add(SPANS_DROPPED, self.dropped as f64);
        reg.add(SPANS_TRUNCATED, self.truncated as f64);
        reg
    }

    /// The per-experiment JSON block embedded in both the repro report
    /// and the standalone profile document.
    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .tree
            .roots()
            .iter()
            .map(|&r| span_json(&self.tree, r))
            .collect();
        let alloc = match &self.alloc {
            Some(a) => Json::obj([("allocs", a.allocs.into()), ("bytes", a.bytes.into())]),
            None => Json::Null,
        };
        Json::obj([
            ("wall_ns", self.wall_ns.into()),
            ("counters", self.counters().to_json()),
            (
                "queue_depth",
                Json::obj([
                    ("samples", self.queue_depth.count.into()),
                    ("sum", self.queue_depth.sum.into()),
                    ("max", self.queue_depth.max.into()),
                    ("mean", self.queue_depth.mean().into()),
                ]),
            ),
            ("alloc", alloc),
            ("spans", Json::from(spans)),
        ])
    }

    /// Human-readable breakdown: one row per call path (indented by
    /// depth) with call count, total/self wall-clock, self share of the
    /// experiment wall clock, and mean cost per call. When the
    /// experiment's merged queue profile is supplied, an event-queue
    /// line (peak depth, horizon) rides along — stats that were
    /// JSON-only before.
    pub fn table(&self, id: &str, queue: Option<&sim_core::QueueProfile>) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "self-profile [{id}]: wall {:.3} ms, {} span path(s), {:.1}% covered",
            self.wall_ns as f64 / 1e6,
            self.tree.len(),
            100.0 * self.coverage(),
        );
        let _ = writeln!(
            s,
            "  {:<32} {:>9} {:>12} {:>12} {:>7} {:>12}",
            "span", "calls", "total ms", "self ms", "self%", "ns/call"
        );
        let wall = self.wall_ns.max(1) as f64;
        for &root in self.tree.roots() {
            self.table_rows(&mut s, root, 0, wall);
        }
        if self.queue_depth.count > 0 {
            let _ = writeln!(
                s,
                "  queue depth: {} sample(s), mean {:.1}, max {}",
                self.queue_depth.count,
                self.queue_depth.mean(),
                self.queue_depth.max,
            );
        }
        if let Some(q) = queue {
            let _ = writeln!(
                s,
                "  event queue: peak depth {}, horizon {:.3} s",
                q.peak_depth,
                q.horizon.as_secs_f64(),
            );
        }
        if let Some(a) = &self.alloc {
            let _ = writeln!(s, "  allocations: {} ({} bytes)", a.allocs, a.bytes);
        }
        if self.dropped > 0 || self.truncated > 0 {
            let _ = writeln!(
                s,
                "  WARNING: {} span(s) dropped ({} truncated by the table cap)",
                self.dropped, self.truncated
            );
        }
        s
    }

    fn table_rows(&self, s: &mut String, index: u32, depth: usize, wall: f64) {
        use std::fmt::Write as _;
        let n = self.tree.node(index);
        let self_ns = self.tree.self_ns(index);
        let label = format!("{}{}", "  ".repeat(depth), n.name);
        let _ = writeln!(
            s,
            "  {:<32} {:>9} {:>12.3} {:>12.3} {:>6.1}% {:>12}",
            label,
            n.count,
            n.total_ns as f64 / 1e6,
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / wall,
            n.total_ns / n.count.max(1),
        );
        for &c in &n.children {
            self.table_rows(s, c, depth + 1, wall);
        }
    }

    /// Append collapsed-stack lines (`id;path;to;span <self_ns>`) for
    /// this experiment — the input format flamegraph tools consume. The
    /// experiment id is the synthetic root frame, so a multi-experiment
    /// file renders as one flamegraph with per-experiment towers.
    pub fn folded_into(&self, id: &str, out: &mut String) {
        for &root in self.tree.roots() {
            self.folded_rows(out, id, root);
        }
    }

    fn folded_rows(&self, out: &mut String, prefix: &str, index: u32) {
        use std::fmt::Write as _;
        let n = self.tree.node(index);
        let path = format!("{prefix};{}", n.name);
        let self_ns = self.tree.self_ns(index);
        if self_ns > 0 {
            let _ = writeln!(out, "{path} {self_ns}");
        }
        for &c in &n.children {
            self.folded_rows(out, &path, c);
        }
    }
}

fn span_json(tree: &SpanTree, index: u32) -> Json {
    let n = tree.node(index);
    let children: Vec<Json> = n.children.iter().map(|&c| span_json(tree, c)).collect();
    Json::obj([
        ("name", Json::from(n.name)),
        ("count", n.count.into()),
        ("total_ns", n.total_ns.into()),
        ("self_ns", tree.self_ns(index).into()),
        ("children", Json::from(children)),
    ])
}

/// Build the standalone `lams-dlc.profile/1` document over completed
/// runs (unprofiled or unknown-id runs are skipped).
pub fn profile_doc(runs: &[ExperimentRun], quick: bool) -> Json {
    let experiments: Vec<Json> = runs
        .iter()
        .filter_map(|run| {
            let p = run.profile.as_ref()?;
            let mut doc = p.to_json();
            if let Json::Obj(members) = &mut doc {
                members.insert(0, ("id".into(), Json::from(run.id.as_str())));
            }
            Some(doc)
        })
        .collect();
    Json::obj([
        ("schema", Json::from("lams-dlc.profile/1")),
        ("quick", Json::from(quick)),
        ("experiments", Json::from(experiments)),
    ])
}

/// Render every profiled run's collapsed stacks into one folded file.
pub fn folded(runs: &[ExperimentRun]) -> String {
    let mut out = String::new();
    for run in runs {
        if let Some(p) = &run.profile {
            p.folded_into(&run.id, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> ExperimentProfile {
        profile::install();
        {
            let _e = profile::span("experiment");
            let _r = profile::span("sim.run");
            {
                let _p = profile::span("queue.pop");
            }
            let _s = profile::span("queue.schedule");
        }
        let report = profile::take().expect("installed");
        let wall_ns = report.tree.total_root_ns() + 1_000;
        ExperimentProfile::from_report(report, wall_ns, None)
    }

    #[test]
    fn counters_use_canonical_registry_names() {
        assert!(telemetry::is_canonical_name(SPANS_DROPPED));
        assert!(telemetry::is_canonical_name(SPANS_TRUNCATED));
        let mut p = sample_profile();
        p.dropped = 3;
        p.truncated = 2;
        let reg = p.counters();
        assert_eq!(reg.get(SPANS_DROPPED), Some(3.0));
        assert_eq!(reg.get(SPANS_TRUNCATED), Some(2.0));
    }

    #[test]
    fn json_block_is_tree_consistent() {
        let p = sample_profile();
        let doc = p.to_json();
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 1);
        let root = &spans[0];
        assert_eq!(root.get("name").and_then(Json::as_str), Some("experiment"));
        // self = total − Σ children, exactly.
        let ns = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).expect(key) as u64;
        let total = ns(root, "total_ns");
        let self_ns = ns(root, "self_ns");
        let child_total: u64 = root
            .get("children")
            .and_then(Json::as_arr)
            .expect("children")
            .iter()
            .map(|c| ns(c, "total_ns"))
            .sum();
        assert_eq!(self_ns + child_total, total);
        assert!(doc.get("counters").is_some());
        assert!(doc.get("queue_depth").is_some());
        assert_eq!(doc.get("alloc"), Some(&Json::Null));
    }

    #[test]
    fn table_lists_every_call_path_once() {
        let p = sample_profile();
        let t = p.table("e1", None);
        assert!(t.contains("self-profile [e1]"), "{t}");
        for name in ["experiment", "sim.run", "queue.pop", "queue.schedule"] {
            assert_eq!(t.matches(name).count(), 1, "{name} once in:\n{t}");
        }
        assert!(!t.contains("WARNING"), "{t}");
    }

    #[test]
    fn table_surfaces_queue_line_when_perf_rides_along() {
        use sim_core::{Instant, QueueProfile};
        let p = sample_profile();
        assert!(
            !p.table("e1", None).contains("event queue"),
            "no queue line without a perf block"
        );
        let q = QueueProfile {
            scheduled: 10,
            popped: 9,
            cancelled: 0,
            peak_depth: 4,
            horizon: Instant::from_millis(1500),
        };
        let t = p.table("e1", Some(&q));
        assert!(t.contains("event queue: peak depth 4"), "{t}");
        assert!(t.contains("horizon 1.500 s"), "{t}");
    }

    #[test]
    fn folded_lines_carry_full_call_paths() {
        let p = sample_profile();
        let mut out = String::new();
        p.folded_into("e9", &mut out);
        for line in out.lines() {
            let (path, value) = line.rsplit_once(' ').expect("value column");
            assert!(path.starts_with("e9;experiment"), "{line}");
            assert!(value.parse::<u64>().expect("integer ns") > 0, "{line}");
        }
        assert!(
            out.lines()
                .any(|l| l.starts_with("e9;experiment;sim.run;queue.pop ")),
            "{out}"
        );
    }
}
