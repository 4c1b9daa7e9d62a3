//! Span profiler internals: the per-thread [`Profiler`], the [`Prof`]
//! handle hot code holds, the RAII [`SpanGuard`], and the [`SpanTree`]
//! snapshot reports are built from.
//!
//! # Accounting model
//!
//! Spans are identified by *call path*, not by name alone: entering
//! `"queue.pop"` under `"sim.dispatch"` and under `"sim.wake"` produces
//! two distinct tree nodes, so a flamegraph falls straight out of the
//! tree. Each node accumulates a call count and total wall-clock
//! nanoseconds; a frame's elapsed time is measured once at exit with
//! the same monotonic clock that stamped its entry. Because child
//! frames are strictly nested inside their parent frame (guards close
//! in LIFO order; an out-of-order parent drop force-closes its children
//! at the parent's exit instant), `Σ children.total ≤ parent.total`
//! holds exactly in integer nanoseconds and self time is
//! `total − Σ children` with no rounding.
//!
//! # Capacity
//!
//! The node table is capped ([`DEFAULT_SPAN_CAP`] by default). Once
//! full, new call paths are not recorded: the enter is counted in
//! `truncated` (a node allocation failed) and `dropped` (the timing
//! went unattributed — it folds into the parent's self time), and any
//! spans opened underneath inherit the dropped state. The counters make
//! a capped table visible instead of silently wrong, mirroring
//! `monitor.attribution.incomplete`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Default span-table capacity (distinct call paths per profiler).
/// The instrumented workspace uses well under a hundred paths; the cap
/// exists so a pathological caller cannot grow the table unboundedly.
pub const DEFAULT_SPAN_CAP: usize = 512;

/// Root sentinel index: node 0 anchors the tree and carries no timing.
const ROOT: u32 = 0;
/// Frame marker for spans that lost attribution (table full, or opened
/// under an already-dropped frame).
const DROPPED: u32 = u32::MAX;

/// A constant-space summary of a sampled series (queue depths): count,
/// sum, and max, from which the mean is derived on demand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleSummary {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all sampled values.
    pub sum: u64,
    /// Largest sampled value.
    pub max: u64,
}

impl SampleSummary {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another summary into this one.
    pub fn absorb(&mut self, other: &SampleSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[derive(Clone, Copy)]
struct Frame {
    node: u32,
    start_ns: u64,
}

struct NodeData {
    name: &'static str,
    count: u64,
    total_ns: u64,
    children: Vec<u32>,
}

impl NodeData {
    fn new(name: &'static str) -> Self {
        NodeData {
            name,
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        }
    }
}

/// The per-thread span accumulator. Not used directly by instrumented
/// code — obtain a [`Prof`] handle via [`crate::current`] and open
/// spans through it.
pub struct Profiler {
    epoch: Instant,
    nodes: Vec<NodeData>,
    stack: Vec<Frame>,
    cap: usize,
    dropped: u64,
    truncated: u64,
    queue_depth: SampleSummary,
}

impl Profiler {
    /// A fresh profiler whose span table holds at most `cap` nodes
    /// (including the root sentinel; `cap` is clamped to at least 2 so
    /// one real span always fits).
    pub fn new(cap: usize) -> Self {
        // Reserve the span table up front (bounded by `cap`): opening a
        // span then never reallocates it inside the window being timed.
        let mut nodes = Vec::with_capacity(cap.clamp(2, 64));
        nodes.push(NodeData::new(""));
        Profiler {
            epoch: Instant::now(),
            nodes,
            stack: Vec::with_capacity(16),
            cap: cap.max(2),
            dropped: 0,
            truncated: 0,
            queue_depth: SampleSummary::default(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Find or create `name` under `parent`; `None` when the table is
    /// at capacity and the path does not already exist.
    fn child(&mut self, parent: u32, name: &'static str) -> Option<u32> {
        let n = self.nodes[parent as usize].children.len();
        for k in 0..n {
            let c = self.nodes[parent as usize].children[k];
            if self.nodes[c as usize].name == name {
                return Some(c);
            }
        }
        if self.nodes.len() >= self.cap {
            return None;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeData::new(name));
        self.nodes[parent as usize].children.push(id);
        Some(id)
    }

    /// Push a frame for `name`; returns the stack depth the matching
    /// guard closes back to.
    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map(|f| f.node).unwrap_or(ROOT);
        let node = if parent == DROPPED {
            self.dropped += 1;
            DROPPED
        } else {
            match self.child(parent, name) {
                Some(i) => i,
                None => {
                    self.truncated += 1;
                    self.dropped += 1;
                    DROPPED
                }
            }
        };
        let start_ns = self.now_ns();
        self.stack.push(Frame { node, start_ns });
        self.stack.len()
    }

    /// Close every frame at depth `depth` or deeper, attributing each
    /// at one shared clock reading. A no-op when the stack is already
    /// shallower (the frame was force-closed by an outer guard).
    fn exit_to(&mut self, depth: usize) {
        if self.stack.len() < depth {
            return;
        }
        let now = self.now_ns();
        while self.stack.len() >= depth {
            let f = self.stack.pop().expect("len checked");
            if f.node != DROPPED {
                let node = &mut self.nodes[f.node as usize];
                node.count += 1;
                node.total_ns += now - f.start_ns;
            }
        }
    }

    /// Record a queue-depth sample.
    pub fn sample_queue_depth(&mut self, depth: u64) {
        self.queue_depth.record(depth);
    }

    /// Consume the profiler into a report, force-closing open frames.
    pub fn finish(mut self) -> Report {
        self.finish_in_place()
    }

    /// Drain into a report, leaving this profiler empty (used when RAII
    /// guards still hold handles to it; their later drops are no-ops).
    pub(crate) fn finish_in_place(&mut self) -> Report {
        self.exit_to(1);
        let nodes = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(|n| SpanNode {
                name: n.name,
                count: n.count,
                total_ns: n.total_ns,
                children: n.children,
            })
            .collect();
        Report {
            tree: SpanTree { nodes },
            dropped: std::mem::take(&mut self.dropped),
            truncated: std::mem::take(&mut self.truncated),
            queue_depth: std::mem::take(&mut self.queue_depth),
        }
    }
}

type Shared = Rc<RefCell<Profiler>>;

/// A cheap, cloneable handle to a thread's profiler. Empty when
/// profiling is disabled: [`Prof::span`] then costs one branch, the
/// same disabled-mode shape as `Trace::emit`.
#[derive(Clone, Default)]
pub struct Prof {
    inner: Option<Shared>,
}

impl Prof {
    /// A permanently disabled handle.
    pub fn disabled() -> Self {
        Prof { inner: None }
    }

    pub(crate) fn from_shared(inner: Option<Shared>) -> Self {
        Prof { inner }
    }

    /// True when spans opened through this handle are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes (and is attributed) when the returned
    /// guard drops — on scope exit, early return, or panic unwind.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { inner: None },
            Some(rc) => {
                let depth = rc.borrow_mut().enter(name);
                SpanGuard {
                    inner: Some((rc.clone(), depth)),
                }
            }
        }
    }

    /// Like [`Prof::span`] but consumes the handle, moving it into the
    /// guard (saves a refcount round-trip for one-shot resolution).
    #[inline]
    pub fn into_span(self, name: &'static str) -> SpanGuard {
        match self.inner {
            None => SpanGuard { inner: None },
            Some(rc) => {
                let depth = rc.borrow_mut().enter(name);
                SpanGuard {
                    inner: Some((rc, depth)),
                }
            }
        }
    }

    /// Record a queue-depth sample (no-op when disabled).
    #[inline]
    pub fn sample_queue_depth(&self, depth: u64) {
        if let Some(rc) = &self.inner {
            rc.borrow_mut().sample_queue_depth(depth);
        }
    }
}

/// RAII guard returned by [`Prof::span`]; closes the span on drop.
#[must_use = "a span guard measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    inner: Option<(Shared, usize)>,
}

impl Drop for SpanGuard {
    /// A disabled guard's drop is one `is_some` check inlined at the
    /// call site; closing a live span stays out of line.
    #[inline(always)]
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.close();
        }
    }
}

impl SpanGuard {
    #[cold]
    #[inline(never)]
    fn close(&mut self) {
        if let Some((rc, depth)) = self.inner.take() {
            // try_borrow_mut: drop can run mid-unwind; never panic here.
            if let Ok(mut p) = rc.try_borrow_mut() {
                p.exit_to(depth);
            }
        }
    }
}

/// One node of a [`SpanTree`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// The span name as passed to [`Prof::span`].
    pub name: &'static str,
    /// Completed frame count.
    pub count: u64,
    /// Total wall-clock nanoseconds across all frames.
    pub total_ns: u64,
    /// Child node indices, in first-entry order.
    pub children: Vec<u32>,
}

/// An immutable span-tree snapshot. Index 0 is a synthetic root
/// sentinel carrying no timing; [`SpanTree::roots`] are its children.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
}

impl SpanTree {
    /// Indices of the top-level spans, in first-entry order.
    pub fn roots(&self) -> &[u32] {
        match self.nodes.first() {
            Some(root) => &root.children,
            None => &[],
        }
    }

    /// The node at `index` (as found in a `children` list or
    /// [`SpanTree::roots`]).
    pub fn node(&self, index: u32) -> &SpanNode {
        &self.nodes[index as usize]
    }

    /// Self time of the node at `index`: `total − Σ children.total`.
    /// Exact by the nesting discipline; saturating as a belt against a
    /// hand-built inconsistent tree.
    pub fn self_ns(&self, index: u32) -> u64 {
        let n = self.node(index);
        let child_total: u64 = n.children.iter().map(|&c| self.node(c).total_ns).sum();
        n.total_ns.saturating_sub(child_total)
    }

    /// Sum of the top-level spans' totals — the tree's wall-clock
    /// coverage.
    pub fn total_root_ns(&self) -> u64 {
        self.roots().iter().map(|&r| self.node(r).total_ns).sum()
    }

    /// Number of recorded spans (excluding the root sentinel).
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge another tree into this one, matching nodes by call path
    /// and summing counts and totals. Used to aggregate per-experiment
    /// trees into one bench-wide breakdown.
    pub fn absorb(&mut self, other: &SpanTree) {
        if self.nodes.is_empty() {
            self.nodes.push(SpanNode {
                name: "",
                count: 0,
                total_ns: 0,
                children: Vec::new(),
            });
        }
        if other.nodes.is_empty() {
            return;
        }
        self.absorb_children(ROOT, other, ROOT);
    }

    fn absorb_children(&mut self, into: u32, other: &SpanTree, from: u32) {
        for &oc in other.node(from).children.clone().iter() {
            let oname = other.node(oc).name;
            let target = {
                let kids = &self.nodes[into as usize].children;
                kids.iter()
                    .copied()
                    .find(|&c| self.nodes[c as usize].name == oname)
            };
            let target = match target {
                Some(t) => t,
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(SpanNode {
                        name: oname,
                        count: 0,
                        total_ns: 0,
                        children: Vec::new(),
                    });
                    self.nodes[into as usize].children.push(id);
                    id
                }
            };
            self.nodes[target as usize].count += other.node(oc).count;
            self.nodes[target as usize].total_ns += other.node(oc).total_ns;
            self.absorb_children(target, other, oc);
        }
    }
}

/// Everything [`crate::take`] returns: the span tree plus the capacity
/// counters and the queue-depth sample summary.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The recorded span tree.
    pub tree: SpanTree,
    /// Span enters whose timing went unattributed (table full, or
    /// nested under a dropped frame). Always ≥ [`Report::truncated`].
    pub dropped: u64,
    /// Span enters that failed to allocate a new call-path node because
    /// the table was at capacity.
    pub truncated: u64,
    /// Queue-depth samples recorded via [`Prof::sample_queue_depth`].
    pub queue_depth: SampleSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(cap: usize) -> Prof {
        Prof::from_shared(Some(Rc::new(RefCell::new(Profiler::new(cap)))))
    }

    fn finish(prof: Prof) -> Report {
        let rc = prof.inner.expect("enabled");
        let report = rc.borrow_mut().finish_in_place();
        report
    }

    /// Busy-wait long enough for the monotonic clock to advance, so
    /// total/self assertions have real nonzero numbers to bite on.
    fn spin() {
        let t0 = Instant::now();
        while t0.elapsed().as_nanos() < 50_000 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_self_time_subtracts_children_exactly_once() {
        let prof = fresh(DEFAULT_SPAN_CAP);
        {
            let _a = prof.span("a");
            spin();
            {
                let _b = prof.span("b");
                spin();
                let _c = prof.span("c");
                spin();
            }
            {
                let _b = prof.span("b"); // same path → same node
                spin();
            }
        }
        let r = finish(prof);
        assert_eq!(r.tree.roots().len(), 1);
        let a = r.tree.roots()[0];
        let node_a = r.tree.node(a);
        assert_eq!(node_a.name, "a");
        assert_eq!(node_a.count, 1);
        assert_eq!(node_a.children.len(), 1, "both b-frames share one node");
        let b = node_a.children[0];
        let node_b = r.tree.node(b);
        assert_eq!(node_b.count, 2);
        let c = node_b.children[0];
        let node_c = r.tree.node(c);
        assert_eq!(node_c.count, 1);
        // Exact integer-ns consistency: child totals nest inside the
        // parent, self = total − Σ children with no rounding.
        assert!(node_c.total_ns > 0);
        assert!(node_b.total_ns >= node_c.total_ns);
        assert!(node_a.total_ns >= node_b.total_ns);
        assert_eq!(r.tree.self_ns(b) + node_c.total_ns, node_b.total_ns);
        assert_eq!(r.tree.self_ns(a) + node_b.total_ns, node_a.total_ns);
        // Each child's time is subtracted exactly once: the sum of all
        // self times equals the root total.
        let self_sum = r.tree.self_ns(a) + r.tree.self_ns(b) + r.tree.self_ns(c);
        assert_eq!(self_sum, node_a.total_ns);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.truncated, 0);
    }

    #[test]
    fn sibling_paths_get_distinct_nodes() {
        let prof = fresh(DEFAULT_SPAN_CAP);
        {
            let _d = prof.span("dispatch");
            let _q = prof.span("queue.pop");
        }
        {
            let _w = prof.span("wake");
            let _q = prof.span("queue.pop");
        }
        let r = finish(prof);
        assert_eq!(r.tree.roots().len(), 2, "two top-level spans");
        for &root in r.tree.roots() {
            let n = r.tree.node(root);
            assert_eq!(n.children.len(), 1);
            assert_eq!(r.tree.node(n.children[0]).name, "queue.pop");
        }
    }

    #[test]
    fn guard_drop_on_early_return() {
        fn inner(prof: &Prof, bail: bool) -> u32 {
            let _g = prof.span("inner");
            if bail {
                return 1; // guard drops here
            }
            2
        }
        let prof = fresh(DEFAULT_SPAN_CAP);
        {
            let _o = prof.span("outer");
            assert_eq!(inner(&prof, true), 1);
            assert_eq!(inner(&prof, false), 2);
        }
        let r = finish(prof);
        let outer = r.tree.node(r.tree.roots()[0]);
        assert_eq!(outer.count, 1);
        let inner_node = r.tree.node(outer.children[0]);
        assert_eq!(inner_node.count, 2, "both returns closed the span");
    }

    #[test]
    fn guard_drop_on_panic_unwind() {
        let prof = fresh(DEFAULT_SPAN_CAP);
        let p2 = prof.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _g = p2.span("doomed");
            panic!("boom");
        }));
        assert!(caught.is_err());
        {
            let _g = prof.span("after");
        }
        let r = finish(prof);
        let names: Vec<&str> = r
            .tree
            .roots()
            .iter()
            .map(|&i| r.tree.node(i).name)
            .collect();
        assert_eq!(names, vec!["doomed", "after"], "unwound span was closed");
        assert_eq!(r.tree.node(r.tree.roots()[0]).count, 1);
    }

    #[test]
    fn out_of_order_parent_drop_force_closes_children() {
        let prof = fresh(DEFAULT_SPAN_CAP);
        let parent = prof.span("parent");
        let child = prof.span("child");
        drop(parent); // closes child too, at the parent's exit instant
        drop(child); // stale guard: must be a silent no-op
        let r = finish(prof);
        let p = r.tree.node(r.tree.roots()[0]);
        assert_eq!(p.count, 1);
        let c = r.tree.node(p.children[0]);
        assert_eq!(c.count, 1, "child closed exactly once");
        assert!(c.total_ns <= p.total_ns);
    }

    #[test]
    fn table_capacity_overflow_is_counted_not_recorded() {
        static NAMES: [&str; 8] = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"];
        // Capacity 4 = root sentinel + 3 real nodes.
        let prof = fresh(4);
        for name in NAMES {
            let _g = prof.span(name);
        }
        // Re-entering a recorded path still works at capacity...
        {
            let _g = prof.span("n0");
            // ...and spans under a dropped frame are dropped too.
            let _h = prof.span("n7");
            let _i = prof.span("n0");
        }
        let r = finish(prof);
        assert_eq!(r.tree.len(), 3, "table capped at 3 real nodes");
        assert_eq!(r.truncated, 5 + 1, "n3..n7 plus the nested n7 retry");
        assert_eq!(
            r.dropped,
            6 + 1,
            "truncated enters plus the n0 under a dropped frame"
        );
        assert_eq!(r.tree.node(r.tree.roots()[0]).count, 2, "n0 recorded twice");
    }

    #[test]
    fn absorb_merges_by_call_path() {
        let mk = |extra: bool| {
            let prof = fresh(DEFAULT_SPAN_CAP);
            {
                let _a = prof.span("a");
                let _b = prof.span("b");
            }
            if extra {
                let _c = prof.span("c");
            }
            finish(prof)
        };
        let r1 = mk(false);
        let r2 = mk(true);
        let mut agg = SpanTree::default();
        agg.absorb(&r1.tree);
        agg.absorb(&r2.tree);
        assert_eq!(agg.roots().len(), 2, "a and c");
        let a = agg.node(agg.roots()[0]);
        assert_eq!(a.name, "a");
        assert_eq!(a.count, 2);
        let b = agg.node(a.children[0]);
        assert_eq!(b.count, 2);
        assert_eq!(
            a.total_ns,
            r1.tree.node(r1.tree.roots()[0]).total_ns + r2.tree.node(r2.tree.roots()[0]).total_ns
        );
        assert_eq!(agg.node(agg.roots()[1]).name, "c");
    }

    #[test]
    fn sample_summary_tracks_count_sum_max() {
        let mut s = SampleSummary::default();
        assert_eq!(s.mean(), 0.0);
        for v in [3, 9, 6] {
            s.record(v);
        }
        assert_eq!((s.count, s.sum, s.max), (3, 18, 9));
        assert_eq!(s.mean(), 6.0);
        let mut t = SampleSummary::default();
        t.record(11);
        s.absorb(&t);
        assert_eq!((s.count, s.sum, s.max), (4, 29, 11));
    }
}
