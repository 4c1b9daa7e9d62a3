//! Online protocol auditor and time-series metrics over the telemetry
//! stream.
//!
//! A [`Monitor`] is a [`telemetry::TraceSink`]: install it (alone or
//! inside a [`telemetry::FanoutSink`] next to a JSONL writer) and every
//! simulation run is audited **live** against the five LAMS-DLC
//! invariants (paper §3):
//!
//! 1. **No-loss delivery** — a buffered frame is released only after a
//!    clean arrival, and every frame resolves by a clean run end.
//! 2. **Monotone wire sequence numbers** — renumbering gives every
//!    (re)transmission a fresh, strictly increasing number.
//! 3. **Checkpoint cadence** — the receiver emits every `W_cp`; sender
//!    silence beyond `C_depth·W_cp` (+slack) implies enforced recovery.
//! 4. **Release on implicit ACK only** — releases happen at the
//!    covering checkpoint's instant, within its covered horizon.
//! 5. **Bounded numbering** — frames resolve (release or renumber)
//!    within the resolving period `R + W_cp/2 + C_depth·W_cp` (+slack),
//!    restarted by enforced recovery.
//!
//! Violations surface as structured [`AuditFinding`]s. Alongside the
//! audit, the monitor maintains fixed-interval windowed series
//! (throughput, NAK rate, retransmissions in flight, buffer occupancy
//! high-water marks) and per-frame lifecycles feeding exact
//! delivery-latency samples — summarized per experiment in
//! [`ExperimentMetrics`], every quantile by one nearest-rank rule —
//! and splits every delivered SDU's latency into causal phases
//! ([`attribution`]).
//!
//! Each link keeps one frame table for all of it: one entry per
//! unresolved user frame, keyed by its current wire sequence number,
//! carries both the audit fields and the attribution fields, and each
//! record makes one call into the link's state, which audits first and
//! attributes second.
//!
//! The same state machine powers the `trace-tools` binary, which
//! replays a `--trace` JSONL file offline and reconstructs identical
//! verdicts, series, and lifecycles.
//!
//! Everything is keyed by *link*: trace node labels pair up by prefix
//! (`"tx"`/`"rx"`, `"a2b.tx"`/`"a2b.rx"`, `"hop3.tx"`/`"hop3.rx"`).
//! Only links announcing a [`telemetry::TraceEvent::SenderConfig`]
//! (LAMS-DLC senders) are audited and attributed; the HDLC baselines
//! reuse sequence numbers by design and pass through with no frame
//! state kept.

#![warn(missing_docs)]

pub mod attribution;
pub mod finding;
pub mod lifecycle;
mod link;
pub mod series;

pub use attribution::{AttributionAgg, Phase, PhaseAgg, PHASE_NAMES};
pub use finding::{AuditFinding, Findings, Invariant};
pub use lifecycle::FrameLifecycle;
pub use series::{LinkSeries, WindowAcc};

use link::{LinkState, LinkTally, LinkTiming};
use sim_core::stats::nearest_rank;
use sim_core::{Duration, Instant};
use telemetry::{Json, ProtoTrace, Registry, TraceEvent, TraceRecord, TraceSink};

/// Counter of link records stamped earlier than a link record already
/// observed in the same run. A simulated or wall-clock trace never has
/// one; a damaged trace is still audited as stamped, and every
/// rewound record is counted here.
pub const RECORDS_REWOUND: &str = "monitor.records.rewound";

/// Which side of a link a node label names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Tx,
    Rx,
}

/// Map a trace node label onto `(link key, side)`: the label minus its
/// `.tx`/`.rx` suffix is the link key; the bare `"tx"`/`"rx"` pair
/// (point-to-point scenarios) shares the empty key. Labels without a
/// side suffix (`"channel"`, `"collector"`, ...) belong to no link.
fn split_node(node: &'static str) -> Option<(&'static str, Side)> {
    match node {
        "tx" => Some(("", Side::Tx)),
        "rx" => Some(("", Side::Rx)),
        _ => {
            if let Some(p) = node.strip_suffix(".tx") {
                Some((p, Side::Tx))
            } else {
                node.strip_suffix(".rx").map(|p| (p, Side::Rx))
            }
        }
    }
}

/// One link's monitor state over the current run.
struct Link {
    key: &'static str,
    state: LinkState,
}

/// Identity of a `&'static str` label: its address and length. Static
/// text is never freed, so equal identities mean equal text; equal text
/// at two addresses (a literal and a label parsed from a trace file)
/// gives two identities that resolve to the same link.
type LabelId = (usize, usize);

fn label_id(label: &'static str) -> LabelId {
    (label.as_ptr() as usize, label.len())
}

/// The allowance added to a sender's audited timing bounds, in
/// nanoseconds. Wall-clock streams carry timer-fire and socket jitter
/// virtual time never has; widening every bound keeps the invariants
/// checking protocol logic, not OS scheduling. Sim streams keep the
/// exact bounds.
fn wall_slack_ns(cfg: &MonitorConfig, clock_domain: Option<&str>) -> u64 {
    if clock_domain == Some("wall") {
        cfg.wall_slack.as_nanos()
    } else {
        0
    }
}

/// Monitor knobs.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Width of the fixed-interval metric windows.
    pub window: Duration,
    /// Retain completed [`FrameLifecycle`] records (memory-heavy; the
    /// `trace-tools lifecycle` command turns this on).
    pub keep_lifecycles: bool,
    /// Maximum findings kept verbatim; the rest are counted.
    pub findings_cap: usize,
    /// Extra allowance added to every audited timing bound when the
    /// stream declares a wall clock domain (`trace_header`): real hosts
    /// observe timer-fire and scheduling jitter that virtual time never
    /// has, so strict sim-calibrated deadlines would flag OS latency as
    /// protocol violations. Sim streams are unaffected.
    pub wall_slack: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window: Duration::from_millis(100),
            keep_lifecycles: false,
            findings_cap: 256,
            wall_slack: Duration::from_millis(50),
        }
    }
}

/// Per-experiment metric summary built from audited links.
pub struct ExperimentMetrics {
    /// Experiment id (`"e1"`, ...; `""` for runs outside the runner).
    pub id: &'static str,
    /// Simulation runs observed.
    pub runs: u64,
    /// Frame lifecycles completed (sender releases).
    pub frames: u64,
    /// Unique clean deliveries.
    pub delivered: u64,
    /// NAKs observed.
    pub naks: u64,
    /// Retransmissions observed.
    pub retransmissions: u64,
    /// Peak unresolved-frame count across runs (sender occupancy HWM).
    pub max_outstanding: u64,
    /// Audit findings attributed to this experiment's runs.
    pub findings: u64,
    /// Causal latency attribution: per-phase breakdown of delivery
    /// latency plus the resolution-bound cross-check.
    pub attribution: AttributionAgg,
    /// Delivery latencies (first send → clean arrival), nanoseconds,
    /// in run order; sorted only where a quantile is read.
    latencies: Vec<u64>,
}

impl ExperimentMetrics {
    fn new(id: &'static str) -> Self {
        ExperimentMetrics {
            id,
            runs: 0,
            frames: 0,
            delivered: 0,
            naks: 0,
            retransmissions: 0,
            max_outstanding: 0,
            findings: 0,
            attribution: AttributionAgg::default(),
            latencies: Vec::new(),
        }
    }

    fn sorted_latencies(&self) -> Vec<u64> {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Delivery-latency quantile in seconds ([`nearest_rank`] over the
    /// exact samples; `None` with no samples).
    pub fn delivery_quantile(&self, q: f64) -> Option<f64> {
        quantile_s(&self.sorted_latencies(), q)
    }

    /// Delivery-latency samples recorded.
    pub fn delivery_count(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// The report's `metrics` block for this experiment.
    pub fn to_json(&self) -> Json {
        let sorted = self.sorted_latencies();
        let q = |p: f64| quantile_s(&sorted, p).map(Json::Num).unwrap_or(Json::Null);
        Json::obj([
            ("runs", self.runs.into()),
            ("frames", self.frames.into()),
            ("delivered", self.delivered.into()),
            ("naks", self.naks.into()),
            ("retransmissions", self.retransmissions.into()),
            ("max_tx_outstanding", self.max_outstanding.into()),
            ("audit_findings", self.findings.into()),
            (
                "delivery_latency",
                Json::obj([
                    ("count", self.delivery_count().into()),
                    ("p50_s", q(0.5)),
                    ("p99_s", q(0.99)),
                ]),
            ),
        ])
    }
}

/// Everything a [`Monitor`] accumulated, drained at end of use.
pub struct MonitorReport {
    /// Kept findings in arrival order (capped; see `total_findings`).
    pub findings: Vec<AuditFinding>,
    /// All findings detected, including capped-out ones.
    pub total_findings: u64,
    /// Per-experiment summaries in first-seen order.
    pub experiments: Vec<ExperimentMetrics>,
    /// Windowed metric lines (JSONL-ready objects) in run order.
    pub window_lines: Vec<Json>,
    /// Completed lifecycles (only with `keep_lifecycles`).
    pub lifecycles: Vec<FrameLifecycle>,
    /// Monitor-side counters (`monitor.attribution.incomplete`, ...).
    pub counters: Registry,
    /// Trace records observed.
    pub records: u64,
}

impl MonitorReport {
    /// An empty report (for runs that observed nothing).
    pub fn empty() -> Self {
        MonitorReport {
            findings: Vec::new(),
            total_findings: 0,
            experiments: Vec::new(),
            window_lines: Vec::new(),
            lifecycles: Vec::new(),
            counters: Registry::new(),
            records: 0,
        }
    }

    /// Fold another report into this one (item-order merge).
    pub fn absorb(&mut self, mut other: MonitorReport) {
        self.findings.append(&mut other.findings);
        self.total_findings += other.total_findings;
        self.experiments.append(&mut other.experiments);
        self.window_lines.append(&mut other.window_lines);
        self.lifecycles.append(&mut other.lifecycles);
        self.counters.absorb(&other.counters);
        self.records += other.records;
    }

    /// The experiment summary for `id`, if any run carried it.
    pub fn experiment(&self, id: &str) -> Option<&ExperimentMetrics> {
        self.experiments.iter().find(|e| e.id == id)
    }
}

/// A view of one run's audited links — the current run mid-way, taken
/// without disturbing any audit or series state, or the run that
/// finished last. The data behind every `--stats` document of a
/// wall-clock host, so mid-run and closing documents share one rule.
pub struct LiveSnapshot {
    /// Findings so far (monitor lifetime, capped-out ones included).
    pub findings: u64,
    /// Trace records observed so far.
    pub records: u64,
    /// Frame lifecycles completed (sender releases) this run.
    pub frames: u64,
    /// Unique clean deliveries this run.
    pub delivered: u64,
    /// NAKs observed this run.
    pub naks: u64,
    /// Retransmissions observed this run.
    pub retransmissions: u64,
    /// Peak unresolved-frame count (sender occupancy HWM) this run.
    pub max_outstanding: u64,
    /// Windowed series lines accumulated so far (all links, key order).
    pub series: Vec<Json>,
    /// Delivery latencies recorded so far, nanoseconds, sorted
    /// ascending.
    latencies: Vec<u64>,
}

impl LiveSnapshot {
    fn new(monitor: &Monitor, mut run: LinkTally, series: Vec<Json>) -> Self {
        run.latencies.sort_unstable();
        LiveSnapshot {
            findings: monitor.findings.total(),
            records: monitor.seen,
            frames: run.frames,
            delivered: run.delivered,
            naks: run.naks,
            retransmissions: run.retransmissions,
            max_outstanding: run.max_outstanding,
            series,
            latencies: run.latencies,
        }
    }

    /// Delivery-latency samples in the snapshot.
    pub fn delivery_count(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Delivery-latency quantile in seconds ([`nearest_rank`] over the
    /// samples so far; `None` with no samples).
    pub fn delivery_quantile(&self, q: f64) -> Option<f64> {
        quantile_s(&self.latencies, q)
    }
}

/// The nearest-rank `q`-quantile of ascending nanosecond samples, in
/// seconds.
fn quantile_s(sorted_ns: &[u64], q: f64) -> Option<f64> {
    nearest_rank(sorted_ns, q).map(|ns| Duration::from_nanos(ns).as_secs_f64())
}

/// The live auditor/metrics engine. Implements [`TraceSink`]; feed it
/// records through the global sink, a fanout, or [`Monitor::observe`].
pub struct Monitor {
    cfg: MonitorConfig,
    seen: u64,
    findings: Findings,
    run_base: u64,
    experiments: Vec<ExperimentMetrics>,
    cur_exp: usize,
    experiment_id: &'static str,
    run_ordinal: u64,
    /// The current run's links in first-seen order.
    links: Vec<Link>,
    /// Node labels seen this run, each resolved once to its link slot
    /// and side (`None`: the label names no link).
    labels: Vec<(LabelId, Option<(usize, Side)>)>,
    /// Resequencer holds observed during the current run (collector
    /// records; the collector node belongs to no link).
    run_reseq: PhaseAgg,
    /// Latest instant of a link record this run; a link record stamped
    /// earlier counts as [`RECORDS_REWOUND`].
    run_clock: Instant,
    counters: Registry,
    window_lines: Vec<Json>,
    lifecycles: Vec<FrameLifecycle>,
    /// The last finished run's tallies, summed over its audited links,
    /// and where its lines start in `window_lines`.
    last_run: (LinkTally, usize),
    /// Clock domain announced by the stream's `trace_header`, if any.
    clock_domain: Option<&'static str>,
    /// Self-profiling handle, resolved at construction (create the
    /// monitor after `profile::install` to attribute audit time).
    prof: profile::Prof,
}

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor {
            cfg,
            seen: 0,
            findings: Findings::with_cap(cfg.findings_cap),
            run_base: 0,
            experiments: Vec::new(),
            cur_exp: 0,
            experiment_id: "",
            run_ordinal: 0,
            links: Vec::new(),
            labels: Vec::new(),
            run_reseq: PhaseAgg::default(),
            run_clock: Instant::ZERO,
            counters: Registry::new(),
            window_lines: Vec::new(),
            lifecycles: Vec::new(),
            last_run: (LinkTally::default(), 0),
            clock_domain: None,
            prof: profile::current(),
        }
    }

    /// Clock domain announced by the stream's `trace_header` record:
    /// `"sim"` or `"wall"`. `None` for streams without one (simulator
    /// traces predating the header, which are implicitly `"sim"`).
    pub fn clock_domain(&self) -> Option<&'static str> {
        self.clock_domain
    }

    /// Findings detected so far (including capped-out ones).
    pub fn total_findings(&self) -> u64 {
        self.findings.total()
    }

    /// The kept findings so far.
    pub fn findings(&self) -> &[AuditFinding] {
        self.findings.list()
    }

    /// Records observed so far.
    pub fn records(&self) -> u64 {
        self.seen
    }

    fn experiment_slot(&mut self, id: &'static str) -> usize {
        match self.experiments.iter().position(|e| e.id == id) {
            Some(i) => i,
            None => {
                self.experiments.push(ExperimentMetrics::new(id));
                self.experiments.len() - 1
            }
        }
    }

    fn begin_run(&mut self) {
        self.cur_exp = self.experiment_slot(self.experiment_id);
        self.links.clear();
        self.labels.clear();
        self.run_reseq = PhaseAgg::default();
        self.run_clock = Instant::ZERO;
        self.run_base = self.findings.total();
    }

    /// Link slots in key order: the order every per-run fold and
    /// snapshot walks them in.
    fn key_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_unstable_by_key(|&i| self.links[i].key);
        order
    }

    fn finish_run(&mut self, t: Instant, deadline_hit: bool) {
        let _span = self.prof.span("monitor.rebuild");
        self.cur_exp = self.experiment_slot(self.experiment_id);
        let order = self.key_order();
        let exp = &mut self.experiments[self.cur_exp];
        let (mut run, lines_from) = (LinkTally::default(), self.window_lines.len());
        for i in order {
            let Link { key, state } = &mut self.links[i];
            state.on_run_finished(t, deadline_hit, &mut self.findings);
            if !state.armed() {
                continue;
            }
            run.add(&state.tally);
            self.window_lines
                .extend(state.series.drain_lines(exp.id, self.run_ordinal, key));
            self.lifecycles.append(&mut state.lifecycles);
            if state.agg.incomplete > 0 {
                self.counters.add(
                    "monitor.attribution.incomplete",
                    state.agg.incomplete as f64,
                );
            }
            exp.attribution.absorb(&state.agg);
        }
        exp.frames += run.frames;
        exp.delivered += run.delivered;
        exp.naks += run.naks;
        exp.retransmissions += run.retransmissions;
        exp.max_outstanding = exp.max_outstanding.max(run.max_outstanding);
        exp.latencies.extend_from_slice(&run.latencies);
        exp.attribution.reseq.absorb(&self.run_reseq);
        self.run_reseq = PhaseAgg::default();
        exp.runs += 1;
        exp.findings += self.findings.total() - self.run_base;
        self.run_base = self.findings.total();
        self.last_run = (run, lines_from);
        self.links.clear();
        self.labels.clear();
        self.run_ordinal += 1;
    }

    /// The link slot and side `node` names, resolved by text the first
    /// time this run sees the label and by identity after that.
    fn resolve(&mut self, node: &'static str) -> Option<(usize, Side)> {
        let id = label_id(node);
        if let Some(&(_, hit)) = self.labels.iter().find(|(l, _)| *l == id) {
            return hit;
        }
        let hit = split_node(node).map(|(key, side)| {
            let slot = match self.links.iter().position(|l| l.key == key) {
                Some(slot) => slot,
                None => {
                    let (window, keep) = (self.cfg.window, self.cfg.keep_lifecycles);
                    let exp_id = self.experiment_id;
                    self.links.push(Link {
                        key,
                        state: LinkState::new(key, exp_id, window, keep),
                    });
                    self.links.len() - 1
                }
            };
            (slot, side)
        });
        self.labels.push((id, hit));
        hit
    }

    /// Process one stored trace record: the offline-replay form of
    /// [`ProtoTrace::record`], which live streams call directly.
    pub fn observe(&mut self, rec: &TraceRecord) {
        self.process(rec.t, rec.node, &rec.event);
    }

    /// Process one record, whichever way it arrived. The event is
    /// borrowed: neither entry point copies it again.
    fn process(&mut self, t: Instant, node: &'static str, event: &TraceEvent) {
        self.seen += 1;
        match *event {
            TraceEvent::ExperimentStarted { id } => {
                self.experiment_id = id;
                self.cur_exp = self.experiment_slot(id);
                // Run ordinals restart per experiment, so an offline
                // replay of a whole-suite trace numbers runs exactly
                // like the per-experiment live monitors did.
                self.run_ordinal = 0;
                self.labels.clear();
            }
            TraceEvent::TraceHeader { clock_domain } => {
                self.clock_domain = Some(clock_domain);
            }
            TraceEvent::RunStarted => self.begin_run(),
            TraceEvent::RunFinished { deadline_hit } => self.finish_run(t, deadline_hit),
            // Resequencer holds come from the collector node, which
            // belongs to no link; they aggregate at experiment level.
            TraceEvent::ReseqHold { held_ns, .. } => self.run_reseq.add(held_ns),
            _ => {
                let Some((slot, side)) = self.resolve(node) else {
                    return;
                };
                if t < self.run_clock {
                    self.counters.inc(RECORDS_REWOUND);
                } else {
                    self.run_clock = t;
                }
                let _span = self.prof.span("monitor.observe");
                // One dispatch, one call: each handler audits the
                // invariants first and attributes latency second.
                let state = &mut self.links[slot].state;
                let out = &mut self.findings;
                match (side, event) {
                    (
                        Side::Tx,
                        &TraceEvent::SenderConfig {
                            w_cp_ns,
                            c_depth,
                            rtt_ns,
                            cp_timeout_ns,
                            resolving_ns,
                            failure_ns,
                        },
                    ) => {
                        let timing = LinkTiming::announced(
                            w_cp_ns,
                            c_depth,
                            rtt_ns,
                            cp_timeout_ns,
                            resolving_ns,
                            failure_ns,
                            wall_slack_ns(&self.cfg, self.clock_domain),
                        );
                        state.on_sender_config(t, node, timing);
                    }
                    (Side::Tx, &TraceEvent::IFrameTx { seq, retx, .. }) => {
                        state.on_tx(t, node, seq, retx, out)
                    }
                    (Side::Tx, &TraceEvent::CheckpointReceived { index, covered, .. }) => {
                        state.on_cp_rx(t, node, index, covered, out)
                    }
                    (Side::Tx, &TraceEvent::Renumbered { old_seq, new_seq }) => {
                        state.on_renumbered(t, node, old_seq, new_seq, out)
                    }
                    (
                        Side::Tx,
                        &TraceEvent::RetxCause {
                            seq,
                            cause,
                            cp_index,
                        },
                    ) => state.on_retx_cause(t, seq, cause, cp_index, out),
                    (Side::Tx, &TraceEvent::EnforcedRecoveryStarted { .. }) => {
                        state.on_enforced_start(t)
                    }
                    (Side::Tx, &TraceEvent::EnforcedRecoveryResolved) => state.on_enforced_end(t),
                    (Side::Tx, &TraceEvent::StopGo { stop }) => state.on_stop_go(t, stop),
                    (Side::Tx, &TraceEvent::BufferRelease { seq, .. }) => {
                        state.on_release(t, node, seq, out)
                    }
                    (Side::Tx, &TraceEvent::LinkFailed) => state.on_link_failed(),
                    (Side::Rx, &TraceEvent::IFrameRx { seq, clean, .. }) => {
                        state.on_rx(t, seq, clean, out)
                    }
                    (Side::Rx, &TraceEvent::CheckpointEmitted { index, .. }) => {
                        state.on_cp_emit(t, node, index, out)
                    }
                    (Side::Rx, &TraceEvent::Nak { seq, cp_index }) => {
                        state.on_nak(t, seq, cp_index)
                    }
                    _ => {}
                }
            }
        }
    }

    /// Parse one JSONL trace line and process it.
    pub fn observe_line(&mut self, line: &str) -> Result<(), String> {
        let rec = telemetry::parse_line(line)?;
        self.observe(&rec);
        Ok(())
    }

    /// A point-in-time view of the current (unfinished) run: link
    /// tallies, windowed series so far, and delivery latencies, summed
    /// over audited links in key order. Reading is non-destructive —
    /// the run keeps accumulating and `finish_run` folds as usual.
    pub fn live_snapshot(&self) -> LiveSnapshot {
        let (mut run, mut series) = (LinkTally::default(), Vec::new());
        for i in self.key_order() {
            let Link { key, state } = &self.links[i];
            if state.armed() {
                run.add(&state.tally);
                series.extend(
                    state
                        .series
                        .peek_lines(self.experiment_id, self.run_ordinal, key),
                );
            }
        }
        LiveSnapshot::new(self, run, series)
    }

    /// The same view of the run that finished last, end-of-run findings
    /// included: what a host's closing `--stats` document reports. Read
    /// it before [`Monitor::take_report`], which resets the monitor.
    pub fn last_run_snapshot(&self) -> LiveSnapshot {
        let (run, lines_from) = &self.last_run;
        let series = self.window_lines.get(*lines_from..).unwrap_or_default();
        LiveSnapshot::new(self, run.clone(), series.to_vec())
    }

    /// Drain everything accumulated into a report, resetting the
    /// monitor.
    pub fn take_report(&mut self) -> MonitorReport {
        let total_findings = self.findings.total();
        self.run_base = 0;
        self.last_run = (LinkTally::default(), 0);
        MonitorReport {
            findings: self.findings.take(),
            total_findings,
            experiments: std::mem::take(&mut self.experiments),
            window_lines: std::mem::take(&mut self.window_lines),
            lifecycles: std::mem::take(&mut self.lifecycles),
            counters: std::mem::replace(&mut self.counters, Registry::new()),
            records: std::mem::replace(&mut self.seen, 0),
        }
    }
}

impl ProtoTrace for Monitor {
    /// The per-record entry point of live [`telemetry::sink_trace`]
    /// handles and of [`TraceSink::record_all`] replays.
    fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent) {
        self.process(t, node, &event);
    }
}

impl TraceSink for Monitor {
    fn len(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto_core::WINDOW_CAP;

    const MS: u64 = 1_000_000;

    fn rec(t_ns: u64, node: &'static str, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t: Instant::from_nanos(t_ns),
            node,
            event,
        }
    }

    fn sender_config() -> TraceEvent {
        TraceEvent::SenderConfig {
            w_cp_ns: 5 * MS,
            c_depth: 3,
            rtt_ns: 27 * MS,
            cp_timeout_ns: 16 * MS,
            resolving_ns: 60 * MS,
            failure_ns: 60 * MS,
        }
    }

    /// A minimal clean run: one frame sent, delivered, covered by a
    /// checkpoint, released at the checkpoint instant.
    fn clean_run() -> Vec<TraceRecord> {
        vec![
            rec(0, "sim", TraceEvent::RunStarted),
            rec(0, "tx", sender_config()),
            rec(
                MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 1,
                    retx: false,
                    len: 1024,
                },
            ),
            rec(
                15 * MS,
                "rx",
                TraceEvent::IFrameRx {
                    seq: 1,
                    clean: true,
                    len: 1024,
                },
            ),
            rec(
                16 * MS,
                "rx",
                TraceEvent::CheckpointEmitted {
                    index: 1,
                    covered: 1,
                    naks: 0,
                    enforced: false,
                    stop: false,
                },
            ),
            rec(
                30 * MS,
                "tx",
                TraceEvent::CheckpointReceived {
                    index: 1,
                    covered: 1,
                    naks: 0,
                },
            ),
            rec(
                30 * MS,
                "tx",
                TraceEvent::BufferRelease {
                    seq: 1,
                    held_ns: 29 * MS,
                    cp_index: 1,
                },
            ),
            rec(
                31 * MS,
                "sim",
                TraceEvent::RunFinished {
                    deadline_hit: false,
                },
            ),
        ]
    }

    fn feed(records: &[TraceRecord]) -> Monitor {
        let mut m = Monitor::new(MonitorConfig::default());
        for r in records {
            m.observe(r);
        }
        m
    }

    #[test]
    fn clean_run_produces_no_findings_and_full_metrics() {
        let mut m = feed(&clean_run());
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
        let report = m.take_report();
        let exp = &report.experiments[0];
        assert_eq!(exp.id, "");
        assert_eq!(exp.runs, 1);
        assert_eq!(exp.frames, 1);
        assert_eq!(exp.delivered, 1);
        assert_eq!(exp.delivery_count(), 1);
        // The one 14 ms sample is every quantile, exactly.
        assert_eq!(exp.delivery_quantile(0.5), Some(0.014));
        assert!(!report.window_lines.is_empty());
    }

    /// One clean run of five frames whose delivery latencies are
    /// 10.1, 12.8, 10.2, 13.9 and 10.4 ms, all covered by one
    /// checkpoint and released at its arrival.
    fn five_latency_run() -> Vec<TraceRecord> {
        const LATENCY_US: [u64; 5] = [10_100, 12_800, 10_200, 13_900, 10_400];
        let mut records = vec![
            rec(0, "sim", TraceEvent::RunStarted),
            rec(0, "tx", sender_config()),
        ];
        for (seq, us) in (1..).zip(LATENCY_US) {
            let len = 1024;
            let sent = seq * MS;
            let (retx, clean) = (false, true);
            records.push(rec(sent, "tx", TraceEvent::IFrameTx { seq, retx, len }));
            let arrived = sent + us * 1_000;
            records.push(rec(arrived, "rx", TraceEvent::IFrameRx { seq, clean, len }));
        }
        records.sort_by_key(|r| r.t);
        let (index, covered, naks) = (1, 5, 0);
        let (enforced, stop) = (false, false);
        records.push(rec(
            18 * MS,
            "rx",
            TraceEvent::CheckpointEmitted {
                index,
                covered,
                naks,
                enforced,
                stop,
            },
        ));
        let at = 32 * MS;
        records.push(rec(
            at,
            "tx",
            TraceEvent::CheckpointReceived {
                index,
                covered,
                naks,
            },
        ));
        for seq in 1..=5 {
            let held_ns = at - seq * MS;
            let cp_index = index;
            records.push(rec(
                at,
                "tx",
                TraceEvent::BufferRelease {
                    seq,
                    held_ns,
                    cp_index,
                },
            ));
        }
        let deadline_hit = false;
        records.push(rec(
            at + MS,
            "sim",
            TraceEvent::RunFinished { deadline_hit },
        ));
        records
    }

    /// The experiment summary and the closing host document read a
    /// one-run experiment's quantiles by the same nearest-rank rule:
    /// each is one of the exact samples.
    #[test]
    fn experiment_and_live_quantiles_share_one_rule() {
        let m = feed(&five_latency_run());
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
        let last = m.last_run_snapshot();
        let exp = &m.experiments[0];
        assert_eq!((exp.runs, exp.delivery_count()), (1, 5));
        for (q, want_us) in [(0.5, 10_400), (0.99, 13_900)] {
            let want = Some(Duration::from_micros(want_us).as_secs_f64());
            assert_eq!(exp.delivery_quantile(q), want, "q={q}");
            assert_eq!(last.delivery_quantile(q), want, "q={q}");
        }
    }

    /// A live stream reaches the monitor through `sink_trace` handles
    /// (the sink upcast to `ProtoTrace`, no adapter between); it must
    /// audit exactly as a replay of the same records does.
    #[test]
    fn live_emission_matches_replay() {
        let records: Vec<TraceRecord> = clean_run()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::BufferRelease { .. }))
            .collect();
        let replayed = feed(&records).take_report();
        let live = std::rc::Rc::new(std::cell::RefCell::new(Monitor::new(
            MonitorConfig::default(),
        )));
        for r in &records {
            telemetry::sink_trace(live.clone(), r.node).emit(r.t, || r.event);
        }
        let live = live.borrow_mut().take_report();
        assert_eq!(live.records, records.len() as u64);
        assert_eq!(live.total_findings, 1);
        assert_eq!(live.total_findings, replayed.total_findings);
        assert_eq!(
            format!("{:?}", live.findings),
            format!("{:?}", replayed.findings)
        );
        let lines = |r: &MonitorReport| -> Vec<String> {
            r.window_lines.iter().map(Json::render).collect()
        };
        assert_eq!(lines(&live), lines(&replayed));
    }

    #[test]
    fn suppressed_release_is_detected_as_unresolved() {
        // Fault injection: drop the buffer_release record — the run now
        // ends with the frame still buffered, violating no-loss.
        let records: Vec<TraceRecord> = clean_run()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::BufferRelease { .. }))
            .collect();
        let m = feed(&records);
        assert_eq!(m.total_findings(), 1);
        assert_eq!(m.findings()[0].invariant, Invariant::NoLoss);
        assert!(m.findings()[0].detail.contains("never resolved"));
    }

    #[test]
    fn release_without_delivery_is_a_no_loss_violation() {
        let records: Vec<TraceRecord> = clean_run()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::IFrameRx { .. }))
            .collect();
        let m = feed(&records);
        assert!(m
            .findings()
            .iter()
            .any(|f| f.invariant == Invariant::NoLoss && f.detail.contains("without a clean")));
    }

    #[test]
    fn release_off_the_checkpoint_instant_violates_release_on_ack() {
        let records: Vec<TraceRecord> = clean_run()
            .into_iter()
            .map(|mut r| {
                if matches!(r.event, TraceEvent::BufferRelease { .. }) {
                    r.t = Instant::from_nanos(30 * MS + 1);
                }
                r
            })
            .collect();
        let m = feed(&records);
        assert!(m
            .findings()
            .iter()
            .any(|f| f.invariant == Invariant::ReleaseOnAck));
    }

    #[test]
    fn non_monotone_wire_seq_is_flagged() {
        let mut records = clean_run();
        records.insert(
            3,
            rec(
                2 * MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 1,
                    retx: false,
                    len: 1024,
                },
            ),
        );
        let m = feed(&records);
        assert!(m
            .findings()
            .iter()
            .any(|f| f.invariant == Invariant::MonotoneSeq));
    }

    #[test]
    fn checkpoint_emission_gap_beyond_w_cp_is_flagged() {
        let mut records = clean_run();
        // A second periodic checkpoint 12 ms after the first (> W_cp).
        records.insert(
            6,
            rec(
                28 * MS,
                "rx",
                TraceEvent::CheckpointEmitted {
                    index: 2,
                    covered: 1,
                    naks: 0,
                    enforced: false,
                    stop: false,
                },
            ),
        );
        let m = feed(&records);
        assert!(m
            .findings()
            .iter()
            .any(|f| f.invariant == Invariant::CheckpointCadence
                && f.window == (Instant::from_nanos(16 * MS), Instant::from_nanos(28 * MS))));
    }

    #[test]
    fn wall_clock_streams_get_cadence_slack() {
        // Same 12 ms emission gap as the strict sim-domain test above,
        // but the stream declares a wall clock — the gap is within the
        // default jitter allowance, so no finding.
        let mut records = clean_run();
        records.insert(
            0,
            rec(
                0,
                "host",
                TraceEvent::TraceHeader {
                    clock_domain: "wall",
                },
            ),
        );
        records.insert(
            7,
            rec(
                28 * MS,
                "rx",
                TraceEvent::CheckpointEmitted {
                    index: 2,
                    covered: 1,
                    naks: 0,
                    enforced: false,
                    stop: false,
                },
            ),
        );
        let m = feed(&records);
        assert!(
            m.findings().is_empty(),
            "wall-domain jitter must not be flagged: {:?}",
            m.findings()
        );
    }

    /// Resolution-bound findings for one NAK cycle 10 ms longer than
    /// the fixture's 44.5 ms analytic resolving period, on a stream of
    /// the given clock domain: the checkpoint carrying the NAK reaches
    /// the sender late.
    fn late_nak_cycle_findings(clock_domain: &'static str) -> usize {
        let nak_at = 15 * MS;
        let learned_at = nak_at + 44_500_000 + 10 * MS;
        let records = [
            rec(0, "host", TraceEvent::TraceHeader { clock_domain }),
            rec(0, "sim", TraceEvent::RunStarted),
            rec(0, "tx", sender_config()),
            rec(
                MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 1,
                    retx: false,
                    len: 1024,
                },
            ),
            rec(
                nak_at,
                "rx",
                TraceEvent::Nak {
                    seq: 1,
                    cp_index: 1,
                },
            ),
            rec(
                16 * MS,
                "rx",
                TraceEvent::CheckpointEmitted {
                    index: 1,
                    covered: 1,
                    naks: 1,
                    enforced: false,
                    stop: false,
                },
            ),
            rec(
                learned_at,
                "tx",
                TraceEvent::CheckpointReceived {
                    index: 1,
                    covered: 1,
                    naks: 1,
                },
            ),
            rec(
                learned_at,
                "tx",
                TraceEvent::Renumbered {
                    old_seq: 1,
                    new_seq: 2,
                },
            ),
            rec(
                learned_at,
                "tx",
                TraceEvent::RetxCause {
                    seq: 2,
                    cause: "nak",
                    cp_index: 1,
                },
            ),
        ];
        feed(&records)
            .findings()
            .iter()
            .filter(|f| f.invariant == Invariant::ResolutionBound)
            .count()
    }

    #[test]
    fn wall_clock_streams_get_resolution_slack() {
        assert_eq!(late_nak_cycle_findings("sim"), 1);
        assert_eq!(
            late_nak_cycle_findings("wall"),
            0,
            "a stall within wall_slack is scheduling, not protocol"
        );
    }

    #[test]
    fn retransmission_without_renumbering_is_flagged() {
        let mut records = clean_run();
        records.insert(
            3,
            rec(
                2 * MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 2,
                    retx: true,
                    len: 1024,
                },
            ),
        );
        let m = feed(&records);
        assert!(m
            .findings()
            .iter()
            .any(|f| f.invariant == Invariant::MonotoneSeq && f.detail.contains("renumbering")));
    }

    #[test]
    fn renumbered_chain_keeps_its_lifecycle() {
        let cfg = MonitorConfig {
            keep_lifecycles: true,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(cfg);
        // Wider cadence than the default fixture: checkpoints land at
        // 16 ms and 46 ms, so W_cp must cover the 30 ms gap.
        let records = vec![
            rec(0, "sim", TraceEvent::RunStarted),
            rec(
                0,
                "tx",
                TraceEvent::SenderConfig {
                    w_cp_ns: 30 * MS,
                    c_depth: 3,
                    rtt_ns: 27 * MS,
                    cp_timeout_ns: 40 * MS,
                    resolving_ns: 120 * MS,
                    failure_ns: 120 * MS,
                },
            ),
            rec(
                MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 1,
                    retx: false,
                    len: 1024,
                },
            ),
            // Corrupted arrival, NAK, renumber, clean retransmission.
            rec(
                15 * MS,
                "rx",
                TraceEvent::IFrameRx {
                    seq: 1,
                    clean: false,
                    len: 1024,
                },
            ),
            rec(
                15 * MS,
                "rx",
                TraceEvent::Nak {
                    seq: 1,
                    cp_index: 1,
                },
            ),
            rec(
                16 * MS,
                "rx",
                TraceEvent::CheckpointEmitted {
                    index: 1,
                    covered: 1,
                    naks: 1,
                    enforced: false,
                    stop: false,
                },
            ),
            rec(
                30 * MS,
                "tx",
                TraceEvent::CheckpointReceived {
                    index: 1,
                    covered: 1,
                    naks: 1,
                },
            ),
            rec(
                30 * MS,
                "tx",
                TraceEvent::Renumbered {
                    old_seq: 1,
                    new_seq: 2,
                },
            ),
            rec(
                30 * MS,
                "tx",
                TraceEvent::RetxCause {
                    seq: 2,
                    cause: "nak",
                    cp_index: 1,
                },
            ),
            rec(
                30 * MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 2,
                    retx: true,
                    len: 1024,
                },
            ),
            rec(
                44 * MS,
                "rx",
                TraceEvent::IFrameRx {
                    seq: 2,
                    clean: true,
                    len: 1024,
                },
            ),
            rec(
                46 * MS,
                "rx",
                TraceEvent::CheckpointEmitted {
                    index: 2,
                    covered: 2,
                    naks: 0,
                    enforced: false,
                    stop: false,
                },
            ),
            rec(
                60 * MS,
                "tx",
                TraceEvent::CheckpointReceived {
                    index: 2,
                    covered: 2,
                    naks: 0,
                },
            ),
            rec(
                60 * MS,
                "tx",
                TraceEvent::BufferRelease {
                    seq: 2,
                    held_ns: 30 * MS,
                    cp_index: 2,
                },
            ),
            rec(
                61 * MS,
                "sim",
                TraceEvent::RunFinished {
                    deadline_hit: false,
                },
            ),
        ];
        for r in &records {
            m.observe(r);
        }
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
        let report = m.take_report();
        assert_eq!(report.lifecycles.len(), 1);
        let lc = &report.lifecycles[0];
        assert_eq!((lc.first_seq, lc.final_seq), (1, 2));
        assert_eq!((lc.naks, lc.retransmits), (1, 1));
        // Latency measured from the FIRST transmission of the chain.
        assert!((lc.delivery_latency_s().unwrap() - 0.043).abs() < 1e-9);
        assert_eq!(report.experiments[0].retransmissions, 1);
        // The attribution layer splits the same 43 ms into phases that
        // partition it exactly.
        let a = &report.experiments[0].attribution;
        assert_eq!((a.sdus, a.clean, a.errored), (1, 0, 1));
        let p = |ph: Phase| a.phases[ph as usize].total_ns;
        assert_eq!(p(Phase::FirstFlight), 14 * MS);
        assert_eq!(p(Phase::NakWait), MS);
        assert_eq!(p(Phase::ControlFlight), 14 * MS);
        assert_eq!(p(Phase::RetxFlight), 14 * MS);
        assert_eq!(a.latency_total_ns, 43 * MS);
        let total: u64 = a.phases.iter().map(|ph| ph.total_ns).sum();
        assert_eq!(total, a.latency_total_ns);
        assert_eq!((a.audit_failures, a.incomplete), (0, 0));
        // Resolution cycle: error recorded at 15 ms, retx decided at
        // 30 ms — 15 ms, far under R + W_cp/2 + C_depth·W_cp = 132 ms.
        assert_eq!((a.res_cycles, a.res_max_ns), (1, 15 * MS));
        assert_eq!(a.res_violations, 0);
        assert_eq!(a.res_bound_ns, 132 * MS);
    }

    #[test]
    fn clean_run_attribution_is_pure_first_flight() {
        let mut m = feed(&clean_run());
        let report = m.take_report();
        let a = &report.experiments[0].attribution;
        assert_eq!((a.sdus, a.clean, a.errored, a.incomplete), (1, 1, 0, 0));
        assert_eq!(a.latency_total_ns, 14 * MS);
        assert_eq!(a.phases[Phase::FirstFlight as usize].total_ns, 14 * MS);
        let rest: u64 = a.phases[1..].iter().map(|p| p.total_ns).sum();
        assert_eq!(rest, 0);
        assert!(a.res_bound_ns > 0, "bound derives from sender_config");
        assert_eq!(
            report.counters.get("monitor.attribution.incomplete"),
            None,
            "no partial chains in a clean run"
        );
    }

    #[test]
    fn truncated_run_counts_incomplete_attribution() {
        // Frame still in flight when the run hits its deadline: the
        // chain stays partial — counted under the incomplete counter,
        // never folded into the phase sums, and no finding is raised.
        let records: Vec<TraceRecord> = clean_run()
            .into_iter()
            .filter(|r| {
                !matches!(
                    r.event,
                    TraceEvent::IFrameRx { .. } | TraceEvent::BufferRelease { .. }
                )
            })
            .map(|mut r| {
                if let TraceEvent::RunFinished { deadline_hit } = &mut r.event {
                    *deadline_hit = true;
                }
                r
            })
            .collect();
        let mut m = feed(&records);
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
        let report = m.take_report();
        let a = &report.experiments[0].attribution;
        assert_eq!((a.sdus, a.incomplete), (0, 1));
        assert_eq!(a.latency_total_ns, 0);
        let total: u64 = a.phases.iter().map(|p| p.total_ns).sum();
        assert_eq!(total, 0, "partial chains must not fold into phase sums");
        assert_eq!(
            report.counters.get("monitor.attribution.incomplete"),
            Some(1.0)
        );
    }

    #[test]
    fn reseq_holds_aggregate_at_experiment_level() {
        let mut records = clean_run();
        let end = records.len() - 1;
        records.insert(
            end,
            rec(
                15 * MS,
                "collector",
                TraceEvent::ReseqHold {
                    id: 1,
                    held_ns: 3 * MS,
                },
            ),
        );
        let mut m = feed(&records);
        let report = m.take_report();
        let a = &report.experiments[0].attribution;
        assert_eq!(a.reseq.count, 1);
        assert_eq!(a.reseq.total_ns, 3 * MS);
        assert_eq!(a.reseq.max_ns, 3 * MS);
    }

    #[test]
    fn deadline_hit_suppresses_unresolved_findings() {
        let records: Vec<TraceRecord> = clean_run()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::BufferRelease { .. }))
            .map(|mut r| {
                if let TraceEvent::RunFinished { deadline_hit } = &mut r.event {
                    *deadline_hit = true;
                }
                r
            })
            .collect();
        let m = feed(&records);
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
    }

    #[test]
    fn experiment_markers_attribute_runs() {
        let mut records = vec![rec(0, "runner", TraceEvent::ExperimentStarted { id: "e8" })];
        records.extend(clean_run());
        let mut m = feed(&records);
        let report = m.take_report();
        assert_eq!(report.experiments.len(), 1);
        assert_eq!(report.experiments[0].id, "e8");
        assert_eq!(report.experiments[0].runs, 1);
        assert_eq!(
            report.window_lines[0]
                .get("experiment")
                .and_then(Json::as_str),
            Some("e8")
        );
        assert!(report.experiment("e8").is_some());
    }

    #[test]
    fn hdlc_links_without_sender_config_are_not_audited() {
        let records = [
            rec(0, "sim", TraceEvent::RunStarted),
            rec(
                MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 5,
                    retx: false,
                    len: 1024,
                },
            ),
            // Sequence reuse, no release, no checkpoints: all legal for
            // an HDLC baseline; the auditor must stay silent.
            rec(
                2 * MS,
                "tx",
                TraceEvent::IFrameTx {
                    seq: 5,
                    retx: true,
                    len: 1024,
                },
            ),
            rec(
                3 * MS,
                "rx",
                TraceEvent::IFrameRx {
                    seq: 5,
                    clean: true,
                    len: 1024,
                },
            ),
            rec(
                4 * MS,
                "sim",
                TraceEvent::RunFinished {
                    deadline_hit: false,
                },
            ),
        ];
        let (mid_run, end) = records.split_at(records.len() - 1);
        let mut m = feed(mid_run);
        assert_eq!(m.links.len(), 1);
        assert_eq!(
            m.links[0].state.open_frames(),
            0,
            "an unarmed link keeps no frame state"
        );
        m.observe(&end[0]);
        assert_eq!(m.total_findings(), 0);
    }

    #[test]
    fn duplex_and_relay_labels_pair_by_prefix() {
        assert_eq!(split_node("tx"), Some(("", Side::Tx)));
        assert_eq!(split_node("rx"), Some(("", Side::Rx)));
        assert_eq!(split_node("a2b.tx"), Some(("a2b", Side::Tx)));
        assert_eq!(split_node("a2b.rx"), Some(("a2b", Side::Rx)));
        assert_eq!(split_node("hop3.rx"), Some(("hop3", Side::Rx)));
        assert_eq!(split_node("channel"), None);
        assert_eq!(split_node("collector"), None);
    }

    #[test]
    fn live_snapshot_reads_mid_run_without_disturbing_audit() {
        let mut m = Monitor::new(MonitorConfig::default());
        let records = clean_run();
        // Feed everything except RunFinished: the run is still live.
        for r in &records[..records.len() - 1] {
            m.observe(r);
        }
        let snap = m.live_snapshot();
        assert_eq!(snap.delivered, 1);
        assert_eq!(snap.frames, 1);
        assert_eq!(snap.findings, 0);
        assert_eq!(snap.delivery_count(), 1);
        let p50 = snap.delivery_quantile(0.5).unwrap();
        assert!((p50 - 0.014).abs() < 1e-9, "{p50}");
        assert!(!snap.series.is_empty());
        // Snapshot is non-destructive: finishing the run still folds
        // the same tallies and series into the report.
        m.observe(&records[records.len() - 1]);
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
        // The finished run reads back the same way, by the same rule.
        let last = m.last_run_snapshot();
        assert_eq!((last.delivered, last.frames), (snap.delivered, snap.frames));
        assert_eq!(last.delivery_quantile(0.5), snap.delivery_quantile(0.5));
        assert_eq!(last.series, snap.series);
        assert_eq!(last.records, records.len() as u64);
        let report = m.take_report();
        assert_eq!(report.experiments[0].delivered, 1);
        assert!(!report.window_lines.is_empty());
    }

    #[test]
    fn trace_header_sets_clock_domain() {
        let mut m = Monitor::new(MonitorConfig::default());
        assert_eq!(m.clock_domain(), None);
        m.observe(&rec(
            0,
            "host",
            TraceEvent::TraceHeader {
                clock_domain: "wall",
            },
        ));
        assert_eq!(m.clock_domain(), Some("wall"));
        // The header is stream metadata: no links, no findings.
        for r in clean_run() {
            m.observe(&r);
        }
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
    }

    #[test]
    fn observe_line_round_trips_through_jsonl() {
        let mut m = Monitor::new(MonitorConfig::default());
        for r in clean_run() {
            let line = r.to_json().render();
            m.observe_line(&line).expect("valid line");
        }
        assert_eq!(m.total_findings(), 0, "{:?}", m.findings());
        assert!(m.observe_line("not json").is_err());
    }

    #[test]
    fn clean_arrivals_are_remembered_after_the_frame_resolves() {
        // A duplicate of seq 1 after its release is no new delivery; a
        // second release of it is an unknown frame but not a loss.
        let mut records = clean_run();
        let end = records.len() - 1;
        let dup = records[3].clone();
        let release = records[6].clone();
        records.splice(end..end, [dup, release]);
        let mut m = feed(&records);
        let kinds: Vec<Invariant> = m.findings().iter().map(|f| f.invariant).collect();
        assert_eq!(kinds, [Invariant::StreamIntegrity], "{:?}", m.findings());
        assert_eq!(m.take_report().experiments[0].delivered, 1);
    }

    #[test]
    fn clean_arrival_stays_with_its_wire_number_across_renumbering() {
        // Seq 1 arrives clean, is renumbered to 2 anyway, and 2 is
        // released without arriving: a loss, whatever 1 did.
        let mut records = clean_run();
        records.splice(
            4..4,
            [
                rec(
                    15 * MS,
                    "tx",
                    TraceEvent::Renumbered {
                        old_seq: 1,
                        new_seq: 2,
                    },
                ),
                rec(
                    15 * MS,
                    "tx",
                    TraceEvent::IFrameTx {
                        seq: 2,
                        retx: true,
                        len: 1024,
                    },
                ),
            ],
        );
        for r in &mut records {
            if let TraceEvent::BufferRelease { seq, .. } = &mut r.event {
                *seq = 2;
            }
        }
        let m = feed(&records);
        assert!(
            m.findings()
                .iter()
                .any(|f| f.invariant == Invariant::NoLoss && f.detail.contains("seq 2 released")),
            "{:?}",
            m.findings()
        );
    }

    /// `records` with the point-to-point labels swapped for `tx`/`rx`.
    fn relabel(records: &[TraceRecord], tx: &'static str, rx: &'static str) -> Vec<TraceRecord> {
        records
            .iter()
            .map(|r| TraceRecord {
                node: match r.node {
                    "tx" => tx,
                    "rx" => rx,
                    other => other,
                },
                ..r.clone()
            })
            .collect()
    }

    /// A one-experiment report's findings and series, rendered, with
    /// its attribution and frame count.
    fn outputs(m: &mut Monitor) -> (Vec<String>, Vec<String>, AttributionAgg, u64) {
        let findings = m.findings().iter().map(|f| f.to_string()).collect();
        let report = m.take_report();
        let lines = report.window_lines.iter().map(Json::render).collect();
        let exp = &report.experiments[0];
        (findings, lines, exp.attribution.clone(), exp.frames)
    }

    #[test]
    fn labels_resolve_to_one_link_per_key() {
        // Novel labels parsed from a trace file are leaked strings: the
        // same text as the literal, at a different address.
        let leaked_tx: &'static str = Box::leak(String::from("tx").into_boxed_str());
        assert!(!std::ptr::eq(leaked_tx.as_ptr(), "tx".as_ptr()));
        let body = |r: &[TraceRecord]| r[1..r.len() - 1].to_vec();
        let p2p = clean_run();
        // The relay hop loses its only clean arrival: one finding there.
        let hop: Vec<TraceRecord> = relabel(&clean_run(), "hop1.tx", "hop1.rx")
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::IFrameRx { .. }))
            .collect();
        // Interleave both links record by record, the point-to-point
        // sender alternating between its two `tx` labels.
        let mut mixed = vec![p2p[0].clone()];
        let (a, b) = (body(&p2p), body(&hop));
        for i in 0..a.len().max(b.len()) {
            if let Some(r) = a.get(i) {
                let mut r = r.clone();
                if r.node == "tx" && i % 2 == 1 {
                    r.node = leaked_tx;
                }
                mixed.push(r);
            }
            if let Some(r) = b.get(i) {
                mixed.push(r.clone());
            }
        }
        let mut m = Monitor::new(MonitorConfig::default());
        for r in &mixed {
            m.observe(r);
        }
        let keys: Vec<&str> = m.links.iter().map(|l| l.key).collect();
        assert_eq!(keys, ["", "hop1"], "one link per key");
        assert_eq!(m.labels.len(), 5, "tx, leaked tx, rx, hop1.tx, hop1.rx");
        m.observe(&p2p[p2p.len() - 1]);
        let (findings, lines, attribution, frames) = outputs(&mut m);

        // Each link fed alone gives the same per-link results.
        let (f_p2p, l_p2p, mut a_p2p, n_p2p) = outputs(&mut feed(&p2p));
        let (f_hop, l_hop, a_hop, n_hop) = outputs(&mut feed(&hop));
        assert!(f_p2p.is_empty());
        assert_eq!(f_hop.len(), 1);
        assert_eq!(findings, f_hop);
        assert_eq!(lines, [l_p2p, l_hop].concat(), "series in key order");
        assert_eq!(frames, n_p2p + n_hop);
        a_p2p.absorb(&a_hop);
        assert_eq!(attribution.to_json().render(), a_p2p.to_json().render());
    }

    #[test]
    fn label_cache_resets_at_run_and_experiment_boundaries() {
        let run = clean_run();
        let mut m = Monitor::new(MonitorConfig::default());
        let cached_after = |m: &mut Monitor, r: &TraceRecord| {
            m.observe(r);
            m.labels.len()
        };
        for r in &run[..run.len() - 1] {
            cached_after(&mut m, r);
        }
        assert_eq!(m.labels.len(), 2);
        assert_eq!(cached_after(&mut m, &run[run.len() - 1]), 0, "RunFinished");
        cached_after(&mut m, &run[1]);
        assert_eq!(m.labels.len(), 1);
        assert_eq!(cached_after(&mut m, &run[0]), 0, "RunStarted");
        cached_after(&mut m, &run[1]);
        let started = rec(0, "runner", TraceEvent::ExperimentStarted { id: "e2" });
        assert_eq!(cached_after(&mut m, &started), 0, "ExperimentStarted");
        // Re-resolving finds the link the run already has.
        cached_after(&mut m, &run[2]);
        assert_eq!(m.links.len(), 1);
    }

    /// Sequence numbers a corrupt or hostile trace can carry: both ends
    /// of `u64`, the ring's edge, and gaps of 2^32 and more.
    const HOSTILE_SEQS: [u64; 12] = [
        0,
        1,
        2,
        3,
        9,
        WINDOW_CAP as u64 - 1,
        WINDOW_CAP as u64,
        WINDOW_CAP as u64 + 1,
        1 << 32,
        (1 << 33) + 5,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Sequence number `i`: a hostile constant below 12; at 12, the
    /// next fresh number of a well-behaved sender; above it, a recent
    /// fresh number (arrivals, releases and renumbers of live frames).
    fn pick_seq(i: usize, fresh: &mut u64) -> u64 {
        match i {
            0..=11 => HOSTILE_SEQS[i],
            12 => {
                *fresh += 1;
                *fresh
            }
            _ => fresh.saturating_sub(i as u64 - 13),
        }
    }

    /// Kinds 0..=17 cover every event the monitor handles; 18..=31
    /// are fresh first transmissions (`fresh`), like a sender's steady
    /// traffic.
    fn arbitrary_event(kind: u8, a: u64, b: u64, fresh: &mut u64) -> TraceEvent {
        match kind {
            0 => sender_config(),
            1 | 2 => TraceEvent::IFrameTx {
                seq: a,
                retx: kind == 2,
                len: 1024,
            },
            3 | 4 => TraceEvent::IFrameRx {
                seq: a,
                clean: kind == 3,
                len: 1024,
            },
            5 => TraceEvent::Nak {
                seq: a,
                cp_index: b,
            },
            6 => TraceEvent::Renumbered {
                old_seq: a,
                new_seq: b,
            },
            7 => TraceEvent::RetxCause {
                seq: a,
                cause: ["nak", "resolve", "suspect"][(b % 3) as usize],
                cp_index: b,
            },
            8 => TraceEvent::BufferRelease {
                seq: a,
                held_ns: 0,
                cp_index: b,
            },
            9 => TraceEvent::CheckpointEmitted {
                index: a,
                covered: b,
                naks: 0,
                enforced: false,
                stop: false,
            },
            10 => TraceEvent::CheckpointReceived {
                index: a,
                covered: b,
                naks: 0,
            },
            11 => TraceEvent::EnforcedRecoveryStarted { outstanding: a },
            12 => TraceEvent::EnforcedRecoveryResolved,
            13 => TraceEvent::StopGo {
                stop: a.is_multiple_of(2),
            },
            14 => TraceEvent::LinkFailed,
            15 => TraceEvent::RunStarted,
            16 => TraceEvent::RunFinished {
                deadline_hit: a.is_multiple_of(2),
            },
            17 => TraceEvent::ExperimentStarted { id: "e1" },
            _ => {
                *fresh += 1;
                TraceEvent::IFrameTx {
                    seq: *fresh,
                    retx: false,
                    len: 1024,
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 128,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn arbitrary_streams_never_panic_and_keep_the_window_bounded(
            stream in proptest::collection::vec(
                (0u8..32, 0usize..5, 0usize..20, 0usize..20, 0u64..5_000_000),
                1..400,
            ),
        ) {
            const NODES: [&str; 5] = ["tx", "rx", "hop1.tx", "hop1.rx", "channel"];
            let mut m = Monitor::new(MonitorConfig::default());
            let (mut t, mut fresh) = (0u64, 100u64);
            for (kind, node, i, j, dt) in stream {
                t += dt;
                let a = pick_seq(i, &mut fresh);
                let b = pick_seq(j, &mut fresh);
                let event = arbitrary_event(kind, a, b, &mut fresh);
                m.observe(&rec(t, NODES[node], event));
                for link in &m.links {
                    proptest::prop_assert!(link.state.ring_span() <= WINDOW_CAP);
                }
            }
            let snap = m.live_snapshot();
            proptest::prop_assert_eq!(snap.records, m.records());
            m.observe(&rec(t, "sim", TraceEvent::RunFinished { deadline_hit: false }));
            let report = m.take_report();
            proptest::prop_assert!(report.total_findings >= report.findings.len() as u64);
        }
    }
}
