//! Conservative sharded execution: the coordinator half.
//!
//! [`run_sharded`] spawns one thread per shard and drives them in
//! supersteps (a one-shard run skips all of this: it is one window on
//! the caller's thread). Each round it grants every shard a window
//!
//! ```text
//! G_s = min(H_s, LB, deadline)      H_s = min over inbound cut links
//!                                         (C_sender + link delay)
//! ```
//!
//! where `C_sender` is the sending shard's committed time. `H_s` is the
//! classic conservative-DES safe horizon: every *future* transmission
//! from a neighbour arrives strictly after its committed time plus the
//! link's propagation delay (serialization adds more), so processing
//! events at or before `H_s` can never be invalidated by a frame still
//! to be routed. `LB` is a lower bound on the run's finish time — for a
//! locally-done shard its `done_since`, otherwise the earliest instant
//! its state can change (next queued event, safe horizon, or earliest
//! pending routed arrival), maximised over shards. Capping grants at
//! `LB` keeps every shard from processing past the instant the whole
//! simulation completes, so the set of processed events — and with it
//! every trace record, counter and collector statistic — is identical
//! at any shard count.
//!
//! Termination mirrors a one-shard run's exits: completion at
//! `T* = max(done_since)` once every shard has committed through `T*`
//! with nothing left to route; deadline when every shard has committed
//! to the deadline without completing; stall (queue exhaustion) at the
//! last processed instant; and sender-declared link failure at the
//! failure instant.
//!
//! Tracing: the coordinator emits `RunStarted`/`RunFinished` itself and
//! merges the per-shard buffered records by `(t, node label)` with a
//! stable sort. A one-shard run writes straight to the sink in emission
//! order, so traces agree across shard counts as record sets: stable-
//! sorted by `(t, node)` within each run, they are identical as long as
//! no two shards emit under the same label at the same instant.
//! Endpoint, collector and per-experiment labels are shard-owned by
//! construction; the shared `"channel"` label (outage drops) is the one
//! caveat, documented in DESIGN.md §11.

use crate::collect::Collect;
use crate::endpoint::{RxEndpoint, TxEndpoint};
use crate::shard::{CutPlan, FinishedShard, Inbound, ShardSim, WindowSummary};
use crate::topology::TopologyError;
use sim_core::{Duration, Instant, QueueProfile, RunTimer};
use std::collections::BTreeMap;
use std::sync::mpsc;
use telemetry::{BufferSink, SuperstepSpan, TraceEvent, TraceRecord};

/// Everything a sharded run hands back: per-shard user outputs (shard
/// order) plus the run-level facts the coordinator owns.
pub struct ShardedOutcome<O> {
    /// One output per shard, produced by the `finish` closure.
    pub outputs: Vec<O>,
    /// Instant the run completed (or the deadline / failure instant).
    pub finished_at: Instant,
    /// True if the deadline fired before completion.
    pub deadline_hit: bool,
    /// All shard queues' profiling snapshots, absorbed into one.
    pub queue: QueueProfile,
    /// Wall-clock seconds the whole sharded run took.
    pub wall_secs: f64,
    /// Superstep accounting aggregated over the run.
    pub shard: ShardProfile,
    /// Every granted window in deterministic grant order — `(round,
    /// shard)` ascending — with wall-clock placement, the timeline
    /// export's raw material.
    pub supersteps: Vec<SuperstepSpan>,
}

/// Aggregated superstep accounting for sharded runs, absorbable across
/// runs like [`QueueProfile`].
///
/// Every counter field is deterministic: byte-identical across repeated
/// runs, and — for [`ShardProfile::events`] — across shard counts too.
/// The per-shard wall vectors and [`ShardProfile::wall_secs`] are
/// determinism-exempt, mirroring the report's `perf`/`profile` blocks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardProfile {
    /// Shard count (max over absorbed runs).
    pub shards: u64,
    /// Coordinator rounds driven (each granting ≥ 1 window).
    pub supersteps: u64,
    /// Windows granted, summed over rounds and shards.
    pub windows: u64,
    /// Granted windows that processed zero events (pure lookahead
    /// stalls: the shard advanced its commit front but had no work).
    pub null_windows: u64,
    /// Events processed: pushes and arrivals only. Wakes are engine
    /// bookkeeping whose count varies with the window schedule, so
    /// excluding them keeps this total invariant across shard counts.
    pub events: u64,
    /// Cross-shard arrivals injected into granted windows.
    pub inbound: u64,
    /// Frames exported across outbound cut links.
    pub outbound: u64,
    /// Σ over windows of `G_s − C_s`: simulated nanoseconds actually
    /// granted past each shard's previous commit front.
    pub granted_ns: u64,
    /// Σ over windows (with a finite safe horizon) of `H_s − C_s`:
    /// simulated nanoseconds the lookahead made available. The gap to
    /// [`ShardProfile::granted_ns`] is grant ceded to the finish-time
    /// lower bound or the deadline.
    pub available_ns: u64,
    /// Critical-cut histogram: for each global cut-link id, how many
    /// windows had their grant bound by that inbound link's
    /// `C_sender + delay` horizon.
    pub critical_cuts: BTreeMap<u64, u64>,
    /// Busy wall-clock nanoseconds per shard (determinism-exempt).
    pub busy_ns: Vec<u64>,
    /// Wall-clock nanoseconds each shard spent blocked waiting for its
    /// next grant (determinism-exempt).
    pub blocked_ns: Vec<u64>,
    /// Wall-clock seconds of the coordinated run (determinism-exempt).
    pub wall_secs: f64,
}

impl ShardProfile {
    /// Parallel efficiency: `Σ busy / (shards × wall)`. Exactly `1.0`
    /// for single-shard runs (there is no coordination to lose time
    /// to — the single window is the whole run).
    pub fn efficiency(&self) -> f64 {
        if self.shards <= 1 {
            return 1.0;
        }
        let wall_ns = self.wall_secs * 1e9;
        if wall_ns <= 0.0 {
            return 1.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        busy as f64 / (self.shards as f64 * wall_ns)
    }

    /// Load-imbalance factor: `max busy / mean busy` over shards
    /// (`1.0` when degenerate — one shard, or no busy time recorded).
    pub fn imbalance(&self) -> f64 {
        let busy: u64 = self.busy_ns.iter().sum();
        if self.busy_ns.len() <= 1 || busy == 0 {
            return 1.0;
        }
        let max = *self.busy_ns.iter().max().expect("nonempty") as f64;
        let mean = busy as f64 / self.busy_ns.len() as f64;
        max / mean
    }

    /// Lookahead utilization: `granted_ns / available_ns` — how much of
    /// the safe horizon the coordinator actually granted. `1.0` when no
    /// horizon-bounded window was granted (single-shard runs).
    pub fn lookahead_utilization(&self) -> f64 {
        if self.available_ns == 0 {
            return 1.0;
        }
        self.granted_ns as f64 / self.available_ns as f64
    }

    /// Fold another run's accounting into this one: counters sum, the
    /// critical-cut histogram merges, per-shard wall vectors add
    /// element-wise (growing to the larger shard count), and `shards`
    /// takes the maximum.
    pub fn absorb(&mut self, other: &ShardProfile) {
        self.shards = self.shards.max(other.shards);
        self.supersteps += other.supersteps;
        self.windows += other.windows;
        self.null_windows += other.null_windows;
        self.events += other.events;
        self.inbound += other.inbound;
        self.outbound += other.outbound;
        self.granted_ns += other.granted_ns;
        self.available_ns += other.available_ns;
        for (&link, &count) in &other.critical_cuts {
            *self.critical_cuts.entry(link).or_insert(0) += count;
        }
        if self.busy_ns.len() < other.busy_ns.len() {
            self.busy_ns.resize(other.busy_ns.len(), 0);
        }
        for (mine, theirs) in self.busy_ns.iter_mut().zip(&other.busy_ns) {
            *mine += theirs;
        }
        if self.blocked_ns.len() < other.blocked_ns.len() {
            self.blocked_ns.resize(other.blocked_ns.len(), 0);
        }
        for (mine, theirs) in self.blocked_ns.iter_mut().zip(&other.blocked_ns) {
            *mine += theirs;
        }
        self.wall_secs += other.wall_secs;
    }
}

enum Cmd<F> {
    Window {
        grant: Instant,
        arrivals: Vec<Inbound<F>>,
    },
    Finish {
        finished_at: Instant,
        deadline_hit: bool,
    },
}

struct ShardDone<O> {
    out: O,
    queue: QueueProfile,
    records: Vec<TraceRecord>,
    /// Wall-clock ns this shard spent waiting for window grants.
    blocked_ns: u64,
    /// The shard thread's span-profiler report, when profiling.
    profile: Option<profile::Report>,
}

enum Up<F, O> {
    Built(usize, Option<TopologyError>),
    /// A window's summary plus its wall placement: start and busy time
    /// in nanoseconds since the run epoch (determinism-exempt).
    Window(usize, WindowSummary<F>, u64, u64),
    Done(usize, Box<ShardDone<O>>),
}

/// Per-thread configuration forwarded to shard threads.
#[derive(Clone, Copy)]
struct ThreadCfg {
    /// Buffer and forward trace records to the caller's global sink.
    forward_traces: bool,
    /// Install a span profiler on the shard thread and ship its report.
    profiled: bool,
    /// Shared wall-clock epoch for window placement.
    epoch: std::time::Instant,
    /// Run deadline (sampling ticks stop there).
    deadline: Instant,
}

/// Coordinator-side view of one shard between rounds.
struct ShardState<F> {
    committed: Instant,
    next_event: Option<Instant>,
    done_since: Option<Instant>,
    failed_at: Option<Instant>,
    last_event_at: Instant,
    /// Routed cut-link arrivals awaiting injection with the next grant.
    pending: Vec<Inbound<F>>,
}

/// Run one simulation split across `plan.n_shards` OS threads.
///
/// `build(s)` constructs shard `s`'s [`ShardSim`] *on its thread* (so
/// `Rc`-based trace handles resolve against the shard's buffered sink);
/// `finish(s, pieces)` turns the finished shard into a `Send`able
/// output on the same thread. Outputs come back in shard order.
///
/// With one shard there is nothing to coordinate: the shard is built
/// and run as one window to the deadline, stopping at completion, on
/// the caller's thread — no threads, channels or trace buffering — and
/// accounted as a single superstep. That degenerate case is the
/// reference the multi-shard runs are checked against.
pub fn run_sharded<T, R, C, O, Build, Fin>(
    plan: &CutPlan,
    deadline: Duration,
    build: Build,
    finish: Fin,
) -> Result<ShardedOutcome<O>, TopologyError>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
    T::Frame: Send,
    O: Send,
    Build: Fn(usize) -> Result<ShardSim<T, R, C>, TopologyError> + Sync,
    Fin: Fn(usize, FinishedShard<T, R, C>) -> O + Sync,
{
    let n = plan.n_shards.max(1);
    if n == 1 {
        return run_one_shard(deadline, build, finish);
    }
    let timer = RunTimer::start();
    let deadline = Instant::ZERO + deadline;
    let cfg = ThreadCfg {
        forward_traces: telemetry::global_sink().is_some(),
        profiled: profile::enabled(),
        epoch: std::time::Instant::now(),
        deadline,
    };

    // Per-shard inbound cut lists for the safe horizon (sender shard,
    // delay, global link id), and the link → destination routing table.
    let mut inbound_cuts: Vec<Vec<(usize, Duration, u64)>> = vec![Vec::new(); n];
    let mut route: Vec<(usize, usize)> = Vec::new(); // (global link, to_shard)
    for c in &plan.cuts {
        inbound_cuts[c.to_shard].push((c.from_shard, c.delay, c.link.0 as u64));
        route.push((c.link.0, c.to_shard));
    }
    route.sort_unstable();

    let (up_tx, up_rx) = mpsc::channel::<Up<T::Frame, O>>();
    let result = std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(n);
        for s in 0..n {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<T::Frame>>();
            cmd_txs.push(cmd_tx);
            let up = up_tx.clone();
            let build = &build;
            let finish = &finish;
            scope.spawn(move || shard_thread(s, cmd_rx, up, build, finish, cfg));
        }
        drop(up_tx);
        coordinate(n, deadline, &inbound_cuts, &route, cmd_txs, up_rx)
    });
    let (outputs, finished_at, deadline_hit, queue, records, mut shard, supersteps) = result?;
    shard.wall_secs = timer.elapsed_secs();

    // Deterministic trace merge: shard-order concatenation plus the
    // coordinator's own superstep records (already in (round, shard)
    // order), stable-sorted by (instant, node label) — the same rule at
    // every shard count — replayed into the caller's sink between the
    // coordinator's own run markers.
    let sim_trace = telemetry::global_handle("sim");
    sim_trace.emit(Instant::ZERO, || TraceEvent::RunStarted);
    if let Some(sink) = telemetry::global_sink() {
        let _merge = profile::span("merge");
        let mut merged: Vec<TraceRecord> = records.into_iter().flatten().collect();
        merged.extend(supersteps.iter().map(|sp| TraceRecord {
            t: Instant::from_nanos(sp.grant_ns),
            node: "coord",
            event: superstep_event(sp),
        }));
        merged.sort_by(|a, b| (a.t, a.node).cmp(&(b.t, b.node)));
        sink.borrow_mut().record_all(&merged);
    }
    sim_trace.emit(finished_at, || TraceEvent::RunFinished { deadline_hit });

    Ok(ShardedOutcome {
        outputs,
        finished_at,
        deadline_hit,
        queue,
        wall_secs: timer.elapsed_secs(),
        shard,
        supersteps,
    })
}

/// The superstep trace record for one granted window.
fn superstep_event(sp: &SuperstepSpan) -> TraceEvent {
    TraceEvent::Superstep {
        round: sp.round,
        shard: sp.shard,
        grant_ns: sp.grant_ns,
        cut_bound: sp.cut_bound,
        critical_link: sp.critical_link,
        events: sp.events,
        inbound: sp.inbound,
        outbound: sp.outbound,
        queue_depth: sp.queue_depth,
    }
}

/// [`run_sharded`] at one shard: build, then one window to the deadline
/// on the caller's thread, accounted as one superstep whose record
/// lands at the grant just before `run_finished` (where the multi-shard
/// merge places it too).
fn run_one_shard<T, R, C, O, Build, Fin>(
    deadline: Duration,
    build: Build,
    finish: Fin,
) -> Result<ShardedOutcome<O>, TopologyError>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
    Build: Fn(usize) -> Result<ShardSim<T, R, C>, TopologyError>,
    Fin: Fn(usize, FinishedShard<T, R, C>) -> O,
{
    let epoch = std::time::Instant::now();
    let sim = build(0)
        .map_err(|e| TopologyError(e.0.into_iter().map(|m| format!("shard 0: {m}")).collect()))?;
    let t0_ns = epoch.elapsed().as_nanos() as u64;
    let mut span = SuperstepSpan::default();
    let solo = sim.run_solo_with(deadline, |w| {
        span = SuperstepSpan {
            grant_ns: deadline.as_nanos(),
            events: w.events,
            queue_depth: w.queue_depth,
            t0_ns,
            busy_ns: epoch.elapsed().as_nanos() as u64 - t0_ns,
            ..SuperstepSpan::default()
        };
        telemetry::global_handle("coord").emit(Instant::from_nanos(span.grant_ns), || {
            superstep_event(&span)
        });
    });
    let (finished_at, deadline_hit) = (solo.finished.finished_at, solo.finished.deadline_hit);
    let shard = ShardProfile {
        shards: 1,
        supersteps: 1,
        windows: 1,
        null_windows: u64::from(span.events == 0),
        events: span.events,
        granted_ns: span.grant_ns,
        busy_ns: vec![span.busy_ns],
        blocked_ns: vec![0],
        wall_secs: epoch.elapsed().as_secs_f64(),
        ..ShardProfile::default()
    };
    Ok(ShardedOutcome {
        outputs: vec![finish(0, solo.finished)],
        finished_at,
        deadline_hit,
        queue: solo.queue,
        wall_secs: epoch.elapsed().as_secs_f64(),
        shard,
        supersteps: vec![span],
    })
}

/// One shard's thread: build (under a buffered trace sink and, when
/// profiling, a thread-local span profiler), serve granted windows with
/// `superstep/exchange/advance` spans and busy/blocked wall accounting,
/// then finish and ship the pieces home.
fn shard_thread<T, R, C, O, Build, Fin>(
    s: usize,
    cmds: mpsc::Receiver<Cmd<T::Frame>>,
    up: mpsc::Sender<Up<T::Frame, O>>,
    build: &Build,
    finish: &Fin,
    cfg: ThreadCfg,
) where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
    Build: Fn(usize) -> Result<ShardSim<T, R, C>, TopologyError>,
    Fin: Fn(usize, FinishedShard<T, R, C>) -> O,
{
    let sink = if cfg.forward_traces {
        let sink = std::rc::Rc::new(std::cell::RefCell::new(BufferSink::new()));
        telemetry::install_global(sink.clone());
        Some(sink)
    } else {
        None
    };
    let uninstall = |sink: &Option<std::rc::Rc<std::cell::RefCell<BufferSink>>>| {
        if sink.is_some() {
            telemetry::uninstall_global();
        }
    };
    // Installed before `build` so the shard's loop binds to this
    // thread's profiler.
    if cfg.profiled {
        profile::install();
    }
    let prof = profile::current();
    let now_ns = || cfg.epoch.elapsed().as_nanos() as u64;
    let mut sim = match build(s) {
        Ok(sim) => {
            let _ = up.send(Up::Built(s, None));
            sim
        }
        Err(e) => {
            if cfg.profiled {
                let _ = profile::take();
            }
            uninstall(&sink);
            let _ = up.send(Up::Built(s, Some(e)));
            return;
        }
    };
    sim.start(cfg.deadline);
    let mut blocked_ns = 0u64;
    loop {
        let wait0 = now_ns();
        match cmds.recv() {
            Ok(Cmd::Window { grant, arrivals }) => {
                let t0 = now_ns();
                blocked_ns += t0 - wait0;
                let summary = {
                    let _step = prof.span("superstep");
                    {
                        let _x = prof.span("exchange");
                        sim.inject(arrivals);
                    }
                    let _a = prof.span("advance");
                    sim.run_window(grant, false)
                };
                let busy_ns = now_ns() - t0;
                let _ = up.send(Up::Window(s, summary, t0, busy_ns));
            }
            Ok(Cmd::Finish {
                finished_at,
                deadline_hit,
            }) => {
                let queue = sim.queue_profile();
                let out = finish(s, sim.into_finished(finished_at, deadline_hit));
                let profile = if cfg.profiled { profile::take() } else { None };
                uninstall(&sink);
                let records = sink.map(|b| b.borrow_mut().take()).unwrap_or_default();
                let _ = up.send(Up::Done(
                    s,
                    Box::new(ShardDone {
                        out,
                        queue,
                        records,
                        blocked_ns,
                        profile,
                    }),
                ));
                return;
            }
            // Coordinator dropped the command channel (build error on a
            // sibling shard): exit without finishing.
            Err(_) => {
                if cfg.profiled {
                    let _ = profile::take();
                }
                uninstall(&sink);
                return;
            }
        }
    }
}

type CoordResult<O> = Result<
    (
        Vec<O>,
        Instant,
        bool,
        QueueProfile,
        Vec<Vec<TraceRecord>>,
        ShardProfile,
        Vec<SuperstepSpan>,
    ),
    TopologyError,
>;

/// The superstep loop. Runs on the caller's thread inside the scope.
fn coordinate<F: Send, O: Send>(
    n: usize,
    deadline: Instant,
    inbound_cuts: &[Vec<(usize, Duration, u64)>],
    route: &[(usize, usize)],
    cmd_txs: Vec<mpsc::Sender<Cmd<F>>>,
    up_rx: mpsc::Receiver<Up<F, O>>,
) -> CoordResult<O> {
    // Phase 1: all shards built?
    let mut build_errors = Vec::new();
    for _ in 0..n {
        match up_rx.recv() {
            Ok(Up::Built(_, None)) => {}
            Ok(Up::Built(s, Some(e))) => build_errors.push((s, e)),
            Ok(_) => unreachable!("first message per shard is Built"),
            Err(_) => build_errors.push((n, TopologyError(vec!["shard thread died".into()]))),
        }
    }
    if !build_errors.is_empty() {
        build_errors.sort_by_key(|(s, _)| *s);
        let msgs = build_errors
            .into_iter()
            .flat_map(|(s, e)| e.0.into_iter().map(move |m| format!("shard {s}: {m}")))
            .collect();
        // Dropping cmd_txs unblocks the surviving threads.
        drop(cmd_txs);
        return Err(TopologyError(msgs));
    }

    // Phase 2: supersteps.
    let mut states: Vec<ShardState<F>> = (0..n)
        .map(|_| ShardState {
            committed: Instant::ZERO,
            next_event: Some(Instant::ZERO),
            done_since: None,
            failed_at: None,
            last_event_at: Instant::ZERO,
            pending: Vec::new(),
        })
        .collect();
    let to_shard = |link: usize| -> usize {
        route[route
            .binary_search_by_key(&link, |(l, _)| *l)
            .expect("outbound batch on a non-cut link")]
        .1
    };

    // Superstep accounting: every counter below is a pure function of
    // the grant sequence, which the conservative protocol makes
    // deterministic; the busy/blocked wall vectors are filled from the
    // shards' (determinism-exempt) measurements.
    let mut acc = ShardProfile {
        shards: n as u64,
        busy_ns: vec![0; n],
        blocked_ns: vec![0; n],
        ..ShardProfile::default()
    };
    let mut supersteps: Vec<SuperstepSpan> = Vec::new();
    // Index into `supersteps` of each shard's in-flight window.
    let mut in_flight: Vec<Option<usize>> = vec![None; n];
    let mut round: u64 = 0;

    let (finished_at, deadline_hit) = loop {
        // Exits, in a one-shard run's priority order: failure, global
        // completion, queue exhaustion, deadline.
        if let Some(f) = states.iter().filter_map(|st| st.failed_at).min() {
            break (f, false);
        }
        let all_done = states.iter().all(|st| st.done_since.is_some());
        let no_pending = states.iter().all(|st| st.pending.is_empty());
        if all_done && no_pending {
            let t_star = states
                .iter()
                .filter_map(|st| st.done_since)
                .max()
                .expect("all done implies a done_since");
            if states.iter().all(|st| st.committed >= t_star) {
                break (t_star, false);
            }
        }
        let any_events = states.iter().any(|st| st.next_event.is_some());
        if !any_events && no_pending && !all_done {
            // Queue exhaustion without completion: a one-shard run just
            // runs out of events.
            let last = states.iter().map(|st| st.last_event_at).max();
            break (last.unwrap_or(Instant::ZERO), false);
        }
        if !all_done && states.iter().all(|st| st.committed >= deadline) {
            break (deadline, true);
        }

        // Safe horizons from the neighbours' committed times, each
        // paired with the global id of the binding inbound link (ties
        // break to the smallest link id); `None` = no inbound cuts,
        // unbounded.
        let horizons: Vec<Option<(Instant, u64)>> = (0..n)
            .map(|s| {
                inbound_cuts[s]
                    .iter()
                    .map(|&(from, delay, link)| (states[from].committed + delay, link))
                    .min()
            })
            .collect();

        // Finish-time lower bound LB: no shard may process past it.
        // `None` = unbounded (some shard can never finish locally; the
        // run ends by deadline or failure, both already capped).
        let mut lb: Option<Instant> = Some(Instant::ZERO);
        for (s, st) in states.iter().enumerate() {
            let term = match st.done_since {
                Some(d) => Some(d),
                None => {
                    let mut t: Option<Instant> = horizons[s].map(|(h, _)| h);
                    let mut cap = |c: Option<Instant>| {
                        t = match (t, c) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, None) => a,
                            (None, b) => b,
                        };
                    };
                    cap(st.next_event);
                    cap(st.pending.iter().map(|a| a.at).min());
                    t
                }
            };
            lb = match (lb, term) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }

        // Grants.
        let mut awaiting = 0usize;
        for (s, st) in states.iter_mut().enumerate() {
            let mut grant = deadline;
            if let Some((h, _)) = horizons[s] {
                grant = grant.min(h);
            }
            if let Some(lb) = lb {
                grant = grant.min(lb);
            }
            grant = grant.max(st.committed);
            // A window is useful when it can advance the shard, deliver
            // routed arrivals, or cover events at exactly the committed
            // instant (the t = 0 bootstrap round).
            if grant > st.committed || !st.pending.is_empty() || st.next_event == Some(st.committed)
            {
                let arrivals = {
                    let mut a = std::mem::take(&mut st.pending);
                    a.sort_by_key(|x| (x.at, x.link, x.seq));
                    a
                };
                // The critical cut: the inbound link whose horizon is
                // the binding constraint on this grant.
                let cut = horizons[s].filter(|&(h, _)| h == grant);
                acc.windows += 1;
                acc.inbound += arrivals.len() as u64;
                acc.granted_ns += (grant - st.committed).as_nanos();
                if let Some((h, _)) = horizons[s] {
                    if h > st.committed {
                        acc.available_ns += (h - st.committed).as_nanos();
                    }
                }
                if let Some((_, link)) = cut {
                    *acc.critical_cuts.entry(link).or_insert(0) += 1;
                }
                in_flight[s] = Some(supersteps.len());
                supersteps.push(SuperstepSpan {
                    round,
                    shard: s as u64,
                    grant_ns: grant.as_nanos(),
                    cut_bound: cut.is_some(),
                    critical_link: cut.map(|(_, l)| l).unwrap_or(0),
                    inbound: arrivals.len() as u64,
                    ..SuperstepSpan::default()
                });
                cmd_txs[s]
                    .send(Cmd::Window { grant, arrivals })
                    .expect("shard thread alive");
                awaiting += 1;
            }
        }
        assert!(awaiting > 0, "conservative grant loop must make progress");
        acc.supersteps += 1;
        round += 1;

        for _ in 0..awaiting {
            match up_rx.recv().expect("shard thread alive") {
                Up::Window(s, summary, t0_ns, busy_ns) => {
                    let idx = in_flight[s].take().expect("reply matches a granted window");
                    let sp = &mut supersteps[idx];
                    sp.events = summary.events;
                    sp.outbound = summary.outbound.len() as u64;
                    sp.queue_depth = summary.queue_depth;
                    sp.t0_ns = t0_ns;
                    sp.busy_ns = busy_ns;
                    acc.events += summary.events;
                    acc.outbound += summary.outbound.len() as u64;
                    if summary.events == 0 {
                        acc.null_windows += 1;
                    }
                    acc.busy_ns[s] += busy_ns;
                    let outbound = {
                        let st = &mut states[s];
                        st.committed = summary.committed;
                        st.next_event = summary.next_event;
                        st.done_since = summary.done_since;
                        st.failed_at = summary.failed_at;
                        st.last_event_at = st.last_event_at.max(summary.last_event_at);
                        summary.outbound
                    };
                    for a in outbound {
                        states[to_shard(a.link)].pending.push(a);
                    }
                }
                _ => unreachable!("windows answer with Window"),
            }
        }
    };

    // Phase 3: finish.
    for tx in &cmd_txs {
        tx.send(Cmd::Finish {
            finished_at,
            deadline_hit,
        })
        .expect("shard thread alive");
    }
    let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut records: Vec<Vec<TraceRecord>> = (0..n).map(|_| Vec::new()).collect();
    let mut queue = QueueProfile::default();
    for _ in 0..n {
        match up_rx.recv().expect("shard thread alive") {
            Up::Done(s, done) => {
                queue.absorb(&done.queue);
                acc.blocked_ns[s] = done.blocked_ns;
                if let Some(report) = &done.profile {
                    // Runs on the caller's thread: fold the shard's
                    // span tree into the profiled run's report.
                    profile::absorb(report);
                }
                outputs[s] = Some(done.out);
                records[s] = done.records;
            }
            _ => unreachable!("finish answers with Done"),
        }
    }
    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("every shard reported Done"))
        .collect();
    Ok((
        outputs,
        finished_at,
        deadline_hit,
        queue,
        records,
        acc,
        supersteps,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FrameMeta;
    use crate::link::{Channel, DelayModel, ErrorModel};
    use crate::shard::{Partition, ShardBuilder};
    use crate::topology::{LinkSpec, NodeId, NodeRole, Topology};
    use crate::traffic::{Pattern, TrafficGen};
    use bytes::Bytes;
    use sim_core::SeedSplitter;
    use std::collections::{BTreeMap, VecDeque};

    /// Toy protocol: one frame per SDU, no acknowledgements, no timers.
    struct EchoTx {
        queue: VecDeque<u64>,
        sent: u64,
    }

    impl TxEndpoint for EchoTx {
        type Frame = u64;
        fn start(&mut self, _now: Instant) {}
        fn push(&mut self, id: u64, _payload: Bytes) -> bool {
            self.queue.push_back(id);
            true
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<u64> {
            let f = self.queue.pop_front();
            if f.is_some() {
                self.sent += 1;
            }
            f
        }
        fn handle_frame(&mut self, _now: Instant, _frame: u64, _ok: bool) {}
        fn on_timeout(&mut self, _now: Instant) {}
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn buffered(&self) -> usize {
            self.queue.len()
        }
        fn meta(_frame: &u64) -> FrameMeta {
            FrameMeta {
                bytes: 64,
                is_info: true,
            }
        }
        fn drain_holding(&mut self, _out: &mut Vec<f64>) {}
        fn transmissions(&self) -> u64 {
            self.sent
        }
        fn retransmissions(&self) -> u64 {
            0
        }
    }

    struct EchoRx {
        pending: VecDeque<u64>,
    }

    impl RxEndpoint for EchoRx {
        type Frame = u64;
        fn start(&mut self, _now: Instant) {}
        fn handle_frame(&mut self, _now: Instant, frame: u64, ok: bool) {
            if ok {
                self.pending.push_back(frame);
            }
        }
        fn on_timeout(&mut self, _now: Instant) {}
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<u64> {
            None
        }
        fn poll_deliver(&mut self, _now: Instant) -> Option<(u64, usize)> {
            self.pending.pop_front().map(|id| (id, 64))
        }
        fn occupancy(&self) -> usize {
            self.pending.len()
        }
        fn meta(_frame: &u64) -> FrameMeta {
            FrameMeta {
                bytes: 64,
                is_info: true,
            }
        }
    }

    #[derive(Default)]
    struct CountCollector {
        delivered: u64,
        last_at: Instant,
    }

    impl Collect for CountCollector {
        fn on_push(&mut self, _now: Instant, _id: u64) {}
        fn on_deliver(&mut self, now: Instant, _id: u64) {
            self.delivered += 1;
            self.last_at = now;
        }
        fn on_holding(&mut self, _samples: &[f64]) {}
        fn sample(&mut self, _now: Instant, _tx: usize, _rx: usize, _rate: f64) {}
        fn delivered_unique(&self) -> u64 {
            self.delivered
        }
    }

    fn clean_channel() -> Channel {
        Channel::new(
            1e6,
            DelayModel::Fixed(Duration::from_millis(1)),
            ErrorModel::Clean,
        )
    }

    fn chain_topo(hops: usize) -> Topology {
        let mut t = Topology::default();
        t.roles.push(NodeRole::Source);
        for _ in 1..hops {
            t.roles.push(NodeRole::Relay);
        }
        t.roles.push(NodeRole::Sink);
        for i in 0..hops {
            t.links.push(LinkSpec {
                from: NodeId(i),
                to: NodeId(i + 1),
                dir: "fwd",
            });
        }
        t
    }

    type ChainResult = (Instant, Instant, bool, u64, Vec<u64>);

    /// Run an `hops`-hop forward-only echo chain (hop i = global link i)
    /// split across `shards` shards; `n` SDUs batch-pushed at t = 0.
    /// Returns the deterministic outcome tuple plus the superstep
    /// accounting and raw spans.
    fn run_chain(
        hops: usize,
        shards: usize,
        n: u64,
    ) -> (ChainResult, ShardProfile, Vec<SuperstepSpan>) {
        let topo = chain_topo(hops);
        let part = Partition::contiguous(hops + 1, shards);
        let delays = vec![DelayModel::Fixed(Duration::from_millis(1)); hops];
        let plan = part.plan(&topo, &delays).expect("valid partition");
        let ranges: Vec<(usize, usize)> = (0..part.n_shards())
            .map(|s| {
                let mine = (0..=hops).filter(|&i| part.shard_of(NodeId(i)) == Some(s));
                let lo = mine.clone().min().expect("no shard is empty");
                (lo, mine.max().expect("no shard is empty"))
            })
            .collect();
        let out = run_sharded(
            &plan,
            Duration::from_secs(60),
            |s| {
                let (lo, hi) = ranges[s];
                let mut b: ShardBuilder<EchoTx, EchoRx, CountCollector> = ShardBuilder::new(64);
                // Links ascending by global id: the inbound stub (if
                // any), then this shard's owned hops. Hop `hi` is a cut
                // when node hi+1 lives in the next shard.
                let stub = (lo > 0).then(|| b.cut_in(lo - 1));
                let mut owned = Vec::new(); // (hop, local link)
                for i in lo..=hi.min(hops.saturating_sub(1)) {
                    let l = if i == hi {
                        b.cut_out(i, clean_channel(), "fwd")
                    } else {
                        b.link(i, clean_channel(), "fwd")
                    };
                    owned.push((i, l));
                }
                let mut txs = BTreeMap::new();
                for &(i, l) in &owned {
                    txs.insert(
                        i,
                        b.tx(
                            l,
                            EchoTx {
                                queue: VecDeque::new(),
                                sent: 0,
                            },
                        ),
                    );
                }
                // Receivers for hops terminating in this shard: the stub
                // hop and every non-cut owned hop. Draining right after
                // the arrival link lets a forward catch the same pump
                // pass, like the serial relay wiring.
                let mut rxs = Vec::new(); // (hop, rx, local link)
                if let Some(sl) = stub {
                    rxs.push((
                        lo - 1,
                        b.rx_silent(EchoRx {
                            pending: VecDeque::new(),
                        }),
                        sl,
                    ));
                }
                for &(i, l) in &owned {
                    if i < hi {
                        rxs.push((
                            i,
                            b.rx_silent(EchoRx {
                                pending: VecDeque::new(),
                            }),
                            l,
                        ));
                    }
                }
                for &(j, r, l) in &rxs {
                    b.listen(l, r);
                    b.drain_after(r, l);
                    if j + 1 == hops {
                        let c = b.collector(CountCollector::default());
                        b.expect(c, n);
                        b.deliver(r, c);
                    } else {
                        b.forward(r, txs[&(j + 1)]);
                    }
                }
                if lo == 0 {
                    let gen = TrafficGen::new(Pattern::Batch, n, SeedSplitter::new(1).stream(2));
                    b.source(gen, txs[&0], None, 0);
                }
                b.build()
            },
            |_s, fin| {
                let delivered: u64 = fin.collectors.iter().map(|c| c.delivered).sum();
                let last_at = fin
                    .collectors
                    .iter()
                    .map(|c| c.last_at)
                    .max()
                    .unwrap_or(Instant::ZERO);
                let sent: Vec<u64> = fin.txs.iter().map(|t| t.sent).collect();
                (delivered, last_at, sent)
            },
        )
        .expect("sharded run");
        let delivered: u64 = out.outputs.iter().map(|(d, _, _)| d).sum();
        let last_at = out
            .outputs
            .iter()
            .map(|(_, a, _)| *a)
            .max()
            .expect("at least one shard");
        let sent: Vec<u64> = out.outputs.iter().flat_map(|(_, _, s)| s.clone()).collect();
        (
            (out.finished_at, last_at, out.deadline_hit, delivered, sent),
            out.shard,
            out.supersteps,
        )
    }

    /// Zero a span's determinism-exempt wall fields.
    fn strip_wall(mut sp: SuperstepSpan) -> SuperstepSpan {
        sp.t0_ns = 0;
        sp.busy_ns = 0;
        sp
    }

    #[test]
    fn echo_chain_identical_at_every_shard_count() {
        let hops = 4;
        let n = 9;
        let (serial, serial_profile, _) = run_chain(hops, 1, n);
        for shards in 2..=4 {
            let (sharded, profile, _) = run_chain(hops, shards, n);
            assert_eq!(serial, sharded, "shards={shards} diverged");
            assert_eq!(
                profile.events, serial_profile.events,
                "shards={shards}: event count must be shard-count-invariant"
            );
        }
        let (finished_at, last_at, deadline_hit, delivered, sent) = serial;
        assert_eq!(delivered, n, "all SDUs delivered");
        assert_eq!(sent, vec![n; hops], "every hop forwarded every frame");
        assert!(!deadline_hit);
        assert_eq!(finished_at, last_at, "run completes at the last delivery");
    }

    #[test]
    fn single_shard_profile_is_degenerate() {
        let (hops, n) = (4, 9);
        let (_, profile, supersteps) = run_chain(hops, 1, n);
        assert_eq!(profile.shards, 1);
        assert_eq!(
            profile.supersteps, 1,
            "one window covers the whole serial run"
        );
        assert_eq!(profile.windows, 1);
        assert_eq!(profile.efficiency(), 1.0, "single shard is exactly 1.0");
        assert_eq!(profile.imbalance(), 1.0);
        assert_eq!(profile.lookahead_utilization(), 1.0);
        assert_eq!(profile.available_ns, 0, "no horizon without cuts");
        assert!(profile.critical_cuts.is_empty());
        assert_eq!(
            profile.events,
            n * (hops as u64 + 1),
            "one push plus one arrival per hop per SDU"
        );
        assert_eq!(supersteps.len(), 1);
        assert!(!supersteps[0].cut_bound);
    }

    #[test]
    fn superstep_accounting_deterministic_across_runs() {
        let (out_a, prof_a, spans_a) = run_chain(4, 3, 9);
        let (out_b, prof_b, spans_b) = run_chain(4, 3, 9);
        assert_eq!(out_a, out_b);
        let strip = |sp: Vec<SuperstepSpan>| -> Vec<SuperstepSpan> {
            sp.into_iter().map(strip_wall).collect()
        };
        assert_eq!(
            strip(spans_a),
            strip(spans_b),
            "grant sequence, critical cuts and per-window counts are deterministic"
        );
        for p in [&prof_a, &prof_b] {
            assert!(p.windows >= p.supersteps);
            assert!(p.granted_ns <= p.available_ns + p.granted_ns);
            assert_eq!(p.busy_ns.len(), 3);
            assert_eq!(p.blocked_ns.len(), 3);
        }
        assert_eq!(
            (
                prof_a.supersteps,
                prof_a.windows,
                prof_a.null_windows,
                prof_a.events,
                prof_a.inbound,
                prof_a.outbound,
                prof_a.granted_ns,
                prof_a.available_ns,
                &prof_a.critical_cuts,
            ),
            (
                prof_b.supersteps,
                prof_b.windows,
                prof_b.null_windows,
                prof_b.events,
                prof_b.inbound,
                prof_b.outbound,
                prof_b.granted_ns,
                prof_b.available_ns,
                &prof_b.critical_cuts,
            )
        );
        // Multi-shard runs must see the cut horizons bind at least once,
        // and every critical link must be a real cut link.
        assert!(!prof_a.critical_cuts.is_empty());
        for &link in prof_a.critical_cuts.keys() {
            assert!(link < 4, "critical link {link} is not a chain hop");
        }
    }

    #[test]
    fn shard_profile_absorb_sums_and_merges() {
        let (_, mut a, _) = run_chain(4, 2, 5);
        let (_, b, _) = run_chain(4, 3, 5);
        let expected_events = a.events + b.events;
        let expected_windows = a.windows + b.windows;
        let mut cuts = a.critical_cuts.clone();
        for (&l, &c) in &b.critical_cuts {
            *cuts.entry(l).or_insert(0) += c;
        }
        a.absorb(&b);
        assert_eq!(a.shards, 3, "max of absorbed shard counts");
        assert_eq!(a.events, expected_events);
        assert_eq!(a.windows, expected_windows);
        assert_eq!(a.critical_cuts, cuts);
        assert_eq!(a.busy_ns.len(), 3, "wall vectors grow to the larger run");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 8, ..Default::default() })]

        /// Conservative windows must process exactly the serial event
        /// set: Σ per-superstep events across shards equals the serial
        /// engine's count for the same workload — analytically
        /// `n · (hops + 1)` for the echo chain.
        #[test]
        fn event_totals_invariant_across_shard_counts(
            hops in 2usize..6,
            shards in 2usize..5,
            n in 1u64..20,
        ) {
            let shards = shards.min(hops + 1);
            let (_, serial, _) = run_chain(hops, 1, n);
            let (_, sharded, _) = run_chain(hops, shards, n);
            proptest::prop_assert_eq!(serial.events, n * (hops as u64 + 1));
            proptest::prop_assert_eq!(sharded.events, serial.events);
        }
    }

    #[test]
    fn build_error_surfaces_with_shard_prefix() {
        let plan = CutPlan {
            n_shards: 2,
            cuts: Vec::new(),
        };
        let err = match run_sharded(
            &plan,
            Duration::from_secs(1),
            |_s| -> Result<ShardSim<EchoTx, EchoRx, CountCollector>, TopologyError> {
                Err(TopologyError(vec!["boom".into()]))
            },
            |_s, _fin| (),
        ) {
            Err(e) => e,
            Ok(_) => panic!("build errors must propagate"),
        };
        let msg = err.to_string();
        assert!(msg.contains("shard 0: boom"), "{msg}");
        assert!(msg.contains("shard 1: boom"), "{msg}");
    }
}
