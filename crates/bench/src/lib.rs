//! Benchmark kernels shared by the criterion benches (`benches/`) and
//! the `bench_suite` binary that `scripts/bench.py` drives.
//!
//! Two kinds of kernel live here:
//!
//! * **Micro-kernels** exercising the simulation core's hot paths in
//!   isolation: the [`sim_core::EventQueue`] schedule/pop/cancel/
//!   reschedule mix, [`telemetry::Registry`] counter increments (name
//!   lookup vs pre-resolved handle), trace emission (the disabled
//!   fast path and the full JSONL render+write path), the live
//!   protocol monitor's per-record cost, the real host's wire path
//!   (CRC-32 of one frame, and one encode + decode round trip), the
//!   LAMS machine pair alone, and the destination resequencer.
//! * **Experiment kernels** running each quick-sized paper experiment
//!   through [`harness::experiments::run_by_id`] and draining the
//!   per-thread perf accumulator, so the suite reports the same
//!   events/sec figure as `repro --quick --json`.
//!
//! Every kernel is deterministic (xorshift-derived workloads, fixed
//! seeds) so that run-to-run variance comes from the machine, not the
//! workload, and medians over repetitions are meaningful.

use sim_core::{Duration, EventQueue, Instant, QueueProfile};

/// One timed micro-kernel result.
#[derive(Clone, Debug)]
pub struct MicroResult {
    /// Kernel name (stable identifier used in `BENCH_*.json`).
    pub name: &'static str,
    /// Iterations executed.
    pub iters: u64,
    /// Primitive operations performed (≥ `iters` for mixed kernels).
    pub ops: u64,
    /// Wall-clock seconds for the whole kernel.
    pub wall_secs: f64,
}

impl MicroResult {
    /// Nanoseconds per primitive operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.wall_secs * 1e9 / self.ops as f64
    }

    /// Primitive operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.wall_secs
    }
}

/// One quick experiment kernel result: the experiment's merged queue
/// profile and wall clock, exactly as `repro`'s per-experiment perf
/// block reports them. `perf` is `None` for analysis-only experiments
/// that run no simulations.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (`e1`..`e17`).
    pub id: String,
    /// `(merged queue profile, wall seconds, simulation runs)`.
    pub perf: Option<(QueueProfile, f64, u64)>,
}

/// Small deterministic xorshift64* generator for kernel workloads.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn time<F: FnOnce() -> u64>(name: &'static str, iters: u64, f: F) -> MicroResult {
    let start = std::time::Instant::now();
    let ops = f();
    MicroResult {
        name,
        iters,
        ops,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Schedule/pop/cancel/reschedule mix on [`EventQueue`] — the engine's
/// event-loop workload shape: per round, two schedules at pseudorandom
/// future offsets, one reschedule of a pending event to an earlier
/// time (the wake-dedup pattern), one cancel, and two pops.
pub fn queue_mix(iters: u64) -> MicroResult {
    time("event_queue_mix", iters, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = XorShift::new(0x51AB_517E);
        let mut pending = Vec::with_capacity(64);
        let mut now = Instant::ZERO;
        let mut ops = 0u64;
        let mut sink = 0u64;
        for i in 0..iters {
            for _ in 0..2 {
                let at = now + Duration::from_nanos(1 + (rng.next() & 0xFFFF));
                pending.push((at, q.schedule(at, i)));
                ops += 1;
            }
            if pending.len() > 1 {
                let pick = rng.next() as usize % pending.len();
                let (at, id) = pending.swap_remove(pick);
                // Pull the event closer to now, like a wake re-arm.
                let earlier = now + Duration::from_nanos(1 + (at - now).as_nanos() / 2);
                if let Some(new_id) = q.reschedule(id, earlier) {
                    pending.push((earlier, new_id));
                }
                ops += 1;
            }
            if pending.len() > 8 {
                let pick = rng.next() as usize % pending.len();
                let (_, id) = pending.swap_remove(pick);
                q.cancel(id);
                ops += 1;
            }
            for _ in 0..2 {
                if let Some((at, v)) = q.pop() {
                    now = at;
                    sink = sink.wrapping_add(v);
                    pending.retain(|&(t, _)| t > now);
                    ops += 1;
                }
            }
        }
        std::hint::black_box(sink);
        ops
    })
}

/// Pure schedule+pop churn — the steady-state hot path with no
/// cancellations, where per-event overhead dominates.
pub fn queue_hot(iters: u64) -> MicroResult {
    time("event_queue_hot", iters, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = XorShift::new(0xC0FF_EE00);
        let mut now = Instant::ZERO;
        let mut sink = 0u64;
        // Keep a standing population of 32 pending events.
        for i in 0..32 {
            let at = now + Duration::from_nanos(1 + (rng.next() & 0xFFF));
            q.schedule(at, i);
        }
        for i in 0..iters {
            let (at, v) = q.pop().expect("queue is never empty");
            now = at;
            sink = sink.wrapping_add(v);
            let at = now + Duration::from_nanos(1 + (rng.next() & 0xFFF));
            q.schedule(at, i);
        }
        std::hint::black_box(sink);
        iters * 2
    })
}

/// Counter increments through name lookup on every call.
pub fn registry_inc_by_name(iters: u64) -> MicroResult {
    time("registry_inc_name", iters, || {
        let mut reg = telemetry::Registry::new();
        for _ in 0..iters {
            reg.inc("bench.counter.hits");
        }
        std::hint::black_box(reg.get("bench.counter.hits"));
        iters
    })
}

/// Counter increments through a pre-resolved [`telemetry::CounterHandle`]
/// — the hot-path form used by the harness collector.
pub fn registry_inc_by_handle(iters: u64) -> MicroResult {
    time("registry_inc_handle", iters, || {
        let mut reg = telemetry::Registry::new();
        let h = reg.handle("bench.counter.hits");
        for _ in 0..iters {
            reg.inc_handle(h);
        }
        std::hint::black_box(reg.get("bench.counter.hits"));
        iters
    })
}

/// Span open/close on a **disabled** [`profile::Prof`] handle — the
/// cost every instrumented hot path pays when not profiling. Must stay
/// in the same class as [`trace_emit_disabled`] (one branch). Both
/// kernels pass their handle and the iteration through the same
/// `black_box` each iteration, so neither check can be hoisted out of
/// the loop and neither loop can be deleted.
pub fn span_disabled(iters: u64) -> MicroResult {
    time("span_disabled", iters, || {
        let prof = profile::Prof::disabled();
        for i in 0..iters {
            let _g = std::hint::black_box(&prof).span("bench.span");
            std::hint::black_box(i);
        }
        iters
    })
}

/// Span open/close with a live profiler — the per-span cost a profiled
/// run pays (clock read, tree walk, refcount round-trip).
pub fn span_enabled(iters: u64) -> MicroResult {
    time("span_enabled", iters, || {
        profile::install();
        let prof = profile::current();
        for i in 0..iters {
            let _g = prof.span("bench.span");
            std::hint::black_box(i);
        }
        let report = profile::take().expect("installed");
        assert_eq!(report.dropped, 0);
        iters
    })
}

/// Trace emission with **no** sink installed — the disabled fast path
/// every simulation pays per protocol event. Black-boxed like
/// [`span_disabled`].
pub fn trace_emit_disabled(iters: u64) -> MicroResult {
    time("trace_emit_disabled", iters, || {
        telemetry::uninstall_global();
        let handle = telemetry::global_handle("bench");
        for i in 0..iters {
            std::hint::black_box(&handle).emit(Instant::from_nanos(i), || {
                telemetry::TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                }
            });
            std::hint::black_box(i);
        }
        iters
    })
}

/// Full JSONL trace path: render each record and write it through the
/// buffered [`telemetry::JsonlSink`] into a discarding writer.
pub fn trace_emit_jsonl(iters: u64) -> MicroResult {
    time("trace_emit_jsonl", iters, || {
        use telemetry::TraceSink;
        let mut sink = telemetry::JsonlSink::to_writer(std::io::sink());
        for i in 0..iters {
            sink.record(&telemetry::TraceRecord {
                t: Instant::from_nanos(i),
                node: "bench",
                event: telemetry::TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                },
            });
        }
        sink.flush();
        assert_eq!(sink.dropped(), 0);
        iters
    })
}

/// A recorded LAMS-DLC transfer: 2,000 SDUs over the paper's reference
/// link at a residual BER of 1e-5 (about 8% of I-frames recovered), as
/// the trace records a live monitor receives.
fn lams_trace() -> Vec<telemetry::TraceRecord> {
    use std::{cell::RefCell, rc::Rc};
    let mut cfg = harness::ScenarioConfig::paper_default();
    cfg.seed = 7;
    cfg.n_packets = 2_000;
    cfg.data_residual_ber = 1e-5;
    cfg.ctrl_residual_ber = 1e-6;
    cfg.deadline = Duration::from_secs(120);
    let buf = Rc::new(RefCell::new(telemetry::BufferSink::new()));
    telemetry::install_global(buf.clone());
    let r = harness::scenario::run_lams(&cfg);
    telemetry::uninstall_global();
    assert!(r.delivered_unique == r.offered && r.retransmissions > 0);
    let records = buf.borrow_mut().take();
    records
}

/// Replay [`lams_trace`] through [`monitor::Monitor::observe`] until at
/// least `iters` records went in, one fresh monitor per pass: the live
/// audit's cost per trace record (invariant audit, latency attribution,
/// series and lifecycles). Recording the trace is not timed.
pub fn monitor_observe(iters: u64) -> MicroResult {
    let trace = lams_trace();
    let passes = iters.div_ceil(trace.len() as u64).max(1);
    time("monitor_observe", iters, || {
        for _ in 0..passes {
            let mut m = monitor::Monitor::new(monitor::MonitorConfig::default());
            for rec in &trace {
                m.observe(rec);
            }
            let report = m.take_report();
            assert_eq!(report.total_findings, 0, "replayed trace must audit clean");
            std::hint::black_box(report);
        }
        passes * trace.len() as u64
    })
}

/// CRC-32 over one 78-byte buffer, the size of a real-host I-frame's
/// checked bytes: the cost every I-frame pays twice on the real host,
/// once in `wire::encode` and once in `wire::decode`.
pub fn crc32_frame(iters: u64) -> MicroResult {
    let buf: Vec<u8> = (0..78u8).map(|i| i.wrapping_mul(37)).collect();
    time("crc32_frame", iters, || {
        let mut sink = 0u32;
        for _ in 0..iters {
            sink ^= fec::Crc32::checksum(std::hint::black_box(&buf));
        }
        std::hint::black_box(sink);
        iters
    })
}

/// One I-frame with a 64-byte payload through the real host's codec:
/// `wire::encode_into` a reused buffer, then `wire::decode` it. One op
/// is one frame.
pub fn wire_roundtrip(iters: u64) -> MicroResult {
    use lams_dlc::{wire, Frame, InfoFrame, PacketId};
    let modulus = 1 << 16;
    let frame = Frame::Info(InfoFrame {
        seq: 12_345,
        packet_id: PacketId(99),
        payload: bytes::Bytes::from(vec![0x5A; 64]),
    });
    time("wire_roundtrip", iters, || {
        let mut out = Vec::new();
        for _ in 0..iters {
            wire::encode_into(std::hint::black_box(&frame), modulus, &mut out);
            let back = wire::decode(&out, 12_345, modulus).expect("own frame decodes");
            std::hint::black_box(back);
        }
        iters
    })
}

/// A perfect zero-delay [`lams_dlc::pump::Link`] that drops every 7th
/// I-frame the sender emits and records the packet id of every I-frame
/// it hands the receiver.
#[derive(Default)]
struct DropEvery7th {
    data: std::collections::VecDeque<lams_dlc::Frame>,
    feedback: std::collections::VecDeque<lams_dlc::Frame>,
    info_sent: u64,
    arrived: Vec<u64>,
}

impl lams_dlc::pump::Link for DropEvery7th {
    fn send_data(&mut self, _: Instant, frame: lams_dlc::Frame, _: u64) -> Result<(), String> {
        if let lams_dlc::Frame::Info(info) = &frame {
            self.info_sent += 1;
            if self.info_sent % 7 == 0 {
                return Ok(());
            }
            self.arrived.push(info.packet_id.0);
        }
        self.data.push_back(frame);
        Ok(())
    }

    fn recv_data(&mut self, _: Instant, _: u64) -> lams_dlc::pump::Arrival {
        Ok(self.data.pop_front().map(|f| (f, lams_dlc::RxStatus::Ok)))
    }

    fn send_feedback(&mut self, _: Instant, frame: lams_dlc::Frame, _: u64) -> Result<(), String> {
        self.feedback.push_back(frame);
        Ok(())
    }

    fn recv_feedback(&mut self, _: Instant, _: u64) -> lams_dlc::pump::Arrival {
        Ok(self
            .feedback
            .pop_front()
            .map(|f| (f, lams_dlc::RxStatus::Ok)))
    }
}

/// SDUs in one [`machine_pair`] transfer.
const PAIR_SDUS: u64 = 2_000;

/// One [`PAIR_SDUS`]-SDU LAMS transfer through the host pump over
/// [`DropEvery7th`] on a [`proto_core::ManualClock`], with the paper's
/// checkpoint cadence and a 2 ms round trip. Returns the link, which
/// holds the packet ids in the order they reached the receiver.
fn lossy_pair_transfer() -> DropEvery7th {
    let cfg = lams_dlc::LamsConfig {
        expected_rtt: Duration::from_millis(2),
        deadline_slack: Duration::from_millis(2),
        ..lams_dlc::LamsConfig::paper_default()
    };
    let mut sender = lams_dlc::Sender::new(cfg.clone());
    let mut receiver = lams_dlc::Receiver::new(cfg);
    let mut link = DropEvery7th::default();
    let pump = lams_dlc::pump::Pump {
        sdus: PAIR_SDUS,
        payload_len: 64,
        trace: proto_core::Trace::disabled(),
    };
    let clock = proto_core::ManualClock::new();
    let run = pump.run(&clock, &mut sender, &mut receiver, &mut link, |_, _| {
        Ok(None)
    });
    assert_eq!(run.outcome, Ok(lams_dlc::pump::Verdict::Complete));
    assert!(sender.stats().retransmissions > 0);
    link
}

/// The LAMS sender and receiver alone: [`lossy_pair_transfer`] until
/// at least `iters` SDUs went through, with no simulator, codec, trace
/// or monitor. One op is one SDU delivered in order.
pub fn machine_pair(iters: u64) -> MicroResult {
    let passes = iters.div_ceil(PAIR_SDUS).max(1);
    time("machine_pair", iters, || {
        for _ in 0..passes {
            std::hint::black_box(lossy_pair_transfer());
        }
        passes * PAIR_SDUS
    })
}

/// Replay the packet ids of one [`lossy_pair_transfer`], in the order
/// they reached the receiver (each lost frame's retransmission arrives
/// about one checkpoint interval late), through a fresh
/// [`lams_dlc::Resequencer`] until at least `iters` ids went in. One op
/// is one offered id. Recording the stream is not timed.
pub fn resequencer_offer(iters: u64) -> MicroResult {
    let ids = lossy_pair_transfer().arrived;
    let passes = iters.div_ceil(ids.len() as u64).max(1);
    time("resequencer_offer", iters, || {
        let mut out = Vec::new();
        for _ in 0..passes {
            let mut r = lams_dlc::Resequencer::new(0);
            for &id in &ids {
                out.clear();
                r.offer_into(lams_dlc::PacketId(id), bytes::Bytes::new(), &mut out);
                std::hint::black_box(&out);
            }
            assert_eq!(r.awaiting(), PAIR_SDUS, "every id released in order");
        }
        passes * ids.len() as u64
    })
}

/// The default micro suite at a common iteration count.
pub fn run_micro_suite(iters: u64) -> Vec<MicroResult> {
    vec![
        queue_mix(iters),
        queue_hot(iters),
        registry_inc_by_name(iters),
        registry_inc_by_handle(iters),
        span_disabled(iters),
        span_enabled(iters),
        trace_emit_disabled(iters),
        trace_emit_jsonl(iters),
        monitor_observe(iters),
        crc32_frame(iters),
        wire_roundtrip(iters),
        machine_pair(iters),
        resequencer_offer(iters),
    ]
}

/// Run one quick experiment and capture its merged perf block.
/// Returns `None` for unknown ids.
///
/// Goes through [`harness::runner::run_experiments`] — live protocol
/// monitor included — so the measured events/sec is the **same
/// quantity** `repro --quick --json` reports, and `BENCH_*.json`
/// trajectories are comparable against `repro` perf blocks.
pub fn run_experiment_kernel(id: &str) -> Option<ExperimentResult> {
    let runs = harness::runner::run_experiments(&[id.to_string()], true);
    let run = runs.into_iter().next()?;
    run.output.as_ref()?;
    assert_eq!(run.audit.total_findings, 0, "{id}: protocol audit failed");
    Some(ExperimentResult {
        id: run.id,
        perf: run.perf,
    })
}

/// Run every quick experiment kernel (`e1`..`e17`) in index order.
pub fn run_experiment_suite() -> Vec<ExperimentResult> {
    harness::experiments::ALL
        .iter()
        .filter_map(|id| run_experiment_kernel(id))
        .collect()
}

/// Run every quick experiment with the span profiler on and fold the
/// per-experiment self-profiles into one suite-wide breakdown
/// (call-path-matched tree merge, summed wall clock and counters,
/// absorbed queue-depth samples, one allocation delta for the pass).
///
/// This pass is **separate** from [`run_experiment_suite`]: the timed
/// suite stays unprofiled so the committed events/sec trajectory is
/// never perturbed by profiling overhead.
pub fn run_profiled_suite() -> harness::profile_report::ExperimentProfile {
    use harness::profile_report::ExperimentProfile;
    let ids: Vec<String> = harness::experiments::ALL
        .iter()
        .map(|s| s.to_string())
        .collect();
    let alloc0 = profile::alloc::snapshot();
    let runs = harness::runner::run_experiments_with(&ids, true, true);
    let alloc = profile::alloc::snapshot().map(|now| now.since(&alloc0.unwrap_or_default()));
    let mut agg = ExperimentProfile::default();
    for run in &runs {
        let Some(p) = &run.profile else { continue };
        agg.tree.absorb(&p.tree);
        agg.wall_ns += p.wall_ns;
        agg.dropped += p.dropped;
        agg.truncated += p.truncated;
        agg.queue_depth.absorb(&p.queue_depth);
    }
    agg.alloc = alloc;
    agg
}

/// One point of the core-count scaling sweep: the sharded chain kernel
/// at a fixed workload, one shard count.
#[derive(Clone, Debug)]
pub struct ShardSweepPoint {
    /// Shard (thread) count the simulation was split across.
    pub shards: usize,
    /// Wall-clock seconds for the whole sharded run.
    pub wall_secs: f64,
    /// Events popped across all shard queues. Protocol events are
    /// identical at every count; the total can differ slightly because
    /// wake timers coalesce per shard queue.
    pub popped: u64,
    /// `popped / wall_secs`.
    pub events_per_sec: f64,
    /// Parallel efficiency `Σ busy / (shards × wall)` from the
    /// coordinator's superstep accounting (1.0 for one shard).
    pub efficiency: f64,
    /// Load-imbalance factor `max busy / mean busy` across shards.
    pub imbalance: f64,
}

/// The sharded-chain scaling kernel: one fixed many-hop LAMS-DLC relay
/// chain (the e18 workload shape) run once per shard count. Simulated
/// results must be identical at every count — the sweep asserts the
/// finish instant and the delivery and transmission counts agree — so
/// the only thing that varies is the wall clock.
///
/// Wall-clock scaling is a property of the host: on a single core the
/// extra shards are pure coordination overhead; speedup appears as
/// cores do.
pub fn run_shard_sweep(counts: &[usize]) -> Vec<ShardSweepPoint> {
    let mut base = harness::ScenarioConfig::paper_default();
    base.n_packets = 3_000;
    base.data_residual_ber = 1e-5;
    base.ctrl_residual_ber = 1e-6;
    base.deadline = Duration::from_secs(600);
    let cfg = harness::RelayConfig { hops: 8, base };
    let mut witness: Option<(Instant, u64, u64, u64)> = None;
    counts
        .iter()
        .map(|&shards| {
            let _ = harness::metrics::shard_take(); // isolate this run's accounting
            let r = harness::run_chain_lams(&cfg, shards);
            let shard = harness::metrics::shard_take().map(|acc| acc.profile);
            let key = (
                r.finished_at,
                r.delivered_unique,
                r.transmissions,
                r.retransmissions,
            );
            match &witness {
                None => witness = Some(key),
                Some(k) => assert_eq!(
                    *k, key,
                    "shard sweep must be deterministic across shard counts"
                ),
            }
            ShardSweepPoint {
                shards,
                wall_secs: r.wall_secs,
                popped: r.queue.popped,
                events_per_sec: r.queue.events_per_sec(r.wall_secs),
                efficiency: shard.as_ref().map_or(1.0, |p| p.efficiency()),
                imbalance: shard.as_ref().map_or(1.0, |p| p.imbalance()),
            }
        })
        .collect()
}

/// The default shard-count ladder for the committed baseline.
pub const SHARD_SWEEP_COUNTS: &[usize] = &[1, 2, 4];

/// Fold per-experiment perf into the quick-all total: the merged queue
/// profile, total simulation wall seconds, and total runs.
pub fn total_perf(experiments: &[ExperimentResult]) -> (QueueProfile, f64, u64) {
    let mut total = QueueProfile::default();
    let mut wall = 0.0;
    let mut runs = 0;
    for e in experiments {
        if let Some((q, w, r)) = &e.perf {
            total.absorb(q);
            wall += w;
            runs += r;
        }
    }
    (total, wall, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_kernels_report_ops() {
        for r in run_micro_suite(256) {
            assert!(
                r.ops >= r.iters,
                "{}: {} ops < {} iters",
                r.name,
                r.ops,
                r.iters
            );
            assert!(r.wall_secs >= 0.0);
            assert!(r.ns_per_op() >= 0.0);
        }
    }

    #[test]
    fn micro_names_are_unique() {
        let names: Vec<&str> = run_micro_suite(8).iter().map(|r| r.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn experiment_kernel_captures_perf() {
        let r = run_experiment_kernel("e1").expect("known id");
        let (q, wall, runs) = r.perf.expect("e1 runs simulations");
        assert!(q.popped > 0);
        assert!(wall > 0.0);
        assert!(runs > 0);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment_kernel("e999").is_none());
    }

    #[test]
    fn disabled_span_stays_near_trace_disabled_cost() {
        // Satellite check for the profiler's disabled fast path: a
        // disabled span open/close must stay within ~2x of the
        // trace-emit disabled branch (both are one Option check). A
        // small absolute floor keeps timer noise at tiny per-op costs
        // from flaking the ratio.
        let iters = 2_000_000;
        // Warm up, then measure; take the best of 3 to shed scheduler
        // noise in CI.
        let best = |f: fn(u64) -> MicroResult| {
            (0..3)
                .map(|_| f(iters).ns_per_op())
                .fold(f64::INFINITY, f64::min)
        };
        let span = best(span_disabled);
        let trace = best(trace_emit_disabled);
        assert!(
            span <= 2.0 * trace + 2.0,
            "disabled span {span:.3} ns/op vs disabled trace {trace:.3} ns/op"
        );
    }

    #[test]
    fn profiled_suite_aggregates_across_experiments() {
        let agg = run_profiled_suite();
        assert!(agg.wall_ns > 0);
        assert!(!agg.tree.is_empty());
        assert_eq!(agg.dropped, 0);
        // The merged tree keeps call-path identity: one "experiment"
        // root covering all 17 experiments' runs.
        let roots: Vec<&str> = agg
            .tree
            .roots()
            .iter()
            .map(|&r| agg.tree.node(r).name)
            .collect();
        assert!(roots.contains(&"experiment"), "{roots:?}");
        assert!(agg.queue_depth.count > 0, "sample ticks recorded depths");
    }

    #[test]
    fn shard_sweep_is_deterministic_and_reports_throughput() {
        let pts = run_shard_sweep(&[1, 2]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].shards, 1);
        assert_eq!(pts[1].shards, 2);
        for p in &pts {
            assert!(p.popped > 0);
            assert!(p.wall_secs > 0.0);
            assert!(p.events_per_sec > 0.0);
            assert!(p.efficiency > 0.0 && p.efficiency <= 1.0 + 1e-9, "{p:?}");
            assert!(p.imbalance >= 1.0, "{p:?}");
        }
        assert_eq!(pts[0].efficiency, 1.0, "one shard is degenerate");
        assert_eq!(pts[0].imbalance, 1.0);
        // The cross-count identity assertion lives inside the sweep;
        // reaching here means 1 and 2 shards agreed.
    }

    #[test]
    fn total_absorbs_all_runs() {
        let a = run_experiment_kernel("e1").expect("known id");
        let b = run_experiment_kernel("e7").expect("known id");
        let (total, wall, runs) = total_perf(&[a.clone(), b.clone()]);
        let (qa, wa, ra) = a.perf.expect("perf");
        let (qb, wb, rb) = b.perf.expect("perf");
        assert_eq!(total.popped, qa.popped + qb.popped);
        assert!((wall - (wa + wb)).abs() < 1e-12);
        assert_eq!(runs, ra + rb);
    }
}
