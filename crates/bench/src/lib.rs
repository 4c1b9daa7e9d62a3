//! Benchmark kernels for the `bench_suite` binary that
//! `scripts/bench.py` drives.
//!
//! Two kinds of kernel live here:
//!
//! * **Micro-kernels** exercising each layer's hot path in isolation:
//!   the [`netsim::Calendar`] replaying the reference link's event
//!   pattern, [`telemetry::Registry`] counter increments (name
//!   lookup vs pre-resolved handle), trace emission (the disabled
//!   fast path and the full JSONL render+write path), the live
//!   protocol monitor's per-record cost, the real host's wire path
//!   (CRC-32 of one I-frame, CRC-16 of one checkpoint, and one
//!   encode + decode round trip), the LAMS machine pair alone, the
//!   destination resequencer, the I-frame
//!   FEC pipeline, the burst channel error process, and the paper's
//!   closed-form model.
//! * **Experiment kernels** running each quick-sized paper experiment
//!   through [`harness::experiments::run_by_id`] and draining the
//!   per-thread perf accumulator, so the suite reports the same
//!   events/sec figure as `repro --quick --json`.
//!
//! Every kernel is deterministic (fixed workloads and seeds) so that run-to-run variance comes from the machine, not the
//! workload, and medians over repetitions are meaningful.

use sim_core::{Duration, Instant, QueueProfile};

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

/// Frame time of a 1 kB frame at the reference link's 300 Mbps.
const REF_FRAME: Duration = Duration::from_nanos(27_307);
/// One-way propagation delay of the reference link's 4,000 km.
const REF_DELAY: Duration = Duration::from_nanos(13_342_564);

/// The simulation loop's event pattern on the paper's reference link, on a
/// bare [`netsim::Calendar`]: one source pushing an SDU per frame time,
/// each SDU's frame queued on the data lane one propagation delay out
/// (about 490 in flight), every 16th data arrival drawing a checkpoint
/// onto the feedback lane, and the wake re-armed after every instant —
/// pulled earlier on every 8th. One op is one event popped.
pub fn calendar_link(iters: u64) -> MicroResult {
    use netsim::event_queue::{Calendar, Event};
    time("calendar_link", iters, || {
        let mut cal: Calendar<u64> = Calendar::new(1, 2);
        let mut round = Vec::new();
        let mut events = 0u64;
        let mut instants = 0u64;
        cal.push(0, Instant::ZERO, 0);
        cal.rearm_wake(Instant::ZERO);
        while events < iters {
            let now = cal.next_instant().expect("the source never runs dry");
            cal.pop_round(now, &mut round);
            for ev in round.drain(..) {
                events += 1;
                match ev {
                    Event::Push { id, .. } => {
                        cal.arrive(0, now + REF_DELAY, id, true);
                        cal.push(0, now + REF_FRAME, id + 1);
                    }
                    Event::Arrive { link: 0, frame, .. } if frame % 16 == 0 => {
                        cal.arrive(1, now + REF_DELAY, frame, true);
                    }
                    _ => {}
                }
            }
            instants += 1;
            let wake = if instants.is_multiple_of(8) {
                REF_FRAME / 2
            } else {
                REF_FRAME * 4
            };
            cal.rearm_wake(now + wake);
        }
        std::hint::black_box(cal.profile());
        events
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
        use telemetry::{ProtoTrace, TraceSink};
        let mut sink = telemetry::JsonlSink::to_writer(std::io::sink());
        for i in 0..iters {
            sink.record(
                Instant::from_nanos(i),
                "bench",
                telemetry::TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                },
            );
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

/// Replay `lams_trace` through [`monitor::Monitor::observe`] until at
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

/// Machine-style emission into a live [`monitor::Monitor`]: the
/// `lams_trace` records re-emitted through [`telemetry::sink_trace`]
/// handles (one per node label, as the machines hold them) until at
/// least `iters` went in, one fresh monitor per pass. The same audit
/// work as [`monitor_observe`] plus the path a live event takes from
/// [`telemetry::Trace::emit`] into the monitor.
pub fn trace_emit_monitor(iters: u64) -> MicroResult {
    use std::{cell::RefCell, rc::Rc};
    let trace = lams_trace();
    // Each record's node label, resolved to a handle slot up front.
    let mut labels: Vec<&'static str> = Vec::new();
    let slots: Vec<usize> = trace
        .iter()
        .map(|rec| match labels.iter().position(|&l| l == rec.node) {
            Some(i) => i,
            None => {
                labels.push(rec.node);
                labels.len() - 1
            }
        })
        .collect();
    let passes = iters.div_ceil(trace.len() as u64).max(1);
    time("trace_emit_monitor", iters, || {
        for _ in 0..passes {
            let mon = Rc::new(RefCell::new(monitor::Monitor::new(
                monitor::MonitorConfig::default(),
            )));
            let handles: Vec<telemetry::Trace> = labels
                .iter()
                .map(|&l| telemetry::sink_trace(mon.clone(), l))
                .collect();
            for (rec, &slot) in trace.iter().zip(&slots) {
                handles[slot].emit(rec.t, || rec.event);
            }
            let report = mon.borrow_mut().take_report();
            assert_eq!(
                report.total_findings, 0,
                "re-emitted trace must audit clean"
            );
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

/// CRC-16 over the checked bytes of one 87-NAK checkpoint (366 bytes on
/// the wire, the size a lossy `host_mem` checkpoint interval emits):
/// the control-frame FCS every checkpoint pays in `wire::encode` and
/// again in `wire::decode`.
pub fn crc16_checkpoint(iters: u64) -> MicroResult {
    use lams_dlc::{wire, CheckPoint, ControlFrame, Frame, StopGo};
    let modulus = 1 << 16;
    let frame = wire::encode(
        &Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 41,
            covered: 20_000,
            naks: (0..87).map(|i| 18_000 + 23 * i).collect(),
            enforced: false,
            probe: None,
            stop_go: StopGo::Go,
        })),
        modulus,
    );
    assert_eq!(frame.len(), 366, "an 87-NAK checkpoint is 366 bytes");
    let checked = &frame[..frame.len() - 2];
    time("crc16_checkpoint", iters, || {
        let mut sink = 0u16;
        for _ in 0..iters {
            sink ^= fec::Crc16Ccitt::checksum(std::hint::black_box(checked));
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
            if self.info_sent.is_multiple_of(7) {
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

/// The LAMS sender and receiver alone: `lossy_pair_transfer` until
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

/// Replay the packet ids of one `lossy_pair_transfer`, in the order
/// they reached the receiver (each lost frame's retransmission arrives
/// about one checkpoint interval late), through a fresh
/// [`lams_dlc::Resequencer`] until at least `iters` ids went in. One op
/// is one offered id. Recording the stream is not timed.
pub fn resequencer_offer(iters: u64) -> MicroResult {
    let ids = lossy_pair_transfer().arrived;
    let passes = iters.div_ceil(ids.len() as u64).max(1);
    time("resequencer_offer", iters, || {
        for _ in 0..passes {
            let mut r = lams_dlc::Resequencer::new();
            for &id in &ids {
                std::hint::black_box(r.offer(id));
            }
            assert_eq!(r.next(), PAIR_SDUS, "every id released in order");
        }
        passes * ids.len() as u64
    })
}

/// Information bits in one [`fec_pipeline`] block (256 bytes).
const FEC_BLOCK_BITS: u64 = 2048;

/// The I-frame FEC pipeline: [`fec::LinkCodec::iframe_default`]
/// (convolutional code, interleaver, Viterbi decoder) encoding and then
/// decoding 256-byte blocks until at least `iters` information bits
/// went through. One op is one information bit.
pub fn fec_pipeline(iters: u64) -> MicroResult {
    let codec = fec::LinkCodec::iframe_default();
    let info = fec::BitBuf::from_bytes(&[0x11u8; (FEC_BLOCK_BITS / 8) as usize]);
    let blocks = iters.div_ceil(FEC_BLOCK_BITS).max(1);
    time("fec_pipeline", iters, || {
        for _ in 0..blocks {
            let coded = codec.encode(std::hint::black_box(&info));
            match codec.decode(&coded, info.len()) {
                fec::DecodeOutcome::Bits(bits) => assert!(bits == info, "clean block decodes"),
                other => panic!("clean block failed to decode: {other:?}"),
            }
        }
        blocks * FEC_BLOCK_BITS
    })
}

/// The Gilbert-Elliott burst error process sampling one 1 kB frame
/// every 55 µs, as a channel does per transmission. One op is one frame.
pub fn channel_frame_error(iters: u64) -> MicroResult {
    use netsim::ErrorProcess;
    let mut ge = netsim::GilbertElliott::new(
        Duration::from_millis(100),
        Duration::from_millis(5),
        1e-7,
        1e-3,
        sim_core::SeedSplitter::new(9).stream(1),
    );
    time("channel_frame_error", iters, || {
        let mut t = Instant::ZERO;
        let mut errors = 0u64;
        for _ in 0..iters {
            errors += u64::from(ge.frame_error(t, Duration::from_micros(50), 8192));
            t += Duration::from_micros(55);
        }
        std::hint::black_box(errors);
        iters
    })
}

/// Checkpoint sizes, in bytes, in the order the reverse channel of one
/// perfbench `link` transfer (seed 11) sent them.
const LINK_CHECKPOINT_BYTES: [usize; 44] = [
    18, 18, 26, 50, 66, 78, 78, 106, 102, 94, 70, 98, 126, 126, 126, 122, 134, 110, 102, 106, 122,
    110, 94, 94, 118, 126, 102, 58, 30, 26, 26, 30, 22, 22, 18, 22, 22, 22, 18, 18, 18, 18, 18, 18,
];

/// The two channels of a perfbench `link` transfer (300 Mbps, fixed
/// 13 ms delay) loaded as that workload loads them: the forward channel
/// (uniform residual BER 1e-5) sends I-frames of 1,043 B, the reverse
/// channel (BER 1e-6) one checkpoint per 52 I-frames, its sizes taken in
/// turn from `LINK_CHECKPOINT_BYTES`. Each frame goes as soon as its
/// line is free: serialization time, error verdict and arrival per
/// frame. One op is one frame on either channel.
pub fn channel_transmit(iters: u64) -> MicroResult {
    let seeds = sim_core::SeedSplitter::new(9);
    let channel = |ber: f64, stream: u64| {
        netsim::Channel::new(
            300e6,
            netsim::DelayModel::Fixed(Duration::from_millis(13)),
            netsim::ErrorModel::uniform(ber, seeds.stream(stream)),
        )
    };
    let (mut forward, mut reverse) = (channel(1e-5, 0), channel(1e-6, 1));
    time("channel_transmit", iters, || {
        let mut clean = 0u64;
        let mut checkpoints = LINK_CHECKPOINT_BYTES.iter().cycle();
        for i in 0..iters {
            let fate = if i % 53 == 52 {
                let bytes = *checkpoints.next().expect("cycle never ends");
                reverse.transmit(reverse.free_at(), bytes, false)
            } else {
                forward.transmit(forward.free_at(), 1043, true)
            };
            if let netsim::Fate::Arrives { clean: true, .. } = fate {
                clean += 1;
            }
        }
        std::hint::black_box(clean);
        iters
    })
}

/// The paper's closed-form model (§4) at the reference link: the ten
/// low-traffic, holding, buffer and numbering expressions for both
/// protocols, plus the high-traffic delivery times at N = 10,000 (the
/// `N_total` sub-period recursion). One op is one evaluation of the
/// whole model.
pub fn analysis_model(iters: u64) -> MicroResult {
    use analysis::{buffer, delivery, holding, numbering, periods, throughput};
    let p = analysis::LinkParams::paper_default();
    time("analysis_model", iters, || {
        for _ in 0..iters {
            let p = std::hint::black_box(&p);
            std::hint::black_box((
                periods::s_bar_lams(p),
                periods::s_bar_hdlc(p),
                delivery::d_low_lams(p, 1000),
                delivery::d_low_hdlc(p, 1000),
                holding::h_frame_lams(p),
                holding::h_frame_hdlc(p),
                buffer::b_lams(p),
                buffer::b_hdlc_growth_rate(p),
                numbering::lams_numbering_size(p),
                numbering::hdlc_numbering_size(p, 0.999999),
                throughput::d_high_lams(p, 10_000),
                throughput::d_high_hdlc(p, 10_000),
            ));
        }
        iters
    })
}

/// The default micro suite at a common iteration count.
pub fn run_micro_suite(iters: u64) -> Vec<MicroResult> {
    vec![
        calendar_link(iters),
        registry_inc_by_name(iters),
        registry_inc_by_handle(iters),
        span_disabled(iters),
        span_enabled(iters),
        trace_emit_disabled(iters),
        trace_emit_jsonl(iters),
        monitor_observe(iters),
        trace_emit_monitor(iters),
        crc32_frame(iters),
        crc16_checkpoint(iters),
        wire_roundtrip(iters),
        machine_pair(iters),
        resequencer_offer(iters),
        fec_pipeline(iters),
        channel_frame_error(iters),
        channel_transmit(iters),
        analysis_model(iters),
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
