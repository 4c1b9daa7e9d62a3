//! The UDP host's engine under a manual clock and an in-memory
//! transport: every wall-clock behaviour — timer expiry, checkpoint
//! cadence, Stop-Go flow control, the live audit, the trace stream —
//! exercised deterministically, with no sockets and no real waiting.
//!
//! `proto_core::ManualClock` reports the sim domain, so these runs get
//! the *strict* audit bounds (no wall-jitter slack) and byte-identical
//! traces.

use lams_dlc_io::{loopback_config, run_transfer, IoConfig, IoSummary, MemTransport, Transport};
use monitor::{Monitor, MonitorConfig};
use proto_core::{Clock, Duration, Instant, ManualClock};
use std::cell::Cell;
use std::collections::VecDeque;
use telemetry::{parse_line, Json};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lams-dlc-io-fake-clock");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run_traced(cfg: &IoConfig) -> (lams_dlc_io::IoSummary, String) {
    run_traced_over(cfg, &ManualClock::new(), &mut MemTransport::new())
}

fn run_traced_over(
    cfg: &IoConfig,
    clock: &dyn Clock,
    link: &mut dyn Transport,
) -> (lams_dlc_io::IoSummary, String) {
    let summary = run_transfer(cfg, clock, link).expect("transfer must complete");
    let trace = std::fs::read_to_string(cfg.trace.as_ref().expect("trace configured"))
        .expect("trace file readable");
    (summary, trace)
}

#[test]
fn manual_clock_runs_are_byte_identical() {
    let mut cfg = IoConfig {
        sdus: 120,
        payload_len: 48,
        drop_every: 9,
        corrupt_every: 13,
        ..IoConfig::default()
    };
    cfg.trace = Some(temp_path("det_a.jsonl"));
    let (a_summary, a) = run_traced(&cfg);
    cfg.trace = Some(temp_path("det_b.jsonl"));
    let (b_summary, b) = run_traced(&cfg);

    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(
        a, b,
        "same config + manual clock must replay byte-identically"
    );
    assert_eq!(a_summary.delivered, 120);
    assert_eq!(a_summary.drops_injected, b_summary.drops_injected);
    assert_eq!(
        a_summary.wall, b_summary.wall,
        "virtual elapsed time is exact"
    );

    // The header pins the stream to the sim domain: manual time is
    // virtual time, so downstream tools apply the strict audit bounds.
    let header = Json::parse(a.lines().next().expect("header line")).expect("header json");
    assert_eq!(
        header.get("clock_domain").and_then(Json::as_str),
        Some("sim")
    );
}

#[test]
fn lossy_manual_clock_run_is_pinned() {
    // Pins the host end to end: the pump's wake rule, the injectors and
    // the wire. A wake even 1 ns off the machines' deadlines changes it.
    let s = run_transfer(
        &IoConfig {
            sdus: 120,
            payload_len: 48,
            drop_every: 9,
            corrupt_every: 13,
            ..IoConfig::default()
        },
        &ManualClock::new(),
        &mut MemTransport::new(),
    )
    .expect("transfer must complete");
    assert_eq!(s.wall, std::time::Duration::from_millis(35));
    assert_eq!(s.datagrams_sent, 129);
    assert_eq!(s.feedback_sent, 7);
    assert_eq!(s.retransmissions, 25);
    assert_eq!(s.audit_records, 503);
    assert_eq!(s.wakes, 269);
}

#[test]
fn checkpoint_timers_fire_on_exact_cadence_under_manual_time() {
    let cfg = IoConfig {
        sdus: 150,
        payload_len: 64,
        drop_every: 8,
        trace: Some(temp_path("cadence.jsonl")),
        ..IoConfig::default()
    };
    let (summary, trace) = run_traced(&cfg);

    // Injected loss on a sim-domain stream, audited with the *strict*
    // bounds — the protocol must still come out clean.
    assert!(summary.drops_injected > 0, "loss injector must fire");
    assert!(summary.retransmissions >= summary.drops_injected);
    assert_eq!(
        summary.audit_findings, 0,
        "strict sim-domain audit must be clean"
    );

    // The receiver re-arms its checkpoint timer off the previous
    // deadline, and the host sleeps until the earliest deadline, which
    // includes the receiver's next checkpoint, so under manual time
    // every checkpoint lands exactly W_cp apart.
    let w_cp_ns = loopback_config().w_cp.as_nanos();
    let cps: Vec<u64> = trace
        .lines()
        .filter_map(|l| parse_line(l).ok())
        .filter(|r| {
            r.node == "rx" && matches!(r.event, telemetry::TraceEvent::CheckpointEmitted { .. })
        })
        .map(|r| r.t.as_nanos())
        .collect();
    assert!(
        cps.len() > 3,
        "expected several checkpoints, saw {}",
        cps.len()
    );
    for pair in cps.windows(2) {
        assert_eq!(
            pair[1] - pair[0],
            w_cp_ns,
            "checkpoint cadence must be exactly W_cp under manual time"
        );
    }
}

/// A medium that holds data-direction datagrams and releases them
/// together at the next multiple of `period`, so I-frames the sender
/// paces one `t_f` apart reach the receiver in bursts. Feedback passes
/// straight through.
struct BurstyLink<'a> {
    clock: &'a ManualClock,
    period: Duration,
    held: VecDeque<(Instant, Vec<u8>)>,
    medium: MemTransport,
}

impl Transport for BurstyLink<'_> {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        let now = self.clock.now().as_nanos();
        let period = self.period.as_nanos();
        let release = Instant::from_nanos((now / period + 1) * period);
        self.held.push_back((release, datagram.to_vec()));
        Ok(())
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        let now = self.clock.now();
        while self.held.front().is_some_and(|(at, _)| *at <= now) {
            let (_, datagram) = self.held.pop_front().expect("front");
            self.medium.send_data(&datagram)?;
        }
        self.medium.recv_data(buf)
    }

    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        self.medium.send_feedback(datagram)
    }

    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.medium.recv_feedback(buf)
    }
}

#[test]
fn flow_control_engages_under_tiny_receive_capacity() {
    let cfg = IoConfig {
        sdus: 100,
        payload_len: 32,
        drop_every: 6,
        rx_capacity: Some((4, 2)),
        trace: Some(temp_path("stop_go.jsonl")),
        ..IoConfig::default()
    };
    // Paced I-frames never queue at the receiver (t_proc < t_f), so the
    // congestion comes from the medium: bursts of about seven frames
    // every 200 µs.
    let clock = ManualClock::new();
    let mut link = BurstyLink {
        clock: &clock,
        period: Duration::from_micros(200),
        held: VecDeque::new(),
        medium: MemTransport::new(),
    };
    let (summary, trace) = run_traced_over(&cfg, &clock, &mut link);
    assert_eq!(summary.delivered, 100, "Stop-Go must not lose SDUs");
    assert_eq!(summary.audit_findings, 0);

    // The Stop-Go machinery is driven by the receive-buffer watermark:
    // a 4-deep queue behind a bursty in-memory link must cross it
    // (congestion onset) and drain back below it (cleared), both
    // visible in the trace as buffer_watermark events. Overflowed
    // frames must come back as NAKs rather than vanish.
    let mut onsets = 0u64;
    let mut clears = 0u64;
    let mut naks = 0u64;
    for r in trace.lines().filter_map(|l| parse_line(l).ok()) {
        match r.event {
            telemetry::TraceEvent::BufferWatermark {
                buffer: "rx",
                rising,
                ..
            } => {
                if rising {
                    onsets += 1
                } else {
                    clears += 1
                }
            }
            telemetry::TraceEvent::Nak { .. } => naks += 1,
            _ => {}
        }
    }
    assert!(onsets > 0, "tiny capacity must cross the Stop watermark");
    assert_eq!(onsets, clears, "every congestion onset must clear");
    assert!(naks > 0, "overflowed frames must be NAK'd, not lost");
}

/// Datagrams `wire::decode` must reject: empty, unknown type bytes,
/// truncated real frames, and real frames with one bit flipped. Each
/// candidate is checked against the decoder and kept only if rejected.
fn malformed_corpus() -> Vec<Vec<u8>> {
    use lams_dlc::{wire, CheckPoint, ControlFrame, Frame, InfoFrame, PacketId, StopGo};
    let m = loopback_config().seq_modulus();
    let info = wire::encode(
        &Frame::Info(InfoFrame {
            seq: 3,
            packet_id: PacketId(3),
            payload: bytes::Bytes::from(vec![0x5A; 64]),
        }),
        m,
    );
    let cp = wire::encode(
        &Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 2,
            covered: 9,
            naks: vec![4, 7],
            enforced: false,
            probe: None,
            stop_go: StopGo::Go,
        })),
        m,
    );
    let req = wire::encode(&Frame::Control(ControlFrame::RequestNak { probe: 1 }), m);
    let flipped = |frame: &[u8], bit: usize| {
        let mut d = frame.to_vec();
        d[bit / 8] ^= 1 << (bit % 8);
        d
    };
    let candidates = vec![
        vec![],
        vec![0x00],
        vec![0x7F, 1, 2, 3, 4, 5, 6, 7],
        info[..1].to_vec(),
        info[..15].to_vec(),
        info[..info.len() - 1].to_vec(),
        cp[..cp.len() - 3].to_vec(),
        req[..req.len() - 1].to_vec(),
        flipped(&info, 8 * 20 + 3),
        flipped(&cp, 8 * 19),
        flipped(&req, 8 * 4 + 7),
    ];
    let corpus: Vec<Vec<u8>> = candidates
        .into_iter()
        .filter(|d| wire::decode(d, 0, m).is_err())
        .collect();
    assert!(corpus.len() >= 10, "the decoder must reject the corpus");
    corpus
}

/// A [`MemTransport`] that slips up to two corpus datagrams in ahead of
/// each real one, in both directions, until the corpus runs out (a
/// transfer sends only a handful of feedback datagrams).
struct HostileLink {
    medium: MemTransport,
    fwd: VecDeque<Vec<u8>>,
    rev: VecDeque<Vec<u8>>,
    injected: u64,
}

impl Transport for HostileLink {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        for bad in self.fwd.drain(..self.fwd.len().min(2)) {
            self.medium.send_data(&bad)?;
            self.injected += 1;
        }
        self.medium.send_data(datagram)
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.medium.recv_data(buf)
    }

    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        for bad in self.rev.drain(..self.rev.len().min(2)) {
            self.medium.send_feedback(&bad)?;
            self.injected += 1;
        }
        self.medium.send_feedback(datagram)
    }

    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.medium.recv_feedback(buf)
    }
}

#[test]
fn malformed_datagrams_are_counted_and_skipped() {
    let corpus = malformed_corpus();
    let mut cfg = IoConfig {
        sdus: 600,
        payload_len: 48,
        drop_every: 9,
        corrupt_every: 13,
        trace: Some(temp_path("malformed_clean.jsonl")),
        ..IoConfig::default()
    };
    let (clean, clean_trace) = run_traced(&cfg);
    assert_eq!(clean.malformed, 0);

    cfg.trace = Some(temp_path("malformed_hostile.jsonl"));
    let mut link = HostileLink {
        medium: MemTransport::new(),
        fwd: corpus.iter().cloned().collect(),
        rev: corpus.iter().cloned().collect(),
        injected: 0,
    };
    let (s, trace) = run_traced_over(&cfg, &ManualClock::new(), &mut link);
    assert!(
        link.fwd.is_empty() && link.rev.is_empty(),
        "corpus not used up"
    );
    assert_eq!(link.injected, 2 * corpus.len() as u64);
    assert_eq!(s.delivered, 600);
    assert_eq!(s.audit_findings, 0);
    assert_eq!(s.malformed, link.injected);
    assert_eq!(
        s.counters.get("io.rx.malformed"),
        Some(link.injected as f64)
    );
    // Skipped datagrams are silence to the machines: they see the same
    // frames at the same instants as on the clean medium.
    assert_eq!(trace, clean_trace);
}

#[test]
fn offline_replay_of_the_trace_matches_the_live_audit() {
    let cfg = IoConfig {
        sdus: 130,
        payload_len: 64,
        drop_every: 7,
        corrupt_every: 11,
        trace: Some(temp_path("replay.jsonl")),
        ..IoConfig::default()
    };
    let (summary, trace) = run_traced(&cfg);

    // Re-audit the persisted stream exactly like `trace-tools audit`:
    // same monitor, same records, so the verdict must match the live
    // run's summary numbers.
    let mut mon = Monitor::new(MonitorConfig::default());
    let mut records = 0u64;
    for line in trace.lines() {
        let rec = parse_line(line).expect("trace line parses");
        mon.observe(&rec);
        records += 1;
    }
    let report = mon.take_report();
    assert_eq!(records, summary.audit_records, "record counts must agree");
    assert_eq!(report.records, summary.audit_records);
    assert_eq!(
        report.total_findings, summary.audit_findings,
        "offline verdict must match the live audit"
    );
}

#[test]
fn every_stats_document_takes_exact_latency_quantiles() {
    let stats = temp_path("exact_quantiles_stats.jsonl");
    let cfg = IoConfig {
        sdus: 400,
        payload_len: 48,
        drop_every: 7,
        corrupt_every: 13,
        stats: Some(stats.display().to_string()),
        stats_interval: std::time::Duration::from_millis(1),
        trace: Some(temp_path("exact_quantiles.jsonl")),
        ..IoConfig::default()
    };
    let (_, trace) = run_traced(&cfg);

    // The exact samples, rebuilt from the trace's lifecycles.
    let mut mon = Monitor::new(MonitorConfig {
        keep_lifecycles: true,
        ..MonitorConfig::default()
    });
    for line in trace.lines() {
        mon.observe(&parse_line(line).expect("trace line parses"));
    }
    let mut samples: Vec<f64> = mon
        .take_report()
        .lifecycles
        .iter()
        .filter_map(|l| l.delivery_latency_s())
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let nearest_rank = |q: f64| samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1];

    let text = std::fs::read_to_string(&stats).expect("stats readable");
    let docs: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("stats line parses"))
        .collect();
    let latency = |d: &Json, key: &str| {
        d.get("delivery_latency")
            .and_then(|l| l.get(key))
            .and_then(Json::as_f64)
    };
    let last = docs.last().expect("a closing document");
    assert_eq!(last.get("final").and_then(Json::as_bool), Some(true));
    assert_eq!(latency(last, "count"), Some(samples.len() as f64));
    assert_eq!(latency(last, "p50_s"), Some(nearest_rank(0.5)));
    assert_eq!(latency(last, "p99_s"), Some(nearest_rank(0.99)));
    // A mid-run document over the same samples agrees with it exactly.
    let before = &docs[docs.len() - 2];
    if latency(before, "count") == latency(last, "count") {
        for key in ["p50_s", "p99_s"] {
            assert_eq!(latency(before, key), latency(last, key), "{key}");
        }
    }
}

/// A manual clock that counts the pump's sleeps, and the zero-length
/// ones among them: a pump that sleeps for nothing is busy-spinning.
#[derive(Default)]
struct CountingClock {
    inner: ManualClock,
    sleeps: Cell<u64>,
    zero_sleeps: Cell<u64>,
}

impl Clock for CountingClock {
    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        self.sleeps.set(self.sleeps.get() + 1);
        if d.is_zero() {
            self.zero_sleeps.set(self.zero_sleeps.get() + 1);
        }
        self.inner.sleep(d);
    }

    fn domain(&self) -> proto_core::ClockDomain {
        self.inner.domain()
    }
}

/// Run `cfg` under a counting manual clock, check that every SDU
/// arrived and the pump never slept for zero time, and return the
/// summary and the number of sleeps.
fn run_with_counting_clock(cfg: &IoConfig) -> (IoSummary, u64) {
    let clock = CountingClock::default();
    let summary =
        run_transfer(cfg, &clock, &mut MemTransport::new()).expect("transfer must complete");
    assert_eq!(summary.delivered, cfg.sdus);
    assert_eq!(
        clock.zero_sleeps.get(),
        0,
        "a zero-length sleep is a busy spin"
    );
    (summary, clock.sleeps.get())
}

/// Run `cfg` under a counting manual clock, check that the pump slept
/// and never for zero time, and return the virtual time it took in ns.
fn run_counted(cfg: &IoConfig) -> u64 {
    let (summary, sleeps) = run_with_counting_clock(cfg);
    assert!(sleeps > 0, "the pump must sleep between deadlines");
    summary.wall.as_nanos() as u64
}

#[test]
fn pump_keeps_up_with_line_rate() {
    let lossless = IoConfig {
        sdus: 200,
        payload_len: 64,
        drop_every: 0,
        ..IoConfig::default()
    };
    let took = run_counted(&lossless);

    // Back-to-back I-frames one t_f apart, then C_depth + 1 checkpoint
    // intervals and a round trip to resolve the tail.
    let l = loopback_config();
    let bound = l.t_f * lossless.sdus + l.w_cp * (l.c_depth as u64 + 1) + l.expected_rtt;
    assert!(
        took <= bound.as_nanos(),
        "transfer took {took} ns of virtual time, line rate allows {} ns",
        bound.as_nanos()
    );

    // Loss leaves retransmissions due at the instant a pass ends: the
    // next pass must start at once, not after a zero-length sleep.
    run_counted(&IoConfig {
        drop_every: 7,
        corrupt_every: 11,
        ..lossless
    });
}

#[test]
fn manual_clock_wakes_are_exactly_on_time() {
    let (summary, sleeps) = run_with_counting_clock(&IoConfig {
        sdus: 300,
        drop_every: 7,
        corrupt_every: 11,
        stats: Some(temp_path("wakes_stats.jsonl").display().to_string()),
        stats_interval: std::time::Duration::from_millis(1),
        ..IoConfig::default()
    });
    assert!(sleeps > 0);
    assert_eq!(summary.wakes, sleeps, "every sleep is followed by a pass");
    assert_eq!(
        summary.wake_lateness,
        std::time::Duration::ZERO,
        "virtual time wakes exactly at the deadline"
    );
}

#[test]
fn pump_wakes_at_most_twice_per_sdu_plus_checkpoints() {
    // Each SDU costs one wake for the sender's next pacing slot and
    // one for the receiver's t_proc ready time; beyond those the pump
    // may wake only for checkpoints. On the wall clock every extra wake
    // costs real latency.
    let w_cp = loopback_config().w_cp.as_nanos();
    for sdus in [200, 2_000] {
        let (summary, sleeps) = run_with_counting_clock(&IoConfig {
            sdus,
            payload_len: 64,
            drop_every: 0,
            ..IoConfig::default()
        });
        let checkpoints = (summary.wall.as_nanos() as u64).div_ceil(w_cp);
        let budget = 2 * sdus + checkpoints + 2;
        assert!(
            sleeps <= budget,
            "{sdus} SDUs took {sleeps} sleeps, budget {budget}"
        );
    }
}

/// A [`MemTransport`] whose feedback direction loses everything: the
/// sender never hears a checkpoint or an answer to its Request-NAKs.
struct DeafSender {
    medium: MemTransport,
}

impl Transport for DeafSender {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        self.medium.send_data(datagram)
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.medium.recv_data(buf)
    }

    fn send_feedback(&mut self, _: &[u8]) -> Result<(), String> {
        Ok(())
    }

    fn recv_feedback(&mut self, _: &mut [u8]) -> Result<Option<usize>, String> {
        Ok(None)
    }
}

#[test]
fn a_silent_feedback_path_ends_in_a_link_failure_verdict() {
    let cfg = IoConfig {
        sdus: 50,
        payload_len: 32,
        drop_every: 0,
        trace: Some(temp_path("link_failed.jsonl")),
        ..IoConfig::default()
    };
    let err = run_transfer(
        &cfg,
        &ManualClock::new(),
        &mut DeafSender {
            medium: MemTransport::new(),
        },
    )
    .expect_err("a sender that never hears back must fail the link");
    // The data direction still works, so every SDU reaches the
    // receiver; none is ever released at the sender.
    assert_eq!(err, "sender declared link failure after 50 of 50 SDUs");

    let trace = std::fs::read_to_string(cfg.trace.as_ref().expect("trace configured"))
        .expect("trace file readable");
    let last = parse_line(trace.lines().last().expect("a non-empty trace")).expect("parses");
    assert_eq!(last.node, "host");
    assert!(
        matches!(
            last.event,
            telemetry::TraceEvent::RunFinished { deadline_hit: true }
        ),
        "the trace must close with a failed run, got {:?}",
        last.event
    );
    assert!(
        trace.lines().any(|l| matches!(
            parse_line(l).map(|r| r.event),
            Ok(telemetry::TraceEvent::LinkFailed)
        )),
        "the sender's failure must be on the trace"
    );
}
