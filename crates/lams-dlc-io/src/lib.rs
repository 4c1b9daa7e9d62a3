#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # lams-dlc-io
//!
//! A real-socket host for the sans-IO LAMS-DLC state machines: proof
//! that `lams_dlc::{Sender, Receiver}` run unchanged outside the
//! discrete-event simulator. [`run_loopback`] drives one pair through
//! the host pump, [`lams_dlc::pump`], over two connected loopback UDP
//! sockets, with the byte-level [`lams_dlc::wire`] codec for framing and
//! a [`proto_core::Clock`] for time — the wall clock in production, a
//! [`proto_core::ManualClock`] in deterministic tests. Deterministic
//! adversity (every `drop_every`-th information frame discarded before
//! the send, every `corrupt_every`-th arriving one payload-corrupted)
//! exercises the ARQ recovery paths on real I/O.
//!
//! ## Observability
//!
//! The host feeds the *same* telemetry pipeline the simulator uses:
//! both machines trace into a live [`monitor::Monitor`] (the
//! five-invariant auditor plus windowed metric series) and, optionally,
//! through a [`telemetry::FanoutSink`], a JSONL trace file that
//! `trace-tools audit` replays offline to the byte-identical verdict.
//! The stream opens with a `trace_header` declaring its
//! [`proto_core::ClockDomain`], so consumers know whether cadences are
//! exact (sim) or jitter-bearing (wall). On a configurable cadence the
//! host renders a machine-readable `lams-dlc.live/1` stats document
//! (counters, audit verdict, windowed series, delivery-latency
//! quantiles) to a file or stdout, and always appends one final
//! document after the run's end-of-run audit.
//!
//! The machines hold `Rc`-based trace handles and are therefore not
//! `Send`; both endpoints run on one thread, which a single-link UDP
//! demo never notices.

use lams_dlc::pump::{Arrival, Link, Pump, Verdict};
use lams_dlc::{wire, Frame, InfoFrame, LamsConfig, PacketId, Receiver, RxStatus, Sender};
use monitor::{LiveSnapshot, Monitor, MonitorConfig};
use proto_core::{Clock, Duration, Instant, WallClock};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{BufWriter, ErrorKind, Write};
use std::net::UdpSocket;
use std::path::PathBuf;
use std::rc::Rc;
use telemetry::{sink_trace, FanoutSink, Json, JsonlSink, Registry, SharedSink, Trace, TraceEvent};

/// Schema id of the live stats documents this host emits.
pub const LIVE_SCHEMA: &str = "lams-dlc.live/1";

/// Parameters of one loopback transfer.
#[derive(Clone, Debug)]
pub struct IoConfig {
    /// Number of SDUs to transfer (packet ids `0..sdus`).
    pub sdus: u64,
    /// Payload length of each SDU in bytes.
    pub payload_len: usize,
    /// Drop every `drop_every`-th information frame before it reaches
    /// the socket (counting both first transmissions and
    /// retransmissions). `0` disables loss injection.
    pub drop_every: u64,
    /// Treat every `corrupt_every`-th *arriving* information frame as
    /// payload-corrupted (CRC failure), exercising the NAK path without
    /// touching bytes on the wire. `0` disables corruption injection.
    pub corrupt_every: u64,
    /// Wall-clock budget for the whole transfer; exceeding it is an
    /// error (the machines should finish a loopback run in well under a
    /// second).
    pub timeout: std::time::Duration,
    /// Where to write periodic `lams-dlc.live/1` stats documents:
    /// `Some("-")` for stdout, `Some(path)` for a JSONL file, `None`
    /// for no stats. A final document (`"final":true`) is always
    /// appended after the end-of-run audit.
    pub stats: Option<String>,
    /// Cadence of the periodic stats documents.
    pub stats_interval: std::time::Duration,
    /// Write the full telemetry trace (JSONL [`telemetry::TraceRecord`]
    /// lines) here for offline `trace-tools` replay.
    pub trace: Option<PathBuf>,
    /// Receiver processing-queue capacity override as
    /// `(capacity, stop_watermark)` in frames (Stop is signalled at the
    /// watermark) — `None` for unbounded. Small capacities force Stop-Go
    /// flow control on a loopback link.
    pub rx_capacity: Option<(usize, usize)>,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            sdus: 200,
            payload_len: 64,
            drop_every: 7,
            corrupt_every: 0,
            timeout: std::time::Duration::from_secs(30),
            stats: None,
            stats_interval: std::time::Duration::from_millis(250),
            trace: None,
            rx_capacity: None,
        }
    }
}

/// Outcome of a completed loopback transfer.
#[derive(Clone, Debug)]
pub struct IoSummary {
    /// SDUs delivered in order at the receiving application (always
    /// equals [`IoConfig::sdus`] on success).
    pub delivered: u64,
    /// Information frames discarded by the loss injector.
    pub drops_injected: u64,
    /// Arriving information frames marked corrupted by the injector.
    pub corruptions_injected: u64,
    /// Datagrams actually written to the data-direction socket.
    pub datagrams_sent: u64,
    /// Feedback datagrams written by the receiver side.
    pub feedback_sent: u64,
    /// Datagrams received in either direction that did not decode as a
    /// frame (truncated, unknown type, or CRC mismatch) and were skipped.
    pub malformed: u64,
    /// Sender retransmissions (should be ≥ `drops_injected` when loss
    /// injection is on — every dropped frame needs at least one).
    pub retransmissions: u64,
    /// Audit findings from the live monitor (0 on a healthy run).
    pub audit_findings: u64,
    /// Trace records the live monitor observed.
    pub audit_records: u64,
    /// Host counters (`io.inject.drops`, `io.tx.datagrams`, ...).
    pub counters: Registry,
    /// Wall-clock duration of the transfer (virtual under a manual
    /// clock).
    pub wall: std::time::Duration,
    /// Passes that followed a sleep of the pump (one per sleep).
    pub wakes: u64,
    /// Total over those passes of how late the pass's clock reading was
    /// against the deadline the pump slept to: the OS's wake-up latency
    /// on a wall clock, exactly zero under a manual clock.
    pub wake_lateness: std::time::Duration,
}

/// A [`LamsConfig`] suited to a loopback link: the paper's checkpoint
/// cadence and cumulation depth, with the expected round-trip shrunk
/// from the 4,000 km orbital value to a couple of milliseconds so the
/// recovery deadlines match the actual medium.
pub fn loopback_config() -> LamsConfig {
    let cfg = LamsConfig {
        expected_rtt: proto_core::Duration::from_millis(2),
        deadline_slack: proto_core::Duration::from_millis(2),
        ..LamsConfig::paper_default()
    };
    cfg.validate().expect("loopback config must validate");
    cfg
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// The datagram medium a transfer runs over: a data direction
/// (sender → receiver) and a feedback direction (receiver → sender).
/// Receives are non-blocking (`Ok(None)` when nothing is pending).
pub trait Transport {
    /// Send one data-direction datagram.
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String>;
    /// Receive one data-direction datagram, if pending.
    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String>;
    /// Send one feedback-direction datagram.
    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String>;
    /// Receive one feedback-direction datagram, if pending.
    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String>;
}

/// Two connected non-blocking UDP sockets on ephemeral loopback ports:
/// `a` is the sender's network interface, `b` the receiver's.
pub struct UdpTransport {
    a: UdpSocket,
    b: UdpSocket,
}

impl UdpTransport {
    /// Bind and cross-connect the loopback socket pair.
    pub fn new() -> Result<Self, String> {
        let a = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| io_err("bind a", e))?;
        let b = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| io_err("bind b", e))?;
        a.connect(b.local_addr().map_err(|e| io_err("addr b", e))?)
            .map_err(|e| io_err("connect a", e))?;
        b.connect(a.local_addr().map_err(|e| io_err("addr a", e))?)
            .map_err(|e| io_err("connect b", e))?;
        a.set_nonblocking(true)
            .map_err(|e| io_err("nonblock a", e))?;
        b.set_nonblocking(true)
            .map_err(|e| io_err("nonblock b", e))?;
        Ok(UdpTransport { a, b })
    }
}

fn udp_recv(socket: &UdpSocket, buf: &mut [u8], what: &str) -> Result<Option<usize>, String> {
    match socket.recv(buf) {
        Ok(n) => Ok(Some(n)),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(io_err(what, e)),
    }
}

impl Transport for UdpTransport {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        self.a
            .send(datagram)
            .map(|_| ())
            .map_err(|e| io_err("send data", e))
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        udp_recv(&self.b, buf, "recv data")
    }

    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        self.b
            .send(datagram)
            .map(|_| ())
            .map_err(|e| io_err("send feedback", e))
    }

    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        udp_recv(&self.a, buf, "recv feedback")
    }
}

/// In-memory lossless transport: two FIFO datagram queues. Paired with
/// a [`proto_core::ManualClock`] it makes the whole host loop
/// deterministic — tests replay transfers to byte-identical traces
/// with no sockets and no real waiting.
///
/// Datagram buffers are recycled: a receive returns the buffer it read,
/// emptied, to a spare list, and the next send refills one of those. A
/// send allocates only when more datagrams are queued than ever before,
/// or when its datagram outgrows the spare buffer it took.
#[derive(Debug, Default)]
pub struct MemTransport {
    fwd: VecDeque<Vec<u8>>,
    rev: VecDeque<Vec<u8>>,
    spare: Vec<Vec<u8>>,
}

impl MemTransport {
    /// An empty in-memory transport.
    pub fn new() -> Self {
        Self::default()
    }
}

fn mem_send(queue: &mut VecDeque<Vec<u8>>, spare: &mut Vec<Vec<u8>>, datagram: &[u8]) {
    let mut d = spare.pop().unwrap_or_default();
    d.extend_from_slice(datagram);
    queue.push_back(d);
}

fn mem_recv(
    queue: &mut VecDeque<Vec<u8>>,
    spare: &mut Vec<Vec<u8>>,
    buf: &mut [u8],
) -> Result<Option<usize>, String> {
    let Some(mut d) = queue.pop_front() else {
        return Ok(None);
    };
    let n = d.len();
    let read = match buf.get_mut(..n) {
        Some(dst) => {
            dst.copy_from_slice(&d);
            Ok(Some(n))
        }
        None => Err(format!("datagram of {n} bytes exceeds buffer")),
    };
    d.clear();
    spare.push(d);
    read
}

impl Transport for MemTransport {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        mem_send(&mut self.fwd, &mut self.spare, datagram);
        Ok(())
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        mem_recv(&mut self.fwd, &mut self.spare, buf)
    }

    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        mem_send(&mut self.rev, &mut self.spare, datagram);
        Ok(())
    }

    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        mem_recv(&mut self.rev, &mut self.spare, buf)
    }
}

/// Where the periodic stats documents go.
enum StatsOut {
    Stdout,
    File(BufWriter<std::fs::File>),
}

impl StatsOut {
    fn open(target: &str) -> Result<StatsOut, String> {
        if target == "-" {
            Ok(StatsOut::Stdout)
        } else {
            let f = std::fs::File::create(target)
                .map_err(|e| io_err(&format!("create {target}"), e))?;
            Ok(StatsOut::File(BufWriter::new(f)))
        }
    }

    /// Write one document line and flush, so `tail -f` and pipes see
    /// each snapshot as it happens.
    fn write_doc(&mut self, doc: &Json) -> Result<(), String> {
        let line = doc.render();
        match self {
            StatsOut::Stdout => {
                let mut out = std::io::stdout().lock();
                writeln!(out, "{line}").and_then(|()| out.flush())
            }
            StatsOut::File(w) => writeln!(w, "{line}").and_then(|()| w.flush()),
        }
        .map_err(|e| io_err("write stats", e))
    }
}

/// Internal host state shared by the injection and stats paths.
#[derive(Default)]
struct HostCounters {
    drops: u64,
    corruptions: u64,
    datagrams: u64,
    feedback: u64,
    malformed: u64,
    info_sent: u64,     // outbound info frames (drop injector)
    info_received: u64, // inbound info frames (corruptor)
}

impl HostCounters {
    /// The canonical `io.*` counter names with their current values.
    fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("io.inject.drops", self.drops),
            ("io.inject.corruptions", self.corruptions),
            ("io.tx.datagrams", self.datagrams),
            ("io.rx.feedback", self.feedback),
            ("io.rx.malformed", self.malformed),
        ]
    }

    fn counters_json(&self) -> Json {
        Json::obj(self.entries().map(|(name, v)| (name, v.into())))
    }

    fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        for (name, v) in self.entries() {
            registry.set(name, v as f64);
        }
        registry
    }
}

/// Render one `lams-dlc.live/1` document. `snap` is the monitor's
/// view of the run so far mid-way, of the finished run in the closing
/// document; both read the exact latency samples, so a closing document
/// over the same samples as the last mid-run one reports the same
/// quantiles.
fn stats_doc(
    domain: &'static str,
    is_final: bool,
    elapsed_s: f64,
    sdus: u64,
    delivered_in_order: u64,
    counters: &HostCounters,
    snap: &LiveSnapshot,
) -> Json {
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Json::obj([
        ("schema", LIVE_SCHEMA.into()),
        ("clock_domain", domain.into()),
        ("final", Json::Bool(is_final)),
        ("elapsed_s", Json::Num(elapsed_s)),
        ("counters", counters.counters_json()),
        (
            "progress",
            Json::obj([
                ("sdus", sdus.into()),
                ("delivered", delivered_in_order.into()),
            ]),
        ),
        (
            "audit",
            Json::obj([
                ("findings", snap.findings.into()),
                ("records", snap.records.into()),
            ]),
        ),
        (
            "link",
            Json::obj([
                ("frames", snap.frames.into()),
                ("delivered", snap.delivered.into()),
                ("naks", snap.naks.into()),
                ("retransmissions", snap.retransmissions.into()),
                ("max_outstanding", snap.max_outstanding.into()),
            ]),
        ),
        (
            "delivery_latency",
            Json::obj([
                ("count", snap.delivery_count().into()),
                ("p50_s", opt(snap.delivery_quantile(0.5))),
                ("p99_s", opt(snap.delivery_quantile(0.99))),
            ]),
        ),
        ("series", Json::Arr(snap.series.clone())),
    ])
}

/// Run one sender→receiver transfer over real loopback UDP on the wall
/// clock. See [`run_transfer`] for the clock- and transport-generic
/// engine.
pub fn run_loopback(cfg: &IoConfig) -> Result<IoSummary, String> {
    check_payload(cfg.payload_len)?;
    let clock = WallClock::new();
    let mut link = UdpTransport::new()?;
    run_transfer(cfg, &clock, &mut link)
}

/// Bytes one received datagram may hold.
const RECV_BUF: usize = 2048;

/// Reject a payload whose I-frame would not fit [`RECV_BUF`]: the
/// receive would truncate every I-frame, each would fail its CRC, and
/// the transfer could never complete.
fn check_payload(payload_len: usize) -> Result<(), String> {
    let empty = Frame::Info(InfoFrame {
        seq: 0,
        packet_id: PacketId(0),
        payload: Default::default(),
    });
    let overhead = wire::encoded_len(&empty);
    let max = RECV_BUF - overhead;
    if payload_len > max {
        return Err(format!(
            "payload of {payload_len} B exceeds the {max} B limit: an I-frame adds \
             {overhead} B of header and CRC-32, and a received datagram holds {RECV_BUF} B"
        ));
    }
    Ok(())
}

/// `d` in protocol time, saturating at `u64::MAX` ns (~584 years) instead of wrapping.
fn saturating_nanos(d: std::time::Duration) -> Duration {
    Duration::from_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// The pump's [`Link`] over a byte-level [`Transport`]: the wire codec,
/// the loss and corruption injectors, and the `io.*` counters. Every
/// outgoing frame is encoded into the one reusable `out` buffer.
struct WireLink<'a> {
    transport: &'a mut dyn Transport,
    cfg: &'a IoConfig,
    modulus: u64,
    chan_trace: Trace,
    counters: HostCounters,
    buf: [u8; RECV_BUF],
    out: Vec<u8>,
}

impl Link for WireLink<'_> {
    fn send_data(&mut self, t: Instant, frame: Frame, _: u64) -> Result<(), String> {
        let c = &mut self.counters;
        if matches!(frame, Frame::Info(_)) {
            c.info_sent += 1;
            if self.cfg.drop_every != 0 && c.info_sent.is_multiple_of(self.cfg.drop_every) {
                c.drops += 1;
                self.chan_trace
                    .emit(t, || TraceEvent::ChannelDrop { dir: "fwd" });
                return Ok(());
            }
        }
        wire::encode_into(&frame, self.modulus, &mut self.out);
        self.transport.send_data(&self.out)?;
        self.counters.datagrams += 1;
        Ok(())
    }

    // An undecodable datagram is indistinguishable from silence to the
    // machines: both receives count it as malformed, skip it and let the
    // gap report.
    fn recv_data(&mut self, _: Instant, reference: u64) -> Arrival {
        while let Some(n) = self.transport.recv_data(&mut self.buf)? {
            let Ok(frame) = wire::decode(&self.buf[..n], reference, self.modulus) else {
                self.counters.malformed += 1;
                continue;
            };
            let (c, every) = (&mut self.counters, self.cfg.corrupt_every);
            let mut status = RxStatus::Ok;
            if matches!(frame, Frame::Info(_)) {
                c.info_received += 1;
                if every != 0 && c.info_received % every == 0 {
                    status = RxStatus::PayloadCorrupted;
                    c.corruptions += 1;
                }
            }
            return Ok(Some((frame, status)));
        }
        Ok(None)
    }

    // The demo keeps the feedback direction clean; the simulator and the
    // model checker cover lossy feedback.
    fn send_feedback(&mut self, _: Instant, frame: Frame, _: u64) -> Result<(), String> {
        wire::encode_into(&frame, self.modulus, &mut self.out);
        self.transport.send_feedback(&self.out)?;
        self.counters.feedback += 1;
        Ok(())
    }

    fn recv_feedback(&mut self, _: Instant, reference: u64) -> Arrival {
        while let Some(n) = self.transport.recv_feedback(&mut self.buf)? {
            match wire::decode(&self.buf[..n], reference, self.modulus) {
                Ok(frame) => return Ok(Some((frame, RxStatus::Ok))),
                Err(_) => self.counters.malformed += 1,
            }
        }
        Ok(None)
    }
}

/// Run one sender→receiver transfer over `link`, timed by `clock`: the
/// same pump and observability pipeline under a [`WallClock`] with
/// [`UdpTransport`] (production) and a [`proto_core::ManualClock`] with
/// [`MemTransport`] (deterministic tests).
///
/// Returns an error if the payload's I-frame does not fit one received
/// datagram (checked before any I/O), if the transfer does not complete
/// within [`IoConfig::timeout`], if delivery order is ever violated, or
/// if the sender declares link failure. Audit findings do *not* fail the
/// transfer; they are reported in [`IoSummary::audit_findings`].
pub fn run_transfer(
    cfg: &IoConfig,
    clock: &dyn Clock,
    link: &mut dyn Transport,
) -> Result<IoSummary, String> {
    check_payload(cfg.payload_len)?;
    // Telemetry pipeline: both machines and the host trace into the live
    // monitor, or into a fan-out carrying it and a JSONL file.
    let mon = Rc::new(RefCell::new(Monitor::new(MonitorConfig::default())));
    let jsonl = match &cfg.trace {
        Some(path) => Some(Rc::new(RefCell::new(
            JsonlSink::create(path).map_err(|e| io_err("create trace", e))?,
        ))),
        None => None,
    };
    let sink: SharedSink = match &jsonl {
        Some(j) => Rc::new(RefCell::new(FanoutSink::new(vec![mon.clone(), j.clone()]))),
        None => mon.clone(),
    };

    let mut stats = cfg.stats.as_deref().map(StatsOut::open).transpose()?;
    let stats_interval = saturating_nanos(cfg.stats_interval).max(Duration::from_nanos(1));
    let timeout = saturating_nanos(cfg.timeout);

    let lcfg = loopback_config();
    let mut wire_link = WireLink {
        transport: link,
        cfg,
        modulus: lcfg.seq_modulus(),
        chan_trace: sink_trace(sink.clone(), "channel"),
        counters: HostCounters::default(),
        buf: [0; RECV_BUF],
        out: Vec::new(),
    };
    let mut sender = Sender::new(lcfg.clone());
    let mut receiver = match cfg.rx_capacity {
        Some((capacity, watermark)) => Receiver::with_capacity(lcfg, capacity, watermark),
        None => Receiver::new(lcfg),
    };

    let domain = clock.domain().as_str();
    let pump = Pump {
        sdus: cfg.sdus,
        payload_len: cfg.payload_len,
        trace: sink_trace(sink, "host"),
    };
    let mut next_stats: Option<Instant> = None;
    let run = pump.run(
        clock,
        &mut sender,
        &mut receiver,
        &mut wire_link,
        |pass, link| {
            // Periodic live stats: snapshot the monitor mid-run. Missed
            // intervals (a host stall) collapse into one document.
            if let Some(out) = stats.as_mut() {
                let next = next_stats.get_or_insert(pass.start.saturating_add(stats_interval));
                if pass.t >= *next {
                    let snap = mon.borrow().live_snapshot();
                    let elapsed_s = (pass.t - pass.start).as_secs_f64();
                    out.write_doc(&stats_doc(
                        domain,
                        false,
                        elapsed_s,
                        cfg.sdus,
                        pass.delivered,
                        &link.counters,
                        &snap,
                    ))?;
                    while *next <= pass.t {
                        *next = next.saturating_add(stats_interval);
                    }
                }
            }
            let deadline = pass.start.saturating_add(timeout);
            if pass.t >= deadline {
                return Err(format!(
                    "timeout: delivered {} of {} SDUs in {:?}",
                    pass.delivered, cfg.sdus, cfg.timeout
                ));
            }
            Ok(Some(next_stats.map_or(deadline, |n| n.min(deadline))))
        },
    );

    // The pump has closed the trace, so the auditor has run its final
    // checks; render the closing stats document from the finished run.
    let counters = wire_link.counters;
    if let Some(out) = stats.as_mut() {
        let snap = mon.borrow().last_run_snapshot();
        let elapsed_s = run.elapsed.as_secs_f64();
        out.write_doc(&stats_doc(
            domain,
            true,
            elapsed_s,
            cfg.sdus,
            run.delivered,
            &counters,
            &snap,
        ))?;
    }
    let report = mon.borrow_mut().take_report();
    if let Some(j) = &jsonl {
        j.borrow_mut()
            .try_flush()
            .map_err(|e| io_err("flush trace", e))?;
    }
    if run.outcome? == Verdict::LinkFailed {
        return Err(format!(
            "sender declared link failure after {} of {} SDUs",
            run.delivered, cfg.sdus
        ));
    }

    Ok(IoSummary {
        delivered: run.delivered,
        drops_injected: counters.drops,
        corruptions_injected: counters.corruptions,
        datagrams_sent: counters.datagrams,
        feedback_sent: counters.feedback,
        malformed: counters.malformed,
        retransmissions: sender.stats().retransmissions,
        audit_findings: report.total_findings,
        audit_records: report.records,
        counters: counters.registry(),
        wall: std::time::Duration::from_nanos(run.elapsed.as_nanos()),
        wakes: run.wakes,
        wake_lateness: std::time::Duration::from_nanos(run.wake_lateness.as_nanos()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_config_validates_and_bounds_numbering() {
        let cfg = loopback_config();
        assert!(cfg.seq_modulus().is_power_of_two());
        assert!(cfg.seq_modulus() < 1 << 20);
    }

    #[test]
    fn lossless_transfer_completes() {
        let summary = run_loopback(&IoConfig {
            sdus: 50,
            payload_len: 32,
            drop_every: 0,
            timeout: std::time::Duration::from_secs(20),
            ..IoConfig::default()
        })
        .expect("lossless loopback transfer");
        assert_eq!(summary.delivered, 50);
        assert_eq!(summary.drops_injected, 0);
        assert_eq!(summary.audit_findings, 0, "clean run must audit clean");
        assert_eq!(summary.counters.get("io.inject.drops"), Some(0.0));
        assert!(summary.counters.get("io.tx.datagrams").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn mem_transport_recycles_buffers_without_leaking_bytes() {
        let mut t = MemTransport::new();
        let mut buf = [0u8; 16];
        t.send_data(&[7; 12]).expect("send");
        assert_eq!(t.recv_data(&mut buf).expect("recv"), Some(12));
        // The short datagram refills the long one's buffer: only its own
        // bytes may come back, in either direction.
        t.send_feedback(&[1, 2, 3]).expect("send");
        let mut short = [0u8; 16];
        assert_eq!(t.recv_feedback(&mut short).expect("recv"), Some(3));
        assert_eq!(short[..4], [1, 2, 3, 0]);
        t.send_data(&[]).expect("send");
        assert_eq!(t.recv_data(&mut buf).expect("recv"), Some(0));
        assert_eq!(t.recv_data(&mut buf).expect("recv"), None);

        t.send_data(&[9; 17]).expect("send");
        assert_eq!(
            t.recv_data(&mut buf),
            Err("datagram of 17 bytes exceeds buffer".to_string())
        );
        t.send_data(&[5; 2]).expect("send");
        assert_eq!(t.recv_data(&mut buf).expect("recv"), Some(2));
        assert_eq!(buf[..3], [5, 5, 7]);
    }

    #[test]
    fn huge_budgets_saturate_instead_of_wrapping() {
        assert_eq!(
            saturating_nanos(std::time::Duration::from_millis(250)),
            Duration::from_millis(250)
        );
        // 2^64 + 1 ns, which a wrapping conversion turns into 1 ns.
        let huge = std::time::Duration::new(u64::MAX / 1_000_000_000, 709_551_617);
        assert_eq!(saturating_nanos(huge), Duration::from_nanos(u64::MAX));
        let cfg = IoConfig {
            sdus: 50,
            timeout: huge,
            stats_interval: huge,
            ..IoConfig::default()
        };
        let s = run_transfer(
            &cfg,
            &proto_core::ManualClock::new(),
            &mut MemTransport::new(),
        )
        .expect("a budget of centuries does not run out");
        assert_eq!(s.delivered, 50);
    }

    fn mem_transfer(payload_len: usize) -> Result<IoSummary, String> {
        let cfg = IoConfig {
            sdus: 20,
            payload_len,
            ..IoConfig::default()
        };
        run_transfer(
            &cfg,
            &proto_core::ManualClock::new(),
            &mut MemTransport::new(),
        )
    }

    #[test]
    fn largest_payload_that_fits_a_datagram_completes() {
        let s = mem_transfer(2_029).expect("a 2,048-byte I-frame fits");
        assert_eq!(s.delivered, 20);
        assert_eq!(s.malformed, 0);
    }

    #[test]
    fn oversized_payloads_are_rejected_before_the_transfer() {
        for len in [2_030, 65_536] {
            let err = mem_transfer(len).expect_err("the I-frame cannot fit");
            assert_eq!(
                err,
                format!(
                    "payload of {len} B exceeds the 2029 B limit: an I-frame adds 19 B \
                     of header and CRC-32, and a received datagram holds 2048 B"
                )
            );
        }
    }

    #[test]
    fn summary_counters_match_the_typed_fields() {
        let cfg = IoConfig {
            sdus: 120,
            drop_every: 6,
            corrupt_every: 9,
            ..IoConfig::default()
        };
        let s = run_transfer(
            &cfg,
            &proto_core::ManualClock::new(),
            &mut MemTransport::new(),
        )
        .expect("lossy manual-clock transfer");
        assert!(s.drops_injected > 0 && s.corruptions_injected > 0);
        let expected = [
            ("io.inject.drops", s.drops_injected),
            ("io.inject.corruptions", s.corruptions_injected),
            ("io.tx.datagrams", s.datagrams_sent),
            ("io.rx.feedback", s.feedback_sent),
            ("io.rx.malformed", s.malformed),
        ]
        .map(|(name, v)| (name, v as f64));
        assert_eq!(s.counters.entries(), expected.as_slice());
    }
}
