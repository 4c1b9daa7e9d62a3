//! Sim-time-stamped protocol event tracing.
//!
//! Protocol and harness code holds a cheap [`Trace`] handle and calls
//! [`Trace::emit`] with a closure building the event. When tracing is
//! disabled the closure is never run, so the cost of an instrumented
//! site is a single branch on an `Option` — no allocation, no
//! formatting.
//!
//! Record construction is decoupled from persistence through the
//! [`TraceSink`] trait: [`RingSink`] keeps the last N records in memory
//! (for tests and post-mortem inspection), [`JsonlSink`] streams one
//! JSON object per line to a writer (the `repro --trace <path>` flag).

use crate::json::Json;
use proto_core::time::Instant;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::rc::Rc;

pub use proto_core::trace::{ProtoTrace, SharedTrace, Trace, TraceEvent};

/// Event-specific JSON members (everything except `t`/`node`/`event`).
fn event_fields(event: &TraceEvent) -> Vec<(&'static str, Json)> {
    match *event {
        TraceEvent::IFrameTx { seq, retx, len } => {
            vec![
                ("seq", seq.into()),
                ("retx", retx.into()),
                ("len", len.into()),
            ]
        }
        TraceEvent::IFrameRx { seq, clean, len } => {
            vec![
                ("seq", seq.into()),
                ("clean", clean.into()),
                ("len", len.into()),
            ]
        }
        TraceEvent::CheckpointEmitted {
            index,
            covered,
            naks,
            enforced,
            stop,
        } => vec![
            ("index", index.into()),
            ("covered", covered.into()),
            ("naks", naks.into()),
            ("enforced", enforced.into()),
            ("stop", stop.into()),
        ],
        TraceEvent::CheckpointReceived {
            index,
            covered,
            naks,
        } => vec![
            ("index", index.into()),
            ("covered", covered.into()),
            ("naks", naks.into()),
        ],
        TraceEvent::CheckpointLost { index } => vec![("index", index.into())],
        TraceEvent::Nak { seq, cp_index } => {
            vec![("seq", seq.into()), ("cp_index", cp_index.into())]
        }
        TraceEvent::Renumbered { old_seq, new_seq } => {
            vec![("old_seq", old_seq.into()), ("new_seq", new_seq.into())]
        }
        TraceEvent::RetxCause {
            seq,
            cause,
            cp_index,
        } => vec![
            ("seq", seq.into()),
            ("cause", cause.into()),
            ("cp_index", cp_index.into()),
        ],
        TraceEvent::EnforcedRecoveryStarted { outstanding } => {
            vec![("outstanding", outstanding.into())]
        }
        TraceEvent::EnforcedRecoveryResolved => vec![],
        TraceEvent::StopGo { stop } => vec![("stop", stop.into())],
        TraceEvent::BufferWatermark {
            buffer,
            level,
            rising,
        } => vec![
            ("buffer", buffer.into()),
            ("level", level.into()),
            ("rising", rising.into()),
        ],
        TraceEvent::ChannelDrop { dir } => vec![("dir", dir.into())],
        TraceEvent::Control { kind, seq } => {
            vec![("kind", kind.into()), ("seq", seq.into())]
        }
        TraceEvent::LinkFailed => vec![],
        TraceEvent::RunStarted => vec![],
        TraceEvent::RunFinished { deadline_hit } => {
            vec![("deadline_hit", deadline_hit.into())]
        }
        TraceEvent::ExperimentStarted { id } => vec![("id", id.into())],
        TraceEvent::SenderConfig {
            w_cp_ns,
            c_depth,
            rtt_ns,
            cp_timeout_ns,
            resolving_ns,
            failure_ns,
        } => vec![
            ("w_cp_ns", w_cp_ns.into()),
            ("c_depth", c_depth.into()),
            ("rtt_ns", rtt_ns.into()),
            ("cp_timeout_ns", cp_timeout_ns.into()),
            ("resolving_ns", resolving_ns.into()),
            ("failure_ns", failure_ns.into()),
        ],
        TraceEvent::BufferRelease {
            seq,
            held_ns,
            cp_index,
        } => vec![
            ("seq", seq.into()),
            ("held_ns", held_ns.into()),
            ("cp_index", cp_index.into()),
        ],
        TraceEvent::ReseqHold { id, held_ns } => {
            vec![("id", id.into()), ("held_ns", held_ns.into())]
        }
        TraceEvent::TraceHeader { clock_domain } => {
            vec![("clock_domain", clock_domain.into())]
        }
    }
}

/// One trace record: when, where, what.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub t: Instant,
    /// Which node emitted it (`"tx"`, `"rx"`, `"node0"`, ...).
    pub node: &'static str,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Nanosecond timestamp needing an exact side channel: `Some` only
    /// when the f64-seconds `t` member alone would round the time.
    /// Sim traces never get past 2^53 ns (≈ 104 days), so they never
    /// carry one and their historical byte shape is unchanged;
    /// wall-clock hosts can in principle run long enough to need it.
    fn inexact_t_ns(&self) -> Option<u64> {
        let ns = self.t.as_nanos();
        if (self.t.as_secs_f64() * 1e9).round() as u64 != ns {
            Some(ns)
        } else {
            None
        }
    }

    /// Render as one JSON object: `{"t": secs, "node": .., "event": .., ...}`
    /// (plus `"t_ns"` right after `"t"` when seconds alone would round).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![("t".into(), Json::Num(self.t.as_secs_f64()))];
        if let Some(ns) = self.inexact_t_ns() {
            members.push(("t_ns".into(), Json::Int(ns)));
        }
        members.push(("node".into(), self.node.into()));
        members.push(("event".into(), self.event.kind().into()));
        for (k, v) in event_fields(&self.event) {
            members.push((k.into(), v));
        }
        Json::Obj(members)
    }

    /// Append this record's JSONL line (no trailing newline) to `out` —
    /// byte-identical to `self.to_json().render()` but without building
    /// the intermediate [`Json`] AST (no `String` keys, no value tree):
    /// the hot serialization path of [`JsonlSink`].
    pub fn render_into(&self, out: &mut String) {
        out.push_str("{\"t\":");
        crate::json::write_num(out, self.t.as_secs_f64());
        if let Some(ns) = self.inexact_t_ns() {
            out.push_str(",\"t_ns\":");
            crate::json::write_u64(out, ns);
        }
        out.push_str(",\"node\":");
        crate::json::write_str(out, self.node);
        out.push_str(",\"event\":");
        crate::json::write_str(out, self.event.kind());
        for (k, v) in event_fields(&self.event) {
            out.push(',');
            crate::json::write_str(out, k);
            out.push(':');
            v.render_into(out);
        }
        out.push('}');
    }

    /// Rebuild a record from the JSON object produced by
    /// [`TraceRecord::to_json`]. This is the inverse the offline trace
    /// analyzer relies on: `t` survives the f64 round trip exactly
    /// below 2^53 ns (Rust renders the shortest round-trippable
    /// decimal), and records past that carry an exact `t_ns` member
    /// which parsing prefers — so a replayed stream reproduces the live
    /// stream bit-for-bit in either clock domain.
    pub fn from_json(v: &Json) -> Result<TraceRecord, String> {
        let t = v
            .get("t")
            .and_then(Json::as_f64)
            .ok_or("record missing numeric \"t\"")?;
        if !(t.is_finite() && t >= 0.0) {
            return Err(format!("record has invalid time {t}"));
        }
        let t_ns = v.get("t_ns").and_then(Json::as_u64);
        let node = intern(
            v.get("node")
                .and_then(Json::as_str)
                .ok_or("record missing string \"node\"")?,
        );
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or("record missing string \"event\"")?;
        let num = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} record missing numeric {k:?}"))
        };
        let flag = |k: &str| -> Result<bool, String> {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("{kind} record missing boolean {k:?}"))
        };
        let word = |k: &str| -> Result<&'static str, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(intern)
                .ok_or_else(|| format!("{kind} record missing string {k:?}"))
        };
        let event = match kind {
            "iframe_tx" => TraceEvent::IFrameTx {
                seq: num("seq")?,
                retx: flag("retx")?,
                len: num("len")?,
            },
            "iframe_rx" => TraceEvent::IFrameRx {
                seq: num("seq")?,
                clean: flag("clean")?,
                len: num("len")?,
            },
            "checkpoint_emitted" => TraceEvent::CheckpointEmitted {
                index: num("index")?,
                covered: num("covered")?,
                naks: num("naks")?,
                enforced: flag("enforced")?,
                stop: flag("stop")?,
            },
            "checkpoint_received" => TraceEvent::CheckpointReceived {
                index: num("index")?,
                covered: num("covered")?,
                naks: num("naks")?,
            },
            "checkpoint_lost" => TraceEvent::CheckpointLost {
                index: num("index")?,
            },
            "nak" => TraceEvent::Nak {
                seq: num("seq")?,
                cp_index: num("cp_index")?,
            },
            "renumbered" => TraceEvent::Renumbered {
                old_seq: num("old_seq")?,
                new_seq: num("new_seq")?,
            },
            "retx_cause" => TraceEvent::RetxCause {
                seq: num("seq")?,
                cause: word("cause")?,
                cp_index: num("cp_index")?,
            },
            "enforced_recovery_started" => TraceEvent::EnforcedRecoveryStarted {
                outstanding: num("outstanding")?,
            },
            "enforced_recovery_resolved" => TraceEvent::EnforcedRecoveryResolved,
            "stop_go" => TraceEvent::StopGo {
                stop: flag("stop")?,
            },
            "buffer_watermark" => TraceEvent::BufferWatermark {
                buffer: word("buffer")?,
                level: num("level")?,
                rising: flag("rising")?,
            },
            "channel_drop" => TraceEvent::ChannelDrop { dir: word("dir")? },
            "control" => TraceEvent::Control {
                kind: word("kind")?,
                seq: num("seq")?,
            },
            "link_failed" => TraceEvent::LinkFailed,
            "run_started" => TraceEvent::RunStarted,
            "run_finished" => TraceEvent::RunFinished {
                deadline_hit: flag("deadline_hit")?,
            },
            "experiment_started" => TraceEvent::ExperimentStarted { id: word("id")? },
            "sender_config" => TraceEvent::SenderConfig {
                w_cp_ns: num("w_cp_ns")?,
                c_depth: num("c_depth")?,
                rtt_ns: num("rtt_ns")?,
                cp_timeout_ns: num("cp_timeout_ns")?,
                resolving_ns: num("resolving_ns")?,
                failure_ns: num("failure_ns")?,
            },
            "buffer_release" => TraceEvent::BufferRelease {
                seq: num("seq")?,
                held_ns: num("held_ns")?,
                cp_index: num("cp_index")?,
            },
            "reseq_hold" => TraceEvent::ReseqHold {
                id: num("id")?,
                held_ns: num("held_ns")?,
            },
            "trace_header" => TraceEvent::TraceHeader {
                clock_domain: word("clock_domain")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(TraceRecord {
            // `t` is seconds; nanosecond counts below 2^53 (≈ 104 days
            // of sim time) round-trip exactly through f64, and records
            // past that carry the exact count in `t_ns`.
            t: match t_ns {
                Some(ns) => Instant::from_nanos(ns),
                None => Instant::from_nanos((t * 1e9).round() as u64),
            },
            node,
            event,
        })
    }
}

/// Parse one JSONL trace line into a record.
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    TraceRecord::from_json(&v)
}

/// Labels baked into the emitting code; interning hits these first so
/// replaying a trace allocates nothing for well-known nodes/tokens.
const KNOWN_LABELS: &[&str] = &[
    "tx",
    "rx",
    "channel",
    "collector",
    "sim",
    "runner",
    "host",
    "wall",
    "a2b.tx",
    "a2b.rx",
    "b2a.tx",
    "b2a.rx",
    "reseq",
    "fwd",
    "rev",
    "rej",
    "srej",
    "rr",
    "timeout",
    "req_nak",
    "nak",
    "resolve",
    "suspect",
];

thread_local! {
    static INTERNED: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Map a parsed string onto a `&'static str` label. Known labels are
/// matched against a static table; novel ones are leaked once per
/// distinct string (node labels form a small bounded set per trace).
fn intern(s: &str) -> &'static str {
    if let Some(k) = KNOWN_LABELS.iter().find(|k| **k == s) {
        return k;
    }
    INTERNED.with(|table| {
        let mut table = table.borrow_mut();
        if let Some(k) = table.iter().find(|k| **k == s) {
            *k
        } else {
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            table.push(leaked);
            leaked
        }
    })
}

/// Destination for trace records.
///
/// A sink is a [`ProtoTrace`]: [`ProtoTrace::record`] is its one
/// per-record entry point, so a [`Trace`] handle from [`sink_trace`]
/// reaches it in one dynamic call. This trait adds what record stores
/// need beyond that: replaying stored [`TraceRecord`]s, counters and
/// flushing.
pub trait TraceSink: ProtoTrace {
    /// Accept a batch of stored records, oldest first. Equivalent to
    /// calling [`ProtoTrace::record`] per record, but replayers (the
    /// parallel runner draining a worker's [`BufferSink`]) pay one
    /// virtual dispatch per batch instead of one per record.
    fn record_all(&mut self, recs: &[TraceRecord]) {
        for rec in recs {
            self.record(rec.t, rec.node, rec.event);
        }
    }

    /// Records accepted so far.
    fn len(&self) -> u64;

    /// True when no record has been accepted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped (ring eviction, write failures). Sinks must not
    /// panic on I/O trouble; they degrade to dropping records and count
    /// them here.
    fn dropped(&self) -> u64 {
        0
    }

    /// Flush any buffered output.
    fn flush(&mut self) {}
}

/// Bounded in-memory sink keeping the most recent `capacity` records.
pub struct RingSink {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    seen: u64,
}

impl RingSink {
    /// Sink retaining at most `capacity` records (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            seen: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Count of retained records matching a predicate.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.buf.iter().filter(|r| r.event.kind() == kind).count()
    }
}

impl ProtoTrace for RingSink {
    fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(TraceRecord { t, node, event });
        self.seen += 1;
    }
}

impl TraceSink for RingSink {
    fn len(&self) -> u64 {
        self.seen
    }

    fn dropped(&self) -> u64 {
        self.seen - self.buf.len() as u64
    }
}

/// Unbounded in-memory sink that surrenders its records on demand.
///
/// Built for worker threads: install a `BufferSink` as the worker's
/// global sink, run simulations, then [`BufferSink::take`] the records
/// and replay them into the orchestrating thread's sink in
/// deterministic order. ([`TraceRecord`] is `Send`; sinks are not.)
#[derive(Default)]
pub struct BufferSink {
    buf: Vec<TraceRecord>,
    seen: u64,
}

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove and return all buffered records, oldest first.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.buf)
    }
}

impl ProtoTrace for BufferSink {
    fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent) {
        self.buf.push(TraceRecord { t, node, event });
        self.seen += 1;
    }
}

impl TraceSink for BufferSink {
    fn record_all(&mut self, recs: &[TraceRecord]) {
        self.buf.extend_from_slice(recs);
        self.seen += recs.len() as u64;
    }

    fn len(&self) -> u64 {
        self.seen
    }
}

/// Streaming sink writing one JSON object per line.
///
/// Records are serialized straight into a reusable `String` buffer (no
/// per-record JSON tree or line allocation) and handed to the writer in
/// batches. The buffer is drained on [`TraceSink::flush`], when it
/// exceeds [`JsonlSink::BATCH_BYTES`], on [`JsonlSink::into_inner`],
/// and on drop — dropping an unflushed sink cannot truncate the file.
/// Write failures are sticky: the records of a failed batch count as
/// [`TraceSink::dropped`] and the first error is retained for
/// [`JsonlSink::error`] (recording itself never panics).
pub struct JsonlSink<W: Write> {
    /// `Some` until `into_inner` steals the writer (drop then no-ops).
    out: Option<W>,
    buf: String,
    /// Records currently serialized in `buf`, not yet handed to `out`.
    pending: u64,
    written: u64,
    failed: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<std::fs::File>> {
    /// Create (truncate) a JSONL trace file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(JsonlSink::to_writer(BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Buffered bytes that trigger a write to the underlying writer.
    pub const BATCH_BYTES: usize = 64 * 1024;

    /// Wrap an arbitrary writer.
    pub fn to_writer(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            buf: String::new(),
            pending: 0,
            written: 0,
            failed: 0,
            error: None,
        }
    }

    /// The first write error encountered, if any. Buffered records that
    /// could not be handed to the writer are counted in
    /// [`TraceSink::dropped`]; this exposes *why*.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Drain the serialization buffer into the writer and flush it,
    /// surfacing the first failure (current or sticky from an earlier
    /// batch) instead of swallowing it.
    pub fn try_flush(&mut self) -> io::Result<()> {
        self.write_batch();
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.flush() {
                if self.error.is_none() {
                    self.error = Some(io::Error::new(e.kind(), e.to_string()));
                }
                return Err(e);
            }
        }
        match &self.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }

    /// Consume the sink, flushing and returning the writer.
    pub fn into_inner(mut self) -> W {
        self.write_batch();
        let mut out = self.out.take().expect("writer present until into_inner");
        let _ = out.flush();
        out
    }

    fn write_batch(&mut self) {
        if self.pending == 0 {
            self.buf.clear();
            return;
        }
        // Resolved per batch, not cached: the sink usually outlives the
        // per-experiment profiler installed around each run.
        let _span = profile::span("sink.write");
        let res = match self.out.as_mut() {
            Some(out) => out.write_all(self.buf.as_bytes()),
            None => Ok(()),
        };
        match res {
            Ok(()) => self.written += self.pending,
            Err(e) => {
                self.failed += self.pending;
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
        }
        self.pending = 0;
        self.buf.clear();
    }
}

impl<W: Write> ProtoTrace for JsonlSink<W> {
    fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent) {
        let render_span = profile::span("sink.render");
        TraceRecord { t, node, event }.render_into(&mut self.buf);
        self.buf.push('\n');
        self.pending += 1;
        drop(render_span);
        if self.buf.len() >= Self::BATCH_BYTES {
            self.write_batch();
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn len(&self) -> u64 {
        self.written + self.pending
    }

    fn dropped(&self) -> u64 {
        self.failed
    }

    fn flush(&mut self) {
        self.write_batch();
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.flush() {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if self.out.is_some() {
            self.flush();
        }
    }
}

/// Fan-out sink: forwards every record to each child sink in order.
///
/// This is how the `repro` binary runs the live auditor alongside a
/// `--trace` JSONL writer: both subscribe to the same stream, neither
/// knows about the other. Children are [`SharedSink`]s, so the caller
/// keeps its own handle to (say) the monitor and inspects it after the
/// run while the fan-out stays installed as the global sink.
pub struct FanoutSink {
    sinks: Vec<SharedSink>,
    seen: u64,
}

impl FanoutSink {
    /// A fan-out over `sinks` (forwarded to in the given order).
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        FanoutSink { sinks, seen: 0 }
    }
}

impl ProtoTrace for FanoutSink {
    fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent) {
        for sink in &self.sinks {
            sink.borrow_mut().record(t, node, event);
        }
        self.seen += 1;
    }
}

impl TraceSink for FanoutSink {
    fn record_all(&mut self, recs: &[TraceRecord]) {
        for sink in &self.sinks {
            sink.borrow_mut().record_all(recs);
        }
        self.seen += recs.len() as u64;
    }

    fn len(&self) -> u64 {
        self.seen
    }

    fn dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.borrow().dropped()).sum()
    }

    fn flush(&mut self) {
        for sink in &self.sinks {
            sink.borrow_mut().flush();
        }
    }
}

/// Shared, dynamically-dispatched sink handle.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// A [`Trace`] handle feeding a record sink, labelling records with
/// `node`. This is the telemetry-side constructor for the
/// [`proto_core::trace::Trace`] handle protocol machines carry: the sink
/// itself, upcast to the [`ProtoTrace`] it extends, so each emitted
/// event is one dynamic call into the sink.
pub fn sink_trace(sink: SharedSink, node: &'static str) -> Trace {
    Trace::to_sink(sink, node)
}

thread_local! {
    static GLOBAL_SINK: RefCell<Option<SharedSink>> = const { RefCell::new(None) };
}

/// Install a process-wide (per-thread) sink. Subsequent
/// [`global_handle`] calls feed it. Returns the previously installed
/// sink, if any.
pub fn install_global(sink: SharedSink) -> Option<SharedSink> {
    GLOBAL_SINK.with(|g| g.borrow_mut().replace(sink))
}

/// Remove the global sink, returning it for flushing/inspection.
pub fn uninstall_global() -> Option<SharedSink> {
    GLOBAL_SINK.with(|g| g.borrow_mut().take())
}

/// A clone of the currently installed global sink, if any. Lets an
/// orchestrator check whether tracing is live (and later replay worker
/// records into it) without disturbing the installation.
pub fn global_sink() -> Option<SharedSink> {
    GLOBAL_SINK.with(|g| g.borrow().clone())
}

/// A handle feeding the installed global sink (disabled when none).
pub fn global_handle(node: &'static str) -> Trace {
    GLOBAL_SINK.with(|g| match &*g.borrow() {
        Some(sink) => sink_trace(sink.clone(), node),
        None => Trace::disabled(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed a stored record through the sink's one entry point.
    trait Put {
        fn put(&mut self, rec: TraceRecord);
    }

    impl<S: TraceSink + ?Sized> Put for S {
        fn put(&mut self, rec: TraceRecord) {
            self.record(rec.t, rec.node, rec.event);
        }
    }

    fn rec(t_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t: Instant::from_nanos(t_ns),
            node: "tx",
            event,
        }
    }

    #[test]
    fn disabled_trace_never_builds() {
        let trace = Trace::disabled();
        trace.emit(Instant::ZERO, || panic!("must not be called"));
    }

    #[test]
    fn ring_sink_bounds_and_counts() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.put(rec(
                i,
                TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                },
            ));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring
            .records()
            .map(|r| match r.event {
                TraceEvent::Nak { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.count_kind("nak"), 3);
    }

    #[test]
    fn buffer_sink_drains_in_insertion_order() {
        let mut buf = BufferSink::new();
        for i in 0..100 {
            buf.put(rec(
                i,
                TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                },
            ));
        }
        assert_eq!(buf.len(), 100);
        let seqs: Vec<u64> = buf
            .take()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::Nak { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>(), "oldest first");
        // Draining empties the buffer but keeps the accepted count (the
        // parallel runner reads it after replaying records).
        assert!(buf.take().is_empty());
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn trace_feeds_shared_sink() {
        let ring: SharedSink = Rc::new(RefCell::new(RingSink::new(16)));
        let trace = sink_trace(ring.clone(), "rx");
        trace.emit(Instant::from_millis(5), || TraceEvent::StopGo {
            stop: true,
        });
        trace
            .labelled("rx2")
            .emit(Instant::from_millis(6), || TraceEvent::LinkFailed);
        assert_eq!(ring.borrow().len(), 2);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut sink = JsonlSink::to_writer(Vec::new());
        sink.put(rec(
            1_500_000_000,
            TraceEvent::CheckpointEmitted {
                index: 7,
                covered: 41,
                naks: 2,
                enforced: false,
                stop: true,
            },
        ));
        sink.put(rec(
            2_000_000_000,
            TraceEvent::Renumbered {
                old_seq: 9,
                new_seq: 33,
            },
        ));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("event").and_then(Json::as_str),
            Some("checkpoint_emitted")
        );
        assert_eq!(first.get("t").and_then(Json::as_f64), Some(1.5));
        assert_eq!(first.get("naks").and_then(Json::as_f64), Some(2.0));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("new_seq").and_then(Json::as_f64), Some(33.0));
    }

    #[test]
    fn buffer_sink_takes_in_order() {
        let mut sink = BufferSink::new();
        for i in 0..4 {
            sink.put(rec(
                i,
                TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                },
            ));
        }
        assert_eq!(sink.len(), 4);
        let records = sink.take();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].t, Instant::from_nanos(0));
        assert_eq!(records[3].t, Instant::from_nanos(3));
        // `take` drains the buffer but `len` still reports lifetime count.
        assert!(sink.take().is_empty());
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn fanout_forwards_to_all_children() {
        let a: SharedSink = Rc::new(RefCell::new(RingSink::new(8)));
        let b: SharedSink = Rc::new(RefCell::new(BufferSink::new()));
        let mut fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.put(rec(
            1,
            TraceEvent::Nak {
                seq: 7,
                cp_index: 2,
            },
        ));
        fan.put(rec(2, TraceEvent::LinkFailed));
        assert_eq!(fan.len(), 2);
        assert_eq!(a.borrow().len(), 2);
        assert_eq!(b.borrow().len(), 2);
        assert_eq!(fan.dropped(), 0);
    }

    #[test]
    fn every_event_kind_round_trips_through_jsonl() {
        let events = vec![
            TraceEvent::IFrameTx {
                seq: 3,
                retx: true,
                len: 1024,
            },
            TraceEvent::IFrameRx {
                seq: 3,
                clean: false,
                len: 1024,
            },
            TraceEvent::CheckpointEmitted {
                index: 7,
                covered: 41,
                naks: 2,
                enforced: true,
                stop: false,
            },
            TraceEvent::CheckpointReceived {
                index: 7,
                covered: 41,
                naks: 2,
            },
            TraceEvent::CheckpointLost { index: 8 },
            TraceEvent::Nak {
                seq: 9,
                cp_index: 4,
            },
            TraceEvent::Renumbered {
                old_seq: 9,
                new_seq: 33,
            },
            TraceEvent::RetxCause {
                seq: 33,
                cause: "nak",
                cp_index: 4,
            },
            TraceEvent::EnforcedRecoveryStarted { outstanding: 4 },
            TraceEvent::EnforcedRecoveryResolved,
            TraceEvent::StopGo { stop: true },
            TraceEvent::BufferWatermark {
                buffer: "tx",
                level: 64,
                rising: true,
            },
            TraceEvent::ChannelDrop { dir: "fwd" },
            TraceEvent::Control {
                kind: "srej",
                seq: 5,
            },
            TraceEvent::LinkFailed,
            TraceEvent::RunStarted,
            TraceEvent::RunFinished { deadline_hit: true },
            TraceEvent::ExperimentStarted { id: "e8" },
            TraceEvent::SenderConfig {
                w_cp_ns: 5_000_000,
                c_depth: 3,
                rtt_ns: 26_700_000,
                cp_timeout_ns: 16_000_000,
                resolving_ns: 45_210_000,
                failure_ns: 43_710_000,
            },
            TraceEvent::BufferRelease {
                seq: 12,
                held_ns: 31_337,
                cp_index: 5,
            },
            TraceEvent::ReseqHold {
                id: 40,
                held_ns: 2_500_000,
            },
            TraceEvent::TraceHeader {
                clock_domain: "wall",
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            // Deliberately awkward timestamp: exercises the f64 round trip.
            let original = rec(1_234_567_891 + i as u64, event);
            let line = original.to_json().render();
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, original, "{line}");
        }
    }

    #[test]
    fn wall_scale_timestamps_round_trip_exactly() {
        // Past 2^53 ns the f64-seconds member alone rounds; the record
        // grows an exact `t_ns` companion which parsing prefers.
        let ns = (1u64 << 53) + 1;
        let original = rec(ns, TraceEvent::LinkFailed);
        let line = original.to_json().render();
        assert!(line.contains("\"t_ns\":9007199254740993"), "{line}");
        let mut direct = String::new();
        original.render_into(&mut direct);
        assert_eq!(direct, line, "both render paths agree");
        let back = parse_line(&line).unwrap();
        assert_eq!(back.t.as_nanos(), ns);
        // Sim-scale records keep the historical single-`t` shape.
        let small = rec(1_234_567_891, TraceEvent::LinkFailed);
        assert!(!small.to_json().render().contains("t_ns"));
    }

    /// A writer that fails every write after the first `ok_writes`.
    struct FailingWriter {
        ok_writes: usize,
        accepted: Vec<u8>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            self.accepted.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_surfaces_write_errors() {
        let mut sink = JsonlSink::to_writer(FailingWriter {
            ok_writes: 0,
            accepted: Vec::new(),
        });
        sink.put(rec(
            1,
            TraceEvent::Nak {
                seq: 1,
                cp_index: 0,
            },
        ));
        sink.put(rec(
            2,
            TraceEvent::Nak {
                seq: 2,
                cp_index: 0,
            },
        ));
        // Records sit buffered until a batch boundary; the failure
        // surfaces at flush, counting the lost batch as dropped.
        assert_eq!(sink.dropped(), 0);
        let err = sink.try_flush().expect_err("write must fail");
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.len(), 0, "failed records are not counted written");
        assert_eq!(sink.error().expect("sticky error").to_string(), "disk full");
        // The error stays sticky on subsequent flushes.
        sink.put(rec(
            3,
            TraceEvent::Nak {
                seq: 3,
                cp_index: 0,
            },
        ));
        assert!(sink.try_flush().is_err());
    }

    #[test]
    fn jsonl_flushes_on_drop() {
        let accepted = Rc::new(RefCell::new(Vec::new()));

        struct SharedWriter(Rc<RefCell<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        {
            let mut sink = JsonlSink::to_writer(SharedWriter(accepted.clone()));
            sink.put(rec(1, TraceEvent::LinkFailed));
            assert!(accepted.borrow().is_empty(), "record is buffered");
        } // dropped without an explicit flush
        let text = String::from_utf8(accepted.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("link_failed"));
    }

    #[test]
    fn jsonl_batches_writes() {
        let mut sink = JsonlSink::to_writer(FailingWriter {
            ok_writes: usize::MAX,
            accepted: Vec::new(),
        });
        let n = (JsonlSink::<FailingWriter>::BATCH_BYTES / 40) as u64 + 2;
        for i in 0..n {
            sink.put(rec(
                i,
                TraceEvent::Nak {
                    seq: i,
                    cp_index: 0,
                },
            ));
        }
        assert_eq!(sink.len(), n);
        let writer = sink.into_inner();
        let text = String::from_utf8(writer.accepted).unwrap();
        assert_eq!(text.lines().count() as u64, n);
    }

    #[test]
    fn render_into_matches_ast_rendering() {
        // The direct serializer must stay byte-identical to the Json-AST
        // path for every event kind (parse_line and the offline tools
        // depend on the AST shape; JsonlSink writes the direct form).
        let events = vec![
            TraceEvent::IFrameTx {
                seq: 3,
                retx: true,
                len: 1024,
            },
            TraceEvent::CheckpointEmitted {
                index: 7,
                covered: 41,
                naks: 2,
                enforced: true,
                stop: false,
            },
            TraceEvent::EnforcedRecoveryResolved,
            TraceEvent::Nak {
                seq: 9,
                cp_index: 3,
            },
            TraceEvent::RetxCause {
                seq: 21,
                cause: "resolve",
                cp_index: 0,
            },
            TraceEvent::BufferRelease {
                seq: 12,
                held_ns: 31_337,
                cp_index: 5,
            },
            TraceEvent::ReseqHold {
                id: 40,
                held_ns: 2_500_000,
            },
            TraceEvent::BufferWatermark {
                buffer: "tx",
                level: 64,
                rising: true,
            },
            TraceEvent::SenderConfig {
                w_cp_ns: 5_000_000,
                c_depth: 3,
                rtt_ns: 26_700_000,
                cp_timeout_ns: 16_000_000,
                resolving_ns: 45_210_000,
                failure_ns: 43_710_000,
            },
            TraceEvent::TraceHeader {
                clock_domain: "sim",
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let r = rec(1_234_567_891 + i as u64, event);
            let mut direct = String::new();
            r.render_into(&mut direct);
            assert_eq!(direct, r.to_json().render());
        }
    }

    #[test]
    fn record_all_matches_per_record_dispatch() {
        let batch: Vec<TraceRecord> = (0..5)
            .map(|i| {
                rec(
                    i,
                    TraceEvent::Nak {
                        seq: i,
                        cp_index: 0,
                    },
                )
            })
            .collect();
        let mut buffered = BufferSink::new();
        buffered.record_all(&batch);
        assert_eq!(buffered.len(), 5);
        assert_eq!(buffered.take(), batch);

        let a: SharedSink = Rc::new(RefCell::new(RingSink::new(8)));
        let mut fan = FanoutSink::new(vec![a.clone()]);
        fan.record_all(&batch);
        assert_eq!(fan.len(), 5);
        assert_eq!(a.borrow().len(), 5);
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"t":1,"node":"tx"}"#).is_err());
        assert!(parse_line(r#"{"t":1,"node":"tx","event":"martian"}"#).is_err());
        // A kind no current writer emits: the old shard coordinator's
        // superstep record is outside input now, not a known event.
        let retired = r#"{"t":600,"node":"coord","event":"superstep","round":0,"shard":0,"grant_ns":600000000000,"cut_bound":false,"critical_link":0,"events":3860,"inbound":0,"outbound":0,"queue_depth":6}"#;
        assert_eq!(
            parse_line(retired).unwrap_err(),
            r#"unknown event kind "superstep""#
        );
        assert!(parse_line(r#"{"t":-1,"node":"tx","event":"link_failed"}"#).is_err());
        // Missing event-specific field.
        assert!(parse_line(r#"{"t":1,"node":"tx","event":"nak"}"#).is_err());
    }

    #[test]
    fn intern_reuses_known_and_novel_labels() {
        assert_eq!(intern("tx"), "tx");
        let novel = intern("hop3.rx");
        assert_eq!(novel, "hop3.rx");
        // A second parse of the same novel label reuses the leak.
        assert!(std::ptr::eq(novel.as_ptr(), intern("hop3.rx").as_ptr()));
    }

    #[test]
    fn global_sink_clone_matches_installed() {
        assert!(global_sink().is_none());
        let ring: SharedSink = Rc::new(RefCell::new(RingSink::new(4)));
        install_global(ring.clone());
        let observed = global_sink().expect("sink installed");
        assert!(Rc::ptr_eq(&observed, &ring));
        uninstall_global();
        assert!(global_sink().is_none());
    }

    #[test]
    fn global_sink_install_and_remove() {
        assert!(!global_handle("x").enabled());
        let ring: SharedSink = Rc::new(RefCell::new(RingSink::new(4)));
        assert!(install_global(ring).is_none());
        let h = global_handle("x");
        assert!(h.enabled());
        h.emit(Instant::ZERO, || TraceEvent::LinkFailed);
        let back = uninstall_global().unwrap();
        assert_eq!(back.borrow().len(), 1);
        assert!(!global_handle("x").enabled());
    }
}
