//! Structured telemetry for the LAMS-DLC simulation workspace.
//!
//! Three facilities, all dependency-free and deterministic:
//!
//! * [`trace`] — a stream of sim-time-stamped protocol events
//!   ([`TraceRecord`]) delivered to [`TraceSink`]s, each of which is a
//!   [`ProtoTrace`] that protocol machines' trace handles call directly. Sinks
//!   include a no-op sink (disabled tracing costs one branch per
//!   potential record), a bounded in-memory ring buffer, and a JSONL
//!   file writer. A process-wide sink can be installed so deeply nested
//!   simulation code can emit records without plumbing handles through
//!   every constructor.
//! * [`registry`] — a tiny insertion-ordered counter/gauge registry
//!   ([`Registry`]) replacing ad-hoc `Vec<(&'static str, f64)>`
//!   metric plumbing.
//! * [`json`] — a minimal JSON value model ([`Json`]) with rendering
//!   and parsing, used for machine-readable run reports. No external
//!   serialisation crates are available offline, so this is the one
//!   JSON implementation the workspace shares.

#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod trace;

pub use json::Json;
pub use registry::{is_canonical_name, CounterHandle, Registry};
pub use trace::{
    global_handle, global_sink, install_global, parse_line, sink_trace, uninstall_global,
    BufferSink, FanoutSink, JsonlSink, ProtoTrace, RingSink, SharedSink, Trace, TraceEvent,
    TraceRecord, TraceSink,
};
