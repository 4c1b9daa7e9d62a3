//! Protocol event vocabulary and the host-pluggable trace contract.
//!
//! State machines hold a cheap [`Trace`] handle and call [`Trace::emit`]
//! with a closure building the event. When tracing is disabled the
//! closure is never run, so the cost of an instrumented site is a single
//! branch on an `Option` — no allocation, no formatting.
//!
//! Persistence is the host's business: the [`ProtoTrace`] trait is the
//! only thing a protocol crate knows about. The `telemetry` crate's
//! timestamped-record sinks (JSONL writers, rings, fan-outs, the live
//! monitor) implement it directly; a bare host (the model checker, the UDP demo) can ignore
//! tracing entirely or plug in a closure-sized recorder.

use crate::time::Instant;
use std::cell::RefCell;
use std::rc::Rc;

/// One protocol event, as emitted by a state machine.
///
/// Field vocabulary: `seq` is a wire sequence number, `index` a
/// checkpoint index, `len` a payload length in bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// An I-frame left the sender (first transmission or retransmission).
    IFrameTx {
        /// Wire sequence number.
        seq: u64,
        /// True for a retransmission.
        retx: bool,
        /// Payload length in bytes.
        len: u64,
    },
    /// An I-frame arrived at the receiver.
    IFrameRx {
        /// Wire sequence number.
        seq: u64,
        /// False when the frame arrived corrupted.
        clean: bool,
        /// Payload length in bytes.
        len: u64,
    },
    /// The receiver emitted a checkpoint frame.
    CheckpointEmitted {
        /// Checkpoint index (cyclic counter on the wire).
        index: u64,
        /// Highest in-sequence frame covered.
        covered: u64,
        /// NAKs carried in this checkpoint.
        naks: u64,
        /// True when this checkpoint carries a Request-NAK reply.
        enforced: bool,
        /// True when the checkpoint signals Stop (flow control).
        stop: bool,
    },
    /// The sender received a checkpoint frame.
    CheckpointReceived {
        /// Checkpoint index.
        index: u64,
        /// Highest in-sequence frame covered (implicit-ACK horizon).
        covered: u64,
        /// NAKs carried.
        naks: u64,
    },
    /// The sender inferred a lost checkpoint from an index gap.
    CheckpointLost {
        /// Index of the missing checkpoint.
        index: u64,
    },
    /// The receiver recorded a NAK for a missing or corrupted frame.
    Nak {
        /// Wire sequence number being NAK'd.
        seq: u64,
        /// Index of the first checkpoint that will carry this NAK (the
        /// current interval closes into that checkpoint).
        cp_index: u64,
    },
    /// A NAK'd frame was renumbered with a fresh wire sequence number.
    Renumbered {
        /// Sequence number the NAK referred to.
        old_seq: u64,
        /// Fresh sequence number assigned for retransmission.
        new_seq: u64,
    },
    /// Why a retransmission happened: emitted by the sender immediately
    /// before the retransmitted copy's `IFrameTx`, carrying the causal
    /// link the latency-attribution layer keys on.
    RetxCause {
        /// Fresh wire sequence number of the retransmitted copy.
        seq: u64,
        /// Cause class: `"nak"` (checkpoint NAK), `"resolve"` (resolving
        /// timer expired), `"suspect"` (unsafe-index-gap defensive copy).
        cause: &'static str,
        /// Checkpoint index that triggered the retransmission (0 for
        /// timer-driven causes, which no checkpoint triggered).
        cp_index: u64,
    },
    /// The sender entered enforced recovery (sent a Request-NAK probe).
    EnforcedRecoveryStarted {
        /// Frames outstanding when recovery began.
        outstanding: u64,
    },
    /// Enforced recovery resolved (Enforced-NAK received or state cleared).
    EnforcedRecoveryResolved,
    /// Flow-control state observed by the sender changed.
    StopGo {
        /// True = Stop (halt new transmissions), false = Go.
        stop: bool,
    },
    /// A buffer crossed a watermark.
    BufferWatermark {
        /// Which buffer (`"tx"`, `"rx"`, `"reseq"`, ...).
        buffer: &'static str,
        /// Occupancy at the crossing.
        level: u64,
        /// True when crossing upward (filling), false when draining.
        rising: bool,
    },
    /// A frame was dropped by the channel model.
    ChannelDrop {
        /// Direction: `"fwd"` (data) or `"rev"` (control).
        dir: &'static str,
    },
    /// A baseline (HDLC) control frame was sent or processed.
    Control {
        /// Frame kind (`"rej"`, `"srej"`, `"rr"`, `"timeout"`).
        kind: &'static str,
        /// Related sequence number (0 when not applicable).
        seq: u64,
    },
    /// The sender's failure timer declared the link dead.
    LinkFailed,
    /// A simulation run began (emitted by the netsim engine before the
    /// first event is pumped). Observers reset per-run state here.
    RunStarted,
    /// A simulation run ended (the event loop drained or hit its
    /// deadline).
    RunFinished {
        /// True when the run stopped at its deadline with work still
        /// pending, false when it drained cleanly.
        deadline_hit: bool,
    },
    /// The experiment runner is about to execute one experiment; every
    /// following record up to the next marker belongs to it.
    ExperimentStarted {
        /// Experiment id (`"e1"`, ..., `"e17"`).
        id: &'static str,
    },
    /// A LAMS-DLC sender announced its timing configuration at
    /// `start()`. Carries everything an online auditor needs to bound
    /// checkpoint cadence and frame resolution for this node.
    SenderConfig {
        /// Checkpoint interval `W_cp` in nanoseconds.
        w_cp_ns: u64,
        /// Cumulation depth `C_depth`.
        c_depth: u64,
        /// Expected round-trip time `R` in nanoseconds.
        rtt_ns: u64,
        /// Checkpoint-timer timeout (`C_depth·W_cp` + slack) in ns.
        cp_timeout_ns: u64,
        /// Resolving period (`R + W_cp/2 + C_depth·W_cp` + slack) in ns.
        resolving_ns: u64,
        /// Failure-timer duration in nanoseconds.
        failure_ns: u64,
    },
    /// The sender released a buffered frame on implicit positive
    /// acknowledgement (a checkpoint covered it without NAKing it).
    BufferRelease {
        /// Wire sequence number of the released copy.
        seq: u64,
        /// Time the frame spent buffered, in nanoseconds.
        held_ns: u64,
        /// Index of the covering checkpoint whose implicit ACK released
        /// the frame.
        cp_index: u64,
    },
    /// The destination resequencer held a delivered SDU before releasing
    /// it in order (emitted only when the hold was non-zero).
    ReseqHold {
        /// End-to-end SDU id.
        id: u64,
        /// Time spent held in the resequencer, in nanoseconds.
        held_ns: u64,
    },
    /// Stream header, emitted by the host as the first record of a
    /// trace: names the clock domain every following timestamp was
    /// measured in. Streams without one are simulator traces from
    /// before the header existed (implicitly `"sim"`).
    TraceHeader {
        /// Clock domain name: `"sim"` (virtual, reproducible) or
        /// `"wall"` (monotonic real time, run-local origin).
        clock_domain: &'static str,
    },
    /// One shard's granted window within a conservative-parallel
    /// superstep, emitted by the sharded coordinator under the `"coord"`
    /// node label at the window's grant instant. Carries only
    /// deterministic fields (no wall-clock timing), so traces stay
    /// byte-identical across repeated runs at the same shard count.
    Superstep {
        /// Coordinator round index (0-based superstep counter).
        round: u64,
        /// Shard the window was granted to.
        shard: u64,
        /// Granted horizon `G_s` in nanoseconds of simulated time.
        grant_ns: u64,
        /// True when an inbound cut's `C_sender + delay` bound the
        /// grant (rather than the finish-time lower bound or deadline).
        cut_bound: bool,
        /// Global id of the binding inbound cut link — the *critical
        /// cut* (0 when `cut_bound` is false).
        critical_link: u64,
        /// Events processed in the window (pushes and arrivals; wakes
        /// are bookkeeping and excluded, so the sum over shards is
        /// invariant across shard counts).
        events: u64,
        /// Cross-shard arrivals injected at the start of the window.
        inbound: u64,
        /// Frames exported across outbound cut links during the window.
        outbound: u64,
        /// Events still pending on the shard queue at window end.
        queue_depth: u64,
    },
}

impl TraceEvent {
    /// Stable machine-readable event name (the JSONL `event` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::IFrameTx { .. } => "iframe_tx",
            TraceEvent::IFrameRx { .. } => "iframe_rx",
            TraceEvent::CheckpointEmitted { .. } => "checkpoint_emitted",
            TraceEvent::CheckpointReceived { .. } => "checkpoint_received",
            TraceEvent::CheckpointLost { .. } => "checkpoint_lost",
            TraceEvent::Nak { .. } => "nak",
            TraceEvent::Renumbered { .. } => "renumbered",
            TraceEvent::RetxCause { .. } => "retx_cause",
            TraceEvent::EnforcedRecoveryStarted { .. } => "enforced_recovery_started",
            TraceEvent::EnforcedRecoveryResolved => "enforced_recovery_resolved",
            TraceEvent::StopGo { .. } => "stop_go",
            TraceEvent::BufferWatermark { .. } => "buffer_watermark",
            TraceEvent::ChannelDrop { .. } => "channel_drop",
            TraceEvent::Control { .. } => "control",
            TraceEvent::LinkFailed => "link_failed",
            TraceEvent::RunStarted => "run_started",
            TraceEvent::RunFinished { .. } => "run_finished",
            TraceEvent::ExperimentStarted { .. } => "experiment_started",
            TraceEvent::SenderConfig { .. } => "sender_config",
            TraceEvent::BufferRelease { .. } => "buffer_release",
            TraceEvent::ReseqHold { .. } => "reseq_hold",
            TraceEvent::TraceHeader { .. } => "trace_header",
            TraceEvent::Superstep { .. } => "superstep",
        }
    }
}

/// An event sink a host plugs under protocol state machines.
///
/// Implementations receive the emitting node's label and the emission
/// time alongside the event, so a timestamped-record store (telemetry's
/// JSONL sinks) can be built on top without the protocol crates knowing
/// records exist.
pub trait ProtoTrace {
    /// Accept one event emitted at `t` by the node labelled `node`.
    fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent);
}

/// Shared, dynamically-dispatched event-sink handle.
pub type SharedTrace = Rc<RefCell<dyn ProtoTrace>>;

/// Cheap per-node tracing handle carried by protocol state machines.
///
/// Disabled handles (the default) skip event construction entirely:
/// `emit` checks one `Option` and returns.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<SharedTrace>,
    node: &'static str,
}

impl Trace {
    /// A disabled handle — every `emit` is a no-op.
    pub fn disabled() -> Self {
        Trace {
            sink: None,
            node: "",
        }
    }

    /// A handle feeding `sink`, labelling events with `node`.
    pub fn to_sink(sink: SharedTrace, node: &'static str) -> Self {
        Trace {
            sink: Some(sink),
            node,
        }
    }

    /// This handle with a different node label, sharing the same sink.
    pub fn labelled(&self, node: &'static str) -> Self {
        Trace {
            sink: self.sink.clone(),
            node,
        }
    }

    /// True when events will actually be recorded.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit one event at time `now`. The closure runs only when a sink
    /// is attached.
    #[inline]
    pub fn emit(&self, now: Instant, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(now, self.node, build());
        }
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("node", &self.node)
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountingSink {
        events: Vec<(u64, &'static str, &'static str)>,
    }

    impl ProtoTrace for CountingSink {
        fn record(&mut self, t: Instant, node: &'static str, event: TraceEvent) {
            self.events.push((t.as_nanos(), node, event.kind()));
        }
    }

    #[test]
    fn disabled_trace_never_builds() {
        let trace = Trace::disabled();
        trace.emit(Instant::ZERO, || panic!("must not be called"));
        assert!(!trace.enabled());
    }

    #[test]
    fn trace_feeds_shared_sink_with_labels() {
        let sink = Rc::new(RefCell::new(CountingSink::default()));
        let trace = Trace::to_sink(sink.clone(), "rx");
        trace.emit(Instant::from_millis(5), || TraceEvent::StopGo {
            stop: true,
        });
        trace
            .labelled("rx2")
            .emit(Instant::from_millis(6), || TraceEvent::LinkFailed);
        let events = sink.borrow().events.clone();
        assert_eq!(
            events,
            vec![
                (5_000_000, "rx", "stop_go"),
                (6_000_000, "rx2", "link_failed")
            ]
        );
    }
}
