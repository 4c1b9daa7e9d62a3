//! The sans-IO endpoint driving contract.
//!
//! The engine's event loop is generic over a [`TxEndpoint`] /
//! [`RxEndpoint`] pair so different protocols run over byte-for-byte
//! identical channel realisations (common random numbers — the
//! comparison the paper's §4 makes analytically). Endpoints never see
//! the event calendar: the loop polls them and owns all scheduling.

use bytes::Bytes;
use sim_core::Instant;
use telemetry::Registry;

/// Size/class metadata the link needs to serialise a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    /// Encoded length in bytes (before FEC expansion).
    pub bytes: usize,
    /// Information frame (true) or control frame (false) — selects the
    /// FEC grade.
    pub is_info: bool,
}

/// The sending side of a protocol.
pub trait TxEndpoint {
    /// The protocol's frame type.
    type Frame: Clone;

    /// Link-up notification.
    fn start(&mut self, now: Instant);
    /// Accept an SDU (returns false if the sender refused it).
    fn push(&mut self, id: u64, payload: Bytes) -> bool;
    /// Next outbound frame, if transmission is allowed now.
    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame>;
    /// Inject a frame from the reverse channel (`ok` = clean).
    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, ok: bool);
    /// Fire due timers.
    fn on_timeout(&mut self, now: Instant);
    /// Earliest pending timer/transmission instant.
    fn poll_timeout(&self) -> Option<Instant>;
    /// Sending-buffer occupancy in frames (queued + outstanding).
    fn buffered(&self) -> usize;
    /// Sender has declared the link failed.
    fn is_failed(&self) -> bool {
        false
    }
    /// Size/class of a frame.
    fn meta(frame: &Self::Frame) -> FrameMeta;
    /// Drain (holding-time, release) samples recorded since the last call:
    /// `(held_seconds)` per released frame.
    fn drain_holding(&mut self, out: &mut Vec<f64>);
    /// Current flow-controlled sending-rate fraction (1.0 when the
    /// protocol has no rate control).
    fn rate(&self) -> f64 {
        1.0
    }
    /// Total I-frame transmissions so far (first + retransmissions).
    fn transmissions(&self) -> u64;
    /// Retransmissions so far.
    fn retransmissions(&self) -> u64;
    /// Protocol-specific counters for experiment reports.
    fn extra_stats(&self) -> Registry {
        Registry::new()
    }
}

/// The receiving side of a protocol.
pub trait RxEndpoint {
    /// The protocol's frame type.
    type Frame: Clone;

    /// Link-up notification.
    fn start(&mut self, now: Instant);
    /// Inject a frame from the forward channel.
    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, ok: bool);
    /// Fire due timers (checkpoint emission etc.).
    fn on_timeout(&mut self, now: Instant);
    /// Earliest pending instant.
    fn poll_timeout(&self) -> Option<Instant>;
    /// Next outbound (control) frame.
    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame>;
    /// Next completed delivery: `(id, payload_len)`.
    fn poll_deliver(&mut self, now: Instant) -> Option<(u64, usize)>;
    /// Receive-side buffer occupancy in frames.
    fn occupancy(&self) -> usize;
    /// Drop the protocol notifications queued since the last call. The
    /// engine consumes none of them and calls this every instant, so
    /// they do not pile up for the whole run.
    fn discard_events(&mut self) {}
    /// Size/class of a frame.
    fn meta(frame: &Self::Frame) -> FrameMeta;
    /// Protocol-specific counters for experiment reports.
    fn extra_stats(&self) -> Registry {
        Registry::new()
    }
}
