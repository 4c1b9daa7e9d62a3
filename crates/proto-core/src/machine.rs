//! The sans-IO state-machine contract.
//!
//! Every ARQ engine in this workspace — `lams_dlc::{Sender, Receiver}`,
//! `hdlc::{SrSender, SrReceiver, GbnSender, GbnReceiver}` — is a pure
//! state machine: no sockets, no clocks, no threads. A *host* (the
//! netsim driver, a real UDP event loop, the model checker) owns I/O and
//! time and pumps the machine through this trait family:
//!
//! * [`Machine`] — the shared lifecycle: frame ingress/egress, timer
//!   scheduling, event draining, trace attachment;
//! * [`SenderMachine`] / [`ReceiverMachine`] — the role-specific halves
//!   (SDU admission and statistics vs. in-order delivery);
//! * [`WireFrame`] — what a host needs to account for a frame on the
//!   wire without understanding it (encoded length, data-vs-control).
//!
//! The contract is deliberately poll-shaped: hosts call
//! [`Machine::poll_transmit`] until `None` after *every* entry point,
//! honour [`Machine::poll_timeout`] by calling [`Machine::on_timeout`]
//! at (or after) the requested instant, and drain
//! [`Machine::poll_event`] at their leisure. Nothing happens between
//! calls, which is what makes the machines model-checkable.
//!
//! Only senders have a notification stream, and only for what a host
//! can act on: buffer releases (holding-time statistics), and for
//! LAMS-DLC enforced recovery, link failure and rate changes. Every
//! receiver has `Event = ()`: what it could report is a counter in its
//! statistics or a trace record, so nothing is queued for a host to
//! drain.

use crate::time::Instant;
use crate::trace::Trace;
use bytes::Bytes;

/// Physical-layer verdict on an arriving frame.
///
/// The header always survives (the paper's model: address/control fields
/// are FEC-protected separately), so a frame is either fully intact or
/// carries a corrupted payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxStatus {
    /// Frame arrived intact.
    Ok,
    /// Header intact, payload corrupted (detected via CRC).
    PayloadCorrupted,
}

/// One SDU released in order by a receiver, host-facing view.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivered {
    /// End-to-end SDU id assigned by the pushing host.
    pub id: u64,
    /// The SDU payload.
    pub payload: Bytes,
}

/// Host-side frame accounting: what the wire sees.
pub trait WireFrame {
    /// Encoded size of this frame in bytes (header + payload + FCS).
    fn wire_len(&self) -> usize;
    /// True for data (I-) frames, false for control frames.
    fn is_info(&self) -> bool;
}

/// The lifecycle shared by every protocol state machine.
pub trait Machine {
    /// Frame type exchanged with the peer machine.
    type Frame;
    /// Host-visible notification type drained via [`Machine::poll_event`].
    type Event;

    /// Begin operating at `now`: arm timers, emit configuration traces.
    fn start(&mut self, now: Instant);

    /// Process one frame that arrived at `now` with the given
    /// physical-layer verdict.
    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, status: RxStatus);

    /// Next frame ready to leave at `now`, if any. Hosts call this in a
    /// loop until `None` after every other entry point.
    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame>;

    /// The next instant at which [`Machine::on_timeout`] must run, if a
    /// timer is armed.
    fn poll_timeout(&self) -> Option<Instant>;

    /// Fire due timers. Hosts call this once `now` reaches the instant
    /// returned by [`Machine::poll_timeout`].
    fn on_timeout(&mut self, now: Instant);

    /// Drain one pending host notification, oldest first.
    ///
    /// Machines without a notification stream (`Event = ()`) inherit
    /// this default and report none.
    fn poll_event(&mut self) -> Option<Self::Event> {
        None
    }

    /// Attach an event-sink handle. The default handle is
    /// [`Trace::disabled`]; this single setter replaces the per-struct
    /// `with_trace` plumbing the machines used to duplicate.
    fn set_trace(&mut self, trace: Trace);

    /// Builder-style [`Machine::set_trace`].
    fn with_trace(mut self, trace: Trace) -> Self
    where
        Self: Sized,
    {
        self.set_trace(trace);
        self
    }
}

/// The sending half: SDU admission, link health, wire statistics.
pub trait SenderMachine: Machine {
    /// Offer one SDU for transmission. Returns false when the machine's
    /// admission queue is full and the SDU was not accepted.
    fn push(&mut self, id: u64, payload: Bytes) -> bool;

    /// SDUs currently queued or awaiting acknowledgement.
    fn buffered(&self) -> usize;

    /// True once the machine has declared the link dead (failure timer).
    fn is_failed(&self) -> bool {
        false
    }

    /// Current flow-control rate multiplier in `[0, 1]`.
    fn rate(&self) -> f64 {
        1.0
    }

    /// Info frames sent so far (first transmissions + retransmissions).
    fn transmissions(&self) -> u64;

    /// Retransmitted info frames so far.
    fn retransmissions(&self) -> u64;

    /// If `event` reports an SDU released from the retransmission
    /// buffer, the nanoseconds it was held; `None` otherwise. Hosts use
    /// this to aggregate holding-time distributions without knowing the
    /// machine's event type.
    fn released_holding_ns(event: &Self::Event) -> Option<u64> {
        let _ = event;
        None
    }

    /// Protocol-specific counters as `(canonical name, value)` pairs.
    fn stat_pairs(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The receiving half: in-order delivery and occupancy reporting.
pub trait ReceiverMachine: Machine {
    /// Next SDU whose processing completed by `now`, in delivery order.
    fn poll_deliver(&mut self, now: Instant) -> Option<Delivered>;

    /// Frames currently held (processing queue or resequencing buffer).
    fn occupancy(&self) -> usize;

    /// Protocol-specific counters as `(canonical name, value)` pairs.
    fn stat_pairs(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
