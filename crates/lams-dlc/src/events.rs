//! Events surfaced by the LAMS-DLC sender to the layer above.
//!
//! The receiver has no notification stream: everything it could report
//! is a [`crate::receiver::ReceiverStats`] counter or a trace record.

use crate::frame::PacketId;
use proto_core::Instant;

/// Events emitted by the [`crate::sender::Sender`].
#[derive(Clone, Debug, PartialEq)]
pub enum SenderEvent {
    /// An I-frame was positively covered by a checkpoint and its buffer
    /// space released. `held_for_ns` is the sender-side holding time (the
    /// paper's `H_frame` observable).
    Released {
        /// The released datagram.
        packet_id: PacketId,
        /// The sequence number it was released under.
        seq: u64,
        /// Sender-buffer holding time, nanoseconds.
        held_for_ns: u64,
    },
    /// The checkpoint timer expired: entering enforced recovery, a
    /// Request-NAK is queued (§3.2).
    EnforcedRecoveryStarted {
        /// Probe id carried by the Request-NAK.
        probe: u64,
        /// When the recovery started.
        at: Instant,
    },
    /// An Enforced-NAK answered the probe; normal operation resumed.
    EnforcedRecoveryResolved {
        /// The answered probe id.
        probe: u64,
    },
    /// The failure timer expired: the link is declared failed and the
    /// network layer must be informed (§3.2). The sender stops
    /// transmitting I-frames.
    LinkFailed {
        /// When failure was declared.
        at: Instant,
    },
    /// Flow control changed the sending-rate fraction.
    RateChanged {
        /// New rate fraction in `[min_rate, 1]`.
        rate: f64,
    },
}
