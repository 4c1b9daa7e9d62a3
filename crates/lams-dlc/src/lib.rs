#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # lams-dlc
//!
//! A from-scratch implementation of **LAMS-DLC**, the data-link control
//! protocol of Ward & Choi, *The LAMS-DLC ARQ Protocol* (Auburn CSE-91-03,
//! 1991): a NAK-based ARQ tailored to low-altitude multiple-satellite
//! (LAMS) laser links — long propagation delay, high residual error rates,
//! very high bandwidth, and short link lifetimes.
//!
//! ## Protocol in one paragraph
//!
//! The receiver emits a **Check-Point command** every `W_cp`; each carries
//! the sequence numbers of frames found erroneous during the last
//! `C_depth` intervals (**cumulative NAK**) plus a coverage horizon that
//! implicitly *positively* acknowledges everything else, releasing sender
//! buffer space. Retransmissions take **fresh sequence numbers** (legal
//! because in-sequence delivery is relaxed; the destination
//! [`Resequencer`] restores order and drops duplicates), which bounds the
//! numbering size by the **resolving period** `R + W_cp/2 + C_depth·W_cp`
//! and lets the receiver detect losses by sequence gaps. If checkpoints
//! stop arriving for `C_depth·W_cp` the sender probes with a
//! **Request-NAK** (enforced recovery); no **Enforced-NAK** within the
//! failure window ⇒ the link is declared failed. A **Stop-Go** bit in
//! every checkpoint drives sender-side rate control.
//!
//! ## Crate layout
//!
//! * [`config::LamsConfig`] — parameters and the derived bounds
//!   (resolving period, numbering size, timers);
//! * [`frame`] / [`wire`] — frame types and the byte-level format;
//! * [`sender::Sender`] / [`receiver::Receiver`] — the two sans-IO state
//!   machines;
//! * [`flow::RateController`] — Stop-Go rate control;
//! * [`resequencer::Resequencer`] — destination-side ordering/dedup;
//! * [`events`] — notifications surfaced to the layer above;
//! * [`pump`] — the host loop that drives a sender/receiver pair over a
//!   [`pump::Link`], shared by the real-socket host and the model
//!   checker.
//!
//! ## Example
//!
//! ```
//! use lams_dlc::{LamsConfig, Sender, Receiver, PacketId, RxStatus};
//! use bytes::Bytes;
//! use proto_core::Instant;
//!
//! let cfg = LamsConfig::paper_default();
//! let mut tx = Sender::new(cfg.clone());
//! let mut rx = Receiver::new(cfg.clone());
//! let now = Instant::ZERO;
//! tx.start(now);
//! rx.start(now);
//!
//! tx.push(PacketId(0), Bytes::from_static(b"hello")).unwrap();
//! let frame = tx.poll_transmit(now).unwrap();
//! // (a real run puts the frame through a channel model)
//! rx.handle_frame(now + cfg.expected_rtt / 2, frame, RxStatus::Ok);
//! let d = rx.poll_deliver(now + cfg.expected_rtt).unwrap();
//! assert_eq!(d.packet_id, PacketId(0));
//! ```

pub mod config;
pub mod dedup;
pub mod events;
pub mod flow;
pub mod frame;
pub mod pump;
pub mod receiver;
pub mod resequencer;
pub mod sender;
pub mod wire;

pub use config::{FlowConfig, LamsConfig};
pub use dedup::DedupWindow;
pub use events::SenderEvent;
pub use flow::RateController;
pub use frame::{CheckPoint, ControlFrame, Frame, InfoFrame, PacketId, RxStatus, StopGo};
pub use receiver::{Delivery, Receiver, ReceiverStats};
pub use resequencer::{Resequencer, ResequencerStats};
pub use sender::{QueueFull, Sender, SenderState, SenderStats};

/// A trace sink for the machines' unit tests, which read what a
/// machine reports on its trace.
#[cfg(test)]
pub(crate) mod recorded {
    use proto_core::{Instant, ProtoTrace, Trace, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Every event recorded, oldest first.
    #[derive(Default)]
    pub(crate) struct Recorded(pub Vec<TraceEvent>);

    impl ProtoTrace for Recorded {
        fn record(&mut self, _: Instant, _: &'static str, event: TraceEvent) {
            self.0.push(event);
        }
    }

    /// A trace handle labelled `node` feeding a fresh [`Recorded`].
    pub(crate) fn recorder(node: &'static str) -> (Trace, Rc<RefCell<Recorded>>) {
        let sink = Rc::new(RefCell::new(Recorded::default()));
        (Trace::to_sink(sink.clone(), node), sink)
    }
}
