#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # netsim
//!
//! Discrete-event network simulation engine over directed links.
//!
//! One event loop, [`Engine`], drives protocol endpoints wired over any
//! set of directed links. The harness crate's point-to-point,
//! full-duplex and store-and-forward relay runners are all thin
//! wirings over it, which guarantees they share *identical* event
//! scheduling, channel realisations and pump semantics. Every run is a
//! plain call on the caller's thread:
//!
//! * [`endpoint`] — the sans-IO driving contract ([`TxEndpoint`] /
//!   [`RxEndpoint`]) the event loop polls;
//! * [`driver`] — [`Driver`], the one generic adapter binding any
//!   [`proto_core::Machine`] to that contract (no per-protocol glue);
//! * [`channel`] — stochastic bit-error processes (i.i.d.
//!   [`channel::UniformBer`], continuous-time burst
//!   [`channel::GilbertElliott`]) — simulator-side substrate, moved out
//!   of `fec` so the codec crate stays host-agnostic;
//! * [`link`] — the directional channel model: serialization, fixed or
//!   orbital propagation delay, uniform/burst error processes, outages;
//! * [`traffic`] — CBR / Poisson / on-off / batch SDU generators;
//! * [`wiring`] — the ids wiring endpoints, links and collectors
//!   together, and the [`WiringError`] a bad wiring builds into;
//! * [`collect`] — the [`Collect`] measurement trait the loop feeds;
//! * [`event_queue`] — [`Calendar`], the loop's event queue: a lane
//!   calendar with one push slot per source, one FIFO arrival lane per
//!   link, a sample slot and a wake slot, popped in canonical order
//!   without a sort;
//! * [`engine`] — [`EngineBuilder`] / [`Engine`]: the builder that
//!   registers and checks the wiring, and the event loop (push / arrive
//!   / sample / wake).
//!
//! Determinism: all randomness flows through per-stream
//! [`sim_core::SeedSplitter`] RNGs owned by channels and traffic
//! generators (common random numbers), and events at the same instant
//! dispatch in one canonical order (see [`engine`]) — a run is a pure
//! function of its configuration and seed.

pub mod channel;
pub mod collect;
pub mod driver;
pub mod endpoint;
pub mod engine;
pub mod event_queue;
pub mod link;
pub mod traffic;
pub mod wiring;

pub use channel::{ErrorProcess, GeState, GilbertElliott, Lossless, UniformBer};
pub use collect::Collect;
pub use driver::Driver;
pub use endpoint::{FrameMeta, RxEndpoint, TxEndpoint};
pub use engine::{Engine, EngineBuilder, EngineRun};
pub use event_queue::Calendar;
pub use link::{Channel, DelayModel, ErrorModel, Fate, Outage};
pub use proto_core::{Machine, ReceiverMachine, SenderMachine};
pub use traffic::{Pattern, TrafficGen};
pub use wiring::{ColId, EndpointId, LinkId, RxId, TxId, WiringError};
