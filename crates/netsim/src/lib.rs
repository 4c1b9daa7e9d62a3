#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # netsim
//!
//! Topology-generic discrete-event network simulation engine.
//!
//! One event loop, [`ShardSim`], drives an arbitrary directed-link
//! topology of protocol endpoints. The harness crate's point-to-point,
//! full-duplex and store-and-forward relay runners are all thin
//! topology builders over it, which guarantees they share *identical*
//! event scheduling, channel realisations and pump semantics. Every run
//! is a plain call on the caller's thread:
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
//! * [`topology`] — nodes with [`NodeRole`]s, directed links, and the
//!   id types wiring endpoints to them;
//! * [`collect`] — the [`Collect`] measurement trait the loop feeds;
//! * [`event_queue`] — [`Calendar`], the loop's event queue: a lane
//!   calendar with one push slot per source, one FIFO arrival lane per
//!   link, a sample slot and a wake slot, popped in canonical order
//!   without a sort;
//! * [`shard`] — [`ShardBuilder`] / [`ShardSim`]: the builder that
//!   wires and checks a topology, and the event loop (push / arrive /
//!   sample / wake).
//!
//! Determinism: all randomness flows through per-stream
//! [`sim_core::SeedSplitter`] RNGs owned by channels and traffic
//! generators (common random numbers), and events at the same instant
//! dispatch in one canonical order (see [`shard`]) — a run is a pure
//! function of its configuration and seed.

pub mod channel;
pub mod collect;
pub mod driver;
pub mod endpoint;
pub mod event_queue;
pub mod link;
pub mod shard;
pub mod topology;
pub mod traffic;

pub use channel::{ErrorProcess, GeState, GilbertElliott, Lossless, UniformBer};
pub use collect::Collect;
pub use driver::Driver;
pub use endpoint::{FrameMeta, RxEndpoint, TxEndpoint};
pub use event_queue::Calendar;
pub use link::{Channel, DelayModel, ErrorModel, Fate, Outage};
pub use proto_core::{Machine, ReceiverMachine, SenderMachine};
pub use shard::{FinishedShard, ShardBuilder, ShardSim, SoloRun};
pub use topology::{
    ColId, EndpointId, LinkId, LinkSpec, NodeId, NodeRole, RxId, Topology, TopologyError, TxId,
};
pub use traffic::{Pattern, TrafficGen};
