//! Endpoint driving contract — the historical home of the per-protocol
//! adapters.
//!
//! The six bespoke adapter structs that used to live here (`LamsTx`,
//! `LamsRx`, `SrTx`, `SrRx`, `GbnTx`, `GbnRx` — ~465 lines of glue) are
//! gone: the protocol state machines implement the host-agnostic
//! [`proto_core::Machine`](netsim::Machine) trait family themselves,
//! and netsim's one generic [`Driver`] binds any of them to the
//! engine's [`TxEndpoint`] / [`RxEndpoint`] contract. This module keeps
//! the harness's historical import paths alive.

pub use netsim::driver::Driver;
pub use netsim::endpoint::{FrameMeta, RxEndpoint, TxEndpoint};
