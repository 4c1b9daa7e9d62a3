#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # harness
//!
//! Discrete-event experiment harness for the LAMS-DLC reproduction.
//!
//! * [`node`] — re-export of netsim's generic [`node::Driver`] and the
//!   sans-IO [`node::TxEndpoint`] / [`node::RxEndpoint`] contract it
//!   implements for every protocol machine;
//! * [`link`] / [`traffic`] — re-exports of the netsim channel model
//!   and SDU generators (kept at their historical harness paths);
//! * [`scenario`] / [`duplex`] / [`chain`] — thin wirings over netsim's
//!   one event loop: 2 nodes/1 link each way, 2 duplex nodes/2 links,
//!   and an N+1-node store-and-forward relay chain (run for both
//!   protocols with common random numbers);
//! * [`metrics`] — per-run measurement collection and [`metrics::RunReport`];
//! * [`parallel`] / [`runner`] — the experiment runner: worker-thread
//!   fan-out with deterministic merging, CLI parsing, JSON reports;
//! * [`profile_report`] — rendering for `repro --profile` self-profiles
//!   (JSON document, human tables, folded flamegraph stacks);
//! * [`experiments`] — the E1–E17 suite regenerating every table and
//!   figure of the paper, plus E18's long relay chain (see DESIGN.md
//!   for the index);
//! * [`report`] — plain-text table/series rendering.

pub mod chain;
pub mod duplex;
pub mod experiments;
pub mod metrics;
pub mod node;
pub mod parallel;
pub mod passes;
pub mod profile_report;
pub mod report;
pub mod runner;
pub mod scenario;

pub use netsim::{link, traffic};

pub use chain::{run_chain, run_chain_lams, run_relay_lams, run_relay_sr, RelayConfig};
pub use duplex::{run_duplex, run_duplex_lams, run_duplex_sr, DuplexReport};
pub use metrics::{Collector, RunReport};
pub use netsim::link::{Channel, DelayModel, ErrorModel, Fate, Outage};
pub use netsim::traffic::{Pattern, TrafficGen};
pub use passes::{run_multi_pass, run_multi_pass_limited, MultiPassReport, PassSummary};
pub use scenario::{run, run_gbn, run_lams, run_sr, BurstCfg, ScenarioConfig};
