#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # sim-core
//!
//! Deterministic discrete-event simulation substrate for the LAMS-DLC
//! reproduction.
//!
//! The crate provides four things and nothing protocol-specific:
//!
//! * [`Instant`] / [`Duration`] — nanosecond virtual time;
//! * [`QueueProfile`] / [`RunTimer`] — a run's event-schedule counters
//!   and the wall-clock stopwatch reported beside them (the schedule
//!   itself is netsim's lane calendar, shaped to the events its loop
//!   issues);
//! * [`SimRng`] / [`SeedSplitter`] — per-component seeded RNG streams, so
//!   protocols under comparison see *identical* channel error sequences
//!   (common random numbers);
//! * [`stats`] — streaming summaries, nearest-rank quantiles over exact
//!   samples, time-weighted averages and traces for experiment output.
//!
//! Everything downstream (channel models, the LAMS-DLC and HDLC state
//! machines, the experiment harness) is built on these primitives. The
//! design follows the sans-IO idiom: protocol code never owns a clock or a
//! socket; the simulator advances time and hands `now` in.

pub mod event_queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use event_queue::{QueueProfile, RunTimer};
pub use rng::{SeedSplitter, SimRng};
pub use time::{Duration, Instant};
