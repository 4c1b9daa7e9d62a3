#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # proto-core
//!
//! Host-agnostic substrate for the LAMS-DLC reproduction's protocol
//! state machines. This crate sits at the bottom of the workspace's
//! dependency graph — it knows nothing about the simulator, telemetry
//! sinks, or sockets, and only [`WallClock`] touches the calling thread
//! (it parks it, and on Linux sets its timer slack so wake-ups are
//! punctual) — and provides exactly six things:
//!
//! * [`Instant`] / [`Duration`] — plain-integer nanosecond time, with no
//!   clock source attached (re-exported by `sim-core`, so simulator code
//!   keeps its historical import paths), and [`earliest`], the earlier
//!   of two optional deadlines;
//! * [`Clock`] / [`ClockDomain`] — the pluggable time-source contract
//!   hosts implement: [`ManualClock`] for virtual (simulated, or
//!   test-faked) time, [`WallClock`] for monotonic real time;
//! * [`TraceEvent`] / [`ProtoTrace`] / [`Trace`] — the protocol event
//!   vocabulary and the pluggable sink contract hosts implement
//!   (every `telemetry` record sink is one);
//! * [`Machine`] / [`SenderMachine`] / [`ReceiverMachine`] — the sans-IO
//!   state-machine contract every ARQ engine implements, letting one
//!   generic driver run any protocol under the simulator, over real UDP
//!   sockets, or inside the adversarial model checker;
//! * [`SeqWindow`] / [`SeqSet`] — per-frame state keyed by a monotone
//!   sequence number, shared by the LAMS sender's retransmission
//!   buffer and the live monitor;
//! * [`seq::compress`] / [`seq::expand`] — sequence numbers to and from
//!   their wire field modulo the numbering size, for both wire codecs.
//!
//! The layering is enforced in CI: `cargo tree -i sim-core` and
//! `cargo tree -i telemetry` must never reach `proto-core`, `lams-dlc`
//! or `hdlc`.

pub mod clock;
pub mod machine;
pub mod seq;
pub mod time;
pub mod trace;
pub mod window;

pub use clock::{Clock, ClockDomain, ManualClock, WallClock};
pub use machine::{Delivered, Machine, ReceiverMachine, RxStatus, SenderMachine, WireFrame};
pub use time::{earliest, Duration, Instant};
pub use trace::{ProtoTrace, SharedTrace, Trace, TraceEvent};
pub use window::{SeqSet, SeqWindow, WINDOW_CAP};
