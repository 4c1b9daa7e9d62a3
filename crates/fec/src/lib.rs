#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # fec
//!
//! Forward-error-correction and channel-error substrate for the LAMS-DLC
//! reproduction.
//!
//! §2.1 of the paper makes FEC "an integral component" of any DLC for the
//! laser inter-satellite link and builds on Paul et al.'s interleaved
//! convolutional codec; §2.2 assumption 4 requires *two* FEC grades (a
//! stronger one for control frames, since LAMS-DLC forbids piggybacking).
//! This crate implements the whole pipeline from scratch:
//!
//! * [`bits::BitBuf`] — a compact bit buffer, MSB-first;
//! * [`crc`] — CRC-16/X.25 (HDLC FCS) and CRC-32 frame checks (detectable
//!   errors, paper assumption 9). The CRC-32 runs a carry-less-multiply
//!   folding kernel on x86_64 CPUs with PCLMULQDQ (detected at run time;
//!   16-byte blocks, a zero-byte front pad whose effect the seed register
//!   cancels, a Barrett reduction) and portable slicing-by-8 tables on
//!   every other target and for inputs under 16 bytes — the same value
//!   either way;
//! * [`conv`] / [`viterbi`] — the K=7, rate-1/2 (171, 133) convolutional
//!   code with a hard-decision Viterbi decoder;
//! * [`interleave`] — block interleaver turning mispointing bursts into
//!   isolated errors;
//! * [`codec`] — the composed [`codec::LinkCodec`] pipeline and the
//!   analytic [`codec::FecGrade`] residual-BER model used by the fast
//!   simulation path and the closed-form analysis.
//!
//! The stochastic bit-error *processes* that drive these codecs in
//! simulation live in `netsim::channel`: they need the simulator's
//! clock and seeded RNG streams, while this crate stays host-agnostic
//! (the protocol crates use its CRCs on real I/O paths too).
//!
//! `unsafe` is denied crate-wide except in the CRC-32 folding kernel
//! (`crc::clmul`): calling its `#[target_feature]` function after the
//! CPU check, and its 16-byte loads. Each block states that argument.

pub mod bits;
pub mod codec;
pub mod conv;
pub mod crc;
pub mod interleave;
pub mod viterbi;

pub use bits::BitBuf;
pub use codec::{DecodeOutcome, FecGrade, LinkCodec};
pub use conv::{ConvCode, CCSDS_K7};
pub use crc::{Crc16Ccitt, Crc32};
pub use interleave::BlockInterleaver;
pub use viterbi::Viterbi;
