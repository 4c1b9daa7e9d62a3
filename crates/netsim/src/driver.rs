//! One generic driver binding any sans-IO [`Machine`] to the engine.
//!
//! Before `proto-core` existed, every protocol needed a bespoke adapter
//! struct (six of them, ~465 lines in the harness) translating between
//! its inherent API and the [`TxEndpoint`] / [`RxEndpoint`] driving
//! contract. The machines now implement the host-agnostic
//! [`SenderMachine`] / [`ReceiverMachine`] traits themselves, so a
//! single [`Driver`] covers all of them: it bridges the engine's
//! `ok: bool` channel verdict onto [`RxStatus`], aggregates holding-time
//! samples from the machine's event stream, and renders
//! [`SenderMachine::stat_pairs`] into the experiment [`Registry`].

use crate::endpoint::{FrameMeta, RxEndpoint, TxEndpoint};
use bytes::Bytes;
use proto_core::{ReceiverMachine, RxStatus, SenderMachine, WireFrame};
use sim_core::Instant;
use telemetry::Registry;

/// Generic endpoint adapter: drives any [`Machine`] under the engine.
///
/// `Driver<lams_dlc::Sender>` replaces the old `LamsTx`,
/// `Driver<hdlc::SrReceiver>` the old `SrRx`, and so on — one wrapper,
/// six protocol roles.
pub struct Driver<M> {
    /// The wrapped protocol state machine.
    pub inner: M,
    /// Holding-time samples (seconds) drained from the machine's event
    /// stream, awaiting collection by the engine.
    holding: Vec<f64>,
}

impl<M> Driver<M> {
    /// Wrap a configured machine.
    pub fn new(inner: M) -> Self {
        Driver {
            inner,
            holding: Vec::new(),
        }
    }
}

fn status(ok: bool) -> RxStatus {
    if ok {
        RxStatus::Ok
    } else {
        RxStatus::PayloadCorrupted
    }
}

impl<M> TxEndpoint for Driver<M>
where
    M: SenderMachine,
    M::Frame: WireFrame + Clone,
{
    type Frame = M::Frame;

    fn start(&mut self, now: Instant) {
        self.inner.start(now);
    }

    fn push(&mut self, id: u64, payload: Bytes) -> bool {
        self.inner.push(id, payload)
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame> {
        self.inner.poll_transmit(now)
    }

    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, ok: bool) {
        self.inner.handle_frame(now, frame, status(ok));
    }

    fn on_timeout(&mut self, now: Instant) {
        self.inner.on_timeout(now);
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.inner.poll_timeout()
    }

    fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }

    fn meta(frame: &Self::Frame) -> FrameMeta {
        FrameMeta {
            bytes: frame.wire_len(),
            is_info: frame.is_info(),
        }
    }

    fn drain_holding(&mut self, out: &mut Vec<f64>) {
        while let Some(event) = self.inner.poll_event() {
            if let Some(held_ns) = M::released_holding_ns(&event) {
                self.holding.push(held_ns as f64 / 1e9);
            }
        }
        out.append(&mut self.holding);
    }

    fn discard_events(&mut self) {
        while self.inner.poll_event().is_some() {}
    }

    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn transmissions(&self) -> u64 {
        self.inner.transmissions()
    }

    fn retransmissions(&self) -> u64 {
        self.inner.retransmissions()
    }

    fn extra_stats(&self) -> Registry {
        Registry::from_iter(SenderMachine::stat_pairs(&self.inner))
    }
}

impl<M> RxEndpoint for Driver<M>
where
    M: ReceiverMachine,
    M::Frame: WireFrame + Clone,
{
    type Frame = M::Frame;

    fn start(&mut self, now: Instant) {
        self.inner.start(now);
    }

    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, ok: bool) {
        self.inner.handle_frame(now, frame, status(ok));
    }

    fn on_timeout(&mut self, now: Instant) {
        self.inner.on_timeout(now);
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.inner.poll_timeout()
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame> {
        self.inner.poll_transmit(now)
    }

    fn poll_deliver(&mut self, now: Instant) -> Option<(u64, usize)> {
        self.inner
            .poll_deliver(now)
            .map(|d| (d.id, d.payload.len()))
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    fn meta(frame: &Self::Frame) -> FrameMeta {
        FrameMeta {
            bytes: frame.wire_len(),
            is_info: frame.is_info(),
        }
    }

    fn extra_stats(&self) -> Registry {
        Registry::from_iter(ReceiverMachine::stat_pairs(&self.inner))
    }
}
