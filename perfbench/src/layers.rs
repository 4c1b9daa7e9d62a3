//! Spans recorded from outside the program: thin wrappers around the
//! interfaces each host calls, adding up the wall time spent inside.
//!
//! * [`TimedTx`] / [`TimedRx`] wrap the simulator's protocol endpoints
//!   (the sans-io machines behind `netsim::Driver`). Their time covers
//!   the machines and everything they trigger synchronously, including
//!   trace emission into the live audit.
//! * [`TimedTransport`] / [`TimedClock`] wrap the real host's datagram
//!   medium and time source.
//!
//! Cheap accessors (`poll_timeout`, `buffered`, `meta`, ...) are passed
//! through untimed: two clock reads would cost more than the call.

use bytes::Bytes;
use netsim::{FrameMeta, RxEndpoint, TxEndpoint};
use proto_core::{Clock, ClockDomain};
use sim_core::Instant;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant as Wall;

/// Nanoseconds spent inside simulator endpoints since the last
/// [`take_endpoint_ns`]. The engine owns the endpoints, so each one
/// sums locally and adds its total here when dropped.
static ENDPOINT_NS: AtomicU64 = AtomicU64::new(0);

/// Drain the endpoint time of every endpoint dropped so far.
pub fn take_endpoint_ns() -> u64 {
    ENDPOINT_NS.swap(0, Ordering::Relaxed)
}

/// Time `f`, adding its duration to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Wall::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// A sending endpoint with its time recorded.
pub struct TimedTx<T> {
    inner: T,
    ns: u64,
}

impl<T> TimedTx<T> {
    pub fn new(inner: T) -> Self {
        TimedTx { inner, ns: 0 }
    }
}

impl<T> Drop for TimedTx<T> {
    fn drop(&mut self) {
        ENDPOINT_NS.fetch_add(self.ns, Ordering::Relaxed);
    }
}

impl<T: TxEndpoint> TxEndpoint for TimedTx<T> {
    type Frame = T::Frame;

    fn start(&mut self, now: Instant) {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.start(now))
    }
    fn push(&mut self, id: u64, payload: Bytes) -> bool {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.push(id, payload))
    }
    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.poll_transmit(now))
    }
    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, ok: bool) {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.handle_frame(now, frame, ok))
    }
    fn on_timeout(&mut self, now: Instant) {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.on_timeout(now))
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
        T::meta(frame)
    }
    fn drain_holding(&mut self, out: &mut Vec<f64>) {
        self.inner.drain_holding(out)
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
    fn extra_stats(&self) -> telemetry::Registry {
        self.inner.extra_stats()
    }
}

/// A receiving endpoint with its time recorded.
pub struct TimedRx<R> {
    inner: R,
    ns: u64,
}

impl<R> TimedRx<R> {
    pub fn new(inner: R) -> Self {
        TimedRx { inner, ns: 0 }
    }
}

impl<R> Drop for TimedRx<R> {
    fn drop(&mut self) {
        ENDPOINT_NS.fetch_add(self.ns, Ordering::Relaxed);
    }
}

impl<R: RxEndpoint> RxEndpoint for TimedRx<R> {
    type Frame = R::Frame;

    fn start(&mut self, now: Instant) {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.start(now))
    }
    fn handle_frame(&mut self, now: Instant, frame: Self::Frame, ok: bool) {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.handle_frame(now, frame, ok))
    }
    fn on_timeout(&mut self, now: Instant) {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.on_timeout(now))
    }
    fn poll_timeout(&self) -> Option<Instant> {
        self.inner.poll_timeout()
    }
    fn poll_transmit(&mut self, now: Instant) -> Option<Self::Frame> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.poll_transmit(now))
    }
    fn poll_deliver(&mut self, now: Instant) -> Option<(u64, usize)> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.poll_deliver(now))
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn meta(frame: &Self::Frame) -> FrameMeta {
        R::meta(frame)
    }
    fn extra_stats(&self) -> telemetry::Registry {
        self.inner.extra_stats()
    }
}

/// The host's datagram medium with its time recorded.
pub struct TimedTransport<T> {
    inner: T,
    pub ns: u64,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport { inner, ns: 0 }
    }
}

impl<T: lams_dlc_io::Transport> lams_dlc_io::Transport for TimedTransport<T> {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.send_data(datagram))
    }
    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.recv_data(buf))
    }
    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.send_feedback(datagram))
    }
    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        let inner = &mut self.inner;
        timed(&mut self.ns, || inner.recv_feedback(buf))
    }
}

/// The host's time source with its time recorded (reads and sleeps).
pub struct TimedClock<C> {
    inner: C,
    pub ns: Cell<u64>,
}

impl<C> TimedClock<C> {
    pub fn new(inner: C) -> Self {
        TimedClock {
            inner,
            ns: Cell::new(0),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut ns = self.ns.get();
        let out = timed(&mut ns, f);
        self.ns.set(ns);
        out
    }
}

impl<C: Clock> Clock for TimedClock<C> {
    fn now(&self) -> Instant {
        self.timed(|| self.inner.now())
    }
    fn sleep(&self, d: proto_core::Duration) {
        self.timed(|| self.inner.sleep(d))
    }
    fn domain(&self) -> ClockDomain {
        self.inner.domain()
    }
}
