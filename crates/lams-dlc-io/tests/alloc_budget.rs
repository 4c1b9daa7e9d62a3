//! Heap traffic of the real-host transfer, counted per SDU.
//!
//! The binary runs under a counting global allocator and holds one
//! test, which reads the count of its own thread only. A lossy
//! 2,000-SDU transfer over the in-memory transport and a manual clock
//! may make at most two allocation events per SDU: shared pump
//! payloads, recycled datagram buffers and linear cumulative NAK lists
//! keep the per-frame path free of the allocator.

use lams_dlc_io::{run_transfer, IoConfig, MemTransport};
use proto_core::ManualClock;

#[global_allocator]
static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;

#[test]
fn lossy_transfer_allocates_at_most_twice_per_sdu() {
    let cfg = IoConfig {
        sdus: 2_000,
        payload_len: 64,
        drop_every: 7,
        corrupt_every: 13,
        ..IoConfig::default()
    };
    let before = profile::alloc::thread_allocs();
    let s = run_transfer(&cfg, &ManualClock::new(), &mut MemTransport::new())
        .expect("lossy manual-clock transfer");
    let allocs = profile::alloc::thread_allocs() - before;
    assert_eq!(s.delivered, cfg.sdus);
    assert!(s.drops_injected > 0 && s.corruptions_injected > 0);
    let per_sdu = allocs as f64 / cfg.sdus as f64;
    eprintln!("{allocs} allocations, {per_sdu:.2} per SDU");
    assert!(per_sdu <= 2.0, "{per_sdu:.2} allocations per SDU");
}
