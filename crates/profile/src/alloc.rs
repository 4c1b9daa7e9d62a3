//! A counting global allocator wrapper.
//!
//! [`CountingAlloc`] forwards to the system allocator and counts
//! allocation events and requested bytes in relaxed atomics — one
//! `fetch_add` pair per allocation, plus a thread-local count, and
//! nothing on the free path. A binary
//! opts in by declaring it as its `#[global_allocator]` (the `bench`
//! crate does this behind its `alloc-profile` feature); everything else
//! pays nothing.
//!
//! [`snapshot`] reads the totals. It returns `None` until the first
//! counted allocation, which doubles as runtime detection: a binary
//! that never installed the wrapper reports "no allocation data" rather
//! than a misleading zero. [`thread_allocs`] counts the calling
//! thread's allocation events alone, which other threads of a test
//! harness cannot disturb.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator itself may touch it.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events (alloc + realloc) the calling thread has made so
/// far; always 0 when no counting allocator is installed.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    // Gone while the thread's locals are being torn down: skip.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Counting totals at one instant; deltas between two snapshots bound
/// the allocation traffic of the code in between.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (alloc + realloc) since process start.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counts accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Current totals, or `None` when no counting allocator is installed
/// in this binary (nothing was ever counted).
pub fn snapshot() -> Option<AllocSnapshot> {
    let allocs = ALLOCS.load(Relaxed);
    if allocs == 0 {
        return None;
    }
    Some(AllocSnapshot {
        allocs,
        bytes: BYTES.load(Relaxed),
    })
}

/// The wrapper allocator. Declare as the binary's global allocator:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: all methods delegate directly to `System`, which upholds the
// GlobalAlloc contract; the wrapper only adds relaxed atomic counting
// and a thread-local count that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_saturates_and_counts() {
        let a = AllocSnapshot {
            allocs: 10,
            bytes: 1000,
        };
        let b = AllocSnapshot {
            allocs: 14,
            bytes: 1500,
        };
        assert_eq!(
            b.since(&a),
            AllocSnapshot {
                allocs: 4,
                bytes: 500
            }
        );
        assert_eq!(a.since(&b), AllocSnapshot::default());
    }
}
