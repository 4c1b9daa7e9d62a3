//! Destination-side resequencing and deduplication.
//!
//! Relaxing the in-sequence constraint (§2.3) moves ordering
//! responsibility from every subnet hop to the destination node: "the
//! destination node now has responsibility to provide sequencing" and —
//! because enforced recovery can duplicate frames — deduplication. The
//! [`Resequencer`] reorders datagrams by [`PacketId`] and drops
//! duplicates, exposing the buffer occupancy that §2.3 argues is the
//! (bounded) price of the relaxation.

use crate::frame::PacketId;
use bytes::Bytes;
use std::collections::BTreeMap;

/// Statistics of a resequencer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResequencerStats {
    /// Datagrams released in order.
    pub released: u64,
    /// Duplicate datagrams dropped.
    pub duplicates: u64,
    /// Datagrams accepted out of order (buffered before release).
    pub reordered: u64,
    /// Peak reorder-buffer occupancy.
    pub peak_buffered: usize,
}

/// Orders datagrams by contiguous [`PacketId`] starting from an initial
/// id (0 by default), dropping duplicates.
#[derive(Default)]
pub struct Resequencer {
    next: u64,
    buffer: BTreeMap<u64, Bytes>,
    stats: ResequencerStats,
}

impl Resequencer {
    /// Expect ids starting at `first` (usually 0).
    pub fn new(first: u64) -> Self {
        Resequencer {
            next: first,
            buffer: BTreeMap::new(),
            stats: ResequencerStats::default(),
        }
    }

    /// Offer a datagram; returns every datagram that becomes releasable in
    /// order (possibly empty if `id` is ahead of the contiguous horizon).
    pub fn offer(&mut self, id: PacketId, payload: Bytes) -> Vec<(PacketId, Bytes)> {
        let mut out = Vec::new();
        self.offer_into(id, payload, &mut out);
        out
    }

    /// Allocation-free form of [`Resequencer::offer`]: releasable
    /// datagrams are appended to `out` (not cleared first). The caller
    /// keeps one scratch `Vec` across offers instead of receiving a
    /// fresh one per datagram.
    pub fn offer_into(&mut self, id: PacketId, payload: Bytes, out: &mut Vec<(PacketId, Bytes)>) {
        let id = id.0;
        if id == self.next {
            // In-order fast path — the overwhelmingly common case on a
            // FIFO link. The buffer cannot hold `next` (it would have
            // been drained already), so no duplicate probe is needed and
            // the datagram releases without a reorder-buffer round trip.
            out.push((PacketId(id), payload));
            self.stats.released += 1;
            self.next += 1;
            while let Some(payload) = self.buffer.remove(&self.next) {
                out.push((PacketId(self.next), payload));
                self.stats.released += 1;
                self.next += 1;
            }
        } else if id < self.next || self.buffer.contains_key(&id) {
            self.stats.duplicates += 1;
            return;
        } else {
            self.stats.reordered += 1;
            self.buffer.insert(id, payload);
        }
        // Peak measures datagrams *held* awaiting order, after any release.
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
    }

    /// Next id awaited for in-order release.
    pub fn awaiting(&self) -> u64 {
        self.next
    }

    /// Datagrams currently held for reordering.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Statistics.
    pub fn stats(&self) -> ResequencerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn in_order_passthrough() {
        let mut r = Resequencer::new(0);
        for i in 0..5u64 {
            let out = r.offer(PacketId(i), b("x"));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, PacketId(i));
        }
        assert_eq!(r.stats().released, 5);
        assert_eq!(r.stats().reordered, 0);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reorders_gap() {
        let mut r = Resequencer::new(0);
        assert!(r.offer(PacketId(1), b("one")).is_empty());
        assert!(r.offer(PacketId(2), b("two")).is_empty());
        assert_eq!(r.buffered(), 2);
        let out = r.offer(PacketId(0), b("zero"));
        assert_eq!(
            out.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(r.stats().reordered, 2);
        assert_eq!(r.stats().peak_buffered, 2);
        assert_eq!(r.awaiting(), 3);
    }

    #[test]
    fn drops_duplicates() {
        let mut r = Resequencer::new(0);
        r.offer(PacketId(0), b("a"));
        assert!(r.offer(PacketId(0), b("a")).is_empty());
        // Duplicate of a still-buffered out-of-order datagram too.
        r.offer(PacketId(2), b("c"));
        assert!(r.offer(PacketId(2), b("c")).is_empty());
        assert_eq!(r.stats().duplicates, 2);
    }

    #[test]
    fn nonzero_start() {
        let mut r = Resequencer::new(100);
        assert!(r.offer(PacketId(99), b("late")).is_empty());
        assert_eq!(r.stats().duplicates, 1);
        let out = r.offer(PacketId(100), b("ok"));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn interleaved_duplicates_and_gaps() {
        let mut r = Resequencer::new(0);
        let order = [3u64, 1, 1, 0, 3, 2];
        let mut released = Vec::new();
        for id in order {
            for (pid, _) in r.offer(PacketId(id), b("p")) {
                released.push(pid.0);
            }
        }
        assert_eq!(released, vec![0, 1, 2, 3]);
        assert_eq!(r.stats().duplicates, 2);
        assert_eq!(r.stats().released, 4);
    }
}
