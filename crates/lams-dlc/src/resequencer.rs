//! Destination-side resequencing and deduplication.
//!
//! Relaxing the in-sequence constraint (§2.3) moves ordering
//! responsibility from every subnet hop to the destination node: "the
//! destination node now has responsibility to provide sequencing" and —
//! because enforced recovery can duplicate frames — deduplication. The
//! [`Resequencer`] reorders datagrams by [`PacketId`] and drops
//! duplicates, exposing the buffer occupancy that §2.3 argues is the
//! (bounded) price of the relaxation.
//!
//! Held datagrams sit in a [`SeqWindow`] keyed by packet id: the ids
//! awaiting order form one narrow band above the next expected id, so
//! the buffer is a dense ring. Ids [`proto_core::WINDOW_CAP`] or more
//! above the ring's lowest, which only a hostile peer sends, go to the
//! window's ordered spill map instead of growing the ring.

use crate::frame::PacketId;
use bytes::Bytes;
use proto_core::SeqWindow;

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
    buffer: SeqWindow<Bytes>,
    stats: ResequencerStats,
}

impl Resequencer {
    /// Expect ids starting at `first` (usually 0).
    pub fn new(first: u64) -> Self {
        Resequencer {
            next: first,
            buffer: SeqWindow::default(),
            stats: ResequencerStats::default(),
        }
    }

    /// Offer a datagram; every datagram that becomes releasable in order
    /// is appended to `out` (not cleared first), possibly none if `id`
    /// is ahead of the contiguous horizon. The caller keeps one scratch
    /// `Vec` across offers.
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
            while let Some(payload) = self.buffer.remove(self.next) {
                out.push((PacketId(self.next), payload));
                self.stats.released += 1;
                self.next += 1;
            }
        } else if id < self.next || self.buffer.contains(id) {
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    /// Offer `id` and return the ids it releases, reusing `out`.
    fn ids(r: &mut Resequencer, out: &mut Vec<(PacketId, Bytes)>, id: u64) -> Vec<u64> {
        out.clear();
        r.offer_into(PacketId(id), b("p"), out);
        out.iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn in_order_passthrough() {
        let (mut r, mut out) = (Resequencer::new(0), Vec::new());
        for i in 0..5u64 {
            assert_eq!(ids(&mut r, &mut out, i), vec![i]);
        }
        assert_eq!(r.stats().released, 5);
        assert_eq!(r.stats().reordered, 0);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reorders_gap() {
        let (mut r, mut out) = (Resequencer::new(0), Vec::new());
        r.offer_into(PacketId(1), b("one"), &mut out);
        r.offer_into(PacketId(2), b("two"), &mut out);
        assert!(out.is_empty());
        assert_eq!(r.buffered(), 2);
        r.offer_into(PacketId(0), b("zero"), &mut out);
        let want = [(0, "zero"), (1, "one"), (2, "two")];
        let want: Vec<(PacketId, Bytes)> = want.iter().map(|&(i, s)| (PacketId(i), b(s))).collect();
        assert_eq!(out, want);
        assert_eq!(r.stats().reordered, 2);
        assert_eq!(r.stats().peak_buffered, 2);
        assert_eq!(r.awaiting(), 3);
    }

    #[test]
    fn appends_without_clearing() {
        let (mut r, mut out) = (Resequencer::new(0), Vec::new());
        r.offer_into(PacketId(0), b("a"), &mut out);
        r.offer_into(PacketId(1), b("b"), &mut out);
        assert_eq!(out.len(), 2, "offer_into appends to what the caller holds");
    }

    #[test]
    fn drops_duplicates() {
        let (mut r, mut out) = (Resequencer::new(0), Vec::new());
        ids(&mut r, &mut out, 0);
        assert!(ids(&mut r, &mut out, 0).is_empty());
        // Duplicate of a still-buffered out-of-order datagram too.
        ids(&mut r, &mut out, 2);
        assert!(ids(&mut r, &mut out, 2).is_empty());
        assert_eq!(r.stats().duplicates, 2);
    }

    #[test]
    fn nonzero_start() {
        let (mut r, mut out) = (Resequencer::new(100), Vec::new());
        assert!(ids(&mut r, &mut out, 99).is_empty());
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(ids(&mut r, &mut out, 100), vec![100]);
    }

    #[test]
    fn interleaved_duplicates_and_gaps() {
        let (mut r, mut out) = (Resequencer::new(0), Vec::new());
        let mut released = Vec::new();
        for id in [3u64, 1, 1, 0, 3, 2] {
            released.extend(ids(&mut r, &mut out, id));
        }
        assert_eq!(released, vec![0, 1, 2, 3]);
        assert_eq!(r.stats().duplicates, 2);
        assert_eq!(r.stats().released, 4);
    }

    #[test]
    fn far_ahead_ids_are_held_exactly() {
        let (mut r, mut out) = (Resequencer::new(0), Vec::new());
        let far = 1 << 40;
        assert!(ids(&mut r, &mut out, far).is_empty());
        assert!(ids(&mut r, &mut out, 2).is_empty());
        assert!(
            ids(&mut r, &mut out, far).is_empty(),
            "duplicate of a far id"
        );
        assert_eq!(ids(&mut r, &mut out, 0), vec![0]);
        assert_eq!(ids(&mut r, &mut out, 1), vec![1, 2]);
        assert_eq!((r.buffered(), r.stats().duplicates), (1, 1));
    }

    /// The resequencer as it was on an ordered map: the reference the
    /// windowed buffer must agree with.
    struct Oracle {
        next: u64,
        buffer: BTreeMap<u64, Bytes>,
        stats: ResequencerStats,
    }

    impl Oracle {
        fn offer(&mut self, id: u64, payload: Bytes, out: &mut Vec<(PacketId, Bytes)>) {
            if id < self.next || self.buffer.contains_key(&id) {
                self.stats.duplicates += 1;
                return;
            }
            if id != self.next {
                self.stats.reordered += 1;
            }
            self.buffer.insert(id, payload);
            while let Some(payload) = self.buffer.remove(&self.next) {
                out.push((PacketId(self.next), payload));
                self.stats.released += 1;
                self.next += 1;
            }
            self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn matches_an_ordered_map_oracle(
            first in 0u64..3,
            ops in proptest::collection::vec((0u8..6, 0u64..24), 1..300),
        ) {
            let first = [0, 100, u64::MAX / 2][first as usize];
            let mut r = Resequencer::new(first);
            let mut oracle = Oracle {
                next: first,
                buffer: BTreeMap::new(),
                stats: ResequencerStats::default(),
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut offered: Vec<u64> = Vec::new();
            for (kind, off) in ops {
                let next = oracle.next;
                let id = match kind {
                    // Near the horizon, ahead of it or exactly on it.
                    0 | 1 => next + off,
                    // Already released, or below the first id.
                    2 => next.saturating_sub(1 + off),
                    // A replay of an id offered before.
                    3 if !offered.is_empty() => offered[off as usize % offered.len()],
                    3 => next,
                    // 2^16 or more ahead of the horizon.
                    4 => next + (1 << 16) + off,
                    _ => next + (1 << 32) + off * (1 << 20),
                };
                offered.push(id);
                let payload = Bytes::from(id.to_le_bytes().to_vec());
                r.offer_into(PacketId(id), payload.clone(), &mut got);
                oracle.offer(id, payload, &mut want);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(r.stats(), oracle.stats);
                prop_assert_eq!(r.awaiting(), oracle.next);
                prop_assert_eq!(r.buffered(), oracle.buffer.len());
            }
        }
    }
}
