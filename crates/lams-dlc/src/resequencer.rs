//! Destination-side resequencing and deduplication.
//!
//! Relaxing the in-sequence constraint (§2.3) moves ordering
//! responsibility from every subnet hop to the destination node: "the
//! destination node now has responsibility to provide sequencing" and —
//! because enforced recovery can duplicate frames — deduplication. The
//! [`Resequencer`] is that rule and the only copy of it: the simulator's
//! collector and the host pump both release through it.
//!
//! It holds packet ids, never payloads: a cursor `next` (every id below
//! it has been released in order) and one arrival bit per id from the
//! start of `next`'s 64-id word upward, in a ring of words whose front
//! word holds `next`. The ids awaiting order form one narrow band above
//! `next`, so the ring stays a few words long; the slot of a word the
//! cursor leaves is reused at the back. Memory grows with the distance
//! of the highest id offered above `next`, so a caller offers only ids
//! it issued.

use std::collections::VecDeque;
use std::ops::Range;

/// Counters a resequencer keeps over its life.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResequencerStats {
    /// Duplicate ids dropped.
    pub duplicates: u64,
    /// Peak count of ids held awaiting an earlier one.
    pub peak_held: usize,
}

/// Releases contiguous packet ids from 0 in order, dropping duplicates.
#[derive(Default)]
pub struct Resequencer {
    next: u64,
    /// Arrival bits of ids `next & !63` upward, 64 per word. Bits below
    /// `next` in the front word are released ids, left set.
    words: VecDeque<u64>,
    held: usize,
    stats: ResequencerStats,
}

impl Resequencer {
    /// Expect ids from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer `id`: `None` if it arrived before (or was released), else
    /// the ids it releases in order — empty if `id` waits for an
    /// earlier one.
    #[inline]
    pub fn offer(&mut self, id: u64) -> Option<Range<u64>> {
        if id < self.next {
            self.stats.duplicates += 1;
            return None;
        }
        let off = id - (self.next & !63);
        let word = (off >> 6) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1 << (off & 63);
        if self.words[word] & bit != 0 {
            self.stats.duplicates += 1;
            return None;
        }
        self.words[word] |= bit;
        let start = self.next;
        if id != start {
            self.held += 1;
            self.stats.peak_held = self.stats.peak_held.max(self.held);
            return Some(start..start);
        }
        // Advance over the run of arrived ids from `next`, a word at a
        // time, recycling each word the cursor leaves.
        loop {
            let run = u64::from((!(self.words[0] >> (self.next & 63))).trailing_zeros());
            self.next += run;
            if run == 0 || self.next & 63 != 0 {
                break;
            }
            self.words.pop_front();
            if self.words.is_empty() {
                break;
            }
        }
        self.held -= (self.next - start - 1) as usize;
        Some(start..self.next)
    }

    /// Next id awaited for in-order release: the count released so far.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Ids held awaiting an earlier one.
    pub fn held(&self) -> usize {
        self.held
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

    /// Offer `id` and collect the ids it releases.
    fn ids(r: &mut Resequencer, id: u64) -> Option<Vec<u64>> {
        r.offer(id).map(Iterator::collect)
    }

    #[test]
    fn in_order_passthrough() {
        let mut r = Resequencer::new();
        for i in 0..200u64 {
            assert_eq!(r.offer(i), Some(i..i + 1));
        }
        assert_eq!((r.next(), r.held()), (200, 0));
        assert_eq!(r.stats(), ResequencerStats::default());
    }

    #[test]
    fn reorders_gap() {
        let mut r = Resequencer::new();
        assert_eq!(r.offer(1), Some(0..0));
        assert_eq!(r.offer(2), Some(0..0));
        assert_eq!(r.held(), 2);
        assert_eq!(r.offer(0), Some(0..3));
        assert_eq!((r.next(), r.held(), r.stats().peak_held), (3, 0, 2));
    }

    #[test]
    fn drops_duplicates() {
        let mut r = Resequencer::new();
        r.offer(0);
        assert_eq!(r.offer(0), None);
        // Duplicate of a held id too.
        r.offer(2);
        assert_eq!(r.offer(2), None);
        assert_eq!(r.stats().duplicates, 2);
    }

    #[test]
    fn interleaved_duplicates_and_gaps() {
        let mut r = Resequencer::new();
        let mut released = Vec::new();
        for id in [3u64, 1, 1, 0, 3, 2] {
            released.extend(ids(&mut r, id).unwrap_or_default());
        }
        assert_eq!(released, vec![0, 1, 2, 3]);
        assert_eq!((r.next(), r.stats().duplicates), (4, 2));
    }

    #[test]
    fn a_run_across_words_releases_at_once() {
        let mut r = Resequencer::new();
        for id in (1..300).rev() {
            assert_eq!(r.offer(id), Some(0..0));
        }
        assert_eq!(r.offer(0), Some(0..300));
        assert_eq!(r.held(), 0);
        assert_eq!(r.offer(64), None, "an id of a recycled word");
        assert_eq!(r.offer(301), Some(300..300));
        assert_eq!(r.offer(300), Some(300..302));
    }

    #[test]
    fn far_ahead_ids_are_held_exactly() {
        let mut r = Resequencer::new();
        let far = 1 << 12;
        assert_eq!(r.offer(far), Some(0..0));
        assert_eq!(r.offer(2), Some(0..0));
        assert_eq!(r.offer(far), None, "duplicate of a far id");
        assert_eq!(r.offer(0), Some(0..1));
        assert_eq!(r.offer(1), Some(1..3));
        assert_eq!((r.held(), r.stats().duplicates), (1, 1));
    }

    /// The resequencer on an ordered map: the reference the bit ring
    /// must agree with.
    #[derive(Default)]
    struct Oracle {
        next: u64,
        held: BTreeMap<u64, ()>,
        stats: ResequencerStats,
    }

    impl Oracle {
        fn offer(&mut self, id: u64) -> Option<Range<u64>> {
            if id < self.next || self.held.contains_key(&id) {
                self.stats.duplicates += 1;
                return None;
            }
            self.held.insert(id, ());
            let start = self.next;
            while self.held.remove(&self.next).is_some() {
                self.next += 1;
            }
            self.stats.peak_held = self.stats.peak_held.max(self.held.len());
            Some(start..self.next)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn matches_an_ordered_map_oracle(
            ops in proptest::collection::vec((0u8..5, 0u64..200), 1..400),
        ) {
            let mut r = Resequencer::new();
            let mut oracle = Oracle::default();
            let mut offered: Vec<u64> = Vec::new();
            for (kind, off) in ops {
                let next = oracle.next;
                let id = match kind {
                    // Near the horizon, ahead of it or exactly on it.
                    0 | 1 => next + off % 24,
                    // Already released.
                    2 => next.saturating_sub(1 + off),
                    // A replay of an id offered before.
                    3 if !offered.is_empty() => offered[off as usize % offered.len()],
                    3 => next,
                    // Words ahead of the horizon.
                    _ => next + 64 + off * 7,
                };
                offered.push(id);
                prop_assert_eq!(r.offer(id), oracle.offer(id));
                prop_assert_eq!(r.stats(), oracle.stats);
                prop_assert_eq!(r.next(), oracle.next);
                prop_assert_eq!(r.held(), oracle.held.len());
            }
        }
    }
}
