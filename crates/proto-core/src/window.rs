//! Per-frame state keyed by sequence number.
//!
//! A LAMS-DLC sender numbers every transmission with a fresh, strictly
//! increasing sequence number, and a frame stays unresolved for about
//! one resolving period (`R + W_cp/2 + C_depth·W_cp`, §3). So the
//! numbers anyone holds per-frame state for at any instant (the
//! sender's retransmission buffer, a monitor's frame chains) form a
//! narrow band just above the lowest live one. [`SeqWindow`] stores
//! that band in a dense ring indexed by `seq − base`, where `base` is
//! the lowest live number: a lookup is a subtraction and an index, with
//! no hashing or tree walk, and appending the next number is a
//! `push_back`. Numbers that fall outside the band (below `base`, or
//! [`WINDOW_CAP`] or more above it, as a corrupt trace or a hostile peer
//! can produce) go to an ordered spill map, so the ring never spans more
//! than [`WINDOW_CAP`] numbers and every answer stays exact.
//!
//! [`SeqSet`] remembers numbers that left the window (clean arrivals of
//! released frames) as sorted ranges: appending in sequence order, the
//! normal case, costs O(1).

use std::collections::{BTreeMap, VecDeque};

/// Most sequence numbers the dense ring of a [`SeqWindow`] spans. A
/// LAMS link holds a few thousand unresolved frames at most (one
/// resolving period of traffic); numbers further above the lowest live
/// one spill to the ordered map.
pub const WINDOW_CAP: usize = 1 << 16;

/// A map from sequence number to per-frame state: a dense ring from
/// the lowest live number plus an ordered spill map for numbers outside
/// `[base, base + WINDOW_CAP)`.
#[derive(Debug)]
pub struct SeqWindow<T> {
    /// Sequence number of `ring[0]`; meaningful while the ring is
    /// non-empty.
    base: u64,
    /// Slots for `base..base + ring.len()`. The first and last slots are
    /// always occupied.
    ring: VecDeque<Option<T>>,
    /// Entries outside the ring's span. Empty whenever the ring is.
    spill: BTreeMap<u64, T>,
    len: usize,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow {
            base: 0,
            ring: VecDeque::new(),
            spill: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<T> SeqWindow<T> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence numbers the dense ring currently spans (at most
    /// [`WINDOW_CAP`]).
    pub fn ring_span(&self) -> usize {
        self.ring.len()
    }

    /// Entries held in the spill map.
    #[cfg(test)]
    fn spilled(&self) -> usize {
        self.spill.len()
    }

    /// Ring index of `seq` when it lies inside the ring's possible span
    /// `[base, base + WINDOW_CAP)`.
    fn index(&self, seq: u64) -> Option<usize> {
        let off = seq.checked_sub(self.base)?;
        (off < WINDOW_CAP as u64 && !self.ring.is_empty()).then_some(off as usize)
    }

    /// The entry for `seq`.
    pub fn get(&self, seq: u64) -> Option<&T> {
        match self.index(seq) {
            Some(i) => self.ring.get(i)?.as_ref(),
            None => self.spill.get(&seq),
        }
    }

    /// The entry for `seq`, mutably.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        match self.index(seq) {
            Some(i) => self.ring.get_mut(i)?.as_mut(),
            None => self.spill.get_mut(&seq),
        }
    }

    /// True when an entry for `seq` is held.
    pub fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// The entry with the lowest sequence number.
    pub fn first(&self) -> Option<(u64, &T)> {
        // Spilled numbers lie below `base` or beyond the ring's span,
        // and the ring's first slot is always occupied.
        let ring = || Some((self.base, self.ring.front()?.as_ref()?));
        if self.spill.is_empty() {
            return ring();
        }
        match self.spill.first_key_value() {
            Some((&seq, value)) if seq < self.base => Some((seq, value)),
            _ => ring(),
        }
    }

    /// Store `value` under `seq`, returning the entry it replaces.
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        let old = if self.ring.is_empty() {
            self.base = seq;
            self.ring.push_back(Some(value));
            None
        } else if let Some(i) = self.index(seq) {
            self.put(i, value)
        } else {
            self.spill.insert(seq, value)
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Store `value` in ring slot `i` (below [`WINDOW_CAP`]), growing
    /// the ring when `i` lies past its end. The next slot, the common
    /// case, is one `push_back`.
    fn put(&mut self, i: usize, value: T) -> Option<T> {
        if i < self.ring.len() {
            return self.ring[i].replace(value);
        }
        if i > self.ring.len() {
            self.ring.resize_with(i, || None);
        }
        self.ring.push_back(Some(value));
        None
    }

    /// Remove and return the entry for `seq`.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let old = match self.index(seq) {
            Some(i) if i < self.ring.len() => {
                let old = self.ring[i].take();
                if old.is_some() {
                    self.trim(i);
                }
                old
            }
            Some(_) => None,
            None => self.spill.remove(&seq),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Restore the ring's shape after slot `i` was vacated: drop empty
    /// slots from both ends, move `base` up to the lowest live number,
    /// and pull in spilled entries the new span covers.
    fn trim(&mut self, i: usize) {
        if i + 1 == self.ring.len() {
            while matches!(self.ring.back(), Some(None)) {
                self.ring.pop_back();
            }
        }
        if i != 0 {
            return;
        }
        while matches!(self.ring.front(), Some(None)) {
            self.ring.pop_front();
            self.base += 1;
        }
        if self.spill.is_empty() {
            return;
        }
        if self.ring.is_empty() {
            // Restart the ring at the lowest spilled number.
            let (seq, value) = self.spill.pop_first().expect("spill is non-empty");
            self.base = seq;
            self.ring.push_back(Some(value));
        }
        while let Some((&seq, _)) = self.spill.range(self.base..).next() {
            let off = seq - self.base;
            if off >= WINDOW_CAP as u64 {
                break;
            }
            let value = self.spill.remove(&seq).expect("key just seen");
            self.put(off as usize, value);
        }
    }

    /// Every entry with its sequence number, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        let ring = self
            .ring
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| Some((base + i as u64, v.as_ref()?)));
        // Spilled numbers lie below `base` or beyond the ring's span.
        let below = self.spill.range(..base).map(|(&s, v)| (s, v));
        let above = self.spill.range(base..).map(|(&s, v)| (s, v));
        below.chain(ring).chain(above)
    }

    /// Every entry, mutably, in no particular order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.ring
            .iter_mut()
            .flatten()
            .chain(self.spill.values_mut())
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.spill.clear();
        self.len = 0;
    }
}

/// A set of sequence numbers kept as sorted, disjoint, inclusive
/// ranges. Inserting above every held number is O(1); anything else is
/// a binary search plus, rarely, a shift of the ranges above.
#[derive(Debug, Default)]
pub struct SeqSet {
    ranges: Vec<(u64, u64)>,
}

impl SeqSet {
    /// Index of the first range ending at or above `seq`.
    fn slot(&self, seq: u64) -> usize {
        match self.ranges.last() {
            Some(&(_, hi)) if hi < seq => self.ranges.len(),
            _ => self.ranges.partition_point(|&(_, hi)| hi < seq),
        }
    }

    /// True when `seq` is in the set.
    pub fn contains(&self, seq: u64) -> bool {
        let i = self.slot(seq);
        i < self.ranges.len() && self.ranges[i].0 <= seq
    }

    /// Add `seq`; true when it was not already present.
    pub fn insert(&mut self, seq: u64) -> bool {
        let i = self.slot(seq);
        if i < self.ranges.len() && self.ranges[i].0 <= seq {
            return false;
        }
        // Every range before `i` ends below `seq`; range `i`, if any,
        // starts above it.
        let joins_prev = i > 0 && self.ranges[i - 1].1 + 1 == seq;
        let joins_next = i < self.ranges.len() && self.ranges[i].0 - 1 == seq;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.ranges[i - 1].1 = self.ranges[i].1;
                self.ranges.remove(i);
            }
            (true, false) => self.ranges[i - 1].1 = seq,
            (false, true) => self.ranges[i].0 = seq,
            (false, false) => self.ranges.insert(i, (seq, seq)),
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const CAP: u64 = WINDOW_CAP as u64;

    /// Sequence numbers around the ring's edges and the ends of `u64`.
    const ANCHORS: [u64; 8] = [
        0,
        5,
        CAP - 3,
        CAP + 2,
        2 * CAP,
        1 << 32,
        u64::MAX - CAP,
        u64::MAX - 4,
    ];

    fn seq_of(anchor: usize, off: u64) -> u64 {
        ANCHORS[anchor].saturating_add(off)
    }

    /// The ring spans at most `WINDOW_CAP` numbers with both ends
    /// occupied, and every spilled number lies outside its span.
    fn check_shape<T>(w: &SeqWindow<T>) {
        assert!(w.ring_span() <= WINDOW_CAP);
        match (w.ring.front(), w.ring.back()) {
            (Some(front), Some(back)) => assert!(front.is_some() && back.is_some()),
            _ => assert!(w.spill.is_empty(), "spill without a ring"),
        }
        for &seq in w.spill.keys() {
            assert!(w.index(seq).is_none(), "seq {seq} spilled inside the span");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn window_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..5, 0usize..8, 0u64..8), 1..200),
        ) {
            let mut w = SeqWindow::default();
            let mut model = BTreeMap::new();
            for (i, (op, anchor, off)) in ops.into_iter().enumerate() {
                let seq = seq_of(anchor, off);
                match op {
                    0 | 1 => prop_assert_eq!(w.insert(seq, i), model.insert(seq, i)),
                    2 => prop_assert_eq!(w.remove(seq), model.remove(&seq)),
                    3 => {
                        // Pop the lowest entry, as a release sweep does.
                        let first = w.first().map(|(s, _)| s);
                        prop_assert_eq!(first, model.keys().next().copied());
                        let popped = first.and_then(|s| Some((s, w.remove(s)?)));
                        prop_assert_eq!(popped, model.pop_first());
                    }
                    _ => {
                        if let Some(v) = w.get_mut(seq) {
                            *v += 1000;
                        }
                        if let Some(v) = model.get_mut(&seq) {
                            *v += 1000;
                        }
                    }
                }
                check_shape(&w);
                prop_assert_eq!(w.get(seq), model.get(&seq));
                prop_assert_eq!(w.contains(seq), model.contains_key(&seq));
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(w.first(), model.iter().next().map(|(&s, v)| (s, v)));
            }
            for v in w.values_mut() {
                *v += 1;
            }
            let got: Vec<(u64, usize)> = w.iter().map(|(s, &v)| (s, v)).collect();
            let want: Vec<(u64, usize)> = model.iter().map(|(&s, &v)| (s, v + 1)).collect();
            prop_assert_eq!(got, want);
            w.clear();
            prop_assert!(w.is_empty() && w.iter().next().is_none());
        }

        #[test]
        fn appends_and_front_releases_match_an_ordered_map(
            ops in proptest::collection::vec((0u8..8, 0u64..4), 1..400),
        ) {
            // The retransmission buffer's traffic: numbers only go up
            // (mostly by one, sometimes by `WINDOW_CAP` or more), and
            // entries leave from the front or, when NAK'd, from inside.
            let mut w = SeqWindow::default();
            let mut model = BTreeMap::new();
            let mut next = u64::MAX / 2;
            for (i, (op, arg)) in ops.into_iter().enumerate() {
                match op {
                    0..=3 => {
                        next += 1 + arg;
                        prop_assert_eq!(w.insert(next, i), model.insert(next, i));
                    }
                    4 => {
                        next += CAP + arg;
                        prop_assert_eq!(w.insert(next, i), model.insert(next, i));
                    }
                    5 => {
                        let seq = next.saturating_sub(arg * 3);
                        prop_assert_eq!(w.remove(seq), model.remove(&seq));
                    }
                    _ => {
                        // Release everything up to a covered horizon.
                        let covered = next.saturating_sub(arg * 2);
                        while let Some((seq, _)) = w.first() {
                            if seq > covered {
                                break;
                            }
                            prop_assert_eq!(w.remove(seq), model.remove(&seq));
                        }
                        prop_assert!(model.range(..=covered).next().is_none());
                    }
                }
                check_shape(&w);
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(w.first(), model.iter().next().map(|(&s, v)| (s, v)));
            }
            let got: Vec<(u64, usize)> = w.iter().map(|(s, &v)| (s, v)).collect();
            let want: Vec<(u64, usize)> = model.iter().map(|(&s, &v)| (s, v)).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn seq_set_matches_an_ordered_set(
            ops in proptest::collection::vec((0usize..8, 0u64..24), 1..300),
        ) {
            let mut s = SeqSet::default();
            let mut model = BTreeSet::new();
            for (anchor, off) in ops {
                let seq = seq_of(anchor, off);
                prop_assert_eq!(s.contains(seq), model.contains(&seq));
                prop_assert_eq!(s.insert(seq), model.insert(seq));
                prop_assert!(s.contains(seq));
            }
            // Ranges stay sorted, disjoint and non-adjacent.
            for pair in s.ranges.windows(2) {
                prop_assert!(pair[0].0 <= pair[0].1 && pair[0].1 + 1 < pair[1].0);
            }
            let covered: u64 = s.ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum();
            prop_assert_eq!(covered, model.len() as u64);
        }
    }

    #[test]
    fn ring_follows_the_lowest_live_number() {
        let mut w = SeqWindow::default();
        for seq in 100..110 {
            w.insert(seq, seq);
        }
        assert_eq!((w.ring_span(), w.spilled()), (10, 0));
        w.remove(100);
        w.remove(101);
        assert_eq!(w.ring_span(), 8, "front advances past released numbers");
        w.remove(109);
        assert_eq!(w.ring_span(), 7, "back shrinks too");
        // Below the lowest live number, and beyond the cap: spilled.
        w.insert(50, 50);
        w.insert(102 + CAP, 0);
        assert_eq!((w.ring_span(), w.spilled()), (7, 2));
        assert_eq!(w.first(), Some((50, &50)), "a spilled number can be lowest");
        // Moving the front up pulls spilled numbers the new span covers
        // into the ring; numbers below it stay spilled.
        w.remove(102);
        assert_eq!((w.ring_span(), w.spilled()), (WINDOW_CAP, 1));
        for seq in 103..109 {
            w.remove(seq);
        }
        assert_eq!((w.ring_span(), w.spilled()), (1, 1));
        assert_eq!(
            w.iter().map(|(s, _)| s).collect::<Vec<_>>(),
            vec![50, 102 + CAP]
        );
    }

    #[test]
    fn huge_gaps_spill_instead_of_growing_the_ring() {
        let mut w = SeqWindow::default();
        w.insert(0, ());
        w.insert(1 << 32, ());
        w.insert(u64::MAX, ());
        assert_eq!((w.ring_span(), w.spilled()), (1, 2));
        w.remove(0);
        assert_eq!((w.ring_span(), w.spilled()), (1, 1));
        w.remove(1 << 32);
        assert_eq!((w.ring_span(), w.spilled()), (1, 0));
        assert!(w.contains(u64::MAX));
    }
}
