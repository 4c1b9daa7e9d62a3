//! Model-based property test for netsim's event queue, the lane
//! [`Calendar`].
//!
//! Random interleavings of pushes, FIFO-clamped arrivals, samples, wake
//! re-arms and dispatch rounds are checked against the dumbest possible
//! reference: a flat `Vec` of pending events with their canonical keys,
//! where a round is every entry at the minimum instant, sorted. Both
//! must agree on every round's events and order, the pending count and
//! the profile counters, through to the final drain.

use netsim::event_queue::{Calendar, Event};
use proptest::prelude::*;
use sim_core::{Duration, Instant};

/// A dispatched event as a comparable tuple: `(kind, lane, payload)`
/// with pushes carrying their SDU id and arrivals their frame.
type Key = (u8, usize, u64);

fn key(ev: &Event<u64>) -> Key {
    match *ev {
        Event::Push { source, id } => (0, source, id),
        Event::Arrive { link, frame, .. } => (1, link, frame),
        Event::Sample => (2, 0, 0),
        Event::Wake => (3, 0, 0),
    }
}

/// The reference: every pending event in a flat list with its
/// canonical key `(at, kind, source or link index, SDU id or
/// per-link arrival sequence)`. A round is every entry at the
/// minimum instant, sorted by key.
#[derive(Default)]
struct Model {
    entries: Vec<(Instant, u8, usize, u64)>,
    /// Tail instant and next arrival sequence per link.
    tails: Vec<(Instant, u64)>,
    next_id: u64,
    now: Instant,
    scheduled: u64,
    popped: u64,
    cancelled: u64,
    peak: usize,
}

impl Model {
    fn add(&mut self, at: Instant, kind: u8, lane: usize, tie: u64) {
        self.entries.push((at, kind, lane, tie));
        self.scheduled += 1;
        self.peak = self.peak.max(self.entries.len());
    }

    fn has(&self, kind: u8, lane: usize) -> bool {
        self.entries.iter().any(|e| e.1 == kind && e.2 == lane)
    }

    fn wake(&self) -> Option<Instant> {
        self.entries.iter().find(|e| e.1 == 3).map(|e| e.0)
    }

    fn next_instant(&self) -> Option<Instant> {
        self.entries.iter().map(|e| e.0).min()
    }

    /// Remove and return the round at `now`, in canonical order.
    fn take_round(&mut self, now: Instant) -> Vec<Key> {
        let mut round: Vec<_> = self
            .entries
            .iter()
            .filter(|e| e.0 == now)
            .copied()
            .collect();
        self.entries.retain(|e| e.0 != now);
        round.sort();
        self.popped += round.len() as u64;
        if !round.is_empty() {
            self.now = now;
        }
        round
            .iter()
            .map(|&(_, k, lane, tie)| (k, lane, tie))
            .collect()
    }
}

/// Drive the calendar and the model through one script. Each op is
/// `(kind, lane pick, dt)`; pushes, samples and wake re-arms land at
/// `now + dt`, arrivals at `max(now + dt, lane tail)` (the channel's
/// FIFO clamp). A dispatch op processes one instant in rounds, and
/// every dispatched push whose id is even queues its source's next
/// SDU at the same instant.
fn run_script(sources: usize, links: usize, ops: &[(u8, u8, u8)]) {
    let mut cal: Calendar<u64> = Calendar::new(sources, links);
    let mut m = Model {
        tails: vec![(Instant::ZERO, 0); links],
        ..Model::default()
    };
    let mut out = Vec::new();
    for &(op, pick, dt) in ops {
        let at = m.now + Duration::from_nanos(u64::from(dt));
        match op % 6 {
            0 if sources > 0 => {
                let s = usize::from(pick) % sources;
                if !m.has(0, s) {
                    let id = m.next_id;
                    m.next_id += 1;
                    cal.push(s, at, id);
                    m.add(at, 0, s, id);
                }
            }
            1 | 2 if links > 0 => {
                let l = usize::from(pick) % links;
                let (tail, seq) = m.tails[l];
                let at = at.max(tail);
                m.tails[l] = (at, seq + 1);
                // The frame is its per-link arrival sequence.
                cal.arrive(l, at, seq, pick % 2 == 0);
                m.add(at, 1, l, seq);
            }
            3 => {
                if !m.has(2, 0) {
                    cal.sample(at);
                    m.add(at, 2, 0, 0);
                }
            }
            4 => {
                cal.rearm_wake(at);
                match m.wake() {
                    Some(w) if w <= at => {}
                    Some(_) => {
                        m.entries.retain(|e| e.1 != 3);
                        m.cancelled += 1;
                        m.add(at, 3, 0, 0);
                    }
                    None => m.add(at, 3, 0, 0),
                }
            }
            _ => {
                let next = m.next_instant();
                assert_eq!(cal.next_instant(), next);
                let Some(now) = next else { continue };
                loop {
                    out.clear();
                    cal.pop_round(now, &mut out);
                    let got: Vec<_> = out.iter().map(key).collect();
                    let want = m.take_round(now);
                    assert_eq!(got, want, "round at {now:?}");
                    if want.is_empty() {
                        break;
                    }
                    for &(kind, s, id) in &want {
                        if kind == 0 && id % 2 == 0 {
                            let nid = m.next_id;
                            m.next_id += 1;
                            cal.push(s, now, nid);
                            m.add(now, 0, s, nid);
                        }
                    }
                }
            }
        }
        assert_eq!(cal.len(), m.entries.len());
        let p = cal.profile();
        assert_eq!(
            (p.scheduled, p.popped, p.cancelled, p.peak_depth, p.horizon),
            (m.scheduled, m.popped, m.cancelled, m.peak, m.now)
        );
    }
    // Drain both: the remaining rounds match too.
    while let Some(now) = m.next_instant() {
        out.clear();
        cal.pop_round(now, &mut out);
        let got: Vec<_> = out.iter().map(key).collect();
        assert_eq!(got, m.take_round(now));
    }
    assert_eq!(cal.next_instant(), None);
    assert_eq!(cal.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn queue_matches_reference_model(
        sources in 0usize..4,
        links in 0usize..5,
        ops in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u8::ANY, proptest::num::u8::ANY),
            0..200,
        ),
    ) {
        run_script(sources, links, &ops);
    }

    #[test]
    fn queue_matches_reference_model_under_heavy_ties(
        // dt in {0, 1}: nearly everything lands on a couple of
        // instants, so clamped arrivals tie, samples tie with
        // arrivals, and wakes are re-armed earlier again and again.
        sources in 1usize..4,
        links in 1usize..5,
        ops in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u8::ANY, 0u8..2),
            0..200,
        ),
    ) {
        run_script(sources, links, &ops);
    }
}
