//! The lane calendar: the simulation loop's event queue.
//!
//! A simulation only ever has a fixed shape of pending events: at most
//! one push per traffic source, any number of arrivals per link, at
//! most one sampling tick and at most one wake. The calendar stores
//! exactly that shape — a push slot per source, a FIFO lane per link, a
//! sample slot and a wake slot — so scheduling is O(1) and the next
//! instant is the minimum over the lane heads (a linear scan: a run has
//! a handful of sources and a few dozen links at most).
//!
//! **Per-link FIFO.** Arrivals on one link are queued in non-decreasing
//! time order: the channel's FIFO clamp never lets a frame arrive before
//! its predecessor. [`Calendar::arrive`] asserts it, so a lane's head is
//! always its earliest arrival.
//!
//! **Canonical order is structural.** Lanes are indexed in the
//! builder's registration order — a push slot per source, an arrival
//! lane per link — and that order is canonical, so
//! [`Calendar::pop_round`] hands out an instant's events already in
//! canonical dispatch order: pushes, then arrivals (FIFO within a link,
//! which is per-link transmit order), then the sampling tick, then the
//! wake. Nothing is sorted.

use sim_core::{Instant, QueueProfile};
use std::collections::VecDeque;

/// One event handed to the simulation loop by [`Calendar::pop_round`].
pub enum Event<F> {
    /// SDU `id` arrives at local source `source`.
    Push {
        /// Local source index.
        source: usize,
        /// SDU id.
        id: u64,
    },
    /// A frame reaches the far end of local link `link`.
    Arrive {
        /// Local link index.
        link: usize,
        /// The frame.
        frame: F,
        /// True if it survived the channel uncorrupted.
        clean: bool,
    },
    /// Periodic occupancy sampling tick.
    Sample,
    /// Re-poll endpoints at a previously requested instant.
    Wake,
}

/// One queued arrival on a link lane.
struct Arrival<F> {
    at: Instant,
    frame: F,
    clean: bool,
}

/// The schedule of one simulation: push slots, arrival lanes, and the sample
/// and wake slots, with the lifetime counters a [`QueueProfile`]
/// reports.
pub struct Calendar<F> {
    /// Pending push per local source: `(at, sdu id)`.
    pushes: Vec<Option<(Instant, u64)>>,
    /// Pending arrivals per local link, in arrival order.
    lanes: Vec<VecDeque<Arrival<F>>>,
    sample: Option<Instant>,
    wake: Option<Instant>,
    /// Pending events across every slot and lane.
    len: usize,
    /// Counters; `horizon` is the instant of the last pop, the clock
    /// nothing may be scheduled before.
    stats: QueueProfile,
}

impl<F> Calendar<F> {
    /// An empty calendar for `sources` local sources and `links` local
    /// links, with the clock at t = 0.
    pub fn new(sources: usize, links: usize) -> Self {
        Calendar {
            pushes: vec![None; sources],
            lanes: (0..links).map(|_| VecDeque::new()).collect(),
            sample: None,
            wake: None,
            len: 0,
            stats: QueueProfile::default(),
        }
    }

    /// Count one event scheduled at `at`. Scheduling in the past is a
    /// logic error and panics: the simulated clock never runs backwards.
    #[inline]
    fn schedule(&mut self, at: Instant) {
        assert!(
            at >= self.stats.horizon,
            "scheduling into the past: at={at:?} now={:?}",
            self.stats.horizon
        );
        self.len += 1;
        self.stats.scheduled += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.len);
    }

    /// Schedule SDU `id` to arrive at local source `source` at `at`.
    /// A source has at most one push pending.
    pub fn push(&mut self, source: usize, at: Instant, id: u64) {
        self.schedule(at);
        let slot = &mut self.pushes[source];
        debug_assert!(slot.is_none(), "source {source} already has a push pending");
        *slot = Some((at, id));
    }

    /// Queue `frame` to reach the far end of local link `link` at `at`.
    /// Panics if `at` is before the lane's tail: arrivals on one link
    /// are FIFO.
    pub fn arrive(&mut self, link: usize, at: Instant, frame: F, clean: bool) {
        self.schedule(at);
        let lane = &mut self.lanes[link];
        if let Some(tail) = lane.back() {
            assert!(
                at >= tail.at,
                "arrival on link lane {link} at {at:?} queued ahead of its tail at {:?}",
                tail.at
            );
        }
        lane.push_back(Arrival { at, frame, clean });
    }

    /// Schedule the next sampling tick at `at`.
    pub fn sample(&mut self, at: Instant) {
        self.schedule(at);
        debug_assert!(self.sample.is_none(), "a sampling tick is already pending");
        self.sample = Some(at);
    }

    /// Arm the wake at `at` unless one is already pending no later.
    /// Moving a pending wake earlier counts as one cancel plus one
    /// schedule.
    pub fn rearm_wake(&mut self, at: Instant) {
        match self.wake {
            Some(pending) if pending <= at => return,
            Some(_) => {
                self.len -= 1;
                self.stats.cancelled += 1;
            }
            None => {}
        }
        self.schedule(at);
        self.wake = Some(at);
    }

    /// The earliest pending instant, if any.
    pub fn next_instant(&self) -> Option<Instant> {
        let mut next = Instant::MAX;
        for &(at, _) in self.pushes.iter().flatten() {
            next = next.min(at);
        }
        for lane in &self.lanes {
            if let Some(head) = lane.front() {
                next = next.min(head.at);
            }
        }
        for at in [self.sample, self.wake].into_iter().flatten() {
            next = next.min(at);
        }
        (!self.is_empty()).then_some(next)
    }

    /// Move every event due at `now` into `out`, in canonical dispatch
    /// order, and advance the clock to `now`. `now` must be the earliest
    /// pending instant ([`Calendar::next_instant`]). Events scheduled at
    /// `now` while the caller dispatches this round come out of the next
    /// call.
    pub fn pop_round(&mut self, now: Instant, out: &mut Vec<Event<F>>) {
        let before = out.len();
        for (source, slot) in self.pushes.iter_mut().enumerate() {
            if let Some((at, id)) = *slot {
                if at == now {
                    *slot = None;
                    out.push(Event::Push { source, id });
                }
            }
        }
        for (link, lane) in self.lanes.iter_mut().enumerate() {
            while lane.front().is_some_and(|a| a.at == now) {
                let a = lane.pop_front().expect("lane head checked");
                out.push(Event::Arrive {
                    link,
                    frame: a.frame,
                    clean: a.clean,
                });
            }
        }
        if self.sample == Some(now) {
            self.sample = None;
            out.push(Event::Sample);
        }
        if self.wake == Some(now) {
            self.wake = None;
            out.push(Event::Wake);
        }
        let n = out.len() - before;
        if n > 0 {
            debug_assert!(now >= self.stats.horizon, "calendar time went backwards");
            self.len -= n;
            self.stats.popped += n as u64;
            self.stats.horizon = now;
        }
        debug_assert!(
            self.next_instant().is_none_or(|t| t >= now),
            "pop_round at {now:?} skipped an earlier event"
        );
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshot the lifetime counters.
    pub fn profile(&self) -> QueueProfile {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Duration;

    fn ns(n: u64) -> Instant {
        Instant::from_nanos(n)
    }

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

    /// Pop the next instant's first round: `(instant, events)`.
    fn round(cal: &mut Calendar<u64>) -> Option<(Instant, Vec<Key>)> {
        let now = cal.next_instant()?;
        let mut out = Vec::new();
        cal.pop_round(now, &mut out);
        Some((now, out.iter().map(key).collect()))
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new(1, 2);
        cal.arrive(1, ns(30), 3, true);
        cal.arrive(0, ns(10), 1, true);
        cal.push(0, ns(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| round(&mut cal)).collect();
        assert_eq!(
            order,
            vec![
                (ns(10), vec![(1, 0, 1)]),
                (ns(20), vec![(0, 0, 2)]),
                (ns(30), vec![(1, 1, 3)]),
            ]
        );
    }

    #[test]
    fn simultaneous_arrivals_fifo() {
        // The channel's FIFO clamp collapses many frames onto one
        // arrival instant; they come out in the order they were queued.
        let mut cal = Calendar::new(0, 1);
        for frame in 0..100 {
            cal.arrive(0, ns(7), frame, true);
        }
        let (at, events) = round(&mut cal).expect("pending");
        assert_eq!(at, ns(7));
        let frames: Vec<u64> = events.iter().map(|&(_, _, f)| f).collect();
        assert_eq!(frames, (0..100).collect::<Vec<_>>());
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn same_instant_events_come_out_in_canonical_order() {
        // Scheduled in reverse: wake, sample, arrivals on the higher
        // link first, then pushes from the higher source first.
        let t = ns(5);
        let mut cal = Calendar::new(2, 2);
        cal.rearm_wake(t);
        cal.sample(t);
        cal.arrive(1, t, 11, true);
        cal.arrive(0, t, 10, false);
        cal.push(1, t, 21);
        cal.push(0, t, 20);
        let (_, events) = round(&mut cal).expect("pending");
        assert_eq!(
            events,
            vec![
                (0, 0, 20),
                (0, 1, 21),
                (1, 0, 10),
                (1, 1, 11),
                (2, 0, 0),
                (3, 0, 0)
            ]
        );
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut cal = Calendar::new(1, 1);
        cal.arrive(0, ns(5), 0, true);
        cal.arrive(0, ns(5), 1, true);
        cal.sample(ns(9));
        let mut last = Instant::ZERO;
        while let Some((t, _)) = round(&mut cal) {
            assert!(t >= last);
            last = t;
            assert_eq!(cal.profile().horizon, t);
        }
        assert_eq!(last, ns(9));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut cal = Calendar::new(1, 0);
        cal.push(0, ns(10), 0);
        round(&mut cal);
        cal.push(0, ns(5), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_wake() {
        let mut cal: Calendar<u64> = Calendar::new(0, 0);
        cal.sample(ns(10));
        cal.rearm_wake(ns(20));
        round(&mut cal);
        // Pulling the pending wake before the clock is a past schedule.
        cal.rearm_wake(ns(5));
    }

    #[test]
    #[should_panic(expected = "queued ahead of its tail")]
    fn rejects_out_of_fifo_arrival() {
        let mut cal = Calendar::new(0, 1);
        cal.arrive(0, ns(10), 0, true);
        cal.arrive(0, ns(9), 1, true);
    }

    #[test]
    fn wake_rearmed_earlier_fires_first() {
        let mut cal = Calendar::new(0, 1);
        cal.rearm_wake(ns(5_000));
        cal.arrive(0, ns(2_000), 7, true);
        // Pull the wake ahead of the arrival.
        cal.rearm_wake(ns(1_000));
        assert_eq!(cal.len(), 2);
        assert_eq!(round(&mut cal), Some((ns(1_000), vec![(3, 0, 0)])));
        assert_eq!(round(&mut cal), Some((ns(2_000), vec![(1, 0, 7)])));
        assert_eq!(round(&mut cal), None);
        // Accounting: two schedules plus one re-arm (a cancel and a
        // schedule), two pops.
        let p = cal.profile();
        assert_eq!((p.scheduled, p.popped, p.cancelled), (3, 2, 1));
    }

    #[test]
    fn superseded_wake_never_fires() {
        let mut cal: Calendar<u64> = Calendar::new(0, 0);
        cal.rearm_wake(ns(5));
        cal.rearm_wake(ns(2));
        assert_eq!(cal.len(), 1);
        assert_eq!(round(&mut cal), Some((ns(2), vec![(3, 0, 0)])));
        assert_eq!(round(&mut cal), None, "no wake left at 5 ns");
        assert!(cal.is_empty());
    }

    #[test]
    fn wake_rearmed_later_is_ignored() {
        let mut cal: Calendar<u64> = Calendar::new(0, 0);
        cal.rearm_wake(ns(1));
        cal.rearm_wake(ns(2));
        cal.rearm_wake(ns(1));
        assert_eq!(cal.next_instant(), Some(ns(1)));
        assert_eq!(cal.len(), 1);
        let p = cal.profile();
        assert_eq!((p.scheduled, p.cancelled), (1, 0));
    }

    #[test]
    fn rearm_after_fire_schedules_afresh() {
        let mut cal: Calendar<u64> = Calendar::new(0, 0);
        cal.rearm_wake(ns(1));
        round(&mut cal);
        // The fired wake is gone: a later re-arm is a plain schedule,
        // not a cancel.
        cal.rearm_wake(ns(4));
        assert_eq!(cal.next_instant(), Some(ns(4)));
        let p = cal.profile();
        assert_eq!((p.scheduled, p.popped, p.cancelled), (2, 1, 0));
    }

    #[test]
    fn wake_rearm_churn_keeps_one_pending() {
        // A wake pulled earlier thousands of times stays one event.
        let mut cal = Calendar::new(0, 1);
        cal.arrive(0, ns(20_000), 0, true);
        for i in 0..10_000u64 {
            cal.rearm_wake(ns(15_000 - i));
            assert_eq!(cal.len(), 2);
        }
        let p = cal.profile();
        assert_eq!((p.scheduled, p.cancelled, p.peak_depth), (10_001, 9_999, 2));
        assert_eq!(cal.next_instant(), Some(ns(5_001)));
    }

    #[test]
    fn next_instant_sees_earliest_live_entry() {
        let mut cal = Calendar::new(1, 1);
        assert_eq!(cal.next_instant(), None);
        cal.arrive(0, ns(3), 0, true);
        cal.rearm_wake(ns(8));
        assert_eq!(cal.next_instant(), Some(ns(3)));
        // Peeking has no side effects.
        assert_eq!(cal.next_instant(), Some(ns(3)));
        assert_eq!(cal.len(), 2);
        round(&mut cal);
        assert_eq!(cal.next_instant(), Some(ns(8)));
        cal.push(0, ns(5), 0);
        assert_eq!(cal.next_instant(), Some(ns(5)));
        round(&mut cal);
        round(&mut cal);
        assert_eq!(cal.next_instant(), None);
    }

    #[test]
    fn next_instant_follows_a_rearmed_wake() {
        let mut cal = Calendar::new(0, 1);
        cal.arrive(0, ns(7), 0, true);
        cal.rearm_wake(ns(9));
        cal.rearm_wake(ns(2));
        assert_eq!(cal.next_instant(), Some(ns(2)));
        round(&mut cal);
        assert_eq!(
            cal.next_instant(),
            Some(ns(7)),
            "the superseded 9 ns wake is gone"
        );
        round(&mut cal);
        assert_eq!(cal.next_instant(), None);
    }

    #[test]
    fn pop_round_takes_only_the_given_instant() {
        let mut cal = Calendar::new(0, 2);
        cal.arrive(0, ns(3), 0, true);
        cal.arrive(0, ns(9), 1, true);
        cal.arrive(1, ns(3), 2, true);
        let mut out = Vec::new();
        cal.pop_round(ns(3), &mut out);
        assert_eq!(
            out.iter().map(key).collect::<Vec<_>>(),
            [(1, 0, 0), (1, 1, 2)]
        );
        out.clear();
        cal.pop_round(ns(3), &mut out);
        assert!(out.is_empty(), "nothing left at 3 ns");
        assert_eq!(cal.len(), 1, "the 9 ns arrival stays queued");
        assert_eq!(cal.profile().popped, 2);
    }

    #[test]
    fn push_at_the_current_instant_fires_next_round() {
        let t = ns(4);
        let mut cal = Calendar::new(2, 1);
        cal.push(0, t, 0);
        cal.push(1, t, 0);
        cal.arrive(0, t, 9, true);
        let mut out = Vec::new();
        cal.pop_round(t, &mut out);
        assert_eq!(out.len(), 3);
        // Dispatching source 0's push queues its next SDU at the same
        // instant: it comes out of the next round, after this round's
        // arrival.
        cal.push(0, t, 1);
        out.clear();
        cal.pop_round(t, &mut out);
        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), [(0, 0, 1)]);
    }

    #[test]
    fn profile_counts_operations() {
        let mut cal = Calendar::new(1, 1);
        cal.push(0, ns(1), 0);
        cal.arrive(0, ns(2), 0, true);
        cal.rearm_wake(ns(3));
        cal.rearm_wake(ns(2));
        while round(&mut cal).is_some() {}
        let p = cal.profile();
        assert_eq!(p.scheduled, 4);
        assert_eq!(p.cancelled, 1);
        assert_eq!(p.popped, 3);
        assert_eq!(p.peak_depth, 3);
        assert_eq!(p.horizon, ns(2));
    }

    #[test]
    fn periodic_sample_pattern() {
        // A periodic tick: pop, then schedule the next one relative to
        // now.
        let mut cal: Calendar<u64> = Calendar::new(0, 0);
        cal.sample(Instant::from_millis(1));
        let mut fired = 0;
        while let Some((t, _)) = round(&mut cal) {
            fired += 1;
            if fired < 5 {
                cal.sample(t + Duration::from_millis(1));
            }
        }
        assert_eq!(fired, 5);
        assert_eq!(cal.profile().horizon, Instant::from_millis(5));
    }
}
