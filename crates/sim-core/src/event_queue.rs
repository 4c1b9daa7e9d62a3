//! The discrete-event scheduler.
//!
//! A classic calendar of `(Instant, payload)` pairs backed by a binary heap.
//! Ties are broken by insertion order (FIFO among simultaneous events) so
//! that runs are deterministic regardless of heap internals — a requirement
//! for reproducible experiments and for paper assumption 8 (deterministic
//! model).
//!
//! ## Hot-path layout
//!
//! Payloads live in a slab and the heap orders small fixed-size
//! `(at, seq, slot)` entries, so sift operations move 24 bytes no matter
//! how large the event type is. Liveness is a bit per issued sequence
//! number: [`EventQueue::cancel`] clears one bit (O(1), no heap scan, no
//! hashing) and [`EventQueue::pop`] skips dead entries with one bit test
//! per entry. [`EventQueue::reschedule`] moves a pending event to a new
//! instant without touching its payload — one operation where callers
//! previously paid a cancel plus a fresh schedule.

use crate::time::Instant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle returned by [`EventQueue::schedule`]; can be used to cancel or
/// reschedule the event while it is still pending.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A heap entry: when, tie-break, and where the payload lives. Kept
/// payload-free (and `Copy`) so heap sifts move 24 bytes regardless of
/// the event type's size.
#[derive(Clone, Copy)]
struct Entry {
    at: Instant,
    seq: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event (and among
        // equals, the first inserted) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use sim_core::{EventQueue, Instant};
///
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_millis(2), "later");
/// q.schedule(Instant::from_millis(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (Instant::from_millis(1), "sooner"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// Payload slab; heap entries index into it. `None` slots are free.
    slots: Vec<Option<E>>,
    free_slots: Vec<u32>,
    /// One liveness bit per issued sequence number: set while the event
    /// is pending, cleared on pop/cancel/reschedule.
    live: Vec<u64>,
    /// Heap entries whose liveness bit is clear (awaiting lazy removal).
    dead: usize,
    next_seq: u64,
    now: Instant,
    stats: QueueStats,
    /// Wall-clock span handle; disabled (one branch per operation)
    /// unless a driver opted in via [`EventQueue::set_profiler`].
    prof: profile::Prof,
}

/// Lifetime counters maintained by [`EventQueue`]; cheap enough to be
/// always-on (a handful of integer updates per operation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct QueueStats {
    scheduled: u64,
    popped: u64,
    cancelled: u64,
    peak_depth: usize,
    compactions: u64,
}

/// A profiling snapshot of an [`EventQueue`], taken with
/// [`EventQueue::profile`] — typically once, after a run drains the
/// queue — and reported in machine-readable run output.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueProfile {
    /// Events ever scheduled (a reschedule counts as a fresh schedule).
    pub scheduled: u64,
    /// Events popped (fired).
    pub popped: u64,
    /// Events cancelled before firing (a reschedule counts as a cancel
    /// of the superseded instant).
    pub cancelled: u64,
    /// Maximum number of pending events at any point.
    pub peak_depth: usize,
    /// Times the heap was compacted because lazily-cancelled entries
    /// outnumbered live ones.
    pub compactions: u64,
    /// Simulated time reached (timestamp of the last pop).
    pub horizon: Instant,
}

impl QueueProfile {
    /// Simulated events processed per wall-clock second.
    pub fn events_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.popped as f64 / wall_secs
        } else {
            0.0
        }
    }

    /// Fold another profile into this one (summing counters, taking the
    /// max of peaks and horizons) — used when one run drives several
    /// queues.
    pub fn absorb(&mut self, other: &QueueProfile) {
        self.scheduled += other.scheduled;
        self.popped += other.popped;
        self.cancelled += other.cancelled;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.compactions += other.compactions;
        self.horizon = self.horizon.max(other.horizon);
    }
}

/// Wall-clock stopwatch for computing simulated-events/sec alongside a
/// [`QueueProfile`]. Separate from simulated time on purpose: nothing
/// inside the simulation may observe it.
#[derive(Clone, Debug)]
pub struct RunTimer {
    clock: proto_core::WallClock,
}

impl RunTimer {
    /// Start timing now.
    pub fn start() -> Self {
        RunTimer {
            clock: proto_core::WallClock::new(),
        }
    }

    /// Wall-clock seconds since `start`.
    pub fn elapsed_secs(&self) -> f64 {
        use proto_core::Clock;
        self.clock.now().as_secs_f64()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live: Vec::new(),
            dead: 0,
            next_seq: 0,
            now: Instant::ZERO,
            stats: QueueStats::default(),
            prof: profile::Prof::disabled(),
        }
    }

    /// Attach a self-profiling handle: every queue operation then runs
    /// under a wall-clock span (`queue.schedule`, `queue.pop`, ...)
    /// recorded beneath whatever span the caller currently has open.
    /// The handle survives [`EventQueue::reset`]; pass
    /// [`profile::Prof::disabled`] to detach.
    pub fn set_profiler(&mut self, prof: profile::Prof) {
        self.prof = prof;
    }

    /// Return the queue to its just-constructed state — clock at t = 0,
    /// no pending events, fresh counters — while keeping the heap's,
    /// slab's and bitmap's allocations. Lets a driver reuse one queue
    /// across many runs.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.live.clear();
        self.dead = 0;
        self.next_seq = 0;
        self.now = Instant::ZERO;
        self.stats = QueueStats::default();
    }

    /// Snapshot the queue's lifetime profiling counters.
    pub fn profile(&self) -> QueueProfile {
        QueueProfile {
            scheduled: self.stats.scheduled,
            popped: self.stats.popped,
            cancelled: self.stats.cancelled,
            peak_depth: self.stats.peak_depth,
            compactions: self.stats.compactions,
            horizon: self.now,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (t = 0 before the first pop).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.dead
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn is_live(&self, seq: u64) -> bool {
        let word = (seq >> 6) as usize;
        word < self.live.len() && self.live[word] & (1u64 << (seq & 63)) != 0
    }

    #[inline]
    fn set_live(&mut self, seq: u64) {
        let word = (seq >> 6) as usize;
        if word >= self.live.len() {
            self.live.resize(word + 1, 0);
        }
        self.live[word] |= 1u64 << (seq & 63);
    }

    #[inline]
    fn clear_live(&mut self, seq: u64) {
        let word = (seq >> 6) as usize;
        if word < self.live.len() {
            self.live[word] &= !(1u64 << (seq & 63));
        }
    }

    #[inline]
    fn alloc_slot(&mut self, payload: E) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Schedule `payload` to fire at `at`.
    ///
    /// Scheduling in the past is a logic error and panics: the simulated
    /// clock must never run backwards.
    pub fn schedule(&mut self, at: Instant, payload: E) -> EventId {
        let _span = self.prof.span("queue.schedule");
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(payload);
        self.set_live(seq);
        self.heap.push(Entry { at, seq, slot });
        self.stats.scheduled += 1;
        let depth = self.heap.len() - self.dead;
        self.stats.peak_depth = self.stats.peak_depth.max(depth);
        EventId { seq, slot }
    }

    /// Cancel a previously scheduled event: clear its liveness bit and
    /// free its payload slot — O(1), no heap traversal. The heap entry
    /// is dropped lazily when it surfaces. Cancelling an already-fired
    /// or unknown id is a no-op. Returns whether the id was pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let _span = self.prof.span("queue.cancel");
        if !self.is_live(id.seq) {
            return false;
        }
        self.clear_live(id.seq);
        self.slots[id.slot as usize] = None;
        self.free_slots.push(id.slot);
        self.dead += 1;
        self.stats.cancelled += 1;
        self.maybe_compact();
        true
    }

    /// Move a pending event to a new instant, keeping its payload — the
    /// one-operation form of cancel + schedule that timer refreshes
    /// want. The event is re-sequenced: among events at the new instant
    /// it fires after those already scheduled there. Returns the
    /// replacement id, or `None` when `id` already fired or was
    /// cancelled (the payload is gone; schedule afresh).
    ///
    /// Like [`EventQueue::schedule`], rescheduling into the past panics.
    pub fn reschedule(&mut self, id: EventId, at: Instant) -> Option<EventId> {
        let _span = self.prof.span("queue.reschedule");
        if !self.is_live(id.seq) {
            return None;
        }
        assert!(
            at >= self.now,
            "rescheduling into the past: at={at:?} now={:?}",
            self.now
        );
        // The superseded heap entry goes dead in place; the payload slot
        // transfers to the replacement id untouched.
        self.clear_live(id.seq);
        self.dead += 1;
        self.stats.cancelled += 1;
        self.maybe_compact();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.set_live(seq);
        self.heap.push(Entry {
            at,
            seq,
            slot: id.slot,
        });
        self.stats.scheduled += 1;
        Some(EventId { seq, slot: id.slot })
    }

    /// Timestamp of the earliest *live* pending event without popping
    /// it — the horizon a conservative parallel shard advertises to its
    /// coordinator. Dead (cancelled/superseded) heap entries at the top
    /// are dropped on the way, so the answer is exact, not a stale
    /// lower bound.
    pub fn next_instant(&mut self) -> Option<Instant> {
        let _span = self.prof.span("queue.next_instant");
        self.drop_dead();
        self.heap.peek().map(|e| e.at)
    }

    /// Timestamp of the next pending event, if any. Alias of
    /// [`EventQueue::next_instant`], kept for existing callers.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.next_instant()
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let _span = self.prof.span("queue.pop");
        self.drop_dead();
        self.pop_live()
    }

    /// Pop the heap top, which `drop_dead` has just made live.
    fn pop_live(&mut self) -> Option<(Instant, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.stats.popped += 1;
        self.clear_live(entry.seq);
        let payload = self.slots[entry.slot as usize]
            .take()
            .expect("live entry owns its slot");
        self.free_slots.push(entry.slot);
        Some((entry.at, payload))
    }

    /// Pop the next event only if it fires exactly at `at` — the fused
    /// peek-then-pop the event loop's same-instant drain wants, touching
    /// the heap top once.
    pub fn pop_at(&mut self, at: Instant) -> Option<E> {
        let _span = self.prof.span("queue.pop_at");
        self.drop_dead();
        if self.heap.peek().map(|e| e.at) != Some(at) {
            return None;
        }
        self.pop_live().map(|(_, e)| e)
    }

    /// Pop the next event only if it fires at or before `limit` — the
    /// fused peek-then-pop a windowed event loop wants, touching the
    /// heap top once.
    pub fn pop_until(&mut self, limit: Instant) -> Option<(Instant, E)> {
        let _span = self.prof.span("queue.pop_until");
        self.drop_dead();
        if self.heap.peek().is_none_or(|e| e.at > limit) {
            return None;
        }
        self.pop_live()
    }

    fn drop_dead(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.is_live(top.seq) {
                break;
            }
            self.heap.pop();
            self.dead -= 1;
        }
    }

    /// Rebuild the heap without its dead entries once they outnumber
    /// the live ones. Lazy cancellation alone only removes dead entries
    /// when they surface at the top, so a cancel-heavy run whose
    /// cancelled timers sit far in the future grows the heap without
    /// bound; compacting at the dead > live threshold keeps the heap at
    /// most 2× the live count while staying O(1) amortized per cancel
    /// (a compaction touching n entries is paid for by the > n/2
    /// cancels since the last one).
    fn maybe_compact(&mut self) {
        if self.dead <= self.heap.len() - self.dead {
            return;
        }
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|e| self.is_live(e.seq));
        self.heap = BinaryHeap::from(entries);
        self.dead = 0;
        self.stats.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(30), 3);
        q.schedule(Instant::from_nanos(10), 1);
        q.schedule(Instant::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(5), ());
        q.schedule(Instant::from_nanos(5), ());
        q.schedule(Instant::from_nanos(9), ());
        let mut last = Instant::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, Instant::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(10), ());
        q.pop();
        q.schedule(Instant::from_nanos(5), ());
    }

    #[test]
    fn cancel_pending_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_nanos(1), "a");
        q.schedule(Instant::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_fired_event_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_nanos(1), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_nanos(1), "a");
        q.schedule(Instant::from_nanos(7), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Instant::from_nanos(7)));
    }

    #[test]
    fn profile_counts_operations() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_nanos(1), "a");
        q.schedule(Instant::from_nanos(2), "b");
        q.schedule(Instant::from_nanos(3), "c");
        q.cancel(a);
        q.cancel(a); // double-cancel must not double-count
        while q.pop().is_some() {}
        let p = q.profile();
        assert_eq!(p.scheduled, 3);
        assert_eq!(p.cancelled, 1);
        assert_eq!(p.popped, 2);
        assert_eq!(p.peak_depth, 3);
        assert_eq!(p.horizon, Instant::from_nanos(3));
    }

    #[test]
    fn profile_absorb_merges() {
        let mut a = QueueProfile {
            scheduled: 5,
            popped: 4,
            cancelled: 1,
            peak_depth: 3,
            compactions: 2,
            horizon: Instant::from_millis(2),
        };
        let b = QueueProfile {
            scheduled: 2,
            popped: 2,
            cancelled: 0,
            peak_depth: 7,
            compactions: 1,
            horizon: Instant::from_millis(1),
        };
        a.absorb(&b);
        assert_eq!(a.scheduled, 7);
        assert_eq!(a.popped, 6);
        assert_eq!(a.peak_depth, 7);
        assert_eq!(a.compactions, 3);
        assert_eq!(a.horizon, Instant::from_millis(2));
        assert!(a.events_per_sec(2.0) == 3.0);
        assert!(a.events_per_sec(0.0) == 0.0);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_nanos(1), "a");
        q.schedule(Instant::from_nanos(2), "b");
        q.cancel(a);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Instant::ZERO);
        assert_eq!(q.profile(), QueueProfile::default());
        // Post-reset behaviour matches a fresh queue, including seq-based
        // FIFO tie-breaking starting over from zero.
        q.schedule(Instant::from_nanos(1), "x");
        q.schedule(Instant::from_nanos(1), "y");
        assert_eq!(q.pop().unwrap().1, "x");
        assert_eq!(q.pop().unwrap().1, "y");
        let p = q.profile();
        assert_eq!((p.scheduled, p.popped), (2, 2));
    }

    #[test]
    fn reschedule_pattern() {
        // A periodic timer: pop, then reschedule relative to now.
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(1), ());
        let mut fired = 0;
        while fired < 5 {
            let (t, ()) = q.pop().unwrap();
            fired += 1;
            if fired < 5 {
                q.schedule(t + Duration::from_millis(1), ());
            }
        }
        assert_eq!(q.now(), Instant::from_millis(5));
    }

    #[test]
    fn reschedule_moves_event_keeping_payload() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_millis(5), "timer");
        q.schedule(Instant::from_millis(2), "other");
        // Refresh the timer earlier than the other event.
        let a2 = q.reschedule(a, Instant::from_millis(1)).expect("pending");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap(), (Instant::from_millis(1), "timer"));
        assert_eq!(q.pop().unwrap(), (Instant::from_millis(2), "other"));
        assert!(q.is_empty());
        // The superseded id is dead; so is the replacement after firing.
        assert!(!q.cancel(a));
        assert!(!q.cancel(a2));
        // Accounting: 2 schedules + 1 reschedule (counts as both), 2 pops.
        let p = q.profile();
        assert_eq!((p.scheduled, p.popped, p.cancelled), (3, 2, 1));
    }

    #[test]
    fn reschedule_later_and_ties() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_millis(1), "a");
        q.schedule(Instant::from_millis(2), "b");
        // Deferring re-sequences: at the tied instant, "a" now fires
        // after "b" (it re-entered the queue later).
        q.reschedule(a, Instant::from_millis(2)).expect("pending");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn reschedule_dead_ids_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_millis(1), "a");
        assert!(q.cancel(a));
        assert!(q.reschedule(a, Instant::from_millis(2)).is_none());
        let b = q.schedule(Instant::from_millis(1), "b");
        q.pop();
        assert!(q.reschedule(b, Instant::from_millis(2)).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_only_fires_exact_instant() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(3);
        q.schedule(t, "x");
        q.schedule(Instant::from_millis(9), "y");
        assert_eq!(q.pop_at(Instant::from_millis(1)), None);
        assert_eq!(q.pop_at(t), Some("x"));
        assert_eq!(q.pop_at(t), None);
        assert_eq!(q.pop().unwrap().1, "y");
    }

    #[test]
    fn next_instant_sees_earliest_live_entry() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_instant(), None);
        let a = q.schedule(Instant::from_nanos(3), "a");
        q.schedule(Instant::from_nanos(8), "b");
        assert_eq!(q.next_instant(), Some(Instant::from_nanos(3)));
        // Peeking is side-effect free on live entries: nothing popped,
        // nothing reordered.
        assert_eq!(q.next_instant(), Some(Instant::from_nanos(3)));
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.next_instant(), Some(Instant::from_nanos(8)));
        let c = q.schedule(Instant::from_nanos(5), "c");
        let c2 = q.reschedule(c, Instant::from_nanos(9)).unwrap();
        assert_eq!(q.next_instant(), Some(Instant::from_nanos(8)));
        q.cancel(c2);
        assert_eq!(q.next_instant(), Some(Instant::from_nanos(8)));
        q.pop();
        assert_eq!(q.next_instant(), None);
    }

    #[test]
    fn pop_until_stops_past_the_limit() {
        let mut q = EventQueue::new();
        assert!(q.pop_until(Instant::from_nanos(10)).is_none());
        let a = q.schedule(Instant::from_nanos(3), "a");
        q.schedule(Instant::from_nanos(5), "b");
        q.schedule(Instant::from_nanos(9), "c");
        q.cancel(a);
        assert_eq!(
            q.pop_until(Instant::from_nanos(5)),
            Some((Instant::from_nanos(5), "b")),
            "a cancelled head is skipped; an event at the limit pops"
        );
        assert!(q.pop_until(Instant::from_nanos(8)).is_none());
        assert_eq!(q.len(), 1, "an event past the limit stays queued");
        assert_eq!(
            q.pop_until(Instant::from_nanos(9)).map(|(_, e)| e),
            Some("c")
        );
    }

    #[test]
    fn churn_loop_keeps_heap_bounded() {
        // Schedule-then-cancel churn with the cancelled timers far in
        // the future, so none of them ever surfaces at the heap top for
        // lazy removal. Without compaction the heap grows by one dead
        // entry per iteration; with it the heap stays within 2× the
        // live population.
        let mut q = EventQueue::new();
        let live: Vec<_> = (0..8)
            .map(|i| q.schedule(Instant::from_millis(1_000 + i), "live"))
            .collect();
        for i in 0..10_000u64 {
            let id = q.schedule(Instant::from_millis(500 + i), "churn");
            q.cancel(id);
        }
        assert_eq!(q.len(), live.len());
        assert!(
            q.heap.len() <= 2 * live.len() + 1,
            "heap holds {} entries for {} live events — lazy-cancel \
             growth is unbounded",
            q.heap.len(),
            live.len()
        );
        let p = q.profile();
        assert!(p.compactions > 0, "churn loop never compacted");
        // The survivors are untouched by compaction.
        for (i, id) in live.iter().enumerate() {
            assert!(q.cancel(*id), "live event {i} lost by compaction");
        }
    }

    #[test]
    fn compaction_preserves_order_and_accounting() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..64)
            .map(|i| q.schedule(Instant::from_nanos(100 + i), i))
            .collect();
        // Cancel everything not divisible by 4; once dead entries
        // outnumber live ones the heap compacts mid-loop.
        for (i, id) in ids.iter().enumerate() {
            if i % 4 != 0 {
                q.cancel(*id);
            }
        }
        assert!(q.profile().compactions > 0);
        assert_eq!(q.len(), 16);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..64).step_by(4).collect::<Vec<_>>());
        let p = q.profile();
        assert_eq!((p.scheduled, p.popped, p.cancelled), (64, 16, 48));
    }

    #[test]
    fn slots_recycle_after_pop_and_cancel() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            let base = Instant::from_millis(round * 10 + 1);
            let a = q.schedule(base, round);
            q.schedule(base + Duration::from_millis(1), round + 100);
            q.cancel(a);
            assert_eq!(q.pop().unwrap().1, round + 100);
        }
        // The slab never grew past the peak of two concurrent events.
        assert!(q.slots.len() <= 2, "slab len {}", q.slots.len());
    }
}
