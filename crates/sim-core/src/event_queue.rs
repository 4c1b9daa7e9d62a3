//! Lifetime counters of a run's event schedule, and the wall-clock
//! stopwatch reported beside them.

use crate::time::Instant;

/// A profiling snapshot of a simulation's event schedule — typically
/// taken once, after a run drains it — reported in machine-readable run
/// output.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueProfile {
    /// Events ever scheduled (moving a pending wake earlier counts as a
    /// fresh schedule).
    pub scheduled: u64,
    /// Events popped (fired).
    pub popped: u64,
    /// Events cancelled before firing (moving a pending wake earlier
    /// counts as a cancel of the superseded instant).
    pub cancelled: u64,
    /// Maximum number of pending events at any point.
    pub peak_depth: usize,
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
    /// schedules.
    pub fn absorb(&mut self, other: &QueueProfile) {
        self.scheduled += other.scheduled;
        self.popped += other.popped;
        self.cancelled += other.cancelled;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_absorb_merges() {
        let mut a = QueueProfile {
            scheduled: 5,
            popped: 4,
            cancelled: 1,
            peak_depth: 3,
            horizon: Instant::from_millis(2),
        };
        let b = QueueProfile {
            scheduled: 2,
            popped: 2,
            cancelled: 0,
            peak_depth: 7,
            horizon: Instant::from_millis(1),
        };
        a.absorb(&b);
        assert_eq!(a.scheduled, 7);
        assert_eq!(a.popped, 6);
        assert_eq!(a.cancelled, 1);
        assert_eq!(a.peak_depth, 7);
        assert_eq!(a.horizon, Instant::from_millis(2));
        assert!(a.events_per_sec(2.0) == 3.0);
        assert!(a.events_per_sec(0.0) == 0.0);
    }
}
