//! Pluggable time sources for protocol hosts.
//!
//! The state machines never read a clock — every entry point takes
//! `now: Instant` — so *hosts* decide where time comes from. This module
//! names that decision: a [`Clock`] yields the current [`Instant`] and
//! can park the calling thread, and every host (the discrete-event
//! simulator, the real-UDP loopback host, the model checker, tests)
//! drives the same machines and the same telemetry pipeline through one
//! of its implementations:
//!
//! * [`ManualClock`] — time advances only when the owner says so. The
//!   simulator's event loop keeps one in lock-step with its event queue,
//!   and tests use it as a *fake clock*: deterministic timer expiry with
//!   no real waiting ([`Clock::sleep`] advances virtual time instead of
//!   parking).
//! * [`WallClock`] — monotonic real time, measured from the clock's
//!   construction so timestamps stay run-local and small (a trace never
//!   carries Unix-epoch nanoseconds unless a host asks for them via
//!   [`WallClock::unix_epoch_nanos`]). Its [`Clock::sleep`] parks the
//!   calling thread and, on Linux, first drops that thread's timer slack
//!   to 1 ns, so a sleep to the next protocol deadline ends at the
//!   deadline rather than up to 50 µs after it.
//!
//! Which source produced a trace matters to consumers — wall-clock
//! cadences are only approximately the configured protocol periods,
//! and re-running never reproduces identical timestamps — so streams
//! are tagged with a [`ClockDomain`] (the `trace_header` record).

use crate::time::{Duration, Instant};
use std::cell::Cell;

/// Which kind of time a stream of instants was measured in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Virtual time: deterministic, reproducible bit-for-bit.
    Sim,
    /// Monotonic wall-clock time: real, never exactly reproducible.
    Wall,
}

impl ClockDomain {
    /// Stable machine-readable name (the `clock_domain` trace field).
    pub fn as_str(self) -> &'static str {
        match self {
            ClockDomain::Sim => "sim",
            ClockDomain::Wall => "wall",
        }
    }

    /// Parse the machine-readable name back.
    pub fn parse(s: &str) -> Option<ClockDomain> {
        match s {
            "sim" => Some(ClockDomain::Sim),
            "wall" => Some(ClockDomain::Wall),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A host's time source.
///
/// `&self` throughout: hosts hand out shared references to one clock
/// (the event loop, the stats emitter, and the trace pipeline all read
/// the same instant stream).
pub trait Clock {
    /// The current instant on this clock's timeline.
    fn now(&self) -> Instant;

    /// Let `d` pass. Wall clocks park the thread until `d` has passed
    /// and wake as close after it as the OS allows; manual clocks
    /// advance their virtual time, so host loops written against
    /// [`Clock`] run unmodified (and instantly) under a fake clock in
    /// tests.
    fn sleep(&self, d: Duration);

    /// Which domain this clock's instants live in.
    fn domain(&self) -> ClockDomain;
}

/// Monotonic wall-clock time, zeroed at construction.
///
/// [`Clock::sleep`] wakes on time: the first sleep in each thread sets
/// that thread's timer slack to 1 ns (Linux `PR_SET_TIMERSLACK`; a no-op
/// elsewhere). Linux otherwise lets a sleeping thread's timer fire up to
/// 50 µs late, which on a loopback link is longer than the 27 µs
/// I-frame slot the host is waiting out. Threads the sleeping thread
/// spawns afterwards inherit the setting.
#[derive(Clone, Debug)]
pub struct WallClock {
    epoch: std::time::Instant,
    unix_epoch_nanos: u128,
}

impl WallClock {
    /// A wall clock whose `t = 0` is now.
    pub fn new() -> Self {
        WallClock {
            epoch: std::time::Instant::now(),
            unix_epoch_nanos: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
        }
    }

    /// Unix time of this clock's `t = 0`, in nanoseconds — lets a
    /// machine-readable report anchor its run-local timestamps to
    /// calendar time without widening every trace record.
    pub fn unix_epoch_nanos(&self) -> u128 {
        self.unix_epoch_nanos
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn sleep(&self, d: Duration) {
        thread_local! {
            static PRECISE: Cell<bool> = const { Cell::new(false) };
        }
        if !PRECISE.replace(true) {
            set_minimal_timer_slack();
        }
        std::thread::sleep(std::time::Duration::from_nanos(d.as_nanos()));
    }

    fn domain(&self) -> ClockDomain {
        ClockDomain::Wall
    }
}

/// Set the calling thread's timer slack to 1 ns, the smallest the
/// kernel accepts (0 means "back to the default"). A failed call leaves
/// the default slack, which only makes wake-ups late, so its result is
/// ignored.
#[cfg(target_os = "linux")]
fn set_minimal_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: `prctl` is libc's, which std already links. With
    // PR_SET_TIMERSLACK it reads one `unsigned long` argument, passed
    // here as `c_ulong`, changes only the calling thread's timer slack,
    // and touches no memory of this process.
    #[allow(unsafe_code)]
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

#[cfg(not(target_os = "linux"))]
fn set_minimal_timer_slack() {}

/// Manually-advanced virtual time.
///
/// The simulator keeps one in lock-step with its event queue; tests use
/// it as a fake clock. `sleep` advances the clock instead of parking,
/// so a polling host loop makes progress under manual time without any
/// real delay.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: Cell<u64>,
}

impl ManualClock {
    /// A manual clock starting at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A manual clock starting at `t`.
    pub fn at(t: Instant) -> Self {
        ManualClock {
            now_ns: Cell::new(t.as_nanos()),
        }
    }

    /// Move the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.now_ns
            .set(self.now_ns.get().saturating_add(d.as_nanos()));
    }

    /// Jump the clock to `t`. Time never runs backwards: an earlier `t`
    /// is ignored, so event loops can re-assert "it is now the popped
    /// event's instant" without guarding.
    pub fn set(&self, t: Instant) {
        if t.as_nanos() > self.now_ns.get() {
            self.now_ns.set(t.as_nanos());
        }
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.now_ns.get())
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }

    fn domain(&self) -> ClockDomain {
        ClockDomain::Sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_on_request() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Instant::ZERO);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now(), Instant::from_millis(5));
        // sleep is virtual: it advances rather than parking.
        c.sleep(Duration::from_millis(2));
        assert_eq!(c.now(), Instant::from_millis(7));
        assert_eq!(c.domain(), ClockDomain::Sim);
    }

    #[test]
    fn manual_clock_never_runs_backwards() {
        let c = ManualClock::at(Instant::from_millis(10));
        c.set(Instant::from_millis(3));
        assert_eq!(c.now(), Instant::from_millis(10));
        c.set(Instant::from_millis(12));
        assert_eq!(c.now(), Instant::from_millis(12));
    }

    #[test]
    fn wall_clock_is_monotonic_and_run_local() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Run-local: fresh clocks start near zero, not at the Unix epoch.
        assert!(a < Instant::from_millis(60_000), "{a:?}");
        assert_eq!(c.domain(), ClockDomain::Wall);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn only_wall_clock_sleep_sets_minimal_timer_slack() {
        // The calling thread's slack. Task directories carry no
        // `timerslack_ns`, so read it under `/proc/<tid>`.
        fn slack_ns() -> u64 {
            let task = std::fs::read_link("/proc/thread-self").expect("thread-self link");
            let tid = task.file_name().expect("thread id").to_owned();
            std::fs::read_to_string(
                std::path::Path::new("/proc")
                    .join(tid)
                    .join("timerslack_ns"),
            )
            .expect("timerslack_ns readable")
            .trim()
            .parse()
            .expect("timerslack_ns is an integer")
        }
        // Slack is per thread and inherited at spawn, so each check
        // runs on a fresh thread spawned before any sleep of its own.
        std::thread::spawn(|| {
            assert_ne!(
                slack_ns(),
                1,
                "a fresh thread starts with the default slack"
            );
            WallClock::new().sleep(Duration::from_micros(1));
            assert_eq!(slack_ns(), 1);
        })
        .join()
        .expect("wall-clock thread");
        std::thread::spawn(|| {
            let before = slack_ns();
            ManualClock::new().sleep(Duration::from_micros(1));
            assert_eq!(slack_ns(), before, "virtual sleeps leave the thread alone");
        })
        .join()
        .expect("manual-clock thread");
    }

    #[test]
    fn domain_names_round_trip() {
        for d in [ClockDomain::Sim, ClockDomain::Wall] {
            assert_eq!(ClockDomain::parse(d.as_str()), Some(d));
        }
        assert_eq!(ClockDomain::parse("lamport"), None);
    }
}
