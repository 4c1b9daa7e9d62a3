//! Host-agnostic virtual time.
//!
//! Both [`Instant`] (a point on a timeline) and [`Duration`] (a span between
//! two points) are thin wrappers over `u64` nanosecond counts, cheap to copy
//! and totally ordered. They carry no clock source: under the simulator `t = 0`
//! is the start of the run and the event loop advances time; under a real
//! driver (the UDP demo) the host maps a wall-clock epoch onto the same axis.
//!
//! Protocols in this workspace are *sans-IO*: they never read a clock.
//! Every entry point takes `now: Instant`, and timer state is expressed as
//! "the next instant at which I want to be polled". This keeps every run
//! bit-for-bit reproducible (paper assumption 8: deterministic parameters).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds from the start of the
/// simulation (t = 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant {
    nanos: u64,
}

/// A span of simulated time in nanoseconds.
///
/// Durations are unsigned; subtracting a later instant from an earlier one
/// panics in debug builds (saturates in release), the same contract as
/// `std::time`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    nanos: u64,
}

impl Instant {
    /// The origin of the simulation timeline.
    pub const ZERO: Instant = Instant { nanos: 0 };
    /// The greatest representable instant; used as "no deadline".
    pub const MAX: Instant = Instant { nanos: u64::MAX };

    /// Construct from raw nanoseconds since t = 0.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Instant { nanos }
    }

    /// Construct from microseconds since t = 0.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Instant {
            nanos: micros * 1_000,
        }
    }

    /// Construct from milliseconds since t = 0.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Instant {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from whole seconds since t = 0.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Instant {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Nanoseconds since t = 0.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds since t = 0 as a float (for reporting only; never use floats
    /// to drive simulation control flow).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Time elapsed since `earlier`. Saturates to zero if `earlier` is in
    /// the future (debug builds panic, matching `std::time::Instant`).
    #[inline]
    pub fn duration_since(self, earlier: Instant) -> Duration {
        debug_assert!(
            self >= earlier,
            "duration_since: earlier ({earlier:?}) is after self ({self:?})"
        );
        Duration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is later —
    /// for timestamps read from outside the process, which may run
    /// backwards.
    #[inline]
    pub fn saturating_duration_since(self, earlier: Instant) -> Duration {
        Duration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }

    /// `self + d`, saturating at [`Instant::MAX`].
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Instant {
        Instant {
            nanos: self.nanos.saturating_add(d.nanos),
        }
    }

    /// Checked subtraction of a duration.
    #[inline]
    pub fn checked_sub(self, d: Duration) -> Option<Instant> {
        self.nanos.checked_sub(d.nanos).map(Instant::from_nanos)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration { nanos: 0 };
    /// The longest representable duration; used as "never".
    pub const MAX: Duration = Duration { nanos: u64::MAX };

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration { nanos }
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Duration {
            nanos: micros * 1_000,
        }
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Duration {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Duration {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "Duration::from_secs_f64: invalid seconds {secs}"
        );
        Duration {
            nanos: (secs * 1e9).round() as u64,
        }
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds as a float (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Milliseconds as a float (reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Microseconds as a float (reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.nanos as f64 / 1e3
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration {
            nanos: self.nanos.saturating_add(other.nanos),
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration {
            nanos: self.nanos.saturating_sub(other.nanos),
        }
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub fn checked_mul(self, factor: u64) -> Option<Duration> {
        self.nanos.checked_mul(factor).map(Duration::from_nanos)
    }

    /// Multiply by a non-negative float, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite factors.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "Duration::mul_f64: invalid factor {factor}"
        );
        Duration {
            nanos: (self.nanos as f64 * factor).round() as u64,
        }
    }
}

/// The earlier of two optional deadlines; `None` only when both are.
///
/// Unlike `Option::min`, which ranks `None` below every `Some`, an
/// absent deadline here never wins over a present one.
#[inline]
pub fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, rhs: Duration) -> Instant {
        Instant {
            nanos: self.nanos.checked_add(rhs.nanos).expect("Instant overflow"),
        }
    }
}

impl AddAssign<Duration> for Instant {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn sub(self, rhs: Duration) -> Instant {
        Instant {
            nanos: self
                .nanos
                .checked_sub(rhs.nanos)
                .expect("Instant underflow"),
        }
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration {
            nanos: self
                .nanos
                .checked_add(rhs.nanos)
                .expect("Duration overflow"),
        }
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration {
            nanos: self
                .nanos
                .checked_sub(rhs.nanos)
                .expect("Duration underflow"),
        }
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration {
            nanos: self.nanos.checked_mul(rhs).expect("Duration overflow"),
        }
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration {
            nanos: self.nanos / rhs,
        }
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration::from_nanos(self.nanos))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.nanos;
        if n == u64::MAX {
            write!(f, "∞")
        } else if n >= 1_000_000_000 {
            write!(f, "{:.6}s", n as f64 / 1e9)
        } else if n >= 1_000_000 {
            write!(f, "{:.3}ms", n as f64 / 1e6)
        } else if n >= 1_000 {
            write!(f, "{:.3}µs", n as f64 / 1e3)
        } else {
            write!(f, "{n}ns")
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_roundtrip_units() {
        assert_eq!(Instant::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Instant::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Instant::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Instant::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn duration_roundtrip_units() {
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::from_micros(1).as_nanos(), 1_000);
        assert!((Duration::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_instant_duration() {
        let t = Instant::from_millis(10);
        let d = Duration::from_millis(5);
        assert_eq!((t + d).as_nanos(), 15_000_000);
        assert_eq!((t - d).as_nanos(), 5_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(Duration::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn mul_div_duration() {
        let d = Duration::from_micros(3);
        assert_eq!((d * 4).as_nanos(), 12_000);
        assert_eq!((d / 3).as_nanos(), 1_000);
        assert_eq!(d.mul_f64(0.5).as_nanos(), 1_500);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Instant::MAX.saturating_add(Duration::from_secs(1)),
            Instant::MAX
        );
        assert_eq!(
            Duration::from_nanos(5).saturating_sub(Duration::from_nanos(9)),
            Duration::ZERO
        );
        assert_eq!(Instant::ZERO.checked_sub(Duration::from_nanos(1)), None);
    }

    #[test]
    fn ordering() {
        assert!(Instant::from_nanos(1) < Instant::from_nanos(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
        assert_eq!(
            Instant::ZERO.max(Instant::from_nanos(4)),
            Instant::from_nanos(4)
        );
    }

    #[test]
    fn earliest_ignores_an_absent_deadline() {
        let (a, b) = (Instant::from_nanos(3), Instant::from_nanos(5));
        assert_eq!(earliest(Some(a), Some(b)), Some(a));
        assert_eq!(earliest(Some(b), Some(a)), Some(a));
        assert_eq!(earliest(Some(b), None), Some(b));
        assert_eq!(earliest(None, Some(b)), Some(b));
        assert_eq!(earliest(None, None), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(12)), "12.000µs");
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::from_secs(12)), "12.000000s");
        assert_eq!(format!("{}", Duration::MAX), "∞");
    }
}
