//! Bit-level channel error processes.
//!
//! Two processes model the laser-link impairments from §2.1 of the paper:
//!
//! * [`UniformBer`] — i.i.d. random bit errors (quantum noise, preamplifier
//!   thermal noise, dark current, detector excess noise, background light);
//! * [`GilbertElliott`] — a continuous-time two-state Markov chain for
//!   burst errors (beam mispointing and tracking loss): a *good* state with
//!   low BER and a *bad* state with high BER, exponential sojourn times.
//!
//! Both expose two APIs:
//!
//! * [`ErrorProcess::frame_error`] — the fast path: sample whether a frame
//!   occupying `[start, start+duration)` with `bits` payload bits suffers at
//!   least one uncorrected error. This is what the discrete-event harness
//!   uses; it is exact with respect to the process definition (the per-state
//!   bit counts are integrated over the frame interval).
//! * [`ErrorProcess::corrupt`] — the bit-exact path: flip individual bits of
//!   a [`BitBuf`], used in FEC end-to-end tests and the codec experiments.
//!
//! Processes are stateful in time and must be driven with non-decreasing
//! `start` values (frames on one link direction are serialized, so this
//! holds by construction in the harness).

use fec::BitBuf;
use sim_core::{Duration, Instant, SimRng};

/// A stochastic bit-error process on one link direction.
pub trait ErrorProcess {
    /// Sample whether a frame transmitted over `[start, start+duration)`
    /// containing `bits` bits experiences one or more bit errors.
    fn frame_error(&mut self, start: Instant, duration: Duration, bits: u64) -> bool;

    /// Flip bits of `buf` in place for a transmission starting at `start`
    /// where each bit occupies `bit_time` on the wire.
    fn corrupt(&mut self, start: Instant, bit_time: Duration, buf: &mut BitBuf);

    /// Long-run average bit error rate of the process (for reporting and
    /// for deriving analytic `P_F`/`P_C`).
    fn mean_ber(&self) -> f64;
}

/// Independent, identically distributed bit errors at a fixed BER.
#[derive(Clone, Debug)]
pub struct UniformBer {
    ber: f64,
    /// The last frame length seen, in bits, and its error probability:
    /// `P_F` depends on the length alone, so `exp`/`ln_1p` run only
    /// when the length changes.
    last: (u64, f64),
    rng: SimRng,
}

impl UniformBer {
    /// Create a uniform-error process with bit error rate `ber` in [0, 1].
    pub fn new(ber: f64, rng: SimRng) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER out of range: {ber}");
        UniformBer {
            ber,
            last: (0, Self::frame_error_prob(ber, 0)),
            rng,
        }
    }

    /// The configured BER.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Probability that a frame of `bits` bits has at least one error:
    /// `1 - (1 - ber)^bits`, computed stably in log space.
    pub fn frame_error_prob(ber: f64, bits: u64) -> f64 {
        if ber <= 0.0 || bits == 0 {
            return 0.0;
        }
        if ber >= 1.0 {
            return 1.0;
        }
        1.0 - f64::exp(bits as f64 * f64::ln_1p(-ber))
    }
}

impl ErrorProcess for UniformBer {
    fn frame_error(&mut self, _start: Instant, _duration: Duration, bits: u64) -> bool {
        if self.last.0 != bits {
            self.last = (bits, Self::frame_error_prob(self.ber, bits));
        }
        self.rng.chance(self.last.1)
    }

    fn corrupt(&mut self, _start: Instant, _bit_time: Duration, buf: &mut BitBuf) {
        if self.ber <= 0.0 {
            return;
        }
        // Geometric skip sampling: jump straight to the next errored bit.
        let mut i = self.rng.geometric(self.ber);
        while (i as usize) < buf.len() {
            buf.toggle(i as usize);
            i += 1 + self.rng.geometric(self.ber);
        }
    }

    fn mean_ber(&self) -> f64 {
        self.ber
    }
}

/// Which state the Gilbert–Elliott chain is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeState {
    /// Quiescent channel: low residual BER.
    Good,
    /// Burst (mispointing / tracking loss): high BER.
    Bad,
}

/// Continuous-time Gilbert–Elliott burst-error process.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    /// Mean sojourn in the good state.
    mean_good: Duration,
    /// Mean sojourn in the bad state (the mean burst length in time).
    mean_bad: Duration,
    ber_good: f64,
    ber_bad: f64,
    state: GeState,
    /// Time at which the current state ends (exclusive).
    state_until: Instant,
    clock: Instant,
    rng: SimRng,
}

impl GilbertElliott {
    /// Create a burst process.
    ///
    /// * `mean_good`, `mean_bad` — mean sojourn times of the two states
    ///   (exponentially distributed);
    /// * `ber_good`, `ber_bad` — per-state bit error rates.
    pub fn new(
        mean_good: Duration,
        mean_bad: Duration,
        ber_good: f64,
        ber_bad: f64,
        mut rng: SimRng,
    ) -> Self {
        assert!(
            !mean_good.is_zero() && !mean_bad.is_zero(),
            "sojourn means must be positive"
        );
        assert!((0.0..=1.0).contains(&ber_good) && (0.0..=1.0).contains(&ber_bad));
        let first = Duration::from_secs_f64(rng.exponential(mean_good.as_secs_f64()));
        GilbertElliott {
            mean_good,
            mean_bad,
            ber_good,
            ber_bad,
            state: GeState::Good,
            state_until: Instant::ZERO + first,
            clock: Instant::ZERO,
            rng,
        }
    }

    /// Current state at the internal clock.
    pub fn state(&self) -> GeState {
        self.state
    }

    /// Stationary probability of being in the bad state.
    pub fn bad_fraction(&self) -> f64 {
        let g = self.mean_good.as_secs_f64();
        let b = self.mean_bad.as_secs_f64();
        b / (g + b)
    }

    fn advance_to(&mut self, t: Instant) {
        debug_assert!(t >= self.clock, "GilbertElliott driven backwards in time");
        while self.state_until <= t {
            let start = self.state_until;
            self.state = match self.state {
                GeState::Good => GeState::Bad,
                GeState::Bad => GeState::Good,
            };
            let mean = match self.state {
                GeState::Good => self.mean_good,
                GeState::Bad => self.mean_bad,
            };
            let sojourn = Duration::from_secs_f64(self.rng.exponential(mean.as_secs_f64()));
            // Guarantee progress even if the exponential rounds to zero.
            self.state_until = start + sojourn.max(Duration::from_nanos(1));
        }
        self.clock = t;
    }

    fn ber_now(&self) -> f64 {
        match self.state {
            GeState::Good => self.ber_good,
            GeState::Bad => self.ber_bad,
        }
    }

    /// Walk the state trajectory over `[start, start+duration)` and return
    /// `log(P[no bit error])` for a frame of `bits` uniformly spread bits.
    fn log_p_clean(&mut self, start: Instant, duration: Duration, bits: u64) -> f64 {
        self.advance_to(start);
        if bits == 0 {
            return 0.0;
        }
        let end = start + duration;
        if duration.is_zero() {
            // Point transmission: all bits see the current state.
            return bits as f64 * f64::ln_1p(-self.ber_now());
        }
        let total = duration.as_secs_f64();
        let mut log_p = 0.0;
        let mut cursor = start;
        while cursor < end {
            let seg_end = self.state_until.min(end);
            let frac = seg_end.duration_since(cursor).as_secs_f64() / total;
            let bits_here = bits as f64 * frac;
            log_p += bits_here * f64::ln_1p(-self.ber_now());
            cursor = seg_end;
            if cursor < end {
                self.advance_to(cursor);
            }
        }
        self.clock = end;
        log_p
    }
}

impl ErrorProcess for GilbertElliott {
    fn frame_error(&mut self, start: Instant, duration: Duration, bits: u64) -> bool {
        let log_p_clean = self.log_p_clean(start, duration, bits);
        let p_err = 1.0 - f64::exp(log_p_clean);
        self.rng.chance(p_err)
    }

    fn corrupt(&mut self, start: Instant, bit_time: Duration, buf: &mut BitBuf) {
        for i in 0..buf.len() {
            let t = start + bit_time * i as u64;
            self.advance_to(t);
            if self.rng.chance(self.ber_now()) {
                buf.toggle(i);
            }
        }
    }

    fn mean_ber(&self) -> f64 {
        let pb = self.bad_fraction();
        self.ber_good * (1.0 - pb) + self.ber_bad * pb
    }
}

/// A perfectly clean channel; useful as a control in experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lossless;

impl ErrorProcess for Lossless {
    fn frame_error(&mut self, _: Instant, _: Duration, _: u64) -> bool {
        false
    }
    fn corrupt(&mut self, _: Instant, _: Duration, _: &mut BitBuf) {}
    fn mean_ber(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SeedSplitter;

    fn rng(stream: u64) -> SimRng {
        SeedSplitter::new(0xFEC).stream(stream)
    }

    #[test]
    fn frame_error_prob_formula() {
        assert_eq!(UniformBer::frame_error_prob(0.0, 1000), 0.0);
        assert_eq!(UniformBer::frame_error_prob(1.0, 1), 1.0);
        assert_eq!(UniformBer::frame_error_prob(0.5, 0), 0.0);
        let p = UniformBer::frame_error_prob(1e-6, 8000);
        // ≈ 8e-3 for small ber·bits
        assert!((p - 7.968e-3).abs() < 1e-4, "p={p}");
    }

    #[test]
    fn uniform_frame_error_frequency() {
        let mut ch = UniformBer::new(1e-4, rng(1));
        let bits = 10_000u64; // p_frame ≈ 0.632
        let expect = UniformBer::frame_error_prob(1e-4, bits);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| ch.frame_error(Instant::ZERO, Duration::from_micros(10), bits))
            .count();
        let freq = hits as f64 / n as f64;
        assert!((freq - expect).abs() < 0.01, "freq={freq} expect={expect}");
    }

    #[test]
    fn uniform_verdicts_match_a_fresh_probability_per_frame() {
        // A twin stream drawing against P_F computed anew for every frame
        // must reach the same verdict frame by frame, over frame lengths
        // that alternate and change.
        let ber = 1e-4;
        let mut ch = UniformBer::new(ber, rng(9));
        let mut twin = rng(9);
        let lengths = [
            8344u64, 8344, 2928, 8344, 320, 4160, 320, 4160, 0, 8344, 2928, 2928,
        ];
        for round in 0..200 {
            for &bits in &lengths {
                let want = twin.chance(UniformBer::frame_error_prob(ber, bits));
                let got = ch.frame_error(Instant::ZERO, Duration::from_micros(1), bits);
                assert_eq!(got, want, "round {round}, {bits} bits");
            }
        }
    }

    #[test]
    fn uniform_corrupt_density() {
        let mut ch = UniformBer::new(0.01, rng(2));
        let n_bits = 100_000;
        let clean = BitBuf::from_bits(&vec![false; n_bits]);
        let mut buf = clean.clone();
        ch.corrupt(Instant::ZERO, Duration::from_nanos(1), &mut buf);
        let flips = buf.hamming_distance(&clean);
        let rate = flips as f64 / n_bits as f64;
        assert!((rate - 0.01).abs() < 0.002, "rate={rate}");
    }

    #[test]
    fn uniform_zero_ber_never_errors() {
        let mut ch = UniformBer::new(0.0, rng(3));
        for _ in 0..100 {
            assert!(!ch.frame_error(Instant::ZERO, Duration::from_micros(1), 1 << 20));
        }
    }

    #[test]
    fn ge_stationary_fraction() {
        let ge = GilbertElliott::new(
            Duration::from_millis(90),
            Duration::from_millis(10),
            0.0,
            0.5,
            rng(4),
        );
        assert!((ge.bad_fraction() - 0.1).abs() < 1e-12);
        assert!((ge.mean_ber() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ge_bursts_cluster_errors() {
        // With ber_good = 0 every error falls inside a burst, so a frame
        // fully inside a good period is always clean.
        let mut ge = GilbertElliott::new(
            Duration::from_millis(100),
            Duration::from_millis(5),
            0.0,
            0.2,
            rng(5),
        );
        let mut errors_per_window = Vec::new();
        let frame = Duration::from_micros(100);
        for k in 0..20_000u64 {
            let t = Instant::from_nanos(k * 100_000);
            errors_per_window.push(ge.frame_error(t, frame, 1000) as u32);
        }
        // Burstiness: errors should be far more clustered than i.i.d.
        // Compare the count of adjacent error pairs against independence.
        let total: u32 = errors_per_window.iter().sum();
        let p = total as f64 / errors_per_window.len() as f64;
        let adjacent = errors_per_window
            .windows(2)
            .filter(|w| w[0] == 1 && w[1] == 1)
            .count();
        let expected_iid = p * p * errors_per_window.len() as f64;
        assert!(
            adjacent as f64 > 3.0 * expected_iid,
            "adjacent={adjacent} expected_iid={expected_iid:.1}"
        );
    }

    #[test]
    fn ge_long_run_error_rate_matches_mean_ber() {
        let mut ge = GilbertElliott::new(
            Duration::from_millis(20),
            Duration::from_millis(20),
            0.001,
            0.05,
            rng(6),
        );
        let n_bits = 2_000_000usize;
        let clean = BitBuf::from_bits(&vec![false; n_bits]);
        let mut buf = clean.clone();
        // Bit time 100ns → 200ms total, many state transitions.
        ge.corrupt(Instant::ZERO, Duration::from_nanos(100), &mut buf);
        let rate = buf.hamming_distance(&clean) as f64 / n_bits as f64;
        let expect = 0.0255;
        assert!(
            (rate - expect).abs() / expect < 0.25,
            "rate={rate} expect={expect}"
        );
    }

    #[test]
    fn ge_monotone_time_requirement_holds_for_sequential_frames() {
        let mut ge = GilbertElliott::new(
            Duration::from_millis(1),
            Duration::from_millis(1),
            0.0,
            1.0,
            rng(7),
        );
        let mut t = Instant::ZERO;
        for _ in 0..1000 {
            let d = Duration::from_micros(10);
            let _ = ge.frame_error(t, d, 100);
            t += d;
        }
    }

    #[test]
    fn lossless_is_lossless() {
        let mut ch = Lossless;
        assert!(!ch.frame_error(Instant::ZERO, Duration::ZERO, u64::MAX));
        let mut buf = BitBuf::from_bytes(&[0xAA; 16]);
        let orig = buf.clone();
        ch.corrupt(Instant::ZERO, Duration::from_nanos(1), &mut buf);
        assert_eq!(buf, orig);
        assert_eq!(ch.mean_ber(), 0.0);
    }

    #[test]
    fn ge_zero_duration_frame_uses_point_state() {
        let mut ge = GilbertElliott::new(
            Duration::from_secs(1000), // effectively always good
            Duration::from_nanos(1),
            0.0,
            1.0,
            rng(8),
        );
        assert!(!ge.frame_error(Instant::from_nanos(5), Duration::ZERO, 1000));
    }
}
