//! The full-duplex link model.
//!
//! Each direction serialises frames at the line rate (expanded by the
//! class's FEC code rate), applies the propagation delay — fixed, or
//! time-varying from an orbital [`orbit::LinkProfile`] — and runs a
//! stochastic error process that decides whether the frame arrives clean,
//! payload-corrupted, or (during an injected outage) not at all.

use crate::channel::{ErrorProcess, GilbertElliott, Lossless, UniformBer};
use fec::FecGrade;
use sim_core::{Duration, Instant, SimRng};

/// Propagation-delay model for one direction.
#[derive(Clone, Debug)]
pub enum DelayModel {
    /// Constant one-way delay.
    Fixed(Duration),
    /// Delay follows an orbital link profile: the range (and hence
    /// delay) evolves over the pass. `t0_offset_s` maps simulation time 0
    /// to an offset inside the profile's window.
    Profile {
        /// The orbital profile.
        profile: orbit::LinkProfile,
        /// Simulation-t0 offset into the profile window, seconds.
        t0_offset_s: f64,
    },
}

impl DelayModel {
    /// One-way delay at simulation time `now`.
    pub fn delay_at(&self, now: Instant) -> Duration {
        match self {
            DelayModel::Fixed(d) => *d,
            DelayModel::Profile {
                profile,
                t0_offset_s,
            } => {
                let t = profile.window.start_s + t0_offset_s + now.as_secs_f64();
                Duration::from_secs_f64(profile.one_way_delay_s(t))
            }
        }
    }
}

/// Stochastic error model for one direction.
pub enum ErrorModel {
    /// No errors.
    Clean,
    /// i.i.d. residual errors at a fixed residual BER.
    Uniform(UniformBer),
    /// Gilbert–Elliott burst process (residual BERs per state).
    Burst(GilbertElliott),
}

impl ErrorModel {
    fn frame_error(&mut self, start: Instant, dur: Duration, bits: u64) -> bool {
        match self {
            ErrorModel::Clean => Lossless.frame_error(start, dur, bits),
            ErrorModel::Uniform(u) => u.frame_error(start, dur, bits),
            ErrorModel::Burst(g) => g.frame_error(start, dur, bits),
        }
    }

    /// Build a uniform model at `residual_ber` with the given RNG stream.
    pub fn uniform(residual_ber: f64, rng: SimRng) -> Self {
        if residual_ber <= 0.0 {
            ErrorModel::Clean
        } else {
            ErrorModel::Uniform(UniformBer::new(residual_ber, rng))
        }
    }
}

/// A scheduled outage: every frame whose transmission starts inside
/// `[from, until)` vanishes entirely (tracking loss / occlusion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// Outage start.
    pub from: Instant,
    /// Outage end (exclusive).
    pub until: Instant,
}

/// Serialization time of a frame of `bytes` bytes coded at `grade`, on a
/// line of `rate_bps` information bits per second: the grade's channel
/// bits over the rate, rounded to the nanosecond.
pub fn serialization_time(rate_bps: f64, grade: FecGrade, bytes: usize) -> Duration {
    let channel_bits = grade.channel_bits(bytes as u64 * 8);
    Duration::from_secs_f64(channel_bits as f64 / rate_bps)
}

/// One direction of the link.
pub struct Channel {
    /// Line rate, bits per second (information bits; the FEC expansion is
    /// applied per frame class).
    rate_bps: f64,
    /// Propagation model.
    pub delay: DelayModel,
    /// Error process.
    pub error: ErrorModel,
    /// The last frame size of each class (control, information) and its
    /// serialization time, so the float math runs only when the size
    /// changes: a data channel sends I-frames of one size, and a
    /// checkpoint's size moves only with its NAK count. The rate is
    /// private and the grades fixed, so an entry cannot go stale.
    last_tx: [(usize, Duration); 2],
    /// Scheduled outages.
    pub outages: Vec<Outage>,
    /// The transmitter is busy until this instant (serialization).
    busy_until: Instant,
    /// Last arrival time (enforces FIFO even if the delay shrinks).
    last_arrival: Instant,
}

/// The fate of a frame offered to the channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Arrives at `at`; `clean` tells whether it survived the channel.
    Arrives {
        /// Arrival instant at the far end.
        at: Instant,
        /// True if no residual error.
        clean: bool,
    },
    /// Vanishes (outage).
    Lost,
}

impl Channel {
    /// Create a channel.
    pub fn new(rate_bps: f64, delay: DelayModel, error: ErrorModel) -> Self {
        assert!(rate_bps > 0.0);
        Channel {
            rate_bps,
            delay,
            error,
            last_tx: [false, true]
                .map(|info| (0, serialization_time(rate_bps, Self::grade(info), 0))),
            outages: Vec::new(),
            busy_until: Instant::ZERO,
            last_arrival: Instant::ZERO,
        }
    }

    /// The transmitter is free at or after this instant.
    pub fn free_at(&self) -> Instant {
        self.busy_until
    }

    /// Is the transmitter idle at `now`?
    pub fn idle(&self, now: Instant) -> bool {
        now >= self.busy_until
    }

    /// FEC grade of a frame class: information frames at
    /// [`FecGrade::IFRAME`], control frames at [`FecGrade::CFRAME`].
    pub fn grade(is_info: bool) -> FecGrade {
        if is_info {
            FecGrade::IFRAME
        } else {
            FecGrade::CFRAME
        }
    }

    /// Offer a frame for transmission starting at `now` (must be idle).
    /// Returns its fate; the channel becomes busy for the serialization
    /// time.
    pub fn transmit(&mut self, now: Instant, bytes: usize, is_info: bool) -> Fate {
        debug_assert!(self.idle(now), "transmit on busy channel");
        let class = usize::from(is_info);
        if self.last_tx[class].0 != bytes {
            self.last_tx[class] = (
                bytes,
                serialization_time(self.rate_bps, Self::grade(is_info), bytes),
            );
        }
        let dur = self.last_tx[class].1;
        self.busy_until = now + dur;
        if self.outages.iter().any(|o| now >= o.from && now < o.until) {
            return Fate::Lost;
        }
        let bits = (bytes * 8) as u64;
        let errored = self.error.frame_error(now, dur, bits);
        let arrival = (self.busy_until + self.delay.delay_at(now)).max(self.last_arrival);
        self.last_arrival = arrival;
        Fate::Arrives {
            at: arrival,
            clean: !errored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SeedSplitter;

    fn chan(ber: f64) -> Channel {
        Channel::new(
            300e6,
            DelayModel::Fixed(Duration::from_millis(13)),
            ErrorModel::uniform(ber, SeedSplitter::new(1).stream(0)),
        )
    }

    /// Serialization time on [`chan`]'s line, computed afresh.
    fn tx_time(bytes: usize, is_info: bool) -> Duration {
        serialization_time(300e6, Channel::grade(is_info), bytes)
    }

    #[test]
    fn serialization_and_delay() {
        let mut c = chan(0.0);
        let now = Instant::ZERO;
        // 1024 bytes info at rate 1/2 FEC → 16384 channel bits at 300 Mbps
        // ≈ 54.6 µs.
        let tx = tx_time(1024, true);
        assert!((tx.as_secs_f64() - 16384.0 / 300e6).abs() < 1e-9); // ns rounding
        match c.transmit(now, 1024, true) {
            Fate::Arrives { at, clean } => {
                assert!(clean);
                assert_eq!(at, now + tx + Duration::from_millis(13));
            }
            other => panic!("{other:?}"),
        }
        assert!(!c.idle(now + Duration::from_micros(10)));
        assert!(c.idle(now + tx));
    }

    #[test]
    fn control_frames_expand_more() {
        // Same byte count: control grade (rate 1/4) takes twice as long as
        // info grade (rate 1/2).
        let ti = tx_time(64, true);
        let tc = tx_time(64, false);
        let diff = tc.as_nanos().abs_diff((ti * 2).as_nanos());
        assert!(diff <= 1, "tc={tc} 2*ti={:?}", ti * 2); // ns rounding
    }

    #[test]
    fn transmit_serializes_for_exactly_the_frame_size() {
        // Alternate I-frames and checkpoints, changing the size within
        // each class now and then and sending one size in both classes:
        // every transmission must occupy the line for a freshly computed
        // serialization time.
        let mut c = chan(1e-5);
        let sizes = [
            (1043, true),
            (1043, true),
            (102, false),
            (1043, true),
            (18, false),
            (520, true),
            (18, false),
            (520, true),
            (1043, true),
            (102, false),
            (102, false),
            (102, true),
            (0, true),
            (1, false),
        ];
        let mut now = Instant::ZERO;
        for _ in 0..3 {
            for &(bytes, is_info) in &sizes {
                c.transmit(now, bytes, is_info);
                let want = tx_time(bytes, is_info);
                assert_eq!(c.free_at() - now, want, "{bytes} B, info {is_info}");
                now = c.free_at();
            }
        }
    }

    #[test]
    fn error_rate_roughly_matches() {
        let mut c = chan(1e-4);
        let bits = 8192u64;
        let expect = 1.0 - (1.0 - 1e-4f64).powi(bits as i32);
        let mut now = Instant::ZERO;
        let n = 20_000;
        let mut dirty = 0;
        for _ in 0..n {
            now = c.free_at().max(now);
            if let Fate::Arrives { clean: false, .. } = c.transmit(now, (bits / 8) as usize, true) {
                dirty += 1
            }
            now = c.free_at();
        }
        let freq = dirty as f64 / n as f64;
        assert!((freq - expect).abs() < 0.02, "freq={freq} expect={expect}");
    }

    #[test]
    fn outage_swallows_frames() {
        let mut c = chan(0.0);
        c.outages.push(Outage {
            from: Instant::from_millis(1),
            until: Instant::from_millis(2),
        });
        assert!(matches!(
            c.transmit(Instant::from_nanos(0), 100, true),
            Fate::Arrives { .. }
        ));
        let t1 = c.free_at().max(Instant::from_millis(1));
        assert_eq!(c.transmit(t1, 100, true), Fate::Lost);
        let t2 = c.free_at().max(Instant::from_millis(2));
        assert!(matches!(c.transmit(t2, 100, true), Fate::Arrives { .. }));
    }

    #[test]
    fn fifo_preserved_with_shrinking_delay() {
        // If the range shrinks between two frames, the second must not
        // overtake the first.
        let a = orbit::Satellite::new(1000.0, 80.0, 0.0, 0.0);
        let b = orbit::Satellite::new(1000.0, 80.0, 90.0, 0.0);
        let windows = orbit::visibility_windows(
            &a,
            &b,
            2.0 * a.period_s(),
            5.0,
            &orbit::LinkConstraints::default(),
        );
        let profile = orbit::LinkProfile::build(&a, &b, windows[0], 5.0, 0.0);
        let mut c = Channel::new(
            300e6,
            DelayModel::Profile {
                profile,
                t0_offset_s: 0.0,
            },
            ErrorModel::Clean,
        );
        let mut now = Instant::ZERO;
        let mut last = Instant::ZERO;
        for _ in 0..1000 {
            now = c.free_at().max(now) + Duration::from_millis(100);
            if let Fate::Arrives { at, .. } = c.transmit(now, 1024, true) {
                assert!(at >= last, "reordered arrival");
                last = at;
            }
        }
    }
}
