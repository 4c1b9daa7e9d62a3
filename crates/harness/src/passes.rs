//! Multi-pass transfers: a bulk dataset carried across *successive
//! visibility windows* of a satellite pair.
//!
//! §1–2 of the paper define the LAMS environment by its short link
//! lifetimes ("in the order of several minutes") and the retargeting
//! overhead that consumes the start of each window. A transfer larger
//! than one pass must therefore survive link teardown: whatever is
//! undelivered when the window closes re-enters the sending buffer for
//! the next pass (the datagram-service model — the network layer owns
//! the data, the DLC owns one link's lifetime).

use crate::metrics::RunReport;
use crate::scenario::{run_lams, ScenarioConfig};
use orbit::{visibility_windows, LinkConstraints, LinkProfile, Satellite};
use sim_core::Duration;

/// One pass's outcome.
#[derive(Clone, Debug)]
pub struct PassSummary {
    /// Window start, seconds after epoch.
    pub start_s: f64,
    /// Usable transfer time after retargeting, seconds.
    pub usable_s: f64,
    /// SDUs offered at the start of the pass.
    pub offered: u64,
    /// SDUs delivered during the pass.
    pub delivered: u64,
    /// Whether the pass ended by exhausting its window (vs finishing the
    /// backlog early).
    pub window_exhausted: bool,
}

/// Outcome of a multi-pass transfer.
#[derive(Clone, Debug)]
pub struct MultiPassReport {
    /// Per-pass summaries, in order.
    pub passes: Vec<PassSummary>,
    /// Total SDUs delivered across all passes.
    pub total_delivered: u64,
    /// SDUs never delivered within the horizon.
    pub remaining: u64,
    /// Wall time from epoch to the completion of the last needed pass,
    /// seconds (includes inter-pass gaps).
    pub total_time_s: f64,
}

/// Transfer `total` SDUs between `a` and `b` across visibility windows
/// inside `[0, horizon_s]`, spending `retarget_s` of each window on
/// acquisition. Link parameters (rate, BER, protocol knobs) come from
/// `base`; its traffic/deadline fields are overridden per pass.
pub fn run_multi_pass(
    a: &Satellite,
    b: &Satellite,
    total: u64,
    base: &ScenarioConfig,
    retarget_s: f64,
    horizon_s: f64,
) -> MultiPassReport {
    run_multi_pass_limited(a, b, total, base, retarget_s, horizon_s, None)
}

/// [`run_multi_pass`] with an optional per-pass transmit-time cap
/// (operational constraints — power/thermal budgets — often allow less
/// than the full geometric window).
#[allow(clippy::too_many_arguments)]
pub fn run_multi_pass_limited(
    a: &Satellite,
    b: &Satellite,
    total: u64,
    base: &ScenarioConfig,
    retarget_s: f64,
    horizon_s: f64,
    pass_limit_s: Option<f64>,
) -> MultiPassReport {
    let windows = visibility_windows(a, b, horizon_s, 5.0, &LinkConstraints::default());
    let mut remaining = total;
    let mut passes = Vec::new();
    let mut total_time_s = 0.0;
    for (k, w) in windows.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let profile = LinkProfile::build(a, b, *w, 5.0, retarget_s);
        let usable = match pass_limit_s {
            Some(lim) => profile.usable_s().min(lim),
            None => profile.usable_s(),
        };
        if usable <= 1.0 {
            continue; // window too short to even acquire
        }
        let mut cfg = base.clone();
        cfg.seed = base.seed.wrapping_add(77 * (k as u64 + 1));
        cfg.n_packets = remaining;
        cfg.alpha = Duration::from_secs_f64(2.0 * profile.alpha_s());
        cfg.profile = Some((profile, retarget_s));
        cfg.deadline = Duration::from_secs_f64(usable);
        let report: RunReport = run_lams(&cfg);
        let delivered = report.delivered_unique;
        let exhausted = report.deadline_hit || report.link_failed;
        passes.push(PassSummary {
            start_s: w.start_s,
            usable_s: usable,
            offered: remaining,
            delivered,
            window_exhausted: exhausted,
        });
        remaining -= delivered.min(remaining);
        total_time_s = w.start_s
            + retarget_s
            + if exhausted {
                usable
            } else {
                report.elapsed_s()
            };
        if remaining == 0 {
            break;
        }
    }
    MultiPassReport {
        passes,
        total_delivered: total - remaining,
        remaining,
        total_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Satellite, Satellite) {
        (
            Satellite::new(1000.0, 80.0, 0.0, 0.0),
            Satellite::new(1000.0, 80.0, 90.0, 0.0),
        )
    }

    fn base() -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_default();
        c.data_residual_ber = 1e-6;
        c.ctrl_residual_ber = 1e-7;
        c
    }

    #[test]
    fn small_transfer_fits_one_pass() {
        let (a, b) = pair();
        let horizon = 2.0 * a.period_s();
        let r = run_multi_pass(&a, &b, 20_000, &base(), 30.0, horizon);
        assert_eq!(r.total_delivered, 20_000);
        assert_eq!(r.remaining, 0);
        assert_eq!(r.passes.len(), 1, "20k frames fit in one pass");
        assert!(!r.passes[0].window_exhausted);
    }

    #[test]
    fn huge_transfer_spans_passes() {
        // Throttled link + capped pass time force multiple passes at a
        // test-friendly frame count.
        let (a, b) = pair();
        let mut cfg = base();
        cfg.rate_bps = 2e6; // 2 Mbps test link: ~120 frames/s
        let horizon = 4.0 * a.period_s();
        let total = 6_000; // ≈ 1.7 pass-loads at the 30 s cap below
        let r = super::run_multi_pass_limited(&a, &b, total, &cfg, 30.0, horizon, Some(30.0));
        assert!(
            r.passes.len() >= 2,
            "expected multiple passes: {:?}",
            r.passes.len()
        );
        assert!(
            r.passes[0].window_exhausted,
            "first pass must fill its window"
        );
        assert!(r.total_delivered > 0);
        // Deliveries are cumulative and never exceed the offer.
        let sum: u64 = r.passes.iter().map(|p| p.delivered).sum();
        assert_eq!(sum, r.total_delivered);
        assert_eq!(r.total_delivered + r.remaining, total);
    }

    #[test]
    fn zero_transfer_trivially_done() {
        let (a, b) = pair();
        let r = run_multi_pass(&a, &b, 0, &base(), 30.0, 7000.0);
        assert_eq!(r.total_delivered, 0);
        assert_eq!(r.remaining, 0);
        assert!(r.passes.is_empty());
    }
}
