//! E13 — multi-hop store-and-forward (ours; §2.2 assumption 3 / §2.3
//! motivation): end-to-end delay across a chain of noisy links. LAMS-DLC
//! forwards out-of-order at every intermediate hop and resequences once
//! at the destination; SR-HDLC pays the in-order holding at *every* hop.

use crate::chain::{run_relay_lams, run_relay_sr, RelayConfig};
use crate::experiments::ExperimentOutput;
use crate::parallel;
use crate::report::Table;
use crate::scenario::ScenarioConfig;
use sim_core::Duration;

/// Chain lengths swept.
pub const HOPS: &[usize] = &[1, 2, 3, 4];

/// An `hops`-hop chain carrying `n` SDUs at residual BER 1e-5.
fn config(hops: usize, n: u64) -> RelayConfig {
    let mut base = ScenarioConfig::paper_default();
    base.n_packets = n;
    base.data_residual_ber = 1e-5;
    base.ctrl_residual_ber = 1e-6;
    base.deadline = Duration::from_secs(300);
    RelayConfig { hops, base }
}

/// Run E13.
pub fn run(quick: bool) -> ExperimentOutput {
    let n: u64 = if quick { 1_500 } else { 6_000 };
    let hops: &[usize] = if quick { &[1, 3] } else { HOPS };
    let mut table = Table::new(
        "end-to-end delay and goodput over a relay chain (residual BER 1e-5)",
        &[
            "hops",
            "lams_e2e_mean_ms",
            "sr_e2e_mean_ms",
            "lams_e2e_p99_ms",
            "sr_e2e_p99_ms",
            "lams_eff",
            "sr_eff",
            "lams_lost",
            "sr_lost",
        ],
    );
    let runs = parallel::map(hops.to_vec(), |h| {
        let cfg = config(h, n);
        (run_relay_lams(&cfg), run_relay_sr(&cfg))
    });
    for (&h, (lams, sr)) in hops.iter().zip(runs) {
        table.row(vec![
            (h as u64).into(),
            (lams.e2e_delay.mean() * 1e3).into(),
            (sr.e2e_delay.mean() * 1e3).into(),
            (lams.e2e_delay_quantile(0.99).unwrap_or(0.0) * 1e3).into(),
            (sr.e2e_delay_quantile(0.99).unwrap_or(0.0) * 1e3).into(),
            lams.efficiency().into(),
            sr.efficiency().into(),
            lams.lost.into(),
            sr.lost.into(),
        ]);
    }
    ExperimentOutput {
        id: "E13",
        title: "Store-and-forward relay chain (paper §2.2/§2.3, end-to-end)".into(),
        tables: vec![table],
        traces: vec![],
        notes: vec![
            "expected shape: both delays grow with hop count (propagation \
             adds per hop), but the SR curve grows faster — each hop holds \
             frames for local resequencing and each hop's window must \
             resolve serially — and the gap widens with hops; zero loss \
             for both"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_lams_wins_and_gap_widens() {
        let out = run(true);
        let t = &out.tables[0];
        let mut last_gap = f64::NEG_INFINITY;
        for row in 0..t.len() {
            assert_eq!(t.value(row, 7).unwrap(), 0.0, "row {row}: lams lost");
            assert_eq!(t.value(row, 8).unwrap(), 0.0, "row {row}: sr lost");
            let lams = t.value(row, 1).unwrap();
            let sr = t.value(row, 2).unwrap();
            assert!(lams < sr, "row {row}: lams delay {lams} !< sr {sr}");
            let gap = sr - lams;
            assert!(gap > last_gap, "gap must widen with hops");
            last_gap = gap;
        }
    }

    /// The p99 columns are the nearest rank of the exact in-order
    /// delays, the rule every other latency quantile follows.
    #[test]
    fn e13_p99_is_the_nearest_rank_of_the_delays() {
        let out = run(true);
        let (lams, sr) = {
            let cfg = config(1, 1_500);
            (run_relay_lams(&cfg), run_relay_sr(&cfg))
        };
        for (col, r) in [(3, lams), (4, sr)] {
            let mut sorted = r.e2e_delays_ns.clone();
            sorted.sort_unstable();
            assert_eq!(sorted.len() as u64, r.delivered_unique);
            let p99_ns = sim_core::stats::nearest_rank(&sorted, 0.99).unwrap();
            let want = Duration::from_nanos(p99_ns).as_secs_f64() * 1e3;
            assert_eq!(out.tables[0].value(0, col), Some(want), "column {col}");
        }
    }
}
