//! E18 — a long relay chain (ours): many-hop LAMS-DLC store-and-forward
//! chains, up to 12 hops, as one simulation each. The quick-size runs
//! (2 and 6 hops) are pinned by `golden_e18_chain` in
//! `tests/golden_seed.rs`.

use crate::chain::run_chain_lams_as;
use crate::experiments::ExperimentOutput;
use crate::relay::RelayConfig;
use crate::report::Table;
use crate::scenario::ScenarioConfig;
use sim_core::Duration;

/// Chain lengths swept.
pub const HOPS: &[usize] = &[2, 4, 8, 12];

/// Run E18.
pub fn run(quick: bool) -> ExperimentOutput {
    let n: u64 = if quick { 1_200 } else { 5_000 };
    let hops: &[usize] = if quick { &[2, 6] } else { HOPS };
    let mut table = Table::new(
        "end-to-end delay and goodput over a long relay chain (residual BER 1e-5)",
        &[
            "hops",
            "e2e_mean_ms",
            "e2e_p99_ms",
            "efficiency",
            "retransmissions",
            "lost",
        ],
    );
    for &h in hops {
        let mut base = ScenarioConfig::paper_default();
        base.n_packets = n;
        base.data_residual_ber = 1e-5;
        base.ctrl_residual_ber = 1e-6;
        base.deadline = Duration::from_secs(600);
        let cfg = RelayConfig { hops: h, base };
        let r = run_chain_lams_as(&cfg, "lams-chain");
        table.row(vec![
            (h as u64).into(),
            (r.e2e_delay.mean() * 1e3).into(),
            (r.e2e_delay_hist.quantile(0.99).unwrap_or(0.0) * 1e3).into(),
            r.efficiency().into(),
            r.retransmissions.into(),
            r.lost.into(),
        ]);
    }
    ExperimentOutput {
        id: "E18",
        title: "Long relay chain (up to 12 hops)".into(),
        tables: vec![table],
        traces: vec![],
        notes: vec![
            "expected shape: delay grows with hop count exactly as in E13's \
             LAMS column, with no loss at any length"
                .into(),
        ],
    }
}
