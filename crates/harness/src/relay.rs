//! Multi-hop store-and-forward relay (paper §2.2 assumption 3).
//!
//! A chain of satellites: `hops` links, `hops + 1` nodes. Every
//! intermediate node receives on one link and forwards on the next —
//! "incoming I-frames destined for other nodes are received by the
//! sender and are stored in its sending buffer. The sender forwards
//! these packets whenever the link is available."
//!
//! This is where §2.3's argument bites end-to-end:
//!
//! * a **LAMS-DLC** intermediate node forwards each datagram the moment
//!   its local processing finishes — out-of-order is fine, only the
//!   destination resequences; one reordering delay is paid once;
//! * an **SR-HDLC** intermediate node may not release a frame upward
//!   (and hence forward it) until every earlier frame has arrived — the
//!   resequencing delay is paid *per hop*, and a loss near the source
//!   stalls the pipeline of every downstream link.
//!
//! The chain is [`crate::chain`]'s.

use crate::chain::{run_chain_lams_as, run_chain_sr_as};
use crate::metrics::RunReport;
use crate::scenario::ScenarioConfig;

/// Relay chain configuration: `hops` identical links, each drawn from the
/// base scenario (distance, rate, error model, protocol knobs).
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// Number of links in the chain (≥ 1).
    pub hops: usize,
    /// Per-link scenario parameters.
    pub base: ScenarioConfig,
}

/// Relay chain under LAMS-DLC at every hop.
pub fn run_relay_lams(cfg: &RelayConfig) -> RunReport {
    run_chain_lams_as(cfg, "lams-relay")
}

/// Relay chain under SR-HDLC at every hop.
pub fn run_relay_sr(cfg: &RelayConfig) -> RunReport {
    run_chain_sr_as(cfg, "sr-relay")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Duration;

    fn relay(hops: usize, n: u64, ber: f64) -> RelayConfig {
        let mut base = ScenarioConfig::paper_default();
        base.n_packets = n;
        base.data_residual_ber = ber;
        base.ctrl_residual_ber = ber / 10.0;
        base.deadline = Duration::from_secs(120);
        RelayConfig { hops, base }
    }

    #[test]
    fn single_hop_matches_direct_runner() {
        let cfg = relay(1, 1_000, 1e-6);
        let relayed = run_relay_lams(&cfg);
        let direct = crate::scenario::run_lams(&cfg.base);
        assert_eq!(relayed.lost, 0);
        // Same protocol, same seed-derived... the relay uses shifted seeds,
        // so compare statistically: within 10%.
        let d = (relayed.elapsed_s() - direct.elapsed_s()).abs() / direct.elapsed_s();
        assert!(
            d < 0.1,
            "relay {} vs direct {}",
            relayed.elapsed_s(),
            direct.elapsed_s()
        );
    }

    #[test]
    fn three_hop_chain_is_lossless_and_ordered() {
        let cfg = relay(3, 1_500, 1e-6);
        let r = run_relay_lams(&cfg);
        assert_eq!(r.lost, 0);
        assert_eq!(r.delivered_unique, 1_500);
        assert_eq!(r.e2e_delay.count(), 1_500, "all released in order");
        assert!(!r.deadline_hit);
    }

    #[test]
    fn sr_chain_also_lossless() {
        let cfg = relay(2, 1_000, 1e-6);
        let r = run_relay_sr(&cfg);
        assert_eq!(r.lost, 0);
        assert_eq!(r.delivered_unique, 1_000);
    }

    #[test]
    fn per_hop_resequencing_penalty_compounds() {
        // §2.3's end-to-end claim: over several noisy hops the in-order
        // protocol's mean end-to-end delay grows faster than the
        // out-of-order one's.
        let cfg = relay(3, 3_000, 1e-5);
        let lams = run_relay_lams(&cfg);
        let sr = run_relay_sr(&cfg);
        assert_eq!(lams.lost, 0);
        assert_eq!(sr.lost, 0);
        assert!(
            lams.e2e_delay.mean() < sr.e2e_delay.mean(),
            "lams {} !< sr {}",
            lams.e2e_delay.mean(),
            sr.e2e_delay.mean()
        );
    }

    #[test]
    fn extra_hops_cost_one_propagation_each() {
        // The chain pipelines: serialization happens once (frames flow
        // through intermediate nodes as they arrive), so each extra hop
        // adds ≈ one propagation delay + t_proc, not a full batch time.
        let cfg1 = relay(1, 800, 1e-7);
        let d1 = run_relay_lams(&cfg1).e2e_delay.mean();
        let d3 = run_relay_lams(&relay(3, 800, 1e-7)).e2e_delay.mean();
        let per_hop = cfg1.base.one_way_delay().as_secs_f64();
        let increment = d3 - d1;
        let expect = 2.0 * per_hop;
        assert!(
            (increment - expect).abs() / expect < 0.25,
            "increment {increment}s vs 2 hops of propagation {expect}s"
        );
    }
}
