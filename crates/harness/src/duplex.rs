//! Full-duplex operation: data flowing in *both* directions at once
//! (paper assumption 2: "all links operate in a full-duplex mode").
//!
//! Each node hosts a sender (for its outgoing data) and a receiver (for
//! the incoming flow), and the two share the node's single laser
//! transmitter: the receiver's control frames (checkpoints, Enforced-
//! NAKs) compete with the sender's I-frames for airtime. Control frames
//! get priority — they are small, time-critical, and the paper's no-
//! piggyback rule (assumption 4) makes them unavoidable overhead on the
//! data path.
//!
//! This answers a question the paper's unidirectional analysis leaves
//! open: how much forward goodput does the reverse flow's checkpoint
//! stream cost? (Answer, measured in E15: a fraction of a percent at the
//! paper's parameters — checkpoints are ~40 bytes every `W_cp`.)

use crate::metrics::{Collector, RunReport};
use crate::node::{Driver, RxEndpoint, TxEndpoint};
use crate::scenario::{pair_builder, ScenarioConfig};
use crate::traffic::TrafficGen;
use netsim::Machine;
use netsim::NodeRole;
use sim_core::SeedSplitter;

/// Reports for the two directions: `a_to_b` and `b_to_a`.
pub struct DuplexReport {
    /// Metrics of the A→B flow.
    pub a_to_b: RunReport,
    /// Metrics of the B→A flow.
    pub b_to_a: RunReport,
}

/// Drive a symmetric full-duplex scenario: both nodes offer
/// `cfg.n_packets` SDUs to each other under `cfg`'s channel conditions.
pub fn run_duplex<T, R>(
    cfg: &ScenarioConfig,
    mk_tx: impl Fn(usize) -> T,
    mk_rx: impl Fn(usize) -> R,
    protocol: &str,
) -> DuplexReport
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    // Node 0 = A, node 1 = B. txs[i] sends data FROM node i; rxs[i]
    // receives data AT node i. Link i carries node i's transmissions,
    // with the receiver registered first so its control frames win the
    // shared transmitter (checkpoint priority over I-frames). Both
    // endpoints listen on the incoming link — each ignores frames that
    // are not its own.
    let mut gens = (0..2).map(|i| {
        TrafficGen::new(
            cfg.pattern.clone(),
            cfg.n_packets,
            SeedSplitter::new(cfg.seed).stream(2 + i as u64),
        )
    });
    let (mut b, la, lb) = pair_builder(cfg, [NodeRole::Duplex, NodeRole::Duplex]);
    let ra = b.rx(la, mk_rx(0));
    let ta = b.tx(la, mk_tx(0));
    let rb = b.rx(lb, mk_rx(1));
    let tb = b.tx(lb, mk_tx(1));
    b.listen(la, rb);
    b.listen(la, tb);
    b.listen(lb, ra);
    b.listen(lb, ta);
    let c0 = b.collector(Collector::new());
    let c1 = b.collector(Collector::new());
    b.expect(c0, cfg.n_packets);
    b.expect(c1, cfg.n_packets);
    b.source(gens.next().expect("gen a"), ta, c0, 0);
    b.source(gens.next().expect("gen b"), tb, c1, 1);
    b.deliver(ra, c1);
    b.deliver(rb, c0);
    b.sample(c0, ta, vec![ra]);
    b.sample(c1, tb, vec![rb]);
    b.holding(c0, ta);
    b.holding(c1, tb);

    let run = b
        .build()
        .expect("duplex wiring is valid")
        .run_solo(cfg.deadline);
    let out = run.finished;
    // Both directions ran on the one event queue; each report carries
    // the whole run's perf block.
    crate::metrics::perf_absorb(&run.queue, run.wall_secs);
    let mut reports = out.collectors.into_iter().enumerate().map(|(i, col)| {
        let (tx, peer_rx) = (&out.txs[i], &out.rxs[1 - i]);
        let mut r = col.finish(
            protocol,
            cfg.n_packets,
            out.finished_at,
            out.deadline_hit,
            tx.is_failed(),
            tx.transmissions(),
            tx.retransmissions(),
            cfg.t_f(),
            tx.extra_stats(),
            peer_rx.extra_stats(),
        );
        r.queue = run.queue;
        r.wall_secs = run.wall_secs;
        r
    });
    let a_to_b = reports.next().expect("col a");
    let b_to_a = reports.next().expect("col b");
    DuplexReport { a_to_b, b_to_a }
}

/// Trace labels are per *flow*, not per node: `mk_tx(0)` sends the A→B
/// data, and its peer receiver is `mk_rx(1)` at node B — sharing the
/// `a2b` prefix lets trace consumers pair them.
const DUPLEX_TX: [&str; 2] = ["a2b.tx", "b2a.tx"];
const DUPLEX_RX: [&str; 2] = ["b2a.rx", "a2b.rx"];

/// Symmetric full-duplex LAMS-DLC.
pub fn run_duplex_lams(cfg: &ScenarioConfig) -> DuplexReport {
    let lcfg = cfg.lams_config();
    let trace = |labels: &[&'static str; 2], i: usize| telemetry::global_handle(labels[i]);
    run_duplex(
        cfg,
        |i| Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(trace(&DUPLEX_TX, i))),
        |i| Driver::new(lams_dlc::Receiver::new(lcfg.clone()).with_trace(trace(&DUPLEX_RX, i))),
        "lams-duplex",
    )
}

/// Symmetric full-duplex SR-HDLC.
pub fn run_duplex_sr(cfg: &ScenarioConfig) -> DuplexReport {
    let hcfg = cfg.hdlc_config();
    let trace = |labels: &[&'static str; 2], i: usize| telemetry::global_handle(labels[i]);
    run_duplex(
        cfg,
        |i| Driver::new(hdlc::SrSender::new(hcfg.clone()).with_trace(trace(&DUPLEX_TX, i))),
        |i| Driver::new(hdlc::SrReceiver::new(hcfg.clone()).with_trace(trace(&DUPLEX_RX, i))),
        "sr-duplex",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Duration;

    fn cfg(n: u64, ber: f64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_default();
        c.n_packets = n;
        c.data_residual_ber = ber;
        c.ctrl_residual_ber = ber / 10.0;
        c.deadline = Duration::from_secs(120);
        c
    }

    #[test]
    fn duplex_both_directions_lossless() {
        let r = run_duplex_lams(&cfg(2_000, 1e-6));
        assert_eq!(r.a_to_b.lost, 0);
        assert_eq!(r.b_to_a.lost, 0);
        assert_eq!(r.a_to_b.delivered_unique, 2_000);
        assert_eq!(r.b_to_a.delivered_unique, 2_000);
        assert!(!r.a_to_b.deadline_hit);
    }

    #[test]
    fn duplex_sr_also_lossless() {
        let r = run_duplex_sr(&cfg(1_500, 1e-6));
        assert_eq!(r.a_to_b.lost, 0);
        assert_eq!(r.b_to_a.lost, 0);
    }

    #[test]
    fn directions_are_symmetric() {
        let r = run_duplex_lams(&cfg(3_000, 1e-6));
        let ea = r.a_to_b.efficiency();
        let eb = r.b_to_a.efficiency();
        assert!((ea - eb).abs() / ea < 0.05, "a→b {ea} vs b→a {eb}");
    }

    #[test]
    fn control_overhead_is_small() {
        // Duplex forward efficiency vs unidirectional: the reverse flow's
        // checkpoints steal only a sliver of airtime (~40 B per W_cp
        // against 300 Mbps).
        let c = cfg(5_000, 1e-6);
        let duplex = run_duplex_lams(&c);
        let uni = crate::scenario::run_lams(&c);
        let loss_frac = 1.0 - duplex.a_to_b.efficiency() / uni.efficiency();
        assert!(
            loss_frac < 0.05,
            "duplex cost too high: {:.1}% (duplex {}, uni {})",
            loss_frac * 100.0,
            duplex.a_to_b.efficiency(),
            uni.efficiency()
        );
    }

    #[test]
    fn duplex_under_errors_recovers_both_ways() {
        let r = run_duplex_lams(&cfg(3_000, 1e-5));
        assert_eq!(r.a_to_b.lost, 0);
        assert_eq!(r.b_to_a.lost, 0);
        assert!(r.a_to_b.retransmissions > 0);
        assert!(r.b_to_a.retransmissions > 0);
    }
}
