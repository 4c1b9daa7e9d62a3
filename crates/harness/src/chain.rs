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
//! The whole chain is one simulation: hop `i` carries data on link `2i`
//! (node `i` → `i + 1`) and control frames on link `2i + 1`. Every
//! hop's channel draws its randomness from its own shifted seed, and
//! the source issues from stream 2 of the master seed, so a hop's error
//! and delay realisation does not depend on how many hops follow it.
//! One collector sees the whole chain: it is credited with the source's
//! pushes and the sink's deliveries, samples the source sender's buffer
//! and the worst occupancy over every receiver, and drains the source
//! sender's holding times.

use crate::metrics::{Collector, RunReport};
use crate::node::{Driver, RxEndpoint, TxEndpoint};
use crate::scenario::ScenarioConfig;
use crate::traffic::TrafficGen;
use netsim::Machine;
use netsim::{link::Channel, Engine, EngineBuilder, WiringError};
use sim_core::SeedSplitter;

/// Relay chain configuration: `hops` identical links, each drawn from the
/// base scenario (distance, rate, error model, protocol knobs).
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// Number of links in the chain (≥ 1).
    pub hops: usize,
    /// Per-link scenario parameters.
    pub base: ScenarioConfig,
}

/// Per-hop channels from a per-hop shifted seed, so a hop's
/// error/delay realisation is independent of the chain's length.
fn hop_channels(base: &ScenarioConfig, i: usize) -> (Channel, Channel) {
    let mut c = base.clone();
    c.seed = base.seed.wrapping_add(1000 * (i as u64 + 1));
    c.build_channels()
}

/// Wire `cfg`'s chain: hop `i`'s endpoints are `mk_tx(i)` on node `i`
/// and `mk_rx(i)` on node `i + 1`; each relay forwards into the next
/// hop's sender, and the last receiver delivers to the one collector.
fn chain_sim<T, R>(
    cfg: &RelayConfig,
    mk_tx: impl Fn(usize) -> T,
    mk_rx: impl Fn(usize) -> R,
) -> Result<Engine<T, R, Collector>, WiringError>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    assert!(cfg.hops >= 1, "need at least one link");
    let h = cfg.hops;
    let base = &cfg.base;
    let mut b: EngineBuilder<T, R, Collector> = EngineBuilder::new(base.payload_bytes);
    b.sample_every(base.sample_every);
    let mut fwd = Vec::with_capacity(h);
    let mut rev = Vec::with_capacity(h);
    for i in 0..h {
        let (f, r) = hop_channels(base, i);
        fwd.push(b.link(f, "fwd"));
        rev.push(b.link(r, "rev"));
    }
    // Endpoints hop by hop, sender before receiver.
    let mut txs = Vec::with_capacity(h);
    let mut rxs = Vec::with_capacity(h);
    for i in 0..h {
        txs.push(b.tx(fwd[i], mk_tx(i)));
        rxs.push(b.rx(rev[i], mk_rx(i)));
    }
    for i in 0..h {
        b.listen(fwd[i], rxs[i]);
        b.listen(rev[i], txs[i]);
        b.drain_after(rxs[i], rev[i]);
    }
    let col = b.collector(Collector::new());
    b.expect(col, base.n_packets);
    for i in 0..h - 1 {
        b.forward(rxs[i], txs[i + 1]);
    }
    b.deliver(rxs[h - 1], col);
    let gen = TrafficGen::new(
        base.pattern.clone(),
        base.n_packets,
        SeedSplitter::new(base.seed).stream(2),
    );
    b.source(gen, txs[0], col);
    b.sample(col, txs[0], rxs);
    b.holding(col, txs[0]);
    b.build()
}

/// Drive a relay chain, every hop running the same protocol:
/// `mk_tx(i)` / `mk_rx(i)` build hop `i`'s endpoints.
pub fn run_chain<T, R>(
    cfg: &RelayConfig,
    mk_tx: impl Fn(usize) -> T,
    mk_rx: impl Fn(usize) -> R,
    protocol: &str,
) -> RunReport
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    let run = chain_sim(cfg, mk_tx, mk_rx)
        .expect("chain wiring is valid")
        .run(cfg.base.deadline);
    let col = run.collectors.into_iter().next().expect("one collector");
    let mut report = col.finish(
        protocol,
        run.issued[0],
        run.finished_at,
        run.deadline_hit,
        run.txs.iter().any(|t| t.is_failed()),
        run.txs.iter().map(|t| t.transmissions()).sum(),
        run.txs.iter().map(|t| t.retransmissions()).sum(),
        cfg.base.t_f(),
        run.txs[0].extra_stats(),
        run.rxs[run.rxs.len() - 1].extra_stats(),
    );
    report.queue = run.queue;
    report.wall_secs = run.wall_secs;
    crate::metrics::perf_absorb(&report.queue, report.wall_secs);
    report
}

/// Per-hop trace labels: hop `i`'s sender/receiver pair shares the
/// `hop<i>` prefix so trace consumers can pair the two sides of each
/// link. Chains longer than the table fall back to untraced endpoints
/// (trace labels are `&'static str` by design).
const HOP_TX: [&str; 16] = [
    "hop0.tx", "hop1.tx", "hop2.tx", "hop3.tx", "hop4.tx", "hop5.tx", "hop6.tx", "hop7.tx",
    "hop8.tx", "hop9.tx", "hop10.tx", "hop11.tx", "hop12.tx", "hop13.tx", "hop14.tx", "hop15.tx",
];
const HOP_RX: [&str; 16] = [
    "hop0.rx", "hop1.rx", "hop2.rx", "hop3.rx", "hop4.rx", "hop5.rx", "hop6.rx", "hop7.rx",
    "hop8.rx", "hop9.rx", "hop10.rx", "hop11.rx", "hop12.rx", "hop13.rx", "hop14.rx", "hop15.rx",
];

fn hop_trace(labels: &[&'static str; 16], i: usize) -> telemetry::trace::Trace {
    labels
        .get(i)
        .map(|l| telemetry::global_handle(l))
        .unwrap_or_else(telemetry::trace::Trace::disabled)
}

/// Relay chain under LAMS-DLC at every hop, reported under `protocol`.
fn run_chain_lams_as(cfg: &RelayConfig, protocol: &str) -> RunReport {
    let lcfg = cfg.base.lams_config();
    run_chain(
        cfg,
        |i| Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(lams_dlc::Receiver::new(lcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        protocol,
    )
}

/// Relay chain under LAMS-DLC at every hop, reported as `lams-chain`
/// (E18's runs).
pub fn run_chain_lams(cfg: &RelayConfig) -> RunReport {
    run_chain_lams_as(cfg, "lams-chain")
}

/// Relay chain under LAMS-DLC at every hop, reported as `lams-relay`
/// (E13's runs).
pub fn run_relay_lams(cfg: &RelayConfig) -> RunReport {
    run_chain_lams_as(cfg, "lams-relay")
}

/// Relay chain under SR-HDLC at every hop, reported as `sr-relay`.
pub fn run_relay_sr(cfg: &RelayConfig) -> RunReport {
    let hcfg = cfg.base.hdlc_config();
    run_chain(
        cfg,
        |i| Driver::new(hdlc::SrSender::new(hcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(hdlc::SrReceiver::new(hcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        "sr-relay",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Duration;

    fn chain(hops: usize, n: u64, ber: f64) -> RelayConfig {
        let mut base = ScenarioConfig::paper_default();
        base.n_packets = n;
        base.data_residual_ber = ber;
        base.ctrl_residual_ber = ber / 10.0;
        base.deadline = Duration::from_secs(120);
        RelayConfig { hops, base }
    }

    /// Only the source's sender feeds a holding collector; every relay
    /// hop's sender must still have its notifications drained, or it
    /// keeps one per SDU it forwards for the whole run.
    #[test]
    fn every_sender_holds_no_notifications_after_a_run() {
        let cfg = chain(4, 1_200, 1e-6);
        let lcfg = cfg.base.lams_config();
        let mk_tx = |_| Driver::new(lams_dlc::Sender::new(lcfg.clone()));
        let mk_rx = |_| Driver::new(lams_dlc::Receiver::new(lcfg.clone()));
        let mut out = chain_sim(&cfg, mk_tx, mk_rx)
            .expect("chain wiring is valid")
            .run(cfg.base.deadline);
        assert!(!out.deadline_hit);
        assert_eq!(out.txs.len(), 4);
        for (hop, tx) in out.txs.iter_mut().enumerate() {
            assert!(tx.inner.stats().released >= 1_200, "hop {hop}");
            assert_eq!(tx.inner.poll_event(), None, "hop {hop}");
        }
    }

    #[test]
    fn single_hop_matches_direct_runner() {
        let cfg = chain(1, 1_000, 1e-6);
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
        let cfg = chain(3, 1_500, 1e-6);
        let r = run_relay_lams(&cfg);
        assert_eq!(r.lost, 0);
        assert_eq!(r.delivered_unique, 1_500);
        assert_eq!(r.e2e_delay.count(), 1_500, "all released in order");
        assert!(!r.deadline_hit);
    }

    #[test]
    fn sr_chain_also_lossless() {
        let cfg = chain(2, 1_000, 1e-6);
        let r = run_relay_sr(&cfg);
        assert_eq!(r.lost, 0);
        assert_eq!(r.delivered_unique, 1_000);
    }

    #[test]
    fn per_hop_resequencing_penalty_compounds() {
        // §2.3's end-to-end claim: over several noisy hops the in-order
        // protocol's mean end-to-end delay grows faster than the
        // out-of-order one's.
        let cfg = chain(3, 3_000, 1e-5);
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
        let cfg1 = chain(1, 800, 1e-7);
        let d1 = run_relay_lams(&cfg1).e2e_delay.mean();
        let d3 = run_relay_lams(&chain(3, 800, 1e-7)).e2e_delay.mean();
        let per_hop = cfg1.base.one_way_delay().as_secs_f64();
        let increment = d3 - d1;
        let expect = 2.0 * per_hop;
        assert!(
            (increment - expect).abs() / expect < 0.25,
            "increment {increment}s vs 2 hops of propagation {expect}s"
        );
    }
}
