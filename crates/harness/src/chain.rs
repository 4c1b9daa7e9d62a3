//! The store-and-forward relay chain (see [`crate::relay`]) as one
//! simulation: `hops + 1` nodes, hop `i` carrying data on link `2i`
//! (node `i` → `i + 1`) and control frames on link `2i + 1`.
//!
//! Every hop's channel draws its randomness from its own shifted seed,
//! and the source issues from stream 2 of the master seed, so a hop's
//! error and delay realisation does not depend on how many hops follow
//! it. One collector sees the whole chain: it is credited with the
//! source's pushes and the sink's deliveries, samples the source
//! sender's buffer and the worst occupancy over every receiver, and
//! drains the source sender's holding times.

use crate::metrics::{Collector, RunReport};
use crate::node::{Driver, RxEndpoint, TxEndpoint};
use crate::relay::RelayConfig;
use crate::scenario::ScenarioConfig;
use crate::traffic::TrafficGen;
use netsim::Machine;
use netsim::{link::Channel, NodeRole, ShardBuilder, ShardSim, Topology, TopologyError};
use sim_core::SeedSplitter;

/// Per-hop channels from a per-hop shifted seed, so a hop's
/// error/delay realisation is independent of the chain's length.
fn hop_channels(base: &ScenarioConfig, i: usize) -> (Channel, Channel) {
    let mut c = base.clone();
    c.seed = base.seed.wrapping_add(1000 * (i as u64 + 1));
    c.build_channels()
}

/// The chain topology: `hops + 1` nodes, `2 * hops` links interleaved
/// fwd/rev per hop.
fn chain_topology(hops: usize) -> Topology {
    let mut topo = Topology::default();
    let nodes: Vec<_> = (0..=hops)
        .map(|n| {
            topo.node(match n {
                0 => NodeRole::Source,
                n if n == hops => NodeRole::Sink,
                _ => NodeRole::Relay,
            })
        })
        .collect();
    for i in 0..hops {
        topo.link(nodes[i], nodes[i + 1], "fwd");
        topo.link(nodes[i + 1], nodes[i], "rev");
    }
    topo
}

/// Wire `cfg`'s chain: hop `i`'s endpoints are `mk_tx(i)` on node `i`
/// and `mk_rx(i)` on node `i + 1`; each relay forwards into the next
/// hop's sender, and the last receiver delivers to the one collector.
fn chain_sim<T, R>(
    cfg: &RelayConfig,
    mk_tx: impl Fn(usize) -> T,
    mk_rx: impl Fn(usize) -> R,
) -> Result<ShardSim<T, R, Collector>, TopologyError>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    assert!(cfg.hops >= 1, "need at least one link");
    let h = cfg.hops;
    let base = &cfg.base;
    let mut b: ShardBuilder<T, R, Collector> = ShardBuilder::new(base.payload_bytes);
    b.place(&chain_topology(h));
    b.sample_every(base.sample_every);
    let mut fwd = Vec::with_capacity(h);
    let mut rev = Vec::with_capacity(h);
    for i in 0..h {
        let (f, r) = hop_channels(base, i);
        fwd.push(b.link(2 * i, f, "fwd"));
        rev.push(b.link(2 * i + 1, r, "rev"));
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
    b.source(gen, txs[0], col, 0);
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
        .run_solo(cfg.base.deadline);
    let out = run.finished;
    let col = out.collectors.into_iter().next().expect("one collector");
    let mut report = col.finish(
        protocol,
        out.issued[0],
        out.finished_at,
        out.deadline_hit,
        out.txs.iter().any(|t| t.is_failed()),
        out.txs.iter().map(|t| t.transmissions()).sum(),
        out.txs.iter().map(|t| t.retransmissions()).sum(),
        cfg.base.t_f(),
        out.txs[0].extra_stats(),
        out.rxs[out.rxs.len() - 1].extra_stats(),
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
pub(crate) fn run_chain_lams_as(cfg: &RelayConfig, protocol: &str) -> RunReport {
    let lcfg = cfg.base.lams_config();
    run_chain(
        cfg,
        |i| Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(lams_dlc::Receiver::new(lcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        protocol,
    )
}

/// Relay chain under SR-HDLC at every hop, reported under `protocol`.
pub(crate) fn run_chain_sr_as(cfg: &RelayConfig, protocol: &str) -> RunReport {
    let hcfg = cfg.base.hdlc_config();
    run_chain(
        cfg,
        |i| Driver::new(hdlc::SrSender::new(hcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(hdlc::SrReceiver::new(hcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        protocol,
    )
}

/// Relay chain under LAMS-DLC at every hop, reported as `lams-chain`
/// like E18's runs. `shards` is the split the removed multi-thread runtime
/// took; that runtime's contract was a result identical to one shard's,
/// so every count runs the one simulation.
pub fn run_chain_lams(cfg: &RelayConfig, shards: usize) -> RunReport {
    let _ = shards;
    run_chain_lams_as(cfg, "lams-chain")
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
            .run_solo(cfg.base.deadline)
            .finished;
        assert!(!out.deadline_hit);
        assert_eq!(out.txs.len(), 4);
        for (hop, tx) in out.txs.iter_mut().enumerate() {
            assert!(tx.inner.stats().released >= 1_200, "hop {hop}");
            assert_eq!(tx.inner.poll_event(), None, "hop {hop}");
        }
    }
}
