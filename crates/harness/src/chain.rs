//! The store-and-forward relay chain (see [`crate::relay`]) as one
//! simulation over any number of shards (`repro --shards N`).
//!
//! The chain is the natural conservative-parallel topology: hop `i`'s
//! propagation delay is a hard lower bound on how far upstream events
//! can influence downstream shards, so a contiguous node partition cuts
//! only satellite links with real lookahead. Each shard owns a run of
//! nodes (and the channels their nodes *transmit* on); frames crossing
//! a cut travel as timestamped batches through the
//! [`netsim::run_sharded`] coordinator. At one shard the whole chain is
//! a single window on the caller's thread.
//!
//! Determinism contract: every hop's channel draws its randomness from
//! the same per-hop shifted seed regardless of the partition, sources
//! issue from the same generator stream, and the shard runtime's
//! canonical same-instant dispatch order is partition-independent — so
//! the report is **identical at every shard count**, including 1, but
//! for the occupancy series (below).
//!
//! Accounting across the cut: the sink shard's [`Collector`] is
//! pre-seeded with the full push schedule (a replayed clone of the
//! traffic generator), because push events happen on the source shard.
//! The coordinator patches `offered` and the transmission sums into the
//! sink's report afterwards. The source shard samples its sender's
//! buffer and the worst occupancy among the receivers *it hosts*, and
//! drains its sender's holding times — into the sink collector when
//! both ends share the one shard, else into a collector of its own
//! whose series replace the sink report's. Holding times and sender
//! occupancy are therefore identical at every shard count; receiver
//! occupancy covers the whole chain only at one shard.

use crate::metrics::{Collector, RunReport};
use crate::node::{Driver, RxEndpoint, TxEndpoint};
use crate::relay::RelayConfig;
use crate::scenario::ScenarioConfig;
use crate::traffic::TrafficGen;
use netsim::{
    link::Channel, CutPlan, DelayModel, FinishedShard, LinkId, NodeId, NodeRole, Partition,
    ShardBuilder, ShardSim, Topology, TopologyError,
};
use netsim::{Collect, Machine};
use sim_core::SeedSplitter;
use std::collections::BTreeMap;
use telemetry::Registry;

/// Per-hop channels from a per-hop shifted seed, so a hop's
/// error/delay realisation is partition-independent.
fn hop_channels(base: &ScenarioConfig, i: usize) -> (Channel, Channel) {
    let mut c = base.clone();
    c.seed = base.seed.wrapping_add(1000 * (i as u64 + 1));
    c.build_channels()
}

/// The chain's source generator (stream 2 of the master seed).
fn chain_gen(base: &ScenarioConfig) -> TrafficGen {
    TrafficGen::new(
        base.pattern.clone(),
        base.n_packets,
        SeedSplitter::new(base.seed).stream(2),
    )
}

/// Global ids: hop `i`'s forward (data) link.
fn lf(i: usize) -> usize {
    2 * i
}

/// Global ids: hop `i`'s reverse (control) link.
fn lr(i: usize) -> usize {
    2 * i + 1
}

/// The chain topology and per-link delay models, for partition
/// validation: `hops + 1` nodes, `2 * hops` links interleaved
/// fwd/rev per hop.
fn chain_topology(cfg: &RelayConfig) -> (Topology, Vec<DelayModel>) {
    let h = cfg.hops;
    let mut topo = Topology::default();
    let mut delays = Vec::with_capacity(2 * h);
    for n in 0..=h {
        topo.node(match n {
            0 => NodeRole::Source,
            n if n == h => NodeRole::Sink,
            _ => NodeRole::Relay,
        });
    }
    for i in 0..h {
        topo.link(NodeId(i), NodeId(i + 1), "fwd");
        topo.link(NodeId(i + 1), NodeId(i), "rev");
        let (f, r) = hop_channels(&cfg.base, i);
        delays.push(f.delay.clone());
        delays.push(r.delay.clone());
    }
    (topo, delays)
}

/// What one shard hands back for report assembly.
struct ChainShardOut {
    /// SDUs the local source issued (source shard only, else 0).
    issued: u64,
    failed: bool,
    transmissions: u64,
    retransmissions: u64,
    /// First sender's counter registry (source shard only).
    tx0_extras: Option<Registry>,
    /// The shard's collector, finished: the sink's report, with
    /// `offered`, `lost`, transmission sums and perf fields left for the
    /// coordinator, or the source shard's own sampling collector.
    report: Option<Box<RunReport>>,
    /// True on the shard hosting the sink.
    sink: bool,
}

/// How a chain run executes.
#[derive(Clone, Copy, Debug)]
pub enum Shards {
    /// Through [`netsim::run_sharded`] at this many shards (clamped to
    /// `hops + 1`, one node per shard being the finest cut), recording
    /// superstep accounting for `repro --shards`/`--timeline`.
    Coordinated(usize),
    /// As one shard run directly on this thread, unaccounted: a plain
    /// simulation, like the point-to-point and duplex runs.
    Direct,
}

/// Drive a relay chain, every hop running the same protocol.
/// `mk_tx(i)` / `mk_rx(i)` build link `i`'s endpoints (called on the
/// owning shard's thread, so trace handles resolve against that
/// shard's buffered sink).
pub fn run_chain<T, R>(
    cfg: &RelayConfig,
    runtime: Shards,
    mk_tx: impl Fn(usize) -> T + Sync,
    mk_rx: impl Fn(usize) -> R + Sync,
    protocol: &str,
) -> RunReport
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    T::Frame: Send,
{
    let h = cfg.hops;
    let base = &cfg.base;
    let layout = ChainLayout::new(
        cfg,
        match runtime {
            Shards::Coordinated(n) => n,
            Shards::Direct => 1,
        },
    );
    let ranges = &layout.ranges;
    let build = |s: usize| layout.shard(cfg, s, &mk_tx, &mk_rx);

    let fin = |s: usize, mut out: FinishedShard<T, R, Collector>| -> ChainShardOut {
        let (lo, hi) = ranges[s];
        let failed = out.txs.iter().any(|t| t.is_failed());
        let transmissions: u64 = out.txs.iter().map(|t| t.transmissions()).sum();
        let retransmissions: u64 = out.txs.iter().map(|t| t.retransmissions()).sum();
        let tx0_extras = (lo == 0).then(|| out.txs[0].extra_stats());
        let sink = hi == h;
        let report = out.collectors.pop().map(|col| {
            let rx_extras = match out.rxs.last() {
                Some(rx) if sink => rx.extra_stats(),
                _ => Registry::new(),
            };
            // `offered` is a placeholder (the source shard knows the
            // real count); passing the delivered count keeps the
            // `lost` subtraction at zero until the coordinator patches
            // both fields.
            let delivered = col.delivered_unique();
            Box::new(col.finish(
                protocol,
                delivered,
                out.finished_at,
                out.deadline_hit,
                false,
                0,
                0,
                base.t_f(),
                Registry::new(),
                rx_extras,
            ))
        });
        ChainShardOut {
            issued: out.issued.iter().sum(),
            failed,
            transmissions,
            retransmissions,
            tx0_extras,
            report,
            sink,
        }
    };

    let (outputs, queue, wall_secs) = match runtime {
        Shards::Coordinated(_) => {
            let outcome = netsim::run_sharded(&layout.plan, base.deadline, build, fin)
                .expect("chain shard wiring is valid");
            crate::metrics::shard_absorb(&outcome.shard, outcome.supersteps);
            (outcome.outputs, outcome.queue, outcome.wall_secs)
        }
        Shards::Direct => {
            let run = build(0)
                .expect("chain wiring is valid")
                .run_solo(base.deadline);
            (vec![fin(0, run.finished)], run.queue, run.wall_secs)
        }
    };

    let mut offered = 0;
    let mut failed = false;
    let mut transmissions = 0;
    let mut retransmissions = 0;
    let mut tx0_extras = None;
    let mut report = None;
    let mut sampled = None;
    for o in outputs {
        offered += o.issued;
        failed |= o.failed;
        transmissions += o.transmissions;
        retransmissions += o.retransmissions;
        tx0_extras = tx0_extras.or(o.tx0_extras);
        if o.sink {
            report = o.report;
        } else {
            sampled = sampled.or(o.report);
        }
    }
    let mut report = *report.expect("exactly one shard owns the sink");
    if let Some(src) = sampled {
        report.holding = src.holding;
        report.tx_buffer = src.tx_buffer;
        report.tx_buffer_tw = src.tx_buffer_tw;
        report.rx_buffer = src.rx_buffer;
        report.rate = src.rate;
    }
    report.offered = offered;
    report.lost = offered.saturating_sub(report.delivered_unique);
    report.link_failed = failed;
    report.transmissions = transmissions;
    report.retransmissions = retransmissions;
    if let Some(x) = tx0_extras {
        report.tx_extras = x;
    }
    report.queue = queue;
    report.wall_secs = wall_secs;
    crate::metrics::perf_absorb(&report.queue, report.wall_secs);
    report
}

/// How a chain splits over its shards: the topology, the contiguous
/// node partition, its cut plan, and each shard's node range.
struct ChainLayout {
    topo: Topology,
    part: Partition,
    plan: CutPlan,
    /// Node range `[lo, hi]` owned by each shard (contiguous by
    /// construction).
    ranges: Vec<(usize, usize)>,
}

impl ChainLayout {
    /// The layout of `cfg`'s chain over `shards` shards, clamped to
    /// `1..=hops + 1` (one node per shard being the finest cut).
    fn new(cfg: &RelayConfig, shards: usize) -> Self {
        assert!(cfg.hops >= 1, "need at least one link");
        let h = cfg.hops;
        let shards = shards.max(1).min(h + 1);
        let (topo, delays) = chain_topology(cfg);
        let part = Partition::contiguous(h + 1, shards);
        let plan = part
            .plan(&topo, &delays)
            .expect("chain partition is valid: contiguous over a positive-delay chain");
        let mut ranges = vec![(usize::MAX, 0usize); shards];
        for node in 0..=h {
            let s = part.shard_of(NodeId(node)).expect("node assigned");
            let r = &mut ranges[s];
            r.0 = r.0.min(node);
            r.1 = r.1.max(node);
        }
        ChainLayout {
            topo,
            part,
            plan,
            ranges,
        }
    }

    /// Wire shard `s`: its links, endpoints (`mk_tx(i)` / `mk_rx(i)`
    /// for hop `i`), the source on the first shard and the sink's
    /// collector on the last.
    fn shard<T, R>(
        &self,
        cfg: &RelayConfig,
        s: usize,
        mk_tx: &impl Fn(usize) -> T,
        mk_rx: &impl Fn(usize) -> R,
    ) -> Result<ShardSim<T, R, Collector>, TopologyError>
    where
        T: TxEndpoint,
        R: RxEndpoint<Frame = T::Frame>,
    {
        let h = cfg.hops;
        let base = &cfg.base;
        let (lo, hi) = self.ranges[s];
        let mut b: ShardBuilder<T, R, Collector> = ShardBuilder::new(base.payload_bytes);
        b.place(&self.topo, &self.part, s);
        b.sample_every(base.sample_every);

        // Links in ascending global-id order. Upstream boundary hop
        // lo-1: we receive its forward link (stub) and own its reverse
        // channel (our node lo transmits the control frames). Interior
        // hops are whole. Downstream boundary hop hi: we own the
        // forward channel, receive the reverse (stub).
        let mut local: BTreeMap<usize, LinkId> = BTreeMap::new();
        if lo > 0 {
            let i = lo - 1;
            let (_f, r) = hop_channels(base, i);
            local.insert(lf(i), b.cut_in(lf(i)));
            local.insert(lr(i), b.cut_out(lr(i), r, "rev"));
        }
        for i in lo..hi {
            let (f, r) = hop_channels(base, i);
            local.insert(lf(i), b.link(lf(i), f, "fwd"));
            local.insert(lr(i), b.link(lr(i), r, "rev"));
        }
        if hi < h {
            let i = hi;
            let (f, _r) = hop_channels(base, i);
            local.insert(lf(i), b.cut_out(lf(i), f, "fwd"));
            local.insert(lr(i), b.cut_in(lr(i)));
        }

        // Endpoints in global registration order (hop-ascending, tx
        // before rx): tx_i lives on node i, rx_i on node i+1.
        let mut txs: BTreeMap<usize, netsim::TxId> = BTreeMap::new();
        let mut rxs: BTreeMap<usize, netsim::RxId> = BTreeMap::new();
        for i in lo.saturating_sub(1)..h {
            if i >= lo && i <= hi {
                txs.insert(i, b.tx(local[&lf(i)], mk_tx(i)));
            }
            if i + 1 >= lo && i < hi {
                rxs.insert(i, b.rx(local[&lr(i)], mk_rx(i)));
            }
        }
        for (&i, &r) in &rxs {
            b.listen(local[&lf(i)], r);
            b.drain_after(r, local[&lr(i)]);
        }
        for (&i, &t) in &txs {
            b.listen(local[&lr(i)], t);
        }

        // The sink shard accounts the whole flow: its collector is
        // pre-seeded with the push schedule (pushes happen remotely)
        // and carries the completion condition.
        let sink_col = (hi == h).then(|| {
            let mut c = Collector::new();
            let mut g = chain_gen(base);
            while let Some((at, id)) = g.next() {
                c.on_push(at, id);
            }
            let col = b.collector(c);
            b.expect(col, base.n_packets);
            col
        });
        for (&i, &r) in &rxs {
            if i + 1 == h {
                b.deliver(r, sink_col.expect("sink shard has the collector"));
            } else {
                b.forward(r, txs[&(i + 1)]);
            }
        }
        if lo == 0 {
            let col = sink_col.unwrap_or_else(|| b.collector(Collector::new()));
            b.source(chain_gen(base), txs[&0], None, 0);
            b.sample(col, txs[&0], rxs.values().copied().collect());
            b.holding(col, txs[&0]);
        }
        b.build()
    }
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

/// Relay chain under LAMS-DLC at every hop, split across `shards`,
/// reported under `protocol`.
pub(crate) fn run_chain_lams_as(cfg: &RelayConfig, shards: Shards, protocol: &str) -> RunReport {
    let lcfg = cfg.base.lams_config();
    run_chain(
        cfg,
        shards,
        |i| Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(lams_dlc::Receiver::new(lcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        protocol,
    )
}

/// Relay chain under SR-HDLC at every hop, split across `shards`,
/// reported under `protocol`.
pub(crate) fn run_chain_sr_as(cfg: &RelayConfig, shards: Shards, protocol: &str) -> RunReport {
    let hcfg = cfg.base.hdlc_config();
    run_chain(
        cfg,
        shards,
        |i| Driver::new(hdlc::SrSender::new(hcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(hdlc::SrReceiver::new(hcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        protocol,
    )
}

/// Sharded relay chain under LAMS-DLC at every hop.
pub fn run_chain_lams(cfg: &RelayConfig, shards: usize) -> RunReport {
    run_chain_lams_as(cfg, Shards::Coordinated(shards), "lams-chain")
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

    /// The determinism contract: one simulation, any cut, same answer.
    #[test]
    fn report_identical_at_every_shard_count() {
        let cfg = chain(4, 400, 1e-6);
        let baseline = run_chain_lams(&cfg, 1);
        assert_eq!(baseline.delivered_unique, 400);
        assert_eq!(baseline.lost, 0);
        for shards in [2, 3, 5] {
            let r = run_chain_lams(&cfg, shards);
            assert_eq!(r.offered, baseline.offered, "{shards} shards");
            assert_eq!(r.delivered_unique, baseline.delivered_unique);
            assert_eq!(r.duplicates, baseline.duplicates);
            assert_eq!(r.lost, baseline.lost);
            assert_eq!(r.finished_at, baseline.finished_at, "{shards} shards");
            assert_eq!(r.deadline_hit, baseline.deadline_hit);
            assert_eq!(r.transmissions, baseline.transmissions);
            assert_eq!(r.retransmissions, baseline.retransmissions);
            assert_eq!(
                r.e2e_delay.mean().to_bits(),
                baseline.e2e_delay.mean().to_bits(),
                "{shards} shards: e2e delay must be bit-identical"
            );
            assert_eq!(r.delay.mean().to_bits(), baseline.delay.mean().to_bits());
            assert_eq!(r.tx_extras.entries(), baseline.tx_extras.entries());
            assert_eq!(r.rx_extras.entries(), baseline.rx_extras.entries());
        }
    }

    /// More shards than nodes clamps to one node per shard.
    #[test]
    fn shard_count_clamps_to_node_count() {
        let cfg = chain(2, 150, 1e-6);
        let wide = run_chain_lams(&cfg, 64);
        let serial = run_chain_lams(&cfg, 1);
        assert_eq!(wide.delivered_unique, serial.delivered_unique);
        assert_eq!(wide.finished_at, serial.finished_at);
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
        let mut out = ChainLayout::new(&cfg, 1)
            .shard(&cfg, 0, &mk_tx, &mk_rx)
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

    /// The source shard samples and drains its sender the same way at
    /// every cut, so holding times and sender occupancy match too.
    #[test]
    fn sender_series_identical_at_every_shard_count() {
        let cfg = chain(3, 300, 1e-6);
        let one = run_chain_lams(&cfg, 1);
        assert!(one.holding.count() > 0 && !one.tx_buffer.is_empty());
        for shards in [2, 4] {
            let r = run_chain_lams(&cfg, shards);
            assert_eq!(r.holding.count(), one.holding.count(), "{shards} shards");
            assert_eq!(r.holding.mean().to_bits(), one.holding.mean().to_bits());
            assert_eq!(r.tx_buffer.points(), one.tx_buffer.points());
            assert_eq!(r.rate.points(), one.rate.points());
        }
    }
}
