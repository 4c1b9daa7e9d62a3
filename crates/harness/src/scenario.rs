//! Scenario construction: the point-to-point topology builder.
//!
//! A scenario wires one sending endpoint and one receiving endpoint over
//! a full-duplex [`Channel`] pair (two nodes, one link each way), feeds
//! SDUs from a [`TrafficGen`], and collects a [`RunReport`]. The event
//! loop itself is netsim's [`netsim::ShardSim`], generic over the
//! endpoint traits, so LAMS-DLC, SR-HDLC and GBN-HDLC all run over
//! **identical** channel error realisations for a given seed (common
//! random numbers).

use crate::link::{Channel, DelayModel, ErrorModel, Outage};
use crate::metrics::{Collector, RunReport};
use crate::node::{Driver, RxEndpoint, TxEndpoint};
use crate::traffic::{Pattern, TrafficGen};
use netsim::channel::GilbertElliott;
use netsim::Machine;
use netsim::{LinkId, NodeRole, ShardBuilder, SoloRun, Topology};
use orbit::propagation_delay_s;
use sim_core::{Duration, SeedSplitter};

/// Gilbert–Elliott burst-error configuration (residual BERs per state).
#[derive(Clone, Debug)]
pub struct BurstCfg {
    /// Mean sojourn in the good state.
    pub mean_good: Duration,
    /// Mean burst duration.
    pub mean_bad: Duration,
    /// Residual BER in the good state (data direction).
    pub ber_good: f64,
    /// Residual BER inside a burst (data direction).
    pub ber_bad: f64,
    /// Residual BER in the good state (control direction).
    pub ctrl_ber_good: f64,
    /// Residual BER inside a burst (control direction).
    pub ctrl_ber_bad: f64,
}

/// Everything defining one simulation run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed; all stochastic components derive from it.
    pub seed: u64,
    /// Line rate in channel bits per second.
    pub rate_bps: f64,
    /// SDU payload size in bytes.
    pub payload_bytes: usize,
    /// Number of SDUs to deliver.
    pub n_packets: u64,
    /// Arrival pattern.
    pub pattern: Pattern,
    /// Link distance (fixed-delay model), km.
    pub distance_km: f64,
    /// Orbital profile overriding `distance_km` when present, with a
    /// start offset (seconds into the profile window).
    pub profile: Option<(orbit::LinkProfile, f64)>,
    /// Residual BER on the data direction.
    pub data_residual_ber: f64,
    /// Residual BER on the control direction.
    pub ctrl_residual_ber: f64,
    /// Burst model overriding the uniform BERs when present.
    pub burst: Option<BurstCfg>,
    /// Scheduled outages (both directions).
    pub outages: Vec<Outage>,
    /// Give-up time.
    pub deadline: Duration,
    /// Occupancy sampling period.
    pub sample_every: Duration,
    /// LAMS checkpoint interval.
    pub w_cp: Duration,
    /// LAMS cumulation depth.
    pub c_depth: u32,
    /// HDLC window.
    pub window: usize,
    /// HDLC sequence bits (`M = 2^bits`).
    pub seq_bits: u32,
    /// HDLC timeout slack α.
    pub alpha: Duration,
    /// Processing time per frame.
    pub t_proc: Duration,
    /// Optional LAMS receive capacity `(capacity, stop_watermark)` for
    /// flow-control scenarios.
    pub rx_capacity: Option<(usize, usize)>,
}

impl ScenarioConfig {
    /// The paper's reference scenario: 4,000 km, 300 Mbps, 1 kB SDUs,
    /// residual BER 1e-6 / 1e-7, `W_cp` = 5 ms, `C_depth` = 3, window
    /// 1024 (≈ one bandwidth-delay product), α = 10 ms.
    pub fn paper_default() -> Self {
        ScenarioConfig {
            seed: 1,
            rate_bps: 300e6,
            payload_bytes: 1024,
            n_packets: 10_000,
            pattern: Pattern::Batch,
            distance_km: 4000.0,
            profile: None,
            data_residual_ber: 1e-6,
            ctrl_residual_ber: 1e-7,
            burst: None,
            outages: Vec::new(),
            deadline: Duration::from_secs(300),
            sample_every: Duration::from_millis(5),
            w_cp: Duration::from_millis(5),
            c_depth: 3,
            window: 1024,
            seq_bits: 11,
            alpha: Duration::from_millis(10),
            t_proc: Duration::from_micros(10),
            rx_capacity: None,
        }
    }

    /// One-way propagation delay of the fixed-delay model.
    pub fn one_way_delay(&self) -> Duration {
        match &self.profile {
            Some((p, off)) => Duration::from_secs_f64(p.one_way_delay_s(p.window.start_s + off)),
            None => Duration::from_secs_f64(propagation_delay_s(self.distance_km)),
        }
    }

    /// Expected round-trip time.
    pub fn rtt(&self) -> Duration {
        self.one_way_delay() * 2
    }

    fn delay_model(&self) -> DelayModel {
        match &self.profile {
            Some((p, off)) => DelayModel::Profile {
                profile: p.clone(),
                t0_offset_s: *off,
            },
            None => DelayModel::Fixed(self.one_way_delay()),
        }
    }

    /// Build the (forward, reverse) channel pair this scenario defines.
    pub fn build_channels(&self) -> (Channel, Channel) {
        let split = SeedSplitter::new(self.seed);
        let (fwd_err, rev_err) = match &self.burst {
            None => (
                ErrorModel::uniform(self.data_residual_ber, split.stream(0)),
                ErrorModel::uniform(self.ctrl_residual_ber, split.stream(1)),
            ),
            Some(b) => (
                ErrorModel::Burst(GilbertElliott::new(
                    b.mean_good,
                    b.mean_bad,
                    b.ber_good,
                    b.ber_bad,
                    split.stream(0),
                )),
                ErrorModel::Burst(GilbertElliott::new(
                    b.mean_good,
                    b.mean_bad,
                    b.ctrl_ber_good,
                    b.ctrl_ber_bad,
                    split.stream(1),
                )),
            ),
        };
        let mut fwd = Channel::new(self.rate_bps, self.delay_model(), fwd_err);
        let mut rev = Channel::new(self.rate_bps, self.delay_model(), rev_err);
        fwd.outages = self.outages.clone();
        rev.outages = self.outages.clone();
        (fwd, rev)
    }

    /// Serialization time of one I-frame (info wire bytes + FEC) — the
    /// simulated `t_f`.
    pub fn t_f(&self) -> Duration {
        let (fwd, _) = self.build_channels();
        // LAMS info header/trailer is 19 bytes; HDLC's is 20 — close
        // enough that one t_f serves both for reporting.
        fwd.tx_time(self.payload_bytes + 19, true)
    }

    /// The LAMS protocol configuration this scenario induces.
    pub fn lams_config(&self) -> lams_dlc::LamsConfig {
        let (fwd, rev) = self.build_channels();
        let t_f = fwd.tx_time(self.payload_bytes + 19, true);
        // A checkpoint with a typical NAK load is ~40 wire bytes.
        let t_c = rev.tx_time(40, false);
        lams_dlc::LamsConfig {
            w_cp: self.w_cp,
            c_depth: self.c_depth,
            t_proc: self.t_proc,
            expected_rtt: self.rtt(),
            t_c,
            t_f,
            flow: lams_dlc::FlowConfig::default(),
            deadline_slack: Duration::from_millis(1),
        }
    }

    /// The HDLC configuration this scenario induces.
    pub fn hdlc_config(&self) -> hdlc::HdlcConfig {
        let (fwd, rev) = self.build_channels();
        hdlc::HdlcConfig {
            window: self.window,
            seq_bits: self.seq_bits,
            t_out: self.rtt() + self.alpha,
            t_f: fwd.tx_time(self.payload_bytes + 20, true),
            t_c: rev.tx_time(8, false),
            t_proc: self.t_proc,
        }
    }

    /// Convert analysis-ready parameters from this scenario (for
    /// analysis-vs-simulation validation).
    pub fn link_params(&self) -> analysis::LinkParams {
        let bits_f = ((self.payload_bytes + 19) * 8) as u64;
        let bits_c = 40 * 8;
        analysis::LinkParams {
            r: self.rtt().as_secs_f64(),
            t_f: self.t_f().as_secs_f64(),
            t_c: self.lams_config().t_c.as_secs_f64(),
            t_proc: self.t_proc.as_secs_f64(),
            i_cp: self.w_cp.as_secs_f64(),
            c_depth: self.c_depth,
            alpha: self.alpha.as_secs_f64(),
            w: self.window as u64,
            p_f: analysis::frame_error_prob(self.data_residual_ber, bits_f),
            p_c: analysis::frame_error_prob(self.ctrl_residual_ber, bits_c),
        }
    }
}

/// A builder over two nodes with the given roles, joined by
/// the scenario's forward channel (node 0 → 1, local link 0) and
/// reverse channel (local link 1), sampling every `cfg.sample_every`.
pub(crate) fn pair_builder<T, R>(
    cfg: &ScenarioConfig,
    roles: [NodeRole; 2],
) -> (ShardBuilder<T, R, Collector>, LinkId, LinkId)
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    let mut topo = Topology::default();
    let [a, z] = roles.map(|r| topo.node(r));
    topo.link(a, z, "fwd");
    topo.link(z, a, "rev");
    let mut b = ShardBuilder::new(cfg.payload_bytes);
    b.place(&topo);
    b.sample_every(cfg.sample_every);
    let (fwd, rev) = cfg.build_channels();
    let lf = b.link(0, fwd, "fwd");
    let lr = b.link(1, rev, "rev");
    (b, lf, lr)
}

/// Drive one scenario with the given endpoints. `protocol` labels the
/// report.
pub fn run<T, R>(cfg: &ScenarioConfig, tx: T, rx: R, protocol: &str) -> RunReport
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    let t_f_channel = cfg.t_f();
    let run = run_solo(cfg, tx, rx);
    let out = run.finished;
    let tx = &out.txs[0];
    let rx = &out.rxs[0];
    let col = out.collectors.into_iter().next().expect("one collector");
    let mut report = col.finish(
        protocol,
        out.issued[0],
        out.finished_at,
        out.deadline_hit,
        tx.is_failed(),
        tx.transmissions(),
        tx.retransmissions(),
        t_f_channel,
        tx.extra_stats(),
        rx.extra_stats(),
    );
    report.queue = run.queue;
    report.wall_secs = run.wall_secs;
    crate::metrics::perf_absorb(&report.queue, report.wall_secs);
    report
}

/// Wire the scenario's two nodes around `tx` and `rx` and run it,
/// handing back the finished endpoints.
fn run_solo<T, R>(cfg: &ScenarioConfig, tx: T, rx: R) -> SoloRun<T, R, Collector>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
{
    // Two nodes, one directed link each way: the source's sender owns
    // the forward link; the sink's receiver answers on the reverse.
    let gen = TrafficGen::new(
        cfg.pattern.clone(),
        cfg.n_packets,
        SeedSplitter::new(cfg.seed).stream(2),
    );
    let (mut b, lf, lr) = pair_builder(cfg, [NodeRole::Source, NodeRole::Sink]);
    let t = b.tx(lf, tx);
    let r = b.rx(lr, rx);
    b.listen(lf, r);
    b.listen(lr, t);
    let c = b.collector(Collector::new());
    b.expect(c, cfg.n_packets);
    b.source(gen, t, c, 0);
    b.deliver(r, c);
    b.sample(c, t, vec![r]);
    b.holding(c, t);

    b.build()
        .expect("point-to-point wiring is valid")
        .run_solo(cfg.deadline)
}

/// Run the scenario under LAMS-DLC.
pub fn run_lams(cfg: &ScenarioConfig) -> RunReport {
    let lcfg = cfg.lams_config();
    let tx =
        Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(telemetry::global_handle("tx")));
    let rx = Driver::new(
        match cfg.rx_capacity {
            Some((cap, mark)) => lams_dlc::Receiver::with_capacity(lcfg, cap, mark),
            None => lams_dlc::Receiver::new(lcfg),
        }
        .with_trace(telemetry::global_handle("rx")),
    );
    run(cfg, tx, rx, "lams")
}

/// Run the scenario under SR-HDLC.
pub fn run_sr(cfg: &ScenarioConfig) -> RunReport {
    let hcfg = cfg.hdlc_config();
    let tx =
        Driver::new(hdlc::SrSender::new(hcfg.clone()).with_trace(telemetry::global_handle("tx")));
    let rx = Driver::new(hdlc::SrReceiver::new(hcfg).with_trace(telemetry::global_handle("rx")));
    run(cfg, tx, rx, "sr-hdlc")
}

/// Run the scenario under GBN-HDLC.
pub fn run_gbn(cfg: &ScenarioConfig) -> RunReport {
    let hcfg = cfg.hdlc_config();
    let tx =
        Driver::new(hdlc::GbnSender::new(hcfg.clone()).with_trace(telemetry::global_handle("tx")));
    let rx = Driver::new(hdlc::GbnReceiver::new(hcfg).with_trace(telemetry::global_handle("rx")));
    run(cfg, tx, rx, "gbn-hdlc")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Instant;

    fn small(n: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_default();
        c.n_packets = n;
        c.deadline = Duration::from_secs(60);
        c
    }

    #[test]
    fn lams_clean_channel_delivers_everything() {
        let mut cfg = small(500);
        cfg.data_residual_ber = 0.0;
        cfg.ctrl_residual_ber = 0.0;
        let r = run_lams(&cfg);
        assert_eq!(r.delivered_unique, 500);
        assert_eq!(r.lost, 0);
        assert_eq!(r.duplicates, 0);
        assert!(!r.deadline_hit);
        assert!(!r.link_failed);
    }

    #[test]
    fn the_receiver_holds_no_notifications_after_a_run() {
        let cfg = small(20_000);
        let lcfg = cfg.lams_config();
        let tx = Driver::new(lams_dlc::Sender::new(lcfg.clone()));
        let rx = Driver::new(lams_dlc::Receiver::new(lcfg));
        let mut out = run_solo(&cfg, tx, rx).finished;
        assert!(!out.deadline_hit);
        assert!(out.rxs[0].inner.stats().accepted >= 20_000);
        assert_eq!(out.rxs[0].inner.poll_event(), None);
    }

    #[test]
    fn sr_hdlc_clean_channel_delivers_everything() {
        let mut cfg = small(500);
        cfg.data_residual_ber = 0.0;
        cfg.ctrl_residual_ber = 0.0;
        let r = run_sr(&cfg);
        assert_eq!(r.delivered_unique, 500);
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn gbn_clean_channel_delivers_everything() {
        let mut cfg = small(500);
        cfg.data_residual_ber = 0.0;
        cfg.ctrl_residual_ber = 0.0;
        let r = run_gbn(&cfg);
        assert_eq!(r.delivered_unique, 500);
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn lams_lossy_channel_zero_loss() {
        let mut cfg = small(2000);
        cfg.data_residual_ber = 1e-5; // P_F ≈ 8%
        cfg.ctrl_residual_ber = 1e-6;
        let r = run_lams(&cfg);
        assert_eq!(r.lost, 0, "LAMS-DLC must provide zero packet loss");
        assert!(r.retransmissions > 0, "errors must have occurred");
        assert!(!r.deadline_hit);
    }

    #[test]
    fn sr_hdlc_lossy_channel_zero_loss() {
        let mut cfg = small(2000);
        cfg.data_residual_ber = 1e-5;
        cfg.ctrl_residual_ber = 1e-6;
        let r = run_sr(&cfg);
        assert_eq!(r.lost, 0);
        assert!(r.retransmissions > 0);
    }

    #[test]
    fn lams_faster_than_hdlc_at_saturation() {
        // The headline: at sustained load LAMS-DLC outperforms SR-HDLC.
        let mut cfg = small(20_000);
        cfg.data_residual_ber = 1e-6;
        cfg.ctrl_residual_ber = 1e-7;
        let lams = run_lams(&cfg);
        let sr = run_sr(&cfg);
        assert_eq!(lams.lost, 0);
        assert_eq!(sr.lost, 0);
        assert!(
            lams.efficiency() > sr.efficiency(),
            "lams={} sr={}",
            lams.efficiency(),
            sr.efficiency()
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let mut cfg = small(1000);
        cfg.data_residual_ber = 1e-5;
        let a = run_lams(&cfg);
        let b = run_lams(&cfg);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.retransmissions, b.retransmissions);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small(2000);
        cfg.data_residual_ber = 1e-5;
        let a = run_lams(&cfg);
        cfg.seed = 2;
        let b = run_lams(&cfg);
        assert_ne!(
            (a.retransmissions, a.finished_at),
            (b.retransmissions, b.finished_at)
        );
    }

    #[test]
    fn outage_recovers_without_loss() {
        // A short outage inside the run: enforced recovery brings the
        // link back; nothing may be lost.
        let mut cfg = small(3000);
        cfg.data_residual_ber = 0.0;
        cfg.ctrl_residual_ber = 0.0;
        cfg.outages.push(Outage {
            from: Instant::from_millis(30),
            until: Instant::from_millis(60),
        });
        let r = run_lams(&cfg);
        assert_eq!(r.lost, 0, "outage must not lose frames");
        assert!(!r.link_failed, "30 ms outage must be recoverable");
    }

    #[test]
    fn all_counters_follow_naming_convention() {
        // Workspace convention: every registered counter is
        // `crate.component.event` (see telemetry::is_canonical_name).
        let mut cfg = small(200);
        cfg.data_residual_ber = 1e-5;
        cfg.ctrl_residual_ber = 1e-6;
        for r in [run_lams(&cfg), run_sr(&cfg), run_gbn(&cfg)] {
            for reg in [&r.tx_extras, &r.rx_extras, &r.counters] {
                assert!(!reg.is_empty() || std::ptr::eq(reg, &r.counters));
                assert_eq!(
                    reg.non_canonical_names(),
                    Vec::<&str>::new(),
                    "protocol {}",
                    r.protocol
                );
            }
        }
    }

    #[test]
    fn analysis_params_derivation() {
        let cfg = ScenarioConfig::paper_default();
        let p = cfg.link_params();
        p.validate().unwrap();
        assert!((p.r - cfg.rtt().as_secs_f64()).abs() < 1e-12);
    }
}
