//! Golden-seed equivalence tests.
//!
//! The protocol-outcome values were captured from the seed-commit
//! event loops (the hand-rolled `scenario.rs` / `duplex.rs` /
//! `relay.rs` drivers) *before* they were re-expressed over the
//! `netsim` engine; the occupancy fields and the CBR, orbit and
//! multi-pass cases were captured from the serial `netsim` engine
//! before the runners moved to the shard loop. Every runner must
//! reproduce every number bit-for-bit: same seed, same channel
//! realisation, same protocol decisions, same report.
//!
//! Beyond the protocol outcome, each fingerprint pins the sampled
//! occupancy series (sample count and the mean of the sender and
//! receiver buffer samples), so the periodic sampling tick and its
//! place among same-instant events are covered too. The paper-default
//! cases run `Pattern::Batch`; one case runs CBR arrivals, and two run
//! over an orbital `DelayModel::Profile` link (a point-to-point pass
//! and a multi-pass transfer).

use harness::{
    run_chain_lams, run_duplex_lams, run_gbn, run_lams, run_multi_pass_limited, run_relay_lams,
    run_sr, Pattern, RelayConfig, RunReport, ScenarioConfig,
};
use orbit::{visibility_windows, LinkConstraints, LinkProfile, Satellite};
use sim_core::stats::Series;
use sim_core::Duration;

/// The observable fingerprint of one run: if all of these match the
/// golden capture exactly, the engine made identical decisions at
/// identical instants.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    delivered_unique: u64,
    duplicates: u64,
    lost: u64,
    transmissions: u64,
    retransmissions: u64,
    finished_at_ns: u64,
    delay_count: u64,
    e2e_delay_mean_bits: u64,
    holding_mean_bits: u64,
    samples: usize,
    tx_buffer_mean_bits: u64,
    rx_buffer_mean_bits: u64,
}

/// Mean of a sampled series, summed in sample order.
fn series_mean(s: &Series) -> f64 {
    let sum: f64 = s.points().iter().map(|&(_, v)| v).sum();
    sum / s.len().max(1) as f64
}

fn fp(r: &RunReport) -> Fingerprint {
    Fingerprint {
        delivered_unique: r.delivered_unique,
        duplicates: r.duplicates,
        lost: r.lost,
        transmissions: r.transmissions,
        retransmissions: r.retransmissions,
        finished_at_ns: r.finished_at.as_nanos(),
        delay_count: r.delay.count(),
        e2e_delay_mean_bits: r.e2e_delay.mean().to_bits(),
        holding_mean_bits: r.holding.mean().to_bits(),
        samples: r.tx_buffer.len(),
        tx_buffer_mean_bits: series_mean(&r.tx_buffer).to_bits(),
        rx_buffer_mean_bits: series_mean(&r.rx_buffer).to_bits(),
    }
}

fn lossy(n: u64, ber: f64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_default();
    c.n_packets = n;
    c.data_residual_ber = ber;
    c.ctrl_residual_ber = ber / 10.0;
    c.deadline = Duration::from_secs(120);
    c
}

#[test]
fn golden_lams_point_to_point() {
    let r = run_lams(&lossy(2_000, 1e-5));
    assert_eq!(
        fp(&r),
        Fingerprint {
            delivered_unique: 2000,
            duplicates: 0,
            lost: 0,
            transmissions: 2158,
            retransmissions: 158,
            finished_at_ns: 203344484,
            delay_count: 2000,
            e2e_delay_mean_bits: 4593635418311284060,
            holding_mean_bits: 4584087809177327535,
            samples: 41,
            tx_buffer_mean_bits: 4650605726506699501,
            rx_buffer_mean_bits: 4591694429837596922,
        }
    );
}

#[test]
fn golden_sr_point_to_point() {
    let r = run_sr(&lossy(2_000, 1e-5));
    assert_eq!(
        fp(&r),
        Fingerprint {
            delivered_unique: 2000,
            duplicates: 0,
            lost: 0,
            transmissions: 2158,
            retransmissions: 158,
            finished_at_ns: 253936686,
            delay_count: 2000,
            e2e_delay_mean_bits: 4594275168424428954,
            holding_mean_bits: 4590275547844339454,
            samples: 51,
            tx_buffer_mean_bits: 4653374238944081719,
            rx_buffer_mean_bits: 4643864886261219971,
        }
    );
}

#[test]
fn golden_gbn_point_to_point() {
    let r = run_gbn(&lossy(800, 1e-6));
    assert_eq!(
        fp(&r),
        Fingerprint {
            delivered_unique: 800,
            duplicates: 0,
            lost: 0,
            transmissions: 3074,
            retransmissions: 2274,
            finished_at_ns: 258542865,
            delay_count: 800,
            e2e_delay_mean_bits: 4593737800450033514,
            holding_mean_bits: 0,
            samples: 52,
            tx_buffer_mean_bits: 4646467461793548761,
            rx_buffer_mean_bits: 0,
        }
    );
}

#[test]
fn golden_duplex_lams() {
    let d = run_duplex_lams(&lossy(1_500, 1e-6));
    assert_eq!(
        fp(&d.a_to_b),
        Fingerprint {
            delivered_unique: 1500,
            duplicates: 0,
            lost: 0,
            transmissions: 1518,
            retransmissions: 18,
            finished_at_ns: 138344484,
            delay_count: 1500,
            e2e_delay_mean_bits: 4590402866163810496,
            holding_mean_bits: 4584095192130966747,
            samples: 28,
            tx_buffer_mean_bits: 4649628593971040841,
            rx_buffer_mean_bits: 4594314991293244562,
        }
    );
    assert_eq!(
        fp(&d.b_to_a),
        Fingerprint {
            delivered_unique: 1500,
            duplicates: 0,
            lost: 0,
            transmissions: 1501,
            retransmissions: 1,
            finished_at_ns: 138344484,
            delay_count: 1500,
            e2e_delay_mean_bits: 4588973297303071113,
            holding_mean_bits: 4584091768337636621,
            samples: 28,
            tx_buffer_mean_bits: 4649588383260082176,
            rx_buffer_mean_bits: 4589811391665874066,
        }
    );
}

#[test]
fn golden_relay_three_hops() {
    let cfg = RelayConfig {
        hops: 3,
        base: lossy(1_500, 1e-6),
    };
    let r = run_relay_lams(&cfg);
    assert_eq!(
        fp(&r),
        Fingerprint {
            delivered_unique: 1500,
            duplicates: 0,
            lost: 0,
            transmissions: 4533,
            retransmissions: 33,
            finished_at_ns: 168344484,
            delay_count: 1500,
            e2e_delay_mean_bits: 4592467057754480977,
            holding_mean_bits: 4584087421385838388,
            samples: 34,
            tx_buffer_mean_bits: 4648471279446261760,
            rx_buffer_mean_bits: 4591022443666511511,
        }
    );
}

#[test]
fn golden_lams_cbr_point_to_point() {
    let mut cfg = lossy(2_000, 1e-5);
    cfg.pattern = Pattern::Cbr {
        interval: cfg.t_f(),
    };
    let r = run_lams(&cfg);
    assert_eq!(
        fp(&r),
        Fingerprint {
            delivered_unique: 2000,
            duplicates: 0,
            lost: 0,
            transmissions: 2158,
            retransmissions: 158,
            finished_at_ns: 203344484,
            delay_count: 2000,
            e2e_delay_mean_bits: 4589629074701628015,
            holding_mean_bits: 4584087809177327535,
            samples: 41,
            tx_buffer_mean_bits: 4644379165341247238,
            rx_buffer_mean_bits: 4591694429837596922,
        }
    );
}

/// A cross-plane LEO pair: the longest visibility window in two
/// orbits, with 30 s of retargeting.
fn leo_pair() -> (Satellite, Satellite) {
    (
        Satellite::new(1000.0, 80.0, 0.0, 0.0),
        Satellite::new(1000.0, 80.0, 90.0, 0.0),
    )
}

#[test]
fn golden_lams_orbit_profile() {
    let (a, b) = leo_pair();
    let windows = visibility_windows(&a, &b, 2.0 * a.period_s(), 5.0, &LinkConstraints::default());
    let w = windows
        .iter()
        .copied()
        .max_by(|x, y| x.duration_s().total_cmp(&y.duration_s()))
        .expect("a visibility window");
    let profile = LinkProfile::build(&a, &b, w, 5.0, 30.0);
    let mut cfg = lossy(3_000, 1e-5);
    cfg.alpha = Duration::from_secs_f64(2.0 * profile.alpha_s());
    cfg.profile = Some((profile, 30.0));
    let r = run_lams(&cfg);
    assert_eq!(
        fp(&r),
        Fingerprint {
            delivered_unique: 3000,
            duplicates: 0,
            lost: 0,
            transmissions: 3247,
            retransmissions: 247,
            finished_at_ns: 418038517,
            delay_count: 3000,
            e2e_delay_mean_bits: 4596572351694166804,
            holding_mean_bits: 4587174373599735933,
            samples: 84,
            tx_buffer_mean_bits: 4651774526522280229,
            rx_buffer_mean_bits: 4589811391665874066,
        }
    );
}

#[test]
fn golden_multi_pass_limited() {
    let (a, b) = leo_pair();
    let mut base = lossy(0, 1e-6);
    base.rate_bps = 2e6;
    let r = run_multi_pass_limited(&a, &b, 4_000, &base, 30.0, 4.0 * a.period_s(), Some(20.0));
    let passes: Vec<(u64, u64, bool)> = r
        .passes
        .iter()
        .map(|p| (p.offered, p.delivered, p.window_exhausted))
        .collect();
    assert_eq!(passes, vec![(4000, 2376, true), (1624, 1624, false)]);
    assert_eq!(r.total_time_s.to_bits(), 4661077411935583077);
}

/// E18's chain shape: 1,200 SDUs at residual BER 1e-5 (data) and 1e-6
/// (control) with a 600 s deadline, over 2 and 6 hops. The values were
/// captured through the multi-thread coordinator's one-shard path,
/// before that runtime was removed.
fn e18_chain(hops: usize) -> RelayConfig {
    let mut base = ScenarioConfig::paper_default();
    base.n_packets = 1_200;
    base.data_residual_ber = 1e-5;
    base.ctrl_residual_ber = 1e-6;
    base.deadline = Duration::from_secs(600);
    RelayConfig { hops, base }
}

#[test]
fn golden_e18_chain() {
    let got: Vec<Fingerprint> = [2, 6]
        .iter()
        .map(|&h| fp(&run_chain_lams(&e18_chain(h))))
        .collect();
    assert_eq!(
        got,
        vec![
            Fingerprint {
                delivered_unique: 1200,
                duplicates: 0,
                lost: 0,
                transmissions: 2598,
                retransmissions: 198,
                finished_at_ns: 168344484,
                delay_count: 1200,
                e2e_delay_mean_bits: 4594496108226438083,
                holding_mean_bits: 4584087044053557071,
                samples: 34,
                tx_buffer_mean_bits: 4646497850105867565,
                rx_buffer_mean_bits: 4591022443666511511,
            },
            Fingerprint {
                delivered_unique: 1200,
                duplicates: 0,
                lost: 0,
                transmissions: 7819,
                retransmissions: 619,
                finished_at_ns: 293344484,
                delay_count: 1200,
                e2e_delay_mean_bits: 4598374666859709558,
                holding_mean_bits: 4584087044053557071,
                samples: 59,
                tx_buffer_mean_bits: 4643182591245078597,
                rx_buffer_mean_bits: 4589549681275905805,
            },
        ]
    );
}
