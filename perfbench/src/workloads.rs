//! The three workloads. One operation is one complete LAMS-DLC transfer
//! through the program's own entry points; its inputs derive from the
//! operation's seed, and its outputs are checked before it counts.

use crate::layers::{self, TimedClock, TimedRx, TimedTransport, TimedTx};
use harness::node::Driver;
use harness::{RunReport, ScenarioConfig};
use lams_dlc_io::{IoConfig, IoSummary, MemTransport, UdpTransport};
use monitor::{Monitor, MonitorConfig, MonitorReport};
use proto_core::{Machine, ManualClock, WallClock};
use sim_core::Duration;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as Wall;

/// SDUs per simulated point-to-point transfer.
const LINK_SDUS: u64 = 2_000;
/// SDUs per real-host transfer, in memory and over loopback UDP.
const MEM_SDUS: u64 = 2_000;
const UDP_SDUS: u64 = 250;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serial simulator: one lossy 4,000 km point-to-point link.
    Link,
    /// Real host over the in-memory transport and a manual clock.
    HostMem,
    /// Real host over loopback UDP sockets and the wall clock.
    HostUdp,
}

impl Workload {
    pub const ALL: [(&'static str, Workload); 3] = [
        ("link", Workload::Link),
        ("host_mem", Workload::HostMem),
        ("host_udp", Workload::HostUdp),
    ];

    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// Distinguishes the workloads' seed streams.
    pub fn salt(self) -> u64 {
        self as u64 + 1
    }
}

/// What one checked transfer measured. The `*_ns` layer times are
/// recorded only on traced runs.
pub struct OpResult {
    pub sdus: u64,
    pub wall_ns: u64,
    /// Protocol side: the machines and the trace emission and live audit
    /// they drive (plus, on the real host, the wire codec and host loop).
    pub proto_ns: u64,
    /// Carrier side: the simulation engine (event queue, dispatch,
    /// channel error process, collector), or the host's transport and
    /// clock.
    pub medium_ns: u64,
    pub frames: u64,
    pub retx: u64,
    pub records: u64,
    pub events: u64,
}

/// Run one transfer of `w` from `seed` and check its outputs. `slot`
/// is the transfer's place in its round: the lossy host transfers
/// take their loss and corruption rates from it, so that every round
/// covers each combination once.
pub fn run_op(w: Workload, seed: u64, slot: usize, traced: bool) -> Result<OpResult, String> {
    match w {
        Workload::Link => sim_op(seed, traced),
        Workload::HostMem => host_op(io_config(seed, MEM_SDUS, Some(slot)), traced, false),
        Workload::HostUdp => host_op(io_config(seed, UDP_SDUS, None), traced, true),
    }
}

/// The paper's reference link (4,000 km, 300 Mbps, 1 kB SDUs) with a
/// residual BER high enough that about 8% of I-frames need recovery.
fn lossy_scenario(seed: u64, sdus: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_default();
    c.seed = seed;
    c.n_packets = sdus;
    c.data_residual_ber = 1e-5;
    c.ctrl_residual_ber = 1e-6;
    c.deadline = Duration::from_secs(120);
    c
}

fn run_link(seed: u64, traced: bool) -> RunReport {
    let cfg = lossy_scenario(seed, LINK_SDUS);
    if !traced {
        return harness::scenario::run_lams(&cfg);
    }
    // The endpoints `run_lams` builds, wrapped.
    let lcfg = cfg.lams_config();
    let tx =
        Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(telemetry::global_handle("tx")));
    let rx = Driver::new(lams_dlc::Receiver::new(lcfg).with_trace(telemetry::global_handle("rx")));
    harness::scenario::run(&cfg, TimedTx::new(tx), TimedRx::new(rx), "lams")
}

/// Run a simulated transfer under a live protocol audit, as `repro`
/// does, and check it delivered everything exactly once, in time.
fn sim_op(seed: u64, traced: bool) -> Result<OpResult, String> {
    let mon = Rc::new(RefCell::new(Monitor::new(MonitorConfig::default())));
    telemetry::install_global(mon.clone());
    layers::take_endpoint_ns();
    let t0 = Wall::now();
    let r = run_link(seed, traced);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    telemetry::uninstall_global();
    let audit = mon.borrow_mut().take_report();
    check_sim(&r, &audit)?;
    let proto_ns = if traced {
        layers::take_endpoint_ns()
    } else {
        0
    };
    Ok(OpResult {
        sdus: r.delivered_unique,
        wall_ns,
        proto_ns,
        medium_ns: if traced {
            wall_ns.saturating_sub(proto_ns)
        } else {
            0
        },
        frames: r.transmissions,
        retx: r.retransmissions,
        records: audit.records,
        events: r.queue.popped,
    })
}

fn check_sim(r: &RunReport, audit: &MonitorReport) -> Result<(), String> {
    if r.deadline_hit || r.link_failed {
        return Err(format!(
            "run did not complete (deadline {}, link failed {})",
            r.deadline_hit, r.link_failed
        ));
    }
    if r.delivered_unique != r.offered || r.lost != 0 || r.offered == 0 {
        return Err(format!(
            "delivered {} of {} SDUs ({} lost)",
            r.delivered_unique, r.offered, r.lost
        ));
    }
    if r.retransmissions == 0 || r.transmissions < r.offered + r.retransmissions {
        return Err(format!(
            "implausible transmissions: {} ({} retransmitted)",
            r.transmissions, r.retransmissions
        ));
    }
    if audit.total_findings != 0 || audit.records == 0 {
        return Err(format!(
            "live audit: {} findings over {} records",
            audit.total_findings, audit.records
        ));
    }
    Ok(())
}

/// A transfer of 48..=79-byte SDUs, the size drawn from the seed. With
/// a `lossy_slot`, loss and corruption injection: every 6th..9th
/// outbound I-frame dropped and every 13th..16th arriving one
/// corrupted, one of the 16 combinations per slot.
fn io_config(seed: u64, sdus: u64, lossy_slot: Option<usize>) -> IoConfig {
    let (drop_every, corrupt_every) = match lossy_slot {
        Some(slot) => (6 + slot as u64 % 4, 13 + slot as u64 / 4 % 4),
        None => (0, 0),
    };
    IoConfig {
        sdus,
        payload_len: 48 + (seed % 32) as usize,
        drop_every,
        corrupt_every,
        timeout: std::time::Duration::from_secs(20),
        ..IoConfig::default()
    }
}

fn host_op(cfg: IoConfig, traced: bool, udp: bool) -> Result<OpResult, String> {
    let t0 = Wall::now();
    let (s, medium_ns) = match (udp, traced) {
        (false, false) => (
            lams_dlc_io::run_transfer(&cfg, &ManualClock::new(), &mut MemTransport::new())?,
            0,
        ),
        (true, false) => (lams_dlc_io::run_loopback(&cfg)?, 0),
        (false, true) => {
            let clock = TimedClock::new(ManualClock::new());
            let mut link = TimedTransport::new(MemTransport::new());
            let s = lams_dlc_io::run_transfer(&cfg, &clock, &mut link)?;
            (s, link.ns + clock.ns.get())
        }
        (true, true) => {
            // Socket set-up is part of the medium, as in `run_loopback`.
            let clock = TimedClock::new(WallClock::new());
            let mut link = TimedTransport::new(UdpTransport::new()?);
            link.ns = t0.elapsed().as_nanos() as u64;
            let s = lams_dlc_io::run_transfer(&cfg, &clock, &mut link)?;
            (s, link.ns + clock.ns.get())
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    check_host(&cfg, &s, !udp)?;
    Ok(OpResult {
        sdus: s.delivered,
        wall_ns,
        proto_ns: if traced {
            wall_ns.saturating_sub(medium_ns)
        } else {
            0
        },
        medium_ns,
        frames: s.datagrams_sent,
        retx: s.retransmissions,
        records: s.audit_records,
        events: 0,
    })
}

/// `run_transfer` itself fails a transfer that delivers out of order.
/// On the wall clock the live audit also holds NAK resolution to the
/// analytic resolving period, which scheduling delays on a busy host
/// can overrun with every SDU still delivered; only the manual-clock
/// host is held to a clean audit.
fn check_host(cfg: &IoConfig, s: &IoSummary, clean_audit: bool) -> Result<(), String> {
    if s.delivered != cfg.sdus {
        return Err(format!("delivered {} of {} SDUs", s.delivered, cfg.sdus));
    }
    if s.retransmissions < s.drops_injected || (cfg.drop_every != 0 && s.drops_injected == 0) {
        return Err(format!(
            "{} retransmissions for {} injected drops",
            s.retransmissions, s.drops_injected
        ));
    }
    if (clean_audit && s.audit_findings != 0) || s.audit_records == 0 {
        return Err(format!(
            "live audit: {} findings over {} records",
            s.audit_findings, s.audit_records
        ));
    }
    Ok(())
}
