//! Per-link online invariant checking.
//!
//! One [`LinkAuditor`] mirrors the sender/receiver pair of one simulated
//! link, rebuilt from the trace alone. It keeps a chain per unresolved
//! user frame — `Renumbered` events move a chain from the old wire
//! sequence number to the fresh one — and checks the five LAMS-DLC
//! invariants (see [`crate::Invariant`]) as events arrive.
//!
//! Only links whose sender announced a [`telemetry::TraceEvent::SenderConfig`]
//! are audited: the HDLC baselines reuse sequence numbers by design and
//! satisfy none of the LAMS invariants.

use crate::finding::{AuditFinding, Findings, Invariant};
use crate::lifecycle::FrameLifecycle;
use crate::series::LinkSeries;
use proto_core::{SeqSet, SeqWindow};
use sim_core::{Duration, Instant};

/// Sender timing parameters announced at `start()`.
#[derive(Clone, Copy, Debug)]
pub struct LinkTiming {
    /// Checkpoint interval `W_cp`.
    pub w_cp: Duration,
    /// Sender checkpoint timeout (`C_depth·W_cp` + slack).
    pub cp_timeout: Duration,
    /// Expected round-trip time `R`.
    pub rtt: Duration,
    /// Resolving period (`R + W_cp/2 + C_depth·W_cp` + slack).
    pub resolving: Duration,
    /// Failure-timer duration.
    pub failure: Duration,
}

/// One unresolved frame chain, keyed by its current wire sequence
/// number in [`LinkAuditor::chains`].
#[derive(Clone, Debug)]
struct Chain {
    /// The copy under the current wire number arrived clean. Per
    /// number, not per chain: renumbering leaves it behind.
    arrived: bool,
    first_seq: u64,
    first_tx: Instant,
    /// Latest bound by which the frame must resolve (release or
    /// renumber); extended when enforced recovery restarts the clock.
    deadline: Instant,
    naks: u32,
    retx: u32,
    delivered_at: Option<Instant>,
    /// True once any copy was a retransmission (for the in-flight HWM).
    is_retx: bool,
    /// Renumbered but the fresh copy has not left the sender yet.
    renumber_pending: bool,
}

/// Per-run tallies folded into the experiment metrics at run end.
#[derive(Debug, Default)]
pub struct LinkTally {
    /// Completed lifecycles (frames released).
    pub frames: u64,
    /// Unique clean deliveries.
    pub delivered: u64,
    /// NAKs observed.
    pub naks: u64,
    /// Retransmissions observed.
    pub retransmissions: u64,
    /// Peak unresolved-frame count.
    pub max_outstanding: u64,
    /// Delivery latency samples (first send → first clean arrival), s.
    pub latencies: Vec<f64>,
}

/// Mirrors one link's protocol state from its event stream.
pub struct LinkAuditor {
    key: &'static str,
    experiment: &'static str,
    timing: Option<LinkTiming>,
    cfg_node: &'static str,
    cfg_at: Instant,
    last_wire_seq: Option<u64>,
    chains: SeqWindow<Chain>,
    /// Wire numbers that arrived clean and hold no chain (any more):
    /// released frames, renumbered-away copies, stray arrivals. A live
    /// chain's number keeps the bit in [`Chain::arrived`] instead.
    arrived: SeqSet,
    /// Sender side: last accepted checkpoint `(t, index, covered)`.
    last_cp_rx: Option<(Instant, u64, u64)>,
    /// Receiver side: last emitted checkpoint `(t, index)`.
    last_cp_emit: Option<(Instant, u64)>,
    enforced_since: Option<Instant>,
    last_enforced_span: Option<(Instant, Instant)>,
    failed: bool,
    retx_open: u64,
    /// Windowed series for this link over the current run.
    pub series: LinkSeries,
    /// Per-run tallies.
    pub tally: LinkTally,
    keep_lifecycles: bool,
    /// Completed lifecycles (only populated when requested).
    pub lifecycles: Vec<FrameLifecycle>,
}

impl LinkAuditor {
    /// A fresh auditor for link `key` inside `experiment`.
    pub fn new(
        key: &'static str,
        experiment: &'static str,
        window: Duration,
        keep_lifecycles: bool,
    ) -> Self {
        LinkAuditor {
            key,
            experiment,
            timing: None,
            cfg_node: "",
            cfg_at: Instant::ZERO,
            last_wire_seq: None,
            chains: SeqWindow::default(),
            arrived: SeqSet::default(),
            last_cp_rx: None,
            last_cp_emit: None,
            enforced_since: None,
            last_enforced_span: None,
            failed: false,
            retx_open: 0,
            series: LinkSeries::new(window),
            tally: LinkTally::default(),
            keep_lifecycles,
            lifecycles: Vec::new(),
        }
    }

    /// True once the link's sender announced its configuration (i.e.
    /// this is a LAMS-DLC link and the auditor is active).
    pub fn audited(&self) -> bool {
        self.timing.is_some()
    }

    /// Unresolved chains right now.
    pub fn open_chains(&self) -> usize {
        self.chains.len()
    }

    /// Sequence numbers the chain window's dense ring spans.
    #[cfg(test)]
    pub(crate) fn ring_span(&self) -> usize {
        self.chains.ring_span()
    }

    fn find(
        &self,
        t: Instant,
        node: &'static str,
        invariant: Invariant,
        window: (Instant, Instant),
        detail: String,
    ) -> AuditFinding {
        AuditFinding {
            t,
            node,
            experiment: self.experiment,
            invariant,
            window,
            detail,
        }
    }

    /// Was enforced recovery active at any point of `[from, to]`?
    fn enforced_overlaps(&self, from: Instant, to: Instant) -> bool {
        if let Some(s) = self.enforced_since {
            if s <= to {
                return true;
            }
        }
        if let Some((s, e)) = self.last_enforced_span {
            return s <= to && e >= from;
        }
        false
    }

    /// `SenderConfig`: arm the auditor for this link.
    pub fn on_sender_config(&mut self, t: Instant, node: &'static str, timing: LinkTiming) {
        self.timing = Some(timing);
        self.cfg_node = node;
        self.cfg_at = t;
    }

    /// `IFrameTx` at the sender.
    pub fn on_tx(
        &mut self,
        t: Instant,
        node: &'static str,
        seq: u64,
        retx: bool,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        // (b) Wire sequence numbers are strictly monotone: every
        // transmission, first or repeated, consumes a fresh number.
        if let Some(last) = self.last_wire_seq {
            if seq <= last {
                out.push(self.find(
                    t,
                    node,
                    Invariant::MonotoneSeq,
                    (t, t),
                    format!("wire seq {seq} not above previous {last}"),
                ));
            }
        }
        self.last_wire_seq = Some(self.last_wire_seq.map_or(seq, |l| l.max(seq)));

        if retx {
            self.tally.retransmissions += 1;
            match self.chains.get_mut(seq) {
                Some(chain) if chain.renumber_pending => {
                    chain.renumber_pending = false;
                    chain.retx += 1;
                    // The retransmitted copy restarts its own resolving
                    // period, like any outstanding frame.
                    chain.deadline = t + timing.resolving;
                    if !chain.is_retx {
                        chain.is_retx = true;
                        self.retx_open += 1;
                    }
                }
                _ => out.push(self.find(
                    t,
                    node,
                    Invariant::MonotoneSeq,
                    (t, t),
                    format!("retransmission of seq {seq} without a renumbering event"),
                )),
            }
        } else {
            let arrived = match self.chains.get(seq) {
                Some(live) => {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::MonotoneSeq,
                        (t, t),
                        format!("first transmission reuses live seq {seq}"),
                    ));
                    live.arrived
                }
                None => self.arrived.contains(seq),
            };
            self.chains.insert(
                seq,
                Chain {
                    arrived,
                    first_seq: seq,
                    first_tx: t,
                    deadline: t + timing.resolving,
                    naks: 0,
                    retx: 0,
                    delivered_at: None,
                    is_retx: false,
                    renumber_pending: false,
                },
            );
        }
        let outstanding = self.chains.len() as u64;
        self.tally.max_outstanding = self.tally.max_outstanding.max(outstanding);
        let retx_open = self.retx_open;
        let w = self.series.at(t);
        w.tx += 1;
        if retx {
            w.retx += 1;
        }
        w.outstanding_hwm = w.outstanding_hwm.max(outstanding);
        w.retx_in_flight_hwm = w.retx_in_flight_hwm.max(retx_open);
    }

    /// `IFrameRx` at the receiver.
    pub fn on_rx(&mut self, t: Instant, seq: u64, clean: bool) {
        if self.timing.is_none() {
            return;
        }
        if !clean {
            return;
        }
        let first = match self.chains.get_mut(seq) {
            Some(chain) => {
                if chain.delivered_at.is_none() {
                    chain.delivered_at = Some(t);
                }
                !std::mem::replace(&mut chain.arrived, true)
            }
            None => self.arrived.insert(seq),
        };
        if first {
            self.tally.delivered += 1;
            self.series.at(t).delivered += 1;
        }
    }

    /// `Nak` at the receiver.
    pub fn on_nak(&mut self, t: Instant, seq: u64) {
        if self.timing.is_none() {
            return;
        }
        self.tally.naks += 1;
        self.series.at(t).naks += 1;
        if let Some(chain) = self.chains.get_mut(seq) {
            chain.naks += 1;
        }
    }

    /// `CheckpointEmitted` at the receiver: cadence invariant (c),
    /// receiver side — consecutive emissions at most `W_cp` apart, with
    /// contiguous indices.
    pub fn on_cp_emit(&mut self, t: Instant, node: &'static str, index: u64, out: &mut Findings) {
        let Some(timing) = self.timing else { return };
        if let Some((prev_t, prev_idx)) = self.last_cp_emit {
            let gap = t.saturating_duration_since(prev_t);
            if gap > timing.w_cp {
                out.push(self.find(
                    t,
                    node,
                    Invariant::CheckpointCadence,
                    (prev_t, t),
                    format!(
                        "checkpoint emission gap {:.6}s exceeds W_cp {:.6}s",
                        gap.as_secs_f64(),
                        timing.w_cp.as_secs_f64()
                    ),
                ));
            }
            if prev_idx.checked_add(1) != Some(index) {
                out.push(self.find(
                    t,
                    node,
                    Invariant::StreamIntegrity,
                    (prev_t, t),
                    format!("checkpoint index {index} after {prev_idx} (must be contiguous)"),
                ));
            }
        }
        self.last_cp_emit = Some((t, index));
    }

    /// `CheckpointReceived` at the sender: cadence invariant (c), sender
    /// side — silence beyond the checkpoint timeout is only legal under
    /// enforced recovery.
    pub fn on_cp_rx(
        &mut self,
        t: Instant,
        node: &'static str,
        index: u64,
        covered: u64,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        let (since, bound) = match self.last_cp_rx {
            Some((prev_t, _, _)) => (prev_t, timing.cp_timeout),
            // First checkpoint: the sender grants one RTT of grace on
            // top of the timeout (mirrors Sender::start()).
            None => (self.cfg_at, timing.rtt + timing.cp_timeout),
        };
        let gap = t.saturating_duration_since(since);
        if gap > bound && !self.enforced_overlaps(since, t) {
            out.push(self.find(
                t,
                node,
                Invariant::CheckpointCadence,
                (since, t),
                format!(
                    "checkpoint silence {:.6}s exceeds {:.6}s without enforced recovery",
                    gap.as_secs_f64(),
                    bound.as_secs_f64()
                ),
            ));
        }
        if let Some((prev_t, prev_idx, _)) = self.last_cp_rx {
            if index <= prev_idx {
                out.push(self.find(
                    t,
                    node,
                    Invariant::StreamIntegrity,
                    (prev_t, t),
                    format!("accepted checkpoint index {index} not above {prev_idx}"),
                ));
            }
        }
        self.last_cp_rx = Some((t, index, covered));
    }

    /// `Renumbered` at the sender: the chain moves to its fresh number.
    /// Invariant (e): the old copy's fate was decided within its
    /// resolving period (one extra period of drain allowance covers the
    /// retransmit-queue wait between requeue and renumbering).
    pub fn on_renumbered(
        &mut self,
        t: Instant,
        node: &'static str,
        old_seq: u64,
        new_seq: u64,
        out: &mut Findings,
    ) {
        let Some(timing) = self.timing else { return };
        match self.chains.remove(old_seq) {
            Some(mut chain) => {
                if chain.arrived {
                    self.arrived.insert(old_seq);
                }
                let bound = chain.deadline + timing.resolving;
                if t > bound {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::NumberingBound,
                        (chain.first_tx, t),
                        format!(
                            "seq {old_seq} renumbered at {:.6}s, past its resolving bound {:.6}s",
                            t.as_secs_f64(),
                            bound.as_secs_f64()
                        ),
                    ));
                }
                chain.renumber_pending = true;
                chain.arrived = match self.chains.get(new_seq) {
                    Some(live) => live.arrived,
                    None => self.arrived.contains(new_seq),
                };
                self.chains.insert(new_seq, chain);
            }
            None => out.push(self.find(
                t,
                node,
                Invariant::StreamIntegrity,
                (t, t),
                format!("renumbering of unknown seq {old_seq} -> {new_seq}"),
            )),
        }
    }

    /// `EnforcedRecoveryStarted`: every outstanding frame's resolution
    /// clock restarts (mirrors the sender's deadline extension).
    pub fn on_enforced_start(&mut self, t: Instant) {
        let Some(timing) = self.timing else { return };
        if self.enforced_since.is_none() {
            self.enforced_since = Some(t);
        }
        let extended = t + timing.failure + timing.resolving;
        for chain in self.chains.values_mut() {
            if chain.deadline < extended {
                chain.deadline = extended;
            }
        }
    }

    /// `StopGo` with the stop bit set: flow control throttles the
    /// sender's drain rate, so renumbered copies wait longer in the
    /// retransmit queue than the full-line-rate numbering bound allows
    /// (§3.4). Restart every open chain's resolution clock, mirroring
    /// the slower drain.
    pub fn on_stop(&mut self, t: Instant) {
        let Some(timing) = self.timing else { return };
        let extended = t + timing.resolving;
        for chain in self.chains.values_mut() {
            if chain.deadline < extended {
                chain.deadline = extended;
            }
        }
    }

    /// `EnforcedRecoveryResolved`: close the enforced span.
    pub fn on_enforced_end(&mut self, t: Instant) {
        if let Some(s) = self.enforced_since.take() {
            self.last_enforced_span = Some((s, t));
        }
    }

    /// `LinkFailed`: suppress end-of-run unresolved-frame findings.
    pub fn on_link_failed(&mut self) {
        self.failed = true;
    }

    /// `BufferRelease` at the sender: invariants (a), (d) and (e).
    pub fn on_release(&mut self, t: Instant, node: &'static str, seq: u64, out: &mut Findings) {
        if self.timing.is_none() {
            return;
        }
        // (d) Release happens inside checkpoint processing, at the
        // checkpoint instant, and only up to the covered horizon.
        match self.last_cp_rx {
            None => out.push(self.find(
                t,
                node,
                Invariant::ReleaseOnAck,
                (t, t),
                format!("seq {seq} released before any checkpoint arrived"),
            )),
            Some((cp_t, _, covered)) => {
                if cp_t != t {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::ReleaseOnAck,
                        (cp_t, t),
                        format!(
                            "seq {seq} released at {:.6}s, not at the covering checkpoint ({:.6}s)",
                            t.as_secs_f64(),
                            cp_t.as_secs_f64()
                        ),
                    ));
                }
                if seq > covered {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::ReleaseOnAck,
                        (cp_t, t),
                        format!("seq {seq} released beyond the covered horizon {covered}"),
                    ));
                }
            }
        }
        // (a) The released copy must have arrived clean at the receiver.
        let chain = self.chains.remove(seq);
        let arrived = match &chain {
            Some(c) => c.arrived,
            None => self.arrived.contains(seq),
        };
        if !arrived {
            out.push(self.find(
                t,
                node,
                Invariant::NoLoss,
                (t, t),
                format!("seq {seq} released without a clean arrival at the receiver"),
            ));
        }
        match chain {
            Some(chain) => {
                if chain.arrived {
                    self.arrived.insert(seq);
                }
                // (e) Release within the (possibly extended) resolving
                // bound of the released copy.
                if t > chain.deadline {
                    out.push(self.find(
                        t,
                        node,
                        Invariant::NumberingBound,
                        (chain.first_tx, t),
                        format!(
                            "seq {seq} released at {:.6}s, past its resolving bound {:.6}s",
                            t.as_secs_f64(),
                            chain.deadline.as_secs_f64()
                        ),
                    ));
                }
                self.tally.frames += 1;
                if let Some(d) = chain.delivered_at {
                    self.tally
                        .latencies
                        .push(d.saturating_duration_since(chain.first_tx).as_secs_f64());
                }
                if chain.is_retx {
                    self.retx_open = self.retx_open.saturating_sub(1);
                }
                self.series.at(t).releases += 1;
                if self.keep_lifecycles {
                    self.lifecycles.push(FrameLifecycle {
                        link: self.key,
                        first_seq: chain.first_seq,
                        final_seq: seq,
                        first_tx: chain.first_tx,
                        naks: chain.naks,
                        retransmits: chain.retx,
                        delivered_at: chain.delivered_at,
                        released_at: Some(t),
                    });
                }
            }
            None => out.push(self.find(
                t,
                node,
                Invariant::StreamIntegrity,
                (t, t),
                format!("release of unknown seq {seq}"),
            )),
        }
    }

    /// End of run: with a clean finish (no deadline, no link failure)
    /// every chain must have resolved — invariant (a).
    pub fn on_run_finished(&mut self, t: Instant, deadline_hit: bool, out: &mut Findings) {
        if self.timing.is_none() {
            return;
        }
        if deadline_hit || self.failed {
            return;
        }
        for (seq, chain) in self.chains.iter() {
            out.push(self.find(
                t,
                self.cfg_node,
                Invariant::NoLoss,
                (chain.first_tx, t),
                format!(
                    "seq {seq} (first sent {:.6}s) never resolved by run end",
                    chain.first_tx.as_secs_f64()
                ),
            ));
        }
    }
}
