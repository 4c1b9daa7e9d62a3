#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # model-check
//!
//! Deterministic adversarial model checking for the sans-IO LAMS-DLC
//! machines. The explorer depends on `proto-core` and `lams-dlc` only —
//! no simulator — so the machines are explored as pure functions of
//! `(time, frame)` inputs (`telemetry` only writes coverage documents
//! and failure artifacts at the edges).
//!
//! Each [`Schedule`] derives, from a single index, a seeded channel
//! adversary that may **drop**, **duplicate**, **reorder** (extra
//! delay), or **corrupt** frames in either direction, and may bound the
//! channel's in-flight **capacity** (overflow behaves as loss). The
//! explorer is the host pump ([`lams_dlc::pump`]) on a
//! [`proto_core::ManualClock`], over a link that plays the adversary,
//! and checks on every step:
//!
//! * **exactly-once, in-order delivery** — the resequenced application
//!   stream is `0, 1, 2, …` with no duplicate and no gap (the pump);
//! * **monotone wire numbering** — every information frame the sender
//!   emits carries a strictly larger logical sequence number than the
//!   previous one (renumbering never reuses);
//! * **bounded numbering** — every frame survives a wire round-trip
//!   (`wire::encode` → `wire::decode` against the peer's current
//!   reference); if the compressed sequence window were ever outrun,
//!   the decode would disagree with the original frame;
//! * **progress** — with SDUs undelivered there is always a pending
//!   arrival or an armed timer (the pump's deadlock rule), and the
//!   whole run finishes within a generous step budget.
//!
//! A run ends in [`Outcome::Complete`] when every SDU has been
//! delivered and the sender has released every buffer, or in
//! [`Outcome::LinkFailed`] when the sender's failure timer fired — the
//! protocol's *declared* terminal state, acceptable only because the
//! adversary really was severing the link ([`Schedule::drop_pct`] or
//! [`Schedule::corrupt_pct`] non-zero).

use lams_dlc::pump::{Arrival, Link, Pump, Verdict};
use lams_dlc::{wire, Frame, LamsConfig, Receiver, RxStatus, Sender, SenderState};
use proto_core::{Duration, Instant, ManualClock, Trace};
use std::collections::BTreeMap;
use telemetry::Json;

mod rng;
pub use rng::Rng;

/// One adversarial channel schedule, fully determined by its fields.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// RNG seed for every per-frame adversary decision.
    pub seed: u64,
    /// SDUs to transfer.
    pub sdus: u64,
    /// Percent of frames dropped outright.
    pub drop_pct: u8,
    /// Percent of frames duplicated (the copy takes a longer path).
    pub dup_pct: u8,
    /// Percent of frames given extra delay (causes reordering).
    pub reorder_pct: u8,
    /// Percent of frames delivered payload-corrupted: information
    /// frames take the receiver's NAK path, control frames are dropped
    /// by the sender's FEC check — the paper's corrupt-feedback case.
    pub corrupt_pct: u8,
    /// Channel capacity: frames in flight beyond this are lost
    /// (`usize::MAX` = unbounded).
    pub capacity: usize,
    /// Known-bad-machine fault: after the sender's `n`-th information
    /// frame emission, the harness replays the *first* emitted
    /// information frame as if a buggy sender re-emitted it without
    /// renumbering — a guaranteed monotone-numbering violation (use
    /// `n ≥ 2`). `0` disables the fault; the standard sweep never sets
    /// it. This exists to prove the checker and its failure artifacts
    /// work end to end.
    pub replay_stale_after: u64,
}

impl Schedule {
    /// Derive the `index`-th schedule of the standard sweep: a
    /// deterministic spread over loss, duplication, reordering,
    /// corruption and capacity regimes (including the clean channel).
    pub fn derive(index: u64) -> Schedule {
        let mut r = Rng::new(0x9E37_79B9_7F4A_7C15 ^ (index.wrapping_mul(0xA24B_AED4_963E_E407)));
        let seed = r.next_u64();
        Schedule {
            seed,
            sdus: [20, 50, 100][(r.next_u64() % 3) as usize],
            drop_pct: [0, 5, 10, 20, 30][(r.next_u64() % 5) as usize],
            dup_pct: [0, 5, 15][(r.next_u64() % 3) as usize],
            reorder_pct: [0, 10, 25][(r.next_u64() % 3) as usize],
            corrupt_pct: [0, 5, 15][(r.next_u64() % 3) as usize],
            capacity: [8, 32, usize::MAX, usize::MAX][(r.next_u64() % 4) as usize],
            replay_stale_after: 0,
        }
    }

    fn is_adversarial(&self) -> bool {
        self.drop_pct > 0 || self.corrupt_pct > 0 || self.capacity != usize::MAX
    }

    /// The artifact-header JSON form: every field exactly (capacities
    /// past 2⁵³ round-trip via exact-integer JSON).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.into()),
            ("sdus", self.sdus.into()),
            ("drop_pct", u64::from(self.drop_pct).into()),
            ("dup_pct", u64::from(self.dup_pct).into()),
            ("reorder_pct", u64::from(self.reorder_pct).into()),
            ("corrupt_pct", u64::from(self.corrupt_pct).into()),
            ("capacity", (self.capacity as u64).into()),
            ("replay_stale_after", self.replay_stale_after.into()),
        ])
    }

    /// Parse the artifact-header form back.
    pub fn from_json(v: &Json) -> Result<Schedule, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("schedule field {name} missing or not an integer"))
        };
        let pct = |name: &str| -> Result<u8, String> {
            let n = field(name)?;
            u8::try_from(n)
                .ok()
                .filter(|&p| p <= 100)
                .ok_or_else(|| format!("schedule field {name} out of range 0..=100: {n}"))
        };
        Ok(Schedule {
            seed: field("seed")?,
            sdus: field("sdus")?,
            drop_pct: pct("drop_pct")?,
            dup_pct: pct("dup_pct")?,
            reorder_pct: pct("reorder_pct")?,
            corrupt_pct: pct("corrupt_pct")?,
            capacity: field("capacity")? as usize,
            replay_stale_after: field("replay_stale_after")?,
        })
    }
}

/// What one schedule (or a whole sweep) actually exercised: adversary
/// actions that fired, protocol recovery machinery that ran, and
/// sender state transitions observed. A sweep whose coverage shows a
/// zero for some knob proved nothing about that knob.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Coverage {
    /// Frames dropped by the random-loss knob.
    pub drops: u64,
    /// Frames duplicated.
    pub dups: u64,
    /// Frames delayed onto a reordering path.
    pub reorders: u64,
    /// Frames delivered payload-corrupted.
    pub corruptions: u64,
    /// Frames lost to the capacity bound.
    pub capacity_losses: u64,
    /// Checkpoints the receiver emitted.
    pub checkpoints: u64,
    /// Sender retransmissions.
    pub retransmissions: u64,
    /// Request-NAK probes (enforced recovery entries).
    pub request_naks: u64,
    /// Enforced-NAK answers from the receiver.
    pub enforced_naks: u64,
    /// Explorer steps taken.
    pub steps: u64,
    /// Sender state transitions observed, as `"from->to"` labels with
    /// counts, in first-seen order.
    pub transitions: Vec<(String, u64)>,
}

impl Coverage {
    fn transition(&mut self, from: SenderState, to: SenderState) {
        let label = format!("{from:?}->{to:?}").to_lowercase();
        match self.transitions.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => self.transitions.push((label, 1)),
        }
    }

    /// Fold another coverage record into this one.
    pub fn absorb(&mut self, other: &Coverage) {
        self.drops += other.drops;
        self.dups += other.dups;
        self.reorders += other.reorders;
        self.corruptions += other.corruptions;
        self.capacity_losses += other.capacity_losses;
        self.checkpoints += other.checkpoints;
        self.retransmissions += other.retransmissions;
        self.request_naks += other.request_naks;
        self.enforced_naks += other.enforced_naks;
        self.steps += other.steps;
        for (label, n) in &other.transitions {
            match self.transitions.iter_mut().find(|(l, _)| l == label) {
                Some((_, total)) => *total += n,
                None => self.transitions.push((label.clone(), *n)),
            }
        }
    }

    /// The `coverage` block of the `lams-dlc.mcheck/1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("drops", self.drops.into()),
            ("dups", self.dups.into()),
            ("reorders", self.reorders.into()),
            ("corruptions", self.corruptions.into()),
            ("capacity_losses", self.capacity_losses.into()),
            ("checkpoints", self.checkpoints.into()),
            ("retransmissions", self.retransmissions.into()),
            ("request_naks", self.request_naks.into()),
            ("enforced_naks", self.enforced_naks.into()),
            ("steps", self.steps.into()),
            (
                "transitions",
                Json::Obj(
                    self.transitions
                        .iter()
                        .map(|(l, n)| (l.clone(), (*n).into()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Terminal state of one schedule run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// All SDUs delivered exactly once in order; sender drained.
    Complete {
        /// Explorer steps taken.
        steps: u64,
        /// Virtual time consumed.
        elapsed: Duration,
        /// Sender retransmissions performed.
        retransmissions: u64,
    },
    /// The sender's failure timer fired and it declared the link dead —
    /// legitimate under a severing adversary, an invariant violation
    /// otherwise (reported as [`Violation`], not as this variant).
    LinkFailed {
        /// SDUs that made it through, in order, before the declaration.
        delivered: u64,
    },
}

/// A broken invariant, with enough context to replay the schedule.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The offending schedule (re-run it to reproduce).
    pub schedule: Schedule,
    /// What broke.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} under {:?}", self.what, self.schedule)
    }
}

/// `Ok` when `frame` survives `wire::encode` → `wire::decode` at `reference`.
fn survives_wire(frame: &Frame, reference: u64, modulus: u64) -> Result<(), String> {
    match wire::decode(&wire::encode(frame, modulus), reference, modulus) {
        Ok(decoded) if decoded == *frame => Ok(()),
        other => Err(format!(
            "does not survive the wire against reference {reference} (decode: {other:?})"
        )),
    }
}

/// One direction's frames in flight, keyed by (arrival, send order).
type Channel = BTreeMap<(Instant, u64), (Frame, RxStatus)>;

/// Channel directions: sender → receiver and receiver → sender.
const DATA: usize = 0;
const FEEDBACK: usize = 1;

/// Pop the earliest frame of `channel` due at or before `now`, if any.
fn pop_due(channel: &mut Channel, now: Instant) -> Option<(Frame, RxStatus)> {
    channel
        .first_key_value()
        .filter(|((at, _), _)| *at <= now)?;
    channel.pop_first().map(|(_, arrival)| arrival)
}

/// The seeded adversary of one [`Schedule`] in both directions, the
/// emission checks (monotone numbering, wire round trip), and the
/// known-bad machine of [`Schedule::replay_stale_after`].
struct AdversarialLink<'s> {
    sched: &'s Schedule,
    rng: Rng,
    cov: Coverage,
    modulus: u64,
    base_delay: Duration,
    channels: [Channel; 2], // [DATA, FEEDBACK]
    sent: u64,
    last_info_seq: Option<u64>,
    emitted_info: u64,
    first_info: Option<Frame>,
}

impl AdversarialLink<'_> {
    /// Apply the adversary's decisions to a frame sent at `now` and queue
    /// what survives, counting every decision that fired.
    fn carry(&mut self, now: Instant, frame: Frame, direction: usize) {
        let (sched, rng, cov) = (self.sched, &mut self.rng, &mut self.cov);
        let channel = &mut self.channels[direction];
        if channel.len() >= sched.capacity {
            cov.capacity_losses += 1;
            return; // overflow looks like silence on the wire
        }
        if rng.chance(sched.drop_pct) {
            cov.drops += 1;
            return;
        }
        let status = if rng.chance(sched.corrupt_pct) {
            cov.corruptions += 1;
            RxStatus::PayloadCorrupted
        } else {
            RxStatus::Ok
        };
        let jitter = if rng.chance(sched.reorder_pct) {
            cov.reorders += 1;
            Duration::from_micros(rng.below(5_000))
        } else {
            Duration::ZERO
        };
        let duplicate = rng.chance(sched.dup_pct);
        let arrival = now + self.base_delay + jitter;
        channel.insert((arrival, self.sent), (frame.clone(), status));
        self.sent += 1;
        if duplicate && channel.len() < sched.capacity {
            cov.dups += 1;
            let late = arrival + Duration::from_micros(1_000 + rng.below(10_000));
            channel.insert((late, self.sent), (frame, status));
            self.sent += 1;
        }
    }

    /// Check a sender emission against the receiver's reference, then carry it.
    fn emit(&mut self, t: Instant, frame: Frame, receiver_reference: u64) -> Result<(), String> {
        if let Frame::Info(ref info) = frame {
            if let Some(prev) = self.last_info_seq {
                if info.seq <= prev {
                    return Err(format!(
                        "wire numbering not monotone: {} after {prev}",
                        info.seq
                    ));
                }
            }
            self.last_info_seq = Some(info.seq);
            survives_wire(&frame, receiver_reference, self.modulus)
                .map_err(|e| format!("bounded numbering violated: seq {} {e}", info.seq))?;
        }
        self.carry(t, frame, DATA);
        Ok(())
    }
}

impl Link for AdversarialLink<'_> {
    fn send_data(&mut self, t: Instant, frame: Frame, peer_reference: u64) -> Result<(), String> {
        if matches!(frame, Frame::Info(_)) && self.sched.replay_stale_after != 0 {
            self.emitted_info += 1;
            let first = self.first_info.get_or_insert_with(|| frame.clone());
            if self.emitted_info == self.sched.replay_stale_after {
                // The known-bad machine re-emits its first information
                // frame without renumbering.
                let stale = first.clone();
                self.emit(t, stale, peer_reference)?;
            }
        }
        self.emit(t, frame, peer_reference)
    }

    fn recv_data(&mut self, t: Instant, _: u64) -> Arrival {
        Ok(pop_due(&mut self.channels[DATA], t))
    }

    fn send_feedback(&mut self, t: Instant, frame: Frame, reference: u64) -> Result<(), String> {
        survives_wire(&frame, reference, self.modulus)
            .map_err(|e| format!("feedback frame {e}"))?;
        self.carry(t, frame, FEEDBACK);
        Ok(())
    }

    fn recv_feedback(&mut self, t: Instant, _: u64) -> Arrival {
        Ok(pop_due(&mut self.channels[FEEDBACK], t))
    }

    fn next_arrival(&self) -> Option<Instant> {
        let firsts = self.channels.iter().filter_map(Channel::first_key_value);
        firsts.map(|((at, _), _)| *at).min()
    }
}

/// Step budget per schedule: far beyond any legitimate run (a clean
/// 100-SDU transfer takes a few thousand steps); hitting it is livelock.
const MAX_STEPS: u64 = 500_000;

/// Run one schedule to its terminal state, checking every invariant.
pub fn run_schedule(sched: &Schedule) -> Result<Outcome, Violation> {
    run_schedule_with(sched, None).0
}

/// [`run_schedule`] plus the per-schedule [`Coverage`] record — which
/// adversary knobs actually fired and which recovery machinery ran.
pub fn run_schedule_observed(sched: &Schedule) -> (Result<Outcome, Violation>, Coverage) {
    run_schedule_with(sched, None)
}

/// [`run_schedule_observed`] with the machines traced into `sink`
/// (`telemetry::TraceRecord` stream, node labels `tx`/`rx`/`host`,
/// sim clock domain). Deterministic: the same schedule produces a
/// byte-identical stream — the basis of replayable failure artifacts.
pub fn run_schedule_traced(
    sched: &Schedule,
    sink: telemetry::SharedSink,
) -> (Result<Outcome, Violation>, Coverage) {
    run_schedule_with(sched, Some(sink))
}

fn run_schedule_with(
    sched: &Schedule,
    trace: Option<telemetry::SharedSink>,
) -> (Result<Outcome, Violation>, Coverage) {
    let cfg = LamsConfig::paper_default();
    // Nominal one-way delay just under half the configured round trip,
    // so an unmolested frame meets the paper's deterministic-RTT
    // assumption while any adversary jitter lands it late.
    let base_delay = Duration::from_nanos(cfg.expected_rtt.as_nanos() / 2 - 100_000);
    let mut link = AdversarialLink {
        sched,
        rng: Rng::new(sched.seed),
        cov: Coverage::default(),
        modulus: cfg.seq_modulus(),
        base_delay,
        channels: Default::default(),
        sent: 0,
        last_info_seq: None,
        emitted_info: 0,
        first_info: None,
    };
    let mut sender = Sender::new(cfg.clone());
    let mut receiver = Receiver::new(cfg);
    let pump = Pump {
        sdus: sched.sdus,
        payload_len: 32,
        trace: trace.map_or_else(Trace::disabled, |sink| telemetry::sink_trace(sink, "host")),
    };
    let mut prev_state = sender.state();
    let mut steps = 0;
    let run = pump.run(
        &ManualClock::new(),
        &mut sender,
        &mut receiver,
        &mut link,
        |pass, link| {
            // Sender state transitions (coverage of the recovery machine).
            let state = pass.sender.state();
            if state != prev_state {
                link.cov.transition(prev_state, state);
                prev_state = state;
            }
            steps += 1;
            if steps >= MAX_STEPS {
                return Err(format!(
                    "no termination within {MAX_STEPS} steps (delivered {}/{})",
                    pass.delivered, sched.sdus
                ));
            }
            Ok(None)
        },
    );

    // Fold the recovery-machinery counters.
    let mut cov = link.cov;
    let s = sender.stats();
    let r = receiver.stats();
    cov.steps += steps;
    cov.checkpoints += r.checkpoints_sent;
    cov.retransmissions += s.retransmissions;
    cov.request_naks += s.request_naks;
    cov.enforced_naks += r.enforced_sent;
    let result = match run.outcome {
        Ok(Verdict::Complete) => Ok(Outcome::Complete {
            steps,
            elapsed: run.elapsed,
            retransmissions: s.retransmissions,
        }),
        Ok(Verdict::LinkFailed) if sched.is_adversarial() => Ok(Outcome::LinkFailed {
            delivered: run.delivered,
        }),
        Ok(Verdict::LinkFailed) => Err("sender declared link failure on a clean channel".into()),
        Err(what) => Err(what),
    };
    let schedule = sched.clone();
    (result.map_err(|what| Violation { schedule, what }), cov)
}

/// Aggregate result of a schedule sweep.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Schedules that delivered everything.
    pub complete: u64,
    /// Schedules ending in a (legitimately) declared link failure.
    pub link_failures: u64,
    /// Invariant violations found.
    pub violations: Vec<Violation>,
    /// Total retransmissions across completed schedules.
    pub retransmissions: u64,
    /// Aggregate coverage across every schedule in the sweep.
    pub coverage: Coverage,
}

impl Report {
    /// The machine-readable `lams-dlc.mcheck/1` sweep document.
    pub fn to_json(&self) -> Json {
        let schedules = self.complete + self.link_failures + self.violations.len() as u64;
        Json::obj([
            ("schema", MCHECK_SCHEMA.into()),
            ("schedules", schedules.into()),
            ("complete", self.complete.into()),
            ("link_failures", self.link_failures.into()),
            ("violations", (self.violations.len() as u64).into()),
            ("retransmissions", self.retransmissions.into()),
            ("coverage", self.coverage.to_json()),
        ])
    }
}

/// Run the standard sweep: schedules `0..count` via [`Schedule::derive`],
/// each with [`Schedule::replay_stale_after`] set to `replay_stale_after`
/// (`0` for the standard sweep).
pub fn run_sweep(count: u64, replay_stale_after: u64) -> Report {
    let mut report = Report::default();
    for index in 0..count {
        let sched = Schedule {
            replay_stale_after,
            ..Schedule::derive(index)
        };
        let (result, cov) = run_schedule_observed(&sched);
        report.coverage.absorb(&cov);
        match result {
            Ok(Outcome::Complete {
                retransmissions, ..
            }) => {
                report.complete += 1;
                report.retransmissions += retransmissions;
            }
            Ok(Outcome::LinkFailed { .. }) => report.link_failures += 1,
            Err(v) => report.violations.push(v),
        }
    }
    report
}

/// Schema tag of the sweep coverage document ([`Report::to_json`]).
pub const MCHECK_SCHEMA: &str = "lams-dlc.mcheck/1";

/// Schema tag of a replayable failure artifact
/// ([`write_artifact`] / [`read_artifact`]).
pub const ARTIFACT_SCHEMA: &str = "lams-dlc.mcheck-fail/1";

/// Write a replayable failure artifact: one header line carrying the
/// offending [`Schedule`] and the finding text, followed by the full
/// telemetry trace of a deterministic re-run of that schedule. The
/// trace body is a plain `TraceRecord` JSONL stream, so `trace-tools
/// summary`/`audit` can re-audit the artifact offline (the header is
/// skipped as a meta line), and [`read_artifact`] + a fresh run
/// reproduce the identical finding.
pub fn write_artifact(path: &std::path::Path, v: &Violation) -> Result<(), String> {
    use std::io::Write as _;
    let header = Json::obj([
        ("schema", ARTIFACT_SCHEMA.into()),
        ("schedule", v.schedule.to_json()),
        ("finding", v.what.as_str().into()),
    ]);
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    writeln!(file, "{}", header.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    let jsonl = std::rc::Rc::new(std::cell::RefCell::new(telemetry::JsonlSink::to_writer(
        file,
    )));
    let shared: telemetry::SharedSink = jsonl.clone();
    let (replayed, _cov) = run_schedule_traced(&v.schedule, shared);
    jsonl
        .borrow_mut()
        .try_flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // The re-run is deterministic; a diverging verdict means the
    // artifact would not reproduce the finding and must not be trusted.
    reproduces(&replayed, &v.what).map_err(|e| format!("artifact re-run diverged: {e}"))
}

/// `Ok` when a re-run's `result` is the finding `expected`, byte for
/// byte; otherwise what the re-run did instead.
pub fn reproduces(result: &Result<Outcome, Violation>, expected: &str) -> Result<(), String> {
    match result {
        Err(v) if v.what == expected => Ok(()),
        Err(v) => Err(format!("expected {expected:?}, got {:?}", v.what)),
        Ok(outcome) => Err(format!("expected {expected:?}, run ended {outcome:?}")),
    }
}

/// Read a failure artifact's header from `path`: the [`Schedule`] to
/// re-run and the finding string the re-run must reproduce
/// byte-identically.
pub fn read_artifact(path: &std::path::Path) -> Result<(Schedule, String), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_artifact(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse a failure artifact's header from its raw bytes (see
/// [`read_artifact`]). Any input — not UTF-8, truncated, mistyped or
/// out of range — is an `Err`, never a panic.
pub fn parse_artifact(bytes: &[u8]) -> Result<(Schedule, String), String> {
    let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
    let first = std::str::from_utf8(first).map_err(|e| format!("artifact header: {e}"))?;
    if first.trim().is_empty() {
        return Err("empty artifact".to_string());
    }
    let header = Json::parse(first).map_err(|e| format!("artifact header: {e}"))?;
    match header.get("schema").and_then(Json::as_str) {
        Some(s) if s == ARTIFACT_SCHEMA => {}
        other => {
            return Err(format!(
                "artifact schema mismatch: expected {ARTIFACT_SCHEMA:?}, found {other:?}"
            ))
        }
    }
    let sched = header
        .get("schedule")
        .ok_or_else(|| "artifact header has no schedule".to_string())
        .and_then(Schedule::from_json)?;
    let finding = header
        .get("finding")
        .and_then(Json::as_str)
        .ok_or_else(|| "artifact header has no finding".to_string())?
        .to_string();
    Ok((sched, finding))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_completes() {
        let sched = Schedule {
            seed: 7,
            sdus: 50,
            drop_pct: 0,
            dup_pct: 0,
            reorder_pct: 0,
            corrupt_pct: 0,
            capacity: usize::MAX,
            replay_stale_after: 0,
        };
        match run_schedule(&sched).expect("clean channel must hold invariants") {
            Outcome::Complete {
                retransmissions, ..
            } => assert_eq!(retransmissions, 0, "clean channel needs no retransmission"),
            other => panic!("clean channel did not complete: {other:?}"),
        }
    }

    #[test]
    fn lossy_channel_completes_with_retransmissions() {
        let sched = Schedule {
            seed: 42,
            sdus: 50,
            drop_pct: 20,
            dup_pct: 10,
            reorder_pct: 10,
            corrupt_pct: 10,
            capacity: usize::MAX,
            replay_stale_after: 0,
        };
        match run_schedule(&sched).expect("adversary must not break invariants") {
            Outcome::Complete {
                retransmissions, ..
            } => assert!(retransmissions > 0, "20% loss must force retransmission"),
            Outcome::LinkFailed { .. } => {} // legitimate under this adversary
        }
    }

    #[test]
    fn derived_schedules_are_deterministic() {
        let a = Schedule::derive(123);
        let b = Schedule::derive(123);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.sdus, b.sdus);
        assert_eq!(a.drop_pct, b.drop_pct);
        assert_eq!(a.capacity, b.capacity);
    }

    #[test]
    fn schedule_json_round_trips() {
        let mut sched = Schedule::derive(7);
        sched.replay_stale_after = 3;
        let back = Schedule::from_json(&sched.to_json()).expect("round trip");
        assert_eq!(format!("{sched:?}"), format!("{back:?}"));
    }

    #[test]
    fn lossy_schedule_reports_nonzero_coverage() {
        let sched = Schedule {
            seed: 42,
            sdus: 50,
            drop_pct: 20,
            dup_pct: 10,
            reorder_pct: 10,
            corrupt_pct: 10,
            capacity: usize::MAX,
            replay_stale_after: 0,
        };
        let (result, cov) = run_schedule_observed(&sched);
        result.expect("adversary must not break invariants");
        assert!(cov.drops > 0, "drop knob never fired");
        assert!(cov.dups > 0, "dup knob never fired");
        assert!(cov.reorders > 0, "reorder knob never fired");
        assert!(cov.corruptions > 0, "corrupt knob never fired");
        assert!(cov.checkpoints > 0, "no checkpoint observed");
        assert!(
            cov.retransmissions > 0,
            "20% loss must force retransmission"
        );
        assert!(cov.steps > 0);
    }

    #[test]
    fn stale_replay_fault_is_caught_as_monotone_violation() {
        let sched = Schedule {
            seed: 7,
            sdus: 20,
            drop_pct: 0,
            dup_pct: 0,
            reorder_pct: 0,
            corrupt_pct: 0,
            capacity: usize::MAX,
            replay_stale_after: 3,
        };
        let v = run_schedule(&sched).expect_err("known-bad machine must violate");
        assert!(
            v.what.contains("not monotone"),
            "expected a monotone-numbering finding, got: {}",
            v.what
        );
    }

    #[test]
    fn failure_artifact_round_trips_to_identical_finding() {
        let sched = Schedule {
            seed: 7,
            sdus: 20,
            drop_pct: 0,
            dup_pct: 0,
            reorder_pct: 0,
            corrupt_pct: 0,
            capacity: usize::MAX,
            replay_stale_after: 3,
        };
        let v = run_schedule(&sched).expect_err("known-bad machine must violate");
        let dir = std::env::temp_dir().join("lams-dlc-mcheck-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("artifact.jsonl");
        write_artifact(&path, &v).expect("artifact written and self-verified");

        let (sched_back, finding) = read_artifact(&path).expect("header parses");
        let replayed = run_schedule(&sched_back).expect_err("replay must violate");
        assert_eq!(
            replayed.what, finding,
            "replay verdict must be byte-identical"
        );

        // The trace body must be a valid TraceRecord stream that a
        // fresh traced run reproduces byte-for-byte.
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let body: Vec<&str> = text.lines().skip(1).collect();
        assert!(!body.is_empty(), "artifact must carry the trace");
        for line in &body {
            telemetry::parse_line(line).expect("artifact body is a TraceRecord stream");
        }
        let jsonl = std::rc::Rc::new(std::cell::RefCell::new(telemetry::JsonlSink::to_writer(
            Vec::new(),
        )));
        let shared: telemetry::SharedSink = jsonl.clone();
        let _ = run_schedule_traced(&sched_back, shared);
        let fresh = std::rc::Rc::try_unwrap(jsonl)
            .ok()
            .expect("sole owner")
            .into_inner()
            .into_inner();
        let fresh = String::from_utf8(fresh).expect("utf8");
        assert_eq!(
            body.join("\n"),
            fresh.trim_end(),
            "traced replay must be byte-identical"
        );
        std::fs::remove_file(&path).ok();
    }
}
