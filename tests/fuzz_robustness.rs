//! Robustness fuzzing: decoders must reject, never panic, on arbitrary
//! or corrupted input (wire datagrams and trace lines); core data
//! structures keep their invariants under random operation sequences.

use fec::{BitBuf, LinkCodec, Viterbi, CCSDS_K7};
use proptest::prelude::*;

proptest! {
    // -------------------------------------------------------- wire decode

    #[test]
    fn lams_wire_decode_never_panics(
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        reference in proptest::num::u64::ANY,
    ) {
        // Any byte soup: Ok or Err, never panic.
        let _ = lams_dlc::wire::decode(&bytes, reference % (1 << 40), 1 << 16);
    }

    #[test]
    fn hdlc_wire_decode_never_panics(
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        reference in proptest::num::u64::ANY,
    ) {
        let _ = hdlc::wire::decode(&bytes, reference % (1 << 40), 2048);
    }

    #[test]
    fn lams_wire_truncation_never_accepts(
        payload in proptest::collection::vec(proptest::num::u8::ANY, 1..200),
        cut_fraction in 0.05f64..0.95,
    ) {
        let f = lams_dlc::Frame::Info(lams_dlc::InfoFrame {
            seq: 77,
            packet_id: lams_dlc::PacketId(3),
            payload: bytes::Bytes::from(payload),
        });
        let enc = lams_dlc::wire::encode(&f, 1 << 16);
        let cut = ((enc.len() as f64 * cut_fraction) as usize).max(1).min(enc.len() - 1);
        prop_assert!(lams_dlc::wire::decode(&enc[..cut], 77, 1 << 16).is_err());
    }

    // -------------------------------------------------------- FEC pipeline

    #[test]
    fn viterbi_corrects_any_two_flips(
        data in proptest::collection::vec(proptest::num::u8::ANY, 1..24),
        i in proptest::num::usize::ANY,
        j in proptest::num::usize::ANY,
    ) {
        let input = BitBuf::from_bytes(&data);
        let enc = CCSDS_K7.encode(&input);
        let mut corrupted = enc.clone();
        let a = i % corrupted.len();
        let b = j % corrupted.len();
        corrupted.toggle(a);
        if b != a {
            corrupted.toggle(b);
        }
        let v = Viterbi::new(CCSDS_K7);
        let dec = v.decode(&corrupted).expect("decodable");
        prop_assert_eq!(dec, input, "flips at ({}, {})", a, b);
    }

    #[test]
    fn codec_roundtrip_any_length(
        data in proptest::collection::vec(proptest::num::u8::ANY, 1..128),
    ) {
        let codec = LinkCodec::iframe_default();
        let input = BitBuf::from_bytes(&data);
        let coded = codec.encode(&input);
        match codec.decode(&coded, input.len()) {
            fec::DecodeOutcome::Bits(b) => prop_assert_eq!(b, input),
            other => prop_assert!(false, "clean decode failed: {:?}", other),
        }
    }

    #[test]
    fn codec_never_panics_on_garbage(
        bits in proptest::collection::vec(proptest::bool::ANY, 0..2048),
        claimed_len in 0usize..512,
    ) {
        let codec = LinkCodec::iframe_default();
        let garbage = BitBuf::from_bits(&bits);
        let _ = codec.decode(&garbage, claimed_len);
    }

    #[test]
    fn dedup_window_never_double_accepts(
        offers in proptest::collection::vec((0u64..50, 0u64..1000), 1..300),
    ) {
        // Offers of (id, time-in-ms, sorted) — an id accepted twice within
        // the horizon would be a duplication bug.
        let horizon = sim_core::Duration::from_millis(100);
        let mut w = lams_dlc::DedupWindow::new(horizon);
        let mut sorted = offers.clone();
        sorted.sort_by_key(|&(_, t)| t);
        let mut accepted: Vec<(u64, u64)> = Vec::new();
        for (id, t_ms) in sorted {
            let now = sim_core::Instant::from_millis(t_ms);
            if w.accept(now, lams_dlc::PacketId(id)) {
                // No prior accept of the same id within the horizon.
                let dup = accepted.iter().any(|&(aid, at)| {
                    aid == id && t_ms.saturating_sub(at) <= 100
                });
                prop_assert!(!dup, "id {} double-accepted at {}ms", id, t_ms);
                accepted.push((id, t_ms));
            }
        }
    }

    // ------------------------------------------------------------- netsim

    #[test]
    fn event_queue_total_order(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        // Arrivals spread over four links of the lane calendar, each
        // clamped FIFO as the channel does: every one comes out once,
        // time never runs backwards, and each link's arrivals keep
        // their order.
        use netsim::event_queue::{Calendar, Event};
        use sim_core::Instant;
        let mut cal = Calendar::new(0, 4);
        let mut tails = [Instant::ZERO; 4];
        for (i, &t) in times.iter().enumerate() {
            let l = i % 4;
            tails[l] = tails[l].max(Instant::from_nanos(t));
            cal.arrive(l, tails[l], i as u64, true);
        }
        let mut last_t = Instant::ZERO;
        let mut last_frame: [Option<u64>; 4] = [None; 4];
        let mut popped = 0;
        let mut round = Vec::new();
        while let Some(t) = cal.next_instant() {
            prop_assert!(t >= last_t, "time went backwards");
            round.clear();
            cal.pop_round(t, &mut round);
            for ev in &round {
                let Event::Arrive { link, frame, .. } = *ev else {
                    panic!("only arrivals were scheduled");
                };
                prop_assert!(
                    last_frame[link].is_none_or(|p| p < frame),
                    "FIFO violated on link {}", link
                );
                last_frame[link] = Some(frame);
                popped += 1;
            }
            last_t = t;
        }
        prop_assert_eq!(popped, times.len());
    }
}

#[test]
fn wire_bitflip_storm_rejected_or_exact() {
    // Deterministic sweep: every single-bit flip of an encoded frame is
    // either rejected (CRC) or — impossible for CRC-protected frames —
    // decoded to something different. Assert rejection.
    let f = lams_dlc::Frame::Info(lams_dlc::InfoFrame {
        seq: 1234,
        packet_id: lams_dlc::PacketId(5),
        payload: bytes::Bytes::from_static(b"bitflip storm target payload"),
    });
    let enc = lams_dlc::wire::encode(&f, 1 << 16);
    for bit in 0..enc.len() * 8 {
        let mut bad = enc.clone();
        bad[bit / 8] ^= 0x80 >> (bit % 8);
        assert!(
            lams_dlc::wire::decode(&bad, 1234, 1 << 16).is_err(),
            "flip {bit} accepted"
        );
    }
}

// ------------------------------------------------------ trace reader

/// One valid JSONL trace line per record shape the offline tools read,
/// including a record past 2^53 ns that carries `t_ns`.
fn trace_lines() -> Vec<String> {
    use telemetry::{TraceEvent, TraceRecord};
    let records = [
        (0, "host", TraceEvent::RunStarted),
        (
            1_500,
            "tx",
            TraceEvent::IFrameTx {
                seq: 7,
                retx: false,
                len: 64,
            },
        ),
        (
            2_750,
            "rx",
            TraceEvent::Nak {
                seq: 7,
                cp_index: 3,
            },
        ),
        (
            5_000_000,
            "rx",
            TraceEvent::CheckpointEmitted {
                index: 1,
                covered: 9,
                naks: 1,
                enforced: false,
                stop: true,
            },
        ),
        (
            (1 << 53) + 1,
            "tx",
            TraceEvent::RetxCause {
                seq: u64::MAX,
                cause: "nak",
                cp_index: 2,
            },
        ),
        (
            9_000,
            "host",
            TraceEvent::RunFinished {
                deadline_hit: false,
            },
        ),
    ];
    records
        .into_iter()
        .map(|(ns, node, event)| {
            let mut line = String::new();
            TraceRecord {
                t: sim_core::Instant::from_nanos(ns),
                node,
                event,
            }
            .render_into(&mut line);
            line
        })
        .collect()
}

/// Bytes that steer a parser into every branch: structure, literals,
/// numbers, strings and escapes.
const JSON_ALPHABET: &[u8] = b"{}[]:,\"\\/ 0123456789.eE+-ntrufalsbu\x01\xc3\xa9";

proptest! {
    #[test]
    fn trace_parse_line_survives_arbitrary_strings(
        raw in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..200),
    ) {
        // Ok or Err, never a panic: trace files come from outside.
        let _ = telemetry::parse_line(&String::from_utf8_lossy(&raw));
        let steered: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        let _ = telemetry::parse_line(&String::from_utf8_lossy(&steered));
    }

    #[test]
    fn trace_parse_line_survives_any_nesting_depth(
        depth in 1usize..100_001,
        object in proptest::bool::ANY,
    ) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let deep = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        let line = format!("{{\"t\":0,\"node\":\"rx\",\"event\":\"nak\",\"seq\":{deep},\"cp_index\":0}}");
        // Nested values are never a number, so nothing here is a record.
        prop_assert!(telemetry::parse_line(&deep).is_err());
        prop_assert!(telemetry::parse_line(&line).is_err());
        prop_assert!(telemetry::parse_line(&"[".repeat(depth)).is_err());
    }
}

#[test]
fn trace_lines_truncated_at_every_byte_are_rejected() {
    for line in trace_lines() {
        assert!(telemetry::parse_line(&line).is_ok(), "{line}");
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            assert!(
                telemetry::parse_line(&line[..cut]).is_err(),
                "{}",
                &line[..cut]
            );
        }
    }
}

#[test]
fn trace_numbers_out_of_range_are_values_or_errors() {
    // (numeral, whether it is JSON, a usable `t`, a usable `seq`).
    // `t_ns` is optional and falls back to `t`, so any JSON number
    // leaves the record valid there.
    let cases = [
        ("-1", true, false, false),
        ("-0", true, true, true),
        ("0.5", true, true, false),
        ("1e308", true, true, false),
        ("1e999", true, false, false),
        ("-1e999", true, false, false),
        ("1e-400", true, true, true),
        ("9007199254740993", true, true, true),
        ("18446744073709551615", true, true, true),
        ("18446744073709551616", true, true, false),
        ("1e19", true, true, true),
        ("1e20", true, true, false),
        ("340282366920938463463374607431768211456", true, true, false),
        ("-9223372036854775809", true, false, false),
        ("NaN", false, false, false),
        ("-NaN", false, false, false),
        ("Infinity", false, false, false),
        ("-", false, false, false),
        ("1e", false, false, false),
        ("0x10", false, false, false),
    ];
    let base = &trace_lines()[2];
    for (field, column) in [("t_ns", 0), ("t", 1), ("seq", 2)] {
        for (n, json, t_ok, seq_ok) in cases {
            let line = if field == "t_ns" {
                base.replacen(",\"node\"", &format!(",\"t_ns\":{n},\"node\""), 1)
            } else {
                let (head, rest) = base.split_once(&format!("\"{field}\":")).expect("field");
                let end = rest.find([',', '}']).expect("value ends");
                format!("{head}\"{field}\":{n}{}", &rest[end..])
            };
            let expect_ok = [json, t_ok, seq_ok][column];
            let parsed = telemetry::parse_line(&line);
            assert_eq!(parsed.is_ok(), expect_ok, "{line} parsed as {parsed:?}");
        }
    }
}

// ------------------------------ duplicated records through the reader

/// The JSONL lines of one small lossy LAMS-DLC transfer (300 SDUs at a
/// residual BER of 1e-5, so NAKs, retransmissions and releases all
/// occur), as `repro --trace` writes them.
fn lossy_transfer_lines() -> &'static [String] {
    static LINES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    LINES.get_or_init(|| {
        use std::{cell::RefCell, rc::Rc};
        let mut cfg = harness::ScenarioConfig::paper_default();
        cfg.seed = 3;
        cfg.n_packets = 300;
        cfg.data_residual_ber = 1e-5;
        cfg.ctrl_residual_ber = 1e-6;
        cfg.deadline = sim_core::Duration::from_secs(60);
        let buf = Rc::new(RefCell::new(telemetry::BufferSink::new()));
        telemetry::install_global(buf.clone());
        let r = harness::scenario::run_lams(&cfg);
        telemetry::uninstall_global();
        assert!(r.delivered_unique == r.offered && r.retransmissions > 0);
        let records = buf.borrow_mut().take();
        records
            .iter()
            .map(|rec| {
                let mut line = String::new();
                rec.render_into(&mut line);
                line
            })
            .collect()
    })
}

/// What the reader made of one trace: records parsed and observed,
/// lines rejected as unreadable, link records the monitor counted as
/// running backwards in time, and the monitor's verdict.
struct Replay {
    observed: u64,
    rejected: u64,
    rewound: u64,
    findings: u64,
}

/// Read `lines` the way `trace-tools` does: parse each line, count the
/// unreadable ones, and feed every record to a live monitor.
fn replay_lines(lines: &[String]) -> Replay {
    let mut m = monitor::Monitor::new(monitor::MonitorConfig::default());
    let (mut observed, mut rejected) = (0, 0);
    for line in lines {
        match telemetry::parse_line(line) {
            Ok(rec) => {
                m.observe(&rec);
                observed += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    let report = m.take_report();
    assert!(report.total_findings >= report.findings.len() as u64);
    assert_eq!(report.records, observed);
    let rewound = report.counters.get(monitor::RECORDS_REWOUND).unwrap_or(0.0);
    Replay {
        observed,
        rejected,
        rewound: rewound as u64,
        findings: report.total_findings,
    }
}

/// `line` re-rendered with its `t` lowered by `back_ns` (clamped at
/// zero) and every other field unchanged.
fn rewind(line: &str, back_ns: u64) -> String {
    let rec = telemetry::parse_line(line).expect("own line parses");
    let earlier = rec.t.as_nanos().saturating_sub(back_ns);
    let mut out = String::new();
    telemetry::TraceRecord {
        t: sim_core::Instant::from_nanos(earlier),
        ..rec
    }
    .render_into(&mut out);
    out
}

#[test]
fn clean_transfer_replays_clean() {
    let lines = lossy_transfer_lines();
    let r = replay_lines(lines);
    assert_eq!(
        (r.observed, r.rejected, r.rewound, r.findings),
        (lines.len() as u64, 0, 0, 0)
    );
}

#[test]
fn rewound_records_are_counted() {
    // Copies of link records restamped to t = 0, each placed right after
    // its original once the run's clock has moved on: the audit takes
    // every copy as stamped, without panicking, and counts each one.
    let clean = lossy_transfer_lines();
    let mut lines = Vec::new();
    let mut copies = 0;
    for (i, line) in clean.iter().enumerate() {
        lines.push(line.clone());
        let link = line.contains("\"node\":\"tx\"") || line.contains("\"node\":\"rx\"");
        if i % 50 == 0 && link && !line.starts_with("{\"t\":0,") {
            lines.push(rewind(line, u64::MAX));
            copies += 1;
        }
    }
    assert!(copies > 10, "{copies}");
    let r = replay_lines(&lines);
    assert_eq!(
        (r.observed, r.rejected, r.rewound),
        (lines.len() as u64, 0, copies)
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn trace_reader_survives_duplicated_and_rewound_records(
        edits in proptest::collection::vec(
            (0u8..4, proptest::num::usize::ANY, proptest::num::usize::ANY, 0u64..50_000_000),
            1..24,
        ),
    ) {
        // Each edit picks a record kind and copies one such record to
        // another place in the stream: a repeated run_started or
        // run_finished marker, a duplicated I-frame or release record,
        // or a record whose `t` runs backwards. The reader returns a
        // verdict (findings, possibly none) for every stream and never
        // panics; unreadable lines and rewound records are counted.
        let clean = lossy_transfer_lines();
        let kinds: [&[&str]; 4] = [
            &["\"run_started\"", "\"run_finished\""],
            &["\"iframe_tx\"", "\"iframe_rx\""],
            &["\"buffer_release\""],
            &[""],
        ];
        let mut lines = clean.to_vec();
        let mut truncated = 0u64;
        for (kind, pick, place, back_ns) in edits {
            let matching: Vec<&String> = clean
                .iter()
                .filter(|line| kinds[kind as usize].iter().any(|k| line.contains(k)))
                .collect();
            prop_assert!(!matching.is_empty(), "the transfer has every kind");
            let src = matching[pick % matching.len()];
            let copy = if kind == 3 {
                rewind(src, back_ns)
            } else {
                src.clone()
            };
            let at = place % (lines.len() + 1);
            // Every fourth edit also cuts the copy short, so rejected
            // lines ride along with the semantic damage.
            let copy = if back_ns % 4 == 0 {
                truncated += 1;
                copy[..copy.len() / 2].to_string()
            } else {
                copy
            };
            lines.insert(at, copy);
        }
        let r = replay_lines(&lines);
        prop_assert_eq!(r.rejected, truncated);
        prop_assert_eq!(r.observed + r.rejected, lines.len() as u64);
        prop_assert!(r.rewound <= r.observed);
    }
}

// ------------------------------------ hostile datagrams through WireLink

/// What [`Hostile`] slipped into one transfer.
#[derive(Debug, Default)]
struct Injected {
    replays: u64,
    stale_naks: u64,
    ahead_naks: u64,
    far_ids: u64,
    /// Datagrams with a valid CRC but a sequence field outside the
    /// numbering modulus: each must be rejected as malformed.
    out_of_range: u64,
}

/// A lossless in-memory transport with a hostile peer on it. Every
/// `replay_every`-th I-frame is followed by a replay of one of the last
/// 32; every `nak_every`-th checkpoint also NAKs numbers the sender has
/// already released and numbers beyond any it has sent; every
/// `far_every`-th I-frame is preceded by a forgery under the same
/// sequence number whose packet id is 2^16 or more ahead. With
/// `out_of_range`, each of those injections also sends a copy whose
/// wire sequence field lies outside the modulus.
struct Hostile {
    inner: lams_dlc_io::MemTransport,
    modulus: u64,
    replay_every: u64,
    nak_every: u64,
    far_every: u64,
    out_of_range: bool,
    info_seen: u64,
    checkpoints_seen: u64,
    /// Highest I-frame sequence number sent: the sender's reference.
    tx_reference: u64,
    /// Highest `covered` of a checkpoint already passed to the sender.
    covered: u64,
    recent: std::collections::VecDeque<Vec<u8>>,
    rng: u64,
    injected: Injected,
}

impl Hostile {
    fn new(modulus: u64, (replay_every, nak_every, far_every): (u64, u64, u64)) -> Self {
        Hostile {
            inner: lams_dlc_io::MemTransport::new(),
            modulus,
            replay_every,
            nak_every,
            far_every,
            out_of_range: false,
            info_seen: 0,
            checkpoints_seen: 0,
            tx_reference: 0,
            covered: 0,
            recent: std::collections::VecDeque::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            injected: Injected::default(),
        }
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// `datagram` with the little-endian `u32` at `at` set to a value
    /// at or above the modulus and its trailing checksum recomputed.
    fn out_of_range_copy(&mut self, datagram: &[u8], at: usize, crc32: bool) -> Vec<u8> {
        let field = self.modulus as u32 + (self.next() as u32 % 1000);
        let trailer = if crc32 { 4 } else { 2 };
        let mut bad = datagram[..datagram.len() - trailer].to_vec();
        bad[at..at + 4].copy_from_slice(&field.to_le_bytes());
        if crc32 {
            fec::Crc32::append(&mut bad);
        } else {
            fec::Crc16Ccitt::append(&mut bad);
        }
        self.injected.out_of_range += 1;
        bad
    }
}

impl lams_dlc_io::Transport for Hostile {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        let decoded = lams_dlc::wire::decode(datagram, self.tx_reference, self.modulus);
        let Ok(lams_dlc::Frame::Info(info)) = decoded else {
            return self.inner.send_data(datagram);
        };
        self.tx_reference = self.tx_reference.max(info.seq);
        self.info_seen += 1;
        if self.far_every != 0 && self.info_seen.is_multiple_of(self.far_every) {
            let ahead = [1 << 16, 1 << 32, u64::MAX - info.packet_id.0][self.next() as usize % 3];
            let forged = lams_dlc::Frame::Info(lams_dlc::InfoFrame {
                packet_id: lams_dlc::PacketId(info.packet_id.0.saturating_add(ahead)),
                ..info
            });
            let forged = lams_dlc::wire::encode(&forged, self.modulus);
            self.inner.send_data(&forged)?;
            self.injected.far_ids += 1;
            if self.out_of_range {
                let bad = self.out_of_range_copy(&forged, 1, true);
                self.inner.send_data(&bad)?;
            }
        }
        self.inner.send_data(datagram)?;
        if self.replay_every != 0 && self.info_seen.is_multiple_of(self.replay_every) {
            let pick = self.next() as usize % self.recent.len().max(1);
            if let Some(old) = self.recent.get(pick).cloned() {
                self.inner.send_data(&old)?;
                self.injected.replays += 1;
                if self.out_of_range {
                    let bad = self.out_of_range_copy(&old, 1, true);
                    self.inner.send_data(&bad)?;
                }
            }
        }
        if self.recent.len() == 32 {
            self.recent.pop_front();
        }
        self.recent.push_back(datagram.to_vec());
        Ok(())
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.inner.recv_data(buf)
    }

    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        let decoded = lams_dlc::wire::decode(datagram, self.tx_reference, self.modulus);
        let Ok(lams_dlc::Frame::Control(lams_dlc::ControlFrame::CheckPoint(mut cp))) = decoded
        else {
            return self.inner.send_feedback(datagram);
        };
        self.checkpoints_seen += 1;
        let covered = self.covered;
        self.covered = self.covered.max(cp.covered);
        if self.nak_every == 0 || !self.checkpoints_seen.is_multiple_of(self.nak_every) {
            return self.inner.send_feedback(datagram);
        }
        // Numbers at or below an earlier checkpoint's horizon are no
        // longer outstanding: the sender released or renumbered them.
        for back in 0..3.min(covered) {
            cp.naks.push(covered - back);
            self.injected.stale_naks += 1;
        }
        // Numbers the sender has not sent, up to the far edge of what
        // the numbering modulus can express.
        for _ in 0..3 {
            let ahead = 1 + self.next() % (self.modulus / 2 - 2);
            cp.naks.push(self.tx_reference + ahead);
            self.injected.ahead_naks += 1;
        }
        cp.naks.sort_unstable();
        cp.naks.dedup();
        let forged = lams_dlc::Frame::Control(lams_dlc::ControlFrame::CheckPoint(cp));
        let forged = lams_dlc::wire::encode(&forged, self.modulus);
        if self.out_of_range {
            // A copy with an out-of-range `covered` goes first: if it
            // were accepted, its index would shadow the real one.
            let bad = self.out_of_range_copy(&forged, 10, false);
            self.inner.send_feedback(&bad)?;
        }
        self.inner.send_feedback(&forged)
    }

    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.inner.recv_feedback(buf)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn hostile_datagrams_through_wire_link_never_panic(
        sdus in 50u64..400,
        drop_every in 0u64..10,
        corrupt_every in 0u64..20,
        replay_every in 0u64..6,
        nak_every in 0u64..3,
        far_every in 0u64..40,
    ) {
        let out_of_range = sdus % 2 == 0;
        let far_every = if far_every < 30 { 0 } else { far_every };
        let cfg = lams_dlc_io::IoConfig {
            sdus,
            // Every 1st or 2nd frame dropped or corrupted stalls any ARQ.
            drop_every: if drop_every < 3 { 0 } else { drop_every },
            corrupt_every: if corrupt_every < 3 { 0 } else { corrupt_every },
            timeout: std::time::Duration::from_secs(2),
            ..lams_dlc_io::IoConfig::default()
        };
        let modulus = lams_dlc_io::loopback_config().seq_modulus();
        let mut link = Hostile::new(modulus, (replay_every, nak_every, far_every));
        link.out_of_range = out_of_range;
        let clock = proto_core::ManualClock::new();
        match lams_dlc_io::run_transfer(&cfg, &clock, &mut link) {
            Ok(s) => {
                // The pump checked the order; every forged out-of-range
                // datagram was counted as malformed and skipped.
                prop_assert_eq!(s.delivered, sdus);
                prop_assert_eq!(s.malformed, link.injected.out_of_range, "{:?}", link.injected);
            }
            Err(e) => {
                // Replays and NAKs the sender does not hold are harmless;
                // only a forged packet id that displaced a real frame's
                // sequence number may cost an SDU.
                prop_assert!(link.injected.far_ids > 0, "{} after {:?}", e, link.injected);
                prop_assert!(e.starts_with("timeout: delivered"), "{} after {:?}", e, link.injected);
            }
        }
    }
}
