//! Exact pins of the live monitor's outputs.
//!
//! Each case feeds one recorded trace stream into a fresh
//! [`monitor::Monitor`] (lifecycles kept) and reduces its
//! [`monitor::MonitorReport`] to a fingerprint: record and finding
//! counts, every finding's `Display` text, each experiment's rendered
//! `metrics` and `attribution` blocks, the windowed series lines, the
//! lifecycles and the monitor counters. Long renderings enter as
//! 64-bit FNV-1a hashes, so any change to any byte of them shows.
//!
//! The streams cover a lossy point-to-point suite experiment (E1), an
//! outage under enforced recovery (E9), Stop-Go flow control (E11),
//! multi-link `hopN` labels (E13), unarmed HDLC links (E17), a lossy
//! `ManualClock` host transfer, and the three fault-injected streams of
//! `harness/tests/monitor_audit.rs`. The pins were captured before the
//! monitor's per-link state was rebuilt; a change that alters any of
//! them changes what the monitor reports.

use harness::scenario::{run_lams, ScenarioConfig};
use lams_dlc_io::{run_transfer, IoConfig, MemTransport};
use monitor::{Monitor, MonitorConfig};
use proto_core::ManualClock;
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::{BufferSink, Json, TraceEvent, TraceRecord};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `s` and a terminator into the FNV-1a hash `h`.
fn fnv(h: &mut u64, s: &str) {
    for b in s.bytes().chain([0xff]) {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn hash_all(items: impl IntoIterator<Item = String>) -> (usize, u64) {
    let mut h = FNV_OFFSET;
    let mut n = 0;
    for s in items {
        fnv(&mut h, &s);
        n += 1;
    }
    (n, h)
}

/// The monitor's report over `records`, reduced to one line.
fn fingerprint<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut m = Monitor::new(MonitorConfig {
        keep_lifecycles: true,
        ..MonitorConfig::default()
    });
    for r in records {
        m.observe(r);
    }
    let report = m.take_report();
    let (kept, findings) = hash_all(report.findings.iter().map(|f| f.to_string()));
    let (exps, metrics) = hash_all(report.experiments.iter().flat_map(|e| {
        [
            e.id.to_string(),
            e.to_json().render(),
            e.attribution.to_json().render(),
        ]
    }));
    let (lines, series) = hash_all(report.window_lines.iter().map(Json::render));
    let (lifecycles, lc) = hash_all(report.lifecycles.iter().map(|l| l.to_json().render()));
    let (_, counters) = hash_all([report.counters.to_json().render()]);
    format!(
        "records={} findings={}/{kept} fh={findings:016x} exps={} mh={metrics:016x} \
         lines={lines} lh={series:016x} lifecycles={lifecycles} lch={lc:016x} ch={counters:016x}",
        report.records,
        report.total_findings,
        exps / 3,
    )
}

/// The trace of quick experiment `id`, captured beneath the runner's
/// own live monitor.
fn experiment_trace(id: &str) -> Vec<TraceRecord> {
    let buf = Rc::new(RefCell::new(BufferSink::new()));
    let prev = telemetry::install_global(buf.clone());
    let runs = harness::runner::run_experiments(&[id.to_string()], true);
    match prev {
        Some(p) => {
            telemetry::install_global(p);
        }
        None => {
            telemetry::uninstall_global();
        }
    }
    assert!(runs[0].output.is_some(), "{id} ran");
    let records = buf.borrow_mut().take();
    records
}

fn assert_pin(name: &str, records: &[TraceRecord], want: &str) {
    let got = fingerprint(records);
    assert_eq!(got, want, "{name}: monitor outputs moved");
}

#[test]
fn e1_lossy_point_to_point_is_pinned() {
    assert_pin("e1", &experiment_trace("e1"), "records=70330 findings=0/0 fh=cbf29ce484222325 exps=1 mh=eed51607c778c874 lines=12 lh=ccefca851d6eddab lifecycles=10000 lch=b63b883e3d038273 ch=c736581983dda06e");
}

#[test]
fn e9_outage_and_enforced_recovery_is_pinned() {
    assert_pin("e9", &experiment_trace("e9"), "records=32549 findings=0/0 fh=cbf29ce484222325 exps=1 mh=5daeff093acfe485 lines=10 lh=cfe6ab2e0e1b6074 lifecycles=6056 lch=0cdc80fd636d2228 ch=16200b230d614cc2");
}

#[test]
fn e11_stop_go_is_pinned() {
    assert_pin("e11", &experiment_trace("e11"), "records=52182 findings=0/0 fh=cbf29ce484222325 exps=1 mh=d2614b64e81a0df0 lines=13 lh=1c9aa82412be0099 lifecycles=10786 lch=67f8486ec7e11af4 ch=c736581983dda06e");
}

#[test]
fn e13_multi_link_labels_are_pinned() {
    assert_pin("e13", &experiment_trace("e13"), "records=38206 findings=0/0 fh=cbf29ce484222325 exps=1 mh=66b8c79b30aad4a9 lines=9 lh=c329c2a1605594ae lifecycles=6000 lch=2b60af03b668bcbd ch=c736581983dda06e");
}

#[test]
fn e17_unarmed_hdlc_links_are_pinned() {
    assert_pin("e17", &experiment_trace("e17"), "records=379851 findings=0/0 fh=cbf29ce484222325 exps=1 mh=7c783c77a5d7ec29 lines=12 lh=5ccfff826efe5ac3 lifecycles=12000 lch=8555c002843d0022 ch=c736581983dda06e");
}

#[test]
fn lossy_manual_clock_transfer_is_pinned() {
    let dir = std::env::temp_dir().join("lams-dlc-monitor-pins");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("transfer-{}.jsonl", std::process::id()));
    let cfg = IoConfig {
        sdus: 600,
        payload_len: 48,
        drop_every: 7,
        corrupt_every: 11,
        trace: Some(path.clone()),
        ..IoConfig::default()
    };
    run_transfer(&cfg, &ManualClock::new(), &mut MemTransport::new()).expect("transfer");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    let records: Vec<TraceRecord> = text
        .lines()
        .map(|l| telemetry::parse_line(l).expect("valid line"))
        .collect();
    assert_pin("transfer", &records, "records=2658 findings=0/0 fh=cbf29ce484222325 exps=1 mh=07cbb7d465a31d61 lines=1 lh=1007e6e5b3341544 lifecycles=600 lch=ed5e34fcd11cafe9 ch=c736581983dda06e");
}

/// The stream `harness/tests/monitor_audit.rs` mutates: a 300-frame
/// paper-default LAMS run.
fn captured_run(ber: f64) -> Vec<TraceRecord> {
    let mut cfg = ScenarioConfig::paper_default();
    cfg.n_packets = 300;
    cfg.deadline = sim_core::Duration::from_secs(60);
    cfg.data_residual_ber = ber;
    let buf = Rc::new(RefCell::new(BufferSink::new()));
    let prev = telemetry::install_global(buf.clone());
    run_lams(&cfg);
    match prev {
        Some(p) => {
            telemetry::install_global(p);
        }
        None => {
            telemetry::uninstall_global();
        }
    }
    let records = buf.borrow_mut().take();
    records
}

#[test]
fn fault_injected_streams_are_pinned() {
    // One frame's buffer_release dropped.
    let mut dropped = false;
    let lost: Vec<TraceRecord> = captured_run(1e-5)
        .into_iter()
        .filter(|r| {
            let hit = !dropped && matches!(r.event, TraceEvent::BufferRelease { seq: 17, .. });
            dropped |= hit;
            !hit
        })
        .collect();
    assert_pin("lost release", &lost, "records=1328 findings=1/1 fh=bcf52d25e53598b6 exps=1 mh=6e5e7f45035c51fe lines=1 lh=895365d882f7cf96 lifecycles=299 lch=9f417c271f9f3fea ch=c736581983dda06e");

    // One release shifted 1 ms before its covering checkpoint.
    let mut shifted = false;
    let early: Vec<TraceRecord> = captured_run(0.0)
        .into_iter()
        .map(|mut r| {
            if !shifted && matches!(r.event, TraceEvent::BufferRelease { seq: 5, .. }) {
                shifted = true;
                r.t = r.t - sim_core::Duration::from_millis(1);
            }
            r
        })
        .collect();
    assert_pin("early release", &early, "records=925 findings=1/1 fh=318009dab7d48e02 exps=1 mh=5a7ac59802cd708b lines=1 lh=03cd1f63bb576999 lifecycles=300 lch=974eb1474fa86c5f ch=f79e8ad97aa301e3");

    // One transmission's wire number rewritten to its predecessor's.
    let (mut last, mut corrupted) = (None, false);
    let dup: Vec<TraceRecord> = captured_run(0.0)
        .into_iter()
        .map(|mut r| {
            if let TraceEvent::IFrameTx { seq, .. } = &mut r.event {
                if !corrupted && *seq == 20 {
                    corrupted = true;
                    *seq = last.unwrap_or(*seq);
                } else {
                    last = Some(*seq);
                }
            }
            r
        })
        .collect();
    assert_pin("duplicate wire seq", &dup, "records=925 findings=3/3 fh=67be216b061cd8d2 exps=1 mh=7d88920ba5b5d3f9 lines=1 lh=ef06b338f847550d lifecycles=299 lch=49595a538d36e3b4 ch=c736581983dda06e");
}
