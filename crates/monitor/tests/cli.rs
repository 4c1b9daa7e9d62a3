//! CLI contract tests for the `trace-tools` binary: error paths must
//! print usage and exit 2, malformed traces must exit 2, and the
//! `attribution` subcommand must replay a trace into the same
//! per-experiment blocks the live monitor builds.

use std::process::Command;

fn trace_tools() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace-tools"))
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = trace_tools()
        .args(["frobnicate", "whatever.jsonl"])
        .output()
        .expect("spawn trace-tools");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command: frobnicate"), "{stderr}");
    assert!(stderr.contains("usage: trace-tools"), "{stderr}");
}

#[test]
fn bad_flag_prints_usage_and_exits_2() {
    let out = trace_tools()
        .args(["audit", "t.jsonl", "--frobnicate"])
        .output()
        .expect("spawn trace-tools");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --frobnicate"), "{stderr}");
    assert!(stderr.contains("usage: trace-tools"), "{stderr}");
}

#[test]
fn missing_command_prints_usage_and_exits_2() {
    let out = trace_tools().output().expect("spawn trace-tools");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing command"), "{stderr}");
    assert!(stderr.contains("usage: trace-tools"), "{stderr}");
}

#[test]
fn bad_window_value_exits_2() {
    let out = trace_tools()
        .args(["metrics", "t.jsonl", "--window", "0"])
        .output()
        .expect("spawn trace-tools");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--window"), "{stderr}");
}

#[test]
fn retired_superstep_record_exits_2() {
    // The multi-thread shard coordinator once wrote these; no writer
    // emits the kind now, so an old trace is malformed input.
    let line = r#"{"t":600,"node":"coord","event":"superstep","round":0,"shard":0,"grant_ns":600000000000,"cut_bound":false,"critical_link":0,"events":3860,"inbound":0,"outbound":0,"queue_depth":6}"#;
    let path = std::env::temp_dir().join(format!(
        "trace_tools_superstep_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, format!("{line}\n")).expect("write temp trace");
    let out = trace_tools()
        .args(["audit", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn trace-tools");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#":1: unknown event kind "superstep""#),
        "{stderr}"
    );
}

#[test]
fn attribution_replay_matches_the_live_monitor() {
    use sim_core::Instant;
    use telemetry::{TraceEvent, TraceRecord};

    const MS: u64 = 1_000_000;
    let rec = |t_ns: u64, node: &'static str, event: TraceEvent| TraceRecord {
        t: Instant::from_nanos(t_ns),
        node,
        event,
    };
    // One errored SDU: corrupt arrival, NAK via checkpoint 1, renumber,
    // retransmit, clean delivery, release — the renumbered-chain fixture.
    let records = vec![
        rec(0, "runner", TraceEvent::ExperimentStarted { id: "e9" }),
        rec(0, "sim", TraceEvent::RunStarted),
        rec(
            0,
            "tx",
            TraceEvent::SenderConfig {
                w_cp_ns: 30 * MS,
                c_depth: 3,
                rtt_ns: 27 * MS,
                cp_timeout_ns: 40 * MS,
                resolving_ns: 120 * MS,
                failure_ns: 120 * MS,
            },
        ),
        rec(
            MS,
            "tx",
            TraceEvent::IFrameTx {
                seq: 1,
                retx: false,
                len: 1024,
            },
        ),
        rec(
            15 * MS,
            "rx",
            TraceEvent::IFrameRx {
                seq: 1,
                clean: false,
                len: 1024,
            },
        ),
        rec(
            15 * MS,
            "rx",
            TraceEvent::Nak {
                seq: 1,
                cp_index: 1,
            },
        ),
        rec(
            16 * MS,
            "rx",
            TraceEvent::CheckpointEmitted {
                index: 1,
                covered: 1,
                naks: 1,
                enforced: false,
                stop: false,
            },
        ),
        rec(
            30 * MS,
            "tx",
            TraceEvent::CheckpointReceived {
                index: 1,
                covered: 1,
                naks: 1,
            },
        ),
        rec(
            30 * MS,
            "tx",
            TraceEvent::Renumbered {
                old_seq: 1,
                new_seq: 2,
            },
        ),
        rec(
            30 * MS,
            "tx",
            TraceEvent::RetxCause {
                seq: 2,
                cause: "nak",
                cp_index: 1,
            },
        ),
        rec(
            30 * MS,
            "tx",
            TraceEvent::IFrameTx {
                seq: 2,
                retx: true,
                len: 1024,
            },
        ),
        rec(
            44 * MS,
            "rx",
            TraceEvent::IFrameRx {
                seq: 2,
                clean: true,
                len: 1024,
            },
        ),
        rec(
            46 * MS,
            "rx",
            TraceEvent::CheckpointEmitted {
                index: 2,
                covered: 2,
                naks: 0,
                enforced: false,
                stop: false,
            },
        ),
        rec(
            60 * MS,
            "tx",
            TraceEvent::CheckpointReceived {
                index: 2,
                covered: 2,
                naks: 0,
            },
        ),
        rec(
            60 * MS,
            "tx",
            TraceEvent::BufferRelease {
                seq: 2,
                held_ns: 30 * MS,
                cp_index: 2,
            },
        ),
        rec(
            61 * MS,
            "sim",
            TraceEvent::RunFinished {
                deadline_hit: false,
            },
        ),
    ];

    // The live monitor's view of the same stream.
    let mut mon = monitor::Monitor::new(monitor::MonitorConfig::default());
    for r in &records {
        mon.observe(r);
    }
    let report = mon.take_report();
    let live = report.experiments[0].attribution.to_json().render();

    // Replay the rendered JSONL through the binary.
    let dir = std::env::temp_dir().join(format!("trace-tools-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("attr.jsonl");
    let mut buf = String::new();
    for r in &records {
        buf.push_str(&r.to_json().render());
        buf.push('\n');
    }
    std::fs::write(&path, buf).expect("write trace");

    let out = trace_tools()
        .args(["attribution", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn trace-tools");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(stdout, format!("e9\t{live}\n"));
    assert!(stdout.contains("\"first_flight\":{\"count\":1"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
