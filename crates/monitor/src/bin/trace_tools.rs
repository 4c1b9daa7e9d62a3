//! Offline trace analyzer: replay a `--trace` JSONL file through the
//! same auditor/metrics engine the live runs use.
//!
//! ```text
//! trace-tools audit       run.trace.jsonl
//! trace-tools metrics     run.trace.jsonl --window 50 --out series.jsonl
//! trace-tools lifecycle   run.trace.jsonl --limit 20
//! trace-tools summary     run.trace.jsonl
//! trace-tools attribution run.trace.jsonl
//! ```

use monitor::{Monitor, MonitorConfig};
use sim_core::Duration;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use telemetry::Json;

const USAGE: &str = "\
usage: trace-tools <command> <trace.jsonl> [options]

Replays a telemetry trace (repro --trace output) offline, rebuilding the
same audit verdicts, windowed metrics, and frame lifecycles the live
monitor produces.

commands:
  audit        check the five LAMS-DLC invariants; print findings
               (exit 1 when any are found, or when a record is
               stamped before an earlier record of its run)
  metrics      emit windowed metric series as JSONL
  lifecycle    emit per-frame lifecycle records as JSONL
  summary      event-kind counts and per-experiment metric summaries
  attribution  per-experiment latency-attribution blocks, one
               \"<id>\\t<json>\" line each — byte-identical to the live
               report's \"attribution\" blocks

options:
  --window <ms>   metric window width in milliseconds (default 100)
  --out <path>    write JSONL output to <path> instead of stdout
  --limit <n>     emit at most <n> lines (metrics/lifecycle)
";

struct Args {
    command: String,
    trace: String,
    window: Duration,
    out: Option<String>,
    limit: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut trace = None;
    let mut window = Duration::from_millis(100);
    let mut out = None;
    let mut limit = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            match it.next() {
                Some(v) if !v.starts_with('-') => Ok(v.clone()),
                _ => Err(format!("{flag} requires a value")),
            }
        };
        match arg.as_str() {
            "--window" => {
                // Zero, and any width whose nanoseconds overflow u64, are
                // rejected rather than wrapped.
                window = value("--window")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .and_then(|ms| ms.checked_mul(1_000_000))
                    .map(Duration::from_nanos)
                    .ok_or("--window must be a positive integer (ms)")?;
            }
            "--out" => out = Some(value("--out")?),
            "--limit" => {
                limit = Some(
                    value("--limit")?
                        .parse()
                        .map_err(|_| "--limit must be a non-negative integer".to_string())?,
                )
            }
            "-h" | "--help" => return Err(String::new()),
            f if f.starts_with('-') => return Err(format!("unknown flag: {f}")),
            positional => {
                if command.is_none() {
                    command = Some(positional.to_string());
                } else if trace.is_none() {
                    trace = Some(positional.to_string());
                } else {
                    return Err(format!("unexpected argument: {positional}"));
                }
            }
        }
    }
    let command = command.ok_or("missing command")?;
    if !matches!(
        command.as_str(),
        "audit" | "metrics" | "lifecycle" | "summary" | "attribution"
    ) {
        return Err(format!("unknown command: {command}"));
    }
    Ok(Args {
        command,
        trace: trace.ok_or("missing trace file")?,
        window,
        out,
        limit,
    })
}

/// Feed every line of the trace into `monitor`, also tallying event
/// kinds for `summary`. Lines that are JSON objects carrying a
/// `"schema"` member are stream metadata (failure-artifact headers,
/// interleaved stats documents), counted under `(meta)` and skipped.
/// Fails with the line number on malformed input.
fn replay(path: &str, monitor: &mut Monitor) -> Result<BTreeMap<&'static str, u64>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("read error in {path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(&line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if v.get("schema").is_some() {
            *kinds.entry("(meta)").or_insert(0) += 1;
            continue;
        }
        let rec = telemetry::TraceRecord::from_json(&v)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        *kinds.entry(rec.event.kind()).or_insert(0) += 1;
        monitor.observe(&rec);
    }
    Ok(kinds)
}

fn open_out(out: &Option<String>) -> Result<Box<dyn Write>, String> {
    match out {
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Ok(Box::new(BufWriter::new(f)))
        }
        None => Ok(Box::new(std::io::stdout().lock())),
    }
}

fn emit_lines(
    lines: impl IntoIterator<Item = Json>,
    out: &Option<String>,
    limit: Option<usize>,
) -> Result<usize, String> {
    let mut w = open_out(out)?;
    let mut n = 0;
    for line in lines {
        if limit.is_some_and(|l| n >= l) {
            break;
        }
        writeln!(w, "{}", line.render()).map_err(|e| format!("write failed: {e}"))?;
        n += 1;
    }
    w.flush().map_err(|e| format!("write failed: {e}"))?;
    Ok(n)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let cfg = MonitorConfig {
        window: args.window,
        keep_lifecycles: args.command == "lifecycle",
        ..MonitorConfig::default()
    };
    let mut monitor = Monitor::new(cfg);
    let kinds = replay(&args.trace, &mut monitor)?;
    // Streams without a trace_header are simulator traces from before
    // the header existed.
    let domain = monitor.clock_domain().unwrap_or("sim");
    let report = monitor.take_report();

    match args.command.as_str() {
        "audit" => {
            for f in &report.findings {
                println!("{f}");
            }
            let suppressed = report.total_findings - report.findings.len() as u64;
            if suppressed > 0 {
                println!("... and {suppressed} more finding(s) beyond the cap");
            }
            let runs: u64 = report.experiments.iter().map(|e| e.runs).sum();
            let rewound = report.counters.get(monitor::RECORDS_REWOUND).unwrap_or(0.0);
            if rewound > 0.0 {
                println!("{rewound} record(s) stamped before an earlier record of their run");
            }
            eprintln!(
                "audit: {} finding(s) across {} run(s), {} record(s), {domain} clock",
                report.total_findings, runs, report.records
            );
            Ok(if report.total_findings > 0 || rewound > 0.0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        "metrics" => {
            let n = emit_lines(report.window_lines, &args.out, args.limit)?;
            eprintln!(
                "metrics: {n} window line(s) from {} record(s)",
                report.records
            );
            Ok(ExitCode::SUCCESS)
        }
        "lifecycle" => {
            let n = emit_lines(
                report.lifecycles.iter().map(|lc| lc.to_json()),
                &args.out,
                args.limit,
            )?;
            eprintln!("lifecycle: {n} frame(s) from {} record(s)", report.records);
            Ok(ExitCode::SUCCESS)
        }
        "summary" => {
            let mut w = open_out(&args.out)?;
            writeln!(w, "records: {}", report.records).map_err(|e| e.to_string())?;
            writeln!(w, "clock domain: {domain}").map_err(|e| e.to_string())?;
            writeln!(w, "event kinds:").map_err(|e| e.to_string())?;
            for (kind, n) in &kinds {
                writeln!(w, "  {kind:<24} {n}").map_err(|e| e.to_string())?;
            }
            writeln!(w, "experiments:").map_err(|e| e.to_string())?;
            for exp in &report.experiments {
                let id = if exp.id.is_empty() {
                    "(unlabeled)"
                } else {
                    exp.id
                };
                writeln!(w, "  {id}: {}", exp.to_json().render()).map_err(|e| e.to_string())?;
            }
            writeln!(w, "audit findings: {}", report.total_findings).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "attribution" => {
            let mut w = open_out(&args.out)?;
            let mut n = 0;
            for exp in &report.experiments {
                if args.limit.is_some_and(|l| n >= l) {
                    break;
                }
                let id = if exp.id.is_empty() {
                    "(unlabeled)"
                } else {
                    exp.id
                };
                writeln!(w, "{id}\t{}", exp.attribution.to_json().render())
                    .map_err(|e| format!("write failed: {e}"))?;
                n += 1;
            }
            w.flush().map_err(|e| format!("write failed: {e}"))?;
            eprintln!(
                "attribution: {n} experiment(s) from {} record(s)",
                report.records
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("trace-tools: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("trace-tools: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ms: &str) -> Result<Duration, String> {
        let argv: Vec<String> = ["metrics", "t.jsonl", "--window", ms]
            .iter()
            .map(|a| a.to_string())
            .collect();
        parse_args(&argv).map(|a| a.window)
    }

    #[test]
    fn window_in_range_is_kept_exactly() {
        assert_eq!(window("1"), Ok(Duration::from_millis(1)));
        let max = u64::MAX / 1_000_000;
        assert_eq!(window(&max.to_string()), Ok(Duration::from_millis(max)));
    }

    #[test]
    fn window_overflowing_nanoseconds_is_rejected() {
        let err = Err("--window must be a positive integer (ms)".to_string());
        let max = u64::MAX / 1_000_000;
        assert_eq!(window(&(max + 1).to_string()), err);
        assert_eq!(window(&u64::MAX.to_string()), err);
        assert_eq!(window("0"), err);
        assert_eq!(window("18446744073709551616"), err);
    }
}
