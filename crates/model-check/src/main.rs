//! Adversarial schedule sweep for the sans-IO LAMS-DLC machines.
//!
//! ```text
//! model-check [--schedules N] [--json <path|->] [--artifact <path>]
//!             [--inject-stale-replay N]
//! model-check --replay <artifact>
//! ```
//!
//! Runs `N` (default 1000) derived schedules through the pure machines
//! and reports invariant violations. `--json` additionally writes the
//! machine-readable `lams-dlc.mcheck/1` coverage document — which
//! adversary knobs fired and which recovery machinery ran — so CI can
//! assert the sweep actually exercised every knob. On the first
//! violation, `--artifact` writes a replayable failure artifact
//! (schedule header + deterministic telemetry trace); `--replay`
//! re-runs such an artifact and demands the byte-identical finding.
//! `--inject-stale-replay` arms the known-bad-machine fault on every
//! schedule (replay the first information frame after the `N`-th
//! emission) to prove the checker and its artifacts end to end. Exits
//! 1 if any invariant broke or a replay diverged; a usage error
//! (unknown flag, missing or malformed value) prints the usage and
//! exits 2.

use model_check::{read_artifact, reproduces, run_schedule, run_sweep, write_artifact};
use std::process::ExitCode;

const USAGE: &str = "usage: model-check [--schedules N] [--json <path|->] \
                     [--artifact <path>] [--inject-stale-replay N] | \
                     model-check --replay <artifact>";

struct Opts {
    schedules: u64,
    json: Option<String>,
    artifact: Option<String>,
    replay: Option<String>,
    inject_stale_replay: u64,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        schedules: 1000,
        json: None,
        artifact: None,
        replay: None,
        inject_stale_replay: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let number = |v: String| v.parse().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--schedules" => opts.schedules = number(value()?)?,
            "--json" => opts.json = Some(value()?),
            "--artifact" => opts.artifact = Some(value()?),
            "--replay" => opts.replay = Some(value()?),
            "--inject-stale-replay" => opts.inject_stale_replay = number(value()?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

fn replay_artifact(path: &str) -> ExitCode {
    let (sched, expected) = match read_artifact(std::path::Path::new(path)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("model-check: replaying artifact {path}");
    match reproduces(&run_schedule(&sched), &expected) {
        Ok(()) => {
            println!("replay reproduced the finding byte-identically:");
            println!("  {expected}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay DIVERGED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.replay {
        return replay_artifact(path);
    }

    let fault = match opts.inject_stale_replay {
        0 => String::new(),
        n => format!(" (stale-replay fault armed after {n} emissions)"),
    };
    let schedules = opts.schedules;
    println!("model-check: exploring {schedules} adversarial schedules{fault}");
    let report = run_sweep(schedules, opts.inject_stale_replay);
    println!(
        "complete: {} | declared link failures: {} | violations: {} | \
         retransmissions across completed runs: {}",
        report.complete,
        report.link_failures,
        report.violations.len(),
        report.retransmissions,
    );
    let c = &report.coverage;
    println!(
        "coverage: drops {} | dups {} | reorders {} | corruptions {} | \
         capacity losses {} | checkpoints {} | request naks {} | enforced naks {}",
        c.drops,
        c.dups,
        c.reorders,
        c.corruptions,
        c.capacity_losses,
        c.checkpoints,
        c.request_naks,
        c.enforced_naks,
    );

    if let Some(path) = &opts.json {
        let doc = report.to_json().render();
        let write_result = if path == "-" {
            println!("{doc}");
            Ok(())
        } else {
            std::fs::write(path, format!("{doc}\n"))
        };
        if let Err(e) = write_result {
            eprintln!("--json {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if report.violations.is_empty() {
        println!("all invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        if let Some(path) = &opts.artifact {
            match write_artifact(std::path::Path::new(path), &report.violations[0]) {
                Ok(()) => eprintln!(
                    "failure artifact written to {path} (verify with model-check --replay {path})"
                ),
                Err(e) => eprintln!("--artifact {path}: {e}"),
            }
        }
        ExitCode::FAILURE
    }
}
