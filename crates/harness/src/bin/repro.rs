//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro                      # run every experiment at full size
//! repro e1 e5                # run a subset
//! repro --quick all          # CI-sized workloads
//! repro --list               # show the experiment index
//! repro --json report.json   # also write machine-readable results
//! repro --trace run.jsonl    # also write a protocol event trace (JSONL)
//! repro --metrics m.jsonl    # also write windowed time-series metrics
//! repro --profile p.json     # self-profile (span trees + table)
//! repro --profile-folded p.folded  # collapsed stacks for flamegraphs
//! repro --workers 4          # fan experiments out across 4 threads
//! ```
//!
//! `--json` writes one JSON document:
//!
//! ```text
//! {
//!   "schema": "lams-dlc.repro/1",
//!   "quick": bool,
//!   "experiments": [
//!     { "id", "title", "tables", "traces", "notes",   // ExperimentOutput
//!       "perf": {"scheduled", "popped", "cancelled", "peak_depth",
//!                "horizon_s", "wall_secs", "events_per_sec",
//!                "runs"} | null,                       // merged over runs
//!       "metrics": {"runs", "frames", "delivered", "naks",
//!                   "retransmissions", "max_tx_outstanding",
//!                   "audit_findings",
//!                   "delivery_latency": {"count", "p50_s", "p99_s"}}
//!                | null,                               // live monitor
//!       "attribution": {"sdus", "clean", "errored", "incomplete",
//!                       "audit_failures", "latency_total_ns",
//!                       "max_nak_repeats",
//!                       "phases": {<phase>: {"count", "total_ns",
//!                                            "max_ns"}, ...},
//!                       "reseq_hold": {"count", "total_ns", "max_ns"},
//!                       "resolution": {"cycles", "max_ns", "bound_ns",
//!                                      "violations"}}
//!                | null }           // causal latency attribution
//!   ]
//! }
//! ```
//!
//! `--trace` installs a global JSONL sink for the duration: every
//! simulation run appends [`telemetry::TraceRecord`]s (one JSON object
//! per line: `{"t", "node", "event", ...}`) to the given path. With
//! `--workers > 1` the records are buffered per experiment and written
//! in experiment order, so the trace file is identical to a serial run.
//!
//! `--metrics` writes the live monitor's fixed-interval windowed series
//! (one JSON object per window per link per run: throughput, NAK rate,
//! retransmissions, occupancy high-water marks) in experiment order.
//!
//! Every experiment additionally runs under a live protocol auditor
//! ([`monitor::Monitor`]) checking the LAMS-DLC invariants as events
//! arrive; any violation is printed to stderr and fails the process
//! with exit code 1.
//!
//! `--profile` turns on the wall-clock span profiler for each
//! experiment and writes one `lams-dlc.profile/1` document: per
//! experiment, the call-path span tree (integer-nanosecond totals and
//! self times), the table-capacity counters, queue-depth samples, and
//! the allocation delta (null unless the binary installs the counting
//! allocator — `bench` does, `repro` does not). A human-readable
//! breakdown is printed after each experiment's tables.
//! `--profile-folded` writes the same trees as collapsed stacks
//! (`e1;experiment;sim.run;sim.dispatch;queue.pop 12345` — self time
//! in ns), ready for `flamegraph.pl` or any collapsed-stack renderer.
//! Profiling only reads the wall clock: simulated results are
//! byte-identical with it on or off.
//!
//! Results, the JSON document, the trace stream, and the metric series
//! are merged in experiment order regardless of `--workers`, so output
//! at any worker count is byte-identical apart from measured wall-clock
//! seconds.

use harness::runner::{self, CliArgs};
use harness::{experiments, parallel, profile_report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli: CliArgs = match runner::parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", runner::USAGE);
            std::process::exit(2);
        }
    };

    if cli.list {
        println!("experiment index (paper artifact → id):");
        for (id, title) in runner::INDEX {
            println!("  {id:>4}  {title}");
        }
        return;
    }

    if let Err(msg) = runner::validate_paths(&cli) {
        eprintln!("error: {msg}\n\n{}", runner::USAGE);
        std::process::exit(2);
    }

    parallel::set_workers(cli.workers);

    if let Some(path) = &cli.trace {
        match telemetry::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => {
                telemetry::install_global(std::rc::Rc::new(std::cell::RefCell::new(sink)));
            }
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let ids: Vec<String> = if cli.ids.is_empty() {
        experiments::ALL.iter().map(|s| s.to_string()).collect()
    } else {
        cli.ids.clone()
    };
    let runs = runner::run_experiments_with(&ids, cli.quick, cli.profiled());

    let mut unknown = false;
    for run in &runs {
        match &run.output {
            Some(out) => {
                print!("{}", out.render());
                // The latency budget: where delivered SDUs spent their
                // time, per phase, with the analytic-bound verdict.
                if let Some(exp) = run.audit.experiment(&run.id) {
                    print!("{}", runner::attribution_table(&run.id, &exp.attribution));
                }
                // Where the CPU nanoseconds went, when profiled.
                if let Some(p) = &run.profile {
                    print!("{}", p.table(&run.id, run.perf.as_ref().map(|(q, _, _)| q)));
                }
            }
            None => {
                eprintln!("unknown experiment id: {} (try --list)", run.id);
                unknown = true;
            }
        }
    }

    // The live auditor's verdicts: any invariant violation fails the
    // whole reproduction loudly.
    let mut violations = 0u64;
    for run in &runs {
        if run.audit.total_findings == 0 {
            continue;
        }
        violations += run.audit.total_findings;
        eprintln!(
            "AUDIT FAILURE in {}: {} invariant violation(s)",
            run.id, run.audit.total_findings
        );
        for f in &run.audit.findings {
            eprintln!("  {f}");
        }
        let suppressed = run.audit.total_findings - run.audit.findings.len() as u64;
        if suppressed > 0 {
            eprintln!("  ... and {suppressed} more");
        }
    }

    if let Some(path) = &cli.metrics {
        let mut buf = String::new();
        for run in &runs {
            for line in &run.audit.window_lines {
                buf.push_str(&line.render());
                buf.push('\n');
            }
        }
        if let Err(e) = std::fs::write(path, buf) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &cli.json {
        let doc = runner::report_json(&runs, cli.quick);
        if let Err(e) = std::fs::write(path, doc.render_pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &cli.profile {
        let doc = profile_report::profile_doc(&runs, cli.quick);
        if let Err(e) = std::fs::write(path, doc.render_pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &cli.profile_folded {
        if let Err(e) = std::fs::write(path, profile_report::folded(&runs)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let mut trace_failed = false;
    if let Some(path) = &cli.trace {
        if let Some(sink) = telemetry::uninstall_global() {
            sink.borrow_mut().flush();
            // A failed write silently truncates the trace file; surface
            // it and fail instead of reporting a clean run.
            let lost = sink.borrow().dropped();
            if lost > 0 {
                eprintln!("trace write to {path} failed: {lost} record(s) lost");
                trace_failed = true;
            } else {
                eprintln!("wrote {path} ({} trace records)", sink.borrow().len());
            }
        }
    }

    if unknown {
        std::process::exit(2);
    }
    if trace_failed {
        std::process::exit(1);
    }
    if violations > 0 {
        eprintln!("protocol audit failed: {violations} invariant violation(s)");
        std::process::exit(1);
    }
}
