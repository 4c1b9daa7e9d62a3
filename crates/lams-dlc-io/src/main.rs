//! Loopback UDP demo for the sans-IO LAMS-DLC machines.
//!
//! ```text
//! lams-dlc-io [--sdus N] [--payload BYTES] [--drop-every K]
//!             [--corrupt-every K] [--timeout-secs S]
//!             [--stats <path|->] [--stats-interval-ms MS]
//!             [--trace <path>]
//! ```
//!
//! Transfers `N` SDUs from a `lams_dlc::Sender` to a
//! `lams_dlc::Receiver` over two real UDP sockets on 127.0.0.1,
//! dropping every `K`-th information frame before the socket send and
//! marking every `--corrupt-every`-th arriving information frame as
//! payload-corrupted. The transfer runs under the live protocol
//! auditor; `--stats` streams periodic machine-readable
//! `lams-dlc.live/1` snapshots (plus one final document), and
//! `--trace` records the full telemetry stream for offline
//! `trace-tools` replay. Exits 1 if the transfer fails, the order
//! check trips, or the audit reports findings; a usage error (unknown
//! flag, missing or malformed value) prints the usage and exits 2.

#![forbid(unsafe_code)]

use lams_dlc_io::{run_loopback, IoConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: lams-dlc-io [--sdus N] [--payload BYTES] \
                     [--drop-every K] [--corrupt-every K] [--timeout-secs S] \
                     [--stats <path|->] [--stats-interval-ms MS] [--trace <path>]";

fn parse_args() -> Result<IoConfig, String> {
    let mut cfg = IoConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match flag.as_str() {
            "--sdus" => {
                cfg.sdus = value("--sdus")?
                    .parse()
                    .map_err(|e| format!("--sdus: {e}"))?
            }
            "--payload" => {
                cfg.payload_len = value("--payload")?
                    .parse()
                    .map_err(|e| format!("--payload: {e}"))?
            }
            "--drop-every" => {
                cfg.drop_every = value("--drop-every")?
                    .parse()
                    .map_err(|e| format!("--drop-every: {e}"))?
            }
            "--corrupt-every" => {
                cfg.corrupt_every = value("--corrupt-every")?
                    .parse()
                    .map_err(|e| format!("--corrupt-every: {e}"))?
            }
            "--timeout-secs" => {
                let secs: u64 = value("--timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--timeout-secs: {e}"))?;
                cfg.timeout = std::time::Duration::from_secs(secs);
            }
            "--stats" => cfg.stats = Some(value("--stats")?),
            "--stats-interval-ms" => {
                let ms: u64 = value("--stats-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--stats-interval-ms: {e}"))?;
                if ms == 0 {
                    return Err("--stats-interval-ms must be positive".into());
                }
                cfg.stats_interval = std::time::Duration::from_millis(ms);
            }
            "--trace" => cfg.trace = Some(value("--trace")?.into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // With stats on stdout, the human banner moves to stderr so the
    // JSONL stream stays machine-clean.
    let to_stdout = cfg.stats.as_deref() != Some("-");
    let banner = format!(
        "lams-dlc-io: {} SDUs x {} B over loopback UDP, dropping every {} info frame(s), \
         corrupting every {}",
        cfg.sdus,
        cfg.payload_len,
        if cfg.drop_every == 0 {
            "no".to_string()
        } else {
            format!("{}th", cfg.drop_every)
        },
        if cfg.corrupt_every == 0 {
            "none".to_string()
        } else {
            format!("{}th", cfg.corrupt_every)
        },
    );
    if to_stdout {
        println!("{banner}");
    } else {
        eprintln!("{banner}");
    }
    match run_loopback(&cfg) {
        Ok(s) => {
            let secs = s.wall.as_secs_f64();
            let mut lines = format!(
                "delivered {} SDUs in order in {:.1} ms, {:.0} SDUs/s \
                 (datagrams: {} data + {} feedback, retransmissions: {})\n",
                s.delivered,
                secs * 1e3,
                s.delivered as f64 / secs,
                s.datagrams_sent,
                s.feedback_sent,
                s.retransmissions,
            );
            let mean_late_us = s.wake_lateness.as_secs_f64() * 1e6 / s.wakes.max(1) as f64;
            lines.push_str(&format!(
                "wakes: {}, mean lateness {mean_late_us:.1} µs\n",
                s.wakes
            ));
            for (name, v) in s.counters.entries() {
                lines.push_str(&format!("  {name} = {v}\n"));
            }
            lines.push_str(&format!(
                "audit: {} finding(s) across {} trace record(s)",
                s.audit_findings, s.audit_records
            ));
            if to_stdout {
                println!("{lines}");
            } else {
                eprintln!("{lines}");
            }
            if s.audit_findings > 0 {
                eprintln!("audit failed: {} finding(s)", s.audit_findings);
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("transfer failed: {e}");
            ExitCode::FAILURE
        }
    }
}
