//! CLI contract tests for the `lams-dlc-io` binary: a usage error
//! prints the usage and exits 2, apart from the 1 of a failed transfer.
//! Each case fails while parsing the flags, before any socket work.

use std::process::Command;

/// Run the binary with `args`; its exit code and stderr.
fn lams_dlc_io(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lams-dlc-io"))
        .args(args)
        .output()
        .expect("spawn lams-dlc-io");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stderr) = lams_dlc_io(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: lams-dlc-io"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    assert_usage_error(&["--frobnicate"], "unknown flag: --frobnicate");
}

#[test]
fn missing_value_exits_2() {
    assert_usage_error(&["--sdus"], "--sdus requires a value");
}

#[test]
fn non_number_exits_2() {
    assert_usage_error(&["--drop-every", "seven"], "--drop-every: invalid digit");
}

#[test]
fn zero_stats_interval_exits_2() {
    assert_usage_error(
        &["--stats-interval-ms", "0"],
        "--stats-interval-ms must be positive",
    );
}
