//! CLI contract tests for the `model-check` binary: a usage error
//! prints the usage and exits 2, apart from the 1 of a found violation
//! or a diverged replay.

use std::process::Command;

fn assert_usage_error(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_model-check"))
        .args(args)
        .output()
        .expect("spawn model-check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: model-check"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    assert_usage_error(&["--frobnicate"], "unknown flag: --frobnicate");
}

#[test]
fn missing_value_exits_2() {
    assert_usage_error(&["--replay"], "--replay requires a value");
}

#[test]
fn non_number_exits_2() {
    assert_usage_error(&["--schedules", "many"], "--schedules: invalid digit");
}
