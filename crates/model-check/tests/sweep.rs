//! The acceptance sweep: 1000 derived adversarial schedules, zero
//! invariant violations, and a sanity floor on how many complete.
//!
//! The sweep is deterministic, so its coverage document is pinned
//! exactly: a change to the machines, the pump's pass order or the
//! adversary shows up here as a changed count.

use model_check::run_sweep;

/// The `lams-dlc.mcheck/1` document of `run_sweep(1000, 0)`.
const SWEEP_1000: &str = "{\"schema\":\"lams-dlc.mcheck/1\",\"schedules\":1000,\"complete\":1000,\
\"link_failures\":0,\"violations\":0,\"retransmissions\":99276,\"coverage\":{\"drops\":19126,\
\"dups\":7052,\"reorders\":14017,\"corruptions\":7626,\"capacity_losses\":71035,\
\"checkpoints\":41590,\"retransmissions\":99276,\"request_naks\":855,\"enforced_naks\":574,\
\"steps\":373842,\"transitions\":{\"running->enforced\":421,\"enforced->running\":336}}}";

#[test]
fn thousand_schedules_zero_violations() {
    let report = run_sweep(1000, 0);
    assert!(
        report.violations.is_empty(),
        "invariant violations: {:#?}",
        report.violations
    );
    assert_eq!(report.complete + report.link_failures, 1000);
    // Link failure is only legitimate under a severing adversary, and
    // even then most schedules should push everything through.
    assert!(
        report.complete >= 900,
        "too few schedules completed: {} (link failures {})",
        report.complete,
        report.link_failures
    );
    assert!(
        report.retransmissions > 0,
        "the sweep must exercise the recovery path"
    );
    assert_eq!(report.to_json().render(), SWEEP_1000);
}

#[test]
fn stale_replay_finding_is_pinned() {
    // What `model-check --schedules 1 --inject-stale-replay 3` reports:
    // the first information frame replayed after the third emission.
    let report = run_sweep(1, 3);
    let findings: Vec<&str> = report.violations.iter().map(|v| v.what.as_str()).collect();
    assert_eq!(findings, ["wire numbering not monotone: 1 after 2"]);
}
