//! Robustness of the failure-artifact reader: every input is a value or
//! an error, never a panic. Inputs come from the crate's own seeded
//! [`Rng`], so each case is reproducible from its printed seed.

use model_check::{parse_artifact, Rng, Schedule, ARTIFACT_SCHEMA};
use telemetry::Json;

/// A well-formed artifact header for `sched`.
fn header(sched: &Json) -> String {
    Json::obj([
        ("schema", ARTIFACT_SCHEMA.into()),
        ("schedule", sched.clone()),
        ("finding", "monotone numbering violated".into()),
    ])
    .render()
}

/// `sched`'s JSON form with `field` replaced by `value`.
fn with_field(sched: &Schedule, field: &str, value: Json) -> Json {
    let Json::Obj(members) = sched.to_json() else {
        panic!("a schedule renders as an object");
    };
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| {
                if k == field {
                    (k, value.clone())
                } else {
                    (k, v)
                }
            })
            .collect(),
    )
}

const FIELDS: [&str; 8] = [
    "seed",
    "sdus",
    "drop_pct",
    "dup_pct",
    "reorder_pct",
    "corrupt_pct",
    "capacity",
    "replay_stale_after",
];

const PCT_FIELDS: [&str; 4] = ["drop_pct", "dup_pct", "reorder_pct", "corrupt_pct"];

#[test]
fn valid_header_round_trips() {
    let sched = Schedule::derive(7);
    let text = format!("{}\n{{\"t\":0}}\n", header(&sched.to_json()));
    let (back, finding) = parse_artifact(text.as_bytes()).expect("valid artifact");
    assert_eq!(back.to_json().render(), sched.to_json().render());
    assert_eq!(finding, "monotone numbering violated");
}

#[test]
fn arbitrary_bytes_are_errors_not_panics() {
    for seed in 0..2_000u64 {
        let mut rng = Rng::new(seed);
        let len = rng.below(300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        assert!(parse_artifact(&bytes).is_err(), "seed {seed}: {bytes:?}");
    }
    // JSON-ish noise: bytes drawn from the header's own alphabet.
    let alphabet = header(&Schedule::derive(1).to_json()).into_bytes();
    for seed in 0..2_000u64 {
        let mut rng = Rng::new(seed ^ 0x5eed);
        let len = rng.below(200) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect();
        let _ = parse_artifact(&bytes);
    }
}

#[test]
fn every_truncation_of_a_valid_header_is_an_error() {
    let line = header(&Schedule::derive(3).to_json());
    let bytes = line.as_bytes();
    for cut in 0..bytes.len() {
        assert!(
            parse_artifact(&bytes[..cut]).is_err(),
            "header cut at byte {cut} parsed: {:?}",
            String::from_utf8_lossy(&bytes[..cut])
        );
    }
    assert!(parse_artifact(bytes).is_ok());
}

#[test]
fn wrong_json_types_are_errors() {
    let sched = Schedule::derive(5);
    let wrong = [
        Json::from("12"),
        Json::from(1.5),
        Json::from(-3.0),
        Json::Null,
        Json::from(true),
        Json::Arr(vec![Json::from(1u64)]),
        Json::obj([("n", Json::from(1u64))]),
    ];
    for field in FIELDS {
        for value in &wrong {
            let text = header(&with_field(&sched, field, value.clone()));
            assert!(
                parse_artifact(text.as_bytes()).is_err(),
                "{field} = {value:?} accepted"
            );
        }
    }
    // The envelope around the schedule is checked the same way.
    let good = sched.to_json();
    for bad in [
        Json::obj([("schema", Json::from(7u64)), ("schedule", good.clone())]),
        Json::obj([
            ("schema", ARTIFACT_SCHEMA.into()),
            ("schedule", Json::from("x")),
        ]),
        Json::obj([
            ("schema", ARTIFACT_SCHEMA.into()),
            ("schedule", good.clone()),
        ]),
        Json::obj([
            ("schema", ARTIFACT_SCHEMA.into()),
            ("schedule", good),
            ("finding", Json::from(3u64)),
        ]),
        Json::Arr(Vec::new()),
        Json::from("lams-dlc.mcheck-fail/1"),
    ] {
        assert!(parse_artifact(bad.render().as_bytes()).is_err(), "{bad:?}");
    }
}

#[test]
fn percentages_above_100_are_rejected() {
    let sched = Schedule::derive(9);
    for field in PCT_FIELDS {
        for ok in [0u64, 1, 99, 100] {
            let text = header(&with_field(&sched, field, Json::from(ok)));
            assert!(parse_artifact(text.as_bytes()).is_ok(), "{field} = {ok}");
        }
        for bad in [101u64, 200, 255, 256, u64::MAX] {
            let text = header(&with_field(&sched, field, Json::from(bad)));
            let err = parse_artifact(text.as_bytes()).expect_err("out of range");
            assert!(err.contains(field) && err.contains("out of range"), "{err}");
        }
    }
}
