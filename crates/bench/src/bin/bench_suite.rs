//! `bench_suite` — one repetition of the performance suite, as JSON.
//!
//! ```text
//! bench_suite                      # micro-kernels + all quick experiments
//! bench_suite --micro-iters 1000   # shrink the micro-kernels (CI smoke)
//! bench_suite --skip-micro         # experiments only
//! bench_suite --skip-experiments   # micro-kernels only
//! bench_suite --skip-profile       # omit the profiled pass
//! bench_suite --skip-shards        # omit the shard-scaling sweep
//! ```
//!
//! Prints one `lams-dlc.bench/1` JSON document to stdout:
//!
//! ```text
//! {
//!   "schema": "lams-dlc.bench/1",
//!   "quick": true,
//!   "micro": [ {"name", "iters", "ops", "wall_secs",
//!               "ns_per_op", "ops_per_sec"} ],
//!   "experiments": [ {"id", "runs", "wall_secs", "events_per_sec",
//!                     "queue": {"scheduled", "popped", "cancelled",
//!                               "peak_depth", "horizon_s"}} | perf-less ],
//!   "shards": [ {"shards", "wall_secs", "events_per_sec", "popped",
//!                "efficiency", "imbalance"} ],
//!   "total": {"runs", "wall_secs", "events_per_sec", "popped"},
//!   "profile": {"wall_ns", "counters", "queue_depth", "alloc",
//!               "spans": [span tree]} | null
//! }
//! ```
//!
//! The profile block comes from a **separate** pass over the quick
//! experiments with the span profiler on, after the timed suite: the
//! events/sec figures above are never measured under profiling
//! overhead. With the default `alloc-profile` feature this binary runs
//! under [`profile::alloc::CountingAlloc`], so the block also carries
//! the pass's allocation event/byte delta.
//!
//! One invocation is one repetition; `scripts/bench.py` runs several,
//! takes medians, and writes the committed `BENCH_*.json` trajectory
//! files.

use sim_core::QueueProfile;
use telemetry::Json;

#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;

const USAGE: &str = "\
usage: bench_suite [--micro-iters N] [--skip-micro] [--skip-experiments]
                   [--skip-profile] [--skip-shards]
";

const DEFAULT_MICRO_ITERS: u64 = 100_000;

fn queue_json(q: &QueueProfile) -> Json {
    Json::obj([
        ("scheduled", q.scheduled.into()),
        ("popped", q.popped.into()),
        ("cancelled", q.cancelled.into()),
        ("peak_depth", (q.peak_depth as u64).into()),
        ("horizon_s", q.horizon.as_secs_f64().into()),
    ])
}

fn main() {
    let mut micro_iters = DEFAULT_MICRO_ITERS;
    let mut run_micro = true;
    let mut run_experiments = true;
    let mut run_profile = true;
    let mut run_shards = true;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--micro-iters" => {
                let v = it.next().and_then(|v| v.parse().ok());
                match v {
                    Some(n) => micro_iters = n,
                    None => {
                        eprintln!("error: --micro-iters expects a number\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--skip-micro" => run_micro = false,
            "--skip-experiments" => run_experiments = false,
            "--skip-profile" => run_profile = false,
            "--skip-shards" => run_shards = false,
            flag => {
                eprintln!("error: unknown flag: {flag}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let micro: Vec<Json> = if run_micro {
        bench::run_micro_suite(micro_iters)
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::from(r.name)),
                    ("iters", r.iters.into()),
                    ("ops", r.ops.into()),
                    ("wall_secs", r.wall_secs.into()),
                    ("ns_per_op", r.ns_per_op().into()),
                    ("ops_per_sec", r.ops_per_sec().into()),
                ])
            })
            .collect()
    } else {
        Vec::new()
    };

    let experiments = if run_experiments {
        bench::run_experiment_suite()
    } else {
        Vec::new()
    };
    let (total, total_wall, total_runs) = bench::total_perf(&experiments);

    let experiments_json: Vec<Json> = experiments
        .iter()
        .map(|e| {
            let mut members = vec![("id".to_string(), Json::from(e.id.as_str()))];
            match &e.perf {
                Some((q, wall, runs)) => {
                    members.push(("runs".into(), (*runs).into()));
                    members.push(("wall_secs".into(), (*wall).into()));
                    members.push(("events_per_sec".into(), q.events_per_sec(*wall).into()));
                    members.push(("queue".into(), queue_json(q)));
                }
                None => {
                    members.push(("runs".into(), 0u64.into()));
                    members.push(("wall_secs".into(), 0.0.into()));
                    members.push(("events_per_sec".into(), Json::Null));
                    members.push(("queue".into(), Json::Null));
                }
            }
            Json::Obj(members)
        })
        .collect();

    // The core-count scaling sweep: one fixed sharded-chain workload
    // per shard count. Simulated results are identical across counts
    // (asserted inside the sweep); only the wall clock moves.
    let shards_json: Vec<Json> = if run_shards {
        bench::run_shard_sweep(bench::SHARD_SWEEP_COUNTS)
            .iter()
            .map(|p| {
                Json::obj([
                    ("shards", (p.shards as u64).into()),
                    ("wall_secs", p.wall_secs.into()),
                    ("events_per_sec", p.events_per_sec.into()),
                    ("popped", p.popped.into()),
                    ("efficiency", p.efficiency.into()),
                    ("imbalance", p.imbalance.into()),
                ])
            })
            .collect()
    } else {
        Vec::new()
    };

    // The profiled pass runs last so its overhead cannot leak into the
    // timed figures above.
    let profile_block = if run_profile {
        bench::run_profiled_suite().to_json()
    } else {
        Json::Null
    };

    let doc = Json::obj([
        ("schema", Json::from("lams-dlc.bench/1")),
        ("quick", Json::from(true)),
        ("micro", Json::from(micro)),
        ("experiments", Json::from(experiments_json)),
        ("shards", Json::from(shards_json)),
        (
            "total",
            Json::obj([
                ("runs", total_runs.into()),
                ("wall_secs", total_wall.into()),
                ("events_per_sec", total.events_per_sec(total_wall).into()),
                ("popped", total.popped.into()),
            ]),
        ),
        ("profile", profile_block),
    ]);
    println!("{}", doc.render_pretty());
}
