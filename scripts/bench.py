#!/usr/bin/env python3
"""Drive the `bench_suite` binary and record the perf trajectory.

Usage:
    bench.py [--reps N] [--out BENCH_0008.json] [--bin PATH]
             [--micro-iters N] [--no-build] [--parent DIR]
             [--check] [--tolerance 0.10]
    bench.py --trajectory [--json]

Runs `bench_suite` (building it first unless --no-build) N times
(default 3), takes per-metric **medians** across the repetitions, and
writes one `lams-dlc.bench/1` document:

    {
      "schema": "lams-dlc.bench/1",
      "reps": N,
      "quick": true,
      "machine": {"cpu", "vcpus"},
      "micro": [ {"name", "iters", "ops", "wall_secs",
                  "ns_per_op", "ops_per_sec"} ],
      "experiments": [ {"id", "runs", "wall_secs", "events_per_sec",
                        "queue": {...} | null} ],
      "shards": [ {"shards", "wall_secs", "events_per_sec", "popped"} ],
      "total": {"runs", "wall_secs", "events_per_sec", "popped"},
      "profile": {"wall_ns", "counters", "queue_depth", "alloc",
                  "spans": [...]} | null,
      "parent": {"commit", "reps", "total": {...},
                 "micro": [...]}                     (with --parent)
    }

`machine` is the host's machine class: the CPU model from
/proc/cpuinfo and the vCPU count. Only numbers from one machine class
are comparable.

With --parent DIR (a git checkout of the parent commit; anything else
is refused, since the row must name its commit), the parent's own
bench_suite (built there unless --no-build) times the quick experiments
and the micro kernels once per repetition, alternating with the fresh
runs, and its median quick-all total and median micro kernels are
recorded under `parent` with the checkout's commit: a before/after
pair from one machine.

Workloads are deterministic, so counted fields (queue profiles, runs,
popped) must agree across repetitions — a mismatch fails the driver.
Only the wall-clock-bearing fields (wall_secs, events_per_sec,
ns_per_op, ops_per_sec) are medianed.

The profile block (bench_suite's separate span-profiled pass over the
quick experiments, plus its allocation delta) is wall-clock-bearing
throughout, so it is carried verbatim from the first repetition; later
repetitions run with --skip-profile. The timed suite itself is never
profiled, so the events/sec gate is unaffected.

With --check, compares the fresh quick-all total events/sec against the
best committed baseline of the same machine class (the highest quick-all
events/sec over the BENCH_*.json files in the repo root whose `machine`
matches this host) and fails when it falls short of it by more than
--tolerance (default 10%). When no committed baseline of this machine
class exists, the gate falls back to the best baseline that records no
machine class (BENCH_0004.json to BENCH_0007.json); baselines of another
recorded class are never compared. Gating against the best baseline,
not the latest, keeps a slow slide of small regressions from passing
one step at a time. Used by CI as the perf regression gate.

With --trajectory, skips benchmarking entirely: reads every committed
BENCH_*.json in the repo root (one per PR that recorded a baseline,
numbered BENCH_0004.json, BENCH_0005.json, ...) and prints the
events-per-second trajectory across PRs as a table — or as JSON with
--json — so perf drift is visible at a glance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = "lams-dlc.bench/1"
REPO = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def machine_class():
    """This host's machine class: CPU model and vCPU count."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count() or 0}


def run_once(binary, micro_iters, skip_profile=False, extra=()):
    cmd = [str(binary)]
    if micro_iters is not None:
        cmd += ["--micro-iters", str(micro_iters)]
    if skip_profile:
        cmd += ["--skip-profile"]
    cmd += list(extra)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except FileNotFoundError:
        fail(f"{binary} not found (build it, or drop --no-build)")
    except subprocess.CalledProcessError as e:
        fail(f"{binary} exited {e.returncode}: {e.stderr.strip()}")
    try:
        doc = json.loads(out.stdout)
    except json.JSONDecodeError as e:
        fail(f"{binary} produced invalid JSON: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"{binary}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    return doc


def run_parent(parent, micro_iters):
    """One repetition of the parent checkout's bench_suite: the micro
    kernels and the quick experiments, without the shard sweep or the
    profiled pass."""
    doc = run_once(parent / "target/release/bench_suite", micro_iters,
                   skip_profile=True, extra=["--skip-shards"])
    total = doc["total"]
    print(f"bench: parent: quick-all {total['events_per_sec'] / 1e6:.3f}M "
          f"events/s", file=sys.stderr)
    return doc


def median_micro(reps):
    """Median the timing fields of each micro kernel across reps."""
    merged = []
    for i, first in enumerate(reps[0]["micro"]):
        rows = [r["micro"][i] for r in reps]
        names = {row["name"] for row in rows}
        if names != {first["name"]}:
            fail(f"micro kernel order differs across reps: {names}")
        merged.append({
            "name": first["name"],
            "iters": first["iters"],
            "ops": first["ops"],
            "wall_secs": statistics.median(row["wall_secs"] for row in rows),
            "ns_per_op": statistics.median(row["ns_per_op"] for row in rows),
            "ops_per_sec": statistics.median(row["ops_per_sec"] for row in rows),
        })
    return merged


def median_experiments(reps):
    """Median wall/events-per-sec per experiment; counted fields must be
    identical across reps (the workloads are deterministic)."""
    merged = []
    for i, first in enumerate(reps[0]["experiments"]):
        rows = [r["experiments"][i] for r in reps]
        if {row["id"] for row in rows} != {first["id"]}:
            fail("experiment order differs across reps")
        for row in rows:
            if row["queue"] != first["queue"] or row["runs"] != first["runs"]:
                fail(f"{first['id']}: counted fields differ across reps — "
                     f"the workload is not deterministic")
        entry = {
            "id": first["id"],
            "runs": first["runs"],
            "wall_secs": statistics.median(row["wall_secs"] for row in rows),
            "events_per_sec": None,
            "queue": first["queue"],
        }
        if first["queue"] is not None:
            entry["events_per_sec"] = statistics.median(
                row["events_per_sec"] for row in rows)
        merged.append(entry)
    return merged


def median_shards(reps):
    """Median the wall-clock fields of each shard-sweep point (including
    the efficiency/imbalance ratios, which read the wall clock); the
    shard count and popped totals are counted fields and must agree."""
    merged = []
    for i, first in enumerate(reps[0].get("shards", [])):
        rows = [r["shards"][i] for r in reps]
        for row in rows:
            if row["shards"] != first["shards"] or row["popped"] != first["popped"]:
                fail(f"shard sweep point {i}: counted fields differ across "
                     f"reps — the workload is not deterministic")
        point = {
            "shards": first["shards"],
            "wall_secs": statistics.median(row["wall_secs"] for row in rows),
            "events_per_sec": statistics.median(
                row["events_per_sec"] for row in rows),
            "popped": first["popped"],
        }
        if "efficiency" in first:
            point["efficiency"] = statistics.median(
                row["efficiency"] for row in rows)
            point["imbalance"] = statistics.median(
                row["imbalance"] for row in rows)
        merged.append(point)
    return merged


def median_total(reps):
    totals = [r["total"] for r in reps]
    first = totals[0]
    for t in totals:
        if t["popped"] != first["popped"] or t["runs"] != first["runs"]:
            fail("quick-all totals differ across reps — the workload is "
                 "not deterministic")
    return {
        "runs": first["runs"],
        "wall_secs": statistics.median(t["wall_secs"] for t in totals),
        "events_per_sec": statistics.median(
            t["events_per_sec"] for t in totals),
        "popped": first["popped"],
    }


def best_baseline(root, machine):
    """The committed BENCH_*.json with the highest quick-all events/s
    among those of `machine`'s class — or, when there are none, among
    those that record no machine class — as (file name, document,
    description of the rule applied)."""
    docs = load_trajectory(root)
    same = [named for named in docs if named[1].get("machine") == machine]
    rule = "same machine class"
    if not same:
        same = [named for named in docs if "machine" not in named[1]]
        rule = "no baseline of this machine class; unrecorded class"
    if not same:
        fail(f"no committed baseline of machine class {machine} or of "
             f"unrecorded class")
    name, doc = max(same, key=lambda named: named[1]["total"]["events_per_sec"])
    return name, doc, rule


def check_regression(doc, root, tolerance):
    name, base, rule = best_baseline(root, doc["machine"])
    want = base["total"]["events_per_sec"]
    got = doc["total"]["events_per_sec"]
    if want <= 0:
        fail(f"{name}: baseline events_per_sec is {want}")
    ratio = got / want
    verdict = (f"quick-all {got / 1e6:.3f}M events/s vs best baseline "
               f"{name} {want / 1e6:.3f}M ({(ratio - 1) * 100:+.1f}%; "
               f"{rule})")
    if ratio < 1.0 - tolerance:
        fail(f"{verdict} — regression exceeds {tolerance * 100:.0f}% gate")
    print(f"bench: OK: {verdict}")


def load_trajectory(root):
    """Read every committed BENCH_*.json in PR-number order."""
    docs = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path.name}: {e}")
        if doc.get("schema") != SCHEMA:
            fail(f"{path.name}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
        docs.append((path.name, doc))
    if not docs:
        fail(f"no BENCH_*.json documents under {root}")
    return docs


def print_trajectory(docs, as_json):
    """Per-PR events/s trajectory table (or JSON) over the committed
    baselines, with the delta against the previous baseline, plus the
    shard-scaling block of every baseline that recorded one
    (BENCH_0006.json onward)."""
    rows = []
    shard_rows = []
    prev = None
    for name, doc in docs:
        total = doc["total"]
        eps = total["events_per_sec"]
        delta = None if prev in (None, 0) else (eps / prev - 1.0) * 100.0
        rows.append({
            "baseline": name,
            "machine": doc.get("machine"),
            "runs": total["runs"],
            "popped": total["popped"],
            "wall_secs": total["wall_secs"],
            "events_per_sec": eps,
            "delta_pct": delta,
        })
        prev = eps
        for point in doc.get("shards") or []:
            shard_rows.append({
                "baseline": name,
                "shards": point["shards"],
                "wall_secs": point["wall_secs"],
                "events_per_sec": point["events_per_sec"],
                "popped": point["popped"],
                "efficiency": point.get("efficiency"),
                "imbalance": point.get("imbalance"),
            })
    if as_json:
        print(json.dumps({"schema": "lams-dlc.bench-trajectory/1",
                          "trajectory": rows,
                          "shards": shard_rows}, indent=2))
        return
    print(f"{'baseline':<20} {'runs':>5} {'popped':>12} "
          f"{'wall s':>8} {'events/s':>12} {'delta':>8}")
    for row in rows:
        delta = ("      --" if row["delta_pct"] is None
                 else f"{row['delta_pct']:+7.1f}%")
        print(f"{row['baseline']:<20} {row['runs']:>5} {row['popped']:>12} "
              f"{row['wall_secs']:>8.3f} {row['events_per_sec']:>12.0f} "
              f"{delta}")
    if not shard_rows:
        return
    print()
    print(f"{'shard scaling':<20} {'shards':>6} {'popped':>12} "
          f"{'wall s':>8} {'events/s':>12} {'effic':>7} {'imbal':>7}")
    for row in shard_rows:
        eff = ("     --" if row["efficiency"] is None
               else f"{row['efficiency'] * 100:6.1f}%")
        imb = ("     --" if row["imbalance"] is None
               else f"{row['imbalance']:6.2f}x")
        print(f"{row['baseline']:<20} {row['shards']:>6} {row['popped']:>12} "
              f"{row['wall_secs']:>8.3f} {row['events_per_sec']:>12.0f} "
              f"{eff} {imb}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--out", default=None,
                    help="output document (default: print to stdout)")
    ap.add_argument("--bin", default=str(REPO / "target/release/bench_suite"))
    ap.add_argument("--micro-iters", type=int, default=None)
    ap.add_argument("--no-build", action="store_true")
    ap.add_argument("--parent", default=None, metavar="DIR",
                    help="checkout of the parent commit: time its quick "
                         "experiments alternately and record them")
    ap.add_argument("--check", action="store_true",
                    help="fail when quick-all events/s falls more than "
                         "--tolerance below the best committed baseline")
    ap.add_argument("--tolerance", type=float, default=0.10)
    ap.add_argument("--trajectory", action="store_true",
                    help="print the events/s trajectory over committed "
                         "BENCH_*.json baselines and exit (no benchmarking)")
    ap.add_argument("--json", action="store_true",
                    help="with --trajectory, emit JSON instead of a table")
    args = ap.parse_args()
    if args.trajectory:
        print_trajectory(load_trajectory(REPO), args.json)
        return
    if args.reps < 1:
        fail("--reps must be >= 1")

    parent = Path(args.parent).resolve() if args.parent else None
    parent_commit = None
    if parent:
        # A ledger row must say what it was compared against: refuse a
        # DIR that is not a git checkout before spending any time on it.
        if not parent.is_dir():
            fail(f"--parent {parent}: no such directory")
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                           cwd=parent, capture_output=True, text=True)
        parent_commit = r.stdout.strip()
        if r.returncode != 0 or not parent_commit:
            fail(f"--parent {parent}: not a git checkout, so its commit "
                 f"is unknown ({r.stderr.strip() or 'no HEAD'})")
    if not args.no_build:
        for tree in [REPO] + ([parent] if parent else []):
            r = subprocess.run(
                ["cargo", "build", "--release", "-p", "bench"], cwd=tree)
            if r.returncode != 0:
                fail(f"cargo build failed in {tree}")

    reps = []
    parent_reps = []
    for i in range(args.reps):
        # Alternate which side runs first, so drift on a shared machine
        # does not favour one of them.
        if parent and i % 2 == 0:
            parent_reps.append(run_parent(parent, args.micro_iters))
        doc = run_once(args.bin, args.micro_iters, skip_profile=(i > 0))
        total = doc["total"]
        eps = total["events_per_sec"]
        print(f"bench: rep {i + 1}/{args.reps}: quick-all "
              f"{eps / 1e6:.3f}M events/s over {total['runs']} run(s)",
              file=sys.stderr)
        reps.append(doc)
        if parent and i % 2 == 1:
            parent_reps.append(run_parent(parent, args.micro_iters))

    merged = {
        "schema": SCHEMA,
        "reps": args.reps,
        "quick": True,
        "machine": machine_class(),
        "micro": median_micro(reps),
        "experiments": median_experiments(reps),
        "shards": median_shards(reps),
        "total": median_total(reps),
        # Wall-clock-bearing throughout: rep 1's profiled pass, verbatim.
        "profile": reps[0].get("profile"),
    }
    if parent:
        merged["parent"] = {
            "commit": parent_commit,
            "reps": len(parent_reps),
            "total": median_total(parent_reps),
            "micro": median_micro(parent_reps),
        }

    rendered = json.dumps(merged, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"bench: wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)

    if args.check:
        check_regression(merged, REPO, args.tolerance)


if __name__ == "__main__":
    main()
