#!/usr/bin/env python3
"""Validate `repro --json` output and its worker-count determinism.

Usage:
    check_repro.py report.json [report_parallel.json]
                   [--identical FILE_A FILE_B]...
                   [--bench BENCH.json]...
                   [--attribution OFFLINE.tsv]...
                   [--profile PROFILE.json]...
                   [--live STATS.jsonl]...
                   [--mcheck MCHECK.json]...

With one positional argument: validate the `lams-dlc.repro/1` schema
(top-level fields, per-experiment structure, perf blocks, live-monitor
metrics blocks, and latency-attribution blocks — phases must partition
the measured latency exactly, with zero phase-sum audit failures and
zero resolution-bound violations).

With two positional arguments: additionally require the two documents to
be identical once every `perf` and `profile` block (the wall-clock-
bearing fields) is nulled out — the parallel runner (`--workers`) must
be a pure speed knob, and self-profiling must never perturb simulated
results.

Each `--profile FILE` must be a valid `lams-dlc.profile/1` document (as
written by `repro --profile`): per experiment, every span node must
carry integer-nanosecond counters with exact tree consistency (each
child's total nests inside its parent's, `self_ns` equals
`total_ns - sum(children.total_ns)` with no rounding) and the top-level
spans must cover at least 90% of the experiment's measured wall clock.

Each `--identical A B` pair must be byte-identical files; used for the
`--trace`/`--metrics` JSONL outputs of serial vs parallel runs.

Each `--bench FILE` must be a valid `lams-dlc.bench/1` document (as
written by `bench_suite` or `scripts/bench.py`): micro-kernel rows with
positive timings, one entry per experiment id with a well-formed queue
profile, and a quick-all total that actually popped events.

Each `--attribution FILE` is a `trace-tools attribution` output
(`<id>\\t<json>` lines from replaying the run's --trace file offline):
every line must be byte-identical to the corresponding experiment's
`attribution` block in the report (ids compared case-insensitively),
and every attributed experiment must appear — the offline replay and
the live monitor must reconstruct the same causal story.

Each `--live FILE` must be a `lams-dlc.live/1` JSONL stream (as written
by `lams-dlc-io --stats`): every snapshot well-formed with one constant
clock domain, cumulative counters monotone non-decreasing across
snapshots, zero audit findings throughout, exactly the last
document marked final, and a final document whose latency quantiles
equal the previous document's when both cover the same samples.

Each `--mcheck FILE` must be a `lams-dlc.mcheck/1` sweep document (as
written by `model-check --json`): zero violations, every schedule
accounted for, and nonzero coverage for every adversary knob — a sweep
whose coverage shows a zero proved nothing about that knob.
"""

import json
import sys

EXPECTED_IDS = [f"E{i}" for i in range(1, 19)]

METRICS_KEYS = ("runs", "frames", "delivered", "naks", "retransmissions",
                "max_tx_outstanding", "audit_findings", "delivery_latency")
LATENCY_KEYS = ("count", "p50_s", "p99_s")

# The causal latency-attribution block (monitor::AttributionAgg). The
# eight phases partition each delivered SDU's sender-to-release latency,
# so their totals must sum exactly to latency_total_ns — in integer
# nanoseconds, no tolerance.
ATTR_KEYS = ("sdus", "clean", "errored", "incomplete", "audit_failures",
             "latency_total_ns", "max_nak_repeats", "phases", "reseq_hold",
             "resolution")
PHASE_NAMES = ("first_flight", "nak_wait", "nak_loss", "control_flight",
               "stop_go", "retx_wait", "retx_flight", "enforced")
PHASE_AGG_KEYS = ("count", "total_ns", "max_ns")
RESOLUTION_KEYS = ("cycles", "max_ns", "bound_ns", "violations")


def fail(msg):
    print(f"check_repro: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def validate_metrics(metrics, exp_id, path):
    """The live monitor's per-experiment block: present for every LAMS
    experiment, null only when no audited link ran (analysis-only)."""
    if metrics is None:
        return
    for key in METRICS_KEYS:
        if key not in metrics:
            fail(f"{path}: {exp_id} metrics block missing '{key}'")
    if metrics["audit_findings"] != 0:
        fail(f"{path}: {exp_id} has {metrics['audit_findings']} "
             f"protocol audit finding(s)")
    lat = metrics["delivery_latency"]
    for key in LATENCY_KEYS:
        if key not in lat:
            fail(f"{path}: {exp_id} delivery_latency missing '{key}'")
    if metrics["frames"] > 0 and lat["count"] == 0:
        fail(f"{path}: {exp_id} released frames but recorded no latencies")


def validate_phase_agg(agg, where, path):
    for key in PHASE_AGG_KEYS:
        if not isinstance(agg.get(key), int):
            fail(f"{path}: {where} field '{key}' must be an integer")
    if agg["max_ns"] > agg["total_ns"]:
        fail(f"{path}: {where} max_ns exceeds total_ns")
    if agg["count"] == 0 and agg["total_ns"] != 0:
        fail(f"{path}: {where} accumulated time with zero samples")


def validate_attribution(attr, exp_id, path):
    """The latency-attribution block: present for every LAMS experiment,
    null only when no audited link ran. Phase totals must partition the
    measured latency exactly, and the protocol's worst resolution cycle
    must respect the analytic resolving period."""
    if attr is None:
        return
    for key in ATTR_KEYS:
        if key not in attr:
            fail(f"{path}: {exp_id} attribution block missing '{key}'")
    for key in ("sdus", "clean", "errored", "incomplete", "audit_failures",
                "latency_total_ns", "max_nak_repeats"):
        if not isinstance(attr[key], int):
            fail(f"{path}: {exp_id} attribution '{key}' must be an integer")
    if attr["sdus"] != attr["clean"] + attr["errored"]:
        fail(f"{path}: {exp_id} attribution sdus != clean + errored")
    if attr["audit_failures"] != 0:
        fail(f"{path}: {exp_id} has {attr['audit_failures']} SDU(s) whose "
             f"phase sums disagree with measured latency")
    phases = attr["phases"]
    if tuple(phases) != PHASE_NAMES:
        fail(f"{path}: {exp_id} attribution phases {tuple(phases)} != "
             f"{PHASE_NAMES}")
    for name, agg in phases.items():
        validate_phase_agg(agg, f"{exp_id} phase '{name}'", path)
    validate_phase_agg(attr["reseq_hold"], f"{exp_id} reseq_hold", path)
    total = sum(agg["total_ns"] for agg in phases.values())
    if total != attr["latency_total_ns"]:
        fail(f"{path}: {exp_id} phase totals sum to {total} ns but measured "
             f"latency is {attr['latency_total_ns']} ns — the attribution "
             f"does not partition the latency")
    res = attr["resolution"]
    for key in RESOLUTION_KEYS:
        if not isinstance(res.get(key), int):
            fail(f"{path}: {exp_id} resolution field '{key}' must be "
                 f"an integer")
    if res["violations"] != 0:
        fail(f"{path}: {exp_id} has {res['violations']} NAK cycle(s) "
             f"exceeding the analytic resolving period")
    if res["cycles"] > 0 and res["max_ns"] > res["bound_ns"]:
        fail(f"{path}: {exp_id} worst resolution cycle {res['max_ns']} ns "
             f"exceeds bound {res['bound_ns']} ns yet reported no "
             f"violations")


def validate(doc, path):
    if doc.get("schema") != "lams-dlc.repro/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want 'lams-dlc.repro/1'")
    if not isinstance(doc.get("quick"), bool):
        fail(f"{path}: 'quick' must be a bool")
    exps = doc.get("experiments")
    if not isinstance(exps, list) or not exps:
        fail(f"{path}: 'experiments' must be a non-empty array")
    ids = []
    audited = 0
    for e in exps:
        for key in ("id", "title", "tables", "notes"):
            if key not in e:
                fail(f"{path}: experiment missing '{key}': {e.get('id', '?')}")
        ids.append(e["id"])
        if "metrics" not in e:
            fail(f"{path}: {e['id']} missing 'metrics' block")
        validate_metrics(e["metrics"], e["id"], path)
        if "attribution" not in e:
            fail(f"{path}: {e['id']} missing 'attribution' block")
        validate_attribution(e["attribution"], e["id"], path)
        if (e["metrics"] is None) != (e["attribution"] is None):
            fail(f"{path}: {e['id']} metrics and attribution disagree on "
                 f"whether an audited link ran")
        if e["metrics"] is not None:
            audited += 1
        if "profile" not in e:
            fail(f"{path}: {e['id']} missing 'profile' block")
        if e["profile"] is not None:
            validate_profile_block(e["profile"], e["id"], path)
        perf = e.get("perf")
        if perf is None:
            continue  # an experiment with no simulations (analysis-only)
        for key in ("scheduled", "popped", "peak_depth", "wall_secs",
                    "events_per_sec", "runs"):
            if key not in perf:
                fail(f"{path}: {e['id']} perf block missing '{key}'")
        if perf["popped"] <= 0:
            fail(f"{path}: {e['id']} perf block popped no events")
    if ids != EXPECTED_IDS:
        fail(f"{path}: experiment ids {ids} != {EXPECTED_IDS}")
    if audited == 0:
        fail(f"{path}: no experiment carries live-monitor metrics")
    return doc


BENCH_EXPECTED_IDS = [f"e{i}" for i in range(1, 19)]

MICRO_KEYS = ("name", "iters", "ops", "wall_secs", "ns_per_op",
              "ops_per_sec")
QUEUE_KEYS = ("scheduled", "popped", "cancelled", "peak_depth",
              "horizon_s")


def validate_bench(doc, path):
    """The `lams-dlc.bench/1` schema from bench_suite / bench.py."""
    if doc.get("schema") != "lams-dlc.bench/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"want 'lams-dlc.bench/1'")
    micro = doc.get("micro")
    if not isinstance(micro, list) or not micro:
        fail(f"{path}: 'micro' must be a non-empty array")
    names = []
    for m in micro:
        for key in MICRO_KEYS:
            if key not in m:
                fail(f"{path}: micro kernel missing '{key}': "
                     f"{m.get('name', '?')}")
        names.append(m["name"])
        if m["ops"] < m["iters"] or m["wall_secs"] < 0:
            fail(f"{path}: micro kernel {m['name']} has nonsensical "
                 f"ops/wall fields")
    if len(set(names)) != len(names):
        fail(f"{path}: duplicate micro kernel names: {names}")
    exps = doc.get("experiments")
    if not isinstance(exps, list) or not exps:
        fail(f"{path}: 'experiments' must be a non-empty array")
    ids = [e.get("id") for e in exps]
    if ids != BENCH_EXPECTED_IDS:
        fail(f"{path}: experiment ids {ids} != {BENCH_EXPECTED_IDS}")
    for e in exps:
        for key in ("runs", "wall_secs", "events_per_sec", "queue"):
            if key not in e:
                fail(f"{path}: {e['id']} missing '{key}'")
        q = e["queue"]
        if q is None:
            continue  # analysis-only experiment, no simulations
        for key in QUEUE_KEYS:
            if key not in q:
                fail(f"{path}: {e['id']} queue profile missing '{key}'")
        if q["popped"] <= 0 or e["events_per_sec"] <= 0:
            fail(f"{path}: {e['id']} ran simulations but popped nothing")
    total = doc.get("total")
    if not isinstance(total, dict):
        fail(f"{path}: missing 'total' block")
    for key in ("runs", "wall_secs", "events_per_sec", "popped"):
        if key not in total:
            fail(f"{path}: total block missing '{key}'")
    if total["popped"] <= 0 or total["events_per_sec"] <= 0:
        fail(f"{path}: quick-all total popped no events")
    # The suite-wide profiled pass: optional (older baselines predate
    # it; --skip-profile omits it), but when present it must be a
    # consistent span tree covering its own wall clock.
    if doc.get("profile") is not None:
        validate_profile_block(doc["profile"], "bench profile", path)


# Span-tree validation for the self-profiling output. Shared between
# the standalone `lams-dlc.profile/1` document (--profile) and the
# profile blocks embedded in repro reports and bench documents.

SPAN_KEYS = ("name", "count", "total_ns", "self_ns", "children")
PROFILE_KEYS = ("wall_ns", "counters", "queue_depth", "alloc", "spans")
PROFILE_COUNTERS = ("profile.spans.dropped", "profile.spans.truncated")
MIN_SPAN_COVERAGE = 0.90


def validate_span(span, where, path):
    """One span node: integer ns, children nested inside the parent,
    self time exactly total minus the children's totals."""
    for key in SPAN_KEYS:
        if key not in span:
            fail(f"{path}: {where} span missing '{key}'")
    name = span["name"]
    here = f"{where};{name}"
    for key in ("count", "total_ns", "self_ns"):
        if not isinstance(span[key], int) or span[key] < 0:
            fail(f"{path}: {here} '{key}' must be a non-negative integer")
    if span["count"] == 0:
        fail(f"{path}: {here} recorded no calls")
    child_total = 0
    for child in span["children"]:
        validate_span(child, here, path)
        if child["total_ns"] > span["total_ns"]:
            fail(f"{path}: {here};{child['name']} total "
                 f"{child['total_ns']} ns exceeds its parent's "
                 f"{span['total_ns']} ns")
        child_total += child["total_ns"]
    if span["self_ns"] != span["total_ns"] - child_total:
        fail(f"{path}: {here} self_ns {span['self_ns']} != total "
             f"{span['total_ns']} - children {child_total} — the tree "
             f"does not partition its wall clock")


def validate_profile_block(block, exp_id, path, check_coverage=True):
    """One experiment's (or the bench suite's) profile block."""
    for key in PROFILE_KEYS:
        if key not in block:
            fail(f"{path}: {exp_id} profile block missing '{key}'")
    if not isinstance(block["wall_ns"], int) or block["wall_ns"] <= 0:
        fail(f"{path}: {exp_id} wall_ns must be a positive integer")
    counters = block["counters"]
    for name in PROFILE_COUNTERS:
        if not isinstance(counters.get(name), int) or counters[name] < 0:
            fail(f"{path}: {exp_id} counter '{name}' must be a "
                 f"non-negative integer")
    if counters["profile.spans.dropped"] < counters["profile.spans.truncated"]:
        fail(f"{path}: {exp_id} dropped < truncated — truncated enters "
             f"are a subset of dropped ones")
    depth = block["queue_depth"]
    for key in ("samples", "sum", "max", "mean"):
        if key not in depth:
            fail(f"{path}: {exp_id} queue_depth missing '{key}'")
    alloc = block["alloc"]
    if alloc is not None:
        for key in ("allocs", "bytes"):
            if not isinstance(alloc.get(key), int) or alloc[key] < 0:
                fail(f"{path}: {exp_id} alloc '{key}' must be a "
                     f"non-negative integer")
    spans = block["spans"]
    if not isinstance(spans, list) or not spans:
        fail(f"{path}: {exp_id} recorded no spans")
    for span in spans:
        validate_span(span, exp_id, path)
    if check_coverage:
        covered = sum(s["total_ns"] for s in spans)
        if covered < MIN_SPAN_COVERAGE * block["wall_ns"]:
            fail(f"{path}: {exp_id} top-level spans cover {covered} of "
                 f"{block['wall_ns']} wall ns "
                 f"({100 * covered / block['wall_ns']:.1f}%), below the "
                 f"{100 * MIN_SPAN_COVERAGE:.0f}% floor")


def validate_profile(doc, path):
    """The standalone `lams-dlc.profile/1` document from
    `repro --profile`."""
    if doc.get("schema") != "lams-dlc.profile/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"want 'lams-dlc.profile/1'")
    exps = doc.get("experiments")
    if not isinstance(exps, list) or not exps:
        fail(f"{path}: 'experiments' must be a non-empty array")
    for e in exps:
        if "id" not in e:
            fail(f"{path}: profiled experiment missing 'id'")
        validate_profile_block(e, e["id"], path)


WALL_CLOCK_KEYS = ("perf", "profile")


def strip_perf(node):
    """Null out the wall-clock-bearing blocks (perf, profile) so the
    rest of the document can be compared for determinism."""
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if k in WALL_CLOCK_KEYS:
                out[k] = None
            else:
                out[k] = strip_perf(v)
        return out
    if isinstance(node, list):
        return [strip_perf(v) for v in node]
    return node


def check_attribution_replay(tsv_path, doc, report_path):
    """Every `trace-tools attribution` line must be byte-identical to the
    report's attribution block for that experiment: the offline replay of
    the trace stream and the live monitor must tell the same story."""
    # trace-tools labels experiments with the lowercase run ids; the
    # report uses the paper's uppercase artifact ids.
    blocks = {e["id"].lower(): e["attribution"]
              for e in doc["experiments"]
              if e.get("attribution") is not None}
    try:
        with open(tsv_path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(str(e))
    if not lines:
        fail(f"{tsv_path}: empty attribution replay")
    seen = set()
    for n, line in enumerate(lines, 1):
        if "\t" not in line:
            fail(f"{tsv_path}:{n}: not an '<id>\\t<json>' line")
        exp_id, offline = line.split("\t", 1)
        key = exp_id.lower()
        if key not in blocks:
            fail(f"{tsv_path}:{n}: {exp_id} has no attribution block "
                 f"in {report_path}")
        online = json.dumps(blocks[key], separators=(",", ":"))
        if offline != online:
            fail(f"{tsv_path}:{n}: offline attribution for {exp_id} is not "
                 f"byte-identical to the report block\n  offline: "
                 f"{offline}\n   online: {online}")
        seen.add(key)
    missing = sorted(set(blocks) - seen)
    if missing:
        fail(f"{tsv_path}: no offline attribution for {', '.join(missing)}")


# The live-host stats stream (`lams-dlc-io --stats`). Counters here are
# cumulative, so later snapshots can never show less than earlier ones.
LIVE_COUNTERS = ("io.inject.drops", "io.inject.corruptions",
                 "io.tx.datagrams", "io.rx.feedback", "io.rx.malformed")
LIVE_LINK_KEYS = ("frames", "delivered", "naks", "retransmissions",
                  "max_outstanding")
LIVE_SERIES_KEYS = ("t0_s", "t1_s", "tx", "retx", "delivered", "naks",
                    "releases", "outstanding_hwm")


def validate_live_doc(doc, where, path):
    """One `lams-dlc.live/1` snapshot in isolation."""
    if doc.get("schema") != "lams-dlc.live/1":
        fail(f"{path}:{where}: schema is {doc.get('schema')!r}, "
             f"want 'lams-dlc.live/1'")
    if doc.get("clock_domain") not in ("sim", "wall"):
        fail(f"{path}:{where}: clock_domain is "
             f"{doc.get('clock_domain')!r}, want 'sim' or 'wall'")
    if not isinstance(doc.get("final"), bool):
        fail(f"{path}:{where}: 'final' must be a bool")
    if not isinstance(doc.get("elapsed_s"), (int, float)) or \
            doc["elapsed_s"] < 0:
        fail(f"{path}:{where}: 'elapsed_s' must be a non-negative number")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}:{where}: missing 'counters' block")
    for name in LIVE_COUNTERS:
        if not isinstance(counters.get(name), int) or counters[name] < 0:
            fail(f"{path}:{where}: counter '{name}' must be a "
                 f"non-negative integer")
    progress = doc.get("progress")
    for key in ("sdus", "delivered"):
        if not isinstance(progress.get(key) if isinstance(progress, dict)
                          else None, int):
            fail(f"{path}:{where}: progress '{key}' must be an integer")
    if progress["delivered"] > progress["sdus"]:
        fail(f"{path}:{where}: delivered {progress['delivered']} exceeds "
             f"sdus {progress['sdus']}")
    audit = doc.get("audit")
    for key in ("findings", "records"):
        if not isinstance(audit.get(key) if isinstance(audit, dict)
                          else None, int):
            fail(f"{path}:{where}: audit '{key}' must be an integer")
    if audit["findings"] != 0:
        fail(f"{path}:{where}: live audit reported {audit['findings']} "
             f"finding(s)")
    link = doc.get("link")
    for key in LIVE_LINK_KEYS:
        if not isinstance(link.get(key) if isinstance(link, dict)
                          else None, int):
            fail(f"{path}:{where}: link '{key}' must be an integer")
    lat = doc.get("delivery_latency")
    if not isinstance(lat, dict) or not isinstance(lat.get("count"), int):
        fail(f"{path}:{where}: missing delivery_latency block")
    if lat["count"] > 0 and not isinstance(lat.get("p50_s"), (int, float)):
        fail(f"{path}:{where}: {lat['count']} latencies but no p50_s")
    series = doc.get("series")
    if not isinstance(series, list):
        fail(f"{path}:{where}: 'series' must be an array")
    for n, w in enumerate(series):
        for key in LIVE_SERIES_KEYS:
            if key not in w:
                fail(f"{path}:{where}: series window {n} missing '{key}'")
        if not w["t0_s"] < w["t1_s"]:
            fail(f"{path}:{where}: series window {n} has t0_s "
                 f"{w['t0_s']} >= t1_s {w['t1_s']}")
        for key in ("tx", "retx", "delivered", "naks", "releases"):
            if not isinstance(w[key], int) or w[key] < 0:
                fail(f"{path}:{where}: series window {n} '{key}' must be "
                     f"a non-negative integer")


def check_live(path):
    """A whole `--stats` stream: per-line validity plus the cross-line
    invariants (constant domain, monotone cumulative numbers, exactly
    one final document, at the end, quantiles that agree with the
    document before it over the same samples)."""
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(str(e))
    if not lines:
        fail(f"{path}: empty stats stream")
    docs = []
    for n, line in enumerate(lines, 1):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{n}: {e}")
        validate_live_doc(doc, n, path)
        docs.append(doc)
    domains = {d["clock_domain"] for d in docs}
    if len(domains) != 1:
        fail(f"{path}: clock_domain changed mid-stream: {sorted(domains)}")
    finals = [n for n, d in enumerate(docs, 1) if d["final"]]
    if finals != [len(docs)]:
        fail(f"{path}: want exactly the last document final, "
             f"got final at line(s) {finals} of {len(docs)}")
    monotone = [("elapsed_s", lambda d: d["elapsed_s"]),
                ("progress.delivered", lambda d: d["progress"]["delivered"]),
                ("audit.records", lambda d: d["audit"]["records"])]
    monotone += [(f"counters[{name}]",
                  lambda d, name=name: d["counters"][name])
                 for name in LIVE_COUNTERS]
    for prev_n, (prev, cur) in enumerate(zip(docs, docs[1:]), 1):
        for label, get in monotone:
            if get(cur) < get(prev):
                fail(f"{path}:{prev_n + 1}: {label} went backwards "
                     f"({get(prev)} -> {get(cur)}) — cumulative numbers "
                     f"must be monotone")
    final = docs[-1]
    if final["progress"]["delivered"] != final["progress"]["sdus"]:
        fail(f"{path}: final document delivered "
             f"{final['progress']['delivered']} of "
             f"{final['progress']['sdus']} SDUs")
    # Every document takes its quantiles from the exact samples, so a
    # final document over the same samples as the one before it must
    # report the same quantiles.
    if len(docs) > 1:
        prev, last = docs[-2]["delivery_latency"], final["delivery_latency"]
        if prev["count"] == last["count"]:
            for key in ("p50_s", "p99_s"):
                if prev[key] != last[key]:
                    fail(f"{path}:{len(docs)}: final delivery_latency "
                         f"{key} {last[key]} differs from {prev[key]} on "
                         f"the same {last['count']} samples")


# The model-check sweep document. Every adversary knob must have fired:
# a sweep that never dropped (or never corrupted, ...) a frame proved
# nothing about the protocol's behaviour under that adversary.
MCHECK_KNOBS = ("drops", "dups", "reorders", "corruptions",
                "capacity_losses")
MCHECK_MACHINERY = ("checkpoints", "retransmissions")


def check_mcheck(doc, path):
    if doc.get("schema") != "lams-dlc.mcheck/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"want 'lams-dlc.mcheck/1'")
    for key in ("schedules", "complete", "link_failures", "violations",
                "retransmissions"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            fail(f"{path}: '{key}' must be a non-negative integer")
    if doc["violations"] != 0:
        fail(f"{path}: sweep found {doc['violations']} invariant "
             f"violation(s)")
    if doc["complete"] + doc["link_failures"] != doc["schedules"]:
        fail(f"{path}: complete {doc['complete']} + link_failures "
             f"{doc['link_failures']} != schedules {doc['schedules']}")
    if doc["schedules"] == 0:
        fail(f"{path}: sweep ran no schedules")
    cov = doc.get("coverage")
    if not isinstance(cov, dict):
        fail(f"{path}: missing 'coverage' block")
    for key in MCHECK_KNOBS + MCHECK_MACHINERY + ("steps",):
        if not isinstance(cov.get(key), int) or cov[key] < 0:
            fail(f"{path}: coverage '{key}' must be a non-negative integer")
    for key in MCHECK_KNOBS:
        if cov[key] == 0:
            fail(f"{path}: adversary knob '{key}' never fired — the sweep "
                 f"proved nothing about it")
    for key in MCHECK_MACHINERY:
        if cov[key] == 0:
            fail(f"{path}: recovery machinery '{key}' never ran")
    if cov["steps"] == 0:
        fail(f"{path}: coverage recorded no explorer steps")
    if not isinstance(cov.get("transitions"), dict):
        fail(f"{path}: coverage missing 'transitions' map")


def check_identical(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                fail(f"{a} and {b} differ: the parallel runner changed "
                     f"the serialized stream")
    except OSError as e:
        fail(str(e))


def main():
    args = sys.argv[1:]
    positional, pairs = [], []
    benches, replays, profiles, lives, mchecks = [], [], [], [], []
    single = {"--bench": benches, "--profile": profiles,
              "--attribution": replays, "--live": lives,
              "--mcheck": mchecks}
    i = 0
    while i < len(args):
        if args[i] == "--identical":
            if len(args) - i < 3:
                print(__doc__, file=sys.stderr)
                sys.exit(2)
            pairs.append((args[i + 1], args[i + 2]))
            i += 3
        elif args[i] in single:
            if len(args) - i < 2:
                print(__doc__, file=sys.stderr)
                sys.exit(2)
            single[args[i]].append(args[i + 1])
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if len(positional) not in (1, 2) and not (
            (benches or profiles or lives or mchecks) and not positional):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if replays and not positional:
        # The replay is compared against a report, so one is required.
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    checks = []
    if positional:
        a = validate(load(positional[0]), positional[0])
        checks.append("schema valid")
        if len(positional) == 2:
            b = validate(load(positional[1]), positional[1])
            if strip_perf(a) != strip_perf(b):
                fail("reports differ beyond perf blocks: the parallel runner "
                     "changed simulation results")
            checks.append("worker counts agree")
        for path in replays:
            check_attribution_replay(path, a, positional[0])
        if replays:
            checks.append(f"{len(replays)} attribution replay(s) match")
    for pa, pb in pairs:
        check_identical(pa, pb)
    if pairs:
        checks.append(f"{len(pairs)} stream pair(s) identical")
    for path in benches:
        validate_bench(load(path), path)
    if benches:
        checks.append(f"{len(benches)} bench document(s) valid")
    for path in profiles:
        validate_profile(load(path), path)
    if profiles:
        checks.append(f"{len(profiles)} profile document(s) valid")
    for path in lives:
        check_live(path)
    if lives:
        checks.append(f"{len(lives)} live stats stream(s) valid")
    for path in mchecks:
        check_mcheck(load(path), path)
    if mchecks:
        checks.append(f"{len(mchecks)} model-check sweep(s) covered")
    print(f"check_repro: OK ({', '.join(checks)})")


if __name__ == "__main__":
    main()
