#!/usr/bin/env python3
"""Write or check a BENCH_<pr>.json: one change's benchmark pairs.

Usage:
  bench_trajectory.py write --pr N --parent-commit P RUNS
  bench_trajectory.py --check

write reads the result files of alternating parent/change runs of the
benchmark (bench/out/result-<workload>.json, one per run) kept under RUNS
as RUNS/<side>/<workload>-<n>/result-<workload>.json, where side is
parent or change and n numbers the pairs: the parent and change runs with
the same n form a pair. One traced run (--trace 1) per side may sit
beside them as RUNS/<side>/<workload>-trace/result-<workload>-trace.json.
For each workload it records the seeds, and for each end-to-end metric
of BENCHMARK.json the parent and change medians
with their [q1, q3] (statistics.quantiles, n=4, the exclusive method the
benchmark's spread uses), the number of pairs the change won (ties win
for neither side) and the paired ratio, change over parent pair by pair,
as median and [q1, q3]. For a sim workload each wall-clock metric also
gets ratio_normalised, the paired ratio of values put at host_speed: a
run's rate divided by its host_speed and its times multiplied by it.
The served workloads get none, as that scaling widens their spread.
Every run is kept too: its side, pair, seed, failed
and attempted op counts, host info, median host_speed over its rounds (0
when the result has none) and metric values. When both sides of a
workload have a traced run, its per_layer block holds, for each
per-layer metric of BENCHMARK.json, the value of the parent's and of the
change's traced run, and each traced run's seed and op counts; no bound
applies to it, as it attributes and does not gate. The file is
BENCH_<pr>.json at the repository root. Its commit is null: the change is measured
before it is committed, and the commit that adds the file is the one
measured.

--check validates every BENCH_*.json at the repository root against
its schema, the per_layer block where a workload has one, and exits
non-zero on the first problem. Files of the first schema predate the
ratios and carry none.
"""
import argparse
import glob
import json
import os
import re
import statistics
import sys

SCHEMA = "bench-trajectory/v2"
# OLD_SCHEMA is the schema of files written before the paired ratios.
OLD_SCHEMA = "bench-trajectory/v1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def fail(msg):
    print(f"bench_trajectory: {msg}", file=sys.stderr)
    sys.exit(1)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(xs):
    """Median and [q1, q3] of xs; the quartiles of one value are itself."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def wall_scale(unit):
    """How host_speed puts a wall-clock metric of this unit at reference
    speed: -1 divides (a rate), 1 multiplies (a time), 0 leaves it (not a
    wall-clock value: sizes, counts and virtual-time rates)."""
    return {"1/s": -1, "s": 1, "us": 1}.get(unit, 0)


def is_sim(workload):
    return workload.startswith("sim_")


def paired_ratio(parent, change):
    """Median and [q1, q3] of change/parent over the pairs."""
    if not all(parent):
        fail("a parent run reads 0: no paired ratio")
    return summary([c / p for p, c in zip(parent, change)])


def won(parent, change, better):
    if better == "higher":
        return change > parent
    return change < parent


def load_runs(runs_dir):
    """Map workload -> pair number -> side -> result, and workload -> side
    -> traced result, from RUNS."""
    found, traced = {}, {}
    for side in SIDES:
        for path in sorted(glob.glob(os.path.join(runs_dir, side, "*", "result-*.json"))):
            m = re.fullmatch(r"(.+)-(\d+|trace)", os.path.basename(os.path.dirname(path)))
            if not m:
                fail(f"{path}: run directory is not <workload>-<n> or <workload>-trace")
            with open(path) as f:
                res = json.load(f)
            if res.get("workload") != m.group(1) or res.get("trace") != (m.group(2) == "trace"):
                fail(f"{path}: holds workload {res.get('workload')!r} traced={res.get('trace')}, not {m.group(0)!r}")
            if m.group(2) == "trace":
                traced.setdefault(m.group(1), {})[side] = res
            else:
                found.setdefault(m.group(1), {}).setdefault(int(m.group(2)), {})[side] = res
    return found, traced


def per_layer(spec, sides):
    """The per_layer block of one workload from its traced runs."""
    return {
        "runs": {s: {k: sides[s][k] for k in ("seed", "attempted", "failed", "correct")} for s in SIDES},
        "metrics": {
            m["name"]: {
                "unit": m["unit"],
                "better": m["better"],
                **{s: sides[s]["metrics"][m["name"]]["value"] for s in SIDES},
            }
            for m in spec["per_layer"]
        },
    }


def write(args):
    spec = contract()
    workloads = []
    found, traced = load_runs(args.runs)
    if set(traced) - set(found):
        fail(f"traced runs of {sorted(set(traced) - set(found))} have no pairs")
    for name, pairs in sorted(found.items()):
        if name not in {w["name"] for w in spec["workloads"]}:
            fail(f"workload {name!r} is not in BENCHMARK.json")
        complete = {n: p for n, p in sorted(pairs.items()) if len(p) == 2}
        if len(complete) != len(pairs):
            fail(f"{name}: pairs {sorted(set(pairs) - set(complete))} lack a side")
        runs = []
        for n, p in complete.items():
            for side in SIDES:
                res = p[side]
                runs.append({
                    "side": side,
                    "pair": n,
                    "seed": res["seed"],
                    "attempted": res["attempted"],
                    "failed": res["failed"],
                    "host": res["host"],
                    "host_speed": statistics.median(res.get("per_round", {}).get("host_speed") or [0]),
                    "metrics": {k: v["value"] for k, v in sorted(res["metrics"].items())},
                })
        metrics = {}
        speeds = {s: [r["host_speed"] for r in runs if r["side"] == s] for s in SIDES}
        for m in spec["end_to_end"]:
            vals = {s: [p[s]["metrics"][m["name"]]["value"] for p in complete.values()] for s in SIDES}
            metrics[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": summary(vals["parent"]),
                "change": summary(vals["change"]),
                "pairs_won": sum(won(a, b, m["better"]) for a, b in zip(vals["parent"], vals["change"])),
                "ratio": paired_ratio(vals["parent"], vals["change"]),
            }
            scale = wall_scale(m["unit"])
            if is_sim(name) and scale:
                if not all(speeds["parent"] + speeds["change"]):
                    fail(f"{name}: a run has no host_speed to normalise by")
                norm = {s: [v * h**scale for v, h in zip(vals[s], speeds[s])] for s in SIDES}
                metrics[m["name"]]["ratio_normalised"] = paired_ratio(norm["parent"], norm["change"])
        workloads.append({
            "workload": name,
            "seeds": sorted({r["seed"] for r in runs}),
            "pairs": len(complete),
            "metrics": metrics,
            "runs": runs,
        })
        sides = traced.get(name, {})
        if sides:
            if len(sides) != len(SIDES):
                fail(f"{name}: a traced run only on {sorted(sides)}")
            workloads[-1]["per_layer"] = per_layer(spec, sides)
    if not workloads:
        fail(f"no runs under {args.runs}")
    doc = {
        "schema": SCHEMA,
        "pr": args.pr,
        "commit": None,
        "parent_commit": args.parent_commit,
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
    }
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    check_file(out)
    print(f"bench_trajectory: wrote {out}: " + ", ".join(f"{w['workload']} {w['pairs']} pairs" for w in workloads))


def check_file(path):
    def bad(msg):
        fail(f"{path}: {msg}")

    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in (SCHEMA, OLD_SCHEMA):
        bad(f"schema {doc.get('schema')!r}, want {SCHEMA!r}")
    ratios = doc["schema"] == SCHEMA
    m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    if not m or doc.get("pr") != int(m.group(1)):
        bad(f"pr {doc.get('pr')!r} does not match the file name")
    if "commit" not in doc or doc["commit"] is not None:
        bad(f"commit {doc.get('commit')!r}, want null")
    if not isinstance(doc.get("parent_commit"), str) or not re.fullmatch(r"[0-9a-f]{7,40}", doc["parent_commit"]):
        bad(f"parent_commit {doc.get('parent_commit')!r} is not a commit hash")
    spec = contract()
    names = {w["name"] for w in spec["workloads"]}
    if not doc.get("workloads"):
        bad("no workloads")
    for w in doc["workloads"]:
        where = w.get("workload")
        if where not in names:
            bad(f"workload {where!r} is not in BENCHMARK.json")
        runs = w.get("runs", [])
        if w.get("pairs", 0) < 1 or len(runs) != 2 * w["pairs"]:
            bad(f"{where}: {len(runs)} runs for {w.get('pairs')} pairs")
        for r in runs:
            if r.get("side") not in SIDES or not isinstance(r.get("host"), dict) or not isinstance(r.get("metrics"), dict):
                bad(f"{where}: malformed run {str(r)[:120]}")
        if w.get("seeds") != sorted({r["seed"] for r in runs}):
            bad(f"{where}: seeds {w.get('seeds')} do not match its runs")
        for e in spec["end_to_end"]:
            got = w.get("metrics", {}).get(e["name"])
            if got is None:
                bad(f"{where}: no {e['name']}")
            for side in SIDES:
                s = got.get(side, {})
                if not all(isinstance(s.get(k), (int, float)) for k in ("median", "q1", "q3")):
                    bad(f"{where}: {e['name']} {side} lacks median/q1/q3")
            if not 0 <= got.get("pairs_won", -1) <= w["pairs"]:
                bad(f"{where}: {e['name']} pairs_won {got.get('pairs_won')} outside [0, {w['pairs']}]")
            want = {"ratio"} if ratios else set()
            if ratios and is_sim(where) and wall_scale(e["unit"]):
                want.add("ratio_normalised")
            if want != {k for k in ("ratio", "ratio_normalised") if k in got}:
                bad(f"{where}: {e['name']} has ratios {sorted(k for k in got if k.startswith('ratio'))}, want {sorted(want)}")
            for k in want:
                r = got[k]
                if not all(isinstance(r.get(q), (int, float)) and r[q] > 0 for q in ("median", "q1", "q3")):
                    bad(f"{where}: {e['name']} {k} lacks a positive median/q1/q3")
        if "per_layer" in w:
            check_per_layer(spec, w["per_layer"], lambda msg: bad(f"{where}: per_layer: {msg}"))


def check_per_layer(spec, block, bad):
    runs = block.get("runs", {})
    for side in SIDES:
        r = runs.get(side)
        if not isinstance(r, dict) or not all(isinstance(r.get(k), int) for k in ("seed", "attempted", "failed")):
            bad(f"malformed {side} run {str(r)[:120]}")
    got = block.get("metrics", {})
    if set(got) != {m["name"] for m in spec["per_layer"]}:
        bad(f"metrics {sorted(set(got) ^ {m['name'] for m in spec['per_layer']})} differ from BENCHMARK.json's")
    for m in spec["per_layer"]:
        g = got[m["name"]]
        if (g.get("unit"), g.get("better")) != (m["unit"], m["better"]):
            bad(f"{m['name']} unit/better {g.get('unit')!r}/{g.get('better')!r}")
        if not all(isinstance(g.get(side), (int, float)) for side in SIDES):
            bad(f"{m['name']} lacks a parent or change value")


def main():
    if sys.argv[1:] == ["--check"]:
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        for path in paths:
            check_file(path)
        print(f"bench_trajectory: {len(paths)} file(s) valid")
        return
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write")
    w.add_argument("--pr", type=int, required=True)
    w.add_argument("--parent-commit", required=True)
    w.add_argument("runs")
    write(ap.parse_args())


if __name__ == "__main__":
    main()
