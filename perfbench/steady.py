#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same commit, compared.

    python3 perfbench/steady.py

Run from the root of a hopflab checkout.  For each workload of BENCHMARK.json
it makes two sets of ten runs of ``perfbench/run.py``, each run with another
seed (set k uses seeds k*1000+1 ... k*1000+10), with ``run_seconds`` from
BENCHMARK.json.  For every end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median) and the bound,
and passes the metric when each set's spread and the second median's shift
against the first stay within the bound.  The failed share of operations must
be identical across sets.  Three pairs of an untraced and a traced run per
workload, each pair with one seed and run back to back, then give the tracing
overhead: the median over the pairs of ``trace.wall_s`` minus ``wall_s``.
Everything is also written to ``perfbench/results/steady.json``.  Exits 1
when any gate fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10  # runs per set
SETS = 2
# Pairs of untraced and traced runs for the tracing overhead.  The machine's
# speed drifts by up to a third within minutes, so only runs made back to back
# are compared.
OVERHEAD_PAIRS = 3


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def trace_overhead(spec: dict, workload: str) -> float:
    diffs = []
    for i in range(1, OVERHEAD_PAIRS + 1):
        untraced = bench(spec, workload, 9000 + i, 0)["metrics"]["wall_s"]["value"]
        traced = bench(spec, workload, 9000 + i, 1)["metrics"]["trace.wall_s"]["value"]
        diffs.append(traced - untraced)
        print(f"{workload:9s} trace overhead pair {i}: traced {traced:.3f}s - untraced {untraced:.3f}s = {diffs[-1]:+.3f}s", flush=True)
    overhead = statistics.median(diffs)
    print(f"{workload:9s} trace overhead: median {overhead:+.3f}s", flush=True)
    return overhead


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    report: dict = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(1, SETS + 1):
            runs = []
            for i in range(1, RUNS + 1):
                res = bench(spec, workload, k * 1000 + i, 0)
                print(f"{workload} set {k} run {i}: " + " ".join(f"{n}={m['value']:.4f}" for n, m in res["metrics"].items()), flush=True)
                runs.append(res)
            sets.append(runs)
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets}
        rows = []
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for runs in sets:
                q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
                stats.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
            row = {"metric": name, "bound": bound, "sets": stats}
            spread_ok = all(s["spread"] <= bound for s in stats)
            shift = stats[1]["median"] / stats[0]["median"] - 1
            if metric["better"] == "higher":
                shift = -shift
            row["shift"] = shift
            row["ok"] = spread_ok and shift <= bound
            ok &= row["ok"]
            rows.append(row)
            cells = "  ".join(f"med {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] spread {s['spread']:.4f}" for s in stats)
            print(f"{workload:9s} {name:12s} {cells}  shift {shift:+.4f}  bound {bound}  {'ok' if row['ok'] else 'FAIL'}", flush=True)
        share_ok = len({f / a for f, a in shares}) == 1
        ok &= share_ok
        print(f"{workload:9s} failed/attempted per set: {sorted(shares)}  {'ok' if share_ok else 'FAIL'}", flush=True)
        report[workload] = {"metrics": rows, "failed_attempted": sorted(shares)}
        report[workload]["trace_overhead_s"] = trace_overhead(spec, workload)
    out = Path("perfbench") / "results" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
