#!/usr/bin/env python3
"""Cold-process benchmark of the hopflab classification engine.

    python3 perfbench/run.py --workload {table,h2n2,quantize} --seed N --seconds S --trace {0,1}

Run from the root of a hopflab checkout.  One run repeats whole rounds until
S seconds have passed (at least one round).  A round starts every process of
the workload once, one at a time, in an order drawn from the seed; each
process is a fresh interpreter running the `hopflab` CLI through
``perfbench/child.py``.  Every output is checked against closed forms written
out in ``perfbench/checks.py``, never against the solver.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; after its rounds the run starts set-up
probes (processes that stop once the family is built) until it has
``SETUP_SAMPLES`` set-up times per process.  With ``--trace 1`` each layer
function is wrapped and the metrics are the per-layer ones.  Workload and
metric names and units come from ``BENCHMARK.json``.  The sha256 of the round's report output, in canonical job
order, is printed on an earlier line (``report_sha256 ...``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = Path("perfbench") / "results"  # outputs and side files of untraced runs
TRACES = Path("perfbench") / "traces"  # the same for traced runs, spans included
RUN_DEADLINE_S = 170.0  # a run that has not ended by then is killed and fails
PYTHONHASHSEED = "0"
SETUP_SAMPLES = 3  # set-up times per process and run, rounds and probes together
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Job:
    key: str  # file-safe name, unique in its workload
    args: tuple  # hopflab CLI arguments
    family: str
    ops: int  # reports or quantized chi the process must produce
    r: str | None = None  # the R spec every report must name, when one is given


def _classify(family: str, ops: int, r: str = "enumerate") -> Job:
    key = f"classify-{family.replace(':', '_').replace(',', '_')}"
    named = None if r in ("enumerate", "none") else r
    return Job(key, ("classify", "--family", family, "--r", r), family, ops, named)


TABLE = [
    _classify("en:1", 3),
    _classify("en:2", 3),
    _classify("en:3", 3),
    _classify("ac2n:2", 4),
    _classify("ac2n:3", 4),
    _classify("ac2n:4", 4),
    _classify("h8", 8),
    _classify("radford:2,2", 1, r="none"),
    _classify("radford:2,3", 1, r="none"),
    _classify("radford:3,2", 1, r="none"),
    _classify("ac4dual", 1),
    _classify("group:2,2,2", 1),
]

# The first of the nine group-supported R-matrices of H_18 that `enumerate-r`
# finds.  It is fixed rather than drawn by the seed: peak RSS differs by R
# (about 43 MB for this one, 49 MB for others), which would spread the metric.
H2N2_R = "bichar:[[0,0],[1,0]]"

QUANT_FAMILY = "en:3"
QUANT_FIELDS = ("Q", "prime:97")  # the first is the reference for the agreement check
QUANT_RS = 3  # registered R-matrices of E(n) under --r enumerate, each with n^2 chi


def workload_jobs(name: str) -> list[Job]:
    """The processes of one round, in canonical order."""
    if name == "table":
        return list(TABLE)
    if name == "h2n2":
        return [_classify("h2n2:3", 1, r=H2N2_R)]
    if name == "quantize":
        args = ("quantize", "--family", QUANT_FAMILY, "--r", "enumerate")
        ops = QUANT_RS * len(checks.en_words(int(QUANT_FAMILY[3:])))
        return [
            Job(f"quantize-{field.replace(':', '_')}", args + (() if field == "Q" else ("--field", field)), QUANT_FAMILY, ops)
            for field in QUANT_FIELDS
        ]
    raise ValueError(f"unknown workload {name!r}")


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout


@dataclass
class ProcResult:
    job: Job
    rc: int
    maxrss_mb: float
    setup_s: float | None
    side: dict
    output: bytes


def run_job(job: Job, out_dir: Path, mode: str) -> ProcResult:
    """Run ``job`` in a fresh child process; ``mode`` is child.py's run, trace or setup."""
    out_path = out_dir / f"{job.key}.json"
    side_path = out_dir / f"{job.key}.side.json"
    for p in (out_path, side_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(side_path), mode, "--", *job.args, "--out", str(out_path)]
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
    with open(out_dir / f"{job.key}.err", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    side = json.loads(side_path.read_text()) if side_path.exists() else {}
    built_at = side.get("built_at")
    return ProcResult(
        job=job,
        rc=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if built_at is None else built_at - spawned,
        side=side,
        output=out_path.read_bytes() if out_path.exists() else b"",
    )


def check_round(jobs: list[Job], results: dict[str, ProcResult]) -> dict[str, list[list[str]]]:
    """Problem lists per job key, one per operation the job should produce."""
    payloads, problems = {}, {}
    for job in jobs:
        res = results[job.key]
        try:
            payloads[job.key] = json.loads(res.output) if res.rc == 0 else None
        except ValueError:
            payloads[job.key] = None
        payload = payloads[job.key]
        if payload is None:
            problems[job.key] = [[f"exit {res.rc}, no readable output"]] * job.ops
        elif job.args[0] == "quantize":
            problems[job.key] = checks.check_quantized(job.family, QUANT_RS, payload)
        else:
            problems[job.key] = checks.check_classify(job.family, job.ops, payload, job.r)
    quantized = [job for job in jobs if job.args[0] == "quantize"]
    for job in quantized[1:]:
        checks.check_agreement(payloads[quantized[0].key], payloads[job.key], problems[job.key])
    return problems


def layer_metrics(results: list[ProcResult], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.  ``<layer>.<function>.self_s`` and
    ``.calls`` come from spans, the rest from counters the traced child keeps."""
    out = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    out["trace.wall_s"] = wall
    for res in results:
        for fn, agg in res.side.get("layers", {}).items():
            for stat in ("self_s", "calls"):
                name = f"{fn}.{stat}"
                if name in out:
                    out[name] += agg[stat]
        for name, value in res.side.get("counts", {}).items():
            if name == "scalars.cyc_cache.entries":
                out[name] = max(out[name], value)
            elif name in out:
                out[name] += value
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src") / "hopflab" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from the root of a hopflab checkout (src/hopflab/cli.py not found)\n")
        return 2

    started = time.monotonic()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, RUN_DEADLINE_S)
    rng = random.Random(args.seed)
    jobs = workload_jobs(args.workload)
    out_dir = (TRACES if args.trace else RESULTS) / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = args.trace == 1
    mode = "trace" if trace else "run"

    walls, rss, layer_rounds = [], [], []
    setups: dict[str, list[float]] = {job.key: [] for job in jobs}  # set-up times per process
    attempted = failed = 0
    first_failures: list[str] = []
    digest = None
    try:
        while True:
            order = list(jobs)
            rng.shuffle(order)
            t0 = time.monotonic()
            results = {job.key: run_job(job, out_dir, mode) for job in order}
            wall = time.monotonic() - t0
            walls.append(wall)
            for key, res in results.items():
                if res.setup_s is not None:
                    setups[key].append(res.setup_s)
            rss.append(max(r.maxrss_mb for r in results.values()))
            if trace:
                layer_rounds.append(layer_metrics(list(results.values()), wall))
            for key, plist in check_round(jobs, results).items():
                attempted += len(plist)
                for i, p in enumerate(plist):
                    if p:
                        failed += 1
                        if len(first_failures) < 10:
                            first_failures.append(f"{key} op {i}: {'; '.join(p)}")
            if digest is None:
                h = hashlib.sha256()
                for job in jobs:
                    h.update(results[job.key].output)
                digest = h.hexdigest()
            if time.monotonic() - started >= args.seconds:
                break
        if not trace:
            probe_dir = out_dir / "setup"
            probe_dir.mkdir(exist_ok=True)
            for _ in range(SETUP_SAMPLES - len(walls)):
                order = list(jobs)
                rng.shuffle(order)
                for job in order:
                    res = run_job(job, probe_dir, "setup")
                    if res.setup_s is not None:
                        setups[job.key].append(res.setup_s)
    except RunTimeout:
        sys.stderr.write(f"perfbench: run exceeded {RUN_DEADLINE_S:.0f}s, child killed\n")
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    for line in first_failures:
        print(f"FAILED {line}")
    print(f"report_sha256 {args.workload} {digest}")
    print(f"rounds {len(walls)} walls_s {' '.join(f'{w:.3f}' for w in walls)}")
    if trace:
        values = {m["name"]: statistics.median(r[m["name"]] for r in layer_rounds) for m in SPEC["per_layer"]}
        reported = SPEC["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": sum(statistics.median(s) for s in setups.values() if s),
            "peak_rss_mb": max(rss),
        }
        reported = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
