#!/usr/bin/env python3
"""Self-test of the benchmark's output checks; spawns no hopflab process.

    python3 perfbench/selftest.py

Feeds well-formed outputs through run.py's round check and sees every
operation pass, then feeds doctored ones (a wrong dimension, a missing basis
word, a broken rank-nullity, a failed quantization, a Q/F_p disagreement, a
non-zero exit) and sees each counted as failed.  Exits 1 on the first
surprise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def en_report(n: int, r: str) -> dict:
    words = sorted(checks.en_words(n))
    return {
        "family": f"en:{n}",
        "r": r,
        "dims": {"precartier": n * n, "cartier": n * (n - 1) // 2, "z1": 0, "z2": 2 ** (n + 1) + n * (n + 1) // 2,
                 "b2": 2 ** (n + 1), "h2": n * (n + 1) // 2, "rfree": n * n},
        "basis": words,
        "cartier_basis": sorted(checks.en_cartier_pairs(n)),
        "flags": {},
    }


def quant_entries(n: int, n_r: int) -> list[dict]:
    return [
        {"r": f"R{k}", "chi": chi, "hypothesis_1": True, "hypothesis_2": True, "nilpotency": 2,
         "quantized_qtr_ok": True, "failures": []}
        for k in range(n_r)
        for chi in sorted(checks.en_words(n))
    ]


def failed_ops(jobs, outputs: dict, rcs: dict | None = None) -> int:
    results = {
        job.key: run.ProcResult(job, (rcs or {}).get(job.key, 0), 20.0, 0.1, {}, json.dumps(outputs[job.key]).encode())
        for job in jobs
    }
    return sum(bool(p) for plist in run.check_round(jobs, results).values() for p in plist)


def expect(label: str, got, want) -> None:
    print(f"ok   {label}" if got == want else f"FAIL {label}: {got} (want {want})")
    if got != want:
        raise SystemExit(1)


def main() -> int:
    en2 = run.Job("classify-en_2", ("classify", "--family", "en:2", "--r", "enumerate"), "en:2", 3)
    good = [en_report(2, r) for r in ("A0", "A1", "A2")]
    expect("well-formed en:2 reports", failed_ops([en2], {en2.key: good}), 0)

    for label, doctor in [
        ("precartier dimension off", lambda reps: reps[0]["dims"].update(precartier=5)),
        ("basis word missing", lambda reps: reps[1]["basis"].pop()),
        ("symmetric Cartier pair", lambda reps: reps[2].update(cartier_basis=["(g^1*x{1} (x) x{1})"])),
        ("rank-nullity broken", lambda reps: reps[0]["dims"].update(b2=7)),
        ("z2 below b2", lambda reps: reps[0]["dims"].update(z2=3)),
        ("report missing", lambda reps: reps.pop()),
    ]:
        doctored = copy.deepcopy(good)
        doctor(doctored)
        expect(label, failed_ops([en2], {en2.key: doctored}), 1)
    expect("non-zero exit", failed_ops([en2], {en2.key: good}, {en2.key: 1}), 3)

    ac = run.Job("classify-ac2n_2", ("classify", "--family", "ac2n:2", "--r", "enumerate"), "ac2n:2", 1)
    ac_rep = {"family": "ac2n:2", "r": "q", "dims": {"precartier": 1, "z1": 0, "z2": 9, "b2": 8},
              "basis": ["(x (x) x*g)"], "cartier_basis": []}
    expect("well-formed ac2n:2 report", failed_ops([ac], {ac.key: ac_rep}), 0)
    expect("x (x) x*g missing", failed_ops([ac], {ac.key: dict(ac_rep, basis=["(x (x) x)"])}), 1)

    h2 = run.workload_jobs("h2n2")
    h2_rep = {"family": "h2n2:3", "r": run.H2N2_R, "dims": {"precartier": 0, "z1": 0, "z2": 18, "b2": 18},
              "basis": [], "cartier_basis": []}
    expect("well-formed h2n2 report", failed_ops(h2, {h2[0].key: h2_rep}), 0)
    expect("report for another R", failed_ops(h2, {h2[0].key: dict(h2_rep, r="bichar:[[0,0],[0,0]]")}), 1)
    expect("h2n2 precartier 1", failed_ops(h2, {h2[0].key: dict(h2_rep, dims=dict(h2_rep["dims"], precartier=1))}), 1)

    qjobs = run.workload_jobs("quantize")
    n = int(run.QUANT_FAMILY.split(":")[1])
    qgood = {job.key: quant_entries(n, run.QUANT_RS) for job in qjobs}
    expect("well-formed quantize outputs", failed_ops(qjobs, qgood), 0)
    qbad = copy.deepcopy(qgood)
    qbad[qjobs[0].key][4]["quantized_qtr_ok"] = False
    # the reference entry fails its own check and no longer agrees with F_p
    expect("quantized QTR fails over Q", failed_ops(qjobs, qbad), 2)
    qbad = copy.deepcopy(qgood)
    qbad[qjobs[1].key][7]["nilpotency"] = 3
    expect("nilpotency 3 over F_p", failed_ops(qjobs, qbad), 1)
    qbad = copy.deepcopy(qgood)
    qbad[qjobs[1].key][2]["field"] = "F_97"
    expect("F_p entry disagrees with Q", failed_ops(qjobs, qbad), 1)

    return 0


if __name__ == "__main__":
    sys.exit(main())
