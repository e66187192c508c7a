#!/usr/bin/env python3
"""Batch driver: reproduce every classification and write the reports.

Runs each family with its registered (or enumerated) R-matrices, prints one
summary line per report, and writes the full JSON bundle and prints its
sha256, then how many exact kernels each route of ``linalg.kernel_of_rows``
found and how many of its modular passes it ran again on the next prime
(``retries``).  Exits nonzero when any report misses its expected dimensions.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hopflab.families import build
from hopflab.linalg import ROUTES
from hopflab.precartier import classify
from hopflab.rmatrices import enumerate_rmatrices

FAMILIES = [
    ("en:1", "registered"),
    ("en:2", "registered"),
    ("en:3", "registered"),
    ("ac2n:2", "registered"),
    ("ac2n:3", "registered"),
    ("ac2n:4", "registered"),
    ("h8", "registered"),
    ("h2n2:3", "enumerate"),
    ("radford:2,2", "rfree"),
    ("radford:2,3", "rfree"),
    ("radford:3,2", "rfree"),
    ("ac4dual", "registered"),
    ("group:2,2,2", "registered"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="classification_reports.json")
    args = ap.parse_args()

    bundle = []
    failures = 0
    for family, mode in FAMILIES:
        t0 = time.time()
        specs = [None] if mode == "rfree" else enumerate_rmatrices(build(family))
        reports = [classify(family, spec) for spec in specs]
        for rep in reports:
            d = rep.to_dict()
            bundle.append(d)
            ok = d["flags"].get("matches_paper_theorem")
            mark = "ok" if ok in (True, None) else "MISMATCH"
            if mark == "MISMATCH":
                failures += 1
            dims = " ".join(f"{k}={v}" for k, v in d["dims"].items())
            print(f"{mark:8s} {d['family']:12s} r={str(d['r']):30.30s} {dims}")
        print(f"         {family}: {len(reports)} report(s) in {time.time() - t0:.1f}s")

    data = (json.dumps(bundle, indent=2) + "\n").encode()
    Path(args.out).write_bytes(data)
    print(f"\nwrote {len(bundle)} reports to {args.out}")
    print(f"bundle sha256 {hashlib.sha256(data).hexdigest()}")
    print("kernel routes " + " ".join(f"{route}={n}" for route, n in ROUTES.items()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
