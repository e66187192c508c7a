#!/usr/bin/env python3
"""Prime-field cross-validation: rerun the key classifications over F_p
(p = 1 mod 24 so every needed root of unity exists) and diff the dimensions
and flags of each report against the rational/cyclotomic run's (among the
flags, ``cartier_equals_coboundary_cut`` compares two cuts by an
intersection); run ``verify_hopf`` over F_p on each case family and on each
family of the batch (``run_classifications.FAMILIES``) and compare its
outcome and check count with the exact field's; run `enumerate-r` on
H_18 over Q(zeta_3) and over F_p, so each bicharacter survivor of the closed
form is verified over a second field; then run the E(3) quantization over Q
and over F_p and compare its reports entry by entry.

    python scripts/crosscheck_prime_field.py [--prime P]
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_classifications import FAMILIES
from hopflab.cli import main as cli_main
from hopflab.families import build
from hopflab.hopf import verify_hopf
from hopflab.precartier import classify
from hopflab.scalars import FieldSpec

CASES = [
    ("en:2", "en-a:[[1,0],[0,1]]"),
    ("ac2n:3", "ac22:q=1,a=1"),
    ("h8", "h8pm:+1,-1"),
    ("h8", "h8omega:z8"),
    ("h2n2:3", "bichar:[[0,0],[1,0]]"),
    ("radford:2,2", None),
]

# every case family, then every batch family (F_97 holds zeta_3, zeta_4 and zeta_8)
VERIFY_FAMILIES = list(dict.fromkeys([family for family, _ in CASES] + [family for family, _ in FAMILIES]))

ENUMERATE_FAMILY = "h2n2:3"
QUANTIZE_FAMILY = "en:3"

DIM_KEYS = ("precartier", "cartier", "z1", "z2", "b2", "h2")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=97)
    args = ap.parse_args()
    fp = FieldSpec("prime", p=args.prime)

    bad = 0
    for family, rtext in CASES:
        exact = classify(family, rtext)
        modp = classify(family, rtext, fp)
        diffs = {
            k: (exact.dims.get(k), modp.dims.get(k))
            for k in DIM_KEYS
            if exact.dims.get(k) != modp.dims.get(k)
        }
        diffs.update(
            (k, (exact.flags.get(k), modp.flags.get(k)))
            for k in exact.flags.keys() | modp.flags.keys()
            if exact.flags.get(k) != modp.flags.get(k)
        )
        mark = "ok" if not diffs else "DIFF"
        if diffs:
            bad += 1
        print(f"{mark:5s} {family:12s} r={rtext}  {exact.field} vs {modp.field}  dims={modp.dims}  flags={modp.flags}"
              + (f"  differences: {diffs}" if diffs else ""))

    for family in VERIFY_FAMILIES:
        exact = verify_hopf(build(family, checked=False))
        modp = verify_hopf(build(family, fp, checked=False))
        same = exact.ok and modp.ok and exact.checks == modp.checks
        if not same:
            bad += 1
        print(f"{'ok' if same else 'DIFF':5s} verify_hopf {family:12s} {exact.checks} checks, ok={exact.ok} "
              f"vs F_{args.prime} {modp.checks} checks, ok={modp.ok}")

    argv = ["enumerate-r", "--family", ENUMERATE_FAMILY]
    exact = [entry["r"] for entry in cli_entries(argv)]
    modp = [entry["r"] for entry in cli_entries(argv + ["--field", str(fp)])]
    same = bool(exact) and exact == modp
    if not same:
        bad += 1
    print(f"{'ok' if same else 'DIFF':5s} enumerate-r {ENUMERATE_FAMILY}  exact vs F_{args.prime}  "
          f"{len(exact)} vs {len(modp)} verified specs")

    argv = ["quantize", "--family", QUANTIZE_FAMILY, "--r", "enumerate"]
    exact = cli_entries(argv)
    modp = cli_entries(argv + ["--field", str(fp)])
    diffs = [i for i, (a, b) in enumerate(zip(exact, modp)) if a != b]
    if len(exact) != len(modp):
        diffs.append(f"{len(exact)} vs {len(modp)} entries")
    mark = "ok" if not diffs else "DIFF"
    if diffs:
        bad += 1
    print(f"{mark:5s} quantize {QUANTIZE_FAMILY} --r enumerate  Q vs F_{args.prime}  {len(exact)} entries"
          + (f"  differing entries: {diffs}" if diffs else ""))
    return 1 if bad else 0


def cli_entries(argv: list) -> list:
    """The JSON list a `hopflab` command prints; a nonzero exit status ends
    the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"hopflab {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


if __name__ == "__main__":
    sys.exit(main())
