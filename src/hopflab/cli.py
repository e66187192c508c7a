"""Command-line front end: build/verify families, batch classification,
cohomology dimensions, quantization checks, and R-matrix enumeration.

Exit status: 0 when every check passes and every report matches the expected
classification table; 1 on verification failures or expected-dimension
mismatches (with a diff); 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .expressions import ExprError, format_tensor, parse_element
from .families import FamilySpec, ParameterError, build
from .hopf import Tensor, verify_hopf
from .rmatrices import (
    FamilyMismatch,
    RSpec,
    RSpecError,
    build_r,
    enumerate_rmatrices,
    verify_qtr,
)
from .scalars import FieldSpec, OrderUnavailable


@dataclass
class RunConfig:
    family: str
    r: str | None = None  # RSpec text, "enumerate", "none", or None
    task: str = "classify"
    field: str | None = None
    out: str | None = None
    fmt: str = "json"
    chi: str | None = None

    def field_spec(self):
        return FieldSpec.parse(self.field) if self.field else None


def _resolve_rs(cfg: RunConfig, h) -> list[RSpec] | None:
    """None means R-free; otherwise the R specs to iterate.  Each task
    builds R from its spec and checks it."""
    if cfg.r in (None, "none"):
        return None
    if cfg.r == "enumerate":
        return enumerate_rmatrices(h)
    return [RSpec.parse(cfg.r)]


def _emit(cfg: RunConfig, payload) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _as_table(payload) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_table(payload) -> str:
    reports = payload if isinstance(payload, list) else [payload]
    lines = []
    for rep in reports:
        if "dims" in rep:
            dims = " ".join(f"{k}={v}" for k, v in rep["dims"].items())
            flag_str = " ".join(f"{k}={v}" for k, v in rep.get("flags", {}).items())
            lines.append(f"{rep.get('family','?'):14s} r={str(rep.get('r')):28s} {dims}  {flag_str}")
        else:
            lines.append(json.dumps(rep))
    return "\n".join(lines)


def _report_failures(reports: list[dict]) -> list[str]:
    problems = []
    for rep in reports:
        flags = rep.get("flags", {})
        if flags.get("matches_paper_theorem") is False:
            expected = rep.get("expected", {}).get("dims", {})
            got = {k: rep["dims"].get(k) for k in expected}
            problems.append(
                f"{rep['family']} r={rep.get('r')}: expected dims {expected}, computed {got}"
            )
        for key in ("r_verified", "counit_auto_satisfied", "z2_equals_b2", "partial_member_present"):
            if flags.get(key) is False:
                problems.append(f"{rep['family']} r={rep.get('r')}: flag {key} is False")
    return problems


def run(cfg: RunConfig) -> int:
    """Execute the configured task; returns the exit status.  A task imports
    the modules only it runs (``precartier``, ``cohomology``, ``quantize``)
    before its ``build``, so the other tasks never load them."""
    try:
        # parsing checks the family's parameter ranges before a field is chosen for them
        fam_spec = FamilySpec.parse(cfg.family)
        field_spec = cfg.field_spec() or fam_spec.default_field_spec()
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    status = 0
    task = cfg.task
    if task == "build":
        h = build(fam_spec, field_spec)
        _emit(cfg, {"family": str(fam_spec), "dim": h.dim, "field": h.field.description(), "verified": True})
    elif task == "verify":
        h = build(fam_spec, field_spec, checked=False)
        rep = verify_hopf(h)
        payload = {"family": str(fam_spec), "hopf_ok": rep.ok, "checks": rep.checks,
                   "failures": [list(fail) for fail in rep.failures[:20]]}
        if not rep.ok:
            status = 1
        rs = _resolve_rs(cfg, h)
        if rs:
            payload["r_reports"] = []
            for spec in rs:
                qrep = verify_qtr(h, build_r(h, spec))
                payload["r_reports"].append({"r": str(spec), "qtr_ok": qrep.ok,
                                             "failures": [list(fail) for fail in qrep.failures[:10]]})
                if not qrep.ok:
                    status = 1
        _emit(cfg, payload)
    elif task == "classify":
        from .precartier import classify

        h = build(fam_spec, field_spec)
        specs = _resolve_rs(cfg, h) or [None]  # None: the R-free classification
        reports = [classify(fam_spec, spec, field_spec).to_dict() for spec in specs]
        problems = _report_failures(reports)
        if problems:
            status = 1
            for p in problems:
                sys.stderr.write(f"mismatch: {p}\n")
        _emit(cfg, reports if len(reports) != 1 else reports[0])
    elif task == "cohomology":
        from .cohomology import coboundaries, cocycles

        h = build(fam_spec, field_spec)
        z1 = cocycles(h, 1)
        z2 = cocycles(h, 2)
        b2 = coboundaries(h, 2)
        _emit(cfg, {"family": str(fam_spec), "field": h.field.description(),
                    "dims": {"z1": z1.dim, "z2": z2.dim, "b2": b2.dim, "h2": z2.dim - b2.dim}})
    elif task == "quantize":
        from .precartier import solve_infinitesimal
        from .quantize import verify_quantized_qtr

        h = build(fam_spec, field_spec)
        # a malformed --chi is a configuration error whatever R it meets
        chi_arg = parse_element(h, cfg.chi) if cfg.chi else None
        if chi_arg is not None and chi_arg.legs != 2:
            sys.stderr.write("config error: --chi must be a 2-tensor\n")
            return 2
        rs = _resolve_rs(cfg, h)
        if rs is None:
            sys.stderr.write("config error: quantize needs --r\n")
            return 2
        out = []
        for spec in rs:
            r = build_r(h, spec)
            rrep = verify_qtr(h, r)
            if not rrep.ok:
                status = 1
                sys.stderr.write(f"error: R {spec} fails the axioms: {rrep.summary()}\n")
                continue
            if chi_arg is not None:
                chis = [chi_arg]
            else:
                space = solve_infinitesimal(h, r, rrep)
                chis = [Tensor(h, 2, v) for v in space.basis()]
            for chi in chis:
                qrep = verify_quantized_qtr(h, r, chi)
                out.append({
                    "r": str(spec),
                    "chi": format_tensor(chi),
                    "hypothesis_1": qrep.hypothesis_1,
                    "hypothesis_2": qrep.hypothesis_2,
                    "nilpotency": qrep.nilpotency,
                    "quantized_qtr_ok": qrep.ok,
                    "failures": [list(fail) for fail in qrep.failures[:10]],
                })
                if not qrep.ok:
                    status = 1
        _emit(cfg, out)
    elif task == "enumerate-r":
        h = build(fam_spec, field_spec)
        found = []
        for spec in enumerate_rmatrices(h):  # nothing to enumerate raises RSpecError, exit 2
            r = build_r(h, spec)
            qrep = verify_qtr(h, r)
            if qrep.ok:
                found.append({"r": str(spec), "tensor": format_tensor(r)})
            else:
                status = 1
                sys.stderr.write(f"error: R {spec} fails the axioms: {qrep.summary()}\n")
        _emit(cfg, found)
    else:
        sys.stderr.write(f"config error: unknown task {task!r}\n")
        return 2
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hopflab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "verify", "classify", "cohomology", "quantize", "enumerate-r"):
        p = sub.add_parser(name)
        p.add_argument("--family", required=True, help="e.g. en:3, ac2n:4, h2n2:3, h8, radford:2,3, ac4dual, group:2,2")
        p.add_argument("--r", default=None, help="R spec (e.g. en-a:[[0,1],[1,0]], h8omega:z8), 'enumerate', or 'none'")
        p.add_argument("--field", default=None, help="cyclotomic:M or prime:p")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", dest="fmt", default="json", choices=("json", "table"))
        if name == "quantize":
            p.add_argument("--chi", default=None, help="2-tensor expression; defaults to every solution basis vector")
    args = parser.parse_args(argv)
    cfg = RunConfig(
        family=args.family,
        r=args.r,
        task=args.command,
        field=args.field,
        out=args.out,
        fmt=args.fmt,
        chi=getattr(args, "chi", None),
    )
    try:
        return run(cfg)
    except (RSpecError, FamilyMismatch, ParameterError, ExprError, OrderUnavailable) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        if cfg.out is None or exc.filename != cfg.out:
            raise
        sys.stderr.write(f"config error: cannot write the report: {exc}\n")
        return 2
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
