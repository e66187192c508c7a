"""Run one `hopflab` CLI invocation in this (fresh) process and write a
side file with what `run.py` cannot see from outside.

    python3 perfbench/child.py SIDE_JSON MODE(run|trace|setup) -- <hopflab cli args>

The side file always holds ``built_at``: the ``time.monotonic()`` reading
at the first return of ``families.build`` (which runs the exhaustive
``verify_hopf``), so `run.py` can subtract its own spawn reading.  With
MODE=setup the process exits (code 0) as soon as that build returns: a
set-up probe that does the CLI's set-up and nothing else.

With MODE=trace each public layer function below is wrapped at every name a
hopflab module looks it up by (``precartier`` imports ``r_inverse`` and
``kernel_of_rows`` by name, the CLI imports ``build``, ...).  Spans
(name, start, end, parent) are kept in memory and written to the side file
when the CLI returns, together with per-name call counts, total and self
time, and a few work counters.  Per-scalar and per-``Tensor`` operations are
not wrapped.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

# layer module -> public functions traced in it
TRACED = {
    "families": ("build",),
    "hopf": ("verify_hopf",),
    "linalg": ("kernel_of_rows", "solve"),
    "cohomology": ("cocycles", "coboundaries"),
    "rmatrices": ("r_inverse", "verify_qtr", "is_triangular"),
    "precartier": (
        "classify",
        "solve_rfree",
        "solve_infinitesimal",
        "commutant_of_coproducts",
        "cartier_subspace",
    ),
    "quantize": ("verify_quantized_qtr",),
    "expressions": ("format_tensor",),
}


def rebind(orig, replacement) -> None:
    """Point every hopflab module attribute that is ``orig`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name != "hopflab" and not name.startswith("hopflab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def summary(self) -> dict:
        layers: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            agg = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - child_time[i]
        return layers


def install_tracer(tracer: Tracer) -> None:
    from hopflab import linalg

    def kernel_rows_counted(rows, ncols):
        rows = list(rows)
        tracer.count("linalg.kernel_of_rows.rows", len(rows))
        return orig_kernel(rows, ncols)

    orig_kernel = linalg.kernel_of_rows
    rebind(orig_kernel, functools.wraps(orig_kernel)(kernel_rows_counted))

    after = {"hopf.verify_hopf": lambda rep: tracer.count("hopf.verify_hopf.checks", rep.checks)}
    for modname, names in TRACED.items():
        mod = importlib.import_module(f"hopflab.{modname}")
        for fname in names:
            key = f"{modname}.{fname}"
            orig = getattr(mod, fname)
            rebind(orig, tracer.wrap(key, orig, after.get(key)))


def cyc_cache_entries() -> int:
    from hopflab.scalars import CycField

    return sum(
        len(obj._mul_cache) + len(obj._add_cache) for obj in gc.get_objects() if isinstance(obj, CycField)
    )


class SetupDone(BaseException):
    """Raised by a set-up probe once ``families.build`` has returned; a
    BaseException so that the CLI's error handling lets it through."""


def main(argv: list[str]) -> int:
    side_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py SIDE_JSON MODE(run|trace|setup) -- <hopflab cli args>")
    import hopflab.cli
    from hopflab import families

    side: dict = {"built_at": None}
    orig_build = families.build

    @functools.wraps(orig_build)
    def build_marked(*args, **kwargs):
        out = orig_build(*args, **kwargs)
        if side["built_at"] is None:
            side["built_at"] = time.monotonic()
            if mode == "setup":
                raise SetupDone
        return out

    rebind(orig_build, build_marked)
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_tracer(tracer)
    try:
        return hopflab.cli.main(cli_args)
    except SetupDone:
        return 0
    finally:
        if tracer is not None:
            side["layers"] = tracer.summary()
            side["counts"] = dict(tracer.counts, **{"scalars.cyc_cache.entries": cyc_cache_entries()})
            side["spans"] = tracer.spans
        with open(side_path, "w") as fh:
            json.dump(side, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
