"""Output checks that do not consult the solver.

An operation is one classification report or one quantized chi.  Each check
returns, for every operation a process should have produced, the list of
problems found with it (empty when it passed).  The expected values are the
paper's closed forms, written out here rather than read from
``precartier.EXPECTED``.
"""

from __future__ import annotations

import math


def _params(family: str) -> tuple[str, tuple[int, ...]]:
    kind, _, rest = family.partition(":")
    return kind, tuple(int(p) for p in rest.split(",") if p)


def hopf_dim(family: str) -> int:
    kind, p = _params(family)
    if kind in ("en", "ac2n"):
        return 2 ** (p[0] + 1)
    if kind == "h2n2":
        return 2 * p[0] ** 2
    if kind == "radford":
        return p[0] * p[1] ** 2
    if kind == "group":
        return math.prod(p)
    if kind in ("h8", "ac4dual"):
        return 8
    raise ValueError(f"no closed form for the dimension of {family}")


def closed_form_dims(family: str) -> dict[str, int]:
    """The paper's dimensions for a family, keyed like a report's ``dims``."""
    kind, p = _params(family)
    if kind == "en":
        n = p[0]
        return {"precartier": n * n, "cartier": n * (n - 1) // 2, "h2": n * (n + 1) // 2}
    if kind == "ac2n" and p[0] == 2:
        return {"precartier": 1}
    if kind in ("h8", "h2n2", "ac4dual", "group"):
        return {"precartier": 0}
    if kind == "radford":
        return {"rfree": 0}
    return {}


def en_words(n: int) -> set[str]:
    """The n^2 spanning words g x_p (x) x_q of the E(n) solution space."""
    return {f"(g^1*x{{{p}}} (x) x{{{q}}})" for p in range(1, n + 1) for q in range(1, n + 1)}


def en_cartier_pairs(n: int) -> set[str]:
    """The n(n-1)/2 antisymmetric pairs spanning the E(n) Cartier cut."""
    return {
        f"(g^1*x{{{p}}} (x) x{{{q}}}) - (g^1*x{{{q}}} (x) x{{{p}}})"
        for p in range(1, n + 1)
        for q in range(p + 1, n + 1)
    }


def check_report(family: str, rep: dict, r: str | None = None) -> list[str]:
    """Problems with one report; ``r``, when given, is the R spec it must name."""
    problems = []
    if rep.get("family") != family:
        problems.append(f"family {rep.get('family')!r} != {family!r}")
        return problems
    if r is not None and rep.get("r") != r:
        problems.append(f"r {rep.get('r')!r} != {r!r}")
    dims = rep.get("dims", {})
    for key, want in closed_form_dims(family).items():
        if dims.get(key) != want:
            problems.append(f"{key}={dims.get(key)} != {want}")
    if not {"z1", "z2", "b2"} <= dims.keys():
        problems.append("cohomology dims missing")
    else:
        if dims["b2"] + dims["z1"] != hopf_dim(family):
            problems.append(f"b2+z1={dims['b2'] + dims['z1']} != dim H={hopf_dim(family)}")
        if dims["z2"] < dims["b2"]:
            problems.append(f"z2={dims['z2']} < b2={dims['b2']}")
    kind, p = _params(family)
    if kind == "en":
        if set(rep.get("basis", [])) != en_words(p[0]) or len(rep["basis"]) != p[0] ** 2:
            problems.append("basis is not the n^2 words g x_p (x) x_q")
        cart = rep.get("cartier_basis", [])
        if set(cart) != en_cartier_pairs(p[0]) or len(cart) != p[0] * (p[0] - 1) // 2:
            problems.append("Cartier basis is not the antisymmetric pairs")
    if kind == "ac2n" and "(x (x) x*g)" not in rep.get("basis", []):
        problems.append("x (x) x*g missing from the basis")
    return problems


def check_classify(family: str, expected: int, payload, r: str | None = None) -> list[list[str]]:
    """One problem list per expected report; missing reports fail."""
    reports = payload if isinstance(payload, list) else [payload]
    out = [check_report(family, rep, r) if isinstance(rep, dict) else ["not a report"] for rep in reports[:expected]]
    out += [["report missing"]] * (expected - len(out))
    if len(reports) > expected:
        out[-1] = out[-1] + [f"{len(reports) - expected} unexpected extra reports"]
    return out


def check_quantized(family: str, n_r: int, payload) -> list[list[str]]:
    """One problem list per expected chi: n_r R-matrices times the n^2 words."""
    _kind, p = _params(family)
    words = en_words(p[0])
    expected = n_r * len(words)
    entries = payload if isinstance(payload, list) else []
    out = []
    seen: dict[str, set] = {}
    for e in entries[:expected]:
        if not isinstance(e, dict):
            out.append(["not a quantization entry"])
            continue
        problems = []
        for key in ("quantized_qtr_ok", "hypothesis_1", "hypothesis_2"):
            if e.get(key) is not True:
                problems.append(f"{key}={e.get(key)}")
        if e.get("nilpotency") != 2:
            problems.append(f"nilpotency={e.get('nilpotency')} != 2")
        if e.get("failures"):
            problems.append("failures reported")
        chis = seen.setdefault(e.get("r"), set())
        if e.get("chi") not in words or e.get("chi") in chis:
            problems.append(f"chi {e.get('chi')!r} is not a new word g x_p (x) x_q")
        chis.add(e.get("chi"))
        out.append(problems)
    if len(seen) > n_r:
        out[-1] = out[-1] + [f"{len(seen)} R-matrices, expected {n_r}"]
    out += [["entry missing"]] * (expected - len(out))
    if len(entries) > expected:
        out[-1] = out[-1] + [f"{len(entries) - expected} unexpected extra entries"]
    return out


def check_agreement(reference, other, problems: list[list[str]]) -> None:
    """Entry-by-entry agreement of two quantize outputs (e.g. Q and F_97):
    a differing entry of ``other`` is marked failed in ``problems``."""
    reference = reference if isinstance(reference, list) else []
    other = other if isinstance(other, list) else []
    for i in range(len(problems)):
        a = reference[i] if i < len(reference) else None
        b = other[i] if i < len(other) else None
        if a != b:
            problems[i] = problems[i] + ["differs from the reference field's entry"]
