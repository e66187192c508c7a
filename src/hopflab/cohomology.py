"""Cobar complex of a bialgebra with trivial coefficients.

The degree-n differential alternates a unit insertion on the left, the
coproduct applied in each slot, and a unit insertion on the right:
b1(x) = 1 (x) x - Delta(x) + x (x) 1, and so on.  Cocycles and coboundaries
are plain kernel/image computations over the exact field.
"""

from __future__ import annotations

from .hopf import HopfData, HopfError, Tensor, VerifyReport, full_space, map_rows, restrict_and_cut
from .linalg import Subspace, solve


class UnsupportedDegree(HopfError):
    pass


def _bn_image(h: HopfData, n: int, t: Tensor) -> Tensor:
    """Value of the degree-n differential on an n-tensor."""
    one = h.unit()
    acc = one.tensor(t)
    sign = -h.field.one
    for slot in range(n):
        acc = acc + t.apply_delta(slot).scaled(sign)
        sign = -sign
    # the right unit insertion carries sign (-1)^(n+1)
    return acc + t.tensor(one).scaled(sign)


def b_apply(h: HopfData, n: int, t: Tensor) -> Tensor:
    if n < 1:
        raise UnsupportedDegree("the differential is exposed for degree >= 1")
    if t.legs != n:
        raise HopfError("tensor legs must match the degree")
    return _bn_image(h, n, t)


def b1_elem(h: HopfData, a: Tensor) -> Tensor:
    """1 (x) a - Delta(a) + a (x) 1."""
    return b_apply(h, 1, a)


def cocycles(h: HopfData, n: int) -> Subspace:
    """Z^n = ker(b^n), the cut of H^(x)n by the differential."""
    if n not in (1, 2):
        raise UnsupportedDegree("cocycles computed for degrees 1 and 2")
    return restrict_and_cut(h, n, full_space(h, n), [lambda t: _bn_image(h, n, t)])


def coboundaries(h: HopfData, n: int) -> Subspace:
    """B^n = im(b^(n-1)); B^1 = 0."""
    if n not in (1, 2):
        raise UnsupportedDegree("coboundaries computed for degrees 1 and 2")
    if n == 1:
        return Subspace(h.dim, (), ())
    f = h.field
    cols = []
    for t in range(h.dim):
        cols.append(_bn_image(h, 1, Tensor(h, 1, {t: f.one})).coeffs)
    return Subspace.from_vectors(cols, h.dim**2)


def h_dim(h: HopfData, n: int) -> int:
    z = cocycles(h, n)
    b = coboundaries(h, n)
    for row in b.rows:
        if not z.contains(dict(row)):
            raise HopfError("coboundary outside the cocycle space: broken complex")
    return z.dim - b.dim


def coboundary_preimage(h: HopfData, t: Tensor) -> Tensor | None:
    """Some a with b1(a) = t when t is a coboundary, canonical solve."""
    if t.legs != 2:
        raise HopfError("preimage is defined for 2-tensors")
    rows = map_rows(h, 1, [lambda a: _bn_image(h, 1, a)])
    # a coordinate of t that no image reaches is the inconsistent equation 0 = v
    keys = list(rows) + [(0, k) for k in t.coeffs if (0, k) not in rows]
    rhs = {i: t.coeffs[k] for i, (_, k) in enumerate(keys) if k in t.coeffs}
    sol = solve([rows.get(key, {}) for key in keys], h.dim, rhs)
    if sol is None:
        return None
    a = Tensor(h, 1, sol)
    if b1_elem(h, a) != t:
        raise HopfError("inconsistent preimage solve")
    return a


def en_z2_decomposition(h: HopfData) -> dict:
    """Check Z^2 = B^2 (+) span{g x_i (x) x_l, l >= i} for the sign family."""
    fam = h.family
    if fam is None or fam.kind != "en":
        raise HopfError("decomposition report is specific to E(n)")
    n = fam.params[0]
    z2 = cocycles(h, 2)
    b2 = coboundaries(h, 2)
    g = h.gen("g")
    span_vecs = []
    for i in range(1, n + 1):
        for l in range(i, n + 1):
            t = (g * h.gen(f"x{i}")).tensor(h.gen(f"x{l}"))
            span_vecs.append(t.coeffs)
    ispace = Subspace.from_vectors(span_vecs, h.dim**2)
    expected_i = n * (n + 1) // 2
    in_z2 = all(z2.contains(dict(v)) for v in span_vecs)
    meet = b2.intersect(ispace)
    join = b2.sum(ispace)
    report = {
        "n": n,
        "dim_z2": z2.dim,
        "dim_b2": b2.dim,
        "dim_i": ispace.dim,
        "i_inside_z2": in_z2,
        "i_meets_b2_trivially": meet.dim == 0,
        "direct_sum_is_z2": join == z2,
        "dimension_identity": z2.dim == b2.dim + expected_i,
        "ok": False,
    }
    report["ok"] = (
        report["i_inside_z2"]
        and report["i_meets_b2_trivially"]
        and report["direct_sum_is_z2"]
        and report["dimension_identity"]
        and ispace.dim == expected_i
    )
    return report


def complex_property_report(h: HopfData, max_degree: int = 2) -> VerifyReport:
    """b^(n+1) . b^n = 0, checked on every basis tensor up to max_degree."""
    rep = VerifyReport(f"cobar-complex({h.name})")
    f = h.field
    for n in range(1, max_degree + 1):
        dim_in = h.dim**n
        for t in range(dim_in):
            img = _bn_image(h, n, Tensor(h, n, {t: f.one}))
            rep.record(f"b{n+1}b{n}", str(t), not _bn_image(h, n + 1, img).coeffs)
    return rep
