"""Cobar complex of a bialgebra with trivial coefficients.

The degree-n differential alternates a unit insertion on the left, the
coproduct applied in each slot, and a unit insertion on the right:
b1(x) = 1 (x) x - Delta(x) + x (x) 1, and so on.  Cocycles and coboundaries
are plain kernel/image computations over the exact field.
"""

from __future__ import annotations

from .hopf import HopfData, HopfError, Tensor, full_space, restrict_and_cut
from .linalg import Subspace


class UnsupportedDegree(HopfError):
    pass


def b_apply(h: HopfData, n: int, t: Tensor) -> Tensor:
    """Value of the degree-n differential on an n-tensor."""
    if n < 1:
        raise UnsupportedDegree("the differential is exposed for degree >= 1")
    if t.legs != n:
        raise HopfError("tensor legs must match the degree")
    one = h.unit()
    acc = one.tensor(t)
    sign = -h.field.one
    for slot in range(n):
        acc = acc + t.apply_delta(slot).scaled(sign)
        sign = -sign
    # the right unit insertion carries sign (-1)^(n+1)
    return acc + t.tensor(one).scaled(sign)


def b2_unit_slice(h: HopfData, t: Tensor) -> Tensor:
    """The part of b^2(t) whose leg 0 is the unit index u, leg 0 dropped:
    1 (x) t gives all of t, and the leg-0 = u parts of (Delta (x) Id)(t),
    (Id (x) Delta)(t) and t (x) 1 are read off t|leg0=u and the slice of
    (Delta (x) Id)(t)."""
    head = t.unit_slice(0)  # t|leg0=u, a 1-leg tensor
    return t - t.apply_delta(0).unit_slice(0) + head.apply_delta(0) - head.tensor(h.unit())


def cocycles(h: HopfData, n: int) -> Subspace:
    """Z^n = ker(b^n), the cut of H^(x)n by the differential.

    Z^2 is cut by ``b2_unit_slice`` first and then by b^2 on the basis it
    left.  The slice's rows are some of b^2's, so its kernel contains Z^2,
    and the second cut gives exactly Z^2; on h2n2:3 the slice's kernel is
    already Z^2 (18 of 324 dimensions)."""
    if n not in (1, 2):
        raise UnsupportedDegree("cocycles computed for degrees 1 and 2")
    maps = [lambda t: b_apply(h, n, t)]
    if n == 2:
        maps.insert(0, lambda t: b2_unit_slice(h, t))
    return restrict_and_cut(h, n, full_space(h, n), maps)


def coboundaries(h: HopfData, n: int) -> Subspace:
    """B^n = im(b^(n-1)); B^1 = 0."""
    if n not in (1, 2):
        raise UnsupportedDegree("coboundaries computed for degrees 1 and 2")
    if n == 1:
        return Subspace(h.dim, (), ())
    f = h.field
    cols = []
    for t in range(h.dim):
        cols.append(b_apply(h, 1, Tensor(h, 1, {t: f.one})).coeffs)
    return Subspace.from_vectors(cols, h.dim**2)
