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


def cocycles(h: HopfData, n: int) -> Subspace:
    """Z^n = ker(b^n), the cut of H^(x)n by the differential."""
    if n not in (1, 2):
        raise UnsupportedDegree("cocycles computed for degrees 1 and 2")
    return restrict_and_cut(h, n, full_space(h, n), [lambda t: b_apply(h, n, t)])


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
