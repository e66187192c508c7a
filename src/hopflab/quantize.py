"""Quantization of nilpotent solutions: R exp(hbar chi) as an exact
quasitriangular structure over polynomial coefficients in hbar.

Polynomials in hbar with tensor coefficients are exact (degree capped by the
nilpotency degree), so every axiom is checked degreewise with no truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hopf import HopfData, HopfError, Tensor, VerifyReport, cocommutativity_indices, delta, product_sum


class QuantizeError(HopfError):
    pass


class NotNilpotent(QuantizeError):
    pass


class FactorialNotInvertible(QuantizeError):
    pass


class PolyTensor:
    """Polynomial in hbar with Tensor coefficients, trailing zeros trimmed."""

    __slots__ = ("parent", "legs", "coeffs")

    def __init__(self, parent: HopfData, legs: int, coeffs: list):
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.parent = parent
        self.legs = legs
        self.coeffs = coeffs  # list of Tensor, index = hbar degree

    @staticmethod
    def constant(t: Tensor) -> "PolyTensor":
        return PolyTensor(t.parent, t.legs, [t])

    def coeff(self, d: int) -> Tensor:
        if d < len(self.coeffs):
            return self.coeffs[d]
        return self.parent.zero_tensor(self.legs)

    def __mul__(self, other: "PolyTensor") -> "PolyTensor":
        """Convolution of coefficient sequences, legwise tensor products
        inside: each hbar-degree d is one ``product_sum`` of a_i * b_(d-i),
        so a zero operand gives the zero polynomial."""
        h, legs = self.parent, self.legs
        a, b = self.coeffs, other.coeffs
        out = []
        for d in range(len(a) + len(b) - 1):
            degrees = range(max(0, d - len(b) + 1), min(d, len(a) - 1) + 1)
            out.append(Tensor._raw(h, legs, product_sum(h, legs, [(1, a[i].coeffs, b[d - i].coeffs) for i in degrees])))
        return PolyTensor(h, legs, out)

    def __eq__(self, other):
        if not isinstance(other, PolyTensor):
            return NotImplemented
        return self.legs == other.legs and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leg(self, placement: int) -> "PolyTensor":
        return PolyTensor(self.parent, 3, [c.leg(placement) for c in self.coeffs])

    def apply_delta(self, slot: int) -> "PolyTensor":
        return PolyTensor(self.parent, self.legs + 1, [c.apply_delta(slot) for c in self.coeffs])

    def __repr__(self):
        return " + ".join(f"hbar^{d}*({c!r})" for d, c in enumerate(self.coeffs)) or "0"


def _powers(h: HopfData, chi: Tensor) -> list[Tensor]:
    """chi^0, chi^1, ..., chi^(k-1) for chi nilpotent of degree k: every
    power up to the last nonzero one."""
    powers = [h.unit_tensor(2)]
    bound = (h.dim * h.dim) + 1
    while power := powers[-1] * chi:
        if len(powers) == bound:
            raise NotNilpotent(f"no vanishing power up to {bound}")
        powers.append(power)
    return powers


def exp_hbar(h: HopfData, chi: Tensor) -> PolyTensor:
    """sum_(j<k) hbar^j chi^j / j! for chi nilpotent of degree k; exact."""
    f = h.field
    coeffs = []
    for j, power in enumerate(_powers(h, chi)):
        fact = f.from_int(math.factorial(j))
        if not fact:
            raise FactorialNotInvertible(f"{j}! vanishes in characteristic {f.characteristic}")
        coeffs.append(power.scaled(f.one / fact))
    return PolyTensor(h, 2, coeffs)


def check_commutation_hypotheses(h: HopfData, r: Tensor, chi: Tensor) -> tuple[bool, bool]:
    """chi_12 commutes with R12^-1 chi_13 R12, and the 23-leg analogue;
    R^-1 is (S (x) Id)(R), the inverse of an R that passed ``verify_qtr``."""
    rinv = r.apply_antipode(0)
    k12 = rinv.leg(12) * chi.leg(13) * r.leg(12)
    c12 = chi.leg(12)
    first = c12 * k12 == k12 * c12
    k23 = rinv.leg(23) * chi.leg(13) * r.leg(23)
    c23 = chi.leg(23)
    second = c23 * k23 == k23 * c23
    return first, second


@dataclass(kw_only=True)
class QuantizationReport(VerifyReport):
    hypothesis_1: bool
    hypothesis_2: bool
    nilpotency: int

    def summary(self):
        head = f"hypotheses=({self.hypothesis_1},{self.hypothesis_2}) nilpotency={self.nilpotency}"
        return f"{super().summary()}\n  {head}"


def verify_quantized_qtr(h: HopfData, r: Tensor, chi: Tensor) -> QuantizationReport:
    """Check that R exp(hbar chi) satisfies the quasitriangularity axioms
    degreewise-exactly, and that its inverse is exp(-hbar chi) R^-1, with
    R^-1 read as (S (x) Id)(R).

    Hypothesis status is reported separately from the axiom outcome so that
    necessity of the commutation hypotheses can be probed.

    Quasi-cocommutativity Rt Delta(b) = Delta^op(b) Rt is checked for b in
    ``hopf.cocommutativity_indices(h)``, as in ``rmatrices.verify_qtr``: the
    generators when ``generators_span`` holds (it needs a passing
    ``verify_hopf`` on ``h``, so H (x) H [hbar] is associative), every basis
    element otherwise; a failure names the basis label of b.

    The report does not rely on R having passed ``rmatrices.verify_qtr``
    (the ``quantize`` command runs that first, and refuses an R that fails
    it before any chi is solved or checked): R is the hbar^0 coefficient of
    R exp(hbar chi), and R^-1 that of exp(-hbar chi) R^-1, and the laws
    below compare polynomials coefficient by coefficient.  So their hbar^0
    parts are R's own axioms: both inverse laws for R and (S (x) Id)(R),
    which together are ``verify_qtr``'s ``antipode-inverse`` law,
    quasi-cocommutativity of R on the same b, and both hexagons of R.  The
    counit and Yang-Baxter checks that ``verify_qtr`` adds follow from
    these (Kassel, Quantum Groups, VIII.2)."""
    hyp1, hyp2 = check_commutation_hypotheses(h, r, chi)
    rinv = r.apply_antipode(0)
    exp_pos = exp_hbar(h, chi)
    k = len(exp_pos.coeffs)  # chi^(k-1) / (k-1)! is the last nonzero term
    rep = QuantizationReport(f"quantize({h.name})", hypothesis_1=hyp1, hypothesis_2=hyp2, nilpotency=k)

    # exp(-hbar chi): (-chi)^j / j! = (-1)^j chi^j / j!
    exp_neg = PolyTensor(h, 2, [-c if j % 2 else c for j, c in enumerate(exp_pos.coeffs)])
    rt = PolyTensor.constant(r) * exp_pos
    rt_inv = exp_neg * PolyTensor.constant(rinv)

    one2 = PolyTensor.constant(h.unit_tensor(2))
    rep.record("inverse.right", "", rt * rt_inv == one2)
    rep.record("inverse.left", "", rt_inv * rt == one2)

    for i in cocommutativity_indices(h):
        d = delta(h.basis_elem(i))
        rep.record(
            "quasi-cocommutativity", h.labels[i], rt * PolyTensor.constant(d) == PolyTensor.constant(d.flip()) * rt
        )

    rep.record("hexagon.id-delta", "", rt.apply_delta(1) == rt.leg(13) * rt.leg(12))
    rep.record("hexagon.delta-id", "", rt.apply_delta(0) == rt.leg(13) * rt.leg(23))

    # first-order coefficient of R^-1 Rtilde recovers chi exactly
    series = PolyTensor.constant(rinv) * rt
    rep.record("degree-0", "", series.coeff(0) == h.unit_tensor(2))
    rep.record("degree-1-extraction", "", series.coeff(1) == chi)
    return rep
