"""Infinitesimal R-matrices: assemble the defining axioms as exact linear
systems in an unknown 2-tensor, solve for the full solution space, carve out
the Cartier subspace, and produce classification reports.

Axioms, for a quasitriangular (H, R):
  C1      chi Delta(b) = Delta(b) chi                      for all b,
  C2      (Id (x) Delta)(chi) = chi_12 + R12^-1 chi_13 R12,
  C3      (Delta (x) Id)(chi) = chi_23 + R23^-1 chi_13 R23,
  CT      R chi = chi_op R                                 (the Cartier cut),
  E1, E2  both counit slots of chi vanish,
  HC      chi_12 + (Delta (x) Id)(chi) = chi_23 + (Id (x) Delta)(chi).

HC says b^2(chi) = 0 in the cobar complex (``cohomology.b_apply``):
b^2(chi) = 1 (x) chi - (Delta (x) Id)(chi) + (Id (x) Delta)(chi) - chi (x) 1.

The solver cuts ``analysis(h, "commutant_z2")``, the commutant of the
coproducts (C1) in H (x) H intersected with Z^2 (HC), by C2 alone, in one
``hopf.restrict_and_cut``.  The rows of every cut are built in one place,
``hopf.map_rows``.  C2 enters in the R-multiplied equivalent form
(left-multiplied by R12), so no inverse appears in row generation; the R^-1
forms of C2 and C3 are kept as the independent recheck applied to every
solution basis vector.  The counit conditions are implied and asserted,
never cut.

Why C3 is not cut: for an R that passed ``rmatrices.verify_qtr`` and a chi
that satisfies C1, C3 holds exactly when HC does, given C2.  The axioms of
R used below are Q1, R^-1 Delta^op(b) R = Delta(b), and Q3,
(Delta (x) Id)(R) = R13 R23, with R invertible.  ``verify_qtr`` checks Q1
on the generators, and it holds on all of H by the generator certificate
(``hopf.cocommutativity_indices``); applied in the last two legs,
R23^-1 (Id (x) Delta^op)(Y) R23 = (Id (x) Delta)(Y) for every Y in H (x) H.
  (i)  Swapping legs 2 and 3 in C2 gives
       (Id (x) Delta^op)(chi) = chi_13 + R13^-1 chi_12 R13.  Conjugate by
       R23: the left side becomes (Id (x) Delta)(chi) by Q1, and
       R23^-1 R13^-1 chi_12 R13 R23 = chi_12 because R13 R23 = (Delta (x) Id)(R)
       by Q3, and chi_12 commutes with (Delta (x) Id)(Y) for every Y by C1.
       So (Id (x) Delta)(chi) = chi_12 + R23^-1 chi_13 R23; against C2, that
       is R12^-1 chi_13 R12 = R23^-1 chi_13 R23.
  (ii) Put (i) into b^2:
       b^2(chi) = chi_23 + R23^-1 chi_13 R23 - (Delta (x) Id)(chi), which
       vanishes exactly when C3 holds.
So {C1, C2, C3} and {C1, C2, HC} have the same solutions, and the solution
space is the intersection of the commutant, Z^2 and ker C2.  HC does not
follow from C1 alone (it fails on R-free vectors of en:2, h8 and h2n2:3),
so the argument needs C2, and it needs R quasitriangular:
``solve_infinitesimal`` refuses an R whose ``verify_qtr`` report is not ok.

C2 is cut by its unit slice first (``cqtr_unit_slice_map``): R12 has the
unit on leg 2 and 1 * e_c = e_c, so the output coordinates of the
R-multiplied C2 form whose leg 2 is the unit index u are a 2-leg map of
their own.  The full 3-leg map then runs only on the basis that the slice
left.  This is exactly the full cut: the slice's rows are a subset of the
full map's, so its kernel contains the full kernel, and the full map cuts
it down to that kernel, in canonical RREF.  The start space is small:
commutant intersected with Z^2 has 9 of the commutant's 99 dimensions on
h2n2:3, 14 of 256 on h2n2:4, 10 of 44 on en:3 and 9 of 320 on ac2n:4.  On
h2n2:3 (bichar:[[0,0],[1,0]]) the slice alone cuts it to zero, so the full
map runs on no column.  ``cohomology.cocycles`` cuts Z^2 by the leg-0 = u
slice of b^2 first, the same way.

C1 is cut and rechecked against the generators of H only.  That covers
every b because of the certificate ``hopf.generators_span``: the generator
words accepted by its closure span H, and the certificate is granted only
after ``verify_hopf`` passed, whose checks make Delta multiplicative and H
associative, so a tensor commuting with Delta(g) for every generator g
commutes with Delta(w) for every accepted word w, hence with Delta(b) for
every b by linearity.  Without the certificate the solvers raise.

The recheck of C1 by direct evaluation runs once per algebra, on the basis
c_1, ..., c_k of the commutant (``_checked_commutant``), whose vectors are
sparse: 99 vectors with 432 nonzeros on h2n2:3, against the 82 R-free
vectors with 2097.  Each basis vector v of the R-free space and of every
solution space is then checked to lie in the commutant's span exactly
(``Subspace.contains``).  That is as strong as evaluating the commutator
on v itself: v = sum_i lambda_i c_i exactly and the commutator is linear,
so [Delta(g), v] = sum_i lambda_i [Delta(g), c_i] = 0 for every generator g.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import cohomology
from .expressions import format_tensor, parse_element
from .families import FamilySpec, build
from .hopf import HopfData, HopfError, SumMap, Tensor, VerifyReport, _generator_elems, delta, full_space, generators_span, restrict_and_cut, vanishes_all
from .linalg import Subspace
from .rmatrices import (
    RSpec,
    build_r,
    is_triangular,
    verify_qtr,
)


class PreCartierError(HopfError):
    pass


# -- direct evaluators (the independent checkers) ------------------------------


def _commutator_terms(t: Tensor, d: Tensor) -> list:
    """t d - d t as terms of ``hopf.product_sum``: one lift, one sum."""
    return [(1, t.coeffs, d.coeffs), (-1, d.coeffs, t.coeffs)]


def eval_cqtr2(h: HopfData, r: Tensor, t: Tensor) -> Tensor:
    """C2 in the R^-1 form, R^-1 read as (S (x) Id)(R): the inverse of an R
    that passed ``verify_qtr``."""
    return t.apply_delta(1) - t.leg(12) - r.apply_antipode(0).leg(12) * t.leg(13) * r.leg(12)


def eval_cqtr3(h: HopfData, r: Tensor, t: Tensor) -> Tensor:
    """C3 in the R^-1 form, as ``eval_cqtr2``."""
    return t.apply_delta(0) - t.leg(23) - r.apply_antipode(0).leg(23) * t.leg(13) * r.leg(23)


def cqtr_rmul_map(r: Tensor) -> SumMap:
    """R12 (Id (x) Delta)(t) - R12 t12 - t13 R12, the R-multiplied C2, as one
    ``hopf.product_sum`` per tensor; R12 is formed once per map."""
    r12 = r.leg(12).coeffs
    return SumMap(3, lambda t: [(1, r12, t.apply_delta(1).coeffs), (-1, r12, t.leg(12).coeffs), (-1, t.leg(13).coeffs, r12)])


def cqtr_unit_slice_map(r: Tensor) -> SumMap:
    """The rows of ``cqtr_rmul_map(r)`` at the output coordinates whose leg 2
    is the unit index u, as a 2-leg map (leg 2 dropped).  R12 has the unit
    on leg 2, and 1 * e_c = e_c, so there every product copies the leg 2 of
    its other factor:

      R (Id (x) Delta)(t)|leg2=u - R t - (t|leg1=u (x) 1) R.

    These rows are a subset of the full map's, so their kernel contains the
    full kernel: a cut by this map first, then by the full one, is the full
    cut."""
    rc, one = r.coeffs, r.parent.unit()
    return SumMap(2, lambda t: [(1, rc, t.apply_delta(1).unit_slice(2).coeffs), (-1, rc, t.coeffs), (-1, t.unit_slice(1).tensor(one).coeffs, rc)])


def cartier_map(r: Tensor) -> SumMap:
    """R t - t_op R."""
    return SumMap(2, lambda t: [(1, r.coeffs, t.coeffs), (-1, t.flip().coeffs, r.coeffs)])


# -- solvers ---------------------------------------------------------------------


def commutant_of_coproducts(h: HopfData, elems) -> Subspace:
    """Tensors commuting with Delta(e) for every e in elems: the cut of
    H (x) H by the commutator t Delta(e) - Delta(e) t at each e, with
    Delta(e) formed once per e rather than once per basis tensor."""
    return restrict_and_cut(h, 2, full_space(h, 2), [SumMap(2, lambda t, d=delta(e): _commutator_terms(t, d)) for e in elems])


def _require_generators_span(h: HopfData) -> None:
    if not generators_span(h):
        raise PreCartierError(
            f"cannot certify C1 from the generators of {h.name}: verify_hopf has not passed on it, "
            "their words do not span H or Delta is not multiplicative along them"
        )


def _commute_with_generators(h: HopfData, ts: list) -> bool:
    """t Delta(g) - Delta(g) t vanishes for every t in ``ts`` and every
    generator g, decided by the kernel's zero test.  Each generator's
    commutators run on one lift (``hopf.vanishes_all``), so Delta(g) is
    lifted, and its L and R sums formed, once for all of ``ts``."""
    return all(vanishes_all(h, 2, [_commutator_terms(t, d) for t in ts]) for d in map(delta, _generator_elems(h)))


def _checked_commutant(h: HopfData) -> Subspace:
    """The commutant of the generators' coproducts, every basis vector
    rechecked by direct evaluation against Delta(g) for each generator g:
    an oracle independent of the elimination, run once per algebra (it is
    ``analysis(h, "commutant")``).  A vector that fails raises."""
    space = commutant_of_coproducts(h, _generator_elems(h))
    ts = [Tensor(h, 2, vec) for vec in space.rows]
    if not _commute_with_generators(h, ts):
        witness = next(t for t in ts if not _commute_with_generators(h, [t]))
        raise PreCartierError(f"a commutant vector of {h.name} violates C1 against a generator on recheck: {format_tensor(witness)}")
    return space


def _require_in_commutant(h: HopfData, space: Subspace, what: str) -> None:
    """Every basis vector of ``space`` lies in the span of the rechecked
    commutant, decided exactly (``Subspace.contains``); raises otherwise."""
    commutant = analysis(h, "commutant")
    for vec in space.rows:
        if not commutant.contains(vec):
            raise PreCartierError(f"{what} lies outside the commutant, so C1 fails on it: {format_tensor(Tensor(h, 2, vec))}")


def solve_rfree(h: HopfData) -> Subspace:
    """Kernel of the C1 commutation rows plus both counit conditions: an
    R-independent upper bound for the solution space over any R.

    It is the counit cut of ``analysis(h, "commutant")``, whose C1 rows
    come from the generators only.  C1 is rechecked without trusting the
    elimination, in two exact steps.  Once per algebra,
    ``_checked_commutant`` evaluates [Delta(g), c] directly on every basis
    vector c of the commutant and each generator g.  Then every kernel
    vector v is checked to lie in the commutant's span exactly
    (``Subspace.contains``).  That is at least as strong as evaluating
    [Delta(g), v] on v itself: v = sum_i lambda_i c_i exactly and the
    commutator is linear, so [Delta(g), v] = sum_i lambda_i [Delta(g), c_i]
    = 0.  This implies C1 for every basis element because
    ``generators_span`` holds: if chi commutes with Delta(g) for each
    generator g, and Delta(w*g) = Delta(w) Delta(g) for each accepted word
    w*g (Delta is multiplicative: ``verify_hopf``, which the certificate
    requires, checked it on every basis pair), then, H (x) H being
    associative (checked by the same ``verify_hopf``), by induction chi
    commutes with Delta(w) for every accepted word w; those words span H and
    Delta is linear, so chi commutes with Delta(b) for every b.  When the
    certificate fails, PreCartierError is raised.
    """
    _require_generators_span(h)
    counits = [lambda t: t.apply_counit(1), lambda t: t.apply_counit(0)]
    space = restrict_and_cut(h, 2, analysis(h, "commutant"), counits)
    _require_in_commutant(h, space, "an R-free kernel vector")
    return space


def solve_infinitesimal(h: HopfData, r: Tensor, qrep: VerifyReport | None = None) -> Subspace:
    """The full solution space of C1, C2, C3 for the given R: the C2 cut of
    ``analysis(h, "commutant_z2")``, the commutant intersected with Z^2.
    By the argument of the module docstring that is the space of C1, C2
    and C3 for a quasitriangular R, so C3 is not cut.

    ``qrep`` is R's ``verify_qtr`` report, run here when none is passed.
    An R whose report is not ok is refused (``PreCartierError`` naming R):
    the argument needs Q1 and Q3.  The rechecks read R^-1 as
    (S (x) Id)(R), which the report's ``antipode-inverse`` law verified.

    C2 is cut first by its unit slice (``cqtr_unit_slice_map``), then by
    the full R-multiplied map on the basis the slice left.  The slice's
    rows are some of the full map's, so its kernel contains the full
    kernel and the two cuts in a row give exactly the full cut, in
    canonical RREF; when the slice's rows already have rank ncols the full
    map runs on no column.

    Every basis vector of the result is rechecked, independently of the
    elimination: C1 by its exact membership in the commutant, whose basis
    ``_checked_commutant`` rechecked against the generators once per
    algebra (as strong as the direct evaluation on the vector, by
    linearity, and it covers every b by ``generators_span``; see
    ``solve_rfree``), C2 and C3 by direct evaluation in the R^-1 form, and
    the counit conditions and HC (b^2(chi) = 0, ``cohomology.b_apply``) are
    asserted post-hoc.
    """
    _require_generators_span(h)
    if qrep is None:
        qrep = verify_qtr(h, r)
    if not qrep.ok:
        raise PreCartierError(f"R = {format_tensor(r)} fails the axioms, so C3 need not follow from C1, C2 and HC: {qrep.summary()}")
    space = restrict_and_cut(h, 2, analysis(h, "commutant_z2"), [cqtr_unit_slice_map(r), cqtr_rmul_map(r)])
    _require_in_commutant(h, space, "a solution")
    for t in (Tensor(h, 2, vec) for vec in space.rows):
        if eval_cqtr2(h, r, t) or eval_cqtr3(h, r, t):
            raise PreCartierError("solution violates C2/C3 on direct recheck")
        if t.apply_counit(1) or t.apply_counit(0):
            raise PreCartierError("counit conditions fail on a solution: implication broken")
        if cohomology.b_apply(h, 2, t):
            raise PreCartierError(f"a solution for R = {format_tensor(r)} violates HC, b^2(chi) = 0: {format_tensor(t)}")
    return space


def cartier_subspace(h: HopfData, r: Tensor, chi_space: Subspace) -> Subspace:
    """Cut the solution space by R chi = chi_op R."""
    return restrict_and_cut(h, 2, chi_space, [cartier_map(r)])


def cartier_coboundary_check(h: HopfData, chi_space: Subspace, cart: Subspace) -> bool:
    """Does the Cartier cut ``cart`` (``cartier_subspace`` of ``chi_space``)
    equal the coboundary cut of the solution space?"""
    return cart == chi_space.intersect(analysis(h, "b2"))


# -- classification ---------------------------------------------------------------


EXPECTED = {
    "en": lambda n: {
        "dims": {"precartier": n * n, "cartier": n * (n - 1) // 2, "h2": n * (n + 1) // 2, "b2": 2 ** (n + 1), "z1": 0},
        "note": "full solution space is the span of g x_p (x) x_q; Cartier cut = antisymmetric coefficient matrices",
    },
    "ac2n#2": lambda n: {
        "dims": {"precartier": 1, "cartier": 0, "z1": 0},
        "note": "one-parameter family spanned by x (x) x*g; Cartier only trivially",
    },
    "ac2n": lambda n: {
        "dims": {"z1": 0},
        "partial_member": "x (x) x*g",
        "note": "classification is a stated partial result: the span of x (x) x*g is known, exhaustiveness is not",
    },
    "h8": lambda: {
        "dims": {"precartier": 0, "cartier": 0, "h2": 0, "z1": 0},
        "z2_equals_b2": True,
        "note": "no nontrivial solutions for any of the eight structures; every 2-cocycle is a coboundary",
    },
    "h2n2": lambda n: {
        "dims": {"precartier": 0, "cartier": 0, "z1": 0},
        "note": "no nontrivial solutions for n >= 3",
    },
    "radford": lambda r, n: {
        "dims": {"rfree": 0, "z1": 0},
        "note": "axiom (4) plus the counit conditions already force zero (R-independent)",
    },
    "ac4dual": lambda: {
        "dims": {"precartier": 0, "cartier": 0, "z1": 0},
        "note": "no nontrivial solutions",
    },
    "group": lambda *inv: {
        "dims": {"precartier": 0, "cartier": 0, "z1": 0},
        "note": "commutative group algebras admit only the trivial solution (over any R; checked with 1 (x) 1)",
    },
}


def expected_for(spec: FamilySpec) -> dict | None:
    if spec.kind == "ac2n" and spec.params[0] == 2:
        return EXPECTED["ac2n#2"](2)
    fn = EXPECTED.get(spec.kind)
    return fn(*spec.params) if fn else None


@dataclass
class ClassificationReport:
    family: str
    params: dict
    field: str
    r: str | None
    dims: dict
    basis: list
    cartier_basis: list
    flags: dict
    expected: dict | None = None
    notes: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        dim_order = ("precartier", "cartier", "z1", "z2", "b2", "h2", "rfree")
        dims = {k: self.dims[k] for k in dim_order if k in self.dims}
        out = {
            "family": self.family,
            "params": self.params,
            "field": self.field,
            "r": self.r,
            "dims": dims,
            "basis": self.basis,
            "cartier_basis": self.cartier_basis,
            "flags": self.flags,
        }
        if self.expected is not None:
            out["expected"] = self.expected
        if self.notes:
            out["notes"] = self.notes
        return out


def analysis(h: HopfData, key: str) -> Subspace:
    """The R-independent artifact ``key`` of h, computed on first use and
    kept in the memo ``h._analysis_cache`` (the HopfData instances are
    interned by the build cache, so this is sound): "commutant" (the C1 cut
    by the generators, rechecked by ``_checked_commutant``), "rfree"
    (``solve_rfree``), "z1" and "z2" (cobar cocycles), "commutant_z2" (the
    intersection of "commutant" and "z2", where every R-dependent cut
    starts) and "b2" (coboundaries).  Every reader goes through here, so
    each is computed once per algebra."""
    cache = h._analysis_cache
    if key not in cache:
        if key == "commutant":
            cache[key] = _checked_commutant(h)
        elif key == "rfree":
            cache[key] = solve_rfree(h)
        elif key in ("z1", "z2"):
            cache[key] = cohomology.cocycles(h, int(key[1]))
        elif key == "commutant_z2":
            cache[key] = analysis(h, "commutant").intersect(analysis(h, "z2"))
        else:  # "b2"
            cache[key] = cohomology.coboundaries(h, 2)
    return cache[key]


def classify(
    family_spec: FamilySpec | str,
    rspec: RSpec | str | None = None,
    field_spec=None,
) -> ClassificationReport:
    """Build the family and the R-matrix of ``rspec``, verify R, solve, and
    fill a report.

    ``rspec`` may be None (R-free bound only, used for the Radford family and
    group algebras where the classification is R-independent).  An R that
    fails ``verify_qtr`` is refused.
    """
    if isinstance(family_spec, str):
        family_spec = FamilySpec.parse(family_spec)
    h = build(family_spec, field_spec)
    f = h.field
    notes = []
    flags = {}

    r = r_str = None
    if rspec is not None:
        # a malformed R spec is a configuration error: raise it before any solve
        if isinstance(rspec, str):
            rspec = RSpec.parse(rspec)
        r = build_r(h, rspec)
        r_str = str(rspec)
        qrep = verify_qtr(h, r)
        if not qrep.ok:
            raise PreCartierError(f"R fails the axioms: {qrep.summary()}")
        flags["r_verified"] = True
        flags["r_triangular"] = is_triangular(h, r)

    rfree = analysis(h, "rfree")
    dims = {"rfree": rfree.dim}
    basis_exprs = []
    cart_exprs = []
    if r is not None:
        chi_space = solve_infinitesimal(h, r, qrep)
        dims["precartier"] = chi_space.dim
        cart = cartier_subspace(h, r, chi_space)
        dims["cartier"] = cart.dim
        basis_exprs = [format_tensor(Tensor(h, 2, v)) for v in chi_space.basis()]
        cart_exprs = [format_tensor(Tensor(h, 2, v)) for v in cart.basis()]
        flags["counit_auto_satisfied"] = True  # asserted inside solve_infinitesimal
        flags["cartier_equals_coboundary_cut"] = cartier_coboundary_check(h, chi_space, cart)
        if not rfree.dim >= chi_space.dim:
            raise PreCartierError("R-free bound smaller than a solution space")
    elif rfree.dim == 0:
        # the R-free system already forces chi = 0, for every R
        dims["precartier"] = 0
        dims["cartier"] = 0
        flags["counit_auto_satisfied"] = True
        notes.append("precartier dimension pinned by the vanishing R-free bound, valid for every R")

    z1, z2, b2 = analysis(h, "z1"), analysis(h, "z2"), analysis(h, "b2")
    dims["z1"] = z1.dim
    dims["z2"] = z2.dim
    dims["b2"] = b2.dim
    dims["h2"] = dims["z2"] - dims["b2"]

    expected = expected_for(family_spec)
    flags["paper_partial"] = bool(expected and "partial_member" in expected)
    if family_spec.kind == "h2n2":
        flags["group_support_assumed"] = True
        notes.append("survivor set of the bicharacter enumeration is assumed exhaustive, not proved")

    matches = None
    if expected:
        matches = True
        for key, val in expected.get("dims", {}).items():
            if key in dims and dims[key] != val:
                matches = False
        if expected.get("z2_equals_b2"):
            flags["z2_equals_b2"] = z2 == b2
            if not flags["z2_equals_b2"]:
                matches = False
        if "partial_member" in expected and r is not None:
            member = parse_element(h, expected["partial_member"])
            inside = chi_space.contains(dict(member.coeffs))
            flags["partial_member_present"] = inside
            if not inside:
                matches = False
    flags["matches_paper_theorem"] = matches

    return ClassificationReport(
        family=str(family_spec),
        params={"kind": family_spec.kind, "values": list(family_spec.params) if family_spec.kind != "tensor" else [str(p) for p in family_spec.params]},
        field=f.description(),
        r=r_str,
        dims=dims,
        basis=basis_exprs,
        cartier_basis=cart_exprs,
        flags=flags,
        expected=expected,
        notes=notes,
    )
