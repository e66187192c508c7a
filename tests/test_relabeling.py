"""Metamorphic checks: every solved space is invariant under relabeling and
under Galois conjugation.

A permutation of the basis, the unit and the generator indices included, is
a Hopf isomorphism onto the algebra with the permuted tables.  It carries each
solution space onto the space solved on the relabeled algebra, so the
transported basis, put in canonical form, must equal that space.  This
route does not depend on the basis order the solvers see.

A field automorphism sigma_k of Q(zeta_M) (zeta -> zeta^k, gcd(k, M) = 1),
applied to every structure constant and to R, carries each axiom and each
linear condition to the same one over the conjugate tables.  So sigma_k of
each solved space must equal the space solved on the conjugate algebra: a
route that does not depend on which root of unity the solvers see.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.cohomology import coboundaries, cocycles
from hopflab.families import build
from hopflab.hopf import HopfData, Tensor, verify_hopf
from hopflab.linalg import Subspace
from hopflab.precartier import cartier_subspace, solve_infinitesimal, solve_rfree
from hopflab.rmatrices import build_r, enumerate_rmatrices, verify_qtr


def moved(h: HopfData, perm: list, coeffs: dict, legs: int) -> dict:
    """Coefficients of a tensor of H, keyed by the relabeled basis."""
    out = {}
    for k, c in coeffs.items():
        key, place = 0, 1
        for _ in range(legs):  # each base-dim digit of k is one leg's index
            k, i = divmod(k, h.dim)
            key += perm[i] * place
            place *= h.dim
        out[key] = c
    return out


def relabel(h: HopfData, perm: list) -> HopfData:
    """A plain ``HopfData`` whose basis element perm[i] is h's element i."""
    def permuted(table: list) -> list:
        out = [None] * h.dim
        for i, entry in enumerate(table):
            out[perm[i]] = entry
        return out

    return HopfData(
        h.field,
        permuted(h.labels),
        permuted([permuted([moved(h, perm, cell, 1) for cell in row]) for row in h.mult]),
        perm[h.unit_index],
        permuted([moved(h, perm, cell, 2) for cell in h.comult]),
        permuted(h.counit),
        permuted([moved(h, perm, cell, 1) for cell in h.antipode]),
        {name: perm[i] for name, i in h.generators.items()},
        f"relabeled {h.name}",
    )


def sigma(x, k: int):
    """sigma_k(x) for x in Q(zeta_M): zeta -> zeta^k, by field arithmetic."""
    f = x.field
    zeta = f.make_root(f.order)
    return sum((f.from_int(n) * zeta ** (i * k) for i, n in enumerate(x.nums)), f.zero) / f.from_int(x.den)


def conjugate(h: HopfData, k: int) -> HopfData:
    """A plain ``HopfData`` with sigma_k applied to every table entry."""
    def conj(cell: dict) -> dict:
        return {i: sigma(v, k) for i, v in cell.items()}

    return HopfData(
        h.field,
        h.labels,
        [[conj(cell) for cell in row] for row in h.mult],
        h.unit_index,
        [conj(cell) for cell in h.comult],
        [sigma(v, k) for v in h.counit],
        [conj(cell) for cell in h.antipode],
        h.generators,
        f"conjugated {h.name}",
    )


def conjugated(space: Subspace, k: int) -> Subspace:
    """sigma_k of a subspace, in canonical form."""
    return Subspace.from_vectors([{i: sigma(v, k) for i, v in row.items()} for row in space.rows], space.ambient_dim)


def transport(h: HopfData, perm: list, space: Subspace) -> Subspace:
    """The image of a subspace of H (x) H, in canonical form."""
    return Subspace.from_vectors([moved(h, perm, row, 2) for row in space.rows], h.dim**2)


@pytest.mark.parametrize("family", ["en:2", "ac2n:3", "h8"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_solved_spaces_are_invariant_under_relabeling(family, data):
    h = build(family)
    # a derangement: the unit and every generator move
    perm = data.draw(st.permutations(range(h.dim)).filter(lambda p: all(i != j for i, j in enumerate(p))))
    g = relabel(h, perm)
    assert verify_hopf(g).ok
    assert transport(h, perm, solve_rfree(h)) == solve_rfree(g)
    assert transport(h, perm, cocycles(h, 2)) == cocycles(g, 2)
    assert transport(h, perm, coboundaries(h, 2)) == coboundaries(g, 2)
    for spec in enumerate_rmatrices(h):
        r = build_r(h, spec)
        rg = Tensor(g, 2, moved(h, perm, r.coeffs, 2))
        qrep = verify_qtr(g, rg)
        assert qrep.ok, spec
        chi, chi_g = solve_infinitesimal(h, r), solve_infinitesimal(g, rg, qrep)
        assert transport(h, perm, chi) == chi_g, spec
        assert transport(h, perm, cartier_subspace(h, r, chi)) == cartier_subspace(g, rg, chi_g), spec


@pytest.mark.parametrize("k", [3, 5, 7])
def test_solved_spaces_commute_with_galois_conjugation(h8, k):
    """sigma_k on h8 over Q(zeta_8): the conjugate tables pass the Hopf
    axioms, each conjugate R passes the QTR axioms, and sigma_k of each
    solved space is the space solved on the conjugate algebra."""
    g = conjugate(h8, k)
    assert verify_hopf(g).ok
    assert conjugated(solve_rfree(h8), k) == solve_rfree(g)
    for spec in enumerate_rmatrices(h8):
        r = build_r(h8, spec)
        rg = Tensor(g, 2, {i: sigma(v, k) for i, v in r.coeffs.items()})
        qrep = verify_qtr(g, rg)
        assert qrep.ok, spec
        chi, chi_g = solve_infinitesimal(h8, r), solve_infinitesimal(g, rg, qrep)
        assert conjugated(chi, k) == chi_g, spec
        assert conjugated(cartier_subspace(h8, r, chi), k) == cartier_subspace(g, rg, chi_g), spec
