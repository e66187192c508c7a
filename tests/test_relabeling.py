"""Metamorphic check: every solved space is invariant under relabeling.

A permutation of the basis, the unit and the generator indices included, is
a Hopf isomorphism onto the algebra with the permuted tables.  It carries each
solution space onto the space solved on the relabeled algebra, so the
transported basis, put in canonical form, must equal that space.  This
route does not depend on the basis order the solvers see.
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
        assert verify_qtr(g, rg).ok, spec
        chi, chi_g = solve_infinitesimal(h, r), solve_infinitesimal(g, rg)
        assert transport(h, perm, chi) == chi_g, spec
        assert transport(h, perm, cartier_subspace(h, r, chi)) == cartier_subspace(g, rg, chi_g), spec
