"""Acceptance suite: one test per criterion, exact checks throughout.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
captured output).  Tolerances are zero everywhere: the arithmetic is exact.
"""

import random
from contextlib import contextmanager

import pytest

from conftest import apply_rows, batch_modes, constraint_oracles, pe, q, random_sparse_tensor
from hopflab.cohomology import b_apply, coboundaries, cocycles
from hopflab.expressions import parse_element
from hopflab.families import FamilySpec, build, h8_idempotents
from hopflab.hopf import Tensor, delta, verify_hopf
from hopflab.linalg import Subspace
from hopflab.precartier import (
    cartier_coboundary_check,
    cartier_subspace,
    classify,
    solve_infinitesimal,
    solve_rfree,
)
from hopflab.quantize import verify_quantized_qtr
from hopflab.rmatrices import (
    build_r,
    enumerate_group_rmatrices,
    enumerate_rmatrices,
    is_triangular,
    r_inverse,
    verify_qtr,
)
from hopflab.scalars import FieldSpec


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


CONSTRUCTION_LIST = (
    "en:1", "en:2", "en:3", "en:4",
    "ac2n:2", "ac2n:3", "ac2n:4",
    "h8", "h2n2:2", "h2n2:3",
    "radford:2,2", "radford:2,3", "radford:3,2",
    "ac4dual", "group:2", "group:2,2,2",
)


def _en_sample_matrices(n, rng):
    zero = [["0"] * n for _ in range(n)]
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    rand = [[str(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    anti = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(1, 5)
            anti[i][j] = str(v)
            anti[j][i] = str(-v)
    return {"zero": zero, "identity": ident, "random": rand, "antisymmetric": anti}


def _mat_text(m):
    return "[" + ",".join("[" + ",".join(row) + "]" for row in m) + "]"


def _h8_rspecs():
    return [f"h8pm:{a:+d},{b:+d}" for a in (1, -1) for b in (1, -1)] + [
        f"h8omega:z8^{k}" for k in (1, 3, 5, 7)
    ]


def test_criterion_1_construction_suite():
    with criterion(1, "verify_hopf passes for every family in the list"):
        for spec in CONSTRUCTION_LIST:
            h = build(spec)
            rep = verify_hopf(h)
            assert rep.ok, f"{spec}: {rep.summary()}"


def test_criterion_2_quasitriangularity_suite():
    rng = random.Random(2)
    with criterion(2, "verify_qtr passes for every listed R; triangular iff symmetric A"):
        for n in (1, 2, 3):
            h = build(f"en:{n}")
            for name, m in _en_sample_matrices(n, rng).items():
                r = build_r(h, f"en-a:{_mat_text(m)}")
                assert verify_qtr(h, r).ok, f"en:{n} {name}"
        ac22 = build("ac2n:2")
        for rtext in ("ac22:q=0,a=1", "ac22:q=1,a=1", "ac22:q=0,a=-1/2", "ac22:q=1,a=0"):
            r = build_r(ac22, rtext)
            qrep = verify_qtr(ac22, r)
            assert qrep.ok
            assert is_triangular(r)
        h8 = build("h8")
        for rtext in _h8_rspecs():
            assert verify_qtr(h8, build_r(h8, rtext)).ok, rtext
        dual = build("ac4dual")
        assert verify_qtr(dual, build_r(dual, "ac4dual")).ok
        # triangularity criterion on a 6-matrix sample per n
        for n in (1, 2, 3):
            h = build(f"en:{n}")
            sample = []
            count_sym = 6 if n == 1 else 3  # every 1x1 matrix is symmetric
            for _ in range(count_sym):
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = rng.randint(-4, 4)
                sample.append((m, True))
            for _ in range(6 - count_sym):
                m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                if all(m[i][j] == m[j][i] for i in range(n) for j in range(n)):
                    m[0][n - 1] += 1
                sample.append((m, False))
            for m, symmetric in sample:
                text = _mat_text([[str(v) for v in row] for row in m])
                r = build_r(h, f"en-a:{text}")
                qrep = verify_qtr(h, r)
                assert qrep.ok
                assert is_triangular(r) == symmetric, f"en:{n} A={text}"


def test_criterion_3_classification_dimensions():
    rng = random.Random(3)
    with criterion(3, "solution-space dimensions match the classification theorems exactly"):
        # E(n): dimension n^2, basis the g x_p (x) x_q span, independent of A
        for n in (1, 2, 3):
            h = build(f"en:{n}")
            spaces = []
            for m in list(_en_sample_matrices(n, rng).values())[:3]:
                r = build_r(h, f"en-a:{_mat_text(m)}")
                spaces.append(solve_infinitesimal(h, r))
            assert all(sp == spaces[0] for sp in spaces), f"en:{n} solution depends on A"
            assert spaces[0].dim == n * n
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    chi = pe(h, f"g^1*x{{{p}}} (x) x{{{q}}}")
                    assert spaces[0].contains(dict(chi.coeffs))
        # E(4) (optional in the budget, cheap here)
        h4 = build("en:4")
        r4 = build_r(h4, "en-a:" + _mat_text([["1" if i == j else "0" for j in range(4)] for i in range(4)]))
        assert solve_infinitesimal(h4, r4).dim == 16
        # the 8-dimensional pointed algebra: dimension 1 for both R families
        ac22 = build("ac2n:2")
        member = pe(ac22, "x (x) x*g")
        for rtext in ("ac22:q=0,a=2", "ac22:q=1,a=3"):
            space = solve_infinitesimal(ac22, build_r(ac22, rtext))
            assert space.dim == 1
            assert space.contains(dict(member.coeffs))
        solved = {}  # (family, R spec) -> solution space, read again by the HC assert
        # H8: zero for all eight structures
        h8 = build("h8")
        for rtext in _h8_rspecs():
            solved["h8", rtext] = space = solve_infinitesimal(h8, build_r(h8, rtext))
            assert space.dim == 0, rtext
        # the n = 3 semisimple member: zero for every enumerated structure
        h3 = build("h2n2:3")
        survivors = enumerate_group_rmatrices(h3)
        assert survivors
        for spec in survivors:
            solved["h2n2:3", str(spec)] = space = solve_infinitesimal(h3, build_r(h3, spec))
            assert space.dim == 0
        # Radford: the R-free bound vanishes
        for spec in ("radford:2,2", "radford:2,3", "radford:3,2"):
            assert solve_rfree(build(spec)).dim == 0, spec
        # the dual 8-dimensional algebra: zero
        dual = build("ac4dual")
        solved["ac4dual", "ac4dual"] = space = solve_infinitesimal(dual, build_r(dual, "ac4dual"))
        assert space.dim == 0
        # HC, the sixth condition of the precartier docstring: chi is a 2-cocycle
        # of the cobar complex.  The solver starts from the commutant intersected
        # with Z^2, so b^2 is evaluated on each vector, not read from that Z^2.
        for family, mode in batch_modes():
            if mode == "rfree":
                continue
            h = build(family)
            for spec in enumerate_rmatrices(h):
                space = solved.get((family, str(spec)))
                if space is None:
                    space = solve_infinitesimal(h, build_r(h, spec))
                assert not any(b_apply(h, 2, Tensor(h, 2, v)) for v in space.rows), f"HC: {family} {spec} has a solution outside Z^2"


def test_criterion_4_cartier_subspaces():
    rng = random.Random(4)
    with criterion(4, "Cartier cuts have dimension n(n-1)/2 and equal the coboundary cut"):
        for n in (1, 2, 3):
            h = build(f"en:{n}")
            m = _en_sample_matrices(n, rng)["random"]
            r = build_r(h, f"en-a:{_mat_text(m)}")
            space = solve_infinitesimal(h, r)
            cart = cartier_subspace(h, r, space)
            assert cart.dim == n * (n - 1) // 2, f"en:{n}"
            assert cartier_coboundary_check(h, space, cart), f"en:{n}"
        ac22 = build("ac2n:2")
        r = build_r(ac22, "ac22:q=0,a=1")
        space = solve_infinitesimal(ac22, r)
        assert cartier_subspace(ac22, r, space).dim == 0


def test_criterion_5_cohomology():
    with criterion(5, "cohomology dimensions and subspace identities"):
        # E(n): Z^2 = B^2 (+) I with I = span{g x_i (x) x_l : l >= i}
        for n in (1, 2, 3, 4):
            h = build(f"en:{n}")
            z2, b2 = cocycles(h, 2), coboundaries(h, 2)
            g = h.gen("g")
            span = [
                (g * h.gen(f"x{i}")).tensor(h.gen(f"x{l}")).coeffs
                for i in range(1, n + 1)
                for l in range(i, n + 1)
            ]
            ispace = Subspace.from_vectors(span, h.dim**2)
            assert ispace.dim == n * (n + 1) // 2, f"en:{n}: dim I"
            assert all(z2.contains(dict(v)) for v in span), f"en:{n}: I inside Z^2"
            assert b2.intersect(ispace).dim == 0, f"en:{n}: B^2 meets I trivially"
            assert z2.dim == b2.dim + n * (n + 1) // 2, f"en:{n}: dim Z^2 = dim B^2 + n(n+1)/2"
            assert b2.dim == 2 ** (n + 1), f"en:{n}: dim B^2"
        h8 = build("h8")
        assert cocycles(h8, 2) == coboundaries(h8, 2)
        assert cocycles(h8, 2).dim - coboundaries(h8, 2).dim == 0
        for spec in CONSTRUCTION_LIST:
            h = build(spec)
            assert cocycles(h, 1).dim == 0, f"{spec}: nonzero primitives"


def test_criterion_6_identity_suites():
    rng = random.Random(6)
    with criterion(6, "conjugation, swap, counit and Yang-Baxter identity suites"):
        # H8, z-dependent structures (the +2 e_xy variant): conjugation by R
        h8 = build("h8")
        f = h8.field
        e1, ex, ey, exy = h8_idempotents(h8)
        z, x, y, one = h8.gen("z"), h8.gen("x"), h8.gen("y"), h8.unit()
        two = f.from_int(2)
        half = f.one / two
        assert z * z == e1 + ex + ey - exy, "z^2 = e1 + ex + ey - exy"
        assert z**4 == one, "z^4 = 1"
        for k in (1, 3, 5, 7):
            w2 = f.make_root(8) ** (2 * k)
            r = build_r(h8, f"h8omega:z8^{k}")
            rinv = r_inverse(h8, r)

            def conj(a):
                return rinv * a.tensor(one) * r

            law = f"h8omega:z8^{k}: R^-1 (a (x) 1) R"
            assert conj(e1) == e1.tensor(one), f"{law} at e1"
            assert conj(exy) == exy.tensor(one), f"{law} at exy"
            assert conj(ex) == ey.tensor(one) + (ex - ey).tensor(e1 + exy), f"{law} at ex"
            assert conj(ey) == ex.tensor(one) - (ex - ey).tensor(e1 + exy), f"{law} at ey"
            zl = h8.unit_tensor(2) - (ex + ey).tensor(ex + ey + exy.scaled(two)) - (ex - ey).tensor(ex - ey).scaled(w2)
            assert conj(z) == z.tensor(one) * zl, f"{law} at z"
            remark = (ex + ey).tensor(one).scaled(half) + (ex - ey).tensor(x * y).scaled(half)
            assert conj(ex) == remark, f"{law} at ex, the remark's form"
            for a in (e1, ex, ey, exy, x, y, x * y, one):
                for key in conj(a).coeffs:
                    label = h8.labels[key % h8.dim]
                    assert label in ("1", "x*y"), f"{law} lies in A (x) span{{1, xy}}"
        # E(n): R (g (x) g) = (g (x) g) R, R (x_p (x) 1) = (x_p (x) g) R and
        # R (g (x) x_q) = (1 (x) x_q) R for every p, q
        for n in (1, 2, 3):
            h = build(f"en:{n}")
            g, one = h.gen("g"), h.unit()
            for m in _en_sample_matrices(n, rng).values():
                rtext = f"en-a:{_mat_text(m)}"
                r = build_r(h, rtext)
                assert r * g.tensor(g) == g.tensor(g) * r, f"{rtext}: R (g (x) g) = (g (x) g) R"
                for p in range(1, n + 1):
                    xp = h.gen(f"x{p}")
                    assert r * xp.tensor(one) == xp.tensor(g) * r, f"{rtext}: R (x{p} (x) 1) = (x{p} (x) g) R"
                    assert r * g.tensor(xp) == one.tensor(xp) * r, f"{rtext}: R (g (x) x{p}) = (1 (x) x{p}) R"
        # counit conditions hold on every solver output
        for spec, rtext in (("en:2", "en-a:[[1,2],[3,5]]"), ("ac2n:2", "ac22:q=1,a=1")):
            h = build(spec)
            space = solve_infinitesimal(h, build_r(h, rtext))
            for vec in space.basis():
                t = Tensor(h, 2, vec)
                assert not t.apply_counit(1) and not t.apply_counit(0)
        # quantum Yang-Baxter for every verified R
        checked = 0
        for spec, rtexts in (
            ("en:2", ("en-a:[[0,0],[0,0]]", "en-a:[[1,2],[3,5]]")),
            ("ac2n:2", ("ac22:q=0,a=1", "ac22:q=1,a=1")),
            ("h8", tuple(_h8_rspecs())),
            ("ac4dual", ("ac4dual",)),
        ):
            h = build(spec)
            one = h.unit()
            for rtext in rtexts:
                r = build_r(h, rtext)
                assert verify_qtr(h, r).ok
                r12, r13, r23 = r.leg(12), r.leg(13), r.leg(23)
                assert r12 * r13 * r23 == r23 * r13 * r12
                assert r.apply_counit(0) == one and r.apply_counit(1) == one
                checked += 1
        assert checked >= 13


def test_criterion_7_quantization():
    rng = random.Random(7)
    with criterion(7, "quantized structures verify exactly; first-order term recovers the solution"):
        for n in (2, 3):
            h = build(f"ac2n:{n}")
            r = build_r(h, "ac22:q=0,a=1")
            chi = pe(h, "x (x) x*g").scaled(q(h.field, 3, 2))
            rep = verify_quantized_qtr(h, r, chi)
            assert rep.hypothesis_1 and rep.hypothesis_2 and rep.ok, rep.summary()
        for n in (1, 2):
            h = build(f"en:{n}")
            m = _en_sample_matrices(n, rng)["random"]
            r = build_r(h, f"en-a:{_mat_text(m)}")
            qrep = verify_qtr(h, r)
            space = solve_infinitesimal(h, r, qrep)
            basis = [Tensor(h, 2, v) for v in space.basis()]
            combos = []
            for _ in range(3):
                acc = h.zero_tensor(2)
                for b in basis:
                    acc = acc + b.scaled(h.field.from_int(rng.randint(-3, 3)))
                combos.append(acc)
            for chi in basis + combos:
                rep = verify_quantized_qtr(h, r, chi)
                assert rep.hypothesis_1 and rep.hypothesis_2, rep.summary()
                assert rep.ok, rep.summary()


ORACLE_FAMILIES = (
    ("en:2", "en-a:[[1,2],[3,5]]"),
    ("ac2n:2", "ac22:q=1,a=1"),
    ("h8", "h8omega:z8"),
    ("radford:2,2", None),
    ("ac4dual", "ac4dual"),
    ("group:2", None),
)


def test_criterion_8_oracle_equivalences():
    rng = random.Random(8)
    with criterion(8, "constraint rows agree with direct evaluation; prime-field cross-check"):
        for spec, rtext in ORACLE_FAMILIES:
            h = build(spec)
            oracles = constraint_oracles(h, build_r(h, rtext) if rtext else None)
            for _ in range(100):
                t = random_sparse_tensor(h, rng, nnz=5)
                for name, rows, vanishes in oracles:
                    assert (not apply_rows(rows, t.coeffs)) == vanishes(t), f"{spec} {name}"
        # prime-field cross-check reproduces the dimension results
        fp = FieldSpec("prime", p=97)
        rep = classify("en:2", "en-a:[[1,0],[0,1]]", fp)
        assert rep.dims["precartier"] == 4 and rep.dims["cartier"] == 1
        assert rep.dims["z2"] == 11 and rep.dims["b2"] == 8 and rep.dims["h2"] == 3
        assert rep.dims["z1"] == 0
        h8p = build("h8", fp)
        for rtext in _h8_rspecs():
            r = build_r(h8p, rtext)
            assert verify_qtr(h8p, r).ok
            assert solve_infinitesimal(h8p, r).dim == 0
        assert cocycles(h8p, 2) == coboundaries(h8p, 2)
        assert cocycles(h8p, 2).dim == 8
        radp = build("radford:2,2", fp)
        assert solve_rfree(radp).dim == 0
        assert cocycles(radp, 1).dim == 0
        assert cocycles(radp, 2).dim == 9 and coboundaries(radp, 2).dim == 8


def test_criterion_9_partial_result_handling():
    with criterion(9, "partial-result families report membership and a paper_partial flag"):
        for n in (3, 4):
            rep = classify(f"ac2n:{n}", "ac22:q=0,a=1")
            assert rep.flags["paper_partial"] is True
            assert rep.flags["partial_member_present"] is True
            assert "(x (x) x*g)" in rep.basis
            expected_dims = (rep.expected or {}).get("dims", {})
            assert "precartier" not in expected_dims  # reported, never asserted
            assert rep.flags["matches_paper_theorem"] is True
