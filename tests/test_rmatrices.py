from fractions import Fraction

import pytest

from conftest import batch_modes, copy_tables, pe, registered_rs, solve_inverse
from hopflab.families import FamilySpec, build, h8_idempotents
from hopflab.hopf import HopfData, Tensor, cocommutativity_indices, delta, generators_span, verify_hopf
from hopflab.rmatrices import (
    FamilyMismatch,
    NotInvertible,
    RSpec,
    build_r,
    enumerate_group_rmatrices,
    is_triangular,
    r_inverse,
    registered_rspecs,
    verify_qtr,
)


def test_rspec_parsing():
    assert RSpec.parse("en-a:[[0,1],[1,0]]").kind == "en_a"
    assert RSpec.parse("ac22:q=0,a=1") == RSpec("ac22", (0, "1"))
    assert RSpec.parse("h8pm:+1,-1") == RSpec("h8_pm", (1, -1))
    assert RSpec.parse("h8omega:z8").kind == "h8_omega"
    assert RSpec.parse("bichar:[[1,0],[0,1]]") == RSpec("bichar", (((1, 0), (0, 1)),))
    assert RSpec.parse("bichar: [ [0, 0] ,\t[1, 0] ] ") == RSpec("bichar", (((0, 0), (1, 0)),))
    assert RSpec.parse("en-a:[[1, 0], [0, 1]]") == RSpec("en_a", ("[[1,0],[0,1]]",))
    assert RSpec.parse("ac22:q=1") == RSpec("ac22", (1, "0"))
    assert RSpec.parse("ac4dual").kind == "ac4dual"
    with pytest.raises(ValueError):
        RSpec.parse("mystery:1")


@pytest.mark.parametrize(
    "variants",
    [
        ("en-a:[[1,0],[0,1]]", "en-a: [[1, 0], [0, 1]]", " en-a:[ [ 1 ,0 ] ,\t[0, 1 ] ] "),
        ("ac22:q=1,a=1", "ac22:q=1, a=1", "ac22: q = 1 ,a= 1 "),
        ("h8pm:+1,-1", "h8pm: +1 , -1", " h8pm:1,-1"),
        ("h8omega:z8^3", "h8omega: z8^3", "h8omega:z8^3 \t"),
        ("bichar:[[0,0],[1,0]]", "bichar: [ [0, 0] ,\t[1, 0] ] "),
        ("explicit:1 (x) 1", "explicit: 1 (x) 1 ", "explicit:\t1 (x) 1"),
        ("ac4dual", " ac4dual "),
    ],
)
def test_rspec_whitespace_variants_agree(variants):
    """Whitespace variants of one spec parse to one RSpec, whose ``str`` is
    the compact form: every text part is stripped, an en-a matrix kept as
    [[a,b],[c,d]]."""
    specs = [RSpec.parse(text) for text in variants]
    assert all(spec == specs[0] for spec in specs)
    assert {str(spec) for spec in specs} == {variants[0]}


def test_en_r_with_zero_matrix_is_group_term(en2):
    r = build_r(en2, "en-a:[[0,0],[0,0]]")
    assert r == pe(en2, "1/2*(1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g)")


def test_en2_r_printed_blocks(en2):
    """The single-index blocks carry the matrix entries directly; the top
    block carries the sign the hexagon equations force."""
    al, be, ga, de = 1, 2, 3, 5
    r = build_r(en2, f"en-a:[[{al},{be}],[{ga},{de}]]")
    det = al * de - be * ga
    expected = pe(
        en2,
        "1/2*("
        "(1 (x) 1) + (1 (x) g) + (g (x) 1) - (g (x) g)"
        f" + {al}*((x{{1}} (x) x{{1}}) - (x{{1}} (x) g^1*x{{1}}) + (g^1*x{{1}} (x) x{{1}}) + (g^1*x{{1}} (x) g^1*x{{1}}))"
        f" + {be}*((x{{1}} (x) x{{2}}) - (x{{1}} (x) g^1*x{{2}}) + (g^1*x{{1}} (x) x{{2}}) + (g^1*x{{1}} (x) g^1*x{{2}}))"
        f" + {ga}*((x{{2}} (x) x{{1}}) - (x{{2}} (x) g^1*x{{1}}) + (g^1*x{{2}} (x) x{{1}}) + (g^1*x{{2}} (x) g^1*x{{1}}))"
        f" + {de}*((x{{2}} (x) x{{2}}) - (x{{2}} (x) g^1*x{{2}}) + (g^1*x{{2}} (x) x{{2}}) + (g^1*x{{2}} (x) g^1*x{{2}}))"
        f" - {det}*((x{{1,2}} (x) x{{1,2}}) + (x{{1,2}} (x) g^1*x{{1,2}}) + (g^1*x{{1,2}} (x) x{{1,2}}) - (g^1*x{{1,2}} (x) g^1*x{{1,2}}))"
        ")",
    )
    assert r == expected
    assert verify_qtr(en2, r).ok
    # the opposite sign on the top block fails the hexagons
    assert not verify_qtr(en2, flipped_sign_r(en2)).ok


def flipped_sign_r(en2):
    """R_A of en:2 for A = [[1,2],[3,5]] with the opposite sign on its top block."""
    det = 1 * 5 - 2 * 3
    return build_r(en2, "en-a:[[1,2],[3,5]]") + pe(
        en2,
        f"{det}*((x{{1,2}} (x) x{{1,2}}) + (x{{1,2}} (x) g^1*x{{1,2}}) + (g^1*x{{1,2}} (x) x{{1,2}}) - (g^1*x{{1,2}} (x) g^1*x{{1,2}}))",
    )


def test_verify_qtr_en_various(en2, en3):
    for text in ("[[0,0],[0,0]]", "[[1,0],[0,1]]", "[[1,2],[3,5]]", "[[0,1],[-1,0]]"):
        assert verify_qtr(en2, build_r(en2, f"en-a:{text}")).ok
    assert verify_qtr(en3, build_r(en3, "en-a:[[1,2,0],[0,3,1],[5,0,7]]")).ok


def test_triangularity_iff_symmetric(en2):
    qtr_not_tri = build_r(en2, "en-a:[[0,1],[0,0]]")
    qrep = verify_qtr(en2, qtr_not_tri)
    assert qrep.ok
    assert not is_triangular(qtr_not_tri)
    for text, triangular in (("[[0,0],[0,0]]", True), ("[[1,2],[2,5]]", True), ("[[0,1],[1,0]]", True),
                             ("[[0,1],[-1,0]]", False), ("[[1,2],[3,1]]", False)):
        r = build_r(en2, f"en-a:{text}")
        assert verify_qtr(en2, r).ok
        assert is_triangular(r) is triangular


def test_ac22_r_families(ac22):
    r_lambda = build_r(ac22, "ac22:q=0,a=1")
    printed = pe(
        ac22,
        "1/2*((1 (x) 1) + (1 (x) g) + (g (x) 1) - (g (x) g))"
        " + 1/2*((x (x) g*x) + (x (x) x) + (g*x (x) g*x) - (g*x (x) x))",
    )
    assert r_lambda == printed
    for r in (r_lambda, build_r(ac22, "ac22:q=1,a=1")):
        qrep = verify_qtr(ac22, r)
        assert qrep.ok
        assert is_triangular(r)


def test_ac22_rq_is_self_inverse(ac22):
    for q in (0, 1):
        rq = build_r(ac22, f"ac22:q={q},a=0")
        assert r_inverse(ac22, rq) == rq
        assert rq.permute((1, 0)) == rq


def test_h8_all_eight_structures(h8):
    for a in (1, -1):
        for b in (1, -1):
            assert verify_qtr(h8, build_r(h8, f"h8pm:{a:+d},{b:+d}")).ok
    for k in (1, 3, 5, 7):
        assert verify_qtr(h8, build_r(h8, f"h8omega:z8^{k}")).ok


def test_h8_omega_reads_any_scalar_expression(h8):
    """omega is parsed by the element grammar, so a parenthesized power reads
    as its value: -(zeta^3) = zeta^7."""
    assert build_r(h8, "h8omega:-(z8^3)") == build_r(h8, "h8omega:z8^7")


def test_h8_omega_requires_primitive_root(h8):
    with pytest.raises(Exception):
        build_r(h8, "h8omega:z8^2")  # order 4, not 8


def test_ac4dual_unique_r(ac4dual):
    r = build_r(ac4dual, "ac4dual")
    printed = pe(
        ac4dual,
        "1/2*((1 (x) 1) + (g^2 (x) 1) + (1 (x) g^2) - (g^2 (x) g^2))"
        " - (x (x) x) - (x (x) g^2*x) + (g^2*x (x) x) - (g^2*x (x) g^2*x)",
    )
    assert r == printed
    assert verify_qtr(ac4dual, r).ok


def antipode_first_leg(r: Tensor) -> Tensor:
    """(S (x) Id)(R) from the antipode table, term by term: a reference
    independent of the slot routine of ``Tensor.apply_antipode``."""
    h = r.parent
    out = h.zero_tensor(2)
    for k, v in r.coeffs.items():
        i, j = divmod(k, h.dim)
        out = out + Tensor(h, 1, h.antipode[i]).tensor(h.basis_elem(j)).scaled(v)
    return out


def test_r_inverse_examples(en2, h8):
    one2 = en2.unit_tensor(2)
    assert r_inverse(en2, one2) == one2
    r = build_r(h8, "h8omega:z8")
    rinv = r_inverse(h8, r)
    assert rinv == antipode_first_leg(r)
    with pytest.raises(NotInvertible):
        r_inverse(en2, en2.gen("x1").tensor(en2.gen("x1")))


def test_r_inverse_candidate_equals_solve(en2, h8):
    """(S (x) Id)(R) is the inverse that the solve oracle finds, on every
    registered R of en:2 and h8 and on one R of every other batch family."""
    for h, family in ((en2, "en:2"), (h8, "h8")):
        for spec in registered_rspecs(FamilySpec.parse(family)):
            r = build_r(h, spec)
            rinv = r_inverse(h, r)
            assert rinv == solve_inverse(h, r), str(spec)
            assert rinv == antipode_first_leg(r)
    # one R of every other batch family with R-matrices, an h2n2:3 survivor for the enumerated one
    for family, mode in batch_modes():
        if mode == "rfree" or family in ("en:2", "h8"):
            continue
        h = build(family)
        spec = "bichar:[[0,0],[1,0]]" if mode == "enumerate" else registered_rspecs(h.family)[0]
        r = build_r(h, spec)
        assert r_inverse(h, r) == solve_inverse(h, r) == antipode_first_leg(r), family


# R on en:1 that are not quasitriangular, with their inverse (None: there is none)
NOT_QTR = (("1 (x) 1 + x1 (x) x1", "1 (x) 1 - x1 (x) x1"), ("x1 (x) x1", None))


def test_r_inverse_refuses_an_r_that_is_not_qtr(en1):
    """(S (x) Id)(R) is no inverse of these R, so ``r_inverse`` raises,
    whether R has an inverse (the solve oracle finds it) or none."""
    for text, inverse in NOT_QTR:
        r = pe(en1, text)
        assert r * antipode_first_leg(r) != en1.unit_tensor(2)
        with pytest.raises(NotInvertible):
            r_inverse(en1, r)
        if inverse is None:
            with pytest.raises(NotInvertible):
                solve_inverse(en1, r)
        else:
            assert solve_inverse(en1, r) == pe(en1, inverse)


def test_r_inverse_not_invertible(en1):
    for text in ("x1 (x) x1", "1 (x) 1 + g (x) g"):
        with pytest.raises(NotInvertible):
            r_inverse(en1, pe(en1, text))


def test_r_inverse_without_antipode_raises(en2):
    """With no antipode table there is no candidate, and no other route."""
    bare = HopfData(
        en2.field, en2.labels, en2.mult, en2.unit_index, en2.comult, en2.counit,
        None, en2.generators, "en2-without-antipode", en2.family,
    )
    r = build_r(en2, "en-a:[[1,2],[3,5]]")
    with pytest.raises(NotInvertible, match="no antipode"):
        r_inverse(bare, Tensor(bare, 2, dict(r.coeffs)))
    rep = verify_qtr(bare, Tensor(bare, 2, dict(r.coeffs)))
    assert rep.failures == [("antipode-inverse", "en2-without-antipode carries no antipode table")]


def test_rswap_identities(en2):
    """A consequence of the E(n) swap identities of the acceptance module:
    R chi = -(g (x) g) chi R for chi = g x1 (x) x2."""
    r = build_r(en2, "en-a:[[1,2],[3,5]]")
    chi = pe(en2, "g^1*x{1} (x) x{2}")
    gg = pe(en2, "g (x) g")
    assert r * chi == -(gg * chi * r)


def paper_h8_pm(h, alpha, beta):
    """The paper's idempotent formula for the four group-supported
    structures on the 8-dimensional member."""
    f = h.field
    e1, ex, ey, exy = h8_idempotents(h)
    al, be = f.from_int(alpha), f.from_int(beta)
    return (
        e1.tensor(e1 + ex + ey + exy)
        + ex.tensor(e1) + ex.tensor(ex).scaled(al) + ex.tensor(ey).scaled(be) + ex.tensor(exy).scaled(al * be)
        + ey.tensor(e1) - ey.tensor(ex).scaled(be) + ey.tensor(ey).scaled(al) - ey.tensor(exy).scaled(al * be)
        + exy.tensor(e1) - exy.tensor(ex).scaled(al * be) + exy.tensor(ey).scaled(al * be) - exy.tensor(exy)
    )


def test_enumeration_h8_matches_pm_family(h8):
    """``h8pm:alpha,beta`` is the paper's formula, and the four of them are
    the bicharacter survivors."""
    pm = []
    for a in (1, -1):
        for b in (1, -1):
            r = build_r(h8, f"h8pm:{a:+d},{b:+d}")
            assert r == paper_h8_pm(h8, a, b)
            pm.append(r)
    survivors = [build_r(h8, spec) for spec in enumerate_group_rmatrices(h8)]
    assert len(survivors) == 4
    for r in survivors:
        assert any(r == p for p in pm)
    for p in pm:
        assert any(r == p for r in survivors)


H2N2_3_SURVIVORS = [
    ((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (0, 0)), ((1, 0), (1, 1)), ((1, 1), (2, 1)),
    ((1, 2), (0, 1)), ((2, 0), (1, 2)), ((2, 1), (2, 2)), ((2, 2), (0, 2)),
]


def test_enumeration_h2n2_3(h2n2_3):
    survivors = enumerate_group_rmatrices(h2n2_3)
    assert survivors == [RSpec("bichar", (mat,)) for mat in H2N2_3_SURVIVORS]
    for spec in survivors:
        assert verify_qtr(h2n2_3, build_r(h2n2_3, spec)).ok


def _all_matrices(n):
    return [((a, b), (c, d)) for a in range(n) for b in range(n) for c in range(n) for d in range(n)]


@pytest.mark.parametrize("family,n", [("h8", 2), ("h2n2:2", 2), ("h2n2:3", 3), ("h2n2:4", 4)])
def test_delta_z_filter_keeps_exactly_the_verified_candidates(family, n):
    """The closed form is the R Delta(z) = Delta^op(z) R filter over all n^4
    bicharacter candidates, in set and in order; at n <= 3 that set is also
    the set whose R passes the full ``verify_qtr``."""
    h = build(family)
    dz = delta(h.gen("z"))

    def passes(mat):
        r = build_r(h, RSpec("bichar", (mat,)))
        return r * dz == dz.permute((1, 0)) * r

    kept = [mat for mat in _all_matrices(n) if passes(mat)]
    assert [spec.params[0] for spec in enumerate_group_rmatrices(h)] == kept
    if n <= 3:
        verified = [mat for mat in _all_matrices(n) if verify_qtr(h, build_r(h, RSpec("bichar", (mat,)))).ok]
        assert kept == verified


@pytest.mark.parametrize("family,n", [("h8", 2), ("h2n2:2", 2), ("h2n2:3", 3), ("h2n2:4", 4), ("h2n2:5", 5)])
def test_enumeration_is_the_rule_on_m(family, n):
    """The survivors are the n^2 matrices M with m22 = m11 and
    m21 = m12 + 1 mod n, in the order of M; no R is built, so the algebra
    needs no axiom check, and n = 5 is enumerated like any other n."""
    specs = enumerate_group_rmatrices(build(family, checked=False))
    rule = [mat for mat in _all_matrices(n) if mat[1][1] == mat[0][0] and mat[1][0] == (mat[0][1] + 1) % n]
    assert len(rule) == n * n
    assert specs == [RSpec("bichar", (mat,)) for mat in rule]


def plain_bichar_sum(h, n, mat):
    """sum_(c, d) q^(c.M.d) E_c (x) E_d, each idempotent built afresh and
    each term added as a new tensor."""
    f = h.field
    q = f.make_root(n)
    x, y = h.gen("x"), h.gen("y")
    chars = [(c1, c2) for c1 in range(n) for c2 in range(n)]

    def idem(c1, c2):
        e = h.zero_tensor(1)
        for i in range(n):
            for j in range(n):
                e = e + (x**i * y**j).scaled(q ** ((-(c1 * i + c2 * j)) % n))
        return e.scaled(f.one / f.from_int(n * n))

    ((m11, m12), (m21, m22)) = mat
    acc = h.zero_tensor(2)
    for c1, c2 in chars:
        for d1, d2 in chars:
            exp = c1 * (m11 * d1 + m12 * d2) + c2 * (m21 * d1 + m22 * d2)
            acc = acc + idem(c1, c2).tensor(idem(d1, d2)).scaled(q ** (exp % n))
    return acc


# ids mat0..mat3 name the first four cases; in all, every M at n = 2 and, at
# n = 3, the nine survivors and four non-survivors
BICHAR_CASES = [("h8", 2, ((0, 0), (1, 0))), ("h8", 2, ((1, 1), (1, 0))), ("h2n2:3", 3, ((0, 0), (1, 0))),
                ("h2n2:3", 3, ((2, 1), (0, 2)))]
BICHAR_CASES += [
    case
    for case in [("h8", 2, mat) for mat in _all_matrices(2)]
    + [("h2n2:2", 2, mat) for mat in _all_matrices(2)]
    + [("h2n2:3", 3, mat) for mat in H2N2_3_SURVIVORS + [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 2), (2, 2))]]
    if case not in BICHAR_CASES
]


@pytest.mark.parametrize("family,n,mat", BICHAR_CASES)
def test_bichar_r_equals_plain_sum(family, n, mat):
    """The closed form of ``build_r_bichar`` is the character sum, in value
    and in the order of its entries."""
    h = build(family)
    r = build_r(h, RSpec("bichar", (mat,)))
    ref = plain_bichar_sum(h, n, mat)
    assert r == ref
    assert list(r.coeffs) == list(ref.coeffs)


def test_family_mismatch(en2, h8):
    with pytest.raises(FamilyMismatch):
        build_r(h8, "en-a:[[0]]")
    with pytest.raises(FamilyMismatch):
        build_r(en2, "ac4dual")


# -- quasi-cocommutativity on the generators -------------------------------------


def full_basis_qc(h, r) -> bool:
    """Test-side oracle: R Delta(b) = Delta^op(b) R on every basis element."""
    return not full_basis_qc_failures(h, r)


def full_basis_qc_failures(h, r) -> set:
    out = set()
    for i in range(h.dim):
        d = delta(h.basis_elem(i))
        if r * d != d.permute((1, 0)) * r:
            out.add(h.labels[i])
    return out


QC_LAW = "quasi-cocommutativity"
OTHER_LAWS = 6  # antipode-inverse, two hexagons, two counits, qyb
LAW_ORDER = ("antipode-inverse", QC_LAW, "hexagon.id-delta", "hexagon.delta-id", "counit.left", "counit.right", "qyb")


def test_verify_qtr_lists_antipode_inverse_first_then_every_failing_law(en1):
    """A failed inverse law does not end the report: every other law is
    checked, and each one that fails by direct evaluation is listed after
    it, in the order of ``verify_qtr``."""
    one = en1.unit()
    for text, _ in NOT_QTR:
        r = pe(en1, text)
        r12, r13, r23 = r.leg(12), r.leg(13), r.leg(23)
        fails = {
            QC_LAW: not full_basis_qc(en1, r),
            "hexagon.id-delta": r.apply_delta(1) != r13 * r12,
            "hexagon.delta-id": r.apply_delta(0) != r13 * r23,
            "counit.left": r.apply_counit(0) != one,
            "counit.right": r.apply_counit(1) != one,
            "qyb": r12 * r13 * r23 != r23 * r13 * r12,
        }
        rep = verify_qtr(en1, r)
        laws = [law for law, _ in rep.failures]
        assert laws[0] == "antipode-inverse" and len(laws) > 1, text
        assert laws == sorted(laws, key=LAW_ORDER.index)
        assert set(laws[1:]) == {law for law, failed in fails.items() if failed}, text
        assert rep.checks == len(en1.generators) + OTHER_LAWS


@pytest.mark.parametrize("family,twist", [("en:2", "g"), ("ac2n:2", "g"), ("h8", "x"), ("h2n2:2", "x")])
def test_verify_qtr_generator_certificate_agrees_with_full_basis(family, twist):
    """For every registered R, R (g (x) 1) (an invertible R failing
    quasi-cocommutativity) and 2R (failing the hexagons, and the inverse
    law as 2R (S (x) Id)(2R) = 4), the outcome
    with quasi-cocommutativity checked on the generators is the full-basis one,
    and QYB, read off the hexagon products, fails exactly when the four
    products R12 R13 R23 and R23 R13 R12 differ."""
    h = build(family)
    gens = sorted(h.generators.values())
    assert sorted(cocommutativity_indices(h)) == gens and len(gens) < h.dim
    gen_labels = {h.labels[i] for i in gens}
    twist = h.gen(twist).tensor(h.unit())
    candidates = [c for r in registered_rs(h) for c in (r, r * twist, r.scaled(h.field.from_int(2)))]
    if family == "en:2":
        candidates.append(flipped_sign_r(h))
    qc_failing = 0
    for r in candidates:
        rep = verify_qtr(h, r)
        others = [law for law, _ in rep.failures if law != QC_LAW]
        witnesses = {w for law, w in rep.failures if law == QC_LAW}
        full = full_basis_qc(h, r)
        assert rep.ok == (full and not others)
        r12, r13, r23 = r.leg(12), r.leg(13), r.leg(23)
        assert ("qyb" in others) == (r12 * r13 * r23 != r23 * r13 * r12)
        assert (not witnesses) == full
        assert witnesses <= gen_labels  # a failure names the generator
        if not others:
            assert rep.checks == len(gens) + OTHER_LAWS
        qc_failing += not full
    assert qc_failing >= len(registered_rs(h))


def test_verify_qtr_without_certificate_checks_every_basis_element(en2):
    """With generators {g} only the words do not span en:2: every basis
    element is checked, and the failures are the oracle's."""
    only_g = copy_tables(en2, generators={"g": en2.generators["g"]})
    assert verify_hopf(only_g).ok
    assert not generators_span(only_g)
    assert cocommutativity_indices(only_g) == list(range(en2.dim))
    r = Tensor(only_g, 2, dict(build_r(en2, "en-a:[[1,2],[3,5]]").coeffs))
    rep = verify_qtr(only_g, r)
    assert rep.ok and rep.checks == en2.dim + OTHER_LAWS
    twisted = r * only_g.gen("g").tensor(only_g.unit())
    rep = verify_qtr(only_g, twisted)
    failing = {w for law, w in rep.failures if law == QC_LAW}
    assert failing == full_basis_qc_failures(only_g, twisted)
    assert not failing <= {"g"}  # failures at basis elements that are not generators


def test_unchecked_instance_refused_certificate_until_verified(en2):
    fresh = copy_tables(en2)
    r = Tensor(fresh, 2, dict(build_r(en2, "en-a:[[1,2],[3,5]]").coeffs))
    assert not fresh.hopf_verified and not generators_span(fresh)
    assert verify_qtr(fresh, r).checks == en2.dim + OTHER_LAWS
    assert verify_hopf(fresh).ok
    assert fresh.hopf_verified and generators_span(fresh)
    assert verify_qtr(fresh, r).checks == len(en2.generators) + OTHER_LAWS
