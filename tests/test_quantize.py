import pytest

from conftest import copy_tables, pe, q, registered_rs
from hopflab.families import build
from hopflab.hopf import Tensor, delta, generators_span, verify_hopf
from hopflab.precartier import solve_infinitesimal
from hopflab.quantize import (
    FactorialNotInvertible,
    NotNilpotent,
    PolyTensor,
    check_commutation_hypotheses,
    _powers,
    exp_hbar,
    verify_quantized_qtr,
)
from hopflab.rmatrices import build_r, verify_qtr
from hopflab.scalars import FieldSpec


def test_nilpotency_examples(ac22, en2):
    assert len(_powers(ac22, ac22.zero_tensor(2))) == 1
    assert len(_powers(ac22, pe(ac22, "x (x) x*g"))) == 2
    chi = pe(en2, "(g^1*x{1} (x) x{1}) + (g^1*x{2} (x) x{2})")
    # oracle by direct powers
    assert chi * chi
    assert not (chi * chi * chi)
    assert len(_powers(en2, chi)) == 3


def test_not_nilpotent(en2):
    with pytest.raises(NotNilpotent):
        _powers(en2, en2.unit_tensor(2))


def test_exp_examples(ac22):
    assert exp_hbar(ac22, ac22.zero_tensor(2)) == PolyTensor.constant(ac22.unit_tensor(2))
    chi = pe(ac22, "x (x) x*g")
    e = exp_hbar(ac22, chi)
    assert len(e.coeffs) - 1 == 1
    assert e.coeff(0) == ac22.unit_tensor(2)
    assert e.coeff(1) == chi
    eneg = exp_hbar(ac22, -chi)
    assert e * eneg == PolyTensor.constant(ac22.unit_tensor(2))


def test_exp_inverse_higher_degree(en2):
    chi = pe(en2, "(g^1*x{1} (x) x{1}) + (g^1*x{2} (x) x{2})")
    e = exp_hbar(en2, chi)
    assert len(e.coeffs) - 1 == 2
    assert e.coeff(2) == (chi * chi).scaled(en2.field.one / en2.field.from_int(2))
    assert e * exp_hbar(en2, -chi) == PolyTensor.constant(en2.unit_tensor(2))


def test_polytensor_associative(en2, rng):
    from conftest import random_sparse_tensor

    ts = [
        PolyTensor(en2, 2, [random_sparse_tensor(en2, rng, nnz=3) for _ in range(2)])
        for _ in range(3)
    ]
    a, b, c = ts

    def plus(x, y):
        return PolyTensor(en2, 2, [x.coeff(d) + y.coeff(d) for d in range(max(len(x.coeffs), len(y.coeffs)))])

    assert (a * b) * c == a * (b * c)
    assert plus(a, b) * c == plus(a * c, b * c)
    zero = PolyTensor(en2, 2, [])
    assert a * zero == zero * a == zero and not zero


def test_hypotheses_trivial_and_families(ac22, en2):
    r = build_r(ac22, "ac22:q=0,a=1")
    assert verify_qtr(ac22, r).ok
    assert check_commutation_hypotheses(r, ac22.zero_tensor(2)) == (True, True)
    chi = pe(ac22, "x (x) x*g")
    assert check_commutation_hypotheses(r, chi) == (True, True)
    # both sides are in fact zero
    k12 = r.apply_antipode(0).leg(12) * chi.leg(13) * r.leg(12)
    assert not (chi.leg(12) * k12)
    for rtext in ("en-a:[[0,0],[0,0]]", "en-a:[[1,2],[3,5]]"):
        r2 = build_r(en2, rtext)
        chi = pe(en2, "g^1*x{1} (x) x{2}")
        assert verify_qtr(en2, r2).ok
        assert check_commutation_hypotheses(r2, chi) == (True, True)


def test_hypotheses_scale_invariant(en2, rng):
    r = build_r(en2, "en-a:[[1,0],[0,1]]")
    chi = pe(en2, "g^1*x{1} (x) x{1}")
    c = q(en2.field, rng.randint(1, 9), rng.randint(1, 9))
    assert check_commutation_hypotheses(r, chi.scaled(c)) == (True, True)


def test_verify_quantized_ac2n():
    for fam in ("ac2n:2", "ac2n:3"):
        h = build(fam)
        r = build_r(h, "ac22:q=0,a=1")
        chi = pe(h, "x (x) x*g")
        rep = verify_quantized_qtr(h, r, chi)
        assert rep.hypothesis_1 and rep.hypothesis_2 and rep.ok, rep.summary()
        assert rep.nilpotency == 2


def test_verify_quantized_en(en1, en2):
    r1 = build_r(en1, "en-a:[[1]]")
    rep = verify_quantized_qtr(en1, r1, pe(en1, "g^1*x{1} (x) x{1}"))
    assert rep.hypothesis_1 and rep.hypothesis_2 and rep.ok
    r2 = build_r(en2, "en-a:[[1,2],[3,5]]")
    for text in (
        "g^1*x{1} (x) x{1}",
        "g^1*x{1} (x) x{2}",
        "g^1*x{2} (x) x{1}",
        "g^1*x{2} (x) x{2}",
        "(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{1})",
        "2*(g^1*x{1} (x) x{1}) + 3*(g^1*x{2} (x) x{2})",
    ):
        rep = verify_quantized_qtr(en2, r2, pe(en2, text))
        assert rep.hypothesis_1 and rep.hypothesis_2 and rep.ok, rep.summary()


def test_degree_one_extraction_is_chi(en2):
    from hopflab.rmatrices import r_inverse

    r = build_r(en2, "en-a:[[1,0],[0,1]]")
    chi = pe(en2, "3*(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{2})")
    rt = PolyTensor.constant(r) * exp_hbar(en2, chi)
    series = PolyTensor.constant(r_inverse(en2, r)) * rt
    assert series.coeff(0) == en2.unit_tensor(2)
    assert series.coeff(1) == chi


def test_factorial_not_invertible_in_small_characteristic():
    h = build("en:2", FieldSpec("prime", p=3))
    t = pe(h, "(x{1} (x) 1) + (1 (x) x{2}) + (x{2} (x) x{1})")
    assert len(_powers(h, t)) == 4  # needs 1/3! which vanishes mod 3
    with pytest.raises(FactorialNotInvertible):
        exp_hbar(h, t)


def test_en3_cube_coefficient_collapses_mod_three():
    """The 3-step power of a diagonal solution antisymmetrizes both legs, so
    its only coefficient is a multiple of 3! and dies in characteristic 3."""
    h0 = build("en:3")
    chi0 = pe(h0, "(g^1*x{1} (x) x{1}) + (g^1*x{2} (x) x{2}) + (g^1*x{3} (x) x{3})")
    assert len(_powers(h0, chi0)) == 4
    h3 = build("en:3", FieldSpec("prime", p=3))
    chi3 = pe(h3, "(g^1*x{1} (x) x{1}) + (g^1*x{2} (x) x{2}) + (g^1*x{3} (x) x{3})")
    assert len(_powers(h3, chi3)) == 3
    assert len(exp_hbar(h3, chi3).coeffs) - 1 == 2


def test_hypothesis_status_reported_separately(en1):
    """A tensor violating the hypotheses still gets a full report."""
    r = build_r(en1, "en-a:[[1]]")
    bad = pe(en1, "x{1} (x) g^1") + pe(en1, "g^1 (x) x{1}")
    rep = verify_quantized_qtr(en1, r, bad)
    assert isinstance(rep.hypothesis_1, bool) and isinstance(rep.hypothesis_2, bool)
    assert rep.nilpotency >= 1
    # outcome and hypothesis status are independent report fields
    assert hasattr(rep, "ok")


# -- quasi-cocommutativity of R exp(hbar chi) on the generators ------------------


def full_basis_quantized_qc_failures(h, r, chi) -> set:
    """Test-side oracle: the basis labels b where Rt Delta(b) != Delta^op(b) Rt."""
    rt = PolyTensor.constant(r) * exp_hbar(h, chi)
    out = set()
    for i in range(h.dim):
        d = delta(h.basis_elem(i))
        if rt * PolyTensor.constant(d) != PolyTensor.constant(d.permute((1, 0))) * rt:
            out.add(h.labels[i])
    return out


NILPOTENT = {"en:2": "x{1}", "ac2n:2": "x", "h8": "z + y*z - x*z - x*y*z", "h2n2:2": "z + y*z - x*z - x*y*z"}
QC_LAW = "quasi-cocommutativity"
OTHER_LAWS = 6  # two inverse laws, two hexagons, degree 0 and degree 1


@pytest.mark.parametrize("family", sorted(NILPOTENT))
def test_verify_quantized_generator_certificate_agrees_with_full_basis(family):
    """Every registered R with every solution chi, chi = 0 and the scaled
    non-solution 3 n (x) 1 (n^2 = 0): the outcome with quasi-cocommutativity
    checked on the generators is the full-basis one."""
    h = build(family)
    gens = sorted(h.generators.values())
    gen_labels = {h.labels[i] for i in gens}
    n = pe(h, NILPOTENT[family])
    assert n and not n * n
    non_solution = n.tensor(h.unit()).scaled(h.field.from_int(3))
    failing = 0
    for r in registered_rs(h):
        qrep = verify_qtr(h, r)
        chis = [Tensor(h, 2, v) for v in solve_infinitesimal(h, r, qrep).basis()]
        for chi in chis + [h.zero_tensor(2), non_solution]:
            rep = verify_quantized_qtr(h, r, chi)
            full = full_basis_quantized_qc_failures(h, r, chi)
            witnesses = {w for law, w in rep.failures if law == QC_LAW}
            others = [law for law, _ in rep.failures if law != QC_LAW]
            assert rep.ok == (not full and not others)
            assert witnesses == full & gen_labels
            assert (not witnesses) == (not full)
            assert rep.checks == len(gens) + OTHER_LAWS
            failing += bool(full)
    assert failing >= len(registered_rs(h))  # the non-solution fails for every R


def test_verify_quantized_without_certificate_checks_every_basis_element(en2):
    fresh = copy_tables(en2)
    r = Tensor(fresh, 2, dict(build_r(en2, "en-a:[[1,2],[3,5]]").coeffs))
    chi = Tensor(fresh, 2, dict(pe(en2, "g^1*x{1} (x) x{2}").coeffs))
    assert verify_qtr(fresh, r).ok
    assert not generators_span(fresh)
    rep = verify_quantized_qtr(fresh, r, chi)
    assert rep.ok and rep.checks == en2.dim + OTHER_LAWS
    assert verify_hopf(fresh).ok
    rep = verify_quantized_qtr(fresh, r, chi)
    assert rep.ok and rep.checks == len(en2.generators) + OTHER_LAWS
