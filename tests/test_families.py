import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import pe
from hopflab import families
from hopflab.families import (
    ConstructionError,
    FamilySpec,
    UnsupportedFamily,
    _from_letters,
    _qls_algebra,
    _words,
    build,
    build_group_algebra,
    build_en,
    build_h2n2,
    build_quantum_linear_space,
    build_radford,
    h8_idempotents,
    tensor_product,
)
from hopflab.hopf import delta, verify_hopf
from hopflab.scalars import FieldSpec, get_field


def test_family_spec_parsing():
    assert FamilySpec.parse("en:3") == FamilySpec("en", (3,))
    assert FamilySpec.parse("radford:2,3") == FamilySpec("radford", (2, 3))
    assert FamilySpec.parse("h8") == FamilySpec("h8", ())
    assert FamilySpec.parse("group:2,2,2") == FamilySpec("group", (2, 2, 2))
    t = FamilySpec.parse("tensor(en:1,group:2)")
    assert t.kind == "tensor" and t.params[0] == FamilySpec("en", (1,))
    with pytest.raises(ValueError):
        FamilySpec.parse("frobenius:1")


def test_dimensions():
    assert build("en:3").dim == 16
    assert build("h2n2:3").dim == 18
    assert build("radford:2,2").dim == 8
    assert build("ac2n:3").dim == 16
    assert build("ac4dual").dim == 8
    assert build("group:2,2,2").dim == 8


def test_h2n2_basis_labels(h2n2_3):
    assert "x*y^2*z" in h2n2_3.labels
    assert "1" in h2n2_3.labels and "z" in h2n2_3.labels
    assert len(h2n2_3.labels) == 18


def test_radford_basis_labels(radford22):
    assert set(radford22.labels) == {"1", "g", "g^2", "g^3", "x", "g*x", "g^2*x", "g^3*x"}


def test_ac4dual_basis_labels(ac4dual):
    assert ac4dual.labels == ["1", "g", "g^2", "g^3", "x", "x*g", "x*g^2", "x*g^3"]


def test_en_closed_coproduct_matches_generator_products(en3):
    """Closed coproduct formula against the product of generator coproducts."""
    n = 3
    for j in (0, 1):
        for subset_size in range(n + 1):
            for subset in combinations(range(1, n + 1), subset_size):
                word = en3.unit() if j == 0 else en3.gen("g")
                expected = delta(word)
                for i in subset:
                    word = word * en3.gen(f"x{i}")
                    expected = expected * delta(en3.gen(f"x{i}"))
                assert delta(word) == expected


def test_en_antipode_square_is_conjugation_by_g(en3):
    g = en3.gen("g")
    for i in range(en3.dim):
        b = en3.basis_elem(i)
        assert b.apply_antipode(0).apply_antipode(0) == g * b * g


def test_radford_coproduct_formula_matches_products():
    h = build_radford(2, 3, get_field(FieldSpec("cyclotomic", order=6)))
    dg, dx = delta(h.gen("g")), delta(h.gen("x"))
    for l in range(6):
        for m in range(3):
            w = (h.gen("g") ** l) * (h.gen("x") ** m)
            assert delta(w) == (dg**l) * (dx**m)


def test_radford_coproduct_qbinomials():
    """Delta(x^m) = sum_u [m, u]_Q x^(m-u) (x) g^(r(m-u)) x^u with Q = q^r, the
    Gaussian binomials taken from the Q-Pascal recurrence."""
    for r, n in ((1, 4), (2, 3)):
        h = build(f"radford:{r},{n}")
        g, x = h.gen("g"), h.gen("x")
        Q = h.field.make_root(r * n) ** r
        row = [h.field.one]  # [m, u]_Q for u = 0..m
        for m in range(n):
            expected = sum(
                ((x ** (m - u)).tensor(g ** (r * (m - u)) * x**u).scaled(c) for u, c in enumerate(row)),
                h.zero_tensor(2),
            )
            assert delta(x**m) == expected
            row = [row[0]] + [row[u - 1] + Q**u * row[u] for u in range(1, m + 1)] + [row[0]]
        assert not row[1]  # [n, 1]_Q = 0: Q has order n


def test_h8_idempotents(h8):
    e1, ex, ey, exy = h8_idempotents(h8)
    for e in (e1, ex, ey, exy):
        assert e * e == e
    for a, b in combinations((e1, ex, ey, exy), 2):
        assert not (a * b)
    assert e1 + ex + ey + exy == h8.unit()
    z = h8.gen("z")
    assert e1 * z == z * e1
    assert ex * z == z * ey
    assert ey * z == z * ex
    assert exy * z == z * exy
    assert z * z == e1 + ex + ey - exy
    assert z**4 == h8.unit()


def test_h8_idempotents_wrong_family(en2):
    with pytest.raises(UnsupportedFamily):
        h8_idempotents(en2)


def test_h2n2_at_two_equals_h8(h8):
    other = build_h2n2(2, h8.field)
    assert other.labels == h8.labels
    assert other.mult == h8.mult
    assert other.comult == h8.comult
    assert other.counit == h8.counit
    assert other.antipode == h8.antipode


def test_h8_printed_coproduct_of_z(h8):
    z = h8.gen("z")
    x, y = h8.gen("x"), h8.gen("y")
    half = h8.field.one / h8.field.from_int(2)
    one = h8.unit()
    printed = (z.tensor(z) * (one.tensor(one) + y.tensor(one) + one.tensor(x) - y.tensor(x))).scaled(half)
    assert delta(z) == printed


def test_tensor_product_with_trivial_factor(en2):
    triv = build_group_algebra((), en2.field)
    prod = tensor_product(en2, triv)
    assert prod.dim == en2.dim
    assert prod.mult == en2.mult
    assert prod.comult == en2.comult


def test_tensor_product_dimension(ac22, kc2):
    prod = tensor_product(ac22, kc2)
    assert prod.dim == 16
    assert verify_hopf(prod).ok


def test_ac2n_group_likes_anticommute_with_x():
    """Every group-like of A_{C2^3} is an involution anticommuting with x."""
    h = build("ac2n:3")
    # generators anticommute with x, are involutive group-likes
    x = h.gen("x")
    for name in ("g", "h", "g1"):
        t = h.gen(name)
        assert t * t == h.unit()
        assert delta(t) == t.tensor(t)
        assert t * x == -(x * t)
    assert delta(x) == h.unit().tensor(x) + x.tensor(h.gen("g"))
    assert verify_hopf(h).ok


def test_en_product_signs_against_transposition_oracle():
    """(g^j x_P)(g^k x_Q) = (-1)^(k|P|) sign(P, Q) g^(j+k) x_(P u Q) on E(5), where
    sign(P, Q) sorts the concatenation P Q by transpositions, and 0 when P, Q meet."""
    h = build_en(5, get_field(FieldSpec("cyclotomic", order=1)))
    one = h.field.one

    def bubble_sign(seq):
        seq = list(seq)
        sign = 1
        for i in range(len(seq)):
            for j in range(len(seq) - 1 - i):
                if seq[j] > seq[j + 1]:
                    seq[j], seq[j + 1] = seq[j + 1], seq[j]
                    sign = -sign
        return sign

    def index(j, subset):
        factors = (["g^1"] if j else []) + (["x{" + ",".join(map(str, subset)) + "}"] if subset else [])
        return h.index["*".join(factors) or "1"]

    subsets = [p for r in range(6) for p in combinations(range(1, 6), r)]
    for j in (0, 1):
        for p in subsets:
            for k in (0, 1):
                for q in subsets:
                    cell = h.mult[index(j, p)][index(k, q)]
                    if set(p) & set(q):
                        assert cell == {}
                        continue
                    sign = (-1) ** (k * len(p)) * bubble_sign(p + q)
                    assert cell == {index((j + k) % 2, tuple(sorted(p + q))): one if sign == 1 else -one}


def test_constructor_refusals():
    f2 = get_field(FieldSpec("prime", p=2))
    with pytest.raises(ConstructionError):
        build_h2n2(3, get_field(FieldSpec("prime", p=3)))  # 3 | 2n
    with pytest.raises(ConstructionError):
        build("en:2", FieldSpec("prime", p=2))
    from hopflab.scalars import OrderUnavailable

    with pytest.raises(OrderUnavailable):
        build_radford(2, 3, get_field(FieldSpec("cyclotomic", order=1)))


def _c2xc2(words):
    """C2 x C2 from ``_from_letters`` on the group-like letters g1, g2 of
    order 2, basis element i taken to be the product of ``words[i]``."""
    field = get_field(FieldSpec("cyclotomic", order=1))
    letters = [("g1", 2), ("g2", 2)]
    bare, monomial = _qls_algebra(letters, {}, list(product((0, 1), repeat=2)), lambda a: f"g1^{a[0]}*g2^{a[1]}", field, "kC2xC2")
    images = [(g.tensor(g), g, field.one) for g in (monomial({"g1": 1}), monomial({"g2": 1}))]
    return _from_letters(bare, words, images, {}, None)


# the words of g1 and g2 swapped: each basis element gets the other's Delta and S
SWAPPED_WORDS = [(), (0,), (1,), (0, 1)]


def test_from_letters_refuses_a_wrong_word_table():
    """``verify_hopf`` refuses a ``_from_letters`` algebra whose words do not
    multiply to the basis: C2 x C2 with the words of g1 and g2 swapped."""
    words = _words(list(product((0, 1), repeat=2)))
    assert words == [(), (1,), (0,), (0, 1)]
    assert _c2xc2(words).comult == build("group:2,2").comult
    rep = verify_hopf(_c2xc2(SWAPPED_WORDS))
    assert not rep.ok
    assert "violations in" in rep.summary()


def test_build_refuses_what_verify_hopf_refuses(monkeypatch):
    """``build`` alone runs ``verify_hopf``: with the group-algebra
    constructor returning the swapped-word C2 x C2 algebra and an empty build
    cache, a checked build raises ConstructionError and an unchecked one
    returns the instance."""
    swapped = _c2xc2(SWAPPED_WORDS)
    monkeypatch.setattr(families, "build_group_algebra", lambda *args, **kwargs: swapped)
    monkeypatch.setattr(families, "_build_cached", lru_cache(maxsize=None)(families._build_cached.__wrapped__))
    with pytest.raises(ConstructionError, match="violations in"):
        build("group:2,2")
    assert build("group:2,2", checked=False) is swapped


def test_group_algebra_structure():
    h = build("group:2,4")
    assert h.dim == 8
    g1, g2 = h.gen("g1"), h.gen("g2")
    assert g1 * g1 == h.unit()
    assert g2**4 == h.unit()
    assert delta(g2) == g2.tensor(g2)
    assert g2.apply_antipode(0) == g2**3


@st.composite
def skew_data(draw):
    """A quantum linear space over C_m = <g> with one or two skew-primitives
    x_i: chi_i(g) = zeta^k_i, Delta(x_i) = x_i (x) g^b_i + g^a_i (x) x_i and
    N_i = ord chi_i(g^(a_i - b_i)), with chi_1(u_2) chi_2(u_1) = 1 for
    u_i = g^(a_i - b_i) when there are two; dimension at most 64."""
    m = draw(st.integers(2, 6))
    skews = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, m - 1))
        ds = [d for d in range(m) if k * d % m and all((k0 * d + k * d0) % m == 0 for k0, d0, _ in skews)]
        assume(ds)
        d = draw(st.sampled_from(ds))
        skews.append((k, d, draw(st.integers(0, m - 1))))
    orders = [m // math.gcd(m, k * d) for k, d, _ in skews]
    assume(m * math.prod(orders) <= 64)
    return m, skews, orders


def skew_algebra(m, skews, orders):
    field = get_field(FieldSpec("cyclotomic", order=m))
    zeta = field.make_root(m)
    names = ["g"] + [f"x{i}" for i in range(1, len(skews) + 1)]
    letters = [("g", m)] + [
        (name, order, {"g": (d + b) % m}, {"g": b}) for name, order, (_, d, b) in zip(names[1:], orders, skews)
    ]
    # x g = chi(g)^-1 g x, and x2 x1 = chi_1(h_2) chi_2(g_1)^-1 x1 x2
    commute = {(name, "g"): zeta ** (-k % m) for name, (k, _, _) in zip(names[1:], skews)}
    if len(skews) == 2:
        (k1, d1, b1), (k2, _, b2) = skews
        commute[("x2", "x1")] = zeta ** ((k1 * b2 - k2 * (d1 + b1)) % m)
    exps = list(product(*(range(letter[1]) for letter in letters)))

    def label(a):
        return "*".join(f"{n}^{e}" for n, e in zip(names, a) if e) or "1"

    return build_quantum_linear_space(letters, commute, exps, label, field, "qls")


@settings(max_examples=12, deadline=None)
@given(skew_data())
def test_quantum_linear_space_builder_is_hopf(case):
    rep = verify_hopf(skew_algebra(*case))
    assert rep.ok, rep.summary()


@settings(max_examples=12, deadline=None)
@given(skew_data(), st.data())
def test_quantum_linear_space_wrong_nilpotency_refused(case, data):
    m, skews, orders = case
    other = m * math.prod(orders[1:])
    wrong = [n for n in range(2, 64 // other + 1) if n != orders[0]]
    assume(wrong)
    orders = [data.draw(st.sampled_from(wrong))] + orders[1:]
    assert not verify_hopf(skew_algebra(m, skews, orders)).ok
