from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pe, random_sparse_tensor
from hopflab.families import build, build_en
from hopflab.hopf import (
    HopfData,
    HopfError,
    ParentMismatch,
    Tensor,
    antipode,
    centralizer_of_coproduct,
    counit,
    delta,
    verify_antipode_antihom,
    verify_bialgebra,
    verify_hopf,
)
from hopflab.scalars import FieldSpec


def test_unit_multiplication(en2):
    for i in range(en2.dim):
        b = en2.basis_elem(i)
        assert en2.unit() * b == b == b * en2.unit()


def test_en2_generator_relation(en2):
    g, x1 = en2.gen("g"), en2.gen("x1")
    assert (g * x1) * g == -x1
    assert g * x1 == -(x1 * g)
    assert x1 * x1 == en2.zero_elem()


def test_h8_z_square(h8):
    z = h8.gen("z")
    x, y = h8.gen("x"), h8.gen("y")
    half = h8.field.one / h8.field.from_int(2)
    expected = (h8.unit() + x + y - x * y).scaled(half)
    assert z * z == expected


def test_delta_counit_unit(en1):
    one = en1.unit()
    assert delta(one) == one.tensor(one)
    assert counit(one) == en1.field.one


def test_sweedler_delta(en1):
    x1, g = en1.gen("x1"), en1.gen("g")
    assert delta(x1) == x1.tensor(en1.unit()) + g.tensor(x1)


def test_en2_delta_of_product_matches_multiplicativity(en2):
    x1, x2 = en2.gen("x1"), en2.gen("x2")
    assert delta(x1 * x2) == delta(x1) * delta(x2)
    g = en2.gen("g")
    expected = (
        (x1 * x2).tensor(en2.unit())
        + (g * x2).tensor(x1)
        - (g * x1).tensor(x2)
        + en2.unit().tensor(x1 * x2)
    )
    assert delta(x1 * x2) == expected


def test_verify_group_algebra(kc2):
    assert verify_hopf(kc2).ok


def test_verify_en3(en3):
    assert verify_hopf(en3).ok


def test_corrupted_table_detected(en1):
    bad_comult = [dict(t) for t in en1.comult]
    g_idx = en1.generators["g"]
    bad_comult[g_idx] = {g_idx * en1.dim + en1.unit_index: en1.field.one}  # Delta(g) := g (x) 1
    bad = HopfData(
        en1.field, en1.labels, en1.mult, en1.unit_index, bad_comult, en1.counit,
        en1.antipode, en1.generators, "corrupted",
    )
    rep = verify_bialgebra(bad)
    assert not rep.ok
    assert any("g" in witness for _, witness in rep.failures)
    laws = {law for law, _ in rep.failures}
    assert laws & {"coassociativity", "comult.morphism", "counit.left", "counit.right"}


def test_parent_mismatch(en1):
    other = build_en(1)
    a = en1.gen("g")
    b = other.gen("g")
    if a.parent is b.parent:  # the build cache may return the same instance
        other = build_en(1, checked=False)
        b = other.gen("g")
    with pytest.raises(ParentMismatch):
        a * b


def test_flip_involutive(en2, rng):
    t = random_sparse_tensor(en2, rng)
    assert t.flip().flip() == t


def test_counit_multiplicative(en2):
    for i in range(en2.dim):
        for j in range(en2.dim):
            a, b = en2.basis_elem(i), en2.basis_elem(j)
            assert counit(a * b) == counit(a) * counit(b)


def test_leg_embedding_multiplicative(en2, rng):
    s = random_sparse_tensor(en2, rng)
    t = random_sparse_tensor(en2, rng)
    for place in (12, 13, 23):
        assert s.leg(place) * t.leg(place) == (s * t).leg(place)
    c = en2.field.from_int(3)
    assert s.scaled(c).leg(12) == s.leg(12).scaled(c)


def test_dmaps_consistency(en2, rng):
    t = random_sparse_tensor(en2, rng)
    dim = en2.dim
    left = en2.zero_tensor(3)
    for k, v in t.coeffs.items():
        i, j = divmod(k, dim)
        d = delta(en2.basis_elem(i))
        for kk, w in d.coeffs.items():
            a, b = divmod(kk, dim)
            left = left + Tensor(en2, 3, {(a * dim + b) * dim + j: v * w})
    assert left == t.apply_delta(0)


def test_antipode_antihom(en2, radford22):
    assert verify_antipode_antihom(en2).ok
    assert verify_antipode_antihom(radford22).ok


def test_centralizer_of_unit_is_everything(en2):
    assert centralizer_of_coproduct(en2, en2.unit()).dim == en2.dim**2


def test_centralizer_of_g_en2(en2):
    cent = centralizer_of_coproduct(en2, en2.gen("g"))
    assert cent.dim == 32
    # exactly the tensors with even total x-degree
    size = 1 << 2
    for j in (0, 1):
        for pm in range(size):
            for k in (0, 1):
                for qm in range(size):
                    idx = (j * size + pm) * en2.dim + (k * size + qm)
                    even = (bin(pm).count("1") + bin(qm).count("1")) % 2 == 0
                    assert cent.contains({idx: en2.field.one}) == even


def test_centralizer_of_x1_vanishing_pattern(en2):
    """Necessary vanishing conditions on the commutant of Delta(x_i)."""
    cent = centralizer_of_coproduct(en2, en2.gen("x1"))
    size = 1 << 2
    i_bit = 1  # membership bit for x1

    def coeff_zero_required(j, pm, k, qm):
        in_p, in_q = bool(pm & i_bit), bool(qm & i_bit)
        p_even, q_even = bin(pm).count("1") % 2 == 0, bin(qm).count("1") % 2 == 0
        if not in_p and not in_q:
            if p_even and q_even:
                return (j, k) in ((0, 1), (1, 0), (1, 1))
            if not p_even and q_even:
                return (j, k) in ((0, 0), (0, 1), (1, 0))
            if p_even and not q_even:
                return (j, k) in ((0, 0), (1, 0), (1, 1))
            return (j, k) in ((0, 0), (0, 1), (1, 1))
        if not in_p and in_q:
            if p_even and q_even:
                return (j, k) == (1, 0)
            if not p_even and q_even:
                return (j, k) == (0, 1)
            if p_even and not q_even:
                return (j, k) == (1, 1)
            return (j, k) == (0, 0)
        if in_p and not in_q:
            if p_even and q_even:
                return (j, k) == (0, 1)
            if not p_even and q_even:
                return (j, k) == (1, 0)
            if p_even and not q_even:
                return (j, k) == (0, 0)
            return (j, k) == (1, 1)
        return False

    for vec in cent.basis():
        for idx, v in vec.items():
            left, right = divmod(idx, en2.dim)
            j, pm = divmod(left, size)
            k, qm = divmod(right, size)
            assert not coeff_zero_required(j, pm, k, qm), (
                f"coefficient at g^{j}x[{pm:02b}] (x) g^{k}x[{qm:02b}] must vanish"
            )


def test_tensor_pow_and_elem_pow(en2):
    g = en2.gen("g")
    assert g**0 == en2.unit()
    assert g**2 == en2.unit()
    t = g.tensor(g)
    assert t**2 == en2.unit_tensor(2)


# -- the legwise product kernel against a plain reference -----------------------

# (family, field, root order): Q, F_97, Q(zeta4), Q(zeta8) and Q(zeta3); h8 has
# cells with several terms and coefficients other than one, and the z*z cells
# of h2n2:3 have 9 terms with coefficient zeta^k / 3
KERNEL_ALGEBRAS = [
    ("en:2", None, 2),
    ("en:2", "prime:97", 8),
    ("ac4dual", None, 4),
    ("h8", None, 8),
    ("h2n2:3", None, 3),
]


def _kernel_algebra(i):
    family, field, _ = KERNEL_ALGEBRAS[i]
    return build(family, FieldSpec.parse(field) if field else None)


def reference_product(a: Tensor, b: Tensor) -> Tensor:
    """Sum over pairs of basis tensors of the legwise mult cells, no shortcuts."""
    h = a.parent
    dim = h.dim
    out = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            ia, ib = a._split(ka), b._split(kb)
            terms = {0: ca * cb}  # flattened index of the legs so far -> coefficient
            for t in range(a.legs):
                cell = h.mult[ia[t]][ib[t]]
                terms = {p * dim + k: c * v for p, c in terms.items() for k, v in cell.items()}
            for k, c in terms.items():
                out[k] = out.get(k, h.field.zero) + c
    return Tensor(h, a.legs, out)


@st.composite
def tensor_pairs(draw):
    which = draw(st.integers(0, len(KERNEL_ALGEBRAS) - 1))
    h = _kernel_algebra(which)
    root = h.field.make_root(KERNEL_ALGEBRAS[which][2])
    legs = draw(st.sampled_from((2, 3)))

    p = h.field.characteristic

    def tensor():
        # numerators and denominators large enough for packed slots wider than 64 bits
        coeffs = {}
        for idx in draw(st.lists(st.integers(0, h.dim**legs - 1), max_size=6, unique=True)):
            den = draw(st.integers(1, 10**6).filter(lambda d: not p or d % p))
            q = Fraction(draw(st.integers(-(10**15), 10**15)), den)
            coeffs[idx] = h.field.from_fraction(q) * root ** draw(st.integers(0, 7))
        return Tensor(h, legs, coeffs)

    return tensor(), tensor()


@settings(max_examples=80, deadline=None)
@given(tensor_pairs())
def test_product_kernel_matches_reference(pair):
    a, b = pair
    assert a * b == reference_product(a, b)
    assert b * a == reference_product(b, a)


def test_product_kernel_wide_slots_three_legs(h2n2_3):
    """A 3-leg product over Q(zeta3) whose packed slots need well over 64 bits."""
    h = h2n2_3
    f = h.field
    z = f.make_root(3)
    dim3 = h.dim**3
    a, b = {}, {}
    for k in range(6):
        a[(7 * k * k + 3) % dim3] = f.from_fraction(Fraction(10**15 - k, 999_983 + k)) * z**k
        b[(11 * k + 5) % dim3] = f.from_fraction(Fraction(-(10**15) + 7 * k, 10**6 - k)) * z ** (k + 1)
    for idx in ((17 * h.dim + 17) * h.dim + 17, (9 * h.dim + 12) * h.dim + 15):  # z-words in every leg
        a[idx] = f.from_fraction(Fraction(10**15 + idx, 3))
        b[idx] = f.from_fraction(Fraction(-(10**15) + idx, 7)) * z
    a, b = Tensor(h, 3, a), Tensor(h, 3, b)
    assert a * b == reference_product(a, b)
    assert b * a == reference_product(b, a)


def test_product_kernel_leg_counts(en2):
    two = en2.unit_tensor(2)
    with pytest.raises(HopfError):
        two * en2.unit_tensor(3)
    for legs in (1, 4):
        t = en2.unit_tensor(legs)
        with pytest.raises(HopfError):
            t * t
