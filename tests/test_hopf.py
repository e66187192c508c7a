import functools
import importlib.util
import itertools
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply_rows,
    batch_modes,
    commutator,
    commutator_maps,
    copy_tables,
    direct_images,
    oracle_verify_bialgebra,
    pe,
    q,
    random_sparse_tensor,
    verify_antipode_antihom,
)
from hopflab.cohomology import b_apply
from hopflab.expressions import format_tensor
from hopflab.families import build, build_en
from hopflab.hopf import (
    HopfData,
    HopfError,
    ParentMismatch,
    Tensor,
    _generator_elems,
    _factored_operand,
    _factored_product,
    _product2,
    counit,
    delta,
    full_space,
    map_rows,
    multiply,
    product_sum,
    product_sums as batched_product_sums,
    restrict_and_cut,
    vanishes_all,
    verify_bialgebra,
    verify_hopf,
)
from hopflab.linalg import Subspace, kernel_of_rows
from hopflab.precartier import analysis, commutant_of_coproducts, cqtr_rmul_map, solve_rfree
from hopflab.rmatrices import build_r
from hopflab.scalars import CycField, FieldSpec


def test_unit_multiplication(en2):
    for i in range(en2.dim):
        b = en2.basis_elem(i)
        assert en2.unit() * b == b == b * en2.unit()


def test_en2_generator_relation(en2):
    g, x1 = en2.gen("g"), en2.gen("x1")
    assert (g * x1) * g == -x1
    assert g * x1 == -(x1 * g)
    assert x1 * x1 == en2.zero_tensor(1)


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


# -- one element type: slot maps and outer products on any leg count -------------

SLOT_MAP_FIELDS = [("en:2", None), ("h2n2:3", None), ("h8", "prime:97")]  # Q, Q(zeta3), F_97


def _random_tensor(h, rng, legs):
    """A sparse random tensor whose coefficients are rationals times powers
    of the field's root of unity (of order 1 over Q)."""
    f = h.field
    order = {"h2n2": 3, "h8": 8}.get(h.family.kind, 1)
    root = f.make_root(order)
    coeffs = {}
    for _ in range(6):
        c = q(f, rng.randint(-9, 9), rng.randint(1, 7))
        coeffs[rng.randrange(h.dim**legs)] = c * root ** rng.randrange(order)
    return Tensor(h, legs, coeffs)


def _legs_of(h, legs: int, k: int) -> tuple:
    parts = []
    for _ in range(legs):
        k, i = divmod(k, h.dim)
        parts.insert(0, i)
    return tuple(parts)


def _by_legs(t: Tensor) -> dict:
    return {_legs_of(t.parent, t.legs, k): v for k, v in t.coeffs.items()}


def _legwise_reference(t: Tensor, slot: int, images) -> dict:
    """The slot map term by term: every term of t, split into its legs, has
    the leg at ``slot`` replaced by each (legs, coefficient) of its image."""
    h = t.parent
    out = {}
    for parts, v in _by_legs(t).items():
        for legs, w in images(parts[slot]):
            key = parts[:slot] + legs + parts[slot + 1 :]
            out[key] = out.get(key, h.field.zero) + v * w
    return {key: c for key, c in out.items() if c}


def _table_images(h):
    """e_i -> its image as (legs, coefficient) pairs, read off the tables."""
    return {
        "apply_delta": lambda i: [(divmod(k, h.dim), w) for k, w in h.comult[i].items()],
        "apply_counit": lambda i: [((), h.counit[i])],
        "apply_antipode": lambda i: [((j,), w) for j, w in h.antipode[i].items()],
    }


@pytest.mark.parametrize("family,field", SLOT_MAP_FIELDS, ids=[f for f, _ in SLOT_MAP_FIELDS])
def test_slot_maps_match_the_legwise_expansion(family, field, rng):
    """Delta, epsilon and S on every slot of 1-, 2- and 3-leg tensors are the
    term-by-term expansion of ``h.comult``, ``h.counit`` and ``h.antipode``."""
    h = build(family, FieldSpec.parse(field) if field else None)
    width = {"apply_delta": 2, "apply_counit": 0, "apply_antipode": 1}
    for legs in (1, 2, 3):
        for _ in range(3):
            t = _random_tensor(h, rng, legs)
            for name, images in _table_images(h).items():
                for slot in range(legs):
                    image = getattr(t, name)(slot)
                    assert image.legs == legs - 1 + width[name]
                    assert _by_legs(image) == _legwise_reference(t, slot, images), (name, legs, slot)
    x = h.basis_elem(1)
    assert delta(x) == x.apply_delta(0)
    with pytest.raises(HopfError):
        x.apply_delta(1)


@pytest.mark.parametrize(
    "left,right,text",
    [("x1", "g", "x1 (x) g"), ("g*x2", "x1 (x) g", "g*x2 (x) x1 (x) g"), ("x1 (x) g", "x2 - g", "x1 (x) g (x) x2 - x1 (x) g (x) g")],
    ids=["1,1", "1,2", "2,1"],
)
def test_outer_product_matches_parse(en2, left, right, text):
    assert pe(en2, left).tensor(pe(en2, right)) == pe(en2, text)


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
    other = build_en(1, en1.field)  # a fresh instance: only ``build`` caches
    with pytest.raises(ParentMismatch):
        en1.gen("g") * other.gen("g")


def _leg_by_index_table(t, placement):
    """The reference embedding of a 2-tensor into legs 12, 13 or 23 of the
    cube, by the index of each entry."""
    dim, u = t.parent.dim, t.parent.unit_index
    out = {}
    for k, v in t.coeffs.items():
        i, j = divmod(k, dim)
        out[{12: (i * dim + j) * dim + u, 13: (i * dim + u) * dim + j, 23: (u * dim + i) * dim + j}[placement]] = v
    return Tensor(t.parent, 3, out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["en:2", "h8"]), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_permute_is_an_automorphism(family, legs, seed):
    """On the monomial table of en:2 and the factorized 2-leg loop of h8:
    every leg permutation is multiplicative, permuting back by the inverse
    permutation is the identity, and leg 13 is leg 12 with legs 2 and 3
    swapped."""
    h, rng = build(family), random.Random(seed)
    a, b = (random_sparse_tensor(h, rng, legs=legs, nnz=8) for _ in range(2))
    for p in itertools.permutations(range(legs)):
        inverse = tuple(sorted(range(legs), key=p.__getitem__))
        assert (a * b).permute(p) == a.permute(p) * b.permute(p)
        assert a.permute(p).permute(inverse) == a
    if legs == 2:
        for placement in (12, 13, 23):
            assert a.leg(placement) == _leg_by_index_table(a, placement)
        assert a.leg(13) == a.leg(12).permute((0, 2, 1))


def test_permute_moves_each_leg(en2):
    """Leg k of the result is leg order[k] of the input: a 3-cycle tells
    this convention from its inverse."""
    x, g = en2.gen("x1"), en2.gen("g")
    three = en2.field.from_int(3)
    t = x.tensor(g).tensor(x * g).scaled(three)
    assert t.permute((2, 0, 1)) == (x * g).tensor(x).tensor(g).scaled(three)
    assert t.permute((1, 2, 0)) == g.tensor(x * g).tensor(x).scaled(three)


@pytest.mark.parametrize("legs,order", [(2, (0, 0)), (3, (0, 1)), (3, (0, 0, 1)), (2, (1, 2)), (3, (0, 1, 2, 3))])
def test_permute_refuses_a_non_permutation(en2, legs, order):
    t = en2.unit_tensor(legs)
    with pytest.raises(HopfError, match="not a permutation"):
        t.permute(order)


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


@pytest.mark.parametrize(
    "family, field, root",
    [("en:2", None, 1), ("h2n2:3", None, 3), ("h2n2:3", FieldSpec("prime", p=97), 3)],
)
def test_multiply_is_the_plain_expansion(family, field, root):
    """``multiply`` of a 2-tensor is the sum of v * mult[i][j] over its entries
    (i, j; v), over Q, Q(zeta_3) and F_97 (H_18 has cells of nine terms)."""
    h = build(family, field)
    zeta = h.field.make_root(root)
    t = random_sparse_tensor(h, random.Random(5), nnz=40)
    t = Tensor(h, 2, {k: v * zeta**k for k, v in t.coeffs.items()})
    expected = {}
    for k, v in t.coeffs.items():
        i, j = divmod(k, h.dim)
        for m, c in h.mult[i][j].items():
            expected[m] = expected.get(m, h.field.zero) + v * c
    assert multiply(t) == Tensor(h, 1, expected) and multiply(t).legs == 1
    with pytest.raises(HopfError):
        multiply(h.unit())


def _maps_under_test(h, batched=False):
    """Plain callables, or with ``batched`` the ``SumMap`` form that
    ``map_rows`` evaluates on all columns on one lift."""
    if h.family.kind == "en":  # C2 in the R-multiplied form
        c2 = cqtr_rmul_map(build_r(h, "en-a:[[1,2],[3,5]]"))
        return [c2] if batched else [lambda t: c2(t)]
    if h.family.kind == "h8":  # the cobar differential b2
        return [lambda t: b_apply(h, 2, t)]
    if batched:  # one commutator per generator, Delta(g) shared by every column
        return commutator_maps(h, _generator_elems(h))
    return [lambda t, g=g: commutator(t, g) for g in _generator_elems(h)]


@pytest.mark.parametrize("family", ["en:2", "h8", "h2n2:2"])
def test_map_rows_agree_with_the_maps(family):
    _assert_rows_agree_with_the_maps(family, batched=False)


@pytest.mark.parametrize("family", ["en:2", "h2n2:2"])
def test_map_rows_of_sum_maps_agree_with_the_maps(family):
    """A ``SumMap`` is evaluated on all columns on one lift."""
    _assert_rows_agree_with_the_maps(family, batched=True)


def _assert_rows_agree_with_the_maps(family, batched):
    h = build(family)
    rng = random.Random(17)
    maps = _maps_under_test(h, batched)
    rows = map_rows(h, 2, maps, full_space(h, 2).rows)
    for _ in range(8):
        t = random_sparse_tensor(h, rng)
        assert apply_rows(rows, t.coeffs) == direct_images(maps, t)
    # restricted to columns, coefficient c of a vector weighs columns[c]
    columns = [random_sparse_tensor(h, rng).coeffs for _ in range(5)]
    rows = map_rows(h, 2, maps, columns)
    for _ in range(4):
        y = random_sparse_tensor(h, rng, legs=1, nnz=3).coeffs
        y = {c % len(columns): v for c, v in y.items()}
        t = h.zero_tensor(2)
        for c, v in y.items():
            t = t + Tensor(h, 2, columns[c]).scaled(v)
        assert apply_rows(rows, y) == direct_images(maps, t)


def test_cut_by_a_vanishing_map_returns_the_space():
    h = build("en:2")
    rfree = solve_rfree(h)
    counits = [lambda t: t.apply_counit(1), lambda t: t.apply_counit(0)]
    assert restrict_and_cut(h, 2, rfree, counits) == rfree
    comm = analysis(h, "commutant")
    assert restrict_and_cut(h, 2, comm, [lambda t: commutator(t, h.gen("g"))]) == comm
    whole = full_space(h, 2)
    assert restrict_and_cut(h, 2, whole, [lambda t: commutator(t, h.unit())]) == whole


@pytest.mark.parametrize(
    "family,rspec", [("en:2", "en-a:[[1,2],[3,5]]"), ("en:3", "en-a:[[1,0,0],[0,1,0],[0,0,1]]"), ("ac2n:2", "ac22:q=1,a=1")]
)
def test_cut_is_canonical_and_equals_the_intersection(family, rspec):
    """The cut maps its kernel back without re-eliminating: its rows must be
    the canonical RREF, and the space must be the intersection of the input
    with the kernel of the full matrix of the map."""
    h = build(family)
    c2 = cqtr_rmul_map(build_r(h, rspec))
    space = analysis(h, "commutant")
    maps = [lambda t: c2(t)]
    cut = restrict_and_cut(h, 2, space, maps)
    assert 0 < cut.dim < space.dim
    assert Subspace.from_vectors(list(cut.rows), cut.ambient_dim) == cut
    assert cut == space.intersect(kernel_of_rows(map_rows(h, 2, maps, full_space(h, 2).rows).values(), h.dim**2))


@pytest.mark.parametrize("field", ["Q", "cyclotomic:3", "prime:97"])
def test_vanishing_commutant_keeps_field_coefficients(field):
    """On a commutative, cocommutative H every commutator vanishes: the
    commutant is all of H (x) H, with coefficients of the field's type."""
    h = build("group:2,2", FieldSpec.parse(field))
    comm = analysis(h, "commutant")
    assert comm.dim == h.dim**2
    kind = type(h.field.one)
    assert all(type(v) is kind for row in comm.rows for v in row.values())
    assert [format_tensor(Tensor(h, 2, row)) for row in comm.rows][:2] == ["(1 (x) 1)", "(1 (x) g2)"]


def test_centralizer_of_unit_is_everything(en2):
    assert commutant_of_coproducts(en2, [en2.unit()]).dim == en2.dim**2


def test_centralizer_of_g_en2(en2):
    cent = commutant_of_coproducts(en2, [en2.gen("g")])
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
    cent = commutant_of_coproducts(en2, [en2.gen("x1")])
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

# (family, field, root order): Q, F_97, F_3, Q(zeta4), Q(zeta8) and Q(zeta3);
# h8 has cells with several terms and coefficients other than one, and the
# z*z cells of h2n2:3 have 9 terms with coefficient zeta^k / 3.  Over Q the
# integer lift scales the table by the lcm D_m of its denominators: D_m > 1
# on h2n2:2 and on "en:2 rescaled" (en:2 in a diagonally rescaled basis).
KERNEL_ALGEBRAS = [
    ("en:2", None, 2),
    ("en:2", "prime:97", 8),
    ("en:2", "prime:3", 2),
    ("en:2 rescaled", None, 2),
    ("h2n2:2", None, 2),
    ("ac4dual", None, 4),
    ("h8", None, 8),
    ("h2n2:3", None, 3),
]


def rescaled(h, scales):
    """H in the basis e'_i = scales[i] e_i (one at the unit), every table
    rewritten, verified by ``verify_hopf``."""
    dim, c = h.dim, scales
    assert c[h.unit_index] == h.field.one
    mult = [[{k: v * c[i] * c[j] / c[k] for k, v in h.mult[i][j].items()} for j in range(dim)] for i in range(dim)]
    comult = [{ab: v * c[k] / (c[ab // dim] * c[ab % dim]) for ab, v in h.comult[k].items()} for k in range(dim)]
    counit = [e * c[k] for k, e in enumerate(h.counit)]
    antipode = [{a: v * c[k] / c[a] for a, v in h.antipode[k].items()} for k in range(dim)]
    out = HopfData(h.field, h.labels, mult, h.unit_index, comult, counit, antipode, h.generators, f"rescaled {h.name}")
    assert verify_hopf(out).ok
    return out


@functools.lru_cache(maxsize=None)
def _kernel_algebra(i):
    family, field, _ = KERNEL_ALGEBRAS[i]
    if family == "en:2 rescaled":
        h = build("en:2")
        f = h.field
        return rescaled(h, [f.one if i == h.unit_index else q(f, i + 2, 2 * i + 3) for i in range(h.dim)])
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
            c = q(h.field, draw(st.integers(-(10**15), 10**15)), den)
            coeffs[idx] = c * root ** draw(st.integers(0, 7))
        return Tensor(h, legs, coeffs)

    return tensor(), tensor()


@settings(max_examples=120, deadline=None)
@given(tensor_pairs())
def test_product_kernel_matches_reference(pair):
    a, b = pair
    assert a * b == reference_product(a, b)
    assert b * a == reference_product(b, a)


@st.composite
def product_sums(draw):
    """An algebra of KERNEL_ALGEBRAS, a leg count and one to four terms
    (s, a, b) of the kernel, s a sign and b the unit tensor 1 (x) 1 (or
    1 (x) 1 (x) 1) in a term that is linear in a, with coefficients as in
    ``tensor_pairs``."""
    which = draw(st.integers(0, len(KERNEL_ALGEBRAS) - 1))
    h = _kernel_algebra(which)
    f = h.field
    root = f.make_root(KERNEL_ALGEBRAS[which][2])
    legs = draw(st.sampled_from((2, 3)))
    p = f.characteristic

    def scalar():
        den = draw(st.integers(1, 10**6).filter(lambda d: not p or d % p))
        return q(f, draw(st.integers(-(10**15), 10**15)), den) * root ** draw(st.integers(0, 7))

    def tensor():
        idxs = draw(st.lists(st.integers(0, h.dim**legs - 1), max_size=5, unique=True))
        return Tensor(h, legs, {idx: scalar() for idx in idxs})

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.sampled_from((1, -1)))
        terms.append((s, tensor(), h.unit_tensor(legs) if draw(st.booleans()) else tensor()))
    return h, legs, terms


@settings(max_examples=120, deadline=None)
@given(product_sums())
def test_product_sum_matches_term_by_term_sum(case):
    """``product_sum`` against the sum of the reference products, term by
    term in element arithmetic, over Q, F_p and Q(zeta_M); ``vanishes_all``
    agrees with it, and holds on the sum minus its own value (an int sum
    that over Q(zeta_M) is in general a nonzero multiple of Phi_M)."""
    h, legs, terms = case
    ref = h.zero_tensor(legs)
    for s, a, b in terms:
        prod = reference_product(a, b)
        ref = ref + prod if s == 1 else ref - prod
    kernel_terms = [(s, a.coeffs, b.coeffs) for s, a, b in terms]
    assert Tensor(h, legs, product_sum(h, legs, kernel_terms)) == ref
    assert vanishes_all(h, legs, [kernel_terms]) is (not ref)
    assert vanishes_all(h, legs, [kernel_terms + [(-1, ref.coeffs, h.unit_tensor(legs).coeffs)]])


@settings(max_examples=60, deadline=None)
@given(product_sums())
def test_sums_on_one_lift_match_each_sum(case):
    """``product_sums`` and ``vanishes_all`` run several term lists on one
    lift, lifting an operand dict they share once and folding each sign
    -1 into the operand used fewer times: every sum must equal its own
    ``product_sum``.  The sums here share the same dict objects, also with
    the operands of a product swapped."""
    h, legs, terms = case
    kernel_terms = [(s, a.coeffs, b.coeffs) for s, a, b in terms]
    swapped = [(s, b, a) for s, a, b in kernel_terms]
    sums = [kernel_terms, swapped, kernel_terms[:1], []]
    got = batched_product_sums(h, legs, sums)
    assert got == [product_sum(h, legs, s) for s in sums]
    assert vanishes_all(h, legs, sums) is not any(got)
    unit = h.unit_tensor(legs).coeffs
    assert vanishes_all(h, legs, [s + [(-1, x, unit)] for s, x in zip(sums, got)])


def test_vanishes_reduces_modulo_phi():
    """zeta^2 * zeta - 1 * 1 in Q(zeta3): packed, zeta^2 = -1 - t and the
    sum is -1 - t - t^2 = -Phi_3(t), a nonzero int that stands for zero."""
    h = build("en:1", FieldSpec.parse("cyclotomic:3"))
    f = h.field
    z, one, u = f.make_root(3), f.one, h.unit_index * h.dim + h.unit_index
    terms = [(1, {u: z * z}, {u: z}), (-1, {u: one}, {u: one})]
    assert vanishes_all(h, 2, [terms]) and product_sum(h, 2, terms) == {}
    assert not vanishes_all(h, 2, [terms[:1]]) and not vanishes_all(h, 2, [[(-1, {u: z}, {u: one})]])


# -- verify_bialgebra on the integer lift against the element-arithmetic oracle --

VERIFY_COUNTS = {"h2n2:3": 6608, "ac2n:4": 35042, "en:3": 4722, "h8": 698}


@pytest.mark.parametrize("family", [family for family, _ in batch_modes()])
def test_verify_bialgebra_matches_oracle(family):
    """Every family of ``scripts/run_classifications.py``: the same (law,
    witness) list and the same count as the element-arithmetic oracle."""
    h = build(family)
    got, want = verify_bialgebra(h), oracle_verify_bialgebra(h)
    assert got.failures == want.failures == []
    assert got.checks == want.checks
    if family in VERIFY_COUNTS:
        assert verify_hopf(h).checks == VERIFY_COUNTS[family]


def _scaled_cell(h, i, j, factor):
    mult = [[dict(cell) for cell in row] for row in h.mult]
    mult[i][j] = {k: v * factor for k, v in mult[i][j].items()}
    return copy_tables(h, mult=mult)


def _corrupted(case):
    """Copies of built tables with one defect each."""
    kind, family, field = case
    h = build(family, FieldSpec.parse(field) if field else None)
    f, g = h.field, h.generators
    if kind == "mult*2":  # Q: the cell g * x1 (g * x on ac2n) doubled
        return _scaled_cell(h, g["g"], g.get("x1", g.get("x")), f.from_int(2))
    if kind == "mult*zeta":  # Q(zeta3): the 9-term cell z * z times zeta
        return _scaled_cell(h, g["z"], g["z"], f.make_root(3))
    if kind == "mult*5":  # F_97: a cell of several terms times 5
        i, j = next((i, j) for i in range(h.dim) for j in range(h.dim) if len(h.mult_terms[i][j]) > 1)
        return _scaled_cell(h, i, j, f.from_int(5))
    if kind == "mult*zeta-unit":  # Q(zeta3): a cell of the unit row, so the unit law fails too
        return _scaled_cell(h, h.unit_index, g["x"], f.make_root(3))
    comult = [dict(t) for t in h.comult]  # "delta": one entry of Delta(z) changed
    k = min(comult[g["z"]])
    comult[g["z"]][k] = comult[g["z"]][k] + f.one
    return copy_tables(h, comult=comult)


CORRUPTIONS = [
    ("mult*2", "en:3", None),
    ("mult*2", "ac2n:3", None),
    ("mult*zeta", "h2n2:3", None),
    ("mult*zeta-unit", "h2n2:3", None),
    ("mult*5", "h8", "prime:97"),
    ("delta", "h2n2:3", None),
    ("delta", "h8", None),
]


@pytest.mark.parametrize("case", CORRUPTIONS, ids=lambda c: f"{c[0]}-{c[1]}-{c[2] or 'default'}")
def test_corrupted_tables_fail_as_the_oracle_does(case):
    bad = _corrupted(case)
    got, want = verify_bialgebra(bad), oracle_verify_bialgebra(bad)
    assert want.failures, "the corruption must break an axiom"
    assert got.failures == want.failures
    assert got.checks == want.checks
    assert not verify_hopf(bad).ok and not bad.hopf_verified


@pytest.mark.parametrize("which", [3, 4])
def test_integer_lift_scales_rational_tables(which):
    """The algebras where the integer lift over Q multiplies the table by D_m > 1."""
    h = _kernel_algebra(which)
    assert h.table_den > 1
    width = h.field.width(h.table_norm)
    assert all(v is not None for row in h.int_terms(width) for cell in row for _, v in cell)


@pytest.mark.parametrize("which", [1, 2, 3, 4])
@pytest.mark.parametrize("legs", [2, 3])
def test_integer_lift_dense_products(which, legs):
    """Dense products over Q with D_m = 2 and over F_97 and F_3, with
    numerators up to 10^15 over denominators near 10^6 (coprime to p), so
    that cancellation modulo p and the scale D_a * D_b * D_m^legs both show."""
    h = _kernel_algebra(which)
    f, p = h.field, h.field.characteristic
    n = h.dim**legs
    dens = [d for d in range(999_983, 10**6 + 40) if not p or d % p][:24]
    a = {(37 * k + 5) % n: q(f, (-1) ** k * (10**15 - 3 * k), dens[k]) for k in range(12)}
    b = {(53 * k + 11) % n: q(f, 10**15 // (k + 1), dens[12 + k]) for k in range(12)}
    a, b = Tensor(h, legs, a), Tensor(h, legs, b)
    for x, y in ((a, b), (b, a), (a, a)):
        assert x * y == reference_product(x, y)


def test_product_kernel_wide_slots_three_legs(h2n2_3):
    """A 3-leg product over Q(zeta3) whose packed slots need well over 64 bits."""
    h = h2n2_3
    f = h.field
    z = f.make_root(3)
    dim3 = h.dim**3
    a, b = {}, {}
    for k in range(6):
        a[(7 * k * k + 3) % dim3] = q(f, 10**15 - k, 999_983 + k) * z**k
        b[(11 * k + 5) % dim3] = q(f, -(10**15) + 7 * k, 10**6 - k) * z ** (k + 1)
    for idx in ((17 * h.dim + 17) * h.dim + 17, (9 * h.dim + 12) * h.dim + 15):  # z-words in every leg
        a[idx] = q(f, 10**15 + idx, 3)
        b[idx] = q(f, -(10**15) + idx, 7) * z
    a, b = Tensor(h, 3, a), Tensor(h, 3, b)
    assert a * b == reference_product(a, b)
    assert b * a == reference_product(b, a)


def test_product_kernel_leg_counts(en2):
    """Elements (1-leg tensors), 2- and 3-tensors multiply; 4-tensors and
    operands of different leg counts do not."""
    for legs in (1, 2, 3):
        t = en2.unit_tensor(legs)
        assert t * t == t
    for a, b in ((2, 3), (1, 2), (2, 1), (4, 4)):
        with pytest.raises(HopfError):
            en2.unit_tensor(a) * en2.unit_tensor(b)


# -- the factorized 2-leg loop of non-monomial tables ------------------------------


@pytest.mark.parametrize("family", ["h2n2:2", "h2n2:3", "h8"])
def test_non_monomial_tables(family):
    assert build(family).monomial is False


@pytest.mark.parametrize(
    "family",
    ["en:1", "en:2", "en:3", "ac2n:2", "ac2n:3", "ac2n:4", "radford:2,2", "radford:2,3", "radford:3,2",
     "group:2", "group:2,2,2", "ac4dual"],
)
def test_monomial_tables(family):
    assert build(family).monomial is True


def reference_elem_product(a, b):
    """Sum over pairs of basis elements of the mult cells, no shortcuts."""
    h = a.parent
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            for k, v in h.mult[i][j].items():
                out[k] = out.get(k, h.field.zero) + x * y * v
    return out


@pytest.mark.parametrize("family", ["h2n2:3", "h8", "radford:2,3"])
def test_elem_product_matches_reference(family, rng):
    h = build(family)
    f = h.field
    for _ in range(5):
        a, b = ({rng.randrange(h.dim): f.from_int(rng.randint(-9, 9)) for _ in range(6)} for _ in range(2))
        a, b = Tensor(h, 1, a), Tensor(h, 1, b)
        assert (a * b).coeffs == Tensor(h, 1, reference_elem_product(a, b)).coeffs


class NoZeroMul:
    """A scalar that refuses to be multiplied by zero."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __mul__(self, other):
        assert self.x and other.x, "a product loop multiplied by zero"
        return NoZeroMul(self.x * other.x)

    def __add__(self, other):
        return NoZeroMul(self.x + other.x)

    def __bool__(self):
        return bool(self.x)


def _shared_output(cells):
    """(p, q, k): two cells of ``cells`` (a list of (index, cell) pairs) that
    both have a term at output index k."""
    for p, (_, cp) in enumerate(cells):
        for q in range(p + 1, len(cells)):
            shared = {k for k, _ in cp} & {k for k, _ in cells[q][1]}
            if shared:
                return p, q, min(shared)
    return None


def _cancelling_operands(h):
    """2-tensors a and b that meet at one (i1, j0) pair where both the L and
    the R partial sum of the factorized loop cancel at an output index."""
    dim = h.dim
    z = h.generators["z"]
    for j0 in range(dim):
        hit = _shared_output([(i0, h.mult_terms[i0][j0]) for i0 in range(dim)])
        if hit:
            break
    p, q, k0 = hit
    p1, q1, k1 = _shared_output([(j1, h.mult_terms[z][j1]) for j1 in range(dim)])
    a = {p * dim + z: h.mult[q][j0][k0], q * dim + z: -h.mult[p][j0][k0]}
    b = {j0 * dim + p1: h.mult[z][q1][k1], j0 * dim + q1: -h.mult[z][p1][k1]}
    return Tensor(h, 2, a), Tensor(h, 2, b)


def _leg_sharing_pairs(h):
    """Operand pairs that share legs heavily, with wide-slot coefficients: a
    tensor with every entry in the z column of the second leg against one
    with every entry in the z row of the first leg (so L and R each sum dim
    cells), each against the coproduct of z, and the cancelling pair."""
    dim, f = h.dim, h.field
    z = h.generators["z"]
    root = f.make_root(f.order) if type(f) is CycField else f.one
    column = {i0 * dim + z: q(f, 10**15 - 7 * i0, 999_983 + i0) * root**i0 for i0 in range(dim)}
    row = {z * dim + j1: q(f, -(10**15) + j1, 10**6 - j1) * root ** (j1 + 1) for j1 in range(dim)}
    column, row, dz = Tensor(h, 2, column), Tensor(h, 2, row), delta(h.gen("z"))
    return [(column, row), (row, column), (column, dz), (dz, row), _cancelling_operands(h)]


def _factored(terms, dim, ca, cb):
    """``_factored_product`` with the pairwise loop's signature."""
    return _factored_product(terms, dim, _factored_operand(ca, dim), _factored_operand(cb, dim), {})


def _assert_loops_agree(a, b):
    h = a.parent
    ref = reference_product(a, b).coeffs
    assert (a * b).coeffs == ref
    for loop in (_product2, _factored):
        assert loop(h.mult_terms, h.dim, a.coeffs, b.coeffs) == ref
    for monomial in (True, False):  # the kernel's loop choice: each loop on the integer lift
        with mock.patch.object(h, "monomial", monomial):
            assert product_sum(h, 2, [(1, a.coeffs, b.coeffs)]) == ref


@pytest.mark.parametrize("family", ["h2n2:3", "h8"])
def test_factorized_loop_dense_rfree_vector(family):
    """The solve_rfree recheck: a dense R-free basis vector against Delta(z)."""
    h = build(family)
    dense = Tensor(h, 2, max(solve_rfree(h).basis(), key=len))
    dz = delta(h.gen("z"))
    _assert_loops_agree(dense, dz)
    _assert_loops_agree(dz, dense)


@pytest.mark.parametrize("family,field", [("h2n2:3", None), ("h8", None), ("h2n2:2", None), ("h8", "prime:97")])
def test_factorized_loop_heavy_leg_sharing(family, field):
    h = build(family, FieldSpec.parse(field) if field else None)
    for a, b in _leg_sharing_pairs(h):
        _assert_loops_agree(a, b)


@pytest.mark.parametrize("family", ["h2n2:3", "h8", "h2n2:2"])
def test_cancelling_operands_cancel(family):
    """The pair of ``_cancelling_operands`` really cancels inside L and R."""
    h = build(family)
    dim, z = h.dim, h.generators["z"]
    a, b = _cancelling_operands(h)
    j0 = next(iter(b.coeffs)) // dim
    col = [(k // dim, v) for k, v in a.coeffs.items() if k % dim == z]
    row = [(k % dim, v) for k, v in b.coeffs.items() if k // dim == j0]
    lsum = sum((Tensor(h, 1, {i0: v}) * h.basis_elem(j0) for i0, v in col), h.zero_tensor(1))
    rsum = sum((h.basis_elem(z) * Tensor(h, 1, {j1: v}) for j1, v in row), h.zero_tensor(1))
    assert len(lsum.coeffs) < len({k for i0, _ in col for k, _ in h.mult_terms[i0][j0]})
    assert len(rsum.coeffs) < len({k for j1, _ in row for k, _ in h.mult_terms[z][j1]})


@pytest.mark.parametrize("family", ["h2n2:3", "h8"])
def test_product_loops_never_multiply_by_zero(family):
    h = build(family)
    wrapped = [[tuple((k, v if v is None else NoZeroMul(v)) for k, v in cell) for cell in row] for row in h.mult_terms]
    for a, b in _leg_sharing_pairs(h):
        wa = {k: NoZeroMul(v) for k, v in a.coeffs.items()}
        wb = {k: NoZeroMul(v) for k, v in b.coeffs.items()}
        ref = _product2(h.mult_terms, h.dim, a.coeffs, b.coeffs)
        for loop in (_product2, _factored):
            assert {k: v.x for k, v in loop(wrapped, h.dim, wa, wb).items()} == ref


def _crosscheck_module(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "crosscheck_prime_field.py"
    spec = importlib.util.spec_from_file_location("crosscheck_prime_field", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", ["crosscheck_prime_field.py"])
    return module


def test_crosscheck_script_verifies_over_the_prime_field(capsys, monkeypatch):
    """``scripts/crosscheck_prime_field.py`` runs ``verify_hopf`` on each case
    family and each batch family over F_97 with the exact field's check
    count: the F_p route of the kernel's zero test.  Each case report has
    the same dims and flags over F_97, ``cartier_equals_coboundary_cut``
    (an intersection of two cuts) among them.  ``enumerate-r`` on H_18
    verifies the same nine bicharacter survivors over both fields."""
    module = _crosscheck_module(monkeypatch)
    assert module.main() == 0
    out = capsys.readouterr().out.splitlines()
    cases = [line for line in out if " r=" in line]
    assert len(cases) == len(module.CASES) and all(line.startswith("ok ") for line in cases)
    for family in ("en:2", "ac2n:3"):
        assert "'cartier_equals_coboundary_cut': True" in next(line for line in cases if f" {family} " in line)
    # every bicharacter survivor of the closed form, verified over Q(zeta_3) and over F_97
    assert "ok    enumerate-r h2n2:3  exact vs F_97  9 vs 9 verified specs" in out
    # the closed-form bicharacter R over Q(zeta_3) and over F_97
    line = next(line for line in cases if " h2n2:3 " in line)
    assert line.startswith("ok ") and "r=bichar:[[0,0],[1,0]]" in line
    assert "'rfree': 82" in line and "'z2': 18, 'b2': 18" in line and "'matches_paper_theorem': True" in line
    lines = [line for line in out if "verify_hopf" in line]
    assert {family for family, _ in module.CASES} <= set(module.VERIFY_FAMILIES)
    assert {family for family, _ in module.FAMILIES} <= set(module.VERIFY_FAMILIES)
    assert {"en:3", "ac2n:4", "radford:3,2", "h8", "h2n2:3", "ac4dual", "group:2,2,2"} <= set(module.VERIFY_FAMILIES)
    assert len(lines) == len(module.VERIFY_FAMILIES)
    for line in lines:
        assert line.startswith("ok ")
        exact, modp = re.findall(r"(\d+) checks", line)
        assert exact == modp and int(exact) > 0


def test_crosscheck_script_reports_a_flag_that_differs(capsys, monkeypatch):
    """A case whose F_p report differs only in a flag is a DIFF, exit 1."""
    module = _crosscheck_module(monkeypatch)
    classify = module.classify

    def flipped_over_fp(family, rtext, field=None):
        rep = classify(family, rtext, field)
        if field is not None:
            rep.flags["cartier_equals_coboundary_cut"] = not rep.flags["cartier_equals_coboundary_cut"]
        return rep

    monkeypatch.setattr(module, "classify", flipped_over_fp)
    monkeypatch.setattr(module, "CASES", [("en:1", "en-a:[[0]]")])
    monkeypatch.setattr(module, "VERIFY_FAMILIES", [])
    monkeypatch.setattr(module, "cli_entries", lambda argv: [])
    assert module.main() == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("DIFF ") and "differences: {'cartier_equals_coboundary_cut': (True, False)}" in line
