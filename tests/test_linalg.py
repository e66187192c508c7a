import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_rows, exact_kernel, q
from hopflab.linalg import (
    ROUTES,
    AmbientDimensionMismatch,
    Echelon,
    Subspace,
    kernel_of_rows,
    solve,
    vec_axpy,
)
from hopflab import linalg
from hopflab.scalars import FieldSpec, MixedFieldSpec, get_field, residue_map


Q = get_field(FieldSpec.parse("Q"))


def mat(rows):
    return [{c: q(Q, v) for c, v in row.items() if v} for row in rows]


def test_rref_examples():
    assert Subspace.from_vectors(mat([{}, {}]), 3).dim == 0
    assert Subspace.from_vectors(mat([{0: 1}, {1: 1}, {2: 1}]), 3).dim == 3
    red = Subspace.from_vectors(mat([{0: 1, 1: 1}, {0: 1, 1: 1}]), 2)
    assert red.dim == 1
    assert red.rows[0] == {0: q(Q, 1), 1: q(Q, 1)}


def test_kernel_examples():
    assert kernel_of_rows([{}], 5).dim == 5
    assert kernel_of_rows(mat([{0: 1}, {1: 1}]), 2).dim == 0
    k = kernel_of_rows(mat([{0: 1, 1: -1}]), 2)
    assert k.dim == 1
    assert k.rows[0] == {0: q(Q, 1), 1: q(Q, 1)}


def _random_mat(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = q(Q, rng.randint(-5, 5), rng.randint(1, 4))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        ncols = rng.randint(1, 6)
        m = _random_mat(rng, rng.randint(1, 6), ncols)
        rank = Subspace.from_vectors(m, ncols).dim
        ker = kernel_of_rows(m, ncols)
        assert rank + ker.dim == ncols
        for v in ker.basis():
            assert not apply_rows(dict(enumerate(m)), v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**24 - 1), st.integers(2, 5), st.integers(1, 6))
def test_rref_canonical_under_row_shuffle(seed, ncols, nrows):
    rng = random.Random(seed)
    m = _random_mat(rng, nrows, ncols)
    red1, ker1 = Subspace.from_vectors(m, ncols), kernel_of_rows(m, ncols)
    rows = list(m)
    rng.shuffle(rows)
    red2, ker2 = Subspace.from_vectors(rows, ncols), kernel_of_rows(rows, ncols)
    assert red1.rows == red2.rows and red1.pivot_cols == red2.pivot_cols
    assert ker1.rows == ker2.rows and ker1.pivot_cols == ker2.pivot_cols


def test_rref_idempotent():
    rng = random.Random(3)
    m = _random_mat(rng, 5, 4)
    red = Subspace.from_vectors(m, 4)
    again = Subspace.from_vectors(red.rows, 4)
    assert red.rows == again.rows
    ker = kernel_of_rows(m, 4)
    assert Subspace.from_vectors(ker.rows, 4).rows == ker.rows


def _random_subspace(rng, ambient, k):
    vecs = []
    for _ in range(k):
        vecs.append({c: q(Q, rng.randint(-4, 4)) for c in range(ambient) if rng.random() < 0.6})
    return Subspace.from_vectors(vecs, ambient)


def test_subspace_calculus():
    rng = random.Random(11)
    for _ in range(20):
        ambient = rng.randint(2, 6)
        a = _random_subspace(rng, ambient, rng.randint(0, ambient))
        b = _random_subspace(rng, ambient, rng.randint(0, ambient))
        assert a.intersect(a) == a
        s = Subspace.from_vectors([*a.rows, *b.rows], ambient)
        i = a.intersect(b)
        assert s.dim + i.dim == a.dim + b.dim
        assert a.contains({})
        for v in i.basis():
            assert a.contains(v) and b.contains(v)
        for v in a.basis():
            assert s.contains(v)


def test_subspace_equality_is_mutual_membership():
    rng = random.Random(5)
    for _ in range(15):
        ambient = rng.randint(2, 5)
        a = _random_subspace(rng, ambient, rng.randint(1, ambient))
        # same space from scaled, permuted spanning set
        scaled = [{c: v * Q.from_int(3) for c, v in row.items()} for row in a.basis()]
        rng.shuffle(scaled)
        b = Subspace.from_vectors(scaled, ambient)
        assert a == b
        mutual = all(b.contains(v) for v in a.basis()) and all(a.contains(v) for v in b.basis())
        assert mutual


def test_ambient_mismatch():
    a = Subspace.from_vectors([{0: q(Q, 1)}], 2)
    b = Subspace.from_vectors([{0: q(Q, 1)}], 3)
    with pytest.raises(AmbientDimensionMismatch):
        a.intersect(b)
    with pytest.raises(AmbientDimensionMismatch):
        a == b


def test_solve():
    # x0 + x1 = 3, x1 = 1 -> particular solution with zero free coords
    sol = solve([{0: q(Q, 1), 1: q(Q, 1)}, {1: q(Q, 1)}], 2, {0: q(Q, 3), 1: q(Q, 1)})
    assert sol == {0: q(Q, 2), 1: q(Q, 1)}
    # inconsistent
    sol = solve([{0: q(Q, 1)}, {0: q(Q, 1)}], 1, {0: q(Q, 1), 1: q(Q, 2)})
    assert sol is None
    # underdetermined: ker A = span{(1, -1/2)} has pivot 0, where x vanishes
    sol = solve([{0: q(Q, 1), 1: q(Q, 2)}], 2, {0: q(Q, 4)})
    assert sol == {1: q(Q, 2)}


def test_echelon_incremental_rank():
    ech = Echelon(3)
    assert ech.add_row({0: q(Q, 1), 2: q(Q, 1)}) == 0
    assert ech.add_row({0: q(Q, 2), 2: q(Q, 2)}) is None
    assert ech.add_row({1: q(Q, 5)}) == 1
    assert ech.rank == 2


def test_kernel_of_rows_stops_at_full_rank():
    """Once the rank reaches ncols the kernel is zero: no further row is read."""

    def rows():
        yield {0: q(Q, 1), 2: q(Q, 5)}
        yield {0: q(Q, 2), 2: q(Q, 10)}  # dependent: the rank stays 1
        yield {1: q(Q, 3)}
        yield {0: q(Q, 1), 1: q(Q, 1), 2: q(Q, -1)}  # full rank here
        raise AssertionError("a row was read past full rank")

    assert kernel_of_rows(rows(), 3).dim == 0


def test_kernel_of_rows_reads_every_row_below_full_rank():
    seen = []

    def rows():
        for row in ({0: q(Q, 1)}, {0: q(Q, 2)}, {1: q(Q, 1), 2: q(Q, 1)}):
            seen.append(row)
            yield row

    ker = kernel_of_rows(rows(), 3)
    assert len(seen) == 3
    assert ker.basis() == [{1: q(Q, 1), 2: q(Q, -1)}]


@pytest.mark.parametrize("spec", ["Q", "cyclotomic:3", "prime:97"])
def test_zero_and_full_subspaces_keep_the_field(spec):
    """Intersections with the zero or the full space, and of nested spaces,
    keep the field's element type and never divide (the field's one comes
    from an operand or a pivot)."""
    f = get_field(FieldSpec.parse(spec))
    n = 4
    zero = Subspace(n, (), ())
    full = _full(n, f.one)
    typ = type(f.one)
    two = f.from_int(2)
    line = Subspace.from_vectors([{0: two, 2: -two}], n)
    inside = Subspace.from_vectors([{0: two, 1: f.one}], n)
    plane = Subspace.from_vectors([*inside.rows, {2: f.one, 3: -two}], n)
    for a, b, expected in [(zero, full, zero), (full, zero, zero), (full, full, full), (zero, zero, zero),
                           (line, full, line), (full, line, line), (line, zero, zero), (line, plane, zero),
                           (plane, inside, inside), (inside, plane, inside)]:
        got = a.intersect(b)
        assert got == expected
        assert all(type(v) is typ for row in got.rows for v in row.values())


def _full(n, one):
    return Subspace(n, tuple({i: one} for i in range(n)), tuple(range(n)))


# -- the modular route of kernel_of_rows against the exact oracle -----------

def _same(a, b) -> bool:
    return list(a.rows) == list(b.rows) and a.pivot_cols == b.pivot_cols


def _routes(fn):
    """fn() and the routes of kernel_of_rows it took, with their counts."""
    before = dict(ROUTES)
    out = fn()
    return out, {k: n - before[k] for k, n in ROUTES.items() if n != before[k]}


def _scalars(spec: str):
    """Scalars of the field whose numerators and denominators are often
    divisible by the prime of its residue map; over Q(zeta_3) also
    zeta - omega, which that map sends to zero."""
    f = get_field(FieldSpec.parse(spec))
    p, phi = residue_map(f.one)
    if spec.startswith("prime"):
        return st.builds(f.from_int, st.integers(-3, 3) | st.sampled_from([p, -p, p + 1, 2 * p - 1]))
    rational = st.builds(
        lambda num, den: q(f, num, den),
        st.integers(-3, 3) | st.sampled_from([p, -p, p + 1, 2 * p - 1]),
        st.sampled_from([1, 2, 3, p]),
    )
    if spec == "Q":
        return rational
    zeta = f.make_root(3)
    unlucky = zeta - f.from_int(phi(zeta))
    return st.builds(lambda a, b: a + b * zeta, rational, rational) | st.sampled_from([unlucky, unlucky + f.one, zeta])


@st.composite
def _matrices(draw, spec: str):
    """(rows, ncols): a few drawn rows and small integer combinations of
    them, shuffled, so that kernels are often nonzero and many rows are
    dependent."""
    scalars = _scalars(spec)
    f = get_field(FieldSpec.parse(spec))
    ncols = draw(st.integers(1, 5))
    base = [{c: draw(scalars) for c in range(ncols) if draw(st.booleans())} for _ in range(draw(st.integers(0, 3)))]
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        combo: dict = {}
        for b in base:
            vec_axpy(combo, b, f.from_int(draw(st.integers(-2, 2))))
        rows.append(combo)
    return draw(st.permutations(rows)), ncols


@pytest.mark.parametrize("spec", ["Q", "cyclotomic:3", "prime:97"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_modular_route_equals_exact_fallback(spec, data):
    """Dict-equal rows, equal pivots and the field's own element type,
    whichever route the kernel took and whatever retries it made: the
    oracle is ``exact_kernel``, an elimination with no prime."""
    rows, ncols = data.draw(_matrices(spec))
    got, want = kernel_of_rows(rows, ncols), exact_kernel(rows, ncols)
    assert _same(got, want)
    if any(v for row in rows for v in row.values()):
        typ = type(get_field(FieldSpec.parse(spec)).one)
        assert all(type(v) is typ for row in got.rows for v in row.values())


P = residue_map(Q.one)[0]  # the first prime of the residue maps of Q


def test_unlucky_prime_over_q_retries():
    """{0: 1, 1: 1} and {0: 1, 1: 1 + p} agree mod p: the F_p rank is 1, the
    exact check of the second row fails, and the next prime finds rank 2."""
    rows = [{0: q(Q, 1), 1: q(Q, 1)}, {0: q(Q, 1), 1: q(Q, 1 + P)}]
    ker, routes = _routes(lambda: kernel_of_rows(rows, 2))
    assert routes == {"retries": 1, "certified_zero": 1}
    assert ker.dim == 0 and _same(ker, exact_kernel(rows, 2))


def test_unlucky_prime_over_cyclotomic_retries():
    """zeta - omega is nonzero, but the first residue map sends it to zero;
    the next map sends zeta to another root."""
    f = get_field(FieldSpec.parse("cyclotomic:3"))
    p, phi = residue_map(f.one)
    zeta = f.make_root(3)
    omega = phi(zeta)
    unlucky = zeta - f.from_int(omega)
    assert unlucky and phi(unlucky) == 0
    for rows, ncols in (([{0: unlucky}], 1), ([{0: f.one, 1: zeta}, {0: f.one, 1: f.from_int(omega)}], 2)):
        ker, routes = _routes(lambda: kernel_of_rows(rows, ncols))
        assert routes == {"retries": 1, "certified_zero": 1}
        assert ker.dim == 0 and _same(ker, exact_kernel(rows, ncols))


def test_denominator_divisible_by_the_prime_retries():
    rows = [{0: q(Q, 1, P), 1: q(Q, 1)}, {0: q(Q, 2, P), 1: q(Q, 2)}]
    ker, routes = _routes(lambda: kernel_of_rows(rows, 2))
    assert routes == {"retries": 1, "picked_rows": 1}
    assert ker.basis() == [{0: q(Q, 1), 1: q(Q, -1, P)}]
    assert _same(ker, exact_kernel(rows, 2))
    # mid-stream, from a one-pass iterator: the retry replays the rows read
    # before the failing one and then reads the rest
    rows = [{0: q(Q, 1), 1: q(Q, 2)}, {2: q(Q, 1, P), 3: q(Q, 1)}, {1: q(Q, 3), 3: q(Q, 1)}]
    ker, routes = _routes(lambda: kernel_of_rows(iter(rows), 4))
    assert routes == {"retries": 1, "picked_rows": 1}
    assert ker.dim == 1 and _same(ker, exact_kernel(rows, 4))


def test_entries_that_no_prime_maps_raise():
    """A row mixing Q(zeta_3) and Q(zeta_4) entries, or rational rows with a
    Q(zeta_3) entry, has no residue map at any prime: kernel_of_rows raises
    on its first pass instead of trying prime after prime.  Over F_97, the
    Fraction 1/97 is no element."""
    z3 = get_field(FieldSpec.parse("cyclotomic:3")).make_root(3)
    z4 = get_field(FieldSpec.parse("cyclotomic:4")).make_root(4)
    before = dict(ROUTES)
    for rows in ([{0: z3, 1: z4}], [{0: z4, 1: z3}], [{0: q(Q, 1, 2)}, {0: q(Q, 1), 1: z3}]):
        with pytest.raises(MixedFieldSpec):
            kernel_of_rows(rows, 2)
    f97 = get_field(FieldSpec.parse("prime:97"))
    with pytest.raises(MixedFieldSpec):
        kernel_of_rows([{0: f97.one, 1: Fraction(1, 97)}], 2)
    assert ROUTES == before


@pytest.mark.parametrize("entry", [2, Fraction(1, 2)], ids=["int", "Fraction"])
@pytest.mark.parametrize("spec", ["Q", "cyclotomic:3", "prime:97"])
def test_int_and_fraction_entries_raise(spec, entry):
    """A plain int or Fraction is no field element: as the first entry it
    has no residue map, and after an element the map of that element's
    field takes it as it takes an element of another field."""
    one = get_field(FieldSpec.parse(spec)).one
    before = dict(ROUTES)
    for rows in ([{0: entry}], [{0: one, 1: entry}], [{1: one}, {0: entry}]):
        with pytest.raises(MixedFieldSpec):
            kernel_of_rows(rows, 2)
    assert ROUTES == before
    with pytest.raises(MixedFieldSpec):
        residue_map(entry)
    with pytest.raises(MixedFieldSpec):
        residue_map(one)[1](entry)
    # Echelon refuses a pivot entry that is no field element, the one 1 included
    for vectors in ([{0: entry}], [{0: 1, 1: entry}], [{0: 1, 1: 3}], [{0: 2}]):
        with pytest.raises(MixedFieldSpec):
            Subspace.from_vectors(vectors, 2)


def test_each_route_is_counted():
    f97 = get_field(FieldSpec.parse("prime:97"))
    one, two = f97.one, f97.from_int(2)
    cases = [
        ([{0: q(Q, 1)}, {1: q(Q, 2)}], 2, "certified_zero", 0),
        ([{0: q(Q, 1), 1: q(Q, 2)}, {0: q(Q, 3), 1: q(Q, 6)}], 2, "picked_rows", 1),
        ([{0: one, 1: two}, {0: two, 1: f97.from_int(4)}], 2, "picked_rows", 1),
        ([{0: one}, {1: two}], 2, "certified_zero", 0),
    ]
    for rows, ncols, route, dim in cases:
        ker, routes = _routes(lambda: kernel_of_rows(rows, ncols))
        assert routes == {route: 1} and ker.dim == dim
        assert _same(ker, exact_kernel(rows, ncols))


def test_max_pivot_kernel_is_canonical_without_elimination():
    """The picked-rows route returns the canonical RREF of the kernel as
    built, with keys in increasing order."""
    rows = [{0: q(Q, 1), 1: q(Q, 2), 3: q(Q, 1)}, {1: q(Q, 1), 2: q(Q, -1)}]
    ker = kernel_of_rows(rows, 4)
    assert ker.pivot_cols == (0, 1)
    assert [list(row) for row in ker.rows] == [[0, 3], [1, 2, 3]]
    assert ker.rows == ({0: q(Q, 1), 3: q(Q, -1)}, {1: q(Q, 1), 2: q(Q, 1), 3: q(Q, -2)})
    assert _same(ker, Subspace.from_vectors(ker.rows, 4))


# -- intersect and solve, the two routes into kernel_of_rows ---------------

def _annihilator_rows(s: Subspace, one) -> list:
    if not s.rows:
        return [{i: one} for i in range(s.ambient_dim)]
    return list(exact_kernel(s.rows, s.ambient_dim).rows)


def _stacked_intersection(a: Subspace, b: Subspace, one) -> Subspace:
    """The intersection as the kernel of both annihilators stacked, every
    elimination by ``exact_kernel``."""
    eqs = _annihilator_rows(a, one) + _annihilator_rows(b, one)
    return exact_kernel(eqs, a.ambient_dim) if eqs else _full(a.ambient_dim, one)


@st.composite
def _subspace_pairs(draw, spec: str):
    """Two subspaces of one ambient space of dimension <= 8: unrelated,
    nested, or one of them zero or full, in either order."""
    scalars = _scalars(spec)
    n = draw(st.integers(1, 8))

    def space(k):
        vecs = [{c: draw(scalars) for c in range(n) if draw(st.booleans())} for _ in range(k)]
        return Subspace.from_vectors(vecs, n)

    a = space(draw(st.integers(0, n)))
    kind = draw(st.sampled_from(["random", "nested", "zero", "full"]))
    if kind == "random":
        b = space(draw(st.integers(0, n)))
    elif kind == "nested":
        b = Subspace.from_vectors([*a.rows, *space(draw(st.integers(0, 2))).rows], n)
    elif kind == "zero":
        b = Subspace(n, (), ())
    else:
        b = _full(n, get_field(FieldSpec.parse(spec)).one)
    return (a, b) if draw(st.booleans()) else (b, a)


@pytest.mark.parametrize("spec", ["Q", "cyclotomic:3", "prime:97"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_intersect_equals_stacked_annihilators(spec, data):
    """Both argument orders give the oracle's canonical basis, in the
    field's own element type."""
    a, b = data.draw(_subspace_pairs(spec))
    one = get_field(FieldSpec.parse(spec)).one
    want = _stacked_intersection(a, b, one)
    for got in (a.intersect(b), b.intersect(a)):
        assert _same(got, want)
        assert _same(got, Subspace.from_vectors(got.rows, got.ambient_dim))
        assert all(type(v) is type(one) for row in got.rows for v in row.values())


def _evaluate(row: dict, x: dict, zero):
    acc = zero
    for c, v in row.items():
        if c in x:
            acc = acc + v * x[c]
    return acc


def _rank(rows, ncols: int) -> int:
    return ncols - exact_kernel(rows, ncols).dim


@pytest.mark.parametrize("spec", ["Q", "cyclotomic:3", "prime:97"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_properties(spec, data):
    """A x = b by direct evaluation; None exactly when rank A < rank [A | b];
    x zero at every pivot of ker A.  Half the right-hand sides are A x0."""
    rows, ncols = data.draw(_matrices(spec))
    scalars = _scalars(spec)
    zero = get_field(FieldSpec.parse(spec)).zero
    if data.draw(st.booleans()):
        x0 = {c: data.draw(scalars) for c in range(ncols)}
        rhs = {r: _evaluate(row, x0, zero) for r, row in enumerate(rows)}
    else:
        rhs = {r: data.draw(scalars) for r in range(len(rows)) if data.draw(st.booleans())}
    x = solve(rows, ncols, rhs)
    aug = [{**row, ncols: rhs[r]} if r in rhs else row for r, row in enumerate(rows)]
    assert (x is None) == (_rank(rows, ncols) < _rank(aug, ncols + 1))
    if x is not None:
        for r, row in enumerate(rows):
            assert not (_evaluate(row, x, zero) - rhs.get(r, zero))
        assert not set(x) & set(exact_kernel(rows, ncols).pivot_cols)


def test_solve_and_intersect_make_one_kernel_call(monkeypatch):
    """``solve`` makes one kernel call over ncols + 1 columns; ``intersect``
    at most one, over the smaller dimension, and none when the smaller
    space lies in the larger."""
    calls = []
    orig = linalg.kernel_of_rows

    def counting(rows, ncols):
        calls.append(ncols)
        return orig(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_of_rows", counting)
    assert solve([{0: q(Q, 1), 1: q(Q, 1)}], 3, {0: q(Q, 2)}) == {1: q(Q, 2)}
    assert calls == [4]
    calls.clear()
    line = Subspace.from_vectors([{0: q(Q, 1), 1: q(Q, 1)}], 3)
    plane = Subspace.from_vectors([{0: q(Q, 1)}, {2: q(Q, 1)}], 3)
    assert line.intersect(plane).dim == 0 and plane.intersect(line).dim == 0
    assert calls == [1, 1]
    calls.clear()
    above = Subspace.from_vectors([*line.rows, {2: q(Q, 1)}], 3)
    assert line.intersect(above) == line and above.intersect(line) == line
    assert calls == []
