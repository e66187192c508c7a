import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.linalg import (
    AmbientDimensionMismatch,
    Echelon,
    LinAlgError,
    SparseMat,
    Subspace,
    kernel,
    kernel_of_rows,
    solve,
)


def mat(rows, ncols):
    rows = [{c: Fraction(v) for c, v in row.items() if v} for row in rows]
    return SparseMat(len(rows), ncols, rows)


def test_rref_examples():
    assert Subspace.from_vectors(mat([{}, {}], 3).rows, 3).dim == 0
    assert Subspace.from_vectors(mat([{0: 1}, {1: 1}, {2: 1}], 3).rows, 3).dim == 3
    red = Subspace.from_vectors(mat([{0: 1, 1: 1}, {0: 1, 1: 1}], 2).rows, 2)
    assert red.dim == 1
    assert red.rows[0] == {0: 1, 1: 1}


def test_kernel_examples():
    assert kernel(mat([{}], 5)).dim == 5
    assert kernel(mat([{0: 1}, {1: 1}], 2)).dim == 0
    k = kernel(mat([{0: 1, 1: -1}], 2))
    assert k.dim == 1
    assert k.rows[0] == {0: Fraction(1), 1: Fraction(1)}


def _random_mat(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if v:
                    row[c] = v
        rows.append(row)
    return SparseMat(nrows, ncols, rows)


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
        rank = Subspace.from_vectors(m.rows, m.ncols).dim
        ker = kernel(m)
        assert rank + ker.dim == m.ncols
        for v in ker.basis():
            assert not m.apply(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**24 - 1), st.integers(2, 5), st.integers(1, 6))
def test_rref_canonical_under_row_shuffle(seed, ncols, nrows):
    rng = random.Random(seed)
    m = _random_mat(rng, nrows, ncols)
    red1, ker1 = Subspace.from_vectors(m.rows, ncols), kernel(m)
    rows = list(m.rows)
    rng.shuffle(rows)
    red2, ker2 = Subspace.from_vectors(rows, ncols), kernel_of_rows(rows, ncols)
    assert red1.rows == red2.rows and red1.pivot_cols == red2.pivot_cols
    assert ker1.rows == ker2.rows and ker1.pivot_cols == ker2.pivot_cols


def test_rref_idempotent():
    rng = random.Random(3)
    m = _random_mat(rng, 5, 4)
    red = Subspace.from_vectors(m.rows, 4)
    again = Subspace.from_vectors(red.rows, 4)
    assert red.rows == again.rows
    ker = kernel(m)
    assert Subspace.from_vectors(ker.rows, 4).rows == ker.rows


def _random_subspace(rng, ambient, k):
    vecs = []
    for _ in range(k):
        vecs.append({c: Fraction(rng.randint(-4, 4)) for c in range(ambient) if rng.random() < 0.6})
    return Subspace.from_vectors(vecs, ambient)


def test_subspace_calculus():
    rng = random.Random(11)
    for _ in range(20):
        ambient = rng.randint(2, 6)
        a = _random_subspace(rng, ambient, rng.randint(0, ambient))
        b = _random_subspace(rng, ambient, rng.randint(0, ambient))
        assert a.intersect(a) == a
        s = a.sum(b)
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
        scaled = [{c: v * 3 for c, v in row.items()} for row in a.basis()]
        rng.shuffle(scaled)
        b = Subspace.from_vectors(scaled, ambient)
        assert a == b
        mutual = all(b.contains(v) for v in a.basis()) and all(a.contains(v) for v in b.basis())
        assert mutual


def test_ambient_mismatch():
    a = Subspace.from_vectors([{0: Fraction(1)}], 2)
    b = Subspace.from_vectors([{0: Fraction(1)}], 3)
    with pytest.raises(AmbientDimensionMismatch):
        a.sum(b)
    with pytest.raises(AmbientDimensionMismatch):
        a == b


def test_solve():
    # x0 + x1 = 3, x1 = 1 -> particular solution with zero free coords
    sol = solve([{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}], 2, {0: Fraction(3), 1: Fraction(1)})
    assert sol == {0: Fraction(2), 1: Fraction(1)}
    # inconsistent
    sol = solve([{0: Fraction(1)}, {0: Fraction(1)}], 1, {0: Fraction(1), 1: Fraction(2)})
    assert sol is None
    # underdetermined: free coordinate stays zero
    sol = solve([{0: Fraction(1), 1: Fraction(2)}], 2, {0: Fraction(4)})
    assert sol == {0: Fraction(4)}


def test_echelon_incremental_rank():
    ech = Echelon(3)
    assert ech.add_row({0: Fraction(1), 2: Fraction(1)}) == 0
    assert ech.add_row({0: Fraction(2), 2: Fraction(2)}) is None
    assert ech.add_row({1: Fraction(5)}) == 1
    assert ech.rank == 2


def test_kernel_of_rows_stops_at_full_rank():
    """Once the rank reaches ncols the kernel is zero: no further row is read."""

    def rows():
        yield {0: Fraction(1), 2: Fraction(5)}
        yield {0: Fraction(2), 2: Fraction(10)}  # dependent: the rank stays 1
        yield {1: Fraction(3)}
        yield {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1)}  # full rank here
        raise AssertionError("a row was read past full rank")

    assert kernel_of_rows(rows(), 3).dim == 0


def test_kernel_of_rows_reads_every_row_below_full_rank():
    seen = []

    def rows():
        for row in ({0: Fraction(1)}, {0: Fraction(2)}, {1: Fraction(1), 2: Fraction(1)}):
            seen.append(row)
            yield row

    ker = kernel_of_rows(rows(), 3)
    assert len(seen) == 3
    assert ker.basis() == [{1: Fraction(1), 2: Fraction(-1)}]


@pytest.mark.parametrize("spec", ["Q", "cyclotomic:3", "prime:97"])
def test_zero_and_full_subspaces_keep_the_field(spec):
    """The annihilator of the zero subspace is the full space and the other
    way round; intersections with either keep the field's element type and
    never divide (the field's one comes from the caller or a pivot)."""
    from hopflab.scalars import FieldSpec, get_field

    f = get_field(FieldSpec.parse(spec))
    n = 4
    zero = Subspace(n, (), ())
    full = Subspace(n, tuple({i: f.one} for i in range(n)), tuple(range(n)))
    typ = type(f.one)

    ann = zero.complement_equations(f.one)
    assert ann == full and all(type(v) is typ for row in ann.rows for v in row.values())
    assert full.complement_equations() == zero
    with pytest.raises(LinAlgError):
        zero.complement_equations()

    two = f.from_int(2)
    line = Subspace.from_vectors([{0: two, 2: -two}], n)
    inside = Subspace.from_vectors([{0: two, 1: f.one}], n)
    plane = inside.sum(Subspace.from_vectors([{2: f.one, 3: -two}], n))
    assert line.complement_equations().dim == 3 and plane.complement_equations().dim == 2
    for a, b, expected in [(zero, full, zero), (full, zero, zero), (full, full, full), (zero, zero, zero),
                           (line, full, line), (full, line, line), (line, zero, zero), (line, plane, zero),
                           (plane, inside, inside), (inside, plane, inside)]:
        got = a.intersect(b)
        assert got == expected
        assert all(type(v) is typ for row in got.rows for v in row.values())
