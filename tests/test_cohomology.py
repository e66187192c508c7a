import pytest

from conftest import apply_rows, direct_images, pe, random_sparse_tensor
from hopflab.cohomology import (
    UnsupportedDegree,
    b1_elem,
    b_apply,
    coboundaries,
    coboundary_preimage,
    cocycles,
    complex_property_report,
    en_z2_decomposition,
    h_dim,
)
from hopflab.families import build
from hopflab.hopf import Tensor, map_rows


def test_b1_of_unit(en1):
    assert b1_elem(en1, en1.unit()) == en1.unit_tensor(2)


def test_b1_of_x1x2(en2):
    t = b1_elem(en2, pe(en2, "x{1,2}"))
    assert t == pe(en2, "(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{1})")


def test_complex_property(en2, radford22, h8, kc2):
    for h in (en2, radford22, h8, kc2):
        assert complex_property_report(h, max_degree=2).ok


def test_z1_is_primitive_space(en2, kc2, radford22, h8, ac4dual):
    for h in (en2, kc2, radford22, h8, ac4dual):
        assert cocycles(h, 1).dim == 0


def test_h2_dimensions(en1, en2, en3, h8):
    assert h_dim(en1, 2) == 1
    assert h_dim(en2, 2) == 3
    assert h_dim(en3, 2) == 6
    assert h_dim(h8, 2) == 0


def test_b2_inside_z2(en2):
    z2 = cocycles(en2, 2)
    for row in coboundaries(en2, 2).basis():
        assert z2.contains(row)


def test_h8_cocycles_equal_coboundaries(h8):
    assert cocycles(h8, 2) == coboundaries(h8, 2)


def test_coboundary_preimage(en2, rng):
    zero = en2.zero_tensor(2)
    a = coboundary_preimage(en2, zero)
    assert a is not None and b1_elem(en2, a) == zero
    t = pe(en2, "(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{1})")
    a = coboundary_preimage(en2, t)
    assert a is not None
    assert b1_elem(en2, a) == t
    # Z^1 = 0, so the preimage is unique: here x1*x2
    assert a == pe(en2, "x{1,2}")
    assert coboundary_preimage(en2, pe(en2, "g^1*x{1} (x) x{1}")) is None
    # the same on other families; a tensor outside B^2 has no preimage
    for family in ("h8", "ac4dual", "ac2n:3"):
        h = build(family)
        a = random_sparse_tensor(h, rng, legs=1, nnz=3)
        assert cocycles(h, 1).dim == 0
        assert coboundary_preimage(h, b1_elem(h, a)) == a
        b2 = coboundaries(h, 2)
        outside = next(k for k in range(h.dim**2) if not b2.contains({k: h.field.one}))
        assert coboundary_preimage(h, Tensor(h, 2, {outside: h.field.one})) is None


def test_en_z2_decomposition(en1, en2, en3):
    for h, n in ((en1, 1), (en2, 2), (en3, 3)):
        rep = en_z2_decomposition(h)
        assert rep["ok"], rep
        assert rep["dim_b2"] == 2 ** (n + 1)
        assert rep["dim_i"] == n * (n + 1) // 2


def test_en1_h2_generated_by_gx_x(en1):
    t = pe(en1, "g^1*x{1} (x) x{1}")
    assert cocycles(en1, 2).contains(dict(t.coeffs))
    assert not coboundaries(en1, 2).contains(dict(t.coeffs))


def test_b_matrix_agrees_with_direct_application(en2, rng):
    for n in (1, 2):
        maps = [lambda t: b_apply(en2, n, t)]
        rows = map_rows(en2, n, maps)
        for _ in range(10):
            t = random_sparse_tensor(en2, rng, legs=n, nnz=4)
            assert apply_rows(rows, t.coeffs) == direct_images(maps, t)


def test_unsupported_degree(en2):
    with pytest.raises(UnsupportedDegree):
        cocycles(en2, 3)
    with pytest.raises(UnsupportedDegree):
        b_apply(en2, 0, Tensor(en2, 0, {}))


def test_composition_b2_b1_matrices(kc2):
    b1 = map_rows(kc2, 1, [lambda t: b_apply(kc2, 1, t)])
    b2 = map_rows(kc2, 2, [lambda t: b_apply(kc2, 2, t)])
    images = 0
    for c in range(kc2.dim):
        col = {k: v for (_, k), v in apply_rows(b1, {c: kc2.field.one}).items()}
        images += bool(col)
        assert not apply_rows(b2, col)
    assert images == kc2.dim
