import pytest

from conftest import apply_rows, direct_images, pe, random_sparse_tensor
from hopflab.cohomology import UnsupportedDegree, b_apply, coboundaries, cocycles
from hopflab.hopf import Tensor, full_space, map_rows


def test_b1_of_unit(en1):
    assert b_apply(en1, 1, en1.unit()) == en1.unit_tensor(2)


def test_b1_of_x1x2(en2):
    t = b_apply(en2, 1, pe(en2, "x{1,2}"))
    assert t == pe(en2, "(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{1})")


def test_complex_property(en2, radford22, h8, kc2):
    """b^(n+1) b^n = 0 on every basis tensor of degree 1 and 2."""
    for h in (en2, radford22, h8, kc2):
        for n in (1, 2):
            for t in range(h.dim**n):
                image = b_apply(h, n, Tensor(h, n, {t: h.field.one}))
                assert not b_apply(h, n + 1, image), f"{h.name}: b{n + 1} b{n} at {t}"


def test_z1_is_primitive_space(en2, kc2, radford22, h8, ac4dual):
    for h in (en2, kc2, radford22, h8, ac4dual):
        assert cocycles(h, 1).dim == 0


def test_h2_dimensions(en1, en2, en3, h8):
    for h, h2 in ((en1, 1), (en2, 3), (en3, 6), (h8, 0)):
        assert cocycles(h, 2).dim - coboundaries(h, 2).dim == h2


def test_b2_inside_z2(en2):
    z2 = cocycles(en2, 2)
    for row in coboundaries(en2, 2).basis():
        assert z2.contains(row)


def test_h8_cocycles_equal_coboundaries(h8):
    assert cocycles(h8, 2) == coboundaries(h8, 2)


def test_en1_h2_generated_by_gx_x(en1):
    t = pe(en1, "g^1*x{1} (x) x{1}")
    assert cocycles(en1, 2).contains(dict(t.coeffs))
    assert not coboundaries(en1, 2).contains(dict(t.coeffs))


def test_b_matrix_agrees_with_direct_application(en2, rng):
    for n in (1, 2):
        maps = [lambda t: b_apply(en2, n, t)]
        rows = map_rows(en2, n, maps, full_space(en2, n).rows)
        for _ in range(10):
            t = random_sparse_tensor(en2, rng, legs=n, nnz=4)
            assert apply_rows(rows, t.coeffs) == direct_images(maps, t)


def test_unsupported_degree(en2):
    with pytest.raises(UnsupportedDegree):
        cocycles(en2, 3)
    with pytest.raises(UnsupportedDegree):
        b_apply(en2, 0, Tensor(en2, 0, {}))


def test_composition_b2_b1_matrices(kc2):
    b1 = map_rows(kc2, 1, [lambda t: b_apply(kc2, 1, t)], full_space(kc2, 1).rows)
    b2 = map_rows(kc2, 2, [lambda t: b_apply(kc2, 2, t)], full_space(kc2, 2).rows)
    images = 0
    for c in range(kc2.dim):
        col = {k: v for (_, k), v in apply_rows(b1, {c: kc2.field.one}).items()}
        images += bool(col)
        assert not apply_rows(b2, col)
    assert images == kc2.dim
