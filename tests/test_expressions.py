import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import q, random_sparse_tensor
from hopflab.expressions import ExprError, format_tensor, parse_element, parse_scalar
from hopflab.families import build
from hopflab.hopf import Tensor
from hopflab.scalars import FieldSpec


def test_tensor_separator(ac22):
    t = parse_element(ac22, "x (x) x*g")
    x, g = ac22.gen("x"), ac22.gen("g")
    assert t == x.tensor(x * g)


def test_zero(en2):
    v = parse_element(en2, "0")
    assert isinstance(v, Tensor) and v.legs == 1 and not v


def test_leading_group_term(en2):
    t = parse_element(en2, "1/2*(1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g)")
    g = en2.gen("g")
    one = en2.unit()
    half = en2.field.one / en2.field.from_int(2)
    expected = (one.tensor(one) + one.tensor(g) + g.tensor(one) - g.tensor(g)).scaled(half)
    assert t == expected


def test_three_slots(en1):
    t = parse_element(en1, "g (x) x1 (x) g")
    assert isinstance(t, Tensor) and t.legs == 3


def test_exponents_and_braces(en3, h2n2_3):
    assert parse_element(en3, "g^2") == en3.unit()
    assert parse_element(en3, "x{1,3}") == en3.gen("x1") * en3.gen("x3")
    assert parse_element(h2n2_3, "x^2*y*z") == (h2n2_3.gen("x") ** 2) * h2n2_3.gen("y") * h2n2_3.gen("z")


def test_scalar_literals(h8):
    z8 = h8.field.make_root(8)
    assert parse_element(h8, "z8^3") == h8.unit().scaled(z8**3)
    v = parse_element(h8, "-1/2*z8*x")
    expected = h8.gen("x").scaled(-(h8.field.one / h8.field.from_int(2)) * z8)
    assert v == expected


def test_unknown_generator(en2):
    with pytest.raises(ExprError) as err:
        parse_element(en2, "x7")
    assert "x7" in str(err.value)


def test_syntax_error_has_position(en2):
    with pytest.raises(ExprError) as err:
        parse_element(en2, "g + ")
    assert "position" in str(err.value)
    with pytest.raises(ExprError):
        parse_element(en2, "g (x) g (x) g (x) g")


@pytest.mark.parametrize("text", ["(x1 (x) g)*x1", "x1*(x1 (x) g)", "(x1 (x) g) + x1"])
def test_mixed_leg_counts_are_refused(en2, text):
    """An element and a 2-tensor neither multiply nor add: the element is
    never taken for a scalar coefficient."""
    with pytest.raises(ExprError):
        parse_element(en2, text)


def test_parse_scalar_forms(h8):
    Q8 = h8.field
    assert parse_scalar(h8, "3") == Q8.from_int(3)
    assert parse_scalar(h8, "-1/2") == q(Q8, -1, 2)
    z = Q8.make_root(8)
    assert parse_scalar(h8, "z8^3") == z**3
    assert parse_scalar(h8, "-1/2*z8") == -(Q8.one / Q8.from_int(2)) * z
    assert parse_scalar(h8, "-(z8^3)") == z**7
    for text in ("", "2*", "1/0", "2 3"):
        with pytest.raises(ExprError):
            parse_scalar(h8, text)
    for text in ("x", "2*x*y - x*y", "1 (x) 1"):
        with pytest.raises(ExprError, match="is not a scalar"):
            parse_scalar(h8, text)


@lru_cache(maxsize=None)
def _algebra(family: str, field: str | None):
    return build(family, FieldSpec.parse(field) if field else None)


@st.composite
def _literals(draw, field):
    """(text, value): a scalar literal of the form that R specs have always
    taken (signs, then '*'-joined ints, fractions a/b with b != 0 in the
    field, and roots zM^k) and its value built directly."""
    zero_mod = getattr(field, "p", 0)
    signs = draw(st.lists(st.sampled_from("+-"), max_size=2))
    texts, value = [], -field.one if signs.count("-") % 2 else field.one
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["int", "fraction", "root"]))
        if kind == "int":
            n = draw(st.integers(0, 200))
            texts.append(str(n))
            value = value * field.from_int(n)
        elif kind == "fraction":
            a = draw(st.integers(0, 200))
            b = draw(st.integers(1, 200).filter(lambda b: not zero_mod or b % zero_mod))
            texts.append(f"{a}/{b}")
            value = value * q(field, a, b)
        else:
            m, k = draw(st.sampled_from([1, 2, 4, 8])), draw(st.none() | st.integers(-9, 9))
            texts.append(f"z{m}" if k is None else f"z{m}^{k}")
            value = value * field.make_root(m) ** (1 if k is None else k)
    return "".join(signs) + draw(st.sampled_from(["*", " * "])).join(texts), value


@pytest.mark.parametrize("family, field", [("h8", None), ("en:2", "prime:97")])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_parse_scalar_reads_the_literal_forms(family, field, data):
    """Over Q(zeta_8) and F_97, every literal of the old scalar forms parses
    to the value built from its parts."""
    h = _algebra(family, field)
    text, value = data.draw(_literals(h.field))
    assert parse_scalar(h, text) == value


def test_roundtrip_elems(en2, rng):
    for _ in range(25):
        coeffs = {}
        for _ in range(4):
            coeffs[rng.randrange(en2.dim)] = q(en2.field, rng.randint(-9, 9), rng.randint(1, 9))
        e = Tensor(en2, 1, coeffs)
        assert parse_element(en2, format_tensor(e)) == e
    # an element of H prints as its bare label: ``x`` inside ``(x)`` would
    # read as the tensor separator
    for family in ("h8", "ac2n:2", "radford:2,2", "h2n2:3"):
        h = build(family)
        minus_half = q(h.field, -1, 2)
        for i in range(h.dim):
            for e in (h.basis_elem(i), h.basis_elem(i).scaled(minus_half)):
                text = format_tensor(e)
                assert parse_element(h, text) == e, f"{family}: {text}"


def test_roundtrip_tensors_over_families(rng):
    for fam in ("en:2", "ac2n:3", "h8", "radford:2,3", "ac4dual", "h2n2:3", "group:2,4"):
        h = build(fam)
        for _ in range(8):
            t = random_sparse_tensor(h, rng, legs=2, nnz=5)
            if not t:
                continue
            text = format_tensor(t)
            assert parse_element(h, text) == t, f"{fam}: {text}"


def test_roundtrip_cyclotomic_coefficients(h8, rng):
    z = h8.field.make_root(8)
    t = h8.gen("z").tensor(h8.gen("x")).scaled(z**3 - h8.field.from_int(2) * z)
    text = format_tensor(t)
    assert parse_element(h8, text) == t


def test_format_zero(en2):
    assert format_tensor(en2.zero_tensor(2)) == "0"
    assert format_tensor(en2.zero_tensor(1)) == "0"
    assert parse_element(en2, "0 (x) g") == en2.zero_tensor(2)
