import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import q
from hopflab.families import build
from hopflab.scalars import (
    CycElt,
    FieldError,
    FieldSpec,
    MixedFieldSpec,
    NotInImage,
    OrderUnavailable,
    cyclotomic_polynomial,
    get_field,
    _is_prime,
    _prime_factors,
    residue_map,
)

Q = get_field(FieldSpec("cyclotomic", order=1))
Q2 = get_field(FieldSpec("cyclotomic", order=2))
Q8 = get_field(FieldSpec("cyclotomic", order=8))
Q4 = get_field(FieldSpec("cyclotomic", order=4))
F97 = get_field(FieldSpec("prime", p=97))
F5 = get_field(FieldSpec("prime", p=5))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert Q8.degree == 4 and get_field(FieldSpec("cyclotomic", order=12)).degree == 4
    assert Q.degree == Q2.degree == 1


def test_make_root_small_orders():
    assert Q.make_root(1) == Q.one
    assert Q.make_root(2) == -Q.one
    assert Q2.make_root(1) == Q2.one
    assert Q2.make_root(2) == -Q2.one  # zeta_2 = t mod (t + 1)
    z8 = Q8.make_root(8)
    assert z8**4 == -Q8.one
    assert z8**8 == Q8.one
    for d in (2, 4):
        assert z8 ** (8 // d * 1) != Q8.one or d == 1


def test_root_has_exact_order():
    for m in (2, 4, 8):
        z = Q8.make_root(m)
        assert z**m == Q8.one
        for d in range(1, m):
            if m % d == 0 and d < m:
                assert z**d != Q8.one


def test_make_root_in_odd_field_gets_even_orders():
    Q3 = get_field(FieldSpec("cyclotomic", order=3))
    m6 = Q3.make_root(6)
    assert m6**6 == Q3.one and m6**3 == -Q3.one and m6**2 != Q3.one
    assert Q3.make_root(2) == -Q3.one


def test_order_unavailable():
    with pytest.raises(OrderUnavailable):
        Q.make_root(3)
    with pytest.raises(OrderUnavailable):
        Q2.make_root(4)
    with pytest.raises(OrderUnavailable):
        Q8.make_root(3)
    with pytest.raises(OrderUnavailable):
        F97.make_root(5)  # 5 does not divide 96


def test_field_ops_examples():
    half = Q.one / Q.from_int(2)
    assert (half.nums, half.den) == ((1,), 2)
    z = Q8.make_root(8)
    assert z * z**7 == Q8.one
    # (1 + z4)(1 - z4) = 2, against a brute-force polynomial oracle mod Phi_4
    z4 = Q4.make_root(4)
    lhs = (Q4.one + z4) * (Q4.one - z4)
    assert lhs == Q4.from_int(2)
    assert _poly_mult_oracle([1, 1], [1, -1], 4) == [2, 0]


def test_from_coeffs_reduces_any_length():
    """``_reduce_int`` reduces an integer polynomial of any length."""
    Q3 = get_field(FieldSpec("cyclotomic", order=3))
    assert Q3._reduce_int([0, 0, 0, 1]) == Q3.one.nums
    assert Q8._reduce_int([0] * 8 + [1]) == Q8.one.nums


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=20))
def test_from_coeffs_matches_power_sum(coeffs):
    """``_reduce_int`` of c_0, c_1, ... is sum_k c_k zeta^k."""
    z = Q8.make_root(8)
    expected = Q8.zero
    for k, c in enumerate(coeffs):
        expected = expected + Q8.from_int(c) * z**k
    assert (Q8._reduce_int(coeffs), 1) == (expected.nums, expected.den)


def _power_sum(coeffs):
    """sum_k coeffs[k] zeta_8^k in Q8."""
    z = Q8.make_root(8)
    return sum((q(Q8, c) * z**k for k, c in enumerate(coeffs)), Q8.zero)


def _poly_mult_oracle(a, b, order):
    """Multiply polynomials with Fraction coefficients, reduce mod Phi_order."""
    mod = list(cyclotomic_polynomial(order))
    deg = len(mod) - 1
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += Fraction(x) * Fraction(y)
    for k in range(len(conv) - 1, deg - 1, -1):
        c = conv[k]
        if c:
            for t in range(deg + 1):
                conv[k - deg + t] -= c * mod[t]
    out = conv[:deg]
    return [Fraction(x) for x in out]


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        Q8.one / Q8.zero
    with pytest.raises(ZeroDivisionError):
        F97.one / F97.zero


def test_mixed_field_error():
    """An element combines only with an element of its own field, over Q,
    Q(zeta_3), Q(zeta_8) and F_97.  An int, a Fraction or an element of
    another field raises MixedFieldSpec as the right operand of +, -, *, /
    and ==, so a stale ``x == 1`` cannot read False; an int or a Fraction
    on the left raises TypeError, as there are no reflected operators; a
    Tensor takes no scalar through * on either side.  A type that is no
    scalar compares unequal, and ``scaled`` is how a scalar enters a
    Tensor."""
    ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq, operator.ne)
    foreigns = (1, 0, Fraction(1, 2), Q4.make_root(4), F5.from_int(2))
    for spec in ("Q", "cyclotomic:3", "cyclotomic:8", "prime:97"):
        f = get_field(FieldSpec.parse(spec))
        x = f.make_root(2) + f.from_int(3)
        t = build("en:1", FieldSpec.parse(spec)).gen("g")
        for foreign in foreigns:
            for op in ops:
                with pytest.raises(MixedFieldSpec):
                    op(x, foreign)
                with pytest.raises((TypeError, MixedFieldSpec)):
                    op(foreign, x)
            with pytest.raises(TypeError):
                foreign * t
            with pytest.raises((TypeError, AttributeError)):
                t * foreign
        with pytest.raises(TypeError):
            x * t
        with pytest.raises((TypeError, AttributeError)):
            t * x
        assert t.scaled(x).coeffs == {k: x * v for k, v in t.coeffs.items()}
        assert (x == None) is False and (x != None) is True and x not in (None, "x")  # noqa: E711
        assert {None: 0, x: 1}[x] == 1


def primitive_roots(field, m: int) -> list:
    """All phi(m) primitive m-th roots of unity, as powers zeta^a, gcd(a,m)=1."""
    zeta = field.make_root(m)
    return [zeta**a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def test_primitive_roots():
    assert primitive_roots(Q, 2) == [-Q.one]
    roots8 = primitive_roots(Q8, 8)
    assert len(roots8) == 4
    assert all(r**4 == -Q8.one for r in roots8)
    assert len({repr(r) for r in roots8}) == 4
    roots4 = primitive_roots(Q4, 4)
    assert len(roots4) == 2
    assert all(r * r == -Q4.one for r in roots4)


scalars8 = st.builds(
    lambda nums, den: CycElt(Q8, tuple(nums)) / Q8.from_int(den),
    st.lists(st.integers(-30, 30), min_size=4, max_size=4),
    st.integers(1, 12),
)


@settings(max_examples=60, deadline=None)
@given(scalars8, scalars8, scalars8)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == Q8.one


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=8, max_size=8), st.integers(1, 12))
def test_inverse_by_the_norm(order, nums, den):
    """x x^-1 = 1 for every nonzero x of Q(zeta_M), up to degree 8."""
    f = get_field(FieldSpec("cyclotomic", order=order))
    x = CycElt(f, tuple(nums[: f.degree])) / f.from_int(den)
    if x:
        assert x * x.inverse() == f.one
        assert x.inverse().inverse() == x
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=4, max_size=4))
def test_canonical_form_idempotent(coeffs):
    x = _power_sum(coeffs)
    again = _power_sum(x.coeffs)
    assert x == again
    assert x.nums == again.nums and x.den == again.den


@settings(max_examples=40, deadline=None)
@given(scalars8, scalars8, st.integers(-5, 5), st.integers(0, 2))
def test_residue_map_is_a_ring_morphism(a, b, n, k):
    """The maps of linalg's modular pass, the first and those of its
    retries: additive, multiplicative, the rationals inside Q(zeta_8)
    mapped as over Q, and zeta of order 8."""
    p, phi = residue_map(a, k)
    assert p % 8 == 1 and p > 2**31
    assert phi(a + b) == (phi(a) + phi(b)) % p
    assert phi(a * b) == phi(a) * phi(b) % p
    assert phi(Q8.from_int(n)) == n % p
    zeta = Q8.make_root(8)
    assert pow(phi(zeta), 4, p) == p - 1


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=30, deadline=None)
@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_residue_map_at_degree_one(order, a, b):
    """The residue map of Q = Q(zeta_1) = Q(zeta_2): a prime above 2^31,
    additive, multiplicative, and zeta_2 = -1 sent to p - 1."""
    f = get_field(FieldSpec("cyclotomic", order=order))
    x, y = q(f, a), q(f, b)
    p, phi = residue_map(x)
    assert p > 2**31
    assert phi(x + y) == (phi(x) + phi(y)) % p
    assert phi(x * y) == phi(x) * phi(y) % p
    assert phi(x) == a.numerator * pow(a.denominator, -1, p) % p
    assert phi(f.make_root(2)) == p - 1


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_degree_one_arithmetic_matches_fraction(a, b):
    """Q(zeta_1) against ``fractions.Fraction``: +, -, *, /, ==, bool and
    str agree, so a rational prints as its ``Fraction`` does."""
    x, y = q(Q, a), q(Q, b)
    assert x + y == q(Q, a + b)
    assert x - y == q(Q, a - b)
    assert x * y == q(Q, a * b)
    assert (x == y) is (a == b)
    assert bool(x) is bool(a)
    assert str(x) == str(a) and str(x * y) == str(a * b)
    if b:
        assert str(x / y) == str(a / b)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


def test_residue_map_domain():
    """Where p divides a denominator the map raises NotInImage, and the
    next map of the field is defined there; on another field it raises
    MixedFieldSpec.  Over F_p it is the identity on residues."""
    third = q(Q, 1, 3)
    p, phi = residue_map(third)
    assert (p, phi) == residue_map(Q.one) == residue_map(Q.from_int(7))
    assert phi(third) * 3 % p == 1
    with pytest.raises(NotInImage):
        phi(q(Q, 1, p))
    p1, phi1 = residue_map(third, 1)
    assert p1 > p and phi1(q(Q, 1, p)) * p % p1 == 1
    with pytest.raises(MixedFieldSpec):
        phi(Q8.one)
    p8, phi8 = residue_map(Q8.one)
    with pytest.raises(MixedFieldSpec):
        phi8(Q4.one)
    with pytest.raises(NotInImage):
        phi8(q(Q8, 1, p8))
    primes = [residue_map(Q8.one, k)[0] for k in range(4)]
    assert primes == sorted(set(primes)) and all(r % 8 == 1 and _is_prime(r) for r in primes)
    p97, phi97 = residue_map(F97.one)
    assert p97 == 97 and phi97(F97.from_int(-1)) == 96 and phi97(q(F97, 1, 2)) == 49
    with pytest.raises(FieldError, match="one residue map"):
        residue_map(F97.one, 1)


def test_prime_field_roots():
    z8 = F97.make_root(8)
    assert z8**8 == F97.one
    for d in (1, 2, 4):
        assert z8**d != F97.one
    assert len(primitive_roots(F97, 8)) == 4


def test_prime_field_fraction_embedding():
    half = q(F97, 1, 2)
    assert half + half == F97.one and half == F97.from_int(49)


def test_prime_field_inverse():
    """``inverse`` is the one route of ``/`` and of negative powers; zero has
    no inverse."""
    for n in range(1, 97):
        x = F97.from_int(n)
        assert x * x.inverse() == F97.one
        assert F97.one / x == x.inverse() == x**-1 and x**-2 == x.inverse() ** 2
    zero = F97.zero
    for divide in (zero.inverse, lambda: F97.one / zero, lambda: zero**-1):
        with pytest.raises(ZeroDivisionError):
            divide()


def test_field_spec_parse():
    assert FieldSpec.parse("cyclotomic:8") == FieldSpec("cyclotomic", order=8)
    assert FieldSpec.parse("prime:97") == FieldSpec("prime", p=97)
    with pytest.raises(ValueError):
        FieldSpec.parse("octonion:3")


@pytest.mark.parametrize("text", ["prime:0", "prime:1", "prime:4", "prime:9", "prime:91", "prime:561"])
def test_field_spec_rejects_non_prime_characteristic(text):
    """Z/n for composite n is not a field (GF(9) is not Z/9)."""
    with pytest.raises(ValueError, match="must be a prime"):
        FieldSpec.parse(text)


def test_field_spec_accepts_primes():
    for p in (2, 3, 5, 97, 7919):
        assert FieldSpec.parse(f"prime:{p}").p == p


def test_is_prime_is_exact_below_its_limit():
    """Miller-Rabin on the bases 2..41 against trial division, on strong
    pseudoprimes to the first 4, 9 and 12 prime bases, and on a 19-digit
    prime; at the limit of its exact range it refuses to answer."""
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for d in range(2, 71):
        for m in range(d * d, 5000, d):
            sieve[m] = False
    assert [_is_prime(n) for n in range(5000)] == sieve
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(10**18 + 3) and not _is_prime(10**18 + 1)
    with pytest.raises(ValueError, match="too large"):
        _is_prime(3317044064679887385961981)


def _trial_division_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def test_prime_factors_agree_with_trial_division():
    """Small n, random 9-digit n, and cofactors past the trial-division
    bound that rho must split: prime powers, products of two primes above
    the bound, and a smooth power."""
    rng = random.Random(20261020)
    cases = list(range(1, 3000)) + [rng.randrange(1, 10**9) for _ in range(300)]
    cases += [1009**2, 1009**3, 1009 * 1013, 2 * 1013**2, 999983 * 1000003, 2**40, 3**25]
    for n in cases:
        assert _prime_factors(n) == _trial_division_factors(n), n


def test_prime_factors_of_large_numbers():
    assert _prime_factors(1000000000000002136) == [2, 125000000000000267]
    assert _prime_factors(2**64 + 1) == [274177, 67280421310721]
    assert _prime_factors((10**9 + 7) * (10**9 + 9) * 12) == [2, 3, 10**9 + 7, 10**9 + 9]
    assert F97.generator() == 5  # the smallest primitive root mod 97
