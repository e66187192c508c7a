"""Exact coefficient fields: cyclotomic extensions Q(zeta_M) and prime fields.

All downstream arithmetic is exact.  A field object hands out its own element
type; elements of distinct field objects never mix.  Characteristic 0 has
one field type, ``CycField``, with a small polynomial-quotient element: Q
itself is Q(zeta_1) = Q[t]/(t - 1), of degree 1, whose elements print as
their rationals.  The prime-field mode (p prime) exists for randomized
cross-validation of cyclotomic results.

An element combines only with an element of its own field: element
arithmetic and comparison raise ``MixedFieldSpec`` on an element of another
field, a plain int or a ``Fraction`` (so a stale ``x == 1`` cannot quietly
read False), and ``residue_map``, the ring morphisms into F_p of the modular
pass of ``linalg``, does the same.  A scalar is made by its field:
``from_int``, ``zero``, ``one`` and the quotients of these.

Every field also serves the sum-of-products kernel of ``hopf``, which runs
on Python ints instead of elements, through one interface: ``lift`` puts a
batch of elements over one common denominator D and bounds their sizes,
``width`` turns a bound on a whole sum into the packing width, ``pack``
turns x*D into an int, ``lift_batch`` does all three for the coefficient
dicts of one sum, ``unpack`` maps an int result back to the element it
stands for, and ``is_zero`` decides whether it stands for zero without
building the element.  Over F_p the int is the residue (D = 1), over
Q(zeta_M) a Kronecker-packed integer polynomial (see ``CycField``), one
slot wide over Q, where it is the numerator over D.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class FieldError(ArithmeticError):
    pass


class OrderUnavailable(FieldError):
    """The requested root-of-unity order does not exist in this field."""


class MixedFieldSpec(FieldError):
    """Operands belong to different field specifications."""


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials, ascending coefficients."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic."""
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # t^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


MILLER_RABIN_LIMIT = 3317044064679887385961981  # the least strong pseudoprime to the bases 2..41


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41: no composite
    below MILLER_RABIN_LIMIT (about 3.3e24) is a strong pseudoprime to all
    of them (Sorenson and Webster, Math. Comp. 86, 2017).  A larger n
    raises ``ValueError``."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is too large for the deterministic primality test (limit {MILLER_RABIN_LIMIT})")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Declarative field choice: cyclotomic(M) over Q, or a prime field F_p."""

    mode: str  # "cyclotomic" | "prime"
    order: int = 1  # ambient root order M (cyclotomic mode)
    p: int = 0  # characteristic (prime mode)

    def __post_init__(self):
        if self.mode not in ("cyclotomic", "prime"):
            raise ValueError(f"unknown field mode {self.mode!r}")
        if self.mode == "cyclotomic" and self.order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if self.mode == "prime" and not _is_prime(self.p):
            raise ValueError(f"prime field characteristic must be a prime, not {self.p}")

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        m = re.fullmatch(r"cyclotomic:(\d+)", text)
        if m:
            return FieldSpec("cyclotomic", order=int(m.group(1)))
        m = re.fullmatch(r"prime:(\d+)", text)
        if m:
            return FieldSpec("prime", p=int(m.group(1)))
        if text in ("Q", "q", "rational"):
            return FieldSpec("cyclotomic", order=1)
        raise ValueError(f"cannot parse field spec {text!r}")

    def __str__(self) -> str:
        if self.mode == "cyclotomic":
            return f"cyclotomic:{self.order}"
        return f"prime:{self.p}"


def _coerce(x, other):
    """``other`` when it is an element of x's field, the one operand type of
    x's arithmetic and comparison; None (so ``NotImplemented``) for a type
    that is no scalar, so a comparison with ``None`` reads False.  An
    element of another field, a plain int or a ``Fraction`` raises
    ``MixedFieldSpec``."""
    if isinstance(other, (CycElt, PrimeElt)):
        if other.field is x.field:
            return other
    elif not isinstance(other, (int, Fraction)):
        return None
    raise MixedFieldSpec(f"{other!r} is not in {x.field.description()}")


class CycElt:
    """Element of Q(zeta_M): integer coordinates over a common denominator in
    the power basis of Q[t]/(Phi_M).  Canonical form: den > 0 and
    gcd(den, *nums) = 1, so equality is coordinate-wise comparison."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "CycField", nums: tuple, den: int = 1):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """Power-basis coordinates as Fractions (for printing/morphisms)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __add__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        f = self.field
        cache = f._add_cache
        key = (self.nums, self.den, o.nums, o.den)
        hit = cache.get(key)
        if hit is None:
            da, db = self.den, o.den
            if da == db:
                hit = _canonical(tuple(x + y for x, y in zip(self.nums, o.nums)), da)
            else:
                g = math.gcd(da, db)
                ma, mb = db // g, da // g
                hit = _canonical(tuple(x * ma + y * mb for x, y in zip(self.nums, o.nums)), da * ma)
            if len(cache) < 300000:
                cache[key] = hit
        return CycElt(f, hit[0], hit[1])

    def __neg__(self):
        return CycElt(self.field, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        f = self.field
        cache = f._mul_cache
        key = (self.nums, self.den, o.nums, o.den)
        hit = cache.get(key)
        if hit is None:
            hit = f._mulmod(self.nums, self.den, o.nums, o.den)
            if len(cache) < 300000:
                cache[key] = hit
        return CycElt(f, hit[0], hit[1])

    def __truediv__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "CycElt":
        """x^-1 by the field norm.  For x = P(zeta)/d, let Q be the product
        of the conjugates sigma_k(P) = sum_i p_i zeta^(ik) over the units
        k != 1 mod M.  Then N = P Q is the norm of P(zeta), a nonzero
        integer when x != 0, and x^-1 = d Q(zeta) / N."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        f = self.field
        m = f.order
        q = f.one.nums
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                conj = [0] * m
                for i, p in enumerate(self.nums):
                    conj[i * k % m] += p
                q = f._mulmod(q, 1, f._reduce_int(conj), 1)[0]
        norm = f._mulmod(self.nums, 1, q, 1)[0][0]
        sign = 1 if norm > 0 else -1
        nums, den = _canonical(tuple(sign * self.den * c for c in q), sign * norm)
        return CycElt(f, nums, den)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((id(self.field), self.nums, self.den))

    def __repr__(self):
        return f"Cyc({self.field.order}; {list(self.nums)}/{self.den})"

    def __str__(self):
        """A rational prints as a ``Fraction`` does, any other element as its repr."""
        if self.field.degree == 1:
            return str(Fraction(self.nums[0], self.den))
        return repr(self)


def _canonical(nums: tuple, den: int) -> tuple:
    """Reduce to gcd(den, *nums) = 1 with den > 0."""
    g = den
    for x in nums:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return (nums, den)
    if g == den and not any(nums):
        return ((0,) * len(nums), 1)
    if g > 1:
        return (tuple(x // g for x in nums), den // g)
    return (nums, den)


class PrimeElt:
    """Element of F_p."""

    __slots__ = ("field", "val")

    def __init__(self, field: "PrimeField", val: int):
        self.field = field
        self.val = val % field.p

    def __add__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return PrimeElt(self.field, self.val + o.val)

    def __neg__(self):
        return PrimeElt(self.field, -self.val)

    def __sub__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return PrimeElt(self.field, self.val - o.val)

    def __mul__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return PrimeElt(self.field, self.val * o.val)

    def __truediv__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "PrimeElt":
        """x^-1, the one route of ``/`` and of negative powers."""
        if self.val == 0:
            raise ZeroDivisionError("prime-field division by zero")
        return PrimeElt(self.field, pow(self.val, -1, self.field.p))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PrimeElt(self.field, pow(self.val, k, self.field.p))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        o = _coerce(self, other)
        if o is None:
            return NotImplemented
        return self.val == o.val

    def __hash__(self):
        return hash((self.field.p, self.val))

    def __repr__(self):
        return f"F{self.field.p}({self.val})"


SLOT_ALIGN = 32  # slot widths are rounded up to this, so few packed tables exist


class CycField:
    """Q(zeta_M) = Q[t]/(Phi_M(t)); Phi_M is monic with integer coefficients,
    so reduction modulo Phi_M keeps integer polynomials integral.

    In the integer interface of the module docstring, ``pack`` turns x*D (an
    integer polynomial) into its value at t = 2^bits, and ``unpack`` reads
    the balanced base-2^bits digits of such a value back as an unreduced
    integer polynomial, divides it by Phi_M once (``_reduce_int``, the only
    reduction routine) and returns the canonical element over the given
    denominator; ``is_zero`` does the same reduction and only tests it.
    Evaluation at 2^bits is a ring morphism Z[t] -> Z, and it is injective
    on the polynomials whose coefficients are all below 2^(bits-1) in
    absolute value, which is the bound ``width`` keeps.
    """

    characteristic = 0

    def __init__(self, spec: FieldSpec):
        self.order = spec.order
        self.modulus = cyclotomic_polynomial(self.order)
        self.degree = len(self.modulus) - 1
        deg = self.degree
        self.zero = CycElt(self, (0,) * deg, 1)
        self.one = CycElt(self, (1,) + (0,) * (deg - 1), 1)
        self._mul_cache: dict = {}
        self._add_cache: dict = {}

    def from_int(self, n: int) -> CycElt:
        return CycElt(self, (n,) + (0,) * (self.degree - 1), 1)

    def _reduce_int(self, poly) -> tuple:
        """Remainder of an integer polynomial (ascending coefficients, any
        length) on division by the monic modulus, as ``degree`` integers."""
        deg = self.degree
        out = list(poly)
        low = self.modulus[:deg]
        for top in range(len(out) - 1, deg - 1, -1):
            c = out[top]
            if c:
                base = top - deg
                for i, m in enumerate(low):
                    if m:
                        out[base + i] -= c * m
        if len(out) < deg:
            out += [0] * (deg - len(out))
        return tuple(out[:deg])

    def _mulmod(self, a: tuple, da: int, b: tuple, db: int) -> tuple:
        conv = [0] * (2 * self.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return _canonical(self._reduce_int(conv), da * db)

    # -- packed integer arithmetic (see the class docstring) ----------------

    @staticmethod
    def lift(values) -> tuple[int, list]:
        """Common denominator D of the elements ``values`` (the lcm of their
        denominators) and, per element x, the l1 norm of the integer
        polynomial x*D."""
        values = list(values)
        den = 1
        for x in values:
            if x.den != 1:
                den = den * x.den // math.gcd(den, x.den)
        return den, [sum(map(abs, x.nums)) * (den // x.den) for x in values]

    @staticmethod
    def pack(x: CycElt, den: int, bits: int) -> int:
        """x*den, an integer polynomial when den is a multiple of x.den,
        evaluated at t = 2^bits."""
        acc = 0
        for c in reversed(x.nums):
            acc = (acc << bits) + c
        return acc * (den // x.den)

    def lift_batch(self, vecs: list, bound) -> tuple:
        """(D, bits, int vecs): the values of the coefficient dicts ``vecs``
        packed over their common denominator D, at the width for
        ``bound(D, vec_norms)``: a bound on the whole sum from D and the sum
        of the l1 norms of each lifted dict."""
        den = 1
        for vec in vecs:
            for x in vec.values():
                if den % x.den:
                    den = den * x.den // math.gcd(den, x.den)
        vec_norms = [sum(sum(map(abs, x.nums)) * (den // x.den) for x in vec.values()) for vec in vecs]
        bits = self.width(bound(den, vec_norms))
        pack = self.pack
        return den, bits, [{k: pack(x, den, bits) for k, x in vec.items()} for vec in vecs]

    @staticmethod
    def width(bound: int) -> int:
        """The slot width bits, a multiple of SLOT_ALIGN, with
        2^(bits-1) > bound."""
        return -(-(bound.bit_length() + 1) // SLOT_ALIGN) * SLOT_ALIGN

    def unpack(self, packed: int, bits: int, den: int) -> CycElt:
        """The element P(zeta)/den, where ``packed`` = P(2^bits) for an
        integer polynomial P with every coefficient below 2^(bits-1) in
        absolute value."""
        nums, d = _canonical(self._reduce_int(_digits(packed, bits)), den)
        return CycElt(self, nums, d)

    def is_zero(self, packed: int, bits: int) -> bool:
        """Does P(zeta) vanish, for ``packed`` = P(2^bits) as in ``unpack``?
        A packed 0 is the zero polynomial; otherwise P is read back from its
        balanced digits and reduced modulo Phi_M, with no element built."""
        return not packed or not any(self._reduce_int(_digits(packed, bits)))

    def make_root(self, m: int) -> CycElt:
        """Primitive m-th root of unity, when one exists in Q(zeta_M)."""
        big = self.order
        zeta = CycElt(self, self._reduce_int([0, 1]), 1)  # t mod Phi_M: 1 at M = 1, -1 at M = 2
        if big % m == 0:
            return zeta ** (big // m)
        if big % 2 == 1 and (2 * big) % m == 0:
            # -zeta^((M+1)/2) has order 2M when M is odd.
            xi = -(zeta ** ((big + 1) // 2))
            return xi ** (2 * big // m)
        raise OrderUnavailable(f"Q(zeta_{big}) has no primitive root of order {m}")

    def description(self) -> str:
        return "Q" if self.degree == 1 else f"Q(z{self.order})"

    def __repr__(self):
        return f"CycField({self.order})"


class PrimeField:
    """F_p; roots of unity of order m exist exactly when m | p-1."""

    def __init__(self, spec: FieldSpec):
        self.p = spec.p
        self.characteristic = spec.p
        self.zero = PrimeElt(self, 0)
        self.one = PrimeElt(self, 1)
        self._generator = None

    def from_int(self, n: int) -> PrimeElt:
        return PrimeElt(self, n)

    def generator(self) -> int:
        if self._generator is None:
            fac = _prime_factors(self.p - 1)
            for g in range(2, self.p):
                if all(pow(g, (self.p - 1) // q, self.p) != 1 for q in fac):
                    self._generator = g
                    break
        return self._generator

    def make_root(self, m: int) -> PrimeElt:
        if (self.p - 1) % m != 0:
            raise OrderUnavailable(f"F_{self.p} has no root of order {m}")
        return PrimeElt(self, pow(self.generator(), (self.p - 1) // m, self.p))

    def description(self) -> str:
        return f"F_{self.p}"

    # -- integer lift for hopf's tensor products: residues, D = 1 ------------

    @staticmethod
    def lift(values) -> tuple[int, list]:
        """D = 1 and, per value, its residue."""
        return 1, [x.val for x in values]

    @staticmethod
    def pack(x: PrimeElt, den: int, width) -> int:
        """The residue of x (den is 1)."""
        return x.val

    @staticmethod
    def lift_batch(vecs: list, bound) -> tuple:
        """(1, width, int vecs): the residues of the values of the dicts
        ``vecs``; no width, so ``bound`` is not called."""
        return 1, None, [{k: x.val for k, x in vec.items()} for vec in vecs]

    @staticmethod
    def width(bound: int) -> None:
        """No slot width: the ints are residues."""
        return None

    def unpack(self, n: int, width, den: int) -> PrimeElt:
        """n mod p (den is always 1: ``lift`` gives D = 1)."""
        return PrimeElt(self, n)

    def is_zero(self, n: int, width) -> bool:
        return n % self.p == 0

    def __repr__(self):
        return f"PrimeField({self.p})"


def _digits(packed: int, bits: int) -> list:
    """The balanced base-2^bits digits of ``packed``, least significant
    first: the integer polynomial P with P(2^bits) = packed and every
    coefficient in [-2^(bits-1), 2^(bits-1))."""
    full = 1 << bits
    mask, half = full - 1, full >> 1
    poly = []
    while packed:
        d = packed & mask
        if d >= half:
            d -= full
        poly.append(d)
        packed = (packed - d) >> bits
    return poly


TRIAL_DIVISION_BOUND = 1000  # _prime_factors divides by every d below this first


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, increasing.

    Trial division by every d < TRIAL_DIVISION_BOUND, then Pollard-Brent
    rho (``_rho_factor``) on what is left, each factor found confirmed by
    ``_is_prime`` before it is kept.  Trial division alone runs about
    sqrt(q) steps on n = 8q with q prime: minutes for
    p - 1 = 1000000000000002136."""
    out = []
    for d in range(2, TRIAL_DIVISION_BOUND):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out.append(m)
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return sorted(set(out))


def _rho_factor(n: int) -> int:
    """A factor 1 < d < n of the composite n, odd and with no prime factor
    below TRIAL_DIVISION_BOUND: Pollard's rho with Brent's cycle finding
    (Brent, BIT 20, 1980), the iteration x -> x^2 + c mod n from x = 2 for
    c = 1, 2, ... until one gives a proper factor.  The differences are
    multiplied together in blocks of 128 steps, one gcd per block, and a
    block whose gcd is n is walked again one gcd per step."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def get_field(spec: FieldSpec):
    """Field objects are interned per spec so identity checks are sound."""
    if spec.mode == "prime":
        return PrimeField(spec)
    return CycField(spec)


class NotInImage(FieldError):
    """An element whose denominator the prime of the chosen residue map
    divides: outside the domain of that map, inside that of a later one."""


def residue_map(x, k: int = 0) -> tuple:
    """(p, phi): the k-th ring morphism phi into F_p, k = 0, 1, ..., chosen
    from the field of the element x, on Python ints.

    phi maps an element of x's field to its residue in [0, p).  It raises
    ``NotInImage`` when p divides the element's denominator, and
    ``MixedFieldSpec`` on anything else: an element of another field, a
    plain int or a Fraction (a rational is a ``CycElt`` of Q = Q(zeta_1)),
    as ``residue_map`` does on an x that is no field element.

    - Q(zeta_M), Q being M = 1: p the k-th prime p = 1 mod M above 2^31,
      zeta -> omega, a primitive M-th root of unity mod p.  omega is a root
      of Phi_M mod p, so Z[zeta_M] -> F_p, zeta -> omega, is well defined,
      and so is its extension to the elements whose denominators p does not
      divide.  The primes are distinct, and there are infinitely many.
    - F_p: the residues themselves, for k = 0 only."""
    if isinstance(x, PrimeElt):
        if k:
            raise FieldError(f"F_{x.field.p} has one residue map, the identity")
        return _prime_residues(x.field)
    if isinstance(x, CycElt):
        return _cyclotomic_residues(x.field, k)
    raise MixedFieldSpec(f"no residue map for {type(x).__name__}")


def _prime_residues(field: "PrimeField") -> tuple:
    def phi(x) -> int:
        if not isinstance(x, PrimeElt) or x.field is not field:
            raise MixedFieldSpec(f"{x!r} is not in {field.description()}")
        return x.val

    return field.p, phi


@lru_cache(maxsize=None)
def _cyclotomic_residues(field: "CycField", k: int) -> tuple:
    m = field.order
    p = _cyclotomic_residues(field, k - 1)[0] + 1 if k else 2**31 + 1
    while (p - 1) % m or not _is_prime(p):
        p += 1
    factors = _prime_factors(m)
    for a in range(2, p):
        omega = pow(a, (p - 1) // m, p)
        if all(pow(omega, m // q, p) != 1 for q in factors):
            break
    powers = [pow(omega, i, p) for i in range(field.degree)]

    def phi(x) -> int:
        if not isinstance(x, CycElt) or x.field is not field:
            raise MixedFieldSpec(f"{x!r} is not in {field.description()}")
        acc = 0
        for n, w in zip(x.nums, powers):
            if n:
                acc += n * w
        den = x.den
        if den == 1:
            return acc % p
        if den % p == 0:
            raise NotInImage(f"{p} divides the denominator of {x!r}")
        return acc * pow(den, -1, p) % p

    return p, phi
