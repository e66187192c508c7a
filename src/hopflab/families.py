"""Constructors for the Hopf algebra families under study; each produces a
verified HopfData with frozen canonical basis labels.

E(n), A_{C2^n} and H_(r,n) are quantum linear spaces (Andruskiewitsch-
Schneider, J. Algebra 209, 1998), built by ``build_quantum_linear_space`` from
letters y_1..y_L in word order: group-likes g with g^ord = 1 and
skew-primitives x with x^N = 0 and Delta(x) = x (x) h + g (x) x for group
monomials g, h.  With y_t y_s = c_ts y_s y_t (t after s), the monomials
y^a = y_1^a_1 ... y_L^a_L are a basis and

    (y^a)(y^b) = prod_{t>s} c_ts^(a_t b_s) y^(a+b),

group exponents reduced modulo their order, 0 once a nilpotent one reaches N.
Delta(y^a) = Delta(y^a less its last letter) Delta(last letter); S(g) = g^-1
and S(x) = -g^-1 x h^-1 extend as an antihomomorphism; epsilon is 1 on x-free
monomials and 0 otherwise.  The families' data:

- E(n): letters (g, x1..xn), order 2 each, all pairwise anticommuting;
  Delta(x_i) = x_i (x) 1 + g (x) x_i; basis in lex order of (g, x_n..x_1).
- A_{C2^n}: letters (x, g, h, g1..g_{n-2}), order 2 each, the group-likes
  anticommuting with x; Delta(x) = 1 (x) x + x (x) g; lex order of the letters.
- H_(r,n): letters (g, x), g of order rn, x^n = 0, x g = q g x with
  q = zeta_(rn); Delta(x) = 1 (x) x + x (x) g^r; lex order of (g, x).

The other families (H_{2n^2}, H8, (A''_C4)*, group algebras, tensor products)
have their own constructors.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .hopf import HopfData, HopfError, Tensor, verify_hopf
from .scalars import FieldSpec, get_field


class ConstructionError(HopfError):
    pass


class ParameterError(ConstructionError):
    """A family parameter out of range, or a field the family excludes: a
    configuration error, not a failed check."""


class UnsupportedFamily(HopfError):
    pass


# each family's parameters, as (name, least value)
_PARAM_MINIMA = {
    "en": (("n", 1),),
    "ac2n": (("n", 2),),
    "h2n2": (("n", 2),),
    "radford": (("r", 1), ("n", 2)),
    "h8": (),
    "ac4dual": (),
}


@dataclass(frozen=True)
class FamilySpec:
    """Family selector: kind plus integer parameters.  Parameters out of range
    raise ParameterError here, before any field is chosen for them."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind == "group" and any(p < 1 for p in self.params):
            raise ParameterError(f"family {self}: abelian invariants must be >= 1")
        for (name, least), value in zip(_PARAM_MINIMA.get(self.kind, ()), self.params):
            if value < least:
                raise ParameterError(f"family {self}: {name} must be >= {least}")

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse the text form; malformed text raises ValueError naming it."""
        text = text.strip()
        if text.startswith("tensor("):
            inner = text[len("tensor(") : -1] if text.endswith(")") else ""
            depth = 0
            for pos, ch in enumerate(inner):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "," and depth == 0:
                    left = FamilySpec.parse(inner[:pos])
                    right = FamilySpec.parse(inner[pos + 1 :])
                    return FamilySpec("tensor", (left, right))
            raise ValueError(f"cannot parse tensor spec {text!r}: expected tensor(A,B)")
        if ":" in text:
            kind, _, rest = text.partition(":")
            fields = [p.strip() for p in rest.split(",")]
            if "" in fields:
                raise ValueError(f"family {text!r} has an empty parameter")
            try:
                params = tuple(int(p) for p in fields)
            except ValueError:
                raise ValueError(f"family {text!r}: parameters must be integers") from None
        else:
            kind, params = text, ()
        kind = kind.strip().lower()
        if kind not in ("group", "en", "ac2n", "h2n2", "h8", "radford", "ac4dual", "tensor"):
            raise ValueError(f"unknown family kind {kind!r}")
        want = _PARAM_MINIMA.get(kind)
        if want is not None and len(params) != len(want):
            raise ValueError(f"family {kind!r} takes {len(want)} parameter(s), got {len(params)}")
        return FamilySpec(kind, params)

    def default_root_order(self) -> int:
        if self.kind == "h8":
            return 8
        if self.kind == "h2n2":
            return self.params[0]
        if self.kind == "radford":
            r, n = self.params
            return r * n
        if self.kind == "ac4dual":
            return 4
        if self.kind == "tensor":
            a, b = self.params
            return math.lcm(a.default_root_order(), b.default_root_order())
        return 1

    def default_field_spec(self) -> FieldSpec:
        return FieldSpec("cyclotomic", order=self.default_root_order())

    def __str__(self) -> str:
        if self.kind == "tensor":
            return f"tensor({self.params[0]},{self.params[1]})"
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def _pow_label(name: str, e: int) -> str:
    if e == 1:
        return name
    return f"{name}^{e}"


def _word(factors: list[str]) -> str:
    return "*".join(factors) if factors else "1"


# -- assembly helpers -------------------------------------------------------


def _bare_algebra(field, labels, mult, unit_index, name):
    """Algebra-only HopfData used to multiply out coproduct images."""
    dim = len(labels)
    zero2 = [dict() for _ in range(dim)]
    zero1 = [field.zero for _ in range(dim)]
    return HopfData(field, labels, mult, unit_index, zero2, zero1, None, {}, name)


def _finish(
    field,
    labels,
    mult,
    unit_index,
    comult,
    counit,
    antipode,
    generators,
    name,
    family,
    checked: bool,
) -> HopfData:
    h = HopfData(field, labels, mult, unit_index, comult, counit, antipode, generators, name, family)
    if checked:
        rep = verify_hopf(h)
        if not rep.ok:
            raise ConstructionError(rep.summary())
    return h


def _antipode_from_generators(bare: HopfData, words: list[list[int]], gen_images: dict[int, Tensor]) -> list[dict]:
    """S on each basis word as the reversed product of generator images."""
    out = []
    for word in words:
        acc = bare.unit()
        for g in reversed(word):
            acc = acc * gen_images[g]
        out.append(acc.coeffs)
    return out


def _comult_from_generators(bare: HopfData, words: list[list[int]], gen_images: dict[int, Tensor]) -> list[dict]:
    out = []
    for word in words:
        acc = bare.unit_tensor(2)
        for g in word:
            acc = acc * gen_images[g]
        out.append(acc.coeffs)
    return out


# -- group algebras ---------------------------------------------------------


def build_group_algebra(
    invariants: tuple,
    field=None,
    gen_names: tuple | None = None,
    checked: bool = True,
    name: str | None = None,
    family: FamilySpec | None = None,
) -> HopfData:
    """Group algebra of the abelian group prod C_{n_i}."""
    invariants = tuple(int(n) for n in invariants)
    family = family or FamilySpec("group", invariants)
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=1))
    k = len(invariants)
    if gen_names is None:
        gen_names = tuple(f"g{i+1}" for i in range(k))

    exps = [()]
    for n in invariants:
        exps = [e + (c,) for e in exps for c in range(n)]
    index = {e: i for i, e in enumerate(exps)}
    labels = [_word([_pow_label(gen_names[i], c) for i, c in enumerate(e) if c]) for e in exps]

    one = field.one
    dim = len(exps)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            c = tuple((x + y) % n for x, y, n in zip(a, b, invariants))
            mult[i][j] = {index[c]: one}
    comult = [{i * dim + i: one} for i in range(dim)]
    counit = [one for _ in range(dim)]
    antipode = []
    for e in exps:
        inv = tuple((-x) % n for x, n in zip(e, invariants))
        antipode.append({index[inv]: one})
    generators = {gen_names[i]: index[tuple(1 if t == i else 0 for t in range(k))] for i in range(k) if invariants[i] > 1}
    return _finish(
        field,
        labels,
        mult,
        index[tuple(0 for _ in invariants)],
        comult,
        counit,
        antipode,
        generators,
        name or ("k[" + "x".join(f"C{n}" for n in invariants) + "]" if invariants else "k"),
        family,
        checked,
    )


# -- quantum linear spaces -----------------------------------------------------


def build_quantum_linear_space(
    letters: list[tuple],
    commute: dict,
    exps: list[tuple],
    label,
    field,
    name: str,
    family: FamilySpec | None = None,
    checked: bool = True,
) -> HopfData:
    """The quantum linear space of the module docstring.  ``letters`` in word
    order: ``(name, order)`` for a group-like, ``(name, N, g, h)`` for a
    skew-primitive, with g, h as {group letter: exponent}.
    ``commute[(t, s)] = c_ts`` (absent pairs commute); ``exps`` lists the basis
    exponent vectors in index order, ``label`` names each.  A checked build
    runs ``verify_hopf``, which refuses a datum that presents no Hopf algebra
    (for instance N other than the order of chi(g h^-1))."""
    names = [letter[0] for letter in letters]
    orders = [letter[1] for letter in letters]
    skew = [len(letter) == 4 for letter in letters]
    if sorted(exps) != sorted(itertools.product(*map(range, orders))):
        raise ConstructionError("exps must list every reduced exponent vector once")
    pos = {letter: t for t, letter in enumerate(names)}
    one = field.one
    # (t, s, [c_ts^e for every exponent a_t b_s can take])
    pairs = [
        (pos[t], pos[s], [c**e for e in range((orders[pos[t]] - 1) * (orders[pos[s]] - 1) + 1)])
        for (t, s), c in commute.items()
    ]
    if any(t <= s for t, s, _ in pairs):
        raise ConstructionError("commute keys (t, s) need t after s in word order")
    index = {a: i for i, a in enumerate(exps)}
    # exponent caps: x^N = 0, while a group exponent below twice the order is reduced
    caps = [order if nil else 2 * order for order, nil in zip(orders, skew)]

    def reduced(v):
        """Index of y^v with group exponents mod their order; None once x^N appears."""
        if any(map(operator.ge, v, caps)):
            return None
        return index[tuple(map(operator.mod, v, orders))]

    mult = []
    for a in exps:
        row = []
        for b in exps:
            k = reduced(list(map(operator.add, a, b)))
            if k is None:
                row.append({})
                continue
            c = one
            for t, s, q in pairs:
                if a[t] and b[s]:
                    c = c * q[a[t] * b[s]]
            row.append({k: c})
        mult.append(row)

    labels = [label(a) for a in exps]
    unit = index[(0,) * len(letters)]
    bare = _bare_algebra(field, labels, mult, unit, name + "-bare")

    def monomial(exponents: dict, sign: int = 1):
        """The basis element g^(sign * exponents) for a group monomial."""
        return bare.basis_elem(reduced([sign * exponents.get(letter, 0) for letter in names]))

    letter_deltas, letter_antipodes = [], {}
    for t, letter in enumerate(letters):
        y = monomial({letter[0]: 1})
        if skew[t]:
            g, h = letter[2], letter[3]
            letter_deltas.append(y.tensor(monomial(h)) + monomial(g).tensor(y))
            letter_antipodes[t] = -(monomial(g, -1) * y * monomial(h, -1))
        else:
            letter_deltas.append(y.tensor(y))
            letter_antipodes[t] = monomial({letter[0]: 1}, -1)

    # Delta(y^a) = Delta(y^a without its last letter) Delta(last letter)
    deltas = {exps[unit]: bare.unit_tensor(2)}
    for a in sorted(exps, key=sum)[1:]:
        t = max(i for i, e in enumerate(a) if e)
        deltas[a] = deltas[a[:t] + (a[t] - 1,) + a[t + 1 :]] * letter_deltas[t]
    comult = [deltas[a].coeffs for a in exps]
    words = [[t for t, e in enumerate(a) for _ in range(e)] for a in exps]
    antipode = _antipode_from_generators(bare, words, letter_antipodes)
    counit = [field.zero if any(e for e, nil in zip(a, skew) if nil) else one for a in exps]
    generators = {letter: index[tuple(int(s == t) for s in range(len(letters)))] for t, letter in enumerate(names)}
    return _finish(field, labels, mult, unit, comult, counit, antipode, generators, name, family, checked)


def _monomial_label(names):
    return lambda a: _word([_pow_label(letter, e) for letter, e in zip(names, a) if e])


def _en_datum(field, n: int):
    xs = [f"x{i}" for i in range(1, n + 1)]
    letters = [("g", 2)] + [(x, 2, {"g": 1}, {}) for x in xs]
    minus = -field.one
    commute = {(x, y): minus for j, x in enumerate(xs) for y in ["g"] + xs[:j]}
    exps = [(j,) + tuple((mask >> i) & 1 for i in range(n)) for j in (0, 1) for mask in range(1 << n)]

    def label(a):
        members = [str(i) for i in range(1, n + 1) if a[i]]
        return _word((["g^1"] if a[0] else []) + (["x{" + ",".join(members) + "}"] if members else []))

    return letters, commute, exps, label


def _ac2n_datum(field, n: int):
    group = ["g", "h"] + [f"g{i}" for i in range(1, n - 1)]
    letters = [("x", 2, {}, {"g": 1})] + [(g, 2) for g in group]
    commute = {(g, "x"): -field.one for g in group}
    return letters, commute, list(itertools.product((0, 1), repeat=n + 1)), _monomial_label(["x"] + group)


def _radford_datum(field, r: int, n: int):
    letters = [("g", r * n), ("x", n, {}, {"g": r})]
    commute = {("x", "g"): field.make_root(r * n)}
    return letters, commute, list(itertools.product(range(r * n), range(n))), _monomial_label(["g", "x"])


# (letters, commute, exps, label) of each family, as in the module docstring
_QLS_DATA = {"en": _en_datum, "ac2n": _ac2n_datum, "radford": _radford_datum}


def _excluding_char2(field):
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=1))
    if field.characteristic == 2:
        raise ParameterError("characteristic 2 is excluded for this family")
    return field


def build_en(n: int, field=None, checked: bool = True) -> HopfData:
    """The 2^(n+1)-dimensional Hopf algebra with an involutive group-like g and
    n anticommuting square-zero skew-primitive generators."""
    family = FamilySpec("en", (n,))
    field = _excluding_char2(field)
    return build_quantum_linear_space(*_en_datum(field, n), field, f"E({n})", family, checked)


def build_ac2n(n: int, field=None, checked: bool = True) -> HopfData:
    """Pointed Hopf algebra of dimension 2^(n+1) with group-like coradical
    k C_2^n, all of whose group-likes anticommute with the skew-primitive x."""
    family = FamilySpec("ac2n", (n,))
    field = _excluding_char2(field)
    name = "A_{C2xC2}" if n == 2 else f"A_{{C2^{n}}}"
    return build_quantum_linear_space(*_ac2n_datum(field, n), field, name, family, checked)


def build_radford(r: int, n: int, field=None, checked: bool = True) -> HopfData:
    """Pointed Hopf algebra of dimension r n^2 on a group-like g of order rn
    and a skew-primitive x with xg = q gx and x^n = 0."""
    family = FamilySpec("radford", (r, n))
    if field is None:
        field = get_field(family.default_field_spec())
    return build_quantum_linear_space(*_radford_datum(field, r, n), field, f"H_({r},{n})", family, checked)


# -- the semisimple family on commuting group-likes swapped by z -------------


def build_h2n2(n: int, field=None, checked: bool = True, name: str | None = None, family: FamilySpec | None = None) -> HopfData:
    """Semisimple Hopf algebra of dimension 2n^2: commuting group-likes x, y
    of order n, an element z with zx = yz, zy = xz, and z^2 equal to the
    group-algebra element (1/n) sum q^{-ij} x^i y^j.

    With the basis {x^i y^j z^t, t = 0, 1} this is the unique relation for
    the square of z compatible with the Hopf axioms (checked at build time).
    """
    family = family or FamilySpec("h2n2", (n,))
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=n))
    p = field.characteristic
    if p and (2 * n) % p == 0:
        raise ParameterError(f"characteristic {p} divides 2n")
    q = field.make_root(n)
    one = field.one
    ninv = one / field.from_int(n)
    qpow = [q**t for t in range(2 * n)]

    dim = 2 * n * n

    def idx(i: int, j: int, t: int) -> int:
        return t * n * n + (i % n) * n + (j % n)

    labels = []
    for t in (0, 1):
        for i in range(n):
            for j in range(n):
                factors = []
                if i:
                    factors.append(_pow_label("x", i))
                if j:
                    factors.append(_pow_label("y", j))
                if t:
                    factors.append("z")
                labels.append(_word(factors))
    labs = [None] * dim
    pos = 0
    for t in (0, 1):
        for i in range(n):
            for j in range(n):
                labs[idx(i, j, t)] = labels[pos]
                pos += 1

    zsq = {}  # coefficients of z^2 in the group part
    for a in range(n):
        for b in range(n):
            zsq[(a, b)] = ninv * qpow[(-a * b) % n]

    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for t1 in (0, 1):
        for i1 in range(n):
            for j1 in range(n):
                r = idx(i1, j1, t1)
                for t2 in (0, 1):
                    for i2 in range(n):
                        for j2 in range(n):
                            c = idx(i2, j2, t2)
                            if t1 == 0:
                                mult[r][c] = {idx(i1 + i2, j1 + j2, t2): one}
                            elif t2 == 0:
                                mult[r][c] = {idx(i1 + j2, j1 + i2, 1): one}
                            else:
                                out = {}
                                for (a, b), w in zsq.items():
                                    out[idx(i1 + j2 + a, j1 + i2 + b, 0)] = w
                                mult[r][c] = out

    comult = [None] * dim
    for i in range(n):
        for j in range(n):
            k0 = idx(i, j, 0)
            comult[k0] = {k0 * dim + k0: one}
            k1 = idx(i, j, 1)
            t = {}
            for a in range(n):
                for b in range(n):
                    left = idx(i + a, j, 1)
                    right = idx(i, j + b, 1)
                    t[left * dim + right] = ninv * qpow[(-a * b) % n]
            comult[k1] = t

    counit = [one] * dim

    antipode = [None] * dim
    for i in range(n):
        for j in range(n):
            antipode[idx(i, j, 0)] = {idx(-i, -j, 0): one}
            antipode[idx(i, j, 1)] = {idx(-j, -i, 1): one}

    generators = {"x": idx(1, 0, 0), "y": idx(0, 1, 0), "z": idx(0, 0, 1)}
    return _finish(
        field,
        labs,
        mult,
        idx(0, 0, 0),
        comult,
        counit,
        antipode,
        generators,
        name or f"H_{{2*{n}^2}}",
        family,
        checked,
    )


def build_h8(field=None, checked: bool = True) -> HopfData:
    """The 8-dimensional semisimple algebra: the n = 2 member of the family."""
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=8))
    return build_h2n2(2, field, checked, name="H8", family=FamilySpec("h8", ()))


def h8_idempotents(h: HopfData) -> list[Tensor]:
    """The four orthogonal idempotents of the group part of H8 (or n = 2)."""
    fam = h.family
    if fam is None or not (fam.kind == "h8" or (fam.kind == "h2n2" and fam.params == (2,))):
        raise UnsupportedFamily("idempotents are defined for the 8-dimensional member")
    f = h.field
    quarter = f.one / f.from_int(4)
    one_e = h.unit()
    x = h.gen("x")
    y = h.gen("y")
    xy = x * y
    e1 = (one_e + x + y + xy).scaled(quarter)
    ex = (one_e - x + y - xy).scaled(quarter)
    ey = (one_e + x - y - xy).scaled(quarter)
    exy = (one_e - x - y + xy).scaled(quarter)
    return [e1, ex, ey, exy]


# -- the dual 8-dimensional algebra with non-group-like coradical ------------


def build_ac4dual(field=None, checked: bool = True) -> HopfData:
    """The 8-dimensional algebra on g (order 4) and x with
    x^2 = 0, xg = w gx for a primitive 4th root w, and twisted coproduct
    Delta(g) = g (x) g - 2 gx (x) g^3 x."""
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=4))
    w = field.make_root(4)
    one = field.one
    wpow = [w**t for t in range(4)]

    def idx(a: int, k: int) -> int:
        return a * 4 + (k % 4)

    labels = []
    for a in (0, 1):
        for k in range(4):
            factors = []
            if a:
                factors.append("x")
            if k:
                factors.append(_pow_label("g", k))
            labels.append(_word(factors))

    dim = 8
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for a in (0, 1):
        for k in range(4):
            for b in (0, 1):
                for l in range(4):
                    if a + b > 1:
                        val = {}
                    else:
                        val = {idx(a + b, k + l): wpow[(-k * b) % 4]}
                    mult[idx(a, k)][idx(b, l)] = val

    bare = _bare_algebra(field, labels, mult, 0, "ac4dual-bare")
    g = bare.basis_elem(idx(0, 1))
    g2 = bare.basis_elem(idx(0, 2))
    g3 = bare.basis_elem(idx(0, 3))
    x = bare.basis_elem(idx(1, 0))
    two = field.from_int(2)
    dg = g.tensor(g) - (g * x).tensor(g3 * x).scaled(two)
    dx = bare.unit().tensor(x) + x.tensor(g2)
    words = [[0] * a + [1] * k for a in (0, 1) for k in range(4)]
    comult = _comult_from_generators(bare, words, {0: dx, 1: dg})
    counit = [one, one, one, one, field.zero, field.zero, field.zero, field.zero]
    sx = -(x * g2)
    antipode = _antipode_from_generators(bare, words, {0: sx, 1: g3})

    generators = {"g": idx(0, 1), "x": idx(1, 0)}
    return _finish(
        field,
        labels,
        mult,
        0,
        comult,
        counit,
        antipode,
        generators,
        "(A''_C4)*",
        FamilySpec("ac4dual", ()),
        checked,
    )


# -- tensor products ----------------------------------------------------------


def tensor_product(a: HopfData, b: HopfData, checked: bool = True) -> HopfData:
    """Componentwise product, coproduct with the middle flip, S = S (x) S."""
    if a.field is not b.field:
        raise ConstructionError("tensor factors must share one field")
    field = a.field
    da, db = a.dim, b.dim
    dim = da * db

    def idx(i, j):
        return i * db + j

    def lab(i, j):
        la, lb = a.labels[i], b.labels[j]
        if la == "1":
            return lb
        if lb == "1":
            return la
        return f"{la}~{lb}"

    labels = [lab(i, j) for i in range(da) for j in range(db)]
    if len(set(labels)) != dim:
        labels = [f"{a.labels[i]}~{b.labels[j]}" for i in range(da) for j in range(db)]

    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i1 in range(da):
        for j1 in range(db):
            r = idx(i1, j1)
            for i2 in range(da):
                ma = a.mult[i1][i2]
                for j2 in range(db):
                    mb = b.mult[j1][j2]
                    out = {}
                    for ka, va in ma.items():
                        for kb, vb in mb.items():
                            out[idx(ka, kb)] = va * vb
                    mult[r][idx(i2, j2)] = out

    comult = []
    for i in range(da):
        ca = a.comult[i]
        for j in range(db):
            cb = b.comult[j]
            t = {}
            for ka, va in ca.items():
                a1, a2 = divmod(ka, da)
                for kb, vb in cb.items():
                    b1, b2 = divmod(kb, db)
                    t[idx(a1, b1) * dim + idx(a2, b2)] = va * vb
            comult.append(t)

    counit = [a.counit[i] * b.counit[j] for i in range(da) for j in range(db)]

    antipode = None
    if a.antipode is not None and b.antipode is not None:
        antipode = []
        for i in range(da):
            sa = a.antipode[i]
            for j in range(db):
                sb = b.antipode[j]
                out = {}
                for ka, va in sa.items():
                    for kb, vb in sb.items():
                        out[idx(ka, kb)] = va * vb
                antipode.append(out)

    generators = {}
    for name, gi in a.generators.items():
        generators[name] = idx(gi, b.unit_index)
    for name, gj in b.generators.items():
        key = name if name not in generators else f"{name}_2"
        generators[key] = idx(a.unit_index, gj)

    fam = FamilySpec("tensor", (a.family, b.family)) if (a.family and b.family) else None
    return _finish(
        field,
        labels,
        mult,
        idx(a.unit_index, b.unit_index),
        comult,
        counit,
        antipode,
        generators,
        f"{a.name}(x){b.name}",
        fam,
        checked,
    )


# -- coradical projections -----------------------------------------------------


class CoradicalProjection:
    """Hopf algebra projection onto the group-algebra part, with its section."""

    def __init__(self, source: HopfData, target: HopfData, images: list, section: list):
        self.source = source
        self.target = target
        self.images = images  # source basis index -> target basis index or None
        self.section = section  # target basis index -> source basis index

    def apply(self, t: Tensor) -> Tensor:
        """The projection on every slot of a tensor of any leg count."""
        dt = self.target.dim
        out = {}
        for k, c in t.coeffs.items():
            key = 0
            for i in t._split(k):
                j = self.images[i]
                if j is None:
                    break
                key = key * dt + j
            else:
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
        return Tensor(self.target, t.legs, out)

    def include(self, a: Tensor) -> Tensor:
        return Tensor(self.source, 1, {self.section[j]: c for j, c in a.coeffs.items()})

    def verify(self):
        """Check the morphism laws and the splitting on all basis elements."""
        from .hopf import VerifyReport, counit, delta

        rep = VerifyReport(f"projection({self.source.name})")
        src, tgt = self.source, self.target
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = self.apply(src.basis_elem(i) * src.basis_elem(j))
                rhs = self.apply(src.basis_elem(i)) * self.apply(src.basis_elem(j))
                rep.record("projection.mult", f"({src.labels[i]},{src.labels[j]})", lhs == rhs)
        for i in range(src.dim):
            b = src.basis_elem(i)
            rep.record("projection.comult", src.labels[i], self.apply(delta(b)) == delta(self.apply(b)))
            rep.record("projection.counit", src.labels[i], counit(self.apply(b)) == counit(b))
        for j in range(tgt.dim):
            rep.record("projection.section", tgt.labels[j], self.apply(self.include(tgt.basis_elem(j))) == tgt.basis_elem(j))
        return rep


def coradical_projection(h: HopfData) -> CoradicalProjection:
    """Projection onto the group-like coradical for the pointed families."""
    fam = h.family
    if fam is None:
        raise UnsupportedFamily("no family metadata on this HopfData")
    field = h.field
    if fam.kind == "group":
        tgt = h
        images = list(range(h.dim))
        section = list(range(h.dim))
        return CoradicalProjection(h, tgt, images, section)
    if fam.kind in _QLS_DATA:
        # x-free monomials go to the group algebra on the group letters, the rest to 0
        letters, _, exps, _ = _QLS_DATA[fam.kind](field, *fam.params)
        group = [t for t, letter in enumerate(letters) if len(letter) == 2]
        tgt = build_group_algebra(
            tuple(letters[t][1] for t in group), field, gen_names=tuple(letters[t][0] for t in group), checked=False
        )
        images, section = [], [None] * tgt.dim
        for i, a in enumerate(exps):
            j = None
            if all(e == 0 for t, e in enumerate(a) if t not in group):
                j = 0
                for t in group:  # the group algebra's index: mixed radix, first letter leading
                    j = j * letters[t][1] + a[t]
                section[j] = i
            images.append(j)
        return CoradicalProjection(h, tgt, images, section)
    raise UnsupportedFamily(f"no coradical projection for family {fam.kind!r}")


# -- registry -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_cached(spec: FamilySpec, field_spec: FieldSpec, checked: bool) -> HopfData:
    field = get_field(field_spec)
    if spec.kind == "group":
        return build_group_algebra(spec.params, field, checked=checked)
    if spec.kind == "en":
        return build_en(spec.params[0], field, checked=checked)
    if spec.kind == "ac2n":
        return build_ac2n(spec.params[0], field, checked=checked)
    if spec.kind == "h2n2":
        return build_h2n2(spec.params[0], field, checked=checked)
    if spec.kind == "h8":
        return build_h8(field, checked=checked)
    if spec.kind == "radford":
        return build_radford(spec.params[0], spec.params[1], field, checked=checked)
    if spec.kind == "ac4dual":
        return build_ac4dual(field, checked=checked)
    if spec.kind == "tensor":
        a = _build_cached(spec.params[0], field_spec, checked)
        b = _build_cached(spec.params[1], field_spec, checked)
        return tensor_product(a, b, checked=checked)
    raise UnsupportedFamily(spec.kind)


def build(spec, field_spec: FieldSpec | None = None, checked: bool = True) -> HopfData:
    """Build (and cache) the verified HopfData for a family spec or its string form.

    What this caches lives as long as the process and is never evicted: the
    ``_build_cached`` instance per (family, field, checked); on each instance,
    its term table ``mult_terms`` and the integer copies of it that tensor
    products read (``HopfData.int_terms``: one per algebra over Q and F_p,
    one per slot width used over a cyclotomic field), the generator
    certificate (``hopf.generators_span``, granted once ``verify_hopf``
    passed on the instance, as it has on every checked build), and the
    ``precartier._analysis_cache`` memo of R-independent results
    (commutant, R-free space, cocycles, coboundaries); and, per interned
    cyclotomic field, the ``CycElt`` product and sum caches, which stop
    growing at 300000 entries each.  A long-lived process that builds many
    families holds all of them; cold processes are the measured
    configuration.
    """
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    if field_spec is None:
        field_spec = spec.default_field_spec()
    return _build_cached(spec, field_spec, checked)
