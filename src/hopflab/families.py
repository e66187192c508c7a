"""Constructors for the Hopf algebra families under study; each builds a
HopfData with frozen canonical basis labels over the field it is given.
``build`` is the one entry point: it picks the family's field
(``FamilySpec.default_field_spec`` unless one is given), dispatches to the
constructor, and runs ``verify_hopf`` on what it returns.

Every family but tensor products is presented by letters, each basis element
a word in them.  Delta is an algebra map and S an anti-algebra map, so
``_from_letters`` derives Delta, S and epsilon from the product table, the
words and each letter's Delta, S and epsilon (Andruskiewitsch-Schneider,
J. Algebra 209, 1998): Delta(w y) = Delta(w) Delta(y),
S(y_1 ... y_k) = S(y_k) ... S(y_1), epsilon(y_1 ... y_k) = epsilon(y_1) ...
epsilon(y_k).  Tensor products keep the componentwise closed form: their
factors carry no letter words.

E(n), A_{C2^n}, H_(r,n) and the group algebras are quantum linear spaces,
built by ``build_quantum_linear_space`` from letters y_1..y_L in word order:
group-likes g with g^ord = 1 and skew-primitives x with x^N = 0 and
Delta(x) = x (x) h + g (x) x for group monomials g, h.  With y_t y_s =
c_ts y_s y_t (t after s), the monomials y^a = y_1^a_1 ... y_L^a_L are a basis
and

    (y^a)(y^b) = prod_{t>s} c_ts^(a_t b_s) y^(a+b),

group exponents reduced modulo their order, 0 once a nilpotent one reaches N;
S(g) = g^-1, S(x) = -g^-1 x h^-1, epsilon(g) = 1, epsilon(x) = 0.  The data:

- E(n): letters (g, x1..xn), order 2 each, all pairwise anticommuting;
  Delta(x_i) = x_i (x) 1 + g (x) x_i; basis in lex order of (g, x_n..x_1).
- A_{C2^n}: letters (x, g, h, g1..g_{n-2}), order 2 each, the group-likes
  anticommuting with x; Delta(x) = 1 (x) x + x (x) g; lex order of the letters.
- H_(r,n): letters (g, x), g of order rn, x^n = 0, x g = q g x with
  q = zeta_(rn); Delta(x) = 1 (x) x + x (x) g^r; lex order of (g, x).
- prod C_(n_i): the commuting group-like letters of order n_i > 1.

H_{2n^2} (and H8) and (A''_C4)* give their own letter data.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .hopf import HopfData, HopfError, Tensor, product_sums, verify_hopf
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


def _word(factors: list[str]) -> str:
    return "*".join(factors) if factors else "1"


# -- assembly helpers -------------------------------------------------------


def _bare_algebra(field, labels, mult, unit_index, name):
    """Algebra-only HopfData used to multiply out coproduct images."""
    dim = len(labels)
    zero2 = [dict() for _ in range(dim)]
    zero1 = [field.zero for _ in range(dim)]
    return HopfData(field, labels, mult, unit_index, zero2, zero1, None, {}, name)


def _words(exps: list[tuple]) -> list[tuple]:
    """The letter word y_1^a_1 ... y_L^a_L of each exponent vector a."""
    return [tuple(t for t, e in enumerate(a) for _ in range(e)) for a in exps]


def _from_letters(bare: HopfData, words: list[tuple], letters: list[tuple], generators: dict, family) -> HopfData:
    """The Hopf algebra on the algebra ``bare`` whose basis element i is the
    product of the letters of ``words[i]`` (letter indices, in order), with
    ``letters[t]`` = (Delta, S, epsilon) of letter t: Delta(word) =
    Delta(word less its last letter) Delta(last letter), one ``product_sums``
    per word length, so each letter's Delta is lifted once per length;
    S(word) the reversed product of the letters' S; epsilon(word) the product
    of the letters' epsilon.  Every prefix of a word must be a word;
    ``verify_hopf`` refuses words that do not multiply to the basis."""
    deltas = {(): bare.unit_tensor(2).coeffs}
    for length in range(1, max(map(len, words)) + 1):
        layer = [w for w in words if len(w) == length]
        sums = [[(1, deltas[w[:-1]], letters[w[-1]][0].coeffs)] for w in layer]
        deltas.update(zip(layer, product_sums(bare, 2, sums)))
    antipode, counit = [], []
    for word in words:
        s, e = bare.unit(), bare.field.one
        for t in reversed(word):
            s, e = s * letters[t][1], e * letters[t][2]
        antipode.append(s.coeffs)
        counit.append(e)
    comult = [deltas[w] for w in words]
    return HopfData(bare.field, bare.labels, bare.mult, bare.unit_index, comult, counit, antipode, generators, bare.name, family)


# -- group algebras ---------------------------------------------------------


def build_group_algebra(invariants: tuple, field) -> HopfData:
    """Group algebra of the abelian group prod C_{n_i}: the quantum linear
    space on the group-like letters of order > 1 (k with no invariants)."""
    invariants = tuple(int(n) for n in invariants)
    family = FamilySpec("group", invariants)
    letters = [(f"g{i+1}", n) for i, n in enumerate(invariants) if n > 1]
    exps = list(itertools.product(*(range(n) for _, n in letters)))
    name = "k[" + "x".join(f"C{n}" for n in invariants) + "]" if invariants else "k"
    return build_quantum_linear_space(letters, {}, exps, _monomial_label([g for g, _ in letters]), field, name, family)


# -- quantum linear spaces -----------------------------------------------------


def build_quantum_linear_space(
    letters: list[tuple],
    commute: dict,
    exps: list[tuple],
    label,
    field,
    name: str,
    family: FamilySpec | None = None,
) -> HopfData:
    """The quantum linear space of the module docstring.  ``letters`` in word
    order: ``(name, order)`` for a group-like, ``(name, N, g, h)`` for a
    skew-primitive, with g, h as {group letter: exponent}.
    ``commute[(t, s)] = c_ts`` (absent pairs commute); ``exps`` lists the basis
    exponent vectors in index order, ``label`` names each.  ``verify_hopf``
    refuses a datum that presents no Hopf algebra (for instance N other than
    the order of chi(g h^-1))."""
    bare, monomial = _qls_algebra(letters, commute, exps, label, field, name)
    images = []  # (Delta, S, epsilon) of each letter
    for letter in letters:
        y = monomial({letter[0]: 1})
        if len(letter) == 4:
            g, h = letter[2], letter[3]
            images.append((y.tensor(monomial(h)) + monomial(g).tensor(y), -(monomial(g, -1) * y * monomial(h, -1)), field.zero))
        else:
            images.append((y.tensor(y), monomial({letter[0]: -1}), field.one))
    words = _words(exps)
    generators = {letter[0]: words.index((t,)) for t, letter in enumerate(letters)}
    return _from_letters(bare, words, images, generators, family)


def _qls_algebra(letters, commute, exps, label, field, name) -> tuple:
    """(bare, monomial): the algebra of ``build_quantum_linear_space`` from
    the product rule of the module docstring, and the map from a group
    monomial {letter: exponent} (times ``sign``) to its basis element."""
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

    bare = _bare_algebra(field, [label(a) for a in exps], mult, index[(0,) * len(letters)], name)

    def monomial(exponents: dict, sign: int = 1):
        """The basis element g^(sign * exponents) for a group monomial."""
        return bare.basis_elem(reduced([sign * exponents.get(letter, 0) for letter in names]))

    return bare, monomial


def _monomial_label(names):
    return lambda a: _word([letter if e == 1 else f"{letter}^{e}" for letter, e in zip(names, a) if e])


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


def _excluding_char2(field) -> None:
    if field.characteristic == 2:
        raise ParameterError("characteristic 2 is excluded for this family")


def build_en(n: int, field) -> HopfData:
    """The 2^(n+1)-dimensional Hopf algebra with an involutive group-like g and
    n anticommuting square-zero skew-primitive generators."""
    _excluding_char2(field)
    return build_quantum_linear_space(*_en_datum(field, n), field, f"E({n})", FamilySpec("en", (n,)))


def build_ac2n(n: int, field) -> HopfData:
    """Pointed Hopf algebra of dimension 2^(n+1) with group-like coradical
    k C_2^n, all of whose group-likes anticommute with the skew-primitive x."""
    _excluding_char2(field)
    name = "A_{C2xC2}" if n == 2 else f"A_{{C2^{n}}}"
    return build_quantum_linear_space(*_ac2n_datum(field, n), field, name, FamilySpec("ac2n", (n,)))


def build_radford(r: int, n: int, field) -> HopfData:
    """Pointed Hopf algebra of dimension r n^2 on a group-like g of order rn
    and a skew-primitive x with xg = q gx and x^n = 0."""
    return build_quantum_linear_space(*_radford_datum(field, r, n), field, f"H_({r},{n})", FamilySpec("radford", (r, n)))


# -- the semisimple family on commuting group-likes swapped by z -------------


def build_h2n2(n: int, field, family: FamilySpec | None = None) -> HopfData:
    """Semisimple Hopf algebra of dimension 2n^2: commuting group-likes x, y
    of order n, an element z with zx = yz, zy = xz, and z^2 equal to the
    group-algebra element (1/n) sum q^{-ij} x^i y^j.

    With the basis {x^i y^j z^t, t = 0, 1} this is the unique relation for
    the square of z compatible with the Hopf axioms (``verify_hopf`` checks
    it).  ``family`` h8 names the n = 2 member H8.
    The product table is its own (z^2 in kG is no quantum-linear-space
    relation); the words are x^i y^j z^t, and the letters' data
    Delta(x) = x (x) x, Delta(y) = y (x) y,
    Delta(z) = sum_(a,b) n^-1 q^(-ab) x^a z (x) y^b z, S(x) = x^(n-1),
    S(y) = y^(n-1), S(z) = z, epsilon 1 on each.
    """
    family = family or FamilySpec("h2n2", (n,))
    p = field.characteristic
    if p and (2 * n) % p == 0:
        raise ParameterError(f"characteristic {p} divides 2n")
    q = field.make_root(n)
    one = field.one
    ninv = one / field.from_int(n)
    zsq = [ninv * q ** ((-a * b) % n) for a in range(n) for b in range(n)]  # z^2, on x^a y^b
    exps = [(i, j, t) for t in (0, 1) for i in range(n) for j in range(n)]
    dim = len(exps)

    def idx(i: int, j: int, t: int) -> int:
        return t * n * n + (i % n) * n + (j % n)

    mult = []
    for i1, j1, t1 in exps:
        row = []
        for i2, j2, t2 in exps:
            if t1 == 0:
                row.append({idx(i1 + i2, j1 + j2, t2): one})
            elif t2 == 0:
                row.append({idx(i1 + j2, j1 + i2, 1): one})
            else:
                row.append({idx(i1 + j2 + a, j1 + i2 + b, 0): zsq[a * n + b] for a in range(n) for b in range(n)})
        mult.append(row)
    name = "H8" if family.kind == "h8" else f"H_{{2*{n}^2}}"
    bare = _bare_algebra(field, list(map(_monomial_label("xyz"), exps)), mult, 0, name)
    x, y, z = (bare.basis_elem(idx(*a)) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # Delta(z) = sum_(a,b) n^-1 q^(-ab) x^a z (x) y^b z
    delta_z = Tensor(bare, 2, {idx(a, 0, 1) * dim + idx(0, b, 1): zsq[a * n + b] for a in range(n) for b in range(n)})
    letters = [(x.tensor(x), x ** (n - 1), one), (y.tensor(y), y ** (n - 1), one), (delta_z, z, one)]
    generators = {"x": idx(1, 0, 0), "y": idx(0, 1, 0), "z": idx(0, 0, 1)}
    return _from_letters(bare, _words(exps), letters, generators, family)


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


def build_ac4dual(field) -> HopfData:
    """The 8-dimensional algebra on g (order 4) and x with
    x^2 = 0, xg = w gx for a primitive 4th root w, and twisted coproduct
    Delta(g) = g (x) g - 2 gx (x) g^3 x: the quantum linear space on the
    letters (x, g), Delta(x) = 1 (x) x + x (x) g^2, with its own Delta(g)."""
    letters = [("x", 2, {}, {"g": 2}), ("g", 4)]
    exps = list(itertools.product((0, 1), range(4)))
    bare, monomial = _qls_algebra(letters, {("g", "x"): field.make_root(4) ** 3}, exps, _monomial_label("xg"), field, "(A''_C4)*")
    x, g, g2, g3 = monomial({"x": 1}), monomial({"g": 1}), monomial({"g": 2}), monomial({"g": 3})
    # Delta(x) is summed 1 (x) x first, the reverse of the default, which
    # keeps the entry order of the comult table
    images = [
        (bare.unit().tensor(x) + x.tensor(g2), -(x * g2), field.zero),
        (g.tensor(g) - (g * x).tensor(g3 * x).scaled(field.from_int(2)), g3, field.one),
    ]
    generators = {"g": bare.index["g"], "x": bare.index["x"]}
    return _from_letters(bare, _words(exps), images, generators, FamilySpec("ac4dual", ()))


# -- tensor products ----------------------------------------------------------


def tensor_product(a: HopfData, b: HopfData) -> HopfData:
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
    unit_index = idx(a.unit_index, b.unit_index)
    return HopfData(field, labels, mult, unit_index, comult, counit, antipode, generators, f"{a.name}(x){b.name}", fam)


# -- registry -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_cached(spec: FamilySpec, field_spec: FieldSpec, checked: bool) -> HopfData:
    """The HopfData of ``spec`` over the field of ``field_spec``; with
    ``checked``, ``verify_hopf`` must pass on it (on each tensor factor
    first), or ConstructionError names the violated laws."""
    field = get_field(field_spec)
    kind, params = spec.kind, spec.params
    if kind == "group":
        h = build_group_algebra(params, field)
    elif kind == "en":
        h = build_en(*params, field)
    elif kind == "ac2n":
        h = build_ac2n(*params, field)
    elif kind == "h2n2":
        h = build_h2n2(*params, field)
    elif kind == "h8":
        h = build_h2n2(2, field, spec)
    elif kind == "radford":
        h = build_radford(*params, field)
    elif kind == "ac4dual":
        h = build_ac4dual(field)
    elif kind == "tensor":
        h = tensor_product(*(_build_cached(factor, field_spec, checked) for factor in params))
    else:
        raise UnsupportedFamily(kind)
    if checked:
        rep = verify_hopf(h)
        if not rep.ok:
            raise ConstructionError(rep.summary())
    return h


def build(spec, field_spec: FieldSpec | None = None, checked: bool = True) -> HopfData:
    """Build (and cache) the HopfData for a family spec or its string form.

    The field is ``field_spec``, or the family's own
    ``FamilySpec.default_field_spec`` when none is given.  With ``checked``
    (the default) ``_build_cached`` runs ``verify_hopf`` on the instance,
    and on each tensor factor first, and raises ConstructionError unless it
    passes; the constructors themselves verify nothing.

    What this caches lives as long as the process and is never evicted: the
    ``_build_cached`` instance per (family, field, checked); on each instance,
    its term table ``mult_terms`` and the integer copies of it that tensor
    products read (``HopfData.int_terms``: one per algebra over F_p, one
    per slot width used over a cyclotomic field, Q included), the generator
    certificate (``hopf.generators_span``, granted once ``verify_hopf``
    passed on the instance, as it has on every checked build), and the
    ``precartier.analysis`` memo of R-independent results
    (commutant, R-free space, cocycles, coboundaries); and, per interned
    cyclotomic field (Q among them), the ``CycElt`` product and sum caches,
    which stop growing at 300000 entries each.  A long-lived process that builds many
    families holds all of them; cold processes are the measured
    configuration.
    """
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    if field_spec is None:
        field_spec = spec.default_field_spec()
    return _build_cached(spec, field_spec, checked)
