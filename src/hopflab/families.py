"""Constructors for the Hopf algebra families under study.

Every constructor produces a verified HopfData with frozen canonical basis
labels.  Coproducts and antipodes are taken from the closed formulas where the
presentation gives one, and otherwise computed by multiplying out generator
images inside the tensor-square algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .hopf import Elem, HopfData, HopfError, Tensor, verify_hopf
from .scalars import FieldSpec, get_field


class ConstructionError(HopfError):
    pass


class ParameterError(ConstructionError):
    """A family parameter out of range, or a field the family excludes: a
    configuration error, not a failed check."""


class UnsupportedFamily(HopfError):
    pass


_PARAM_COUNTS = {"en": 1, "ac2n": 1, "h2n2": 1, "radford": 2, "h8": 0, "ac4dual": 0}


@dataclass(frozen=True)
class FamilySpec:
    """Family selector: kind plus integer parameters."""

    kind: str
    params: tuple = ()

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        text = text.strip()
        if text.startswith("tensor(") and text.endswith(")"):
            inner = text[len("tensor(") : -1]
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
            raise ValueError(f"cannot parse tensor spec {text!r}")
        if ":" in text:
            kind, _, rest = text.partition(":")
            params = tuple(int(p) for p in rest.split(",") if p != "")
        else:
            kind, params = text, ()
        kind = kind.strip().lower()
        if kind not in ("group", "en", "ac2n", "h2n2", "h8", "radford", "ac4dual", "tensor"):
            raise ValueError(f"unknown family kind {kind!r}")
        want = _PARAM_COUNTS.get(kind)
        if want is not None and len(params) != want:
            raise ValueError(f"family {kind!r} takes {want} parameter(s), got {len(params)}")
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


# -- sign bookkeeping for the anticommuting generators ---------------------


class SignTables:
    """Signs for reordering products of anticommuting square-zero generators.

    Subsets of {1..n} are bitmasks (bit i-1 encodes membership of i).
    """

    def __init__(self, n: int):
        self.n = n

    @staticmethod
    def members(mask: int) -> list[int]:
        out = []
        i = 1
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return out

    def coproduct_sign_exp(self, f_mask: int, p_mask: int) -> int:
        """Exponent S(F, P): sum of the positions of F inside sorted P, minus
        r(r+1)/2 for r = |F|.  Zero on the empty subset."""
        if f_mask == 0:
            return 0
        positions = []
        pos = 0
        sub = p_mask
        i = 1
        while sub:
            if sub & 1:
                pos += 1
                if f_mask & (1 << (i - 1)):
                    positions.append(pos)
            sub >>= 1
            i += 1
        r = len(positions)
        return sum(positions) - r * (r + 1) // 2

    def pullout_sign_exp(self, p_mask: int, i: int) -> int:
        """Exponent s(P, i): swaps moving x_i to the right end of x_P."""
        if not p_mask & (1 << (i - 1)):
            raise ValueError(f"{i} is not a member of the subset")
        return bin(p_mask >> i).count("1")

    @staticmethod
    def merge_sign_exp(p_mask: int, q_mask: int) -> int:
        """Inversions between sorted P followed by sorted Q (x_P x_Q reordering)."""
        exp = 0
        q = q_mask
        j = 1
        while q:
            if q & 1:
                exp += bin(p_mask >> j).count("1")
            q >>= 1
            j += 1
        return exp


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


def _antipode_from_generators(bare: HopfData, words: list[list[int]], gen_images: dict[int, Elem]) -> list[dict]:
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
    if any(n < 1 for n in invariants):
        raise ParameterError("abelian invariants must be positive")
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
        family or FamilySpec("group", invariants),
        checked,
    )


# -- E(n) --------------------------------------------------------------------


def build_en(n: int, field=None, checked: bool = True) -> HopfData:
    """The 2^(n+1)-dimensional Hopf algebra with an involutive group-like g and
    n anticommuting square-zero skew-primitive generators."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=1))
    if field.characteristic == 2:
        raise ParameterError("characteristic 2 is excluded for this family")
    signs = SignTables(n)
    one = field.one
    size = 1 << n
    dim = 2 * size

    def idx(j: int, mask: int) -> int:
        return j * size + mask

    labels = []
    for j in (0, 1):
        for mask in range(size):
            factors = []
            if j:
                factors.append("g^1")
            if mask:
                factors.append("x{" + ",".join(str(i) for i in signs.members(mask)) + "}")
            labels.append(_word(factors))

    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for j in (0, 1):
        for pm in range(size):
            i1 = idx(j, pm)
            psize = bin(pm).count("1")
            for k in (0, 1):
                for qm in range(size):
                    i2 = idx(k, qm)
                    if pm & qm:
                        mult[i1][i2] = {}
                        continue
                    exp = k * psize + SignTables.merge_sign_exp(pm, qm)
                    c = one if exp % 2 == 0 else -one
                    mult[i1][i2] = {idx((j + k) % 2, pm | qm): c}

    comult = []
    for j in (0, 1):
        for pm in range(size):
            t: dict = {}
            fs = pm
            while True:
                f = fs
                sgn = signs.coproduct_sign_exp(f, pm)
                fsize = bin(f).count("1")
                left = idx((fsize + j) % 2, pm & ~f)
                right = idx(j, f)
                c = one if sgn % 2 == 0 else -one
                t[left * dim + right] = c
                if fs == 0:
                    break
                fs = (fs - 1) & pm
            comult.append(t)

    counit = [one if i % size == 0 else field.zero for i in range(dim)]

    antipode = []
    for j in (0, 1):
        for pm in range(size):
            psize = bin(pm).count("1")
            exp = psize * (j + 1)
            c = one if exp % 2 == 0 else -one
            antipode.append({idx((psize + j) % 2, pm): c})

    generators = {"g": idx(1, 0)}
    for i in range(1, n + 1):
        generators[f"x{i}"] = idx(0, 1 << (i - 1))
    return _finish(
        field,
        labels,
        mult,
        idx(0, 0),
        comult,
        counit,
        antipode,
        generators,
        f"E({n})",
        FamilySpec("en", (n,)),
        checked,
    )


# -- the 8-dimensional pointed algebra on two group-likes --------------------


def build_ac22(field=None, checked: bool = True, family: FamilySpec | None = None) -> HopfData:
    """Pointed Hopf algebra on group-likes g, h and a skew-primitive x with
    x^2 = 0 and x anticommuting with g and h."""
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=1))
    if field.characteristic == 2:
        raise ParameterError("characteristic 2 is excluded for this family")
    one = field.one

    def idx(m: int, a: int, b: int) -> int:
        return m * 4 + a * 2 + b

    labels = []
    for m in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                factors = []
                if m:
                    factors.append("x")
                if a:
                    factors.append("g")
                if b:
                    factors.append("h")
                labels.append(_word(factors))

    dim = 8
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for m in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                for m2 in (0, 1):
                    for a2 in (0, 1):
                        for b2 in (0, 1):
                            if m + m2 > 1:
                                val = {}
                            else:
                                exp = m2 * (a + b)
                                c = one if exp % 2 == 0 else -one
                                val = {idx(m + m2, (a + a2) % 2, (b + b2) % 2): c}
                            mult[idx(m, a, b)][idx(m2, a2, b2)] = val

    bare = _bare_algebra(field, labels, mult, 0, "AC22-bare")
    g = bare.basis_elem(idx(0, 1, 0))
    h = bare.basis_elem(idx(0, 0, 1))
    x = bare.basis_elem(idx(1, 0, 0))
    dg = g.tensor(g)
    dh = h.tensor(h)
    dx = bare.unit().tensor(x) + x.tensor(g)
    words = []
    gen_ids = {"x": 0, "g": 1, "h": 2}
    for m in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                words.append([0] * m + [1] * a + [2] * b)
    comult = _comult_from_generators(bare, words, {0: dx, 1: dg, 2: dh})
    counit = []
    for m in (0, 1):
        for _ in range(4):
            counit.append(field.zero if m else one)
    sx = -(x * g)
    antipode = _antipode_from_generators(bare, words, {0: sx, 1: g, 2: h})

    generators = {"x": idx(1, 0, 0), "g": idx(0, 1, 0), "h": idx(0, 0, 1)}
    return _finish(
        field,
        labels,
        mult,
        0,
        comult,
        counit,
        antipode,
        generators,
        "A_{C2xC2}",
        family or FamilySpec("ac2n", (2,)),
        checked,
    )


def relabel(h: HopfData, perm_new_to_old: list[int], labels, generators, name, family=None) -> HopfData:
    """Transport structure along a basis bijection (new index -> old index)."""
    dim = h.dim
    inv = [0] * dim
    for new, old in enumerate(perm_new_to_old):
        inv[old] = new

    def moved(d: dict) -> dict:
        return {inv[k]: v for k, v in d.items()}

    def moved2(d: dict) -> dict:
        out = {}
        for k, v in d.items():
            i, j = divmod(k, dim)
            out[inv[i] * dim + inv[j]] = v
        return out

    mult = [[moved(h.mult[perm_new_to_old[i]][perm_new_to_old[j]]) for j in range(dim)] for i in range(dim)]
    comult = [moved2(h.comult[perm_new_to_old[i]]) for i in range(dim)]
    counit = [h.counit[perm_new_to_old[i]] for i in range(dim)]
    antipode = None
    if h.antipode is not None:
        antipode = [moved(h.antipode[perm_new_to_old[i]]) for i in range(dim)]
    return HopfData(h.field, labels, mult, inv[h.unit_index], comult, counit, antipode, generators, name, family)


def build_ac2n(n: int, field=None, checked: bool = True) -> HopfData:
    """Pointed Hopf algebra of dimension 2^(n+1) with group-like coradical
    k C_2^n, realized as the tensor product of the n = 2 case with a group
    algebra and relabeled along the isomorphism sending 1 (x) g_i to g*g_i."""
    if n < 2:
        raise ParameterError("n must be >= 2")
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=1))
    fam = FamilySpec("ac2n", (n,))
    if n == 2:
        return build_ac22(field, checked, family=fam)
    k = n - 2
    a22 = build_ac22(field, checked=False)
    grp = build_group_algebra((2,) * k, field, checked=False)
    tens = tensor_product(a22, grp, checked=False)

    dimb = 1 << k

    def tensor_index(m, a, b, cmask):
        return (m * 4 + a * 2 + b) * dimb + cmask

    perm = []
    labels = []
    for m in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                for cmask in range(dimb):
                    csum = bin(cmask).count("1")
                    perm.append(tensor_index(m, (a + csum) % 2, b, cmask))
                    factors = []
                    if m:
                        factors.append("x")
                    if a:
                        factors.append("g")
                    if b:
                        factors.append("h")
                    for i in range(k):
                        if cmask & (1 << (k - 1 - i)):
                            factors.append(f"g{i+1}")
                    labels.append(_word(factors))

    def new_index(m, a, b, cmask):
        return ((m * 4 + a * 2 + b) * dimb) + cmask

    generators = {
        "x": new_index(1, 0, 0, 0),
        "g": new_index(0, 1, 0, 0),
        "h": new_index(0, 0, 1, 0),
    }
    for i in range(k):
        generators[f"g{i+1}"] = new_index(0, 0, 0, 1 << (k - 1 - i))
    out = relabel(tens, perm, labels, generators, f"A_{{C2^{n}}}", fam)
    if checked:
        rep = verify_hopf(out)
        if not rep.ok:
            raise ConstructionError(rep.summary())
    return out


# -- the semisimple family on commuting group-likes swapped by z -------------


def build_h2n2(n: int, field=None, checked: bool = True, name: str | None = None, family: FamilySpec | None = None) -> HopfData:
    """Semisimple Hopf algebra of dimension 2n^2: commuting group-likes x, y
    of order n, an element z with zx = yz, zy = xz, and z^2 equal to the
    group-algebra element (1/n) sum q^{-ij} x^i y^j.

    With the basis {x^i y^j z^t, t = 0, 1} this is the unique relation for
    the square of z compatible with the Hopf axioms (checked at build time).
    """
    if n < 2:
        raise ParameterError("n must be >= 2")
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
        family or FamilySpec("h2n2", (n,)),
        checked,
    )


def build_h8(field=None, checked: bool = True) -> HopfData:
    """The 8-dimensional semisimple algebra: the n = 2 member of the family."""
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=8))
    return build_h2n2(2, field, checked, name="H8", family=FamilySpec("h8", ()))


def h8_idempotents(h: HopfData) -> list[Elem]:
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


# -- the Radford pointed family ----------------------------------------------


def qbinomial(m: int, u: int, Q):
    """Gaussian binomial by the Q-Pascal recurrence; ordinary binomial at Q = 1."""
    if u < 0 or u > m:
        raise ValueError("binomial index out of range")
    one = Q / Q if Q else None
    if one is None:
        raise ZeroDivisionError("Q must be nonzero")
    row = [one]
    for k in range(1, m + 1):
        prev = row
        row = [one]
        qp = Q
        for u2 in range(1, k):
            row.append(prev[u2 - 1] + qp * prev[u2])
            qp = qp * Q
        row.append(one)
    return row[u]


def build_radford(r: int, n: int, field=None, checked: bool = True) -> HopfData:
    """Pointed Hopf algebra of dimension r n^2 on a group-like g of order rn
    and a skew-primitive x with xg = q gx and x^n = 0."""
    if r < 1 or n < 2:
        raise ParameterError("need r >= 1 and n >= 2")
    M = r * n
    if field is None:
        field = get_field(FieldSpec("cyclotomic", order=M))
    q = field.make_root(M)
    Q = q**r
    one = field.one
    qpow = [q**t for t in range(M)]

    dim = M * n

    def idx(l: int, m: int) -> int:
        return (l % M) * n + m

    labels = []
    for l in range(M):
        for m in range(n):
            factors = []
            if l:
                factors.append(_pow_label("g", l))
            if m:
                factors.append(_pow_label("x", m))
            labels.append(_word(factors))

    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for l in range(M):
        for m in range(n):
            for l2 in range(M):
                for m2 in range(n):
                    if m + m2 >= n:
                        val = {}
                    else:
                        val = {idx(l + l2, m + m2): qpow[(m * l2) % M]}
                    mult[idx(l, m)][idx(l2, m2)] = val

    binoms = [[qbinomial(m, u, Q) for u in range(m + 1)] for m in range(n)]
    comult = []
    for l in range(M):
        for m in range(n):
            t = {}
            for u in range(m + 1):
                c = binoms[m][u]
                if not c:
                    continue
                left = idx(l, m - u)
                right = idx(l + r * (m - u), u)
                t[left * dim + right] = c
            comult.append(t)

    counit = []
    for l in range(M):
        for m in range(n):
            counit.append(one if m == 0 else field.zero)

    bare = _bare_algebra(field, labels, mult, 0, "radford-bare")
    g = bare.basis_elem(idx(1, 0))
    x = bare.basis_elem(idx(0, 1))
    sg = bare.basis_elem(idx(M - 1, 0))
    sx = -(x * bare.basis_elem(idx(M - r, 0)))
    words = [[1] * l + [0] * m for l in range(M) for m in range(n)]
    antipode = _antipode_from_generators(bare, words, {0: sx, 1: sg})

    generators = {"g": idx(1, 0), "x": idx(0, 1)}
    return _finish(
        field,
        labels,
        mult,
        0,
        comult,
        counit,
        antipode,
        generators,
        f"H_({r},{n})",
        FamilySpec("radford", (r, n)),
        checked,
    )


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

    def apply(self, a: Elem) -> Elem:
        out = {}
        for i, c in a.coeffs.items():
            j = self.images[i]
            if j is None:
                continue
            cur = out.get(j)
            out[j] = c if cur is None else cur + c
        return Elem(self.target, out)

    def apply2(self, t: Tensor) -> Tensor:
        ds, dt = self.source.dim, self.target.dim
        out = {}
        for k, c in t.coeffs.items():
            i, j = divmod(k, ds)
            pi, pj = self.images[i], self.images[j]
            if pi is None or pj is None:
                continue
            key = pi * dt + pj
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
        return Tensor(self.target, 2, out)

    def include(self, a: Elem) -> Elem:
        return Elem(self.source, {self.section[j]: c for j, c in a.coeffs.items()})

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
            rep.record("projection.comult", src.labels[i], self.apply2(delta(b)) == delta(self.apply(b)))
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
    if fam.kind == "en":
        n = fam.params[0]
        size = 1 << n
        tgt = build_group_algebra((2,), field, gen_names=("g",), checked=False)
        images = []
        for j in (0, 1):
            for mask in range(size):
                images.append(tgt.index["g" if j else "1"] if mask == 0 else None)
        section = [h.index["1"], h.index["g^1"]]
        return CoradicalProjection(h, tgt, images, section)
    if fam.kind == "ac2n":
        n = fam.params[0]
        k = n - 2
        names = ("g", "h") + tuple(f"g{i+1}" for i in range(k))
        tgt = build_group_algebra((2,) * n, field, gen_names=names, checked=False)
        dimb = 1 << k
        images = [None] * h.dim
        section = [0] * tgt.dim
        for a in (0, 1):
            for b in (0, 1):
                for cmask in range(dimb):
                    tgt_exp = (a, b) + tuple((cmask >> (k - 1 - i)) & 1 for i in range(k))
                    ti = 0
                    for e in tgt_exp:
                        ti = ti * 2 + e
                    src0 = ((0 * 4 + a * 2 + b) * dimb) + cmask
                    src1 = ((1 * 4 + a * 2 + b) * dimb) + cmask
                    images[src0] = ti
                    images[src1] = None
                    section[ti] = src0
        return CoradicalProjection(h, tgt, images, section)
    if fam.kind == "radford":
        r, n = fam.params
        M = r * n
        tgt = build_group_algebra((M,), field, gen_names=("g",), checked=False)
        images = []
        for l in range(M):
            for m in range(n):
                images.append(l if m == 0 else None)
        section = [l * n for l in range(M)]
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
