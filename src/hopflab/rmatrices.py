"""Universal R-matrices: constructors, axiom verification, the inverse, and
the bicharacter enumeration of group-supported R-matrices.

Laws checked by verify_qtr, in this order:
  antipode-inverse  (S (x) Id)(R) is a two-sided inverse of R,
  Q1  R Delta(b) = Delta_op(b) R          for every b (on the generators
                                          under ``hopf.generators_span``,
                                          else on every basis element),
  Q2  (Id (x) Delta)(R) = R13 R12,
  Q3  (Delta (x) Id)(R) = R13 R23.
Derived sanity checks: both counit slots collapse R to 1 and the quantum
Yang-Baxter identity holds.

R^-1 is (S (x) Id)(R) throughout (Drinfeld; Kassel, Quantum Groups,
Prop. VIII.2.4): callers that need the inverse of a verified R read it off
``Tensor.apply_antipode(0)``, a slot map with no products.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .expressions import ExprError, parse_element, parse_scalar
from .families import h8_idempotents
from .hopf import HopfData, HopfError, Tensor, VerifyReport, cocommutativity_indices, delta
from .linalg import vec_axpy


class RMatrixError(HopfError):
    pass


class FamilyMismatch(RMatrixError):
    pass


class NotInvertible(RMatrixError):
    pass


class RSpecError(RMatrixError):
    """Malformed R spec text: a configuration error, not a failed check."""


@dataclass(frozen=True)
class RSpec:
    """R-matrix selector; params depend on the kind."""

    kind: str
    params: tuple = ()

    @staticmethod
    def parse(text: str) -> "RSpec":
        """Parse the text form; any malformed text raises RSpecError.  Every
        text part is stripped, and an ``en-a`` matrix kept in the compact
        form [[a,b],[c,d]], so that ``str`` gives one text per R whatever
        whitespace the spec had."""
        try:
            return RSpec._parse(text.strip())
        except KeyError as exc:
            raise RSpecError(f"R spec {text!r} lacks the key {exc}") from None
        except ValueError as exc:
            raise RSpecError(f"cannot parse R spec {text!r}: {exc}") from None

    @staticmethod
    def _parse(text: str) -> "RSpec":
        if text == "ac4dual":
            return RSpec("ac4dual")
        if text.startswith("en-a:"):
            # the shape here, the scalars once the algebra is known
            return RSpec("en_a", (_matrix_text(_parse_matrix(text[len("en-a:") :], str.strip)),))
        if text.startswith("ac22:"):
            pairs = [[s.strip() for s in p.split("=", 1)] for p in text[len("ac22:") :].split(",")]
            if any(len(p) != 2 for p in pairs):
                raise RSpecError(f"expected {AC22_FORM}")
            kv = dict(pairs)
            if len(kv) < len(pairs) or not kv.keys() <= {"q", "a"}:
                raise RSpecError("an ac22 spec takes the keys q and a, each at most once")
            return RSpec("ac22", (_int(kv["q"], AC22_FORM), kv.get("a", "0")))
        if text.startswith("h8pm:"):
            signs = text[len("h8pm:") :].split(",")
            if len(signs) != 2:
                raise RSpecError(f"expected {H8PM_FORM}")
            return RSpec("h8_pm", tuple(_int(sign, H8PM_FORM) for sign in signs))
        if text.startswith("h8omega:"):
            return RSpec("h8_omega", (text[len("h8omega:") :].strip(),))
        if text.startswith("bichar:"):
            mat = _parse_matrix(text[len("bichar:") :], int)
            return RSpec("bichar", (tuple(tuple(r) for r in mat),))
        if text.startswith("explicit:"):
            return RSpec("explicit", (text[len("explicit:") :].strip(),))
        raise ValueError("unknown R kind")

    def __str__(self) -> str:
        if self.kind == "en_a":
            return f"en-a:{self.params[0]}"
        if self.kind == "ac22":
            return f"ac22:q={self.params[0]},a={self.params[1]}"
        if self.kind == "h8_pm":
            return f"h8pm:{self.params[0]:+d},{self.params[1]:+d}"
        if self.kind == "h8_omega":
            return f"h8omega:{self.params[0]}"
        if self.kind == "bichar":
            return f"bichar:{_matrix_text(self.params[0])}"
        if self.kind == "explicit":
            return f"explicit:{self.params[0]}"
        return self.kind


MATRIX = re.compile(r"\s*\[\s*\[[^\[\]]*\](\s*,\s*\[[^\[\]]*\])*\s*\]\s*")
AC22_FORM = "ac22:q=<int>,a=<scalar>"
H8PM_FORM = "h8pm:<±1>,<±1>"


def _parse_matrix(text: str, entry) -> list[list]:
    """The rows of the text form [[..],..,[..]], whitespace allowed between
    brackets and commas, each entry read by ``entry``; any other text
    raises RSpecError."""
    if not MATRIX.fullmatch(text):
        raise RSpecError(f"expected a matrix [[..],..,[..]], got {text.strip()!r}")
    return [[entry(x) for x in row.split(",")] for row in re.findall(r"\[([^\[\]]*)\]", text)]


def _matrix_text(rows) -> str:
    """The compact text form [[a,b],[c,d]] of a matrix."""
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"


def _int(text: str, form: str) -> int:
    """An integer part of an R spec of the form ``form``."""
    try:
        return int(text)
    except ValueError:
        raise RSpecError(f"expected {form}, got {text.strip()!r}") from None


def _parse_body_scalar(h: HopfData, text: str):
    """A scalar of an R spec body; malformed text raises RSpecError."""
    try:
        return parse_scalar(h, text)
    except ExprError as exc:
        raise RSpecError(f"cannot parse scalar {text.strip()!r} of the R spec: {exc}") from None


# -- constructors ------------------------------------------------------------


def _en_word(h: HopfData, j: int, subset: tuple):
    e = h.unit() if j % 2 == 0 else h.gen("g")
    for i in subset:
        e = e * h.gen(f"x{i}")
    return e


def _minor(field, A: list[list], rows_idx: tuple, cols_idx: tuple):
    """Determinant of the submatrix of A at the given rows and columns."""
    k = len(rows_idx)
    if k == 0:
        return field.one
    if k == 1:
        return A[rows_idx[0] - 1][cols_idx[0] - 1]
    sub = [[A[r - 1][c - 1] for c in cols_idx] for r in rows_idx]
    return _det(field, sub)


def _det(field, m: list[list]):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = field.zero
    sign = field.one
    for c in range(n):
        if m[0][c]:
            sub = [[m[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
            acc = acc + sign * m[0][c] * _det(field, sub)
        sign = -sign
    return acc


def build_r_en(h: HopfData, A: list[list]) -> Tensor:
    """R_A: the group block plus minor-weighted blocks over equal-size subset
    pairs (F, P), with sign (-1)^(|P|(|P|-1)/2) and minors at rows F, cols P."""
    fam = h.family
    if fam is None or fam.kind != "en":
        raise FamilyMismatch("en-a R-matrices live on the E(n) family")
    n = fam.params[0]
    if len(A) != n or any(len(row) != n for row in A):
        raise RSpecError(f"matrix must be {n}x{n}")
    f = h.field
    half = f.one / f.from_int(2)
    subsets = [()] + [t for k in range(1, n + 1) for t in combinations(range(1, n + 1), k)]
    acc = h.zero_tensor(2)
    for P in subsets:
        p = len(P)
        sgn = -f.one if (p * (p - 1) // 2) % 2 else f.one
        for F in subsets:
            if len(F) != p:
                continue
            d = _minor(f, A, F, P)
            if not d:
                continue
            c = half * sgn * d
            xF = _en_word(h, p, F)
            gxF = _en_word(h, p + 1, F)
            xP = _en_word(h, 0, P)
            gxP = _en_word(h, 1, P)
            acc = acc + (xF.tensor(xP) + xF.tensor(gxP) + gxF.tensor(xP) - gxF.tensor(gxP)).scaled(c)
    return acc


def build_r_ac22(h: HopfData, q: int, a: str) -> Tensor:
    """The two 1-parameter triangular families: R_q (1 (x) 1 + a x (x) gx),
    the scalar a read from its spec text (``parse_scalar``)."""
    fam = h.family
    if fam is None or fam.kind != "ac2n":
        raise FamilyMismatch("ac22 R-matrices live on the A_{C2^n} family")
    if q not in (0, 1):
        raise RSpecError("q must be 0 or 1")
    f = h.field
    g, hh, x = h.gen("g"), h.gen("h"), h.gen("x")
    quarter = f.one / f.from_int(4)
    rq = h.zero_tensor(2)
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    sgn = f.one if (i * j + k * l) % 2 == 0 else -f.one
                    left = (g**i) * (hh**k)
                    right = (g ** ((j + q * (j + l)) % 2)) * (hh ** ((q * (j + l)) % 2))
                    rq = rq + left.tensor(right).scaled(sgn * quarter)
    return rq * (h.unit_tensor(2) + x.tensor(g * x).scaled(_parse_body_scalar(h, a)))


def build_r_h8_omega(h: HopfData, omega: str) -> Tensor:
    """The four structures involving z, one per primitive 8th root omega,
    read from its spec text (``parse_scalar``).

    The classical idempotent-block form of this tensor satisfies the hexagon
    identities only with the right-hand factors in reversed order; its flip
    is returned, which passes Q1-Q3 in this module's conventions and still
    satisfies every conjugation identity of the block form.
    """
    f = h.field
    omega = _parse_body_scalar(h, omega)
    if omega**4 != -f.one:
        raise RSpecError("omega must be a primitive 8th root of unity")
    e1, ex, ey, exy = h8_idempotents(h)
    z = h.gen("z")
    one = h.unit()
    w2 = omega * omega
    r00 = e1.tensor(e1) + e1.tensor(exy) + exy.tensor(e1) - exy.tensor(exy)
    r10 = e1.tensor(ex) + e1.tensor(ey) - exy.tensor(ex).scaled(w2) + exy.tensor(ey).scaled(w2)
    r01 = ex.tensor(e1) + ey.tensor(e1) + ex.tensor(exy).scaled(w2) - ey.tensor(exy).scaled(w2)
    winv = omega**-1
    r11 = ex.tensor(ex).scaled(winv) + ex.tensor(ey).scaled(omega) + ey.tensor(ex).scaled(omega) + ey.tensor(ey).scaled(winv)
    printed = r00 + r10 * z.tensor(one) + r01 * one.tensor(z) + r11 * z.tensor(z)
    return printed.flip()


def build_r_ac4dual(h: HopfData) -> Tensor:
    fam = h.family
    if fam is None or fam.kind != "ac4dual":
        raise FamilyMismatch("this R-matrix lives on the dual 8-dimensional family")
    f = h.field
    g, x = h.gen("g"), h.gen("x")
    g2 = g * g
    one = h.unit()
    half = f.one / f.from_int(2)
    return (
        (one.tensor(one) + g2.tensor(one) + one.tensor(g2) - g2.tensor(g2)).scaled(half)
        - x.tensor(x)
        - x.tensor(g2 * x)
        + (g2 * x).tensor(x)
        - (g2 * x).tensor(g2 * x)
    )


def _bichar_order(h: HopfData) -> int:
    """n of the semisimple family H_(2n^2), 2 on the 8-dimensional member."""
    fam = h.family
    if fam is None or fam.kind not in ("h2n2", "h8"):
        raise FamilyMismatch("bicharacter R-matrices and their enumeration live on the semisimple family")
    return fam.params[0] if fam.kind == "h2n2" else 2


def build_r_bichar(h: HopfData, mat: tuple) -> Tensor:
    """Group-supported candidate from a 2x2 integer matrix M mod n: the sum of
    B(c, d) E_c (x) E_d over dual-group characters, B(c, d) = q^(c.M.d), with
    the idempotents E_c = (1/n^2) sum_g q^(-c.g) x^g1 y^g2.

    Summing over d first, sum_d q^(c.M.d) E_d = (1/n^2) sum_h x^h1 y^h2
    sum_d q^(d.(M^T c - h)) = x^h1 y^h2 at h = M^T c (mod n), so
    R = sum_c E_c (x) x^h1 y^h2 with h1 = m11 c1 + m21 c2 and
    h2 = m12 c1 + m22 c2: n^4 scalar additions, c1 then c2 outermost and
    the entries of each E_c in the order of g."""
    n = _bichar_order(h)
    if len(mat) != 2 or any(len(row) != 2 for row in mat):
        raise RSpecError("bicharacter matrix must be 2x2")
    f = h.field
    q = f.make_root(n)
    inv_n2 = f.one / f.from_int(n * n)
    coef = [q ** (-t % n) * inv_n2 for t in range(n)]  # q^(-t) / n^2
    x, y = h.gen("x"), h.gen("y")
    index = {}  # (g1, g2) -> index of the basis element x^g1 y^g2
    for g1 in range(n):
        for g2 in range(n):
            (index[g1, g2],) = (x**g1 * y**g2).coeffs
    ((m11, m12), (m21, m22)) = mat
    acc: dict = {}
    for c1 in range(n):
        for c2 in range(n):
            kh = index[(m11 * c1 + m21 * c2) % n, (m12 * c1 + m22 * c2) % n]
            block = {kg * h.dim + kh: coef[(c1 * g1 + c2 * g2) % n] for (g1, g2), kg in index.items()}
            vec_axpy(acc, block, f.one)
    return Tensor(h, 2, acc)


def build_r(h: HopfData, spec: RSpec | str) -> Tensor:
    if isinstance(spec, str):
        spec = RSpec.parse(spec)
    if spec.kind == "en_a":
        return build_r_en(h, _parse_matrix(spec.params[0], lambda x: _parse_body_scalar(h, x)))
    if spec.kind == "ac22":
        return build_r_ac22(h, spec.params[0], spec.params[1])
    if spec.kind == "h8_pm":
        # the bicharacter M = ((a, b), (b + 1, a)) mod 2 with alpha = (-1)^a, beta = (-1)^b
        alpha, beta = spec.params
        if alpha not in (1, -1) or beta not in (1, -1):
            raise RSpecError("alpha, beta must be +-1")
        if _bichar_order(h) != 2:
            raise FamilyMismatch("h8pm R-matrices live on the 8-dimensional member")
        a, b = (1 - alpha) // 2, (1 - beta) // 2
        return build_r_bichar(h, ((a, b), (1 - b, a)))
    if spec.kind == "h8_omega":
        return build_r_h8_omega(h, spec.params[0])
    if spec.kind == "ac4dual":
        return build_r_ac4dual(h)
    if spec.kind == "bichar":
        return build_r_bichar(h, spec.params[0])
    if spec.kind == "explicit":
        try:
            t = parse_element(h, spec.params[0])
        except ExprError as exc:
            raise RSpecError(f"cannot parse explicit R: {exc}") from None
        if not isinstance(t, Tensor) or t.legs != 2:
            raise RSpecError("explicit R must be a 2-tensor expression")
        return t
    raise RMatrixError(f"unknown R kind {spec.kind!r}")


# -- the inverse and verification ---------------------------------------------


def r_inverse(h: HopfData, r: Tensor) -> Tensor:
    """(S (x) Id)(R), when it is a two-sided inverse of R.

    For a quasitriangular R this candidate is the inverse (Drinfeld;
    Kassel, Quantum Groups, Prop. VIII.2.4).  It is returned only when
    R * cand = 1 (x) 1 and cand * R = 1 (x) 1 both hold by multiplication;
    otherwise, and when H has no antipode table, NotInvertible is raised.
    So an R that is invertible but not quasitriangular, whose inverse is
    not (S (x) Id)(R), raises too.
    """
    if h.antipode is None:
        raise NotInvertible(f"{h.name} carries no antipode table")
    cand = r.apply_antipode(0)
    one2 = h.unit_tensor(2)
    if r * cand != one2 or cand * r != one2:
        raise NotInvertible("(S (x) Id)(R) is not a two-sided inverse of R")
    return cand


def verify_qtr(h: HopfData, r: Tensor) -> VerifyReport:
    """The inverse law, quasi-cocommutativity, both hexagons, plus the
    derived counit and quantum Yang-Baxter checks, every law recorded
    whatever the laws before it gave.

    The one inverse law, ``antipode-inverse``, holds when ``r_inverse``
    accepts (S (x) Id)(R) as a two-sided inverse of R, and its failure
    carries ``r_inverse``'s message.  It is recorded first.  A two-sided
    inverse is unique in an associative algebra, so the law holds exactly
    when R is invertible and R^-1 = (S (x) Id)(R): the conjunction of an
    invertibility law and of a comparison of (S (x) Id)(R) with R^-1.  No
    other law reads R^-1.

    Quasi-cocommutativity R Delta(b) = Delta^op(b) R is checked for b in
    ``hopf.cocommutativity_indices(h)``: the generators when the certificate
    ``generators_span`` holds, which needs generator words that span H and
    a passing ``verify_hopf`` on ``h`` (H (x) H associative, Delta a unital
    morphism); the argument that this covers every b is in that function's
    docstring.  Otherwise every basis element is checked.  A
    failure is recorded under the basis label of the b that failed.
    """
    rep = VerifyReport(f"qtr({h.name})")
    try:
        r_inverse(h, r)
    except NotInvertible as exc:
        rep.record("antipode-inverse", str(exc), False)
    else:
        rep.record("antipode-inverse", "", True)
    for i in cocommutativity_indices(h):
        d = delta(h.basis_elem(i))
        rep.record("quasi-cocommutativity", h.labels[i], r * d == d.flip() * r)
    r13, r12, r23 = r.leg(13), r.leg(12), r.leg(23)
    rep.record("hexagon.id-delta", "", r.apply_delta(1) == r13 * r12)
    rep.record("hexagon.delta-id", "", r.apply_delta(0) == r13 * r23)
    one = h.unit()
    rep.record("counit.left", "", r.apply_counit(0) == one)
    rep.record("counit.right", "", r.apply_counit(1) == one)
    rep.record("qyb", "", r12 * r13 * r23 == r23 * r13 * r12)
    return rep


def is_triangular(h: HopfData, r: Tensor) -> bool:
    """A verified R is triangular when its inverse (S (x) Id)(R) is its flip."""
    return r.apply_antipode(0) == r.flip()


# -- enumeration ----------------------------------------------------------------


def enumerate_group_rmatrices(h: HopfData) -> list[RSpec]:
    """The group-supported R-matrices of the semisimple family, as specs: the
    n^2 bicharacters M = ((a, b), (b + 1 mod n, a)), in the order of M.  No
    R is built; the caller builds and verifies each R it uses (``verify_qtr``).

    These are the M whose R passes R Delta(z) = Delta^op(z) R.  Write
    g_h = x^h1 y^h2 and P for the swap (h1, h2) -> (h2, h1).  Then
    z g_h = g_Ph z, so z E_c = E_Pc z for the idempotents E_c of
    ``build_r_bichar``.  Delta(z) = J (z (x) z) and
    Delta^op(z) = J^op (z (x) z) with J = sum_(a,b) n^-1 q^(-ab) x^a (x) y^b,
    and on E_c (x) E_d, J acts as q^(c1 d2) and J^op as q^(c2 d1).  R_M acts there as B(c, d) = q^(c.M.d),
    and (z (x) z) R_M = R' (z (x) z) with R' acting as B(Pc, Pd).  z is
    invertible (z^2 acts on E_c as q^(c1 c2)), so R Delta(z) = Delta^op(z) R
    reads q^(c.(M - PMP + [[0,1],[-1,0]]).d) = 1 for all c and d, which holds
    exactly when M - PMP + [[0,1],[-1,0]] = 0 mod n: m22 = m11 and
    m21 = m12 + 1 mod n.  The group part is commutative, so Delta(x) and
    Delta(y) commute with every R_M, and on the generators the z condition
    decides all of Q1.

    Completeness relative to the cited classification of all R-matrices is
    assumed, not proved: only group-supported candidates are considered, and
    callers should surface that flag.
    """
    n = _bichar_order(h)
    return [RSpec("bichar", (((a, b), ((b + 1) % n, a)),)) for a in range(n) for b in range(n)]


# -- registries -------------------------------------------------------------------


def registered_rspecs(family_spec) -> list[RSpec]:
    """The deterministic R sample the CLI iterates for `--r enumerate`."""
    kind = family_spec.kind
    if kind == "en":
        n = family_spec.params[0]
        zero = _matrix_text([[0] * n] * n)
        ident, lower = (_matrix_text([[int(i == j + k) for j in range(n)] for i in range(n)]) for k in (0, 1))
        return [RSpec("en_a", (zero,)), RSpec("en_a", (ident,)), RSpec("en_a", (lower,))]
    if kind == "ac2n":
        return [RSpec("ac22", (0, "0")), RSpec("ac22", (0, "1")), RSpec("ac22", (1, "0")), RSpec("ac22", (1, "1"))]
    if kind == "h8":
        out = [RSpec("h8_pm", (a, b)) for a in (1, -1) for b in (1, -1)]
        out += [RSpec("h8_omega", (f"z8^{k}",)) for k in (1, 3, 5, 7)]
        return out
    if kind == "ac4dual":
        return [RSpec("ac4dual")]
    if kind == "group":
        return [RSpec("explicit", ("1 (x) 1",))]
    return []


def enumerate_rmatrices(h: HopfData) -> list[RSpec]:
    """The R specs ``--r enumerate`` iterates for the family of h: on
    H_(2n^2) the survivors of ``enumerate_group_rmatrices``, on any other
    family the ``registered_rspecs``.  A family with neither (``radford``,
    ``tensor``) raises RSpecError: there is nothing to enumerate, and the
    R-free classification is ``--r none``."""
    fam = h.family
    if fam is not None and fam.kind == "h2n2":
        found = enumerate_group_rmatrices(h)
    else:
        found = registered_rspecs(fam) if fam is not None else []
    if not found:
        raise RSpecError(f"--r enumerate: family {fam} has no registered or enumerated R-matrix; use --r none")
    return found
