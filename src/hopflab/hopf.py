"""Finite-dimensional Hopf algebras as structure-constant tables.

A HopfData holds a labeled basis together with sparse tables for the product,
coproduct, counit and (optionally) antipode.  There is one value type,
``Tensor``: a sparse coefficient dict over the basis of H^(x)legs, indices in
the frozen row-major pairing (i, j) -> i*dim + j.  An element of H is a
Tensor with one leg, made by the ``HopfData`` factories (``unit``,
``basis_elem``, ``gen``, ``zero_tensor(1)``).  The coproduct, counit and
antipode act on any slot of any Tensor through one routine, which replaces
the slot's e_i by the image of e_i from a table (``comult``, ``counit_images``
or ``antipode``): ``apply_delta``, ``apply_counit`` and ``apply_antipode``,
and ``delta`` is that routine on slot 0 of an element.

Axiom verification is exhaustive over basis tuples: multilinearity makes this
a complete check.

The structure tables are immutable after construction.  HopfData derives from
``mult`` once, at construction, the term table ``mult_terms``: for each cell
(i, j) a tuple of (k, v) pairs with the zero entries of ``mult[i][j]`` dropped
and v = None where the coefficient is the field's one.  Every product, of
elements (1-leg tensors) and of 2- and 3-tensors, runs over this table, so it
skips zero cells and never multiplies by one.  The counit is made into a
table of images once too: ``counit_images[i]`` is {0: epsilon(e_i)}, empty
where epsilon(e_i) = 0.

The table is ``monomial`` when no cell has more than one term (every family
but the generalized Kac-Paljutkin algebras H_(2n^2), H_8 among them).  On
other tables 2-tensors are multiplied one leg at a time (sum factorization;
Orszag, J. Comput. Phys. 37, 1980): with a = sum a_(i0 i1) e_i0 (x) e_i1 and
b = sum b_(j0 j1) e_j0 (x) e_j1, for each pair (i1, j0) that occurs form
L = sum_i0 a_(i0 i1) e_i0 e_j0 and R = sum_j1 b_(j0 j1) e_i1 e_j1, and add
L (x) R.  A cell of s terms is then read once per pair (i1, j0) rather than
once per pair of operand entries, and the merged L and R entries are
multiplied once: on h2n2:3, where Delta(z) has 9 terms and 81 of the 324
cells have 9, the C1 recheck of the commutant (``precartier``; its 99
vectors times 3 coproducts) took 0.11 s with the pairwise loop and
0.038 s with this one, best of 5 (2-vCPU machine, Python 3.11).  On
monomial tables factorization merges nothing and its bookkeeping costs
more than it saves: products of 20 random
8-entry tensors with every Delta(b), both ways round, took 0.022 -> 0.048 s
on en:3 and 0.041 -> 0.078 s on ac2n:4 (and 0.08 -> 0.056 s on h8,
1.4 -> 0.55 s on h2n2:3), so monomial tables keep the pairwise loop
``_product2``.  So do 3-tensors: a prototype leg-0 factorization of the C2
operands went 0.285 -> 0.242 s on h8 and 0.091 -> 0.099 s on h2n2:3, not
worth a second 3-leg loop.  The choice depends on the table alone.  The
coefficients are those of the pairwise loop: both compute
sum a * b * v0 * v1 over the same terms, regrouped by distributivity, a ring
identity, and canonical exact scalars are unique.

Every product of 2- or 3-tensors is one call of the sum-of-products kernel
``product_sum``: sum s * a * b over terms (s, a, b) of a sign s = +-1 and
two 2- or 3-tensors.  ``Tensor.__mul__`` is the one-term case (on elements
it runs the loop over ``mult_terms`` directly: a single product of two
elements is too small to pay for a lift), ``quantize.PolyTensor`` sums each
hbar-degree in one call, the evaluators of ``precartier`` (the C1
commutators, the R-multiplied C2, its unit slice and the Cartier
map) each evaluate their whole signed sum in one call, and the C1 recheck tests
t Delta(g) - Delta(g) t with ``vanishes_all``.  Several sums can share one
lift (``product_sums``, ``vanishes_all``): ``map_rows`` evaluates a
``SumMap`` on all its columns that way, and the C1 recheck all its vectors,
so an operand that every sum shares (Delta(g), R) is lifted once and, on
the factorized loop, its L and R sums are formed once.  The kernel runs on
Python ints, never on field elements, over every field
(``field.lift_batch``): it lifts every operand once over one common
denominator D, runs the 2- and 3-leg loops against ``int_terms`` into one
int dict (a sign -1 folded into one operand), and maps each output key
back once (``field.unpack``).  ``vanishes_all`` instead applies the field's
zero test (``field.is_zero``) to each int, with no element built.
``int_terms`` is an int copy of ``mult_terms`` made once per algebra and
slot width: every entry is multiplied by the lcm D_m of the table's
denominators, and a None (one) entry stays None when D_m = 1 and becomes
D_m otherwise.  Every output int is its exact value times
den = D^2 * D_m^legs.

- Over F_p the ints are the residues of the operands and of the table
  (D = 1); each output is x mod p, and the zero test is x % p == 0.
- Over Q(zeta_M) each coefficient x, times D, is an integer polynomial in
  Z[t], packed into one int as its value at t = 2^B (Kronecker
  substitution; von zur Gathen and Gerhard, Modern Computer Algebra,
  section 8.4).  Each output is unpacked in balanced base-2^B digits,
  reduced modulo Phi_M once and divided by den.  The zero test: a packed 0
  is zero; otherwise the balanced digits are reduced modulo Phi_M and
  tested, with no ``CycElt`` built.  Over Q = Q(zeta_1) the polynomials
  are constants, one slot wide: the int is the numerator x * D itself.

Why the coefficients, and the zero tests, are exactly those of element
arithmetic:

- Every product term carries one factor from each operand, its sign folded
  into one of them, and exactly one table factor per leg, so it is its
  exact value times D^2 * D_m^legs.  In the factorized loop L and R are
  scaled by D * D_m.  So every term, partial sum and output is the exact
  value times the same nonzero integer den.
- Z -> F_p and the reduction Z[t] -> Z[zeta_M] = Z[t]/(Phi_M) are ring
  morphisms, so summing unreduced integer products and mapping once gives
  the field element of stepwise element arithmetic.  ``PrimeElt`` and
  ``CycElt`` values are canonical (for ``CycElt``: den > 0,
  gcd(den, *nums) = 1), so the outputs are ``==`` and print identically,
  and an output is zero exactly when the field's zero test says so.
- Over F_p the loops skip only true integer zeros, which are zero mod p
  too, and the final reduction mod p removes the rest.
- Over Q(zeta_M), evaluation at 2^B is a ring morphism Z[t] -> Z, so every
  int in the loop is the value at 2^B of the corresponding unreduced
  polynomial.  It is injective on polynomials whose coefficients are all
  below 2^(B-1) in absolute value.  B is chosen with 2^(B-1) above the
  bound sum_terms S_a * S_b * V^legs, where S_a and S_b are the sums of the
  l1 norms of the lifted operand polynomials (a sign changes no norm) and
  V bounds the l1 norm of every lifted table entry.  The l1 norm of a
  product is at most the product of the l1 norms, V >= D_m >= 1, and each
  output index gets at most one term per pair (ka, kb) of operand indices,
  so the bound covers every partial product, every term and every partial
  sum, of every term of the sum.
- The factorized 2-leg loop keeps the same B.  Each output index gets at
  most one term per cell, so an entry of L has l1 norm at most
  V * sum_i0 |a_(i0 i1)| and an entry of R at most V * sum_j1 |b_(j0 j1)|
  (norms of lifted polynomials), and every partial sum of one is bounded by
  that too.  An output coefficient sums one product of an L entry and an R
  entry per pair (i1, j0), so it and its partial sums stay below
  V^2 * sum_(i1, j0) (sum_i0 |a_(i0 i1)|) (sum_j1 |b_(j0 j1)|) = S_a * S_b * V^2.
- Hence a zero test on a packed int, on an output or on an L or R entry,
  is a zero test of an unreduced polynomial: a skip on zero never drops a
  nonzero term, and a packed zero is a field zero.  A nonzero packed value
  can still stand for zero, a nonzero multiple of Phi_M: its balanced
  digits are exactly the coefficients of that polynomial (injectivity), so
  its remainder modulo Phi_M decides it.  On h2n2:3 the coproduct check of
  ``verify_bialgebra`` meets 6561 such values (12 distinct ones), which is
  why ``_zero_test`` memoizes per value.

``verify_bialgebra`` runs its two large checks on the same lift and zero
test.  Associativity sums, for each pair (i, j) and every k at once,
products of two ``int_terms`` entries (scale D_m^2, bound 2 * dim * V^2);
the coproduct's morphism property lifts every Delta(e_m) once and runs
Delta(e_i) Delta(e_j) - sum_m T_ij^m Delta(e_m) through the kernel's int
core ``_int_sum`` (see ``_check_morphisms`` for its bound).  Against the
element-arithmetic loops they replace, cold ``verify_hopf`` went from 0.12
to 0.032 s on h2n2:3, from 0.14 to 0.015 s on ac2n:4 and from 0.79 to
0.22 s on h2n2:4 (medians of 5, 2-vCPU machine, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Echelon, Subspace, kernel_of_rows, vec_axpy


class HopfError(ValueError):
    pass


class ParentMismatch(HopfError):
    """Elements referencing different HopfData instances never interoperate."""


class NoAntipode(HopfError):
    pass


class HopfData:
    """Structure-constant presentation of a finite-dimensional (bi/Hopf) algebra."""

    def __init__(
        self,
        field,
        labels: list[str],
        mult: list[list[dict]],
        unit_index: int,
        comult: list[dict],
        counit: list,
        antipode: list[dict] | None = None,
        generators: dict[str, int] | None = None,
        name: str = "H",
        family=None,
    ):
        if len(set(labels)) != len(labels):
            raise HopfError("basis labels must be pairwise distinct")
        self.field = field
        self.labels = list(labels)
        self.dim = len(labels)
        self.mult = mult
        self.unit_index = unit_index
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.generators = dict(generators or {})
        self.name = name
        self.family = family
        self.index = {lab: i for i, lab in enumerate(labels)}
        one = field.one
        cells: dict = {}  # equal cells share one tuple
        terms = ((tuple((k, None if v == one else v) for k, v in cell.items() if v) for cell in row) for row in mult)
        self.mult_terms = [[cells.setdefault(t, t) for t in row] for row in terms]
        # every cell has at most one term: selects the 2-leg product loop
        self.monomial = all(len(cell) <= 1 for row in self.mult_terms for cell in row)
        # the lcm D_m of the table's denominators and a bound V on the l1 norm of
        # every lifted entry (a None entry lifts to the constant D_m)
        entries = [v for row in self.mult_terms for cell in row for _, v in cell if v is not None]
        self.table_den, norms = field.lift(entries)
        self.table_norm = max(norms + [self.table_den])
        self.counit_images = [{0: e} if e else {} for e in counit]  # e_i -> epsilon(e_i), a 0-leg tensor
        self._int_terms: dict = {}  # width -> int copy of mult_terms
        self.hopf_verified = False  # set by a passing verify_hopf
        self._words_span: bool | None = None  # cached _close_generator_words
        self._analysis_cache: dict = {}  # precartier.analysis: key -> R-independent subspace

    def int_terms(self, width) -> list:
        """``mult_terms`` over Z for the field's ``pack`` at ``width`` (a
        slot width over Q(zeta_M), None over F_p): each entry v as
        ``field.pack(v, table_den, width)``, and a None entry as
        ``table_den`` unless that is 1.  Made once per width, one int cell
        per distinct cell."""
        table = self._int_terms.get(width)
        if table is None:
            f, den = self.field, self.table_den
            one = None if den == 1 else den
            lifted: dict = {}
            for row in self.mult_terms:
                for cell in row:
                    if cell not in lifted:
                        lifted[cell] = tuple((k, one if v is None else f.pack(v, den, width)) for k, v in cell)
            table = [[lifted[cell] for cell in row] for row in self.mult_terms]
            self._int_terms[width] = table
        return table

    # -- tensor factories; an element of H is a 1-leg tensor -------------

    def unit(self) -> "Tensor":
        return Tensor(self, 1, {self.unit_index: self.field.one})

    def basis_elem(self, i: int) -> "Tensor":
        return Tensor(self, 1, {i: self.field.one})

    def gen(self, name: str) -> "Tensor":
        if name not in self.generators:
            raise HopfError(f"unknown generator {name!r} for {self.name}")
        return self.basis_elem(self.generators[name])

    def zero_tensor(self, legs: int = 2) -> "Tensor":
        return Tensor(self, legs, {})

    def unit_tensor(self, legs: int = 2) -> "Tensor":
        u = self.unit_index
        idx = 0
        for _ in range(legs):
            idx = idx * self.dim + u
        return Tensor(self, legs, {idx: self.field.one})

    def __repr__(self):
        return f"HopfData({self.name}, dim={self.dim}, field={self.field.description()})"


def _check_parents(a, b):
    if a.parent is not b.parent:
        raise ParentMismatch("operands belong to different HopfData instances")


class Tensor:
    """Sparse element of H^(x)legs, flattened row-major indices; an element
    of H is a Tensor with one leg."""

    __slots__ = ("parent", "legs", "coeffs")

    def __init__(self, parent: HopfData, legs: int, coeffs: dict):
        self.parent = parent
        self.legs = legs
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @classmethod
    def _raw(cls, parent, legs, coeffs):
        self = object.__new__(cls)
        self.parent = parent
        self.legs = legs
        self.coeffs = coeffs
        return self

    def _split(self, idx: int) -> tuple:
        dim = self.parent.dim
        out = []
        for _ in range(self.legs):
            idx, r = divmod(idx, dim)
            out.append(r)
        return tuple(reversed(out))

    def __add__(self, other):
        _check_parents(self, other)
        if self.legs != other.legs:
            raise HopfError("tensor leg-count mismatch")
        out = dict(self.coeffs)
        vec_axpy(out, other.coeffs, self.parent.field.one)
        return Tensor._raw(self.parent, self.legs, out)

    def __sub__(self, other):
        _check_parents(self, other)
        if self.legs != other.legs:
            raise HopfError("tensor leg-count mismatch")
        out = dict(self.coeffs)
        vec_axpy(out, other.coeffs, -self.parent.field.one)
        return Tensor._raw(self.parent, self.legs, out)

    def __neg__(self):
        return Tensor(self.parent, self.legs, {k: -v for k, v in self.coeffs.items()})

    def scaled(self, c) -> "Tensor":
        return Tensor(self.parent, self.legs, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        """Componentwise (legwise) algebra product of two Tensors of one
        parent and leg count: elements, 2- or 3-tensors.  A scalar enters a
        Tensor through ``scaled`` only."""
        _check_parents(self, other)
        if self.legs != other.legs:
            raise HopfError("tensor leg-count mismatch")
        h = self.parent
        if self.legs == 1:
            terms = h.mult_terms
            pairs = []
            for i, a in self.coeffs.items():
                row = terms[i]
                for j, b in other.coeffs.items():
                    if row[j]:
                        pairs.append((row[j], a * b))
            return Tensor._raw(h, 1, _cell_sum(pairs))
        return Tensor._raw(h, self.legs, product_sum(h, self.legs, [(1, self.coeffs, other.coeffs)]))

    def __pow__(self, k: int):
        if k < 0:
            raise HopfError("negative tensor powers are not defined")
        out = self.parent.unit_tensor(self.legs)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        _check_parents(self, other)
        return self.legs == other.legs and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def permute(self, order) -> "Tensor":
        """The leg permutation with leg k of the result leg ``order[k]`` of
        self, for any leg count; ``order`` must be a permutation of
        range(legs).  It copies coefficients and multiplies nothing.  The
        product of H^(x)legs is taken leg by leg, so a leg permutation is an
        algebra automorphism of it, whatever the axioms of H."""
        if sorted(order) != list(range(self.legs)):
            raise HopfError(f"{tuple(order)} is not a permutation of the legs of a {self.legs}-leg tensor")
        dim = self.parent.dim
        out = {}
        for key, v in self.coeffs.items():
            idx = self._split(key)
            new = 0
            for p in order:
                new = new * dim + idx[p]
            out[new] = v
        return Tensor._raw(self.parent, self.legs, out)

    def leg(self, placement: int) -> "Tensor":
        """Embed a 2-tensor into legs 12, 13 or 23 of H^(x)3, the unit on
        the third: self (x) 1, its legs 2 and 3 swapped, and 1 (x) self."""
        if self.legs != 2:
            raise HopfError("leg embedding is defined on 2-tensors")
        one = self.parent.unit()
        if placement == 12:
            return self.tensor(one)
        if placement == 13:
            return self.tensor(one).permute((0, 2, 1))
        if placement == 23:
            return one.tensor(self)
        raise HopfError("placement must be one of 12, 13, 23")

    def unit_slice(self, slot: int) -> "Tensor":
        """The terms whose leg ``slot`` is the unit index, with that leg
        dropped: the coefficients of e_u at the slot, one leg fewer.  The
        slices the solvers cut by first read their coordinates this way."""
        if not 0 <= slot < self.legs:
            raise HopfError(f"slot {slot} of a {self.legs}-leg tensor")
        dim, u = self.parent.dim, self.parent.unit_index
        low = dim ** (self.legs - 1 - slot)
        high = low * dim
        out = {}
        for k, v in self.coeffs.items():
            head, rest = divmod(k, high)
            i, tail = divmod(rest, low)
            if i == u:
                out[head * low + tail] = v
        return Tensor._raw(self.parent, self.legs - 1, out)

    def tensor(self, other: "Tensor") -> "Tensor":
        """The outer product self (x) other, on self.legs + other.legs legs."""
        _check_parents(self, other)
        shift = self.parent.dim**other.legs
        out = {}
        for i, a in self.coeffs.items():
            base = i * shift
            for j, b in other.coeffs.items():
                c = a * b
                if c:
                    out[base + j] = c
        return Tensor._raw(self.parent, self.legs + other.legs, out)

    def apply_delta(self, slot: int) -> "Tensor":
        """Apply the coproduct to one slot, raising the leg count by one."""
        return self._map_slot(slot, self.parent.comult, 2)

    def apply_counit(self, slot: int) -> "Tensor":
        """Apply the counit to one slot, lowering the leg count by one."""
        return self._map_slot(slot, self.parent.counit_images, 0)

    def apply_antipode(self, slot: int) -> "Tensor":
        """Apply the antipode to one slot."""
        h = self.parent
        if h.antipode is None:
            raise NoAntipode(f"{h.name} carries no antipode table")
        return self._map_slot(slot, h.antipode, 1)

    def _map_slot(self, slot: int, images: list, width: int) -> "Tensor":
        """The linear map e_i -> images[i] on one slot, identity on the
        others: images[i] is the coefficient dict of a ``width``-leg tensor,
        which takes the slot's place.  The one slot loop of Delta, epsilon
        and S."""
        if not 0 <= slot < self.legs:
            raise HopfError(f"slot {slot} of a {self.legs}-leg tensor")
        dim = self.parent.dim
        low = dim ** (self.legs - 1 - slot)  # the index range of the legs after the slot
        high = low * dim
        shift = dim**width
        out: dict = {}
        for k, v in self.coeffs.items():
            head, rest = divmod(k, high)
            i, tail = divmod(rest, low)
            base = head * shift
            for kt, w in images[i].items():
                idx = (base + kt) * low + tail
                c = v * w
                cur = out.get(idx)
                if cur is None:
                    if c:
                        out[idx] = c
                else:
                    c = cur + c
                    if c:
                        out[idx] = c
                    else:
                        del out[idx]
        return Tensor._raw(self.parent, self.legs - 1 + width, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        labels = self.parent.labels
        parts = []
        for k, v in sorted(self.coeffs.items()):
            word = " (x) ".join(labels[i] for i in self._split(k))
            parts.append(f"({v!r})*[{word}]")
        return " + ".join(parts)


# -- linear maps on tensor powers ----------------------------------------


def map_rows(h: HopfData, legs: int, maps, columns) -> dict:
    """The matrix rows of linear maps on H^(x)legs, restricted to columns.

    Column c is the tensor with coefficients ``columns[c]``, such as the
    rows of a ``Subspace`` (``full_space(h, legs).rows`` is the standard
    basis).  Each map takes a ``legs``-tensor and returns a Tensor.  The
    result maps (map index, output coordinate) to the row
    {c: coefficient of that coordinate in map(column c)}; rows that are
    identically zero are absent.  This is the one place
    where map images are transposed into rows: every kernel, cut and solve
    of the package reads its equations from here.

    The rows come grouped by map, each map's in the order its coordinates
    first appear over the columns.  No kernel or solve depends on the order
    (both end in a canonical RREF), but elimination time and the scalars it
    creates do.  Rows in coordinate order made the C2 cuts of the four
    h8omega R-matrices create ten times the ``CycElt`` cache entries (15k
    against 1.4k; peak memory of ``classify h8 --r enumerate`` 19.4 ->
    23.0 MB), and rows interleaved across maps made the h2n2:3 commutant
    three times slower (0.34 -> 1.14 s, 2-vCPU machine, Python 3.11).
    ``restrict_and_cut`` passes one map at a time.  A ``SumMap`` is
    evaluated on all the columns at once (``product_sums``).

    Every row of a map is made before ``kernel_of_rows`` reads one, even
    when the kernel is certified zero by the first few.  So a map whose
    kernel is decided by a few of its output coordinates is preceded, in
    its cut, by a map of those coordinates alone: the unit slices of the
    C2 cut (``precartier.cqtr_unit_slice_map``) and of Z^2
    (``cohomology.b2_unit_slice``).  On the h2n2 benchmark classify that
    took the rows handed to ``kernel_of_rows`` from 6519 to 1330."""
    tensors = [Tensor(h, legs, vec) for vec in columns]
    rows: dict[tuple, dict] = {}
    for mi, op in enumerate(maps):
        if isinstance(op, SumMap):
            images = product_sums(h, op.legs, [op.terms(t) for t in tensors])
        else:
            images = (op(t).coeffs for t in tensors)
        for c, image in enumerate(images):
            for coord, v in image.items():
                rows.setdefault((mi, coord), {})[c] = v
    return rows


class SumMap:
    """The linear map t -> ``product_sum(h, legs, terms(t))`` into
    ``legs``-tensors, for a term list ``terms(t)`` linear in t.  Called on
    one tensor it evaluates it; ``map_rows`` evaluates it on all of its
    columns on one lift, so the operands that every column's terms share
    (the same dict object, such as Delta(g) in a commutator or R in the
    C2 and Cartier forms) are lifted once and, on the factorized loop,
    their L and R sums are formed once."""

    __slots__ = ("legs", "terms")

    def __init__(self, legs: int, terms):
        self.legs = legs
        self.terms = terms

    def __call__(self, t: "Tensor") -> "Tensor":
        h = t.parent
        return Tensor._raw(h, self.legs, product_sum(h, self.legs, self.terms(t)))


def full_space(h: HopfData, legs: int) -> Subspace:
    """All of H^(x)legs: the standard basis, with coefficient ``h.field.one``."""
    n = h.dim**legs
    one = h.field.one
    return Subspace(n, tuple({i: one} for i in range(n)), tuple(range(n)))


def restrict_and_cut(h: HopfData, legs: int, space: Subspace, maps) -> Subspace:
    """The vectors of ``space`` (a subspace of H^(x)legs) that every map in
    ``maps`` sends to zero.

    The maps cut one at a time, in the order given: each map is evaluated
    only on the basis that the maps before it left, its kernel is taken in
    basis coefficients and mapped back, and its rows are dropped before the
    next map is evaluated.  Put the cheap maps that cut most first: on
    h2n2:3 the group-likes x and y take the commutant's 324 columns to 162
    before the 9-term Delta(z) is applied.  A map whose rows are some of a
    later map's (the unit slice of C2 or of b^2 before the full map) cuts
    nothing away that the later map would keep, and leaves it only the
    basis of its own kernel, none when it is zero: no map is evaluated on an
    empty basis.  The result does not depend on the order: it is the
    intersection of the kernels, and its basis is canonical.  When a map
    has no nonzero image on the basis, the space is kept as it is, so its
    coefficients keep their field type.  The mapped back vectors are
    already in canonical RREF (``Subspace.combine``), so each stage's
    result is a valid input space for the next."""
    for op in maps:
        space = _cut(h, legs, space, op)
    return space


def _cut(h: HopfData, legs: int, space: Subspace, op) -> Subspace:
    """``restrict_and_cut`` by the single map ``op``."""
    rows = map_rows(h, legs, [op], space.rows)
    if not rows:
        return space
    coeff_kernel = kernel_of_rows(rows.values(), space.dim)
    del rows
    return space.combine(coeff_kernel)


# -- the sum-of-products kernel ---------------------------------------------


def product_sum(h: HopfData, legs: int, terms) -> dict:
    """The coefficients of sum s * a * b over ``terms``, zeros dropped.

    ``terms`` holds (s, a, b) with s a sign, 1 or -1, and a, b coefficient
    dicts of ``legs``-tensors (2 or 3 legs), multiplied legwise.  Runs on
    the integer lift of the module docstring and maps each output back
    once."""
    return product_sums(h, legs, [terms])[0]


def product_sums(h: HopfData, legs: int, sums) -> list:
    """``product_sum`` of each term list in ``sums``, all on one lift (see
    ``_lifted_sums``)."""
    return _unpacked(h, *_lifted_sums(h, legs, sums))


def _unpacked(h: HopfData, ints, width, den) -> list:
    """The field elements of each lifted int dict of ``ints``, zeros
    dropped.  Equal ints map back to one shared (immutable) element, which
    keeps the rows ``map_rows`` collects small: on h2n2:3 the C2 rows took
    0.3 MB more without the sharing, and the process's peak RSS 0.5 MB
    more."""
    unpack = h.field.unpack
    seen: dict = {}
    out = []
    for x_sum in ints:
        vals = {}
        for k, x in x_sum.items():
            v = seen.get(x)
            if v is None:
                v = seen[x] = unpack(x, width, den)
            if v:
                vals[k] = v
        out.append(vals)
    return out


def vanishes_all(h: HopfData, legs: int, sums) -> bool:
    """Is the ``product_sum`` of every term list in ``sums`` zero?  Decided
    by the field's zero test on the lifted ints, with no output mapped
    back.  All of them run on one lift, so an operand dict that several sums share (the
    same object) is lifted once and, on the factorized loop, its L and R
    sums are formed once: the C1 recheck of the 99 commutant vectors of
    h2n2:3 shares Delta(z) this way."""
    ints, width, _ = _lifted_sums(h, legs, sums)
    test = _zero_test(h.field, width)
    return all(all(map(test, x.values())) for x in ints)


def _zero_test(f, width):
    """The field's exact zero test of ints lifted at ``width``, memoized per
    value: a check meets few distinct values that are nonzero but stand for
    zero (12 among the 6561 of the coproduct check on h2n2:3)."""
    memo = {0: True}
    is_zero = f.is_zero

    def test(x: int) -> bool:
        z = memo.get(x)
        if z is None:
            z = memo[x] = is_zero(x, width)
        return z

    return test


def _product_loop(h: HopfData, legs: int) -> tuple:
    """(loop, prepare): the product loop for the table and leg count, and
    the map from a lifted operand dict to the form the loop takes."""
    if legs == 2:
        if h.monomial:
            return _product2, _as_is
        return _factored_product, lambda coeffs: _factored_operand(coeffs, h.dim)
    if legs == 3:
        return _product3, _as_is
    raise HopfError(f"legwise products are defined on 2- and 3-tensors, not {legs}-tensors")


def _as_is(coeffs: dict) -> dict:
    return coeffs


def _lifted_sums(h: HopfData, legs: int, sums) -> tuple:
    """(ints, width, den): each sum of ``sums`` (a term list, see
    ``product_sum``) on one integer lift; ``ints`` yields one int dict per
    sum, in order, each int standing for its coefficient times den.

    Every operand dict is lifted over one common denominator D, over
    Q(zeta_M) packed at one width whose bound covers each sum.  An operand
    dict passed more than once (the same object) is lifted and prepared for
    the loop once, and kept only while a sum still uses it.  A sign -1 is
    folded into one operand of its product, the one used fewer times in all
    (the smaller on a tie), so a shared operand stays shared."""
    loop, prepare = _product_loop(h, legs)
    vecs, slot_of, uses, shapes = [], {}, [], []

    def slot(vec) -> int:
        i = slot_of.get(id(vec))
        if i is None:
            i = slot_of[id(vec)] = len(vecs)
            vecs.append(vec)
            uses.append(0)
        uses[i] += 1
        return i

    for terms in sums:
        shapes.append([(s, slot(a), slot(b)) for s, a, b in terms if a and b])
    if not vecs:
        return iter([{} for _ in shapes]), None, 1
    table, table_den = h.table_norm**legs, h.table_den**legs

    def bound(_, sizes):
        return max(sum(sizes[ai] * sizes[bi] * table for _, ai, bi in shape) for shape in shapes)

    den, width, packed = h.field.lift_batch(vecs, bound)
    total = list(uses)
    ready: dict = {}  # slot -> prepared operand, while a sum still uses it

    def operand(i, prepared=True):
        """Slot i's lifted dict, prepared for the loop when asked (once per
        slot); dropped from ``ready`` after its last use."""
        op = ready.get(i)
        if prepared and op is None:
            op = ready[i] = prepare(packed[i])
        uses[i] -= 1
        if not uses[i]:
            ready.pop(i, None)
        return op if prepared else packed[i]

    def each():
        for shape in shapes:
            products = []
            for s, ai, bi in shape:
                if s == 1:
                    products.append((operand(ai), operand(bi)))
                elif (total[ai], len(packed[ai])) <= (total[bi], len(packed[bi])):
                    products.append((prepare({k: -x for k, x in operand(ai, False).items()}), operand(bi)))
                else:
                    products.append((operand(ai), prepare({k: -x for k, x in operand(bi, False).items()})))
            yield _int_sum(h, loop, width, products, ())

    return each(), width, den**2 * table_den


def _int_sum(h: HopfData, loop, width, products, linear) -> dict:
    """sum a * b over the (a, b) int dicts of ``products``, run by ``loop``
    against ``h.int_terms(width)``, plus sum s * v over the (s, v) of
    ``linear``, accumulated into one int dict without zero entries."""
    terms, dim = h.int_terms(width), h.dim
    out: dict = {}
    for a, b in products:
        loop(terms, dim, a, b, out)
    for s, vec in linear:
        for k, x in vec.items():
            w = out.get(k, 0) + s * x
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def _product2(terms: list, dim: int, ca: dict, cb: dict, out: dict | None = None) -> dict:
    """Coefficients of a * b for 2-tensors, from a term table, added into
    ``out`` (a new dict by default), which is returned.

    A term None stands for the coefficient one and is not multiplied by.
    No product is zero-tested, because none can be zero: every operand
    entry and every table term is a nonzero element of a ring without zero
    divisors.  On the kernel's ints that is Z, and a lifted entry is a
    residue in [1, p) or the packed value of a nonzero polynomial (packing
    is injective at the chosen width); ``int_terms`` holds no zero either.
    On field elements it is the field.  Only a sum can vanish, and a
    cancelled entry is deleted.  (A zero term would not change an output
    anyway: ``_unpacked`` drops it, and the zero test passes it.)
    """
    split = [(kb // dim, kb % dim, b) for kb, b in cb.items()]
    if out is None:
        out = {}
    for ka, a in ca.items():
        row0, row1 = terms[ka // dim], terms[ka % dim]
        for j0, j1, b in split:
            t0 = row0[j0]
            t1 = row1[j1]
            if not t0 or not t1:
                continue
            c = a * b
            for k0, v0 in t0:
                c0 = c if v0 is None else c * v0
                base = k0 * dim
                for k1, v1 in t1:
                    w = c0 if v1 is None else c0 * v1
                    idx = base + k1
                    cur = out.get(idx)
                    if cur is None:
                        out[idx] = w
                    else:
                        w = cur + w
                        if w:
                            out[idx] = w
                        else:
                            del out[idx]
    return out


def _factored_operand(coeffs: dict, dim: int) -> tuple:
    """A 2-tensor in the form ``_factored_product`` takes: its entries
    grouped by i1 and by j0, and the caches of its L and R sums."""
    return _leg_groups(coeffs, dim, 1), _leg_groups(coeffs, dim, 0), {}, {}


def _factored_product(terms: list, dim: int, a: tuple, b: tuple, out: dict) -> dict:
    """``_product2`` summed one leg at a time, for term tables with cells of
    several terms, on operands from ``_factored_operand``; added into
    ``out``, which is returned.

    With a = sum a_(i0 i1) e_i0 (x) e_i1 and b = sum b_(j0 j1) e_j0 (x) e_j1,
    a * b is the sum over the pairs (i1, j0) that occur of L (x) R, where
    L = sum_i0 a_(i0 i1) e_i0 e_j0 and R = sum_j1 b_(j0 j1) e_i1 e_j1.  Each
    cell is expanded once per pair (i1, j0), and each pair of L and R entries
    is multiplied once, instead of expanding every pair of cells.  Cancelled
    entries of L and R are dropped, so nothing is ever multiplied by zero or
    by a None (one) table entry, and no product is zero (see ``_product2``).
    The operands' caches keep each L sum of a and each R sum of b for later
    products.
    """
    return _add_outer(dim, _factored_pairs(terms, a[0], b[1], a[2], b[3]), out)


def _leg_groups(coeffs: dict, dim: int, leg: int) -> dict:
    """The entries of a 2-tensor grouped by the index on ``leg``: for leg 1,
    {i1: [(i0, a)]}; for leg 0, {j0: [(j1, b)]}."""
    groups: dict = {}
    for k, v in coeffs.items():
        i0, i1 = divmod(k, dim)
        if leg:
            groups.setdefault(i1, []).append((i0, v))
        else:
            groups.setdefault(i0, []).append((i1, v))
    return groups


def _factored_pairs(terms: list, left: dict, right: dict, lcache: dict, rcache: dict):
    """The pairs (L, R) of ``_factored_product`` with both sums nonzero,
    from the groups ``left`` of a (by i1) and ``right`` of b (by j0).  L
    depends only on a's column i1 and j0, R only on b's row j0 and i1: each
    is memoized under (i1, j0), in ``lcache`` for a and ``rcache`` for b, so
    a caller that multiplies the same operand again passes the same cache."""
    for i1, col in left.items():
        row1 = terms[i1]
        for j0, bs in right.items():
            key = (i1, j0)
            lsum = lcache.get(key)
            if lsum is None:
                lsum = lcache[key] = _cell_sum((terms[i0][j0], a) for i0, a in col)
            if not lsum:
                continue
            rsum = rcache.get(key)
            if rsum is None:
                rsum = rcache[key] = _cell_sum((row1[j1], b) for j1, b in bs)
            if not rsum:
                continue
            yield lsum, rsum


def _add_outer(dim: int, pairs, out: dict) -> dict:
    """Add L (x) R for each (L, R) of ``pairs`` into ``out``, which is
    returned; L and R hold no zero entries, so no product is zero."""
    for lsum, rsum in pairs:
        for k0, l in lsum.items():
            base = k0 * dim
            for k1, r in rsum.items():
                w = l * r
                idx = base + k1
                cur = out.get(idx)
                if cur is None:
                    out[idx] = w
                else:
                    w = cur + w
                    if w:
                        out[idx] = w
                    else:
                        del out[idx]
    return out


def _cell_sum(pairs) -> dict:
    """The sum of c * cell over (cell, c) pairs of a term-table cell and a
    scalar, as a dict without zero entries; a zero c is skipped."""
    acc: dict = {}
    for cell, c in pairs:
        if not c:
            continue
        for k, v in cell:
            if v is None:
                w = c
            else:
                w = c * v
                if not w:
                    continue
            cur = acc.get(k)
            if cur is None:
                acc[k] = w
            else:
                w = cur + w
                if w:
                    acc[k] = w
                else:
                    del acc[k]
    return acc


def _product3(terms: list, dim: int, ca: dict, cb: dict, out: dict | None = None) -> dict:
    """Coefficients of a * b for 3-tensors; see ``_product2``."""
    split = []
    for kb, b in cb.items():
        j01, j2 = divmod(kb, dim)
        j0, j1 = divmod(j01, dim)
        split.append((j0, j1, j2, b))
    if out is None:
        out = {}
    for ka, a in ca.items():
        i01, i2 = divmod(ka, dim)
        i0, i1 = divmod(i01, dim)
        row0, row1, row2 = terms[i0], terms[i1], terms[i2]
        for j0, j1, j2, b in split:
            t0 = row0[j0]
            t1 = row1[j1]
            t2 = row2[j2]
            if not t0 or not t1 or not t2:
                continue
            c = a * b
            for k0, v0 in t0:
                c0 = c if v0 is None else c * v0
                for k1, v1 in t1:
                    c01 = c0 if v1 is None else c0 * v1
                    base = (k0 * dim + k1) * dim
                    for k2, v2 in t2:
                        w = c01 if v2 is None else c01 * v2
                        idx = base + k2
                        cur = out.get(idx)
                        if cur is None:
                            out[idx] = w
                        else:
                            w = cur + w
                            if w:
                                out[idx] = w
                            else:
                                del out[idx]
    return out


# -- coalgebra operations ------------------------------------------------


def delta(a: Tensor) -> Tensor:
    """Coproduct of an element, linearly extended from the table."""
    return a.apply_delta(0)


def counit(a: Tensor):
    return _counit_of(a.parent, a.coeffs)


def _counit_of(h: HopfData, coeffs: dict):
    acc = h.field.zero
    for i, c in coeffs.items():
        e = h.counit[i]
        if e:
            acc = acc + c * e
    return acc


def multiply(t: Tensor) -> Tensor:
    """m(t): the product of the two legs of a 2-tensor, an element of H."""
    if t.legs != 2:
        raise HopfError("multiply takes a 2-tensor")
    h = t.parent
    terms, dim = h.mult_terms, h.dim
    return Tensor._raw(h, 1, _cell_sum((terms[k // dim][k % dim], v) for k, v in t.coeffs.items()))


# -- verification ---------------------------------------------------------


@dataclass
class VerifyReport:
    name: str
    failures: list = dc_field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, law: str, witness: str, ok: bool):
        self.checks += 1
        if not ok:
            self.failures.append((law, witness))

    def __bool__(self):
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: all {self.checks} identities hold"
        lines = [f"{self.name}: {len(self.failures)} violations in {self.checks} checks"]
        for law, witness in self.failures[:20]:
            lines.append(f"  {law} fails at {witness}")
        return "\n".join(lines)


def verify_bialgebra(h: HopfData) -> VerifyReport:
    """Exhaustive check of associativity, unit, coassociativity, counit and
    the morphism properties of the coproduct and counit.

    Associativity and the coproduct's morphism property, the two checks
    with (dim H)^3 resp. (dim H)^2 products, run on the integer lift of the
    module docstring and end in the field's exact zero test."""
    rep = VerifyReport(f"bialgebra({h.name})")
    dim = h.dim
    f = h.field
    unit = h.unit()
    labels = h.labels
    basis = [h.basis_elem(i) for i in range(dim)]

    for i in range(dim):
        rep.record("unit.left", labels[i], (unit * basis[i]) == basis[i])
        rep.record("unit.right", labels[i], (basis[i] * unit) == basis[i])

    _check_associativity(h, rep)

    for i in range(dim):
        d = delta(basis[i])
        rep.record("coassociativity", labels[i], d.apply_delta(0) == d.apply_delta(1))
        rep.record("counit.left", labels[i], d.apply_counit(0) == basis[i])
        rep.record("counit.right", labels[i], d.apply_counit(1) == basis[i])

    rep.record("comult.unit", "1", delta(unit) == unit.tensor(unit))
    rep.record("counit.unit", "1", counit(unit) == f.one)
    _check_morphisms(h, rep)
    return rep


def _check_associativity(h: HopfData, rep: VerifyReport) -> None:
    """(e_i e_j) e_k = e_i (e_j e_k), for each pair (i, j) every k in one
    pass over ``h.int_terms``: the coefficient of e_n in
    sum_m T_ij^m T_mk - sum_m T_jk^m T_im, keyed (k, n), at the scale D_m^2.
    Each side sums at most dim products of two lifted table entries of l1
    norm at most V, so the width for 2 * dim * V^2 covers the difference.
    A failing triple is recorded as its own check, as ``checks`` always
    counted it, on top of dim checks per pair."""
    f, dim, labels = h.field, h.dim, h.labels
    width = f.width(2 * dim * h.table_norm**2)
    table = [[tuple((k, 1 if v is None else v) for k, v in cell) for cell in row] for row in h.int_terms(width)]
    flat = [[(k * dim + n, w) for k, cell in enumerate(row) for n, w in cell] for row in table]  # e_m e_k, all k
    is_zero = _zero_test(f, width)
    for i in range(dim):
        row_i = table[i]
        for j in range(dim):
            acc: dict = {}
            get = acc.get
            for m, v in row_i[j]:
                for key, w in flat[m]:
                    acc[key] = get(key, 0) + v * w
            for k, cell in enumerate(table[j]):
                base = k * dim
                for m, v in cell:
                    for n, w in row_i[m]:
                        key = base + n
                        acc[key] = get(key, 0) - v * w
            for k in sorted({key // dim for key, x in acc.items() if x and not is_zero(x)}):
                rep.record("associativity", f"({labels[i]},{labels[j]},{labels[k]})", False)
            rep.checks += dim


def _check_morphisms(h: HopfData, rep: VerifyReport) -> None:
    """Delta(e_i e_j) = Delta(e_i) Delta(e_j) and the same for the counit,
    for every pair (i, j).

    Every Delta(e_m) is lifted once, over one denominator D and at one width.
    A pair is checked by the kernel's zero test on
    Delta(e_i) Delta(e_j) - sum_m T_ij^m Delta(e_m) at the scale D^2 D_m^2:
    the linear terms, lifted at D * D_m, are scaled by D * D_m.  With S the
    largest sum of the l1 norms of a lifted Delta(e_m), the product is
    bounded by S^2 V^2 and the linear part by dim * V * S * D * D_m.

    On a non-monomial table the product is the factorized one, whose L sums
    depend only on Delta(e_i) and (i1, j0) and whose R sums only on
    Delta(e_j) and (i1, j0): each is formed once and kept for every later
    pair that needs it, rather than once per pair.  The ints summed per pair
    are those of ``_factored_product``."""
    f, dim, labels = h.field, h.dim, h.labels
    norm, table_den = h.table_norm, h.table_den

    def bound(den, sizes):
        size = max(sizes)
        return size * size * norm**2 + dim * norm * size * den * table_den

    den, width, deltas = f.lift_batch(h.comult, bound)
    scale = den * table_den
    int_terms = h.int_terms(width)
    loop, prepare = _product_loop(h, 2)
    operands = [prepare(d) for d in deltas]
    is_zero = _zero_test(f, width)
    eps = [_counit_of(h, {i: f.one}) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            linear = [(-scale if v is None else -v * scale, deltas[m]) for m, v in int_terms[i][j]]
            ints = _int_sum(h, loop, width, [(operands[i], operands[j])], linear)
            witness = f"({labels[i]},{labels[j]})"
            rep.record("comult.morphism", witness, all(map(is_zero, ints.values())))
            rep.record("counit.morphism", witness, _counit_of(h, h.mult[i][j]) == eps[i] * eps[j])


def verify_hopf(h: HopfData) -> VerifyReport:
    """Bialgebra axioms plus the antipode law m(S (x) Id)Delta = u eps = m(Id (x) S)Delta.

    When every identity holds, ``h.hopf_verified`` is set: ``generators_span``
    is granted only on such an instance."""
    rep = verify_bialgebra(h)
    rep.name = f"hopf({h.name})"
    if h.antipode is None:
        rep.record("antipode.present", h.name, False)
        return rep
    unit = h.unit()
    for i in range(h.dim):
        b = h.basis_elem(i)
        d = delta(b)
        target = unit.scaled(counit(b)) if h.counit[i] else h.zero_tensor(1)
        rep.record("antipode.left", h.labels[i], multiply(d.apply_antipode(0)) == target)
        rep.record("antipode.right", h.labels[i], multiply(d.apply_antipode(1)) == target)
    if rep.ok:
        h.hopf_verified = True
    return rep


# -- the generator certificate ---------------------------------------------


def generators_span(h: HopfData) -> bool:
    """Certificate that a commutation with Delta checked on the generators
    holds on all of H.

    Closes the generator words under right multiplication by generators,
    starting from 1; a product w*g that is new modulo the span of the words
    accepted so far is accepted.  The certificate holds when the accepted
    words span H and ``verify_hopf`` has passed on ``h``
    (``h.hopf_verified``).  That pass makes H, hence H (x) H, associative,
    and Delta a unital morphism: ``verify_bialgebra`` checked
    Delta(1) = 1 (x) 1 (``comult.unit``) and Delta(e_i e_j) =
    Delta(e_i) Delta(e_j) on every basis pair (``comult.morphism``), which
    gives Delta(a b) = Delta(a) Delta(b) for all a, b by bilinearity, so
    Delta(w*g) = Delta(w) Delta(g) along every word.  The arguments that use
    the certificate (C1 in ``precartier``, quasi-cocommutativity in
    ``rmatrices.verify_qtr`` and ``quantize.verify_quantized_qtr``) regroup
    products and use both identities.  An unverified instance is refused
    until ``verify_hopf`` passes on it.  The closure is cached on the
    instance; its tables are immutable.
    """
    if not h.hopf_verified:
        return False
    if h._words_span is None:
        h._words_span = _close_generator_words(h)
    return h._words_span


def _generator_elems(h: HopfData) -> list[Tensor]:
    return [h.basis_elem(i) for i in _generator_indices(h)]


def _generator_indices(h: HopfData) -> list[int]:
    """Basis indices of the generators in name order; every basis index when
    the algebra names none."""
    if h.generators:
        return [h.generators[name] for name in sorted(h.generators)]
    return list(range(h.dim))


def _close_generator_words(h: HopfData) -> bool:
    """Do the generator words span H?  Delta is not evaluated on them: the
    certificate is granted only after ``verify_hopf`` passed, and that
    already makes Delta multiplicative and unital (``generators_span``)."""
    gens = _generator_elems(h)
    span = Echelon(h.dim)
    span.add_row(h.unit().coeffs)
    frontier = [h.unit()]
    while frontier and span.rank < h.dim:
        grown = []
        for w in frontier:
            for g in gens:
                word = w * g
                residue = span.reduce(word.coeffs)
                if residue:
                    span.add_row(residue)
                    grown.append(word)
        frontier = grown
    return span.rank == h.dim


def cocommutativity_indices(h: HopfData) -> list[int]:
    """The basis indices b on which R Delta(b) = Delta^op(b) R is checked:
    the generators when ``generators_span(h)`` holds, every index otherwise.

    Why the generators suffice: Delta(1) = 1 (x) 1 and
    Delta(w*g) = Delta(w) Delta(g) along every accepted word (both follow
    from ``verify_hopf``, which the certificate requires; see
    ``generators_span``), the flip is multiplicative on H (x) H, and
    H (x) H is associative (the same ``verify_hopf``).  So if
    R Delta(w) = Delta^op(w) R and R Delta(g) = Delta^op(g) R, then
    R Delta(w*g) = R Delta(w) Delta(g) = Delta^op(w) R Delta(g)
    = Delta^op(w) Delta^op(g) R = Delta^op(w*g) R.  By induction from w = 1
    this holds for every accepted word; they span H, and both sides are
    linear in b.  The same holds over H (x) H [hbar], coefficientwise.
    """
    return _generator_indices(h) if generators_span(h) else list(range(h.dim))

