"""Exact sparse linear algebra over a coefficient field.

Vectors and matrix rows are dicts {index: nonzero scalar}, every entry an
element of one field of ``scalars`` (Q being Q(zeta_1)): the residue maps
of ``kernel_of_rows`` take no other entry, and raise ``MixedFieldSpec`` on
a plain int, a Fraction or an element of another field; ``Echelon`` raises
it on a pivot entry that is no field element.  ``Echelon`` is
plain Gaussian elimination, with pivot = smallest column by default; rows
are reduced incrementally against the current echelon so very tall systems
never hold more than ~ncols pivot rows.  Reduced row echelon form is
canonical, which is what makes Subspace equality exact.

``kernel_of_rows`` is the one elimination under every kernel, cut,
intersection and solve of the package (``Echelon`` spans, and eliminates
the rows it picks).  ``Subspace.intersect`` cuts the smaller space by its
residues modulo the larger; ``solve`` reads A x = b off the kernel of
[-b | A], so its x vanishes at the pivots of ker A.  It runs a modular
pass first and eliminates exactly only the rows that pass picks (the rank
bound of FFPACK-style elimination; Dumas, Giorgi and Pernet, ISSAC 2004):

- The pass maps every entry to F_p by a ring morphism phi chosen from the
  entries' own field (``scalars.residue_map``) and eliminates on Python
  ints, with pivot = largest column, recording the rows that raised the
  rank.  Every minor of phi(A) is the image of the same minor of A, so
  rank A >= rank phi(A).  When the F_p rank reaches ncols the kernel is
  therefore zero, and no further row is read.
- Otherwise the r picked rows S are eliminated exactly.  Their rank is r:
  at least the F_p rank and at most |S|.  Every other row is then checked
  exactly, in one pass against RREF(S) that touches only its free
  columns: a row a lies in span(S) exactly when
  a - sum_c a[c] RREF(S)_c vanishes, and only free columns can be nonzero
  there.  When every row lies in span(S), ker A = ker S.  Over F_p, phi
  is the identity, so this check never fails there; the residue RREF
  would already be the result, but reading it off saved only 5 ms of a
  0.1 s ``quantize en:3 --field prime:97`` process (2-vCPU machine,
  Python 3.11), so F_p takes this route too.
- When a row fails that check (the prime was unlucky: rank A > rank phi(A))
  or phi is undefined on an entry (p divides a denominator), the pass runs
  again, on the rows read and then the rest, with the next prime of the
  field (``residue_map(x, k + 1)``).  This ends, as each pass has a new
  prime: only finitely many primes divide a denominator of an entry or
  the norm of one nonzero r x r minor of A, r = rank A.  At any other
  prime the F_p rank is r, so the r picked rows span the rows of A
  exactly, and every row passes.  The result is the canonical RREF
  whichever prime gave it.  Over F_p, phi is the identity, so the check
  never fails; there is no next prime, and an entry outside F_p raises.
- With pivot = largest column, RREF row c has entries only at c (the one)
  and at free columns f < c.  So the kernel vector
  v_f = e_f - sum_c R_c[f] e_c has its smallest column at f and is zero at
  every other free column: the v_f are already the canonical RREF basis of
  the kernel, and no elimination of the kernel itself is needed.

``ROUTES`` counts how each kernel was found, solves and intersections
included: ``certified_zero`` (F_p rank ncols) and ``picked_rows`` (exact
elimination of S and the exact check); ``retries`` counts the passes run
again on the next prime.
It is one tally per process, because ``kernel_of_rows`` keeps its
(rows, ncols) signature: scripts print it, and tests read its differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import CycElt, MixedFieldSpec, NotInImage, PrimeElt, residue_map

ROUTES = {"certified_zero": 0, "picked_rows": 0, "retries": 0}


class LinAlgError(ValueError):
    pass


class AmbientDimensionMismatch(LinAlgError):
    pass


def vec_axpy(dst: dict, src: dict, c) -> None:
    """dst += c * src, in place, dropping cancelled entries."""
    for k, v in src.items():
        cur = dst.get(k)
        if cur is None:
            w = c * v
            if w:
                dst[k] = w
        else:
            w = cur + c * v
            if w:
                dst[k] = w
            else:
                del dst[k]


def _reduce(row: dict, pivots: dict, lead) -> dict:
    """Reduce ``row`` in place against ``pivots`` ({pivot column: row with
    coefficient 1 there}), clearing the hit that ``lead`` picks until no
    hit is left.  A pivot row has entries only on the far side of its
    pivot, so reducing the nearest hit first never brings back a column
    already cleared."""
    while row:
        hits = [c for c in row if c in pivots]
        if not hits:
            break
        c = lead(hits)
        vec_axpy(row, pivots[c], -row[c])
    return row


class Echelon:
    """Incrementally maintained row echelon over sparse rows, with pivot =
    smallest column, or largest column when ``last`` is set."""

    def __init__(self, ncols: int, last: bool = False):
        self.ncols = ncols
        self.lead = max if last else min
        self.pivots: dict[int, dict] = {}  # pivot column -> row (leading coeff 1)

    def reduce(self, row: dict) -> dict:
        """Fully reduce a copy of a row, without its zero entries, against
        the current pivot rows."""
        return _reduce({k: v for k, v in row.items() if v}, self.pivots, self.lead)

    def add_row(self, row: dict) -> int | None:
        """Reduce and insert; returns the new pivot column, or None."""
        row = self.reduce(row)
        if not row:
            return None
        c = self.lead(row)
        lead = row[c]
        if not isinstance(lead, (CycElt, PrimeElt)):
            raise MixedFieldSpec(f"no field element: {lead!r}")
        if lead != lead.field.one:
            inv = lead.inverse()
            row = {k: v * inv for k, v in row.items()}
        self.pivots[c] = row
        return c

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref_rows(self) -> list[tuple[int, dict]]:
        """Back-substituted canonical rows, sorted by pivot column; the
        pivot rows are reduced in place (an RREF is still an echelon).
        Rows are finished from the far side in: a finished row has no entry
        at another pivot column, so one pass over the hits clears a row."""
        cols = sorted(self.pivots)
        done: dict[int, dict] = {}
        for c in reversed(cols) if self.lead is min else cols:
            row = self.pivots[c]
            for k in [k for k in row if k != c and k in done]:
                vec_axpy(row, done[k], -row[k])
            done[c] = row
        return [(c, done[c]) for c in cols]


@dataclass(frozen=True)
class Subspace:
    """Reduced exact basis of a linear subspace, rows in canonical RREF."""

    ambient_dim: int
    rows: tuple  # tuple of dicts, pivot columns strictly increasing
    pivot_cols: tuple

    @staticmethod
    def from_vectors(vectors, ambient_dim: int) -> "Subspace":
        ech = Echelon(ambient_dim)
        for v in vectors:
            ech.add_row(v)
        rr = ech.rref_rows()
        return Subspace(ambient_dim, tuple(dict(r) for _, r in rr), tuple(c for c, _ in rr))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[dict]:
        return [dict(r) for r in self.rows]

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo this subspace."""
        return _reduce(dict(vec), dict(zip(self.pivot_cols, self.rows)), min)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionMismatch("comparing subspaces of different ambient spaces")
        return self.pivot_cols == other.pivot_cols and list(self.rows) == list(other.rows)

    def combine(self, coeffs: "Subspace") -> "Subspace":
        """The vectors sum_i c_i row_i, one for each row c of ``coeffs``: a
        canonical kernel in the coefficients of this basis, as from
        ``kernel_of_rows(rows, self.dim)``.

        The vectors are already the canonical RREF basis of their span.
        Row i of this basis has its pivot p_i, with coefficient 1, and
        entries only in columns >= p_i and in no other pivot column, so
        v = sum_i c_i row_i has the coordinate c_i at p_i.  A row c (in
        RREF) with pivot j thus gives a v with leading column p_j,
        coefficient 1, and zeros at p_k for every other pivot k of
        ``coeffs``: the RREF conditions, with pivots increasing as j does."""
        vecs = []
        for crow in coeffs.rows:
            acc: dict = {}
            for i, c in crow.items():
                vec_axpy(acc, self.rows[i], c)
            vecs.append(acc)
        return Subspace(self.ambient_dim, tuple(vecs), tuple(self.pivot_cols[j] for j in coeffs.pivot_cols))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection as a cut of the smaller space: sum_i c_i a_i lies in
        the larger exactly when sum_i c_i r_i = 0, r_i the residue of row
        a_i modulo it (``reduce`` is linear, with the larger as kernel).
        A smaller space with no residue (zero, or inside the larger, as
        inside a full one) is the intersection, and canonical RREF makes
        it equal to what elimination would give."""
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionMismatch("intersecting subspaces of different ambient spaces")
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        eqs: dict = {}  # ambient coordinate -> {basis row i of small: r_i there}
        for i, row in enumerate(small.rows):
            for k, v in large.reduce(row).items():
                eqs.setdefault(k, {})[i] = v
        if not eqs:
            return small
        return small.combine(kernel_of_rows(eqs.values(), small.dim))


def kernel_of_rows(rows, ncols: int) -> Subspace:
    """Exact null space of the rows (an iterable of {col: scalar}), by the
    modular pass, the picked rows and the exact check of the module
    docstring, the pass run again on the next prime while the prime is
    unlucky.

    The basis vectors carry the field's one at their free column, read off
    a pivot row (its leading coefficient), never divided out of an entry.
    When no row has an entry nothing names the field and it is the integer
    1: callers that know the field handle that case (``restrict_and_cut``
    and ``Subspace.intersect`` return an input space instead).  Once the
    F_p rank reaches ``ncols`` the kernel is zero, whatever rows follow,
    and the rest of the iterable is not read."""
    rows = iter(rows)
    seen: list[dict] = []  # every row read, in order: a retry reads these first
    attempt = 0  # the index of the residue map, one prime per pass
    while True:
        try:
            picked = _modular_pass(rows, seen, ncols, attempt)
        except NotInImage:
            pass
        else:
            if len(picked) == ncols:
                ROUTES["certified_zero"] += 1
                return Subspace(ncols, (), ())
            ker = _picked_kernel(seen, picked, ncols)
            if ker is not None:
                ROUTES["picked_rows"] += 1
                return ker
        ROUTES["retries"] += 1
        attempt += 1


def _picked_kernel(seen: list, picked: list, ncols: int) -> Subspace | None:
    """The kernel of the picked rows of ``seen``, from their exact RREF with
    pivot = largest column (as {pivot c: {free column f: -R_c[f]}}, and the
    field's one read off a pivot row, or the integer 1 when nothing was
    picked); None when another row of ``seen`` fails the exact check.  The
    rank of the picked rows is their number, or phi was no morphism."""
    ech = Echelon(ncols, last=True)
    for i in picked:
        ech.add_row(seen[i])
    if ech.rank != len(picked):
        raise LinAlgError("the residue map is not a ring morphism: picked rows lost rank")
    free, one = {}, 1
    for c, row in ech.rref_rows():
        one = row.pop(c)
        free[c] = {k: -v for k, v in row.items()}
    is_picked = set(picked)
    for i, row in enumerate(seen):
        if i in is_picked:
            continue
        rest = {k: v for k, v in row.items() if v and k not in free}
        for c, v in row.items():
            if v and c in free:
                vec_axpy(rest, free[c], v)
        if rest:
            return None
    return _max_pivot_kernel(free, ncols, one)


def _modular_pass(rows, seen: list, ncols: int, attempt: int) -> list:
    """Eliminate in F_p the images of the rows of ``seen``, then of the
    rest of ``rows``, each appended to ``seen`` as it is read.

    Returns the indices into ``seen`` of the rows that raised the rank, in
    an elimination with pivot = largest column.  Stops reading at rank
    ``ncols``.  The map is the residue map number ``attempt`` of the field
    of the first nonzero entry; raises ``NotInImage`` where it is undefined.
    Residues are memoized per entry object, for this pass and its prime:
    every entry stays referenced from ``seen``, so an id is never reused."""
    picked: list[int] = []
    piv: dict = {}  # pivot column -> {free column: residue}, fully reduced
    p = phi = None
    memo: dict = {}
    for i, row in enumerate(_replay(seen, rows)):
        res: dict = {}
        for k, v in row.items():
            x = memo.get(id(v))
            if x is None:
                if not v:
                    continue
                if phi is None:
                    p, phi = residue_map(v, attempt)
                x = memo[id(v)] = phi(v)
            if x:
                res[k] = x
        if not res:
            continue
        for c in [c for c in res if c in piv]:
            a = res.pop(c)
            for k, w in piv[c].items():
                res[k] = res.get(k, 0) - a * w
        res = {k: x for k, x in ((k, x % p) for k, x in res.items()) if x}
        if not res:
            continue
        q = max(res)
        inv = pow(res.pop(q), -1, p)
        new = {k: x * inv % p for k, x in res.items()}
        for other in piv.values():
            a = other.pop(q, None)
            if a:
                for k, w in new.items():
                    x = (other.get(k, 0) - a * w) % p
                    if x:
                        other[k] = x
                    else:
                        other.pop(k, None)
        piv[q] = new
        picked.append(i)
        if len(piv) == ncols:
            break
    return picked


def _replay(seen: list, rows):
    """The rows of ``seen``, then those of ``rows``, each appended to
    ``seen`` as it is read."""
    yield from seen
    for row in rows:
        seen.append(row)
        yield row


def _max_pivot_kernel(neg_rref: dict, ncols: int, one) -> Subspace:
    """The canonical kernel basis from an RREF with pivot = largest column,
    given as {pivot c: {free column f: -R_c[f]}}: per free column f, the
    vector e_f - sum_c R_c[f] e_c, keys in increasing order."""
    vecs = {f: {f: one} for f in range(ncols) if f not in neg_rref}
    for c in sorted(neg_rref):
        for f, v in neg_rref[c].items():
            vecs[f][c] = v
    return Subspace(ncols, tuple(vecs.values()), tuple(vecs))


def solve(rows, ncols: int, rhs: dict) -> dict | None:
    """One solution of (rows) . x = rhs, or None when there is none.

    ``rows`` iterates equation rows {col: coeff}; ``rhs`` maps row index ->
    scalar.  The kernel of [-b | A], with b in column 0, holds (1, x)
    exactly when A x = b; its canonical row with pivot 0 is that vector
    for the one x that vanishes at the pivots of ker A.  Column 0 is a
    pivot of that kernel exactly when the system is consistent.
    """
    aug = []
    for r, row in enumerate(rows):
        shifted = {c + 1: v for c, v in row.items()}
        b = rhs.get(r)
        if b is not None and b:
            shifted[0] = -b
        aug.append(shifted)
    ker = kernel_of_rows(aug, ncols + 1)
    if ker.pivot_cols[:1] != (0,):
        return None
    return {c - 1: v for c, v in ker.rows[0].items() if c}
