"""Exact sparse linear algebra over a coefficient field.

Vectors and matrix rows are dicts {index: nonzero scalar}.  Reduction is
plain Gaussian elimination with pivot = smallest column; rows are reduced
incrementally against the current echelon so very tall systems never hold
more than ~ncols pivot rows.  Reduced row echelon form is canonical, which
is what makes Subspace equality exact.
"""

from __future__ import annotations

from dataclasses import dataclass


class LinAlgError(ValueError):
    pass


class AmbientDimensionMismatch(LinAlgError):
    pass


class SparseMat:
    """Sparse matrix stored row-wise; ``rows[r]`` maps column -> scalar."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[dict] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    def apply(self, vec: dict) -> dict:
        """Matrix-vector product on sparse coordinate dicts."""
        out = {}
        for r, row in enumerate(self.rows):
            acc = None
            for c, m in row.items():
                v = vec.get(c)
                if v is not None:
                    acc = m * v if acc is None else acc + m * v
            if acc is not None and acc:
                out[r] = acc
        return out


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


class Echelon:
    """Incrementally maintained row echelon over sparse rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}  # pivot column -> row (leading coeff 1)

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row against the current pivot rows."""
        row = {k: v for k, v in row.items() if v}
        while row:
            hits = [c for c in row if c in self.pivots]
            if not hits:
                break
            c = min(hits)
            vec_axpy(row, self.pivots[c], -row[c])
        return row

    def add_row(self, row: dict) -> int | None:
        """Reduce and insert; returns the new pivot column, or None."""
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        lead = row[c]
        if lead != 1:
            inv = 1 / lead if not hasattr(lead, "inverse") else lead.inverse()
            row = {k: v * inv for k, v in row.items()}
        self.pivots[c] = row
        return c

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref_rows(self) -> list[tuple[int, dict]]:
        """Back-substituted canonical rows, sorted by pivot column."""
        cols = sorted(self.pivots)
        done: dict[int, dict] = {}
        for c in reversed(cols):
            row = dict(self.pivots[c])
            while True:
                hits = [k for k in row if k != c and k in done]
                if not hits:
                    break
                k = min(hits)
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
        row = dict(vec)
        piv = dict(zip(self.pivot_cols, self.rows))
        while row:
            hits = [c for c in row if c in piv]
            if not hits:
                break
            c = min(hits)
            vec_axpy(row, piv[c], -row[c])
        return row

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionMismatch("comparing subspaces of different ambient spaces")
        return self.pivot_cols == other.pivot_cols and list(self.rows) == list(other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionMismatch("sum of subspaces of different ambient spaces")
        return Subspace.from_vectors(list(self.rows) + list(other.rows), self.ambient_dim)

    def complement_equations(self, one=None) -> "Subspace":
        """Kernel of the basis-rows matrix: the annihilator in coordinates.
        The zero subspace knows no field: its annihilator, the whole space,
        is written with the caller's ``one``."""
        n = self.ambient_dim
        if not self.rows:
            if one is None:
                raise LinAlgError("the annihilator of the zero subspace needs the field's one")
            return Subspace(n, tuple({i: one} for i in range(n)), tuple(range(n)))
        return kernel(SparseMat(len(self.rows), n, [dict(r) for r in self.rows]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via kernel of the stacked complements.  A zero or a
        full operand decides it alone (canonical RREF makes the returned
        operand equal to what elimination would give), so the stacked rows
        always have an entry to read the field's one from."""
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionMismatch("intersecting subspaces of different ambient spaces")
        if not self.rows or other.dim == other.ambient_dim:
            return self
        if not other.rows or self.dim == self.ambient_dim:
            return other
        eq1 = self.complement_equations()
        eq2 = other.complement_equations()
        stacked = SparseMat(
            eq1.dim + eq2.dim, self.ambient_dim, [dict(r) for r in eq1.rows] + [dict(r) for r in eq2.rows]
        )
        return kernel(stacked)


def kernel(mat: SparseMat) -> Subspace:
    """Exact null space {v : mat . v = 0} as a canonical Subspace."""
    return kernel_of_rows(mat.rows, mat.ncols)


def kernel_of_rows(rows, ncols: int) -> Subspace:
    """Exact null space of the rows (an iterable of {col: scalar}).

    The basis vectors carry the field's one at their free column, read off
    a pivot row (its leading coefficient), never divided out of an entry.
    When no row has an entry nothing names the field and it is the integer
    1: callers that know the field handle that case (``restrict_and_cut``
    returns its input space, ``Subspace.complement_equations`` takes the
    field's one).  Once the rank reaches ``ncols`` the kernel is zero,
    whatever rows follow, and the rest of the iterable is not read."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
        if ech.rank == ncols:
            break
    rr = ech.rref_rows()
    one = 1
    if rr:
        c, row = rr[0]
        one = row[c]
    pivset = {c for c, _ in rr}
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = {f: one}
        for c, row in rr:
            v = row.get(f)
            if v:
                vec[c] = -v
        basis.append(vec)
    return Subspace.from_vectors(basis, ncols)


def solve(rows, ncols: int, rhs: dict) -> dict | None:
    """One solution of (rows) . x = rhs with all free coordinates zero.

    ``rows`` iterates equation rows {col: coeff}; ``rhs`` maps row index ->
    scalar.  Returns None when inconsistent.
    """
    sentinel = ncols
    ech = Echelon(ncols + 1)
    for r, row in enumerate(rows):
        aug = dict(row)
        b = rhs.get(r)
        if b is not None and b:
            aug[sentinel] = -b
        ech.add_row(aug)
    if sentinel in ech.pivots:
        return None
    sol = {}
    for c, row in ech.rref_rows():
        v = row.get(sentinel)
        if v is not None and v:
            sol[c] = -v
    return sol
