import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hopflab.expressions import parse_element
from hopflab.families import build
from hopflab.hopf import HopfData, Tensor, VerifyReport, counit, delta
from hopflab.linalg import Echelon, Subspace


@pytest.fixture(scope="session")
def en1():
    return build("en:1")


@pytest.fixture(scope="session")
def en2():
    return build("en:2")


@pytest.fixture(scope="session")
def en3():
    return build("en:3")


@pytest.fixture(scope="session")
def ac22():
    return build("ac2n:2")


@pytest.fixture(scope="session")
def h8():
    return build("h8")


@pytest.fixture(scope="session")
def h2n2_3():
    return build("h2n2:3")


@pytest.fixture(scope="session")
def radford22():
    return build("radford:2,2")


@pytest.fixture(scope="session")
def ac4dual():
    return build("ac4dual")


@pytest.fixture(scope="session")
def kc2():
    return build("group:2")


@pytest.fixture
def rng():
    return random.Random(20240811)


def pe(h, text):
    return parse_element(h, text)


def q(field, num, den=1):
    """The rational num/den (ints or Fractions) as an element of ``field``:
    the quotient of the images of its numerator and denominator in lowest
    terms, as elements mix only with elements of their own field."""
    r = Fraction(num, den)
    return field.from_int(r.numerator) / field.from_int(r.denominator)


def random_sparse_tensor(h, rng, legs=2, nnz=6, denom=7):
    """Deterministic sparse random tensor with small rational coefficients."""
    dim = h.dim**legs
    coeffs = {}
    for _ in range(nnz):
        idx = rng.randrange(dim)
        num = rng.randint(-9, 9)
        if num:
            coeffs[idx] = q(h.field, num, rng.randint(1, denom))
    return Tensor(h, legs, coeffs)


def copy_tables(h, comult=None, generators=None, mult=None) -> HopfData:
    """A fresh, unverified HopfData over the same tables (own caches)."""
    return HopfData(
        h.field,
        h.labels,
        h.mult if mult is None else mult,
        h.unit_index,
        h.comult if comult is None else comult,
        h.counit,
        h.antipode,
        generators=h.generators if generators is None else generators,
        name=f"copy of {h.name}",
    )


def registered_rs(h):
    """The R-matrices ``--r enumerate`` iterates for the family of h."""
    from hopflab.rmatrices import build_r, enumerate_rmatrices

    return [build_r(h, spec) for spec in enumerate_rmatrices(h)]


def apply_rows(rows: dict, vec: dict) -> dict:
    """The rows of ``hopf.map_rows`` applied to a coefficient vector, keyed
    like the rows: (map index, output coordinate) -> nonzero value."""
    out = {}
    for key, row in rows.items():
        acc = None
        for c, m in row.items():
            if c in vec:
                acc = m * vec[c] if acc is None else acc + m * vec[c]
        if acc is not None and acc:
            out[key] = acc
    return out


def commutator_maps(h, elems) -> list:
    """The C1 commutators t -> t Delta(e) - Delta(e) t, one ``SumMap`` per
    e, as ``precartier.commutant_of_coproducts`` cuts by them."""
    from hopflab.hopf import SumMap
    from hopflab.precartier import _commutator_terms

    return [SumMap(2, lambda t, d=delta(e): _commutator_terms(t, d)) for e in elems]


def commutator(t, b):
    """t Delta(b) - Delta(b) t by ``Tensor`` products: C1 evaluated at b."""
    d = delta(b)
    return t * d - d * t


def cqtr3_rmul_map(r):
    """R23 (Delta (x) Id)(t) - R23 t23 - t13 R23, the R-multiplied C3: the
    mirror of ``precartier.cqtr_rmul_map``.  Only the tests' reference
    routes cut by it: for a quasitriangular R, C3 follows from C1, C2 and
    HC (the ``precartier`` docstring), so the solver does not."""
    from hopflab.hopf import SumMap

    r23 = r.leg(23).coeffs
    return SumMap(3, lambda t: [(1, r23, t.apply_delta(0).coeffs), (-1, r23, t.leg(23).coeffs), (-1, t.leg(13).coeffs, r23)])


def cqtr3_unit_slice_map(r):
    """The rows of ``cqtr3_rmul_map(r)`` whose leg 0 is the unit index, as a
    2-leg map: R (Delta (x) Id)(t)|leg0=u - R t - (1 (x) t|leg0=u) R."""
    from hopflab.hopf import SumMap

    rc, one = r.coeffs, r.parent.unit()
    return SumMap(2, lambda t: [(1, rc, t.apply_delta(0).unit_slice(0).coeffs), (-1, rc, t.coeffs), (-1, one.tensor(t.unit_slice(0)).coeffs, rc)])


def constraint_oracles(h, r=None) -> list:
    """(name, rows, vanishes) for each map the solver cuts by: its rows from
    ``hopf.map_rows``, and whether its direct evaluator vanishes on a
    2-tensor.  C1 comes over every basis element and over the generators;
    C2 and C3 come in the R-multiplied form (C3 from this module) and are
    evaluated in the R^-1 form, the Cartier map by ``Tensor`` products."""
    from hopflab.cohomology import b_apply
    from hopflab.hopf import _generator_elems, full_space, map_rows
    from hopflab.precartier import cartier_map, cqtr_rmul_map, eval_cqtr2, eval_cqtr3

    basis = [h.basis_elem(b) for b in range(h.dim)]
    gens = _generator_elems(h)
    oracles = [
        ("cqtr1", commutator_maps(h, basis), lambda t: all(not commutator(t, b) for b in basis)),
        ("cqtr1 generators", commutator_maps(h, gens), lambda t: all(not commutator(t, g) for g in gens)),
        ("counit_left", [lambda t: t.apply_counit(1)], lambda t: not t.apply_counit(1)),
        ("counit_right", [lambda t: t.apply_counit(0)], lambda t: not t.apply_counit(0)),
        ("cocycle", [lambda t: b_apply(h, 2, t)], lambda t: not b_apply(h, 2, t)),
    ]
    if r is not None:
        oracles += [
            ("cqtr2", [cqtr_rmul_map(r)], lambda t: not eval_cqtr2(r, t)),
            ("cqtr3", [cqtr3_rmul_map(r)], lambda t: not eval_cqtr3(r, t)),
            ("cartier", [cartier_map(r)], lambda t: not (r * t - t.permute((1, 0)) * r)),
        ]
    columns = full_space(h, 2).rows
    return [(name, map_rows(h, 2, maps, columns), vanishes) for name, maps, vanishes in oracles]


def solve_inverse(h, r) -> Tensor:
    """The oracle of ``rmatrices.r_inverse``: the two-sided inverse of a
    2-tensor by the exact linear solve of R x = 1 (x) 1 over all of H (x) H,
    with no antipode; raises ``NotInvertible`` when there is none."""
    from hopflab.hopf import full_space, map_rows
    from hopflab.linalg import solve
    from hopflab.rmatrices import NotInvertible

    rows = map_rows(h, 2, [lambda t: r * t], full_space(h, 2).rows)
    unit_key = (0, h.unit_index * h.dim + h.unit_index)
    if unit_key not in rows:
        raise NotInvertible("unit coordinate unreachable")
    sol = solve(rows.values(), h.dim * h.dim, {list(rows).index(unit_key): h.field.one})
    if sol is None:
        raise NotInvertible("no right inverse")
    x = Tensor(h, 2, sol)
    one2 = h.unit_tensor(2)
    if r * x != one2 or x * r != one2:
        raise NotInvertible("solve produced a one-sided candidate only")
    return x


def exact_kernel(rows, ncols: int) -> Subspace:
    """The oracle of ``linalg.kernel_of_rows``: the null space by elimination
    of every row over the field itself, with pivot = smallest column, no
    residue map and no prime, and the kernel vectors eliminated again into
    canonical RREF; stops reading at rank ``ncols``."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
        if ech.rank == ncols:
            break
    rr = ech.rref_rows()
    if not rr:  # no entry names the field: the integer 1, as kernel_of_rows gives
        return Subspace(ncols, tuple({f: 1} for f in range(ncols)), tuple(range(ncols)))
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


def direct_images(maps, t) -> dict:
    """The maps evaluated on t, keyed like ``apply_rows``."""
    return {(mi, k): v for mi, op in enumerate(maps) for k, v in op(t).coeffs.items()}


def oracle_verify_bialgebra(h) -> VerifyReport:
    """The bialgebra check on element arithmetic: every product a ``Tensor``
    product (of elements, 1-leg tensors, or of 2-tensors), every comparison
    of field elements.  Same laws,
    witnesses, failure order and ``checks`` as ``hopf.verify_bialgebra``."""
    rep = VerifyReport(f"bialgebra({h.name})")
    dim = h.dim
    f = h.field
    unit = h.unit()
    labels = h.labels
    basis = [h.basis_elem(i) for i in range(dim)]

    for i in range(dim):
        rep.record("unit.left", labels[i], (unit * basis[i]) == basis[i])
        rep.record("unit.right", labels[i], (basis[i] * unit) == basis[i])

    prod = [[basis[i] * basis[j] for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            pij = prod[i][j]
            for k in range(dim):
                lhs = pij * basis[k]
                rhs = basis[i] * prod[j][k]
                if lhs != rhs:
                    rep.record("associativity", f"({labels[i]},{labels[j]},{labels[k]})", False)
            rep.checks += dim

    for i in range(dim):
        d = delta(basis[i])
        rep.record("coassociativity", labels[i], d.apply_delta(0) == d.apply_delta(1))
        rep.record("counit.left", labels[i], d.apply_counit(0) == basis[i])
        rep.record("counit.right", labels[i], d.apply_counit(1) == basis[i])

    rep.record("comult.unit", "1", delta(unit) == unit.tensor(unit))
    rep.record("counit.unit", "1", counit(unit) == f.one)
    deltas = [delta(basis[i]) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            rep.record("comult.morphism", f"({labels[i]},{labels[j]})", delta(prod[i][j]) == deltas[i] * deltas[j])
            rep.record(
                "counit.morphism",
                f"({labels[i]},{labels[j]})",
                counit(prod[i][j]) == counit(basis[i]) * counit(basis[j]),
            )
    return rep


def verify_antipode_antihom(h) -> VerifyReport:
    """S(ab) = S(b)S(a) on all basis pairs: a consequence of the Hopf axioms
    that ``verify_hopf`` does not check, so an oracle for its tables."""
    rep = VerifyReport(f"antipode-antihom({h.name})")
    if h.antipode is None:
        rep.record("antipode.present", h.name, False)
        return rep
    for i in range(h.dim):
        for j in range(h.dim):
            a, b = h.basis_elem(i), h.basis_elem(j)
            rep.record(
                "antipode.antihom",
                f"({h.labels[i]},{h.labels[j]})",
                (a * b).apply_antipode(0) == b.apply_antipode(0) * a.apply_antipode(0),
            )
    return rep


def batch_modes() -> list[tuple[str, str]]:
    """``FAMILIES`` of ``scripts/run_classifications.py``: (family, mode) pairs."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_classifications.py"
    spec = importlib.util.spec_from_file_location("run_classifications", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES
