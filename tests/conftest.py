import random

import pytest

from hopflab.expressions import parse_element
from hopflab.families import build
from hopflab.hopf import HopfData, Tensor


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


def random_sparse_tensor(h, rng, legs=2, nnz=6, denom=7):
    """Deterministic sparse random tensor with small rational coefficients."""
    dim = h.dim**legs
    coeffs = {}
    for _ in range(nnz):
        idx = rng.randrange(dim)
        num = rng.randint(-9, 9)
        if num:
            from fractions import Fraction

            coeffs[idx] = h.field.from_fraction(Fraction(num, rng.randint(1, denom)))
    return Tensor(h, legs, coeffs)


def copy_tables(h, comult=None, generators=None) -> HopfData:
    """A fresh, unverified HopfData over the same tables (own caches)."""
    return HopfData(
        h.field,
        h.labels,
        h.mult,
        h.unit_index,
        h.comult if comult is None else comult,
        h.counit,
        h.antipode,
        generators=h.generators if generators is None else generators,
        name=f"copy of {h.name}",
    )


def registered_rs(h):
    """The R-matrices ``--r enumerate`` iterates for the family of h."""
    from hopflab.rmatrices import build_r, enumerate_group_rmatrices, registered_rspecs

    if h.family.kind == "h2n2":
        return enumerate_group_rmatrices(h)
    return [build_r(h, spec) for spec in registered_rspecs(h.family)]


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


def direct_images(maps, t) -> dict:
    """The maps evaluated on t, keyed like ``apply_rows``."""
    return {(mi, k): v for mi, op in enumerate(maps) for k, v in op(t).coeffs.items()}
