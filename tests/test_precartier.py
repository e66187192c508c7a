import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    apply_rows,
    batch_modes,
    commutator_maps,
    constraint_oracles,
    copy_tables,
    cqtr3_rmul_map,
    cqtr3_unit_slice_map,
    pe,
    random_sparse_tensor,
)
import hopflab.cohomology as cohomology
import hopflab.precartier as pc
from hopflab.cohomology import b2_unit_slice, b_apply, cocycles
from hopflab.expressions import format_tensor
from hopflab.families import build
from hopflab.hopf import Tensor, _close_generator_words, full_space, generators_span, map_rows, multiply, restrict_and_cut, verify_hopf
from hopflab.linalg import Subspace
from hopflab.precartier import (
    PreCartierError,
    cartier_coboundary_check,
    cartier_subspace,
    analysis,
    classify,
    cqtr_rmul_map,
    cqtr_unit_slice_map,
    solve_infinitesimal,
    solve_rfree,
)
from hopflab.rmatrices import build_r, enumerate_rmatrices, verify_qtr


def test_cqtr1_block_zero_for_group_algebra(kc2):
    """No C1 row survives on a commutative, cocommutative H."""
    assert not map_rows(kc2, 2, commutator_maps(kc2, [kc2.basis_elem(b) for b in range(kc2.dim)]), full_space(kc2, 2).rows)


def test_block_matrix_matches_direct_eval(en2, rng):
    """The rows of every map the solver cuts by annihilate a tensor exactly
    when the direct evaluator vanishes on it."""
    oracles = constraint_oracles(en2, build_r(en2, "en-a:[[1,2],[3,5]]"))
    for _ in range(12):
        t = random_sparse_tensor(en2, rng)
        for name, rows, vanishes in oracles:
            assert (not apply_rows(rows, t.coeffs)) == vanishes(t), name


def test_en2_solution_space(en2):
    r = build_r(en2, "en-a:[[1,2],[3,5]]")
    space = solve_infinitesimal(en2, r)
    assert space.dim == 4
    for text in ("g^1*x{1} (x) x{1}", "g^1*x{1} (x) x{2}", "g^1*x{2} (x) x{1}", "g^1*x{2} (x) x{2}"):
        assert space.contains(dict(pe(en2, text).coeffs))


def test_en2_solution_independent_of_A(en2):
    spaces = [
        solve_infinitesimal(en2, build_r(en2, f"en-a:{A}"))
        for A in ("[[0,0],[0,0]]", "[[1,0],[0,1]]", "[[1,2],[3,5]]")
    ]
    assert spaces[0] == spaces[1] == spaces[2]


def test_ac22_solution_space(ac22):
    for rtext in ("ac22:q=0,a=1", "ac22:q=1,a=2", "ac22:q=0,a=0"):
        space = solve_infinitesimal(ac22, build_r(ac22, rtext))
        assert space.dim == 1
        assert space.contains(dict(pe(ac22, "x (x) x*g").coeffs))


def test_h8_trivial(h8):
    space = solve_infinitesimal(h8, build_r(h8, "h8pm:+1,+1"))
    assert space.dim == 0
    space = solve_infinitesimal(h8, build_r(h8, "h8omega:z8"))
    assert space.dim == 0


def test_rfree_bounds():
    for fam in ("radford:2,2", "radford:2,3", "radford:3,2"):
        assert solve_rfree(build(fam)).dim == 0


def test_group_algebra_trivial_solutions():
    """Axiom (4) is vacuous on a commutative group algebra, so the R-free
    bound is (dim-1)^2; the full system over R = 1 (x) 1 forces zero."""
    for fam in ("group:2", "group:2,2,2"):
        h = build(fam)
        assert solve_rfree(h).dim == (h.dim - 1) ** 2
        space = solve_infinitesimal(h, h.unit_tensor(2))
        assert space.dim == 0


def test_rfree_contains_solutions(en2):
    rfree = solve_rfree(en2)
    assert rfree.dim >= 4
    space = solve_infinitesimal(en2, build_r(en2, "en-a:[[1,0],[0,1]]"))
    for v in space.basis():
        assert rfree.contains(v)


def test_solutions_are_cocycles(en2, ac22):
    z2 = cocycles(en2, 2)
    space = solve_infinitesimal(en2, build_r(en2, "en-a:[[1,2],[3,5]]"))
    for v in space.basis():
        assert z2.contains(v)
    z2 = cocycles(ac22, 2)
    space = solve_infinitesimal(ac22, build_r(ac22, "ac22:q=0,a=1"))
    for v in space.basis():
        assert z2.contains(v)


def test_projection_kills_solutions(en2):
    """Both legs of every basis tensor of a solution are words with an x
    letter, so the projection onto the group algebra kills the solutions."""
    space = solve_infinitesimal(en2, build_r(en2, "en-a:[[1,0],[0,1]]"))
    assert space.dim == 4
    for v in space.basis():
        for k in v:
            left, right = divmod(k, en2.dim)
            assert "x" in en2.labels[left] and "x" in en2.labels[right]


def test_cartier_subspaces(en1, en2, en3, ac22):
    r1 = build_r(en1, "en-a:[[1]]")
    s1 = solve_infinitesimal(en1, r1)
    assert s1.dim == 1
    assert cartier_subspace(en1, r1, s1).dim == 0
    r2 = build_r(en2, "en-a:[[1,2],[3,5]]")
    s2 = solve_infinitesimal(en2, r2)
    c2 = cartier_subspace(en2, r2, s2)
    assert c2.dim == 1
    assert c2.contains(dict(pe(en2, "(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{1})").coeffs))
    r3 = build_r(en3, "en-a:[[0,0,0],[0,0,0],[0,0,0]]")
    s3 = solve_infinitesimal(en3, r3)
    assert s3.dim == 9
    assert cartier_subspace(en3, r3, s3).dim == 3
    ra = build_r(ac22, "ac22:q=0,a=1")
    sa = solve_infinitesimal(ac22, ra)
    assert cartier_subspace(ac22, ra, sa).dim == 0


def test_cartier_antisymmetric_members(en2):
    r = build_r(en2, "en-a:[[1,0],[0,1]]")
    s = solve_infinitesimal(en2, r)
    cart = cartier_subspace(en2, r, s)
    sym = pe(en2, "(g^1*x{1} (x) x{2}) + (g^1*x{2} (x) x{1})")
    anti = pe(en2, "(g^1*x{1} (x) x{2}) - (g^1*x{2} (x) x{1})")
    assert cart.contains(dict(anti.coeffs))
    assert not cart.contains(dict(sym.coeffs))


def test_cartier_coboundary_equivalence(en1, en2, en3):
    for h, rtext in ((en1, "en-a:[[2]]"), (en2, "en-a:[[1,2],[3,5]]"), (en3, "en-a:[[1,0,0],[0,1,0],[0,0,1]]")):
        r = build_r(h, rtext)
        space = solve_infinitesimal(h, r)
        assert cartier_coboundary_check(h, space, cartier_subspace(h, r, space))


def test_counits_on_solutions(en2):
    space = solve_infinitesimal(en2, build_r(en2, "en-a:[[0,0],[0,0]]"))
    for v in space.basis():
        t = Tensor(en2, 2, v)
        assert not t.apply_counit(1) and not t.apply_counit(0)


def test_casimir(en2):
    """m(S (x) Id)(chi), by the multiplication map and the antipode on slot 0."""
    def casimir(chi):
        return multiply(chi.apply_antipode(0))

    assert casimir(en2.zero_tensor(2)) == en2.zero_tensor(1)
    assert casimir(pe(en2, "g^1*x{1} (x) x{1}")) == en2.zero_tensor(1)  # x1^2 = 0
    assert casimir(pe(en2, "g^1*x{1} (x) x{2}")) == pe(en2, "x{1,2}")
    # general form: sum gamma_pq x_p x_q with the same coefficients
    chi = pe(en2, "3*(g^1*x{1} (x) x{2}) + 7*(g^1*x{2} (x) x{1})")
    assert casimir(chi) == pe(en2, "3*x{1,2} - 7*x{1,2}")


def test_classify_en1():
    rep = classify("en:1", "en-a:[[1]]")
    assert rep.dims["precartier"] == 1
    assert rep.dims["cartier"] == 0
    assert rep.dims["h2"] == 1
    assert rep.flags["matches_paper_theorem"] is True
    assert rep.basis == ["(g^1*x{1} (x) x{1})"]


def test_classify_ac4dual():
    rep = classify("ac4dual", "ac4dual")
    assert rep.dims["precartier"] == 0
    assert rep.flags["matches_paper_theorem"] is True


def test_classify_radford_rfree():
    rep = classify("radford:3,2")
    assert rep.dims["rfree"] == 0
    assert rep.dims["precartier"] == 0
    assert rep.flags["matches_paper_theorem"] is True


def test_classify_ac2n_partial():
    rep = classify("ac2n:3", "ac22:q=1,a=1")
    assert rep.flags["paper_partial"] is True
    assert rep.flags["partial_member_present"] is True
    assert "precartier" in rep.dims  # reported, not asserted against a theorem


def test_classify_json_deterministic():
    a = json.dumps(classify("en:1", "en-a:[[0]]").to_dict(), indent=2)
    b = json.dumps(classify("en:1", "en-a:[[0]]").to_dict(), indent=2)
    assert a == b
    parsed = json.loads(a)
    assert list(parsed["dims"].keys()) == ["precartier", "cartier", "z1", "z2", "b2", "h2", "rfree"]


def test_classify_enumerated_ac22():
    reports = [classify("ac2n:2", spec) for spec in enumerate_rmatrices(build("ac2n:2"))]
    assert len(reports) == 4
    assert all(r.dims["precartier"] == 1 for r in reports)


def test_classify_enumerated_verifies_each_survivor_once(monkeypatch):
    import hopflab.precartier as pc
    import hopflab.rmatrices as rm

    calls = []
    verify_qtr = rm.verify_qtr

    def counting(h, r):
        calls.append(r)
        return verify_qtr(h, r)

    for module in (pc, rm):
        monkeypatch.setattr(module, "verify_qtr", counting)
    reports = [classify("h2n2:2", spec) for spec in enumerate_rmatrices(build("h2n2:2"))]
    assert len(reports) == 4
    assert len(calls) == 4
    monkeypatch.undo()
    assert [rep.to_dict() for rep in reports] == [classify("h2n2:2", rep.r).to_dict() for rep in reports]


def test_classify_refuses_an_r_that_fails_the_axioms():
    """classify builds R from its spec and verifies it; 1 (x) 1 is no R on
    the non-cocommutative E(2)."""
    with pytest.raises(PreCartierError, match="R fails the axioms"):
        classify("en:2", "explicit:1 (x) 1")


@pytest.mark.parametrize(
    "family,rspec",
    [("en:3", "en-a:[[1,0,0],[0,1,0],[0,0,1]]"), ("ac2n:4", "ac22:q=1,a=1"), ("h8", "h8pm:+1,-1"),
     ("h2n2:3", "bichar:[[0,0],[1,0]]")],
)
def test_classify_computes_each_r_independent_artifact_once(monkeypatch, family, rspec):
    """B^2 is read by the Cartier check and by the cohomology block, and the
    commutant by the R-free and the R-dependent solve: one process computes
    each of them, Z^1 and Z^2 once (the memo ``precartier.analysis``)."""
    import hopflab.cohomology as cohomology
    import hopflab.precartier as pc

    h = build(family)
    monkeypatch.setattr(h, "_analysis_cache", {})  # a cold memo
    calls = []
    for name in ("cocycles", "coboundaries"):
        monkeypatch.setattr(cohomology, name, lambda h, n, fn=getattr(cohomology, name), name=name: calls.append((name, n)) or fn(h, n))
    commutant = pc.commutant_of_coproducts
    monkeypatch.setattr(pc, "commutant_of_coproducts", lambda h, elems: calls.append(("commutant", 0)) or commutant(h, elems))
    classify(family, rspec)
    classify(family, None)
    assert sorted(calls) == [("coboundaries", 2), ("cocycles", 1), ("cocycles", 2), ("commutant", 0)]


def _batch_families() -> list[str]:
    return [family for family, _ in batch_modes()]


def test_batch_report_bytes_without_h2n2_3():
    """The batch bundle of ``scripts/run_classifications.py`` minus its
    slowest family, encoded as the script encodes it: every kernel, cut and
    solve of the classification runs here, and none may change a byte."""
    bundle = []
    for family, mode in batch_modes():
        if family == "h2n2:3":
            continue
        specs = [None] if mode == "rfree" else enumerate_rmatrices(build(family))
        bundle.extend(classify(family, spec).to_dict() for spec in specs)
    assert len(bundle) == 34
    data = (json.dumps(bundle, indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == "d78a1821fc8cd7ecb785905104b0f22e946171ad10aabcdaf11a972e6e96b14c"


def test_batch_script_keeps_its_bundle_and_never_retries(tmp_path):
    """``scripts/run_classifications.py`` in a cold process: every family,
    h2n2:3 included, gives the pinned bundle, and no exact kernel needs a
    second prime, so a silent loss of the first pass fails here."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_classifications.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path / "bundle.json")], capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "bundle sha256 f5992463ea24ff8a31aaec1396f2a7779dc5edb3bcfc5fcd983db64518f699c9" in lines
    prefix = "kernel routes "
    assert lines[-1].startswith(prefix)
    routes = {k: int(n) for k, n in (item.split("=") for item in lines[-1][len(prefix):].split())}
    assert routes["retries"] == 0
    assert routes["certified_zero"] > 0 and routes["picked_rows"] > 0


@pytest.mark.parametrize("family", _batch_families())
def test_generators_span_every_batch_family(family):
    assert generators_span(build(family)) is True


def test_generators_span_rejects_non_spanning_generators(en2):
    only_g = copy_tables(en2, generators={"g": en2.generators["g"]})
    assert verify_hopf(only_g).ok  # refused for the span, not for a missing axiom check
    assert generators_span(only_g) is False
    with pytest.raises(PreCartierError, match="cannot certify C1"):
        solve_rfree(only_g)
    with pytest.raises(PreCartierError, match="cannot certify C1"):
        solve_infinitesimal(only_g, build_r(en2, "en-a:[[0,0],[0,0]]"))


def test_solvers_refuse_unchecked_instance_until_verified(en2):
    """The C1 argument regroups products, so it needs H associative: the
    certificate waits for a passing verify_hopf on the instance itself."""
    fresh = copy_tables(en2)
    r = Tensor(fresh, 2, dict(build_r(en2, "en-a:[[0,0],[0,0]]").coeffs))
    assert _close_generator_words(fresh) is True
    assert generators_span(fresh) is False
    with pytest.raises(PreCartierError, match="verify_hopf has not passed"):
        solve_rfree(fresh)
    with pytest.raises(PreCartierError, match="verify_hopf has not passed"):
        solve_infinitesimal(fresh, r)
    assert verify_hopf(fresh).ok
    assert solve_rfree(fresh) == solve_rfree(en2)
    assert solve_infinitesimal(fresh, r) == solve_infinitesimal(en2, build_r(en2, "en-a:[[0,0],[0,0]]"))


def test_generators_span_rejects_non_multiplicative_coproduct(en2):
    """Delta(x1 x2) gains a 1 (x) 1 term: the generators still span, so the
    closure holds, but verify_hopf fails its comult.morphism check and the
    certificate, which waits for a passing verify_hopf, is refused."""
    comult = [dict(d) for d in en2.comult]
    i12 = en2.index["x{1,2}"]
    unit2 = en2.unit_index * en2.dim + en2.unit_index
    comult[i12][unit2] = comult[i12].get(unit2, en2.field.zero) + en2.field.one
    broken = copy_tables(en2, comult=comult)
    assert not verify_hopf(broken).ok
    assert _close_generator_words(broken) is True
    assert generators_span(broken) is False
    with pytest.raises(PreCartierError, match="cannot certify C1"):
        solve_rfree(broken)


def _unit_slice_rows(h, slice_map, full_map, leg, columns):
    """(rows of the 2-leg slice map, rows of the 3-leg full map at the
    coordinates whose ``leg`` is the unit index), both keyed by the full
    map's coordinate."""
    dim, u = h.dim, h.unit_index
    low = dim ** (2 - leg)

    def lift(k):  # the slice's coordinate with the unit put back on ``leg``
        head, tail = divmod(k, low)
        return (head * dim + u) * low + tail

    sliced = {lift(k): row for (_, k), row in map_rows(h, 2, [slice_map], columns).items()}
    full = {k: row for (_, k), row in map_rows(h, 2, [full_map], columns).items() if k // low % dim == u}
    return sliced, full


@pytest.mark.parametrize(
    "family,rspec",
    [("h2n2:3", "bichar:[[0,0],[1,0]]"), ("h2n2:3", "bichar:[[0,1],[2,0]]"), ("h8", "h8omega:z8^3"),
     ("en:2", "en-a:[[1,2],[3,5]]"), ("ac2n:3", "ac22:q=1,a=1")],
)
def test_cqtr_unit_slices_are_rows_of_the_full_maps(family, rspec):
    """The C2 (C3) unit slice is the R-multiplied C2 (C3) map read at the
    coordinates whose leg 2 (leg 0) is the unit: the same rows, on the
    commutant's basis and on random tensors.  The C3 maps are the tests'
    own (``conftest``), for the old route's oracle."""
    h = build(family)
    r = build_r(h, rspec)
    rng = random.Random(7)
    columns = list(analysis(h, "commutant").rows) + [random_sparse_tensor(h, rng).coeffs for _ in range(4)]
    for slice_map, full_map, leg in ((cqtr_unit_slice_map(r), cqtr_rmul_map(r), 2), (cqtr3_unit_slice_map(r), cqtr3_rmul_map(r), 0)):
        sliced, full = _unit_slice_rows(h, slice_map, full_map, leg, columns)
        assert sliced and sliced == full


def test_cqtr_unit_slice_certifies_h2n2_3_alone():
    """On h2n2:3 the C2 slice already cuts the commutant to zero, so the
    full 3-leg map runs on no column."""
    h = build("h2n2:3")
    r = build_r(h, "bichar:[[0,0],[1,0]]")
    assert restrict_and_cut(h, 2, analysis(h, "commutant"), [cqtr_unit_slice_map(r)]).dim == 0


@pytest.mark.parametrize("family", _batch_families())
def test_b2_unit_slice_is_rows_of_b2(family):
    """The Z^2 slice is b^2 read at the coordinates whose leg 0 is the unit,
    on every basis tensor of H (x) H."""
    h = build(family)
    columns = full_space(h, 2).rows
    sliced, full = _unit_slice_rows(h, lambda t: b2_unit_slice(h, t), lambda t: b_apply(h, 2, t), 0, columns)
    assert sliced == full


def _outside_commutant(h):
    """A verified copy of h with its commutant computed, and x (x) 1, which
    Delta(g) = g (x) g does not commute with (x g = -g x)."""
    fresh = copy_tables(h)
    assert verify_hopf(fresh).ok
    analysis(fresh, "commutant")
    x = pe(fresh, "x{1} (x) 1").coeffs
    assert not fresh._analysis_cache["commutant"].contains(x)
    return fresh, x


def test_solvers_refuse_a_basis_vector_outside_the_commutant(en2, monkeypatch):
    """A cut that hands back a vector outside the commutant is caught by the
    exact membership check of both solvers."""
    fresh, outside = _outside_commutant(en2)
    cut = pc.restrict_and_cut
    monkeypatch.setattr(pc, "restrict_and_cut", lambda h, legs, space, maps: Subspace.from_vectors([*cut(h, legs, space, maps).rows, outside], space.ambient_dim))
    with pytest.raises(PreCartierError, match="outside the commutant"):
        solve_rfree(fresh)
    r = Tensor(fresh, 2, dict(build_r(en2, "en-a:[[0,0],[0,0]]").coeffs))
    with pytest.raises(PreCartierError, match="outside the commutant"):
        solve_infinitesimal(fresh, r)


def test_commutant_recheck_catches_a_vector_that_breaks_c1(en2, monkeypatch):
    """A commutant doctored with x (x) 1 fails the once-per-algebra C1
    recheck against the generators, before any solver reads it, and is
    not kept."""
    fresh, outside = _outside_commutant(en2)
    fresh._analysis_cache.clear()
    commutant = pc.commutant_of_coproducts
    monkeypatch.setattr(pc, "commutant_of_coproducts", lambda h, elems: Subspace.from_vectors([*commutant(h, elems).rows, outside], h.dim**2))
    with pytest.raises(PreCartierError, match="violates C1 against a generator"):
        solve_rfree(fresh)
    assert "commutant" not in fresh._analysis_cache
    with pytest.raises(PreCartierError, match="violates C1 against a generator"):
        solve_infinitesimal(fresh, Tensor(fresh, 2, dict(build_r(en2, "en-a:[[0,0],[0,0]]").coeffs)))


def test_hc_recheck_names_the_r_and_the_witness(en2, monkeypatch):
    """A solution on which b^2 does not vanish raises, naming R and the
    solution vector (b^2 doctored to the nonzero t (x) 1).  Z^2 is cut by
    b^2 too, so the start space is computed before b^2 is doctored: the
    test then runs alike alone and after others, and caches no Z^2 of the
    doctored b^2 on the shared en:2."""
    analysis(en2, "commutant_z2")
    monkeypatch.setattr(cohomology, "b_apply", lambda h, n, t: t.tensor(h.unit()))
    r = build_r(en2, "en-a:[[0,0],[0,0]]")
    with pytest.raises(PreCartierError, match="violates HC") as err:
        solve_infinitesimal(en2, r)
    assert f"R = {format_tensor(r)} " in str(err.value)
    assert str(err.value).endswith(": (g^1*x{1} (x) x{1})")  # the first basis vector of the solutions


def test_solve_infinitesimal_refuses_an_r_that_fails_the_axioms(en2):
    """C3 follows from C1, C2 and HC only for a quasitriangular R, so the
    solver refuses any other and names it, whether it verifies R itself or
    is handed R's report; 1 (x) 1 is no R on the non-cocommutative E(2)."""
    r = en2.unit_tensor(2)
    qrep = verify_qtr(en2, r)
    assert not qrep.ok
    for args in ((), (qrep,)):
        with pytest.raises(PreCartierError, match="fails the axioms") as err:
            solve_infinitesimal(en2, r, *args)
        assert f"R = {format_tensor(r)} " in str(err.value) and "quasi-cocommutativity fails at x{1}" in str(err.value)


def _routes_agree(h, spec):
    """The solver's space (commutant and Z^2 cut by C2) equals the four-cut
    route, the commutant cut by the unit slice of C2, full C2, the unit
    slice of C3 and full C3, and the mirror route, commutant and Z^2 cut by
    C3 alone (by the mirror argument through Q2, C2 holds given C1, C3 and
    HC)."""
    r = build_r(h, spec)
    qrep = verify_qtr(h, r)
    assert qrep.ok, spec
    space = solve_infinitesimal(h, r, qrep)
    c2 = [cqtr_unit_slice_map(r), cqtr_rmul_map(r)]
    c3 = [cqtr3_unit_slice_map(r), cqtr3_rmul_map(r)]
    old = restrict_and_cut(h, 2, analysis(h, "commutant"), c2 + c3)
    mirror = restrict_and_cut(h, 2, analysis(h, "commutant_z2"), c3)
    assert space == old == mirror, f"{h.name} {spec}"


@pytest.mark.parametrize("family", [family for family, mode in batch_modes() if mode != "rfree"])
def test_c3_follows_from_c1_c2_and_hc_on_every_batch_r(family):
    h = build(family)
    for spec in enumerate_rmatrices(h):
        _routes_agree(h, spec)


def test_c3_follows_from_c1_c2_and_hc_on_random_and_chosen_r():
    """Seeded random A on E(2) and E(3), and bichar:[[0,1],[2,0]] on H_18
    by name."""
    rng = random.Random(28)
    for n in (2, 3):
        h = build(f"en:{n}")
        for _ in range(4):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            _routes_agree(h, "en-a:" + str(m).replace(" ", ""))
    _routes_agree(build("h2n2:3"), "bichar:[[0,1],[2,0]]")
