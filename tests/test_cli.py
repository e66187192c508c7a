import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hopflab import cli
from hopflab.cli import RunConfig, main, run
from hopflab.rmatrices import RSpec, RSpecError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_en2(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "en:2", "--r", "en-a:[[0,0],[0,0]]")
    assert code == 0
    rep = json.loads(out)
    assert rep["dims"]["precartier"] == 4
    assert rep["dims"]["cartier"] == 1
    assert rep["flags"]["matches_paper_theorem"] is True


def test_cohomology_en3(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--family", "en:3")
    assert code == 0
    rep = json.loads(out)
    assert rep["dims"]["h2"] == 6


def test_classify_enumerate_ac22(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "ac2n:2", "--r", "enumerate")
    assert code == 0
    reps = json.loads(out)
    assert len(reps) == 4
    assert all(r["dims"]["precartier"] == 1 for r in reps)
    assert all(r["basis"] == ["(x (x) x*g)"] for r in reps)


def test_classify_radford_rfree(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "radford:2,2")
    assert code == 0
    rep = json.loads(out)
    assert rep["dims"]["rfree"] == 0
    assert rep["dims"]["precartier"] == 0


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "h8", "--r", "h8pm:+1,-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["hopf_ok"] is True
    assert rep["r_reports"][0]["qtr_ok"] is True


def test_build_subcommand(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "ac4dual")
    assert code == 0
    assert json.loads(out)["dim"] == 8


def test_quantize_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "quantize", "--family", "ac2n:2", "--r", "ac22:q=0,a=1", "--chi", "x (x) x*g"
    )
    assert code == 0
    reps = json.loads(out)
    assert reps[0]["quantized_qtr_ok"] is True
    assert reps[0]["hypothesis_1"] is True and reps[0]["hypothesis_2"] is True


def test_enumerate_r_h8(capsys):
    """``enumerate-r`` lists the R specs that ``--r enumerate`` classifies:
    on h8 the eight registered structures, in the same order."""
    code, out, _ = run_cli(capsys, "enumerate-r", "--family", "h8")
    assert code == 0
    listed = [entry["r"] for entry in json.loads(out)]
    code, out, _ = run_cli(capsys, "classify", "--family", "h8", "--r", "enumerate")
    assert code == 0
    assert len(listed) == 8
    assert listed == [rep["r"] for rep in json.loads(out)]


def test_prime_field_flag(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "en:2", "--r", "en-a:[[1,0],[0,1]]", "--field", "prime:97"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["field"] == "F_97"
    assert rep["dims"]["precartier"] == 4


def test_config_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--family", "nonsense:1")
    assert code == 2
    assert "config error" in err


def test_mismatch_exit_1_with_diff(capsys, monkeypatch):
    import hopflab.precartier as pc

    corrupted = dict(pc.EXPECTED)
    corrupted["en"] = lambda n: {
        "dims": {"precartier": n * n + 1},
        "note": "deliberately corrupted for the exit-status contract",
    }
    monkeypatch.setattr(pc, "EXPECTED", corrupted)
    code, out, err = run_cli(capsys, "classify", "--family", "en:1", "--r", "en-a:[[0]]")
    assert code == 1
    assert "mismatch" in err and "expected dims" in err
    rep = json.loads(out)
    assert rep["flags"]["matches_paper_theorem"] is False


def test_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--family", "en:1", "--r", "en-a:[[1]]")
    _, out2, _ = run_cli(capsys, "classify", "--family", "en:1", "--r", "en-a:[[1]]")
    assert out1 == out2


@pytest.mark.parametrize(
    "family,rspec,digest",
    [
        # the non-monomial product tables (factorized 2-leg loop) over Q(zeta3) and Q(zeta8)
        ("h2n2:3", "bichar:[[0,0],[1,0]]", "6852efa0b6c9bbfbbc0ea1a65e2882ee0e7c3b78e3471bf6b85806d99c6c7449"),
        ("h8", "enumerate", "3a1dc07c26d0dea700554a819a18753406b2c5ee419e423e54ee78151263380c"),
        # the integer lift over Q with the generator certificate in verify_qtr
        ("ac2n:4", "enumerate", "11f32da2913fe7ec0df4e4655e5e6baf4eb09c00a1396b4a7bca24eb917644cb"),
    ],
    ids=["h2n2:3", "h8", "ac2n:4"],
)
def test_classify_report_bytes(capsys, family, rspec, digest):
    code, out, _ = run_cli(capsys, "classify", "--family", family, "--r", rspec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        # the R builders' outer products of elements
        (["enumerate-r", "--family", "en:3"], "4bf53857a49aa4e626b3e3579b3fb0482dd49a1799b1754177115fad48a1fb30"),
        (["enumerate-r", "--family", "ac2n:3"], "e45dcc11b46004ab6f64817372d094aefe298a9284fb73a69b3fed3b30223ee5"),
        # the eight registered structures, h8pm as closed-form bicharacters
        (["enumerate-r", "--family", "h8"], "198e114f8cf2a95985d43f870fba948bae3e3d7949ab7661744fe553a0959807"),
        # the unit insertions of the cobar differential
        (["cohomology", "--family", "h8"], "62a440ff1cb7b6cad0e969187908d01b0626fdcb37da0108f2ea8ddf7eba0a55"),
        # the enumeration survivors' reports, passed to the task
        (["verify", "--family", "h2n2:3", "--r", "enumerate"], "3ac6df7e0e066a805f9037c570b8daefd358132d71523309ca59e605aa6332af"),
    ],
    ids=["enumerate-r-en:3", "enumerate-r-ac2n:3", "enumerate-r-h8", "cohomology-h8", "verify-h2n2:3"],
)
def test_command_output_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field", [None, "prime:97"])
def test_quantize_report_bytes(field):
    """E(3) quantization over Q and over F_97 (the integer lift of both, and
    quasi-cocommutativity of R exp(hbar chi) on the generators): one output,
    printed by a fresh process, so no scalar cache of an earlier test is warm."""
    argv = ["quantize", "--family", "en:3", "--r", "enumerate"] + (["--field", field] if field else [])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "hopflab.cli", *argv], env=env, capture_output=True, check=True, timeout=600)
    assert hashlib.sha256(done.stdout).hexdigest() == "da507b111408722ecf6ac4c1028a043dbae505c111198568c62550bd10c0212b"


@pytest.mark.parametrize("field", ["prime:4", "prime:9"])
def test_composite_prime_field_exit_2(capsys, field):
    code, out, err = run_cli(capsys, "classify", "--family", "en:1", "--r", "enumerate", "--field", field)
    assert code == 2
    assert err.startswith("config error:") and "must be a prime" in err
    assert out == ""


def test_large_prime_fields_are_decided_quickly(capsys):
    """A 19-digit prime field builds well inside the timeout (trial division
    took minutes); a 19-digit composite, and a prime beyond the exact range
    of the primality test, exit 2."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["build", "--family", "en:1", "--field", "prime:1000000000000000003"]
    done = subprocess.run([sys.executable, "-m", "hopflab.cli", *argv], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0 and '"verified": true' in done.stdout
    for p, message in ((10**18 + 1, "must be a prime"), (2**89 - 1, "too large")):
        code, out, err = run_cli(capsys, "build", "--family", "en:1", "--field", f"prime:{p}")
        assert code == 2 and err.startswith("config error:") and message in err
        assert out == ""


def test_large_prime_field_with_a_root_of_unity_is_quick():
    """h8 needs a root of order 8, found from a generator of F_p^*, so
    p - 1 = 8q (q a 17-digit prime) is factored: by trial division that
    ran for longer than the timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["verify", "--family", "h8", "--field", "prime:1000000000000002137"]
    done = subprocess.run([sys.executable, "-m", "hopflab.cli", *argv], env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert '"failures": []' in done.stdout


def test_out_file_and_table_format(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["classify", "--family", "en:1", "--r", "en-a:[[0]]", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["dims"]["precartier"] == 1
    code, out, _ = run_cli(capsys, "classify", "--family", "en:1", "--r", "en-a:[[0]]", "--format", "table")
    assert code == 0
    assert "precartier=1" in out


def test_runconfig_multiple_tasks(capsys):
    """One task per run: three runs of one config emit one payload each."""
    keys = []
    for task in ("verify", "classify", "cohomology"):
        assert run(RunConfig(family="en:1", r="en-a:[[0]]", task=task)) == 0
        keys.append(set(json.loads(capsys.readouterr().out)))
    assert "hopf_ok" in keys[0] and "flags" in keys[1] and keys[2] == {"family", "field", "dims"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["build", "--family", "en:1"], []),
        (["classify", "--family", "en:1", "--r", "en-a:[[0]]"], ["cohomology", "precartier"]),
    ],
)
def test_each_task_imports_what_it_runs(argv, loaded):
    """In a fresh process, a task loads only the task modules it runs."""
    probe = ("import sys; from hopflab.cli import main; main(sys.argv[1:]); "
             "print(*sorted(m for m in ('cohomology', 'precartier', 'quantize') if 'hopflab.' + m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1].split() == loaded


def test_runconfig_no_tasks(capsys):
    """An empty or unknown task is a configuration error."""
    for task in ("", "bogus"):
        assert run(RunConfig(family="en:1", task=task)) == 2
        assert capsys.readouterr().err == f"config error: unknown task {task!r}\n"


@pytest.mark.parametrize(
    "family, rspec",
    [
        ("en:2", "bogus"),  # unparsable R spec
        ("h8", "en-a:[[0]]"),  # R kind of another family
        ("ac2n:2", "ac22:a=1"),  # missing key q
        ("en:2", "en-a:[[1,2]]"),  # en-a matrix of the wrong shape
        ("en:1", "en-a:[[x]]"),  # en-a matrix entry that is not a scalar
        ("h2n2:3", "bichar:[[0]]"),  # bicharacter matrix of the wrong shape
        ("en:1", "explicit:foo"),  # explicit body that does not parse
        ("ac2n:2", "ac22:q=2,a=0"),  # q out of range
        ("h8", "h8pm:+2,+1"),  # alpha out of range
        ("h8", "h8omega:z4"),  # omega no primitive 8th root of unity
        ("en:2", "h8pm:+1,+1"),  # h8pm off the semisimple family
        ("h2n2:3", "h8pm:+1,+1"),  # h8pm on a member other than n = 2
        ("en:1", "en-a:[[1/0]]"),  # a zero denominator in a scalar literal
        ("h8", "h8omega:1/0"),
        ("ac2n:2", "ac22:q=0,a=1/0"),
        ("en:1", "explicit:1/0 (x) 1"),
        ("h2n2:3", "bichar:[[0,0]junk[1,0]]"),  # text between the rows
        ("h2n2:3", "bichar:[[0,0]][[1,0]]"),  # two matrices
        ("h2n2:3", "bichar:[[0,0],[1,0],]]"),  # a trailing comma
        ("en:2", "en-a:[[1,0]garbage[0,1]]"),
        ("ac2n:2", "ac22:q=1,A=1"),  # a key other than q and a
        ("ac2n:2", "ac22:q=1,a=1,q=0"),  # a repeated key
        ("ac2n:2", "ac22:q"),  # a part with no value
        ("ac2n:2", "ac22:q=x"),  # q no integer
        ("h8", "h8pm:1"),  # one sign
    ],
)
def test_bad_r_spec_exit_2(capsys, family, rspec):
    code, out, err = run_cli(capsys, "classify", "--family", family, "--r", rspec)
    assert code == 2
    assert err.startswith("config error:")
    assert out == ""


@pytest.mark.parametrize(
    "rspec",
    [
        "bichar:[[0,0]junk[1,0]]",
        "bichar:[[0,0]][[1,0]]",
        "bichar:[[0,0],[1,0],]]",
        "en-a:[[1,0]garbage[0,1]]",
        "ac22:q=1,A=1",
        "ac22:q=1,a=1,q=0",
        "ac22:q",
        "ac22:q=x",
        "h8pm:1",
    ],
)
def test_malformed_r_spec_is_named(rspec):
    """Text that is not of its kind's form is refused when the spec is
    parsed, and the error names the whole spec: junk between or after the
    rows of a matrix, an unknown or repeated ac22 key, an ac22 part that is
    no key=value or a q that is no integer, or an h8pm body that is no pair
    of integers."""
    with pytest.raises(RSpecError, match=re.escape(f"R spec {rspec!r}")):
        RSpec.parse(rspec)


@pytest.mark.parametrize(
    "rspec, form",
    [
        ("ac22:q", "ac22:q=<int>,a=<scalar>"),
        ("ac22:q=x", "ac22:q=<int>,a=<scalar>"),
        ("h8pm:1", "h8pm:<±1>,<±1>"),
        ("h8pm:+1,x", "h8pm:<±1>,<±1>"),
    ],
)
def test_malformed_r_spec_names_its_form(capsys, rspec, form):
    """A malformed ac22 or h8pm body is refused naming the whole spec and the
    form it should have, in the exception and in the CLI's exit-2 message."""
    with pytest.raises(RSpecError, match=re.escape(f"R spec {rspec!r}") + ".*" + re.escape(f"expected {form}")):
        RSpec.parse(rspec)
    family = "ac2n:2" if rspec.startswith("ac22") else "h8"
    code, out, err = run_cli(capsys, "classify", "--family", family, "--r", rspec)
    assert (code, out) == (2, "")
    assert f"expected {form}" in err


def test_report_r_is_one_string_per_spec(capsys):
    """Whitespace in an en-a spec leaves the report's bytes unchanged: its r
    is the compact form of the matrix."""
    spaced = run_cli(capsys, "classify", "--family", "en:2", "--r", "en-a: [[1, 0], [0, 1]]")
    compact = run_cli(capsys, "classify", "--family", "en:2", "--r", "en-a:[[1,0],[0,1]]")
    assert spaced == compact
    assert spaced[0] == 0 and json.loads(spaced[1])["r"] == "en-a:[[1,0],[0,1]]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--family", "en"], "takes 1 parameter"),  # no parameter
        (["classify", "--family", "h8:3", "--r", "h8pm:+1,+1"], "takes 0 parameter"),  # one h8 does not take
        (["classify", "--family", "en:1,5", "--r", "enumerate"], "takes 1 parameter"),  # one too many
        (["classify", "--family", "radford:2"], "takes 2 parameter"),  # one too few
        (["classify", "--family", "en:0"], "family en:0: n must be >= 1"),
        (["classify", "--family", "h2n2:1"], "family h2n2:1: n must be >= 2"),
        (["classify", "--family", "group:0"], "family group:0: abelian invariants must be >= 1"),
        (["classify", "--family", "radford:0,2"], "family radford:0,2: r must be >= 1"),
        # the range is checked before the default field Q(zeta_(rn)) or Q(zeta_n) is chosen
        (["classify", "--family", "h2n2:0"], "family h2n2:0: n must be >= 2"),
        (["classify", "--family", "h2n2:-3"], "family h2n2:-3: n must be >= 2"),
        (["classify", "--family", "radford:1,0"], "family radford:1,0: n must be >= 2"),
        (["classify", "--family", "radford:-1,2"], "family radford:-1,2: r must be >= 1"),
        (["classify", "--family", "tensor(h2n2:0,en:1)"], "family h2n2:0: n must be >= 2"),
        (["classify", "--family", "en:2", "--field", "prime:2"], "characteristic 2"),  # excluded by the family
        (["quantize", "--family", "en:2", "--r", "en-a:[[0,0],[0,0]]", "--chi", "(("], None),
        (["classify", "--family", "en:x"], "family 'en:x': parameters must be integers"),
        (["classify", "--family", "group:2,x"], "family 'group:2,x': parameters must be integers"),
        (["classify", "--family", "tensor(en:1"], "cannot parse tensor spec 'tensor(en:1'"),
        (["classify", "--family", "en:1,"], "family 'en:1,' has an empty parameter"),
        (["classify", "--family", "en:1,,2"], "family 'en:1,,2' has an empty parameter"),
        (["classify", "--family", "en:1", "--field", "prime:97", "--r", "en-a:[[1/97]]"], "division by zero"),
        (["quantize", "--family", "en:2", "--r", "en-a:[[0,0],[0,0]]", "--chi", "1/0"], "division by zero"),
    ],
    ids=[
        "en", "h8:3", "en:1,5", "radford:2", "en:0", "h2n2:1", "group:0", "radford:0,2",
        "h2n2:0", "h2n2:-3", "radford:1,0", "radford:-1,2", "tensor-h2n2:0", "en:2-F2", "chi",
        "en:x", "group:2,x", "tensor-unclosed", "en:1-trailing-comma", "en:1-empty-middle",
        "en-a-1/97-F97", "chi-1/0",
    ],
)
def test_bad_family_or_chi_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:")
    assert message is None or message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--family", "h2n2:3", "--field", "prime:5"],  # F_5 has no root of order 3
        ["cohomology", "--family", "radford:2,2", "--field", "prime:7"],  # F_7 has no root of order 4
        ["classify", "--family", "h8", "--r", "h8omega:z8", "--field", "prime:5"],
        ["verify", "--family", "ac4dual", "--field", "cyclotomic:3"],  # Q(zeta3) has no i
    ],
    ids=["h2n2:3-F5", "radford:2,2-F7", "h8-F5", "ac4dual-Qz3"],
)
def test_missing_root_of_unity_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:") and "root of" in err
    assert out == ""


def test_failing_verify_hopf_exit_1(capsys, monkeypatch):
    """A table that fails ``verify_hopf`` is a verification failure (1), not
    a configuration error, both from ``verify`` and from a checked build."""
    from hopflab import families
    from hopflab.hopf import verify_hopf as real_verify

    def corrupted(h):
        rep = real_verify(h)
        rep.record("associativity", "(g,g,g)", False)
        return rep

    monkeypatch.setattr(families, "verify_hopf", corrupted)
    monkeypatch.setattr(cli, "verify_hopf", corrupted)
    code, out, err = run_cli(capsys, "verify", "--family", "en:1", "--field", "prime:29")
    assert code == 1
    assert json.loads(out)["hopf_ok"] is False
    # a field no other test builds en:1 over, so the build is not cached yet
    code, out, err = run_cli(capsys, "classify", "--family", "en:1", "--field", "prime:31")
    assert code == 1
    assert err.startswith("error:") and "associativity fails at (g,g,g)" in err


def test_failed_construction_exit_1(capsys, monkeypatch):
    from hopflab.families import ConstructionError

    def broken(*args, **kwargs):
        raise ConstructionError("hopf(H): 1 violations in 9 checks")

    monkeypatch.setattr(cli, "build", broken)
    code, out, err = run_cli(capsys, "classify", "--family", "en:1")
    assert code == 1
    assert err.startswith("error:")


def test_quantize_inverts_each_r_once(capsys, monkeypatch):
    """``verify_qtr`` inverts each R; the solver and the quantization
    checks read R^-1 as (S (x) Id)(R), which it verified, and invert none."""
    import hopflab.rmatrices as rm

    calls = []
    r_inverse = rm.r_inverse

    def counting(h, r):
        calls.append(r)
        return r_inverse(h, r)

    monkeypatch.setattr(rm, "r_inverse", counting)
    code, out, _ = run_cli(capsys, "quantize", "--family", "en:2", "--r", "enumerate")
    assert code == 0
    reps = json.loads(out)
    assert len({rep["r"] for rep in reps}) == 3
    assert len(reps) == 12  # four chi per R
    assert len(calls) == 3


def test_classify_inverts_each_r_once(capsys, monkeypatch):
    import hopflab.rmatrices as rm

    calls = []
    r_inverse = rm.r_inverse

    def counting(h, r):
        calls.append(r)
        return r_inverse(h, r)

    monkeypatch.setattr(rm, "r_inverse", counting)
    code, out, _ = run_cli(capsys, "classify", "--family", "en:2", "--r", "enumerate")
    assert code == 0
    assert len(json.loads(out)) == 3
    assert len(calls) == 3


@pytest.mark.parametrize("task", ["classify", "verify", "quantize", "enumerate-r"])
@pytest.mark.parametrize("family", ["radford:2,2", "tensor(en:1,group:2)"])
def test_enumerate_with_nothing_to_enumerate_exit_2(capsys, task, family):
    """A family with no registered or enumerated R is a configuration error
    under ``--r enumerate``, for every task that takes R."""
    code, out, err = run_cli(capsys, task, "--family", family, "--r", "enumerate")
    assert code == 2
    assert err.startswith("config error:")
    assert f"family {family} has no registered or enumerated R-matrix" in err and "--r none" in err
    assert out == ""


@pytest.mark.parametrize("task", ["verify", "quantize", "enumerate-r"])
def test_enumeration_survivors_are_verified_once(capsys, monkeypatch, task):
    """Each task builds every survivor of the h2n2:3 enumeration (9) once,
    from its spec, and checks each R with one ``verify_qtr``, which inverts
    it once.  The quantize solve is stubbed out (no chi): only the R's are
    counted."""
    import hopflab.precartier as pc
    import hopflab.rmatrices as rm
    from hopflab.linalg import Subspace

    verified, builds, inverted = [], [], []

    def counting(log, fn):
        def counted(h, arg):
            log.append(arg)
            return fn(h, arg)

        return counted

    monkeypatch.setattr(pc, "solve_infinitesimal", lambda h, r, qrep: Subspace(h.dim**2, (), ()))
    for module in (cli, rm):
        monkeypatch.setattr(module, "verify_qtr", counting(verified, rm.verify_qtr))
    monkeypatch.setattr(cli, "build_r", counting(builds, rm.build_r))
    monkeypatch.setattr(rm, "r_inverse", counting(inverted, rm.r_inverse))
    argv = [task, "--family", "h2n2:3"] + ([] if task == "enumerate-r" else ["--r", "enumerate"])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if task == "verify":
        assert len(json.loads(out)["r_reports"]) == 9
    assert len(builds) == len(set(builds)) == 9
    assert len(verified) == 9
    assert len(inverted) == 9


def test_enumerate_r_exits_1_naming_an_r_that_fails(capsys, monkeypatch):
    """``enumerate-r`` verifies each R it prints; one that fails is named on
    stderr, left out of the output, and the exit status is 1."""
    from hopflab.families import build
    from hopflab.hopf import VerifyReport
    from hopflab.rmatrices import enumerate_rmatrices

    specs = [str(spec) for spec in enumerate_rmatrices(build("h8"))]
    calls = []

    def failing_first(h, r):
        calls.append(r)
        rep = VerifyReport("qtr")
        rep.record("qyb", "", len(calls) > 1)
        return rep

    monkeypatch.setattr(cli, "verify_qtr", failing_first)
    code, out, err = run_cli(capsys, "enumerate-r", "--family", "h8")
    assert code == 1
    assert f"R {specs[0]} fails the axioms" in err and "qyb" in err
    assert [entry["r"] for entry in json.loads(out)] == specs[1:]


def test_verify_exits_1_naming_the_inverse_law(capsys):
    """x1 (x) x1 on E(1) has no inverse: ``verify`` lists the inverse law
    first, then the other laws that fail, and exits 1."""
    code, out, _ = run_cli(capsys, "verify", "--family", "en:1", "--r", "explicit:x1 (x) x1")
    assert code == 1
    rep = json.loads(out)["r_reports"][0]
    assert rep["qtr_ok"] is False
    assert rep["failures"][0] == ["antipode-inverse", "(S (x) Id)(R) is not a two-sided inverse of R"]
    assert ["counit.left", ""] in rep["failures"][1:]


def test_quantize_exits_1_naming_an_r_that_fails(capsys):
    """``quantize`` verifies each R before it solves for chi or quantizes a
    well-formed ``--chi``: on E(2), 1 (x) 1 fails quasi-cocommutativity, so
    it is named on stderr, nothing is quantized for it, and the exit status
    is 1."""
    for extra in ((), ("--chi", "g^1*x{1} (x) x{1}")):
        code, out, err = run_cli(capsys, "quantize", "--family", "en:2", "--r", "explicit:1 (x) 1", *extra)
        assert code == 1
        assert "error: R explicit:1 (x) 1 fails the axioms" in err
        assert "quasi-cocommutativity fails at x{1}" in err and "quasi-cocommutativity fails at x{2}" in err
        assert json.loads(out) == []


@pytest.mark.parametrize("chi", ["y7 (x) 1", "x1", "1/0"], ids=["unknown-generator", "one-leg", "division-by-zero"])
def test_malformed_chi_exit_2_whichever_r_comes_with_it(capsys, chi):
    """``quantize`` reads and checks ``--chi`` once, before it builds any R,
    so a malformed ``--chi`` is a configuration error with an R that fails
    the axioms (1 (x) 1 on E(1)) as with one that passes."""
    for r in ("explicit:1 (x) 1", "en-a:[[0]]"):
        code, out, err = run_cli(capsys, "quantize", "--family", "en:1", "--r", r, "--chi", chi)
        assert code == 2, r
        assert err.startswith("config error:") and "fails the axioms" not in err
        assert out == ""


@pytest.mark.parametrize("family, r", [("en:2", "en-a:[[x1,0],[0,0]]"), ("ac2n:2", "ac22:q=1,a=g")])
def test_r_spec_scalar_that_names_a_generator_exit_2(capsys, family, r):
    """R-spec scalars are expressions of the element grammar without a
    generator."""
    code, out, err = run_cli(capsys, "classify", "--family", family, "--r", r)
    assert code == 2
    assert err.startswith("config error:") and "is not a scalar" in err
    assert out == ""


def test_out_path_that_cannot_be_written_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "build", "--family", "en:1", "--out", str(target))
    assert code == 2
    assert err.startswith("config error:") and "report.json" in err
    assert out == "" and not target.exists()
