"""Command line: gen, solve, audit, sweep, verify."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polylab
from polylab import (
    FamilySpec,
    MultiPoly,
    PolySystem,
    choose_basis,
    generate,
    kappa_eig_macaulay_bound,
    kappa_eig_mep_formula,
    kappa_eig_ms_formula,
    macaulay_hat,
    macaulay_pencil,
    mep_from_system,
    numkernel,
    read_csv,
)
from polylab.cli import _audit_one, main


def run_cli(args):
    return main(list(args))


def gen_file(tmp_path, name="sys.json", *extra):
    path = tmp_path / name
    code = run_cli(
        ["gen", "--family", "cyclic_squares", "--d", "2", "--sigma", "0.5", "--out", str(path)]
        + list(extra)
    )
    assert code == 0
    return path


_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from polylab.cli import main

path = sys.argv[1]
codes = [main(["gen", "--family", "permutation", "--d", "2", "--sigma", "0.01", "--out", path])]
codes += [main(["solve", "--system", path, "--method", m]) for m in ("nf", "macaulay", "mep")]
codes.append(main(["audit", "--system", path]))
loaded = [name for name, module in sys.modules.items() if module and name.split(".")[0] == "scipy"]
print(codes, loaded, file=sys.stderr)
sys.exit(codes != [0] * 5 or bool(loaded))
"""


@pytest.mark.skipif(
    numkernel._LAPACK is None, reason="numpy's build does not export the LAPACK routines"
)
def test_the_cli_runs_without_scipy(tmp_path):
    # numpy's own LAPACK serves zggev, zgeqp3 and nrm2, so gen, solve and
    # audit run, and load no scipy module, in a process where it is missing.
    env = dict(os.environ, PYTHONPATH=str(Path(polylab.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "s.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_gen_writes_a_loadable_system(tmp_path):
    path = gen_file(tmp_path)
    data = json.loads(path.read_text())
    s = PolySystem.from_json_dict(data)
    assert s.d == 2
    assert s.family_tag == "cyclic_squares"
    assert len(s.true_roots) == 4
    for r in s.true_roots:
        assert s.residual(np.asarray(r)) <= 1e-12 * s.coefficient_scale()


def test_gen_prints_to_stdout_by_default(capsys):
    assert run_cli(["gen", "--family", "orthogonal", "--d", "2", "--sigma", "0.1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert PolySystem.from_json_dict(data).family_tag == "orthogonal"


def test_gen_accepts_a_shift(tmp_path):
    path = tmp_path / "s.json"
    code = run_cli(
        ["gen", "--family", "orthogonal", "--d", "2", "--sigma", "0.1",
         "--shift", "0.25,0.5", "--out", str(path)]
    )
    assert code == 0
    s = PolySystem.from_json_dict(json.loads(path.read_text()))
    target = np.array([0.25, 0.5], dtype=complex)
    assert any(np.linalg.norm(np.asarray(r) - target) <= 1e-12 for r in s.true_roots)


def test_solve_reports_all_roots(tmp_path):
    sys_path = gen_file(tmp_path)
    out_path = tmp_path / "roots.json"
    code = run_cli(
        ["solve", "--system", str(sys_path), "--method", "nf", "--out", str(out_path)]
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["method_tag"] == "nf"
    assert len(rep["roots"]) == 4
    assert max(rep["residuals"]) <= 1e-9
    assert rep["diagnostics"]["polished"] is False


def test_solve_polish_flag_reaches_the_solver(tmp_path, capsys):
    sys_path = gen_file(tmp_path)
    code = run_cli(["solve", "--system", str(sys_path), "--method", "macaulay", "--polish"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["diagnostics"]["polished"] is True
    assert rep["method_tag"] == "macaulay"


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    sys_path = gen_file(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(sys_path.read_text()))
    code = run_cli(["solve", "--system", "-", "--method", "mep"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method_tag"] == "mep"
    assert len(rep["roots"]) == 4


def test_audit_compares_every_method_at_the_stored_root(tmp_path, capsys):
    sys_path = tmp_path / "perm.json"
    run_cli(["gen", "--family", "permutation", "--d", "2", "--sigma", "0.01",
             "--out", str(sys_path)])
    code = run_cli(["audit", "--system", str(sys_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["macaulay", "mep", "nf"]
    for entry in out.values():
        assert entry["kappa_root"] == pytest.approx(100.0, rel=1e-6)
        assert entry["kappa_sub"] > entry["kappa_root"]
        assert entry["ratio"] == pytest.approx(entry["kappa_sub"] / entry["kappa_root"], rel=1e-9)


def test_audit_marks_methods_that_do_not_apply(tmp_path, capsys):
    # mixed quadratic terms rule out the determinantal representation
    sys_path = tmp_path / "mixed.json"
    run_cli(["gen", "--family", "notdev2d", "--d", "2", "--sigma", "0.01",
             "--out", str(sys_path)])
    code = run_cli(["audit", "--system", str(sys_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["macaulay", "mep", "nf"]
    assert "unsupported" in out["mep"]
    assert out["nf"]["kappa_sub"] > 0


def test_audit_single_unsupported_method_exits_cleanly(tmp_path, capsys):
    sys_path = tmp_path / "mixed.json"
    run_cli(["gen", "--family", "notdev2d", "--d", "2", "--sigma", "0.01",
             "--out", str(sys_path)])
    code = run_cli(["audit", "--system", str(sys_path), "--method", "mep"])
    assert code == 1
    assert "does not apply" in capsys.readouterr().err


def test_audit_accepts_an_explicit_root(tmp_path, capsys):
    sys_path = gen_file(tmp_path)
    code = run_cli(
        ["audit", "--system", str(sys_path), "--method", "nf", "--root", "0,0"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method_tag"] == "nf"
    assert out["kappa_root"] == pytest.approx(2.0, rel=1e-9)  # 1 / sigma


SWEEP = ["sweep", "--custom", "--method", "nf", "--trials", "1"]
GEN = ["gen", "--family", "orthogonal", "--d", "2"]


BROKEN_KINDS = ("missing", "not-a-system", "nan-coefficient", "rank-deficient", "constant", "overflow")


def broken_system(kind, path):
    """Write a --system file of one of BROKEN_KINDS.

    The file is missing, not a system, or has a NaN coefficient; a
    rank-deficient system is fig 5's sigma = 1 notdev3d system, on which nf
    and macaulay raise RankDeficientBasis, a constant one is x^2 = 0,
    5 = 0, whose Bezout count is 0, and an overflow one is the sigma = 1e160
    permutation system, whose mep Delta_0 overflows.
    """
    if kind == "rank-deficient":
        run_cli(["gen", "--family", "notdev3d", "--d", "3", "--sigma", "1", "--out", str(path)])
    elif kind == "overflow":
        run_cli(["gen", "--family", "permutation", "--d", "2", "--sigma", "1e160", "--out", str(path)])
    elif kind == "constant":
        polys = [MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(0, 0): 5.0})]
        path.write_text(json.dumps(PolySystem(2, polys, true_roots=[], family_tag="").to_json_dict()))
    elif kind == "not-a-system":
        path.write_text('{"polys": 3}')
    elif kind == "nan-coefficient":
        run_cli(["gen", "--family", "cyclic_squares", "--d", "2", "--sigma", "0.5",
                 "--out", str(path)])
        data = json.loads(path.read_text())
        data["polys"][0]["terms"][0]["re"] = float("nan")
        path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "family, argv, message",
    [
        ("cyclic_squares", ["audit", "--root-index", "5"], "out of range"),
        ("cyclic_squares", ["audit", "--root", "0,0,0"], "3 coordinates"),
        ("notdev2d", ["solve", "--method", "mep"], "does not apply"),
        ("cyclic_squares", ["audit", "--method", "nf", "--root", "0.3,0.7"], "not a root"),
        ("cyclic_squares", ["audit", "--method", "macaulay", "--root", "0.3,0.7"], "not a root"),
        ("cyclic_squares", ["audit", "--method", "mep", "--root", "0.3,0.7"], "not a root"),
        (None, SWEEP + ["--family", "orthogonal", "--axis", "sigma", "--values", "0.1"], "requires --d"),
        (None, SWEEP + ["--family", "orthogonal", "--axis", "d", "--values", "2,3",
                        "--sigma", "0.1", "--shift", "0.1,0.2"], "shift has 2 coordinates"),
        (None, SWEEP + ["--family", "orthogonal", "--axis", "d", "--values", "2,3"], "needs sigma"),
        ("cyclic_squares", ["audit", "--root", "a,b"], "--root 'a,b'"),
        ("cyclic_squares", ["audit", "--method", "nf", "--root", "nan,0"], "not a root"),
        (None, GEN + ["--sigma", "nan"], "needs sigma"),
        (None, GEN + ["--sigma", "inf"], "needs sigma"),
        (None, GEN + ["--sigma", "0.1", "--shift", "a,b"], "--shift 'a,b'"),
        (None, GEN + ["--sigma", "0.1", "--shift", "0.1,nan"], "shift must be finite"),
        (None, SWEEP + ["--family", "orthogonal", "--axis", "d", "--values", "2.5",
                        "--sigma", "0.1"], "dimension 2.5 is not an integer"),
        ("missing", ["solve", "--method", "nf"], "cannot read --system"),
        ("not-a-system", ["solve", "--method", "nf"], "is not a system JSON"),
        ("nan-coefficient", ["audit"], "is not finite"),
        (None, GEN + ["--sigma", "0.1", "--shift", "1e200,1e200"], "shifted coefficients overflow"),
        (None, ["gen", "--family", "hypercube", "--d", "2", "--c", "1e-300"], "hypercube c=1e-300"),
        (None, ["gen", "--family", "hypercube", "--d", "2", "--c", "1e-160"], "hypercube c=1e-160"),
        ("rank-deficient", ["solve", "--method", "nf"], "method nf failed: RankDeficientBasis"),
        ("rank-deficient", ["solve", "--method", "macaulay"], "method macaulay failed: RankDeficientBasis"),
        ("rank-deficient", ["audit", "--method", "nf"], "method nf failed: RankDeficientBasis"),
        ("constant", ["solve", "--method", "nf"], "method nf failed: NullityMismatch: Bezout count 0"),
        ("constant", ["solve", "--method", "macaulay"], "method macaulay failed: NullityMismatch"),
        (None, ["sweep", "--custom", "--method", "gb", "--family", "orthogonal", "--axis", "sigma",
                "--values", "1e-2", "--d", "2", "--trials", "1"], "gb runs only on the cyclic_squares family"),
        (None, ["sweep", "--custom", "--method", "rur", "--family", "orthogonal", "--axis", "sigma",
                "--values", "1e-2", "--d", "2", "--trials", "1"], "rur runs only on the hypercube family"),
        (None, ["sweep", "--custom", "--method", "gb", "--family", "hypercube", "--axis", "c",
                "--values", "10", "--d", "2", "--trials", "1"], "gb runs only on the cyclic_squares family"),
        (None, ["sweep", "--figure", "1c", "--trials", "0"], "--trials 0 is below 1"),
        (None, ["sweep", "--figure", "1c", "--trials", "-2"], "--trials -2 is below 1"),
        ("overflow", ["solve", "--method", "mep"], "method mep failed: LinAlgError"),
        ("overflow", ["audit", "--method", "mep"], "method mep failed: LinAlgError: det J(x*) is not finite"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_with_one_line(tmp_path, capsys, family, argv, message):
    """family names the --system file: a generated family or a broken_system kind.

    A warning is an error here: each bad input gets its one line and nothing else.
    """
    if family is None:
        argv = argv + ["--out", str(tmp_path / "plots")]
    else:
        sys_path = tmp_path / "sys.json"
        if family in BROKEN_KINDS:
            broken_system(family, sys_path)
        else:
            run_cli(["gen", "--family", family, "--d", "2", "--sigma", "0.5", "--out", str(sys_path)])
        capsys.readouterr()
        argv = argv[:1] + ["--system", str(sys_path)] + argv[1:]
    code = run_cli(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "plots").exists()


def test_audit_all_records_each_failure_and_goes_on(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    broken_system("rank-deficient", sys_path)
    capsys.readouterr()
    # Every record is written, and with no kappa among them the audit exits 1.
    assert run_cli(["audit", "--system", str(sys_path)]) == 1
    captured = capsys.readouterr()
    assert "no method produced a kappa" in captured.err
    out = json.loads(captured.out)
    failed = "RankDeficientBasis: candidate null space rows are rank deficient"
    assert out["nf"] == {"method": "nf", "failed": failed}
    assert out["macaulay"] == {"method": "macaulay", "failed": failed}
    assert out["mep"] == {"method": "mep", "unsupported": "mixed quadratic term present"}


def test_audit_requires_a_root_when_none_is_stored(tmp_path, capsys):
    from polylab import FamilySpec, generate

    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    bare = PolySystem(d=s.d, polys=s.polys, true_roots=[], family_tag="")
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(bare.to_json_dict()))
    assert run_cli(["audit", "--system", str(path)]) == 1
    assert "pass --root" in capsys.readouterr().err


def test_sweep_figure_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "plots"
    code = run_cli(["sweep", "--figure", "1c", "--trials", "1", "--out", str(out)])
    assert code == 0
    records = read_csv(out / "fig1c.csv")
    assert len(records) == 9
    assert (out / "fig1c.svg").read_text().startswith("<svg")
    assert "fig1c.csv" in capsys.readouterr().out


def test_sweep_figure_group_expands(tmp_path):
    out = tmp_path / "plots"
    code = run_cli(["sweep", "--figure", "4", "--trials", "2", "--out", str(out)])
    assert code == 0
    for name in ("fig4a.csv", "fig4a.svg", "fig4b.csv", "fig4b.svg"):
        assert (out / name).exists()


def test_sweep_custom_builds_a_spec_from_flags(tmp_path):
    out = tmp_path / "plots"
    code = run_cli(
        ["sweep", "--custom", "--method", "nf", "--family", "orthogonal",
         "--axis", "sigma", "--values", "0.1,0.01", "--d", "2",
         "--shift", "0.333,0.333", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    records = read_csv(out / "figcustom.csv")
    assert [r.x for r in records] == [0.1, 0.01]
    assert all(r.median_digits > 4.0 for r in records)


def test_sweep_demands_a_mode():
    with pytest.raises(SystemExit):
        run_cli(["sweep"])


def test_sweep_custom_reports_missing_flags():
    with pytest.raises(SystemExit, match="values"):
        run_cli(["sweep", "--custom", "--method", "nf", "--family", "orthogonal",
                 "--axis", "sigma"])


def test_sweep_rejects_unknown_figures():
    with pytest.raises(SystemExit):
        run_cli(["sweep", "--figure", "99"])


def test_verify_single_suite_prints_json_and_passes(capsys):
    code = run_cli(["verify", "--suite", "lemmaA1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(out) == ["lemmaA1"]
    assert out["lemmaA1"]["passed"] is True
    assert "max_log_excess_over_u0" in out["lemmaA1"]["details"]


def test_verify_exit_code_tracks_failures(capsys, monkeypatch):
    from polylab import verification

    def stub(seed=1):
        return verification.VerificationResult(name="lemmaA1", passed=False, details={})

    monkeypatch.setitem(verification.SUITES, "lemmaA1", stub)
    code = run_cli(["verify", "--suite", "lemmaA1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["lemmaA1"]["passed"] is False


@pytest.mark.parametrize(
    "family,d",
    [("orthogonal", 2), ("orthogonal", 3), ("orthogonal", 4), ("permutation", 2),
     ("permutation", 3), ("permutation", 4), ("notdev2d", 2), ("notdev3d", 3)],
)
def test_audit_kappa_equals_the_maximum_over_coordinates(family, d):
    shift = (0.3, -0.7, 0.5, -0.1)[:d]
    s = generate(FamilySpec(family=family, d=d, sigma=1e-2, shift=shift))
    x = np.array(s.true_roots[0])
    sel = choose_basis(macaulay_hat(s))
    want = {"nf": max(kappa_eig_ms_formula(s, x, sel, i) for i in range(d))}
    if not family.startswith("notdev"):
        mep = mep_from_system(s)
        want["mep"] = max(kappa_eig_mep_formula(mep, s, x, i) for i in range(d))
    for method, kappa in want.items():
        assert _audit_one(s, x, method, seed=5).kappa_sub == kappa
    fresh = kappa_eig_macaulay_bound(s, x, macaulay_pencil(s, np.random.default_rng(5)))
    assert _audit_one(s, x, "macaulay", seed=5).kappa_sub == pytest.approx(fresh, rel=1e-12)


@pytest.mark.parametrize("method", ["gb", "rur", "all"])
def test_audit_one_rejects_a_name_outside_the_methods(method):
    s = generate(FamilySpec(family="permutation", d=2, sigma=1e-2))
    with pytest.raises(ValueError, match="unknown method"):
        _audit_one(s, np.array(s.true_roots[0]), method, seed=5)
