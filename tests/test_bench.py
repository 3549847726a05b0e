"""Sweep driver, accuracy metric, and the CSV/SVG emitters."""

import math
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from polylab import (
    SweepRecord,
    SweepSpec,
    digits_of_accuracy,
    emit_csv,
    emit_svg,
    read_csv,
    run_sweep,
    run_sweeps,
    theory_digits,
)
from polylab import FAMILIES, FamilySpec, bench, conditioning, generate, numkernel, solvers
from polylab.numkernel import SvdFactor
from polylab.bench import CSV_HEADER, FIGURES, _broadcast_shift, axis_label, with_overrides


def test_digits_of_accuracy_clamps_and_logs():
    assert digits_of_accuracy(0.0) == 16.0
    assert digits_of_accuracy(1e-8) == pytest.approx(8.0)
    assert digits_of_accuracy(1e-20) == 16.0
    assert digits_of_accuracy(2.0) == 0.0
    assert digits_of_accuracy(None) == 0.0
    assert digits_of_accuracy(math.inf) == 0.0


def test_broadcast_shift_repeats_scalar_presets():
    assert _broadcast_shift(None, 4) is None
    assert _broadcast_shift((1 / 3,), 3) == (1 / 3, 1 / 3, 1 / 3)
    assert _broadcast_shift((0.1, 0.2), 2) == (0.1, 0.2)
    with pytest.raises(ValueError, match="expected 1 or d = 3"):
        _broadcast_shift((0.1, 0.2), 3)


def test_with_overrides_touches_only_trials_and_seed():
    spec = FIGURES["1e"]
    out = with_overrides(spec, n_trials=3, seed=9)
    assert out.n_trials == 3 and out.seed == 9
    assert out.method == spec.method and out.values == spec.values
    assert with_overrides(spec) == spec


@pytest.mark.parametrize("n_trials", [0, -1])
def test_a_sweep_needs_at_least_one_trial(n_trials):
    # Without the check a sweep of no trials would take the median of an
    # empty list: a RuntimeWarning and a NaN row.
    with pytest.raises(ValueError, match="below 1"):
        replace(FIGURES["1c"], n_trials=n_trials)
    with pytest.raises(ValueError, match="below 1"):
        with_overrides(FIGURES["1c"], n_trials=n_trials)
    assert replace(FIGURES["1c"], n_trials=1).n_trials == 1


def test_figure_registry_is_complete_and_consistent():
    assert sorted(FIGURES) == ["1c", "1d", "1e", "1f", "1g", "2", "3", "4a", "4b", "5"]
    for name, spec in FIGURES.items():
        assert spec.name == name
        assert spec.axis in ("sigma", "c", "d")
        assert len(spec.values) >= 5
        # every preset pairing has a predicted line and a stable line
        fspec = bench._family_spec(spec, spec.values[0])
        theory_digits(spec.method, fspec)
        theory_digits("stable", fspec)


def test_run_sweep_gb_tracks_the_predicted_digits():
    spec = SweepSpec(
        name="t", method="gb", family="cyclic_squares", axis="sigma",
        values=(1e-2, 1e-1), d=2, shift=(1 / 3, 1 / 3), n_trials=1,
    )
    records = run_sweep(spec)
    assert [r.x for r in records] == [1e-2, 1e-1]
    for r in records:
        assert r.n_trials == 1
        assert r.theory_digits == theory_digits("gb", FamilySpec(family="cyclic_squares", d=2, sigma=r.x))
        assert abs(r.median_digits - r.theory_digits) <= 1.5
        assert r.stable_digits == pytest.approx(16.0 + math.log10(r.x))


def test_run_sweep_handles_pairs_without_a_theory_line():
    spec = SweepSpec(
        name="t", method="nf", family="cyclic_squares", axis="sigma",
        values=(0.5,), d=2, n_trials=2,
    )
    rec = run_sweep(spec)[0]
    assert math.isnan(rec.theory_digits)
    assert math.isfinite(rec.stable_digits)
    assert rec.median_digits > 8.0


def test_run_sweep_counts_solver_failures_as_zero_digits():
    # the operator-determinant method cannot represent mixed quadratics
    spec = SweepSpec(
        name="t", method="mep", family="notdev2d", axis="sigma",
        values=(0.1,), d=2, n_trials=3,
    )
    rec = run_sweep(spec)[0]
    assert rec.median_digits == 0.0


@pytest.mark.filterwarnings("error")
def test_run_sweep_records_an_overflowing_delta_as_zero_digits():
    # at sigma = 1e160 the permutation system's Delta_0 overflows
    spec = SweepSpec(
        name="custom", method="mep", family="permutation", axis="sigma",
        values=(1e160,), d=2, n_trials=1,
    )
    (rec,) = run_sweep(spec)
    assert rec.x == 1e160 and rec.median_digits == 0.0


def test_run_sweep_rejects_unknown_methods():
    spec = SweepSpec(
        name="t", method="warp", family="cyclic_squares", axis="sigma",
        values=(0.1,), d=2, n_trials=1,
    )
    with pytest.raises(ValueError):
        run_sweep(spec)


@pytest.mark.parametrize(
    "method, family, axis",
    [("gb", "orthogonal", "sigma"), ("rur", "orthogonal", "sigma"), ("gb", "hypercube", "c"),
     ("rur", "cyclic_squares", "sigma")],
)
def test_closed_form_methods_run_only_on_their_family(method, family, axis):
    # gb's closed form is cyclic_squares' elimination polynomial and rur's
    # the hypercube's: on any other family a trial would measure the wrong
    # curve, or not run at all.
    spec = SweepSpec(name="t", method=method, family=family, axis=axis, values=(1e-2,), d=2, n_trials=1)
    with pytest.raises(ValueError, match=f"method {method} runs only on the"):
        run_sweep(spec)


@pytest.mark.parametrize("shift", [None, (0.0,), (0.0, 1 / 3)])
def test_an_unshifted_gb_sweep_is_rejected(shift):
    # With shift 0 the eliminant's constant term is exactly 0, so the
    # companion matrix returns the designated root 0 exactly: 16 digits at
    # every sigma, whatever the prediction.
    spec = SweepSpec(
        name="t", method="gb", family="cyclic_squares", axis="sigma", values=(1e-2,), d=2, shift=shift, n_trials=1
    )
    with pytest.raises(ValueError, match=r"^method gb needs a nonzero --shift"):
        bench._family_spec(spec, 1e-2)
    with pytest.raises(ValueError, match=r"^method gb needs a nonzero --shift"):
        run_sweep(spec)
    assert bench._family_spec(replace(spec, shift=(1 / 3,)), 1e-2).shift == (1 / 3, 1 / 3)


def test_a_sweep_runs_on_one_blas_thread_and_restores_the_count(two_blas_threads, monkeypatch):
    # The d = 4 and 5 Macaulay SVDs round differently on two threads, so
    # an unpinned sweep's records depend on the machine. Fresh replay slots
    # make each run factor its own systems.
    spec = SweepSpec(
        name="t", method="nf", family="orthogonal", axis="d", values=(4, 5), sigma=1e-2, shift=(1 / 3,), n_trials=3
    )
    monkeypatch.setattr(bench, "_LAST_SYSTEM", {})
    on_two = run_sweep(spec)
    assert numkernel._BLAS_THREADS() == 2
    monkeypatch.setattr(bench, "_LAST_SYSTEM", {})
    with numkernel._one_blas_thread():
        on_one = run_sweep(spec)
    assert on_two == on_one


@pytest.mark.parametrize(
    "method, family, axis", [("nf", "orthogonal", "sigma"), ("rur", "hypercube", "c")]
)
def test_a_non_integer_dimension_is_rejected_on_every_axis(method, family, axis):
    # SweepSpec.d obeys the d axis's rule: 2.0 runs at d = 2, and 2.5 (or
    # no d at all) is refused rather than truncated.
    spec = SweepSpec(name="t", method=method, family=family, axis=axis, values=(1e-2,), d=2.5, n_trials=2)
    with pytest.raises(ValueError, match=r"^dimension 2\.5 is not an integer$"):
        bench._family_spec(spec, spec.values[0])
    with pytest.raises(ValueError, match=r"^dimension 2\.5 is not an integer$"):
        run_sweep(spec)
    with pytest.raises(ValueError, match=r"^dimension None is not an integer$"):
        run_sweep(replace(spec, d=None))
    fspec = bench._family_spec(replace(spec, d=2.0), spec.values[0])
    assert fspec.d == 2 and type(fspec.d) is int
    assert run_sweep(replace(spec, d=2.0)) == run_sweep(replace(spec, d=2))


@pytest.mark.filterwarnings(r"ignore:sigma\^\(2\^d - 1\) underflowed:RuntimeWarning")
@pytest.mark.parametrize(
    "method, family, sigma, d", [("gb", "cyclic_squares", 1e-8, 6), ("mep", "permutation", 1e-300, 3)]
)
def test_a_theory_line_that_overflows_reads_zero_digits(method, family, sigma, d):
    # sigma^-63 and sigma^-900 overflow a float: kappa = inf, so 0 digits,
    # and the sweep still returns its record. gb runs only shifted.
    shift = (1 / 3,) if method == "gb" else None
    spec = SweepSpec(
        name="custom", method=method, family=family, axis="sigma", values=(sigma,), d=d, shift=shift, n_trials=1
    )
    (rec,) = run_sweep(spec)
    assert rec.theory_digits == 0.0
    assert theory_digits(method, FamilySpec(family=family, d=d, sigma=sigma)) == 0.0


@pytest.mark.parametrize("method", ["nf", "macaulay"])
def test_hypercube_sweeps_score_a_listed_root(method):
    # No hypercube root lies at the origin plus the shift; scoring the
    # distance to it read log10 c = 1 digit here.
    spec = SweepSpec(name="custom", method=method, family="hypercube", axis="c", values=(10.0,), d=2, n_trials=3)
    (rec,) = run_sweep(spec)
    assert rec.median_digits >= 10.0


def test_run_sweep_is_deterministic():
    spec = SweepSpec(
        name="t", method="nf", family="orthogonal", axis="sigma",
        values=(1e-2, 1e-1), d=2, shift=(1 / 3, 1 / 3), n_trials=4,
    )
    assert run_sweep(spec) == run_sweep(spec)


def _seeded(idx, trial):
    return np.random.default_rng(np.random.SeedSequence([1, idx, trial]))


def _counting_generate(monkeypatch, before=None):
    """Patch bench.generate to count its calls, calling ``before`` first.

    The test runs on empty slots of its own, so no build it patched is
    replayed after it.
    """
    calls = []
    original = bench.generate

    def counted(fspec, rng=None):
        calls.append(fspec)
        if before is not None:
            before()
        return original(fspec, rng=rng)

    monkeypatch.setattr(bench, "generate", counted)
    monkeypatch.setattr(bench, "_LAST_SYSTEM", {})
    return calls


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_replayed_system_equals_a_fresh_generate(family, shifted):
    d = {"notdev2d": 2, "notdev3d": 3}.get(family, 2)
    scale = {"c": 2.0} if family == "hypercube" else {"sigma": 0.1}
    fspec = FamilySpec(family=family, d=d, shift=(0.3,) * d if shifted else None, **scale)
    bench._LAST_SYSTEM.clear()
    built = bench._shared_system(fspec, _seeded(2, 1))
    rng, fresh_rng = _seeded(2, 1), _seeded(2, 1)
    replayed = bench._shared_system(fspec, rng)
    fresh = generate(fspec, rng=fresh_rng)
    assert replayed is built and replayed is not fresh
    assert replayed.compiled.coeffs.tobytes() == fresh.compiled.coeffs.tobytes()
    assert replayed.to_json_dict() == fresh.to_json_dict()
    assert np.array(replayed.true_roots).tobytes() == np.array(fresh.true_roots).tobytes()
    assert replayed.family_tag == fresh.family_tag == family
    # The rng ends where the fresh build left it, so later draws agree.
    assert rng.bit_generator.state == fresh_rng.bit_generator.state
    assert rng.standard_normal(4).tobytes() == fresh_rng.standard_normal(4).tobytes()


def test_paired_trials_share_the_system_and_return_the_unpaired_errors(monkeypatch):
    # 4a (nf) and 4b (macaulay) draw the same notdev2d system from equal
    # seeded rngs: the second trial replays the first one's build, solves
    # its system object and reuses its factorization, and both errors are
    # those of lone trials.
    factored = []
    original = SvdFactor._in_place
    monkeypatch.setattr(SvdFactor, "_in_place", staticmethod(lambda A: factored.append(1) or original(A)))
    built = _counting_generate(monkeypatch)
    a, b = FIGURES["4a"], FIGURES["4b"]
    paired, unpaired = [], []
    for idx, x in enumerate(a.values):
        for trial in range(2):
            for spec in (a, b):
                try:
                    paired.append(bench._trial_error(spec, x, _seeded(idx, trial)))
                except bench.SOLVER_FAILURES as exc:
                    paired.append(type(exc))
    n_paired = len(factored)
    assert len(built) == 2 * len(a.values)
    for idx, x in enumerate(a.values):
        for trial in range(2):
            for spec in (a, b):
                bench._LAST_SYSTEM.clear()
                try:
                    unpaired.append(bench._trial_error(spec, x, _seeded(idx, trial)))
                except bench.SOLVER_FAILURES as exc:
                    unpaired.append(type(exc))
    assert paired == unpaired
    assert n_paired < len(factored) - n_paired


def test_a_replayed_trial_issues_the_builds_warnings_again(monkeypatch):
    built = _counting_generate(monkeypatch, lambda: warnings.warn("drawn", UserWarning))
    a, b = FIGURES["4a"], FIGURES["4b"]
    for spec in (a, b):
        with pytest.warns(UserWarning, match="^drawn$") as caught:
            bench._trial_error(spec, a.values[3], _seeded(3, 0))
        assert [str(w.message) for w in caught if w.category is UserWarning] == ["drawn"]
    assert len(built) == 1


def test_a_failed_build_issues_its_warnings_and_stores_nothing(monkeypatch):
    def fail():
        warnings.warn("drawn", UserWarning)
        raise ValueError("no system")

    built = _counting_generate(monkeypatch, fail)
    for _ in range(2):
        with pytest.warns(UserWarning, match="^drawn$"), pytest.raises(ValueError, match="no system"):
            bench._trial_error(FIGURES["4a"], 1e-2, _seeded(0, 0))
    assert len(built) == 2 and not bench._LAST_SYSTEM


def test_run_sweeps_gives_each_specs_run_sweep_records():
    # Each run starts with no built systems, so the lone runs cannot replay
    # the paired run's builds.
    specs = [with_overrides(FIGURES[name], n_trials=3) for name in ("1e", "1f", "1g", "4a", "4b")]
    specs.append(replace(specs[1], name="t", values=specs[1].values[:2], n_trials=5))
    bench._LAST_SYSTEM.clear()
    paired = run_sweeps(specs)
    lone = []
    for spec in specs:
        bench._LAST_SYSTEM.clear()
        lone.append(run_sweep(spec))
    assert paired == lone
    assert run_sweeps([]) == []


def test_a_sweep_trial_runs_one_right_only_qz_and_no_condition_number(monkeypatch):
    # A trial reads only the roots. With kappa_roots and kappa_eig raising,
    # nf and macaulay sweeps give the records and per-trial digits they give
    # without, and every solve runs one QZ without left vectors. A failed
    # solve runs one (4b's sigma = 1e-8 trial 5, NullityMismatch) or none
    # (fig 5 at sigma = 1, RankDeficientBasis).
    specs = [with_overrides(FIGURES[name], n_trials=6) for name in ("1f", "1g", "4b", "5")]
    specs += [
        SweepSpec(name=f"dim-{method}", method=method, family="orthogonal", axis="d",
                  values=(3,), sigma=1e-2, shift=(1 / 3,), n_trials=3)
        for method in ("nf", "macaulay")
    ]

    def outcomes():
        bench._LAST_SYSTEM.clear()
        records = [run_sweep(spec) for spec in specs]
        digits = [bench._one_trial_digits(spec, idx, x, trial)
                  for spec in specs for idx, x in enumerate(spec.values) for trial in range(spec.n_trials)]
        return records, digits

    want = outcomes()

    def raising(*args):
        raise AssertionError("a sweep trial computed a condition number")

    monkeypatch.setattr(conditioning, "kappa_roots", raising)
    monkeypatch.setattr(solvers, "kappa_eig", raising)
    qz, solves = [], []
    zggev = numkernel._zggev
    monkeypatch.setattr(numkernel, "_zggev", lambda A, B, left: qz.append(left) or zggev(A, B, left))
    for name in ("solve_normal_form", "solve_macaulay_resultant"):
        def counted(*args, _solver=getattr(solvers, name), **kwargs):
            start = len(qz)
            try:
                report = _solver(*args, **kwargs)
            except bench.SOLVER_FAILURES:
                solves.append((len(qz) - start, "failed"))
                raise
            solves.append((len(qz) - start, "solved"))
            return report

        monkeypatch.setattr(solvers, name, counted)
    assert outcomes() == want
    assert qz and not any(qz)
    assert {n for n, how in solves if how == "solved"} == {1}
    assert {n for n, how in solves if how == "failed"} == {0, 1}
    assert len(solves) == 2 * sum(len(spec.values) * spec.n_trials for spec in specs)


def test_csv_round_trip_preserves_records():
    records = [
        SweepRecord(x=1e-3, median_digits=7.25, theory_digits=6.0, stable_digits=13.0, n_trials=5),
        SweepRecord(x=1e-2, median_digits=9.5, theory_digits=float("nan"), stable_digits=14.0, n_trials=5),
    ]
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        emit_csv(records, path)
        back = read_csv(path)
    assert len(back) == 2
    assert back[0] == records[0]
    assert back[1].x == records[1].x
    assert math.isnan(back[1].theory_digits)
    assert back[1].stable_digits == records[1].stable_digits


def test_read_csv_rejects_foreign_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


@pytest.mark.parametrize("row", ["0.01,7,6,13", "0.01,7,6,13,5,1"])
def test_read_csv_rejects_a_row_of_another_width(tmp_path, row):
    path = tmp_path / "sweep.csv"
    path.write_text(CSV_HEADER + "\n" + row + "\n")
    with pytest.raises(ValueError):
        read_csv(path)


def _svg_root(records, tmp_path, **kw):
    path = tmp_path / "plot.svg"
    emit_svg(records, path, **kw)
    return ET.parse(path).getroot()


def test_svg_has_three_series_and_a_title(tmp_path):
    records = [
        SweepRecord(x=10.0**-k, median_digits=16 - k, theory_digits=16 - 2 * k,
                    stable_digits=16 - 0.5 * k, n_trials=3)
        for k in range(1, 5)
    ]
    root = _svg_root(records, tmp_path, title="demo", xlabel="coupling strength")
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f"{ns}polyline")
    assert len(polys) == 3
    assert all(len((p.get("points") or "").split()) == len(records) for p in polys)
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert "demo" in texts
    assert "coupling strength" in texts
    assert "1e-4" in texts  # log ticks


def test_svg_skips_series_with_no_finite_points(tmp_path):
    records = [
        SweepRecord(x=float(d), median_digits=10.0, theory_digits=float("nan"),
                    stable_digits=12.0, n_trials=1)
        for d in (2, 3, 4, 5, 6)
    ]
    root = _svg_root(records, tmp_path, log_x=False)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 2
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert "2" in texts and "6" in texts  # linear ticks


def test_axis_labels_name_the_swept_quantity():
    assert axis_label(FIGURES["1c"]) == "coupling strength"
    assert axis_label(FIGURES["1d"]) == "scale parameter"
    assert axis_label(FIGURES["3"]) == "dimension"
