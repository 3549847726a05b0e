"""Tests of the benchmark itself: trial fidelity, output checks, tracing, contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from polylab import bench, solvers

from perfbench import env, layers, tracer as tr, workloads

SMALL_SPECS = (
    replace(bench.FIGURES["1f"], values=bench.FIGURES["1f"].values[:3], n_trials=5),
    replace(bench.FIGURES["3"], values=(2, 3), n_trials=3),
    replace(workloads.MACAULAY_DIM, method="macaulay", values=(2, 3), n_trials=3),
)


def _small_workload(spec, seed):
    points = workloads._sweep_points((spec,), seed)
    return workloads.Workload("small", "sweep", seed, points, (spec,), tail_pct=90.0)


def _trial_outcomes(wl):
    return {p.key: [workloads.run_trial(p, t, tr.NO_TRACE) for t in range(p.n_trials)]
            for p in wl.points}


def _reference_for(wl, outcomes, medians):
    """A reference recorded from one seed, shaped as record_reference writes it."""
    spec = wl.specs[0]
    keys = [p.key for p in wl.points]
    points = {}
    for p in wl.points:
        stats = workloads.point_stats(p, outcomes[p.key])
        points[p.key] = {label: [value] for label, value in stats.items()}
    return {"seed": wl.seed, "points": points, "sweeps": {spec.name: {
        "spec": workloads.spec_fields(spec),
        "run_sweep_median": medians,
        "digits": [[o.digits for o in outcomes[k]] for k in keys],
        "failure": [[o.failure for o in outcomes[k]] for k in keys],
    }}}


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", (1, 5))
def test_trials_reproduce_run_sweep_medians(spec, seed):
    medians = [r.median_digits for r in bench.run_sweep(replace(spec, seed=seed))]
    outcomes = _trial_outcomes(_small_workload(spec, seed))
    got = [float(np.median([o.digits for o in outs])) for outs in outcomes.values()]
    assert got == medians


def test_the_seed_reaches_the_library():
    spec = SMALL_SPECS[0]
    a = _trial_outcomes(_small_workload(spec, 1))
    b = _trial_outcomes(_small_workload(spec, 2))
    assert [o.digits for outs in a.values() for o in outs] != [o.digits for outs in b.values() for o in outs]


def test_rounds_never_repeat_an_input_and_keep_the_sweep_mix():
    wl = workloads.build("presets-small", seed=3)
    rounds = workloads.schedule(wl)
    seen = set()
    per_spec: dict = {}
    for _ in range(2 * wl.period):
        for p, trial in next(rounds):
            assert (p.key, trial) not in seen
            seen.add((p.key, trial))
            per_spec[p.spec.name] = per_spec.get(p.spec.name, 0) + 1
    # Over whole periods every point runs its n_trials per period.
    assert per_spec == {s.name: 2 * s.n_trials * len(s.values) for s in wl.specs}
    first = {(p.key, t) for p in wl.points for t in range(p.n_trials)}
    assert first <= seen


def _by_trial(outcomes):
    return {key: dict(enumerate(outs)) for key, outs in outcomes.items()}


def test_passes_are_whole_runs_of_n_trials():
    p = workloads._sweep_points((SMALL_SPECS[0],), 1)[0]  # n_trials = 5
    seen = {t: t for t in range(13) if t != 7}
    assert workloads.passes(p, seen) == [[0, 1, 2, 3, 4]]
    seen[7] = 7
    assert workloads.passes(p, seen) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


def test_perturbed_reference_is_rejected():
    spec = SMALL_SPECS[0]
    wl = _small_workload(spec, 1)
    outcomes = _trial_outcomes(wl)
    medians = [r.median_digits for r in bench.run_sweep(spec)]
    ref = _reference_for(wl, outcomes, medians)
    points = wl.points
    assert workloads.validate_reference(wl, ref) == []
    assert all(workloads.check_trial(p, t, outcomes[p.key][t], ref) is None
               for p in points for t in range(spec.n_trials))
    assert workloads.check_points(wl, _by_trial(outcomes), ref) == []

    bad = json.loads(json.dumps(ref))
    bad["sweeps"][spec.name]["digits"][1][2] += 1.5
    assert workloads.check_trial(points[1], 2, outcomes[points[1].key][2], bad) is not None

    bad = json.loads(json.dumps(ref))
    bad["sweeps"][spec.name]["failure"][0][0] = "RankDeficientBasis"
    assert "failure" in workloads.check_trial(points[0], 0, outcomes[points[0].key][0], bad)

    bad = json.loads(json.dumps(ref))
    bad["sweeps"][spec.name]["run_sweep_median"][2] += 1.0
    assert workloads.validate_reference(wl, bad)
    assert workloads.check_points(wl, _by_trial(outcomes), bad)

    bad = json.loads(json.dumps(ref))
    bad["points"][points[0].key]["median"][0] -= 1.0
    assert workloads.check_points(wl, _by_trial(outcomes), bad)

    bad = json.loads(json.dumps(ref))
    bad["points"][points[0].key]["failures"][0] = {"RankDeficientBasis": 5}
    assert "RankDeficientBasis" in workloads.check_points(wl, _by_trial(outcomes), bad)[0]

    # A pass past the first is held to the same ranges.
    later = _by_trial(outcomes)
    failed = workloads.Outcome(digits=0.0, failure="SingularPencil", warnings={})
    later[points[0].key].update({t: failed for t in range(spec.n_trials, 2 * spec.n_trials)})
    assert any("pass 1" in m for m in workloads.check_points(wl, later, ref))
    # A first pass that did not finish is a problem.
    short = _by_trial(outcomes)
    del short[points[2].key][spec.n_trials - 1]
    assert workloads.check_points(wl, short, ref)

    bad = json.loads(json.dumps(ref))
    bad["sweeps"][spec.name]["spec"]["sigma"] = 0.5
    assert workloads.validate_reference(wl, bad)

    # Another seed is held to the recorded ranges, not to the recorded trials.
    other = _small_workload(spec, 2)
    other_outcomes = _trial_outcomes(other)
    assert all(workloads.check_trial(p, t, other_outcomes[p.key][t], ref) is None
               for p in other.points for t in range(spec.n_trials))
    assert [m for m in workloads.check_points(other, _by_trial(other_outcomes), ref)
            if "digits" not in m] == []


def test_audit_kappas_checked_to_relative_tolerance():
    wl = workloads.build("audit")
    p = next(q for q in wl.points if q.key == "orthogonal/2/macaulay")
    out = workloads.run_trial(p, 0, tr.NO_TRACE)
    ref = {"seed": 1, "audit": {p.key: {"kappa_root": [out.kappas[0]], "kappa_sub": [out.kappas[1]]}}}
    assert workloads.check_trial(p, 0, out, ref) is None
    ref["audit"][p.key]["kappa_sub"][0] *= 1.0 + 1e-3
    assert "kappa_sub" in workloads.check_trial(p, 0, out, ref)


def test_recorded_reference_holds_at_this_commit():
    ref = workloads.load_reference()
    for name in workloads.NAMES:
        wl = workloads.build(name)
        assert workloads.validate_reference(wl, ref) == []
        for p in wl.points:
            if p.spec is not None and p.spec.name.startswith("macaulay-dim") and p.x == 5:
                continue  # about a second each; benchmark runs check them
            out = workloads.run_trial(p, 0, tr.NO_TRACE)
            assert workloads.check_trial(p, 0, out, ref) is None
    # The two known defect signals are part of the baseline, on every seed.
    assert ref["points"]["5/8"]["failures"] == [{"RankDeficientBasis": 100}] * len(ref["seeds"])
    assert ref["points"]["1d/8"]["warnings"][0] == {"RuntimeWarning": 2}


def test_trace_self_times_add_up_and_wrappers_are_removed():
    wl = workloads.build("presets-small", seed=3)
    original = solvers.macaulay_hat
    tracer = tr.Tracer()
    outs = []
    with tr.instrument(tracer):
        assert solvers.macaulay_hat is not original
        for i, (p, trial) in enumerate(next(workloads.schedule(wl))):
            tracer.trial = i
            with tracer.span("trial"):
                outs.append(workloads.run_trial(p, trial, tracer))
    assert solvers.macaulay_hat is original
    m = layers.per_layer(tracer, outs, 1.0, 1.0)
    parts = sum(m[f"{mod}.ms"] for mod in tr.MODULES) + m["trial.glue.ms"]
    assert parts == pytest.approx(m["trace.trial.ms"], rel=1e-9)
    assert m["solvers.failures.RankDeficientBasis"] == pytest.approx(1 / len(outs))
    assert m["numkernel.dense_factorizations.calls"] > 0
    assert m["macaulay.macaulay_hat.calls"] > 0
    assert m["bench.score.ms"] > 0
    assert set(m) == set(layers.metric_units())


def _benchmark_json():
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())


def test_run_prints_the_declared_metrics():
    bj = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(env.ROOT / "perfbench" / "run.py"), "--workload", "audit",
             "--seed", "424242", "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120, cwd=env.ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in bj[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        detail = json.loads((env.OUT / f"audit-seed424242-trace{trace}.json").read_text())
        assert detail["environment"]["python_hash_seed"] == env.HASH_SEED


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_follow_a_running_median():
    from perfbench import hostspeed

    assert hostspeed.kernel_ms() > 0
    flat = hostspeed.scales([2 * hostspeed.REFERENCE_MS] * 20)
    assert flat == [0.5] * 20
    # One slow kernel sample does not move the scale of the trials around it;
    # a lasting change of speed does.
    spiky = [hostspeed.REFERENCE_MS] * 20
    spiky[10] *= 5
    assert hostspeed.scales(spiky) == [1.0] * 20
    step = hostspeed.scales([hostspeed.REFERENCE_MS] * 20 + [2 * hostspeed.REFERENCE_MS] * 20)
    assert step[:16] == [1.0] * 16 and step[-16:] == [0.5] * 16
