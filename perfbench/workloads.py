"""The workloads: what a trial is, the round schedule, and output checks.

A sweep trial is `polylab.bench._trial_error` followed by
`digits_of_accuracy`, seeded as `bench.run_sweep` seeds it:
`SeedSequence([seed, point, trial])`, with the benchmark's `--seed` in place
of the spec's seed. The first `n_trials` trials of every point are therefore
exactly `run_sweep` on the spec with that seed, and with the default seed 1
they are the preset CSV values. An audit trial generates one system from the
same kind of seed and runs `polylab.cli._audit_one` on it: `kappa_root` next
to one method's closed-form subproblem kappa.

Round r runs trial index r of every point, so no input repeats within a run.
Points with fewer trials than the workload's longest sweep run once every
`max n_trials` rounds, which keeps each run's mix of points that of the sweep.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from polylab import bench, cli, families

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Seed 1 outputs must match the recorded trials: the same failure class, and
# digits within this much per trial (enough for rounding-level differences
# in a refactor, far below what a real loss of accuracy costs).
TRIAL_DIGITS_TOL = 1.0
# Relative tolerance on the recorded seed 1 audit kappas.
KAPPA_RTOL = 1e-6
# Any seed: a point's median digits over its first n_trials trials must lie
# within this many digits of the range its medians took over the recorded
# seeds, its failure share within FAILURE_SHARE_TOL of its recorded range,
# and an audit point's median log10 kappas within LOG_KAPPA_TOL decades.
MEDIAN_DIGITS_TOL = 0.5
FAILURE_SHARE_TOL = 0.1
LOG_KAPPA_TOL = 0.5

PRESETS_SMALL = ("1c", "1d", "1e", "1f", "1g", "4a", "4b", "5")

# Dimension sweep for the Macaulay-based solvers. It starts at d = 3 because
# presets-small already runs these d = 2 systems (figs 1f and 1g at sigma =
# 1e-2), and stops at d = 5 because one dense SVD of the d = 6 Macaulay
# matrix takes 11-13 s. 15 trials per point let a run finish its first pass
# in about 20 s.
MACAULAY_DIM = bench.SweepSpec(
    name="macaulay-dim-nf", method="nf", family="orthogonal", axis="d",
    values=(3, 4, 5), sigma=1e-2, shift=(1.0 / 3.0,), n_trials=15,
)

AUDIT_SIGMA = 1e-2
AUDIT_TRIALS = 100
AUDIT_SYSTEMS = (
    ("orthogonal", 2), ("orthogonal", 3), ("orthogonal", 4),
    ("permutation", 2), ("permutation", 3), ("permutation", 4),
    ("notdev2d", 2), ("notdev3d", 3),
)
AUDIT_METHODS = ("nf", "macaulay", "mep")


@dataclass(frozen=True)
class Point:
    """One axis point of a seeded sweep spec, or one (system, method) audit pairing."""

    key: str
    n_trials: int
    seed: int
    spec: bench.SweepSpec | None = None
    idx: int = 0
    x: float = 0.0
    family: str = ""
    d: int = 0
    method: str = ""


@dataclass
class Outcome:
    digits: float
    failure: str | None
    warnings: dict
    kappas: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # sweep | audit
    seed: int
    points: tuple
    specs: tuple  # the sweep specs as defined, before the seed is put in
    tail_pct: float  # fixed per workload, see README.md

    @property
    def period(self) -> int:
        """Rounds in one pass over every point's n_trials."""
        return max(p.n_trials for p in self.points)


def _sweep_points(specs, seed: int) -> tuple:
    points = []
    for spec in specs:
        seeded = replace(spec, seed=seed)
        for idx, x in enumerate(spec.values):
            points.append(Point(key=f"{spec.name}/{idx}", n_trials=spec.n_trials, seed=seed,
                                spec=seeded, idx=idx, x=x))
    return tuple(points)


def _audit_points(seed: int) -> tuple:
    points = []
    for idx, (family, d) in enumerate(AUDIT_SYSTEMS):
        for method in AUDIT_METHODS:
            if method == "mep" and family.startswith("notdev"):
                continue  # not a sum of pivotable squares: UnsupportedShape
            points.append(Point(key=f"{family}/{d}/{method}", n_trials=AUDIT_TRIALS, seed=seed,
                                idx=idx, family=family, d=d, method=method))
    return tuple(points)


def build(name: str, seed: int = 1) -> Workload:
    if name == "presets-small":
        specs = tuple(bench.FIGURES[f] for f in PRESETS_SMALL)
        return Workload(name, "sweep", seed, _sweep_points(specs, seed), specs, tail_pct=99.0)
    if name == "macaulay-dim":
        specs = (MACAULAY_DIM, replace(MACAULAY_DIM, name="macaulay-dim-macaulay", method="macaulay"))
        return Workload(name, "sweep", seed, _sweep_points(specs, seed), specs, tail_pct=90.0)
    if name == "audit":
        return Workload(name, "audit", seed, _audit_points(seed), (), tail_pct=99.0)
    raise KeyError(name)


NAMES = ("presets-small", "macaulay-dim", "audit")


# ---------------------------------------------------------------------------
# schedule


def schedule(workload: Workload):
    """Endless rounds of (point, trial index) pairs; round r runs trial r.

    A point joins round r when r modulo the workload's period is below its
    n_trials. The order within a round is shuffled by the seed.
    """
    period = workload.period
    r = 0
    while True:
        items = [(p, r) for p in workload.points if r % period < p.n_trials]
        shuffle = np.random.default_rng(np.random.SeedSequence([workload.seed, r]))
        yield [items[i] for i in shuffle.permutation(len(items))]
        r += 1


def warmup_items(workload: Workload) -> list:
    """One trial of the cheapest point of each spec (each audit method).

    Warm-up uses trial indices no round reaches, so the timed loop never
    repeats an input.
    """
    trial = 10**9
    if workload.kind == "audit":
        seen = {}
        for p in workload.points:
            seen.setdefault(p.method, p)
        return [(p, trial) for p in seen.values()]
    return [(next(p for p in workload.points if p.spec.name == spec.name), trial)
            for spec in workload.specs]


# ---------------------------------------------------------------------------
# trials


def run_trial(p: Point, trial: int, tracer) -> Outcome:
    """One trial; solver failures are outcomes, warnings are counted, not shown."""
    failure = None
    kappas = None
    err = math.inf
    rng = np.random.default_rng(np.random.SeedSequence([p.seed, p.idx, trial]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if p.spec is not None:
                err = bench._trial_error(p.spec, p.x, rng)
            else:
                s = families.generate(
                    families.FamilySpec(family=p.family, d=p.d, sigma=AUDIT_SIGMA), rng=rng
                )
                pencil_seed = int(rng.integers(2**32))
                report = cli._audit_one(s, np.array(s.true_roots[0]), p.method, pencil_seed)
                kappas = (report.kappa_root, report.kappa_sub)
        except bench.SOLVER_FAILURES as exc:
            failure = type(exc).__name__
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    if p.spec is None:
        # Digits the audited subproblem's condition number leaves at double precision.
        digits = 0.0 if kappas is None else float(min(16.0, max(0.0, 16.0 - math.log10(kappas[1]))))
    else:
        with tracer.span("bench.score"):
            digits = bench.digits_of_accuracy(err)
    return Outcome(digits=digits, failure=failure, warnings=counts, kappas=kappas)


# ---------------------------------------------------------------------------
# reference checks


def spec_fields(spec: bench.SweepSpec) -> dict:
    """The fields of a spec as defined; the seed is the benchmark's to choose."""
    return {
        "method": spec.method, "family": spec.family, "axis": spec.axis,
        "values": list(spec.values), "d": spec.d, "sigma": spec.sigma, "c": spec.c,
        "shift": None if spec.shift is None else list(spec.shift),
        "n_trials": spec.n_trials, "polish": spec.polish,
    }


def load_reference(path=REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def passes(p: Point, seen: dict) -> list:
    """The complete passes of one point: pass k holds the outcomes of trials
    k*n_trials .. (k+1)*n_trials - 1, in trial order, when all of them ran."""
    n = p.n_trials
    out = []
    for k in range(max(seen, default=-1) // n + 1):
        trials = range(k * n, (k + 1) * n)
        if all(t in seen for t in trials):
            out.append([seen[t] for t in trials])
    return out


def point_stats(p: Point, outs: list) -> dict:
    """What the reference keeps of one pass of a point: median digits, failure and
    warning counts, and for the audit the median log10 kappas."""
    failures, warns = {}, {}
    for o in outs:
        if o.failure:
            failures[o.failure] = failures.get(o.failure, 0) + 1
        for k, v in o.warnings.items():
            warns[k] = warns.get(k, 0) + v
    stats = {"median": float(np.median([o.digits for o in outs])),
             "failures": failures, "warnings": warns}
    if p.spec is None:
        logs = np.log10([o.kappas for o in outs if o.kappas is not None]).reshape(-1, 2)
        stats["log_kappa_root"] = float(np.median(logs[:, 0])) if logs.size else None
        stats["log_kappa_sub"] = float(np.median(logs[:, 1])) if logs.size else None
    return stats


def validate_reference(workload: Workload, ref: dict) -> list:
    """Problems with the reference itself, before any trial runs.

    The specs must still be the recorded ones, every point needs recorded
    statistics, and the recorded seed's per-trial digits must give the
    medians `run_sweep` reported.
    """
    problems = []
    for p in workload.points:
        if p.key not in ref.get("points", {}):
            problems.append(f"{p.key}: no recorded statistics")
    if workload.kind == "audit":
        for p in workload.points:
            entry = ref.get("audit", {}).get(p.key)
            if entry is None or len(entry["kappa_sub"]) != p.n_trials:
                problems.append(f"{p.key}: no reference for {p.n_trials} audit trials")
        return problems
    for spec in workload.specs:
        entry = ref.get("sweeps", {}).get(spec.name)
        if entry is None:
            problems.append(f"{spec.name}: not in the reference")
            continue
        if entry["spec"] != spec_fields(spec):
            problems.append(f"{spec.name}: spec differs from the recorded one")
            continue
        for idx, digits in enumerate(entry["digits"]):
            if float(np.median(digits)) != entry["run_sweep_median"][idx]:
                problems.append(f"{spec.name}/{idx}: recorded trials do not give run_sweep's median")
    return problems


def check_trial(p: Point, trial: int, out: Outcome, ref: dict) -> str | None:
    """None when a trial of the recorded seed's first pass matches its
    recorded outcome, else a description. Other trials are checked in bulk
    by check_points."""
    if p.seed != ref["seed"] or trial >= p.n_trials:
        return None
    if p.spec is not None:
        entry = ref["sweeps"][p.spec.name]
        want = entry["digits"][p.idx][trial]
        want_failure = entry["failure"][p.idx][trial]
        if out.failure != want_failure:
            return f"{p.key} trial {trial}: failure {out.failure}, recorded {want_failure}"
        if abs(out.digits - want) > TRIAL_DIGITS_TOL:
            return f"{p.key} trial {trial}: {out.digits:.3f} digits, recorded {want:.3f}"
        return None
    if out.failure is not None:
        return f"{p.key} trial {trial}: audit raised {out.failure}"
    entry = ref["audit"][p.key]
    for label, got, want in zip(("kappa_root", "kappa_sub"), out.kappas,
                                (entry["kappa_root"][trial], entry["kappa_sub"][trial])):
        if not math.isclose(got, want, rel_tol=KAPPA_RTOL):
            return f"{p.key} trial {trial}: {label} {got!r}, recorded {want!r}"
    return None


def _outside(value, recorded: list, tol: float) -> bool:
    return not (min(recorded) - tol <= value <= max(recorded) + tol)


def check_pass(p: Point, outs: list, ref: dict) -> list:
    """One complete pass of a point against the range of its recorded seeds.

    The median digits, the share of each failure class (0 where a seed saw
    none) and, for the audit, the median log10 kappas must each lie within
    their tolerance of the range the recorded seeds gave.
    """
    got = point_stats(p, outs)
    rec = ref["points"][p.key]
    problems = []
    if _outside(got["median"], rec["median"], MEDIAN_DIGITS_TOL):
        problems.append(f"median {got['median']:.3f} digits, "
                        f"recorded {min(rec['median']):.3f}..{max(rec['median']):.3f}")
    classes = set(got["failures"]).union(*rec["failures"])
    for cls in sorted(classes):
        share = got["failures"].get(cls, 0) / p.n_trials
        recorded = [f.get(cls, 0) / p.n_trials for f in rec["failures"]]
        if _outside(share, recorded, FAILURE_SHARE_TOL):
            problems.append(f"{cls} share {share:.3f}, recorded {min(recorded):.3f}..{max(recorded):.3f}")
    for label in ("log_kappa_root", "log_kappa_sub"):
        if label in rec and (got[label] is None or _outside(got[label], rec[label], LOG_KAPPA_TOL)):
            problems.append(f"median {label} {got[label]}, "
                            f"recorded {min(rec[label]):.3f}..{max(rec[label]):.3f}")
    return problems


def check_points(workload: Workload, outcomes: dict, ref: dict) -> list:
    """Every complete pass of every point against the recorded seeds.

    `outcomes` maps a point key to {trial: Outcome}. The first pass must be
    complete; on the recorded seed its medians must also be run_sweep's.
    """
    problems = []
    for p in workload.points:
        complete = passes(p, outcomes.get(p.key, {}))
        if not complete or any(t not in outcomes[p.key] for t in range(p.n_trials)):
            problems.append(f"{p.key}: trials 0..{p.n_trials - 1} did not all run")
            continue
        for k, outs in enumerate(complete):
            problems.extend(f"{p.key} pass {k}: {msg}" for msg in check_pass(p, outs, ref))
        if p.seed == ref["seed"] and p.spec is not None:
            got = float(np.median([o.digits for o in complete[0]]))
            want = ref["sweeps"][p.spec.name]["run_sweep_median"][p.idx]
            if abs(got - want) > MEDIAN_DIGITS_TOL:
                problems.append(f"{p.key}: median {got:.3f} digits, run_sweep gave {want:.3f}")
    return problems
