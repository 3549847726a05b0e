"""Per-layer metrics of a traced run, all given per traced trial.

`.ms` is self time: a span's duration minus what its child spans cover.
`.calls` and `.elems` are exact counts. The module totals (`families.ms`
... `bench.ms`) plus `trial.glue.ms` add up to the traced trial time.
"""

from __future__ import annotations

from polylab import bench

from .tracer import MODULES, analyze, inclusive_ns

SELF_MS = (
    "families.generate",
    "polycore.PolySystem.residual",
    "polycore.jacobian",
    "macaulay.macaulay_hat",
    "macaulay.choose_basis",
    "macaulay.macaulay_pencil",
    "numkernel.null_space",
    "numkernel.sigma_min",
    "numkernel.check_pencil_regular",
    "numkernel.generalized_eig",
    "numkernel.block_operator_determinant",
    "numkernel.companion_roots",
    "solvers.mep_from_system",
    "solvers.operator_determinants",
    "solvers.build_ms_matrices",
    "solvers.reduce_macaulay_pencil",
    "conditioning.kappa_root",
    "conditioning.kappa_eig",
    "bench.score",
)
SPAN_CALLS = ("macaulay.macaulay_hat", "numkernel.check_pencil_regular", "conditioning.kappa_root")
COUNTERS = (
    ("polycore.MultiPoly.eval.calls", "calls/trial"),
    ("numkernel.dense_factorizations.calls", "calls/trial"),
    ("numkernel.dense_factorizations.elems", "elems/trial"),
)
SOLVE_SPANS = (
    "solvers.solve_normal_form",
    "solvers.solve_macaulay_resultant",
    "solvers.solve_mep_operator_determinants",
    "solvers.solve_gb_elimination_example",
    "solvers.solve_rur_example",
)
DIAGNOSTIC_SPANS = ("conditioning.kappa_root", "conditioning.kappa_eig", "polycore.PolySystem.residual")
FORMULA_SPANS = (
    "conditioning.kappa_eig_ms_formula",
    "conditioning.kappa_eig_mep_formula",
    "conditioning.kappa_eig_macaulay_bound",
)
WARNING_CATEGORIES = ("RuntimeWarning", "NullSpaceGapWarning")


def failure_classes() -> tuple:
    return tuple(cls.__name__ for cls in bench.SOLVER_FAILURES)


def metric_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in SELF_MS:
        units[name + ".ms"] = "ms/trial"
    for name in SPAN_CALLS:
        units[name + ".calls"] = "calls/trial"
    for name, unit in COUNTERS:
        units[name] = unit
    units["solvers.self.ms"] = "ms/trial"
    for cls in failure_classes():
        units[f"solvers.failures.{cls}"] = "count/trial"
    units["conditioning.diagnostics_share"] = "share"
    units["conditioning.formulas.ms"] = "ms/trial"
    for cat in WARNING_CATEGORIES + ("other",):
        units[f"warnings.{cat}"] = "count/trial"
    for mod in MODULES:
        units[f"{mod}.ms"] = "ms/trial"
    units["trial.glue.ms"] = "ms/trial"
    units["trace.trial.ms"] = "ms/trial"
    units["trace.spans"] = "spans/trial"
    units["trace.overhead_trials_per_s"] = "1/s"
    return units


def per_layer(tracer, outcomes: list, trials_per_s_untraced: float, trials_per_s_traced: float) -> dict:
    """Metric name -> value for one traced phase; `outcomes` are its trials."""
    res = analyze(tracer)
    n = len(outcomes)
    names = res["names"]
    self_ms = {nm: res["self_ns"][i] / 1e6 / n for i, nm in enumerate(names)}
    calls = {nm: res["calls"][i] / n for i, nm in enumerate(names)}
    out = {}
    for name in SELF_MS:
        out[name + ".ms"] = self_ms.get(name, 0.0)
    for name in SPAN_CALLS:
        out[name + ".calls"] = calls.get(name, 0.0)
    for name, _ in COUNTERS:
        out[name] = tracer.counters.get(name, 0) / n
    out["solvers.self.ms"] = sum(self_ms.get(nm, 0.0) for nm in SOLVE_SPANS)
    for cls in failure_classes():
        out[f"solvers.failures.{cls}"] = sum(o.failure == cls for o in outcomes) / n
    out["conditioning.diagnostics_share"] = (
        inclusive_ns(res, DIAGNOSTIC_SPANS, parent_names=SOLVE_SPANS) / res["root_ns"]
    )
    out["conditioning.formulas.ms"] = inclusive_ns(res, FORMULA_SPANS) / 1e6 / n
    for cat in WARNING_CATEGORIES:
        out[f"warnings.{cat}"] = sum(o.warnings.get(cat, 0) for o in outcomes) / n
    out["warnings.other"] = sum(
        v for o in outcomes for k, v in o.warnings.items() if k not in WARNING_CATEGORIES
    ) / n
    for mod in MODULES:
        out[f"{mod}.ms"] = sum(v for nm, v in self_ms.items() if nm.startswith(mod + "."))
    out["trial.glue.ms"] = self_ms.get("trial", 0.0)
    out["trace.trial.ms"] = res["root_ns"] / 1e6 / n
    out["trace.spans"] = res["n_spans"] / n
    out["trace.overhead_trials_per_s"] = trials_per_s_untraced - trials_per_s_traced
    return out
