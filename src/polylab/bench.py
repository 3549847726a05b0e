"""Accuracy sweeps across problem families, with CSV and SVG emitters.

A sweep fixes a method and a family, varies one axis (coupling strength,
scale parameter, or dimension), and records the median digits of accuracy
of the family's first listed root over seeded trials, next to the digit
counts predicted by the subproblem and root condition numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import conditioning
from .conditioning import theory_digits
from .families import FamilySpec, generate, true_root_error
from .macaulay import BasisSingular, NullityMismatch, RankDeficientBasis, _recorded
from .numkernel import SingularPencil, _one_blas_thread
from .polycore import PolySystem
from .solvers import (
    EigenvectorDegenerate,
    SingularDelta0,
    UnsupportedShape,
    solve,
    solve_gb_elimination_example,
    solve_rur_example,
)

SOLVER_FAILURES = (
    NullityMismatch,
    SingularDelta0,
    EigenvectorDegenerate,
    UnsupportedShape,
    SingularPencil,
    RankDeficientBasis,
    BasisSingular,
    conditioning.SingularJacobian,
    conditioning.MultipleRoot,
    np.linalg.LinAlgError,
)


def digits_of_accuracy(err) -> float:
    """min(16, max(0, -log10 err)); an exact answer counts as 16 digits."""
    if err is None or not math.isfinite(err):
        return 0.0
    if err <= 0.0:
        return 16.0
    return float(min(16.0, max(0.0, -math.log10(err))))


@dataclass(frozen=True)
class SweepSpec:
    """One benchmark curve: a method, a family, and a varied axis."""

    name: str
    method: str  # gb | rur | nf | macaulay | mep; each scores the family's first listed root
    family: str
    axis: str  # sigma | c | d
    values: tuple
    d: int | None = None
    sigma: float | None = None
    c: float | None = None
    shift: tuple | None = None
    n_trials: int = 100
    seed: int = 1
    polish: bool = False

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials {self.n_trials} is below 1")


@dataclass(frozen=True)
class SweepRecord:
    x: float
    median_digits: float
    theory_digits: float
    stable_digits: float
    n_trials: int


def _broadcast_shift(shift, d: int):
    """Presets give one shift value; d-axis sweeps need it repeated per coordinate.

    Only a 1-tuple is repeated: any other length must be d.
    """
    if shift is None:
        return None
    if len(shift) == 1:
        return (shift[0],) * d
    if len(shift) != d:
        raise ValueError(f"shift has {len(shift)} coordinates, expected 1 or d = {d}")
    return tuple(shift)


def _family_spec(spec: SweepSpec, x) -> FamilySpec:
    """The family instance every trial of ``spec`` at axis value x reads its parameters from.

    ValueError when such a trial could not run: gb or rur on a family other
    than the one its closed form is derived for, gb unshifted (its root 0
    would come back exact), a dimension that is not an integer, a family
    parameter missing or out of range, or a shift whose length is neither 1
    nor d.
    """
    closed_form = {"gb": "cyclic_squares", "rur": "hypercube"}.get(spec.method, spec.family)
    if spec.family != closed_form:
        raise ValueError(f"method {spec.method} runs only on the {closed_form} family")
    if spec.method == "gb" and (spec.shift is None or spec.shift[0] == 0):
        raise ValueError("method gb needs a nonzero --shift: unshifted, the root it scores is exactly 0")
    d = x if spec.axis == "d" else spec.d
    if d is None or not float(d).is_integer():
        raise ValueError(f"dimension {d} is not an integer")
    d = int(d)
    sigma = x if spec.axis == "sigma" else spec.sigma
    c = x if spec.axis == "c" else spec.c
    return FamilySpec(
        family=spec.family,
        d=d,
        sigma=None if sigma is None else float(sigma),
        c=None if c is None else float(c),
        seed=spec.seed,
        shift=_broadcast_shift(spec.shift, d),
    )


# One slot per family instance: the rng states its last build started from
# and ended in, the system and the build's warnings (see _shared_system).
_LAST_SYSTEM: dict = {}


def _shared_system(fspec: FamilySpec, rng: np.random.Generator) -> PolySystem:
    """generate(fspec, rng=rng), replayed when an earlier trial built it from the same rng state.

    Trials with the same seed, point and trial index draw the same system
    whatever their method, as nf and macaulay do in figs 4a/4b. generate is
    a pure function of the spec and the rng state, so such a trial does not
    call it again: it sets the rng to the state the build ended in, issues
    the build's warnings again, and solves the system object the build
    validated, reading the quotient basis the earlier trial computed on it
    (macaulay.quotient_basis). Systems of other seeds or trials are never
    shared, even when their coefficients are equal.
    """
    start = rng.bit_generator.state
    slot = _LAST_SYSTEM.get(fspec)
    if slot is not None and slot[0] == start:
        rng.bit_generator.state = slot[1]
    else:
        s, issued = _recorded(generate, fspec, rng)
        slot = _LAST_SYSTEM[fspec] = (start, rng.bit_generator.state, s, issued)
    for message in slot[3]:
        warnings.warn(message, stacklevel=2)
    return slot[2]


def _trial_error(spec: SweepSpec, x, rng: np.random.Generator) -> float:
    fspec = _family_spec(spec, x)
    d, shift = fspec.d, fspec.shift
    if spec.method == "gb":
        _, report = solve_gb_elimination_example(d, fspec.sigma, shift=shift[0])
        return float(report.diagnostics["error"])
    if spec.method == "rur":
        u = np.abs(rng.standard_normal(d))
        u /= np.linalg.norm(u)
        _, report = solve_rur_example(d, fspec.c, u, shift=shift)
        return float(report.diagnostics["error"])
    s = _shared_system(fspec, rng)
    report = solve(s, spec.method, rng=rng, polish=spec.polish)
    return true_root_error(report, [s.true_roots[0]])


def _one_trial_digits(spec: SweepSpec, idx: int, x, trial: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, idx, trial]))
    try:
        err = _trial_error(spec, x, rng)
    except SOLVER_FAILURES:
        err = math.inf
    return digits_of_accuracy(err)


def _point_record(spec: SweepSpec, x, digits: list) -> SweepRecord:
    fspec = _family_spec(spec, x)
    return SweepRecord(
        x=float(x),
        median_digits=float(np.median(digits)),
        theory_digits=_theory_or_nan(spec.method, fspec),
        stable_digits=_theory_or_nan("stable", fspec),
        n_trials=spec.n_trials,
    )


def _theory_or_nan(method: str, fspec: FamilySpec) -> float:
    # Custom sweeps may pair a method with a family that has no growth law.
    try:
        return theory_digits(method, fspec)
    except ValueError:
        return float("nan")


def run_sweeps(specs) -> list:
    """The records of each sweep, one list per spec.

    Trials run in (point, trial, spec) order, so the specs that draw the
    same seeded systems (figs 1e/1f/1g, 4a/4b) solve each back to back, all
    but the first replaying its build (see _shared_system). Each trial is
    seeded by its spec's seed, point and trial index alone and aggregated
    by trial index, so no record depends on the order, the other specs or,
    on one BLAS thread, the machine.
    """
    digits = [[[] for _ in spec.values] for spec in specs]
    with _one_blas_thread():
        for idx in range(max((len(spec.values) for spec in specs), default=0)):
            for trial in range(max(spec.n_trials for spec in specs)):
                for spec, points in zip(specs, digits):
                    if idx < len(spec.values) and trial < spec.n_trials:
                        points[idx].append(_one_trial_digits(spec, idx, spec.values[idx], trial))
    return [
        [_point_record(spec, x, point) for x, point in zip(spec.values, points)]
        for spec, points in zip(specs, digits)
    ]


def run_sweep(spec: SweepSpec) -> list:
    """All records for one sweep: run_sweeps([spec])[0]."""
    return run_sweeps([spec])[0]


_SIGMAS = tuple(10.0**-k for k in range(8, -1, -1))
_THIRD = 1.0 / 3.0

FIGURES = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="1c", method="gb", family="cyclic_squares", axis="sigma",
            values=_SIGMAS, d=2, shift=(_THIRD, _THIRD), n_trials=1,
        ),
        SweepSpec(
            name="1d", method="rur", family="hypercube", axis="c",
            values=tuple(10.0**k for k in range(9)), d=2, shift=(_THIRD, _THIRD),
        ),
        SweepSpec(
            name="1e", method="mep", family="orthogonal", axis="sigma",
            values=_SIGMAS, d=2, shift=(_THIRD, _THIRD),
        ),
        SweepSpec(
            name="1f", method="nf", family="orthogonal", axis="sigma",
            values=_SIGMAS, d=2, shift=(_THIRD, _THIRD),
        ),
        SweepSpec(
            name="1g", method="macaulay", family="orthogonal", axis="sigma",
            values=_SIGMAS, d=2, shift=(_THIRD, _THIRD),
        ),
        SweepSpec(
            name="2", method="gb", family="cyclic_squares", axis="d",
            values=(2, 3, 4, 5, 6), sigma=0.5, shift=(_THIRD,), n_trials=1,
        ),
        SweepSpec(
            name="3", method="mep", family="permutation", axis="d",
            values=(2, 3, 4, 5, 6), sigma=1e-2, shift=(_THIRD,),
        ),
        SweepSpec(
            name="4a", method="nf", family="notdev2d", axis="sigma",
            values=_SIGMAS, d=2, shift=(_THIRD, _THIRD),
        ),
        SweepSpec(
            name="4b", method="macaulay", family="notdev2d", axis="sigma",
            values=_SIGMAS, d=2, shift=(_THIRD, _THIRD),
        ),
        SweepSpec(
            name="5", method="nf", family="notdev3d", axis="sigma",
            values=_SIGMAS, d=3,
        ),
    )
}


def with_overrides(spec: SweepSpec, n_trials=None, seed=None) -> SweepSpec:
    if n_trials is not None:
        spec = replace(spec, n_trials=int(n_trials))
    if seed is not None:
        spec = replace(spec, seed=int(seed))
    return spec


# ---------------------------------------------------------------------------
# serialization

# SweepRecord's fields are the CSV's columns, in order: %.17g for a float
# field, %d for an int one (f.type is the annotation's text here).
CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def emit_csv(records: list, path) -> None:
    lines = [CSV_HEADER]
    for r in records:
        cells = []
        for f in fields(SweepRecord):
            fmt = "%d" if f.type == "int" else "%.17g"
            cells.append(fmt % getattr(r, f.name))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized sweep csv header")
    records = []
    for ln in lines[1:]:
        row = {}
        for f, text in zip(fields(SweepRecord), ln.split(","), strict=True):
            row[f.name] = int(text) if f.type == "int" else float(text)
        records.append(SweepRecord(**row))
    return records


# ---------------------------------------------------------------------------
# plotting

_SVG_W, _SVG_H = 640, 420
_ML, _MR, _MT, _MB = 62, 20, 42, 52
_SERIES = (
    ("median_digits", "#1f6fb2", "measured", ""),
    ("theory_digits", "#c23b3b", "predicted", "7 4"),
    ("stable_digits", "#3b9a54", "well-conditioned", "2 3"),
)


def _x_positions(xs: list, log_x: bool) -> list:
    if log_x:
        ts = [math.log10(x) for x in xs]
    else:
        ts = list(xs)
    lo, hi = min(ts), max(ts)
    span = hi - lo if hi > lo else 1.0
    inner = _SVG_W - _ML - _MR
    return [_ML + (t - lo) / span * inner for t in ts]


def _y_position(digits: float) -> float:
    inner = _SVG_H - _MT - _MB
    return _MT + (1.0 - min(16.0, max(0.0, digits)) / 16.0) * inner


def _fmt_x(x: float, log_x: bool) -> str:
    if log_x:
        return "1e%d" % round(math.log10(x))
    return "%g" % x


def emit_svg(records: list, path, title: str = "", xlabel: str = "", log_x: bool = True) -> None:
    """Single-panel digits-vs-axis chart with the three series as polylines."""
    xs = [r.x for r in records]
    if log_x and min(xs) <= 0:
        log_x = False
    px = _x_positions(xs, log_x)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H),
        '<rect width="%d" height="%d" fill="white"/>' % (_SVG_W, _SVG_H),
    ]
    if title:
        parts.append(
            '<text x="%d" y="24" font-family="sans-serif" font-size="15" '
            'text-anchor="middle">%s</text>' % (_SVG_W // 2, title)
        )
    ax_bottom = _SVG_H - _MB
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (_ML, ax_bottom, _SVG_W - _MR, ax_bottom)
    )
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (_ML, _MT, _ML, ax_bottom)
    )
    for yv in (0, 4, 8, 12, 16):
        yy = _y_position(yv)
        parts.append(
            '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#cccccc" '
            'stroke-width="0.5"/>' % (_ML, yy, _SVG_W - _MR, yy)
        )
        parts.append(
            '<text x="%d" y="%.2f" font-family="sans-serif" font-size="11" '
            'text-anchor="end">%d</text>' % (_ML - 8, yy + 4, yv)
        )
    for x, xp in zip(xs, px):
        parts.append(
            '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="black"/>'
            % (xp, ax_bottom, xp, ax_bottom + 4)
        )
        parts.append(
            '<text x="%.2f" y="%d" font-family="sans-serif" font-size="10" '
            'text-anchor="middle">%s</text>' % (xp, ax_bottom + 17, _fmt_x(x, log_x))
        )
    if xlabel:
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="12" '
            'text-anchor="middle">%s</text>'
            % ((_ML + _SVG_W - _MR) // 2, _SVG_H - 12, xlabel)
        )
    parts.append(
        '<text x="16" y="%d" font-family="sans-serif" font-size="12" '
        'text-anchor="middle" transform="rotate(-90 16 %d)">digits of accuracy</text>'
        % ((_MT + ax_bottom) // 2, (_MT + ax_bottom) // 2)
    )
    for attr, color, label, dash in _SERIES:
        kept = [(xp, r) for xp, r in zip(px, records) if math.isfinite(getattr(r, attr))]
        if not kept:
            continue
        pts = " ".join("%.2f,%.2f" % (xp, _y_position(getattr(r, attr))) for xp, r in kept)
        dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"%s/>'
            % (pts, color, dash_attr)
        )
        for xp, r in kept:
            parts.append(
                '<circle cx="%.2f" cy="%.2f" r="2.2" fill="%s"/>'
                % (xp, _y_position(getattr(r, attr)), color)
            )
    ly = _MT + 8
    for attr, color, label, dash in _SERIES:
        dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1.8"%s/>'
            % (_SVG_W - _MR - 150, ly, _SVG_W - _MR - 120, ly, color, dash_attr)
        )
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>'
            % (_SVG_W - _MR - 112, ly + 4, label)
        )
        ly += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def axis_label(spec: SweepSpec) -> str:
    return {"sigma": "coupling strength", "c": "scale parameter", "d": "dimension"}[spec.axis]
