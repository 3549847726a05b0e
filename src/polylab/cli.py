"""Command line for generating systems, solving them, auditing conditioning,
running benchmark sweeps, and verifying the numerical identities.

Subcommands: gen, solve, audit, sweep, verify. All output is JSON except
sweep, which writes CSV and SVG files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, verification
from .conditioning import (
    ConditionReport,
    kappa_eig_macaulay_bound,
    kappa_eig_mep_formula,
    kappa_eig_ms_formula,
    kappa_root,
    root_point,
)
from .families import FAMILIES, FamilySpec, generate
from .macaulay import choose_basis, macaulay_hat, macaulay_pencil
from .polycore import PolySystem
from .solvers import METHODS, UnsupportedShape, mep_from_system, solve


class BadInput(Exception):
    """A flag value or input file the command cannot use; main prints it as one line."""


def _parse_shift(text: str | None):
    if text is None:
        return None
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise BadInput(f"--shift {text!r} is not a comma-separated list of numbers") from None


def _parse_root(text: str):
    try:
        return np.array([complex(v.strip().replace(" ", "")) for v in text.split(",")])
    except ValueError:
        raise BadInput(f"--root {text!r} is not a comma-separated list of complex numbers") from None


def _load_system(path: str) -> PolySystem:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
        return PolySystem.from_json_dict(data)
    except OSError as exc:
        raise BadInput(f"cannot read --system {path}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise BadInput(f"--system {path} is not a system JSON: {exc!r}") from None


def _emit(obj: dict, path: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_gen(args) -> int:
    try:
        spec = FamilySpec(
            family=args.family,
            d=args.d,
            sigma=args.sigma,
            c=args.c,
            seed=args.seed,
            shift=_parse_shift(args.shift),
        )
        s = generate(spec)
    except ValueError as exc:
        raise BadInput(str(exc)) from None
    _emit(s.to_json_dict(), args.out)
    return 0


def _failure(exc: Exception) -> tuple:
    """(audit key, verb, text) for a solver failure; UnsupportedShape means the method does not apply."""
    if isinstance(exc, UnsupportedShape):
        return "unsupported", "does not apply", str(exc)
    return "failed", "failed", f"{type(exc).__name__}: {exc}"


def _cmd_solve(args) -> int:
    s = _load_system(args.system)
    rng = np.random.default_rng(args.seed)
    try:
        report = solve(s, args.method, rng=rng, polish=args.polish)
    except bench.SOLVER_FAILURES as exc:
        _, verb, text = _failure(exc)
        print(f"method {args.method} {verb}: {text}", file=sys.stderr)
        return 1
    _emit(report.to_json_dict(), args.out)
    return 0


def _audit_one(s: PolySystem, x, method: str, seed: int) -> ConditionReport:
    """kappa_root at x (a point or its RootPoint) next to one method's closed-form kappa.

    The root is evaluated once, and kappa_root, the formula's residual
    check and its det J(x*) all read that one evaluation.
    """
    root = root_point(s, x)
    kr = kappa_root(s, root)
    # The formulas depend on the coordinate i only through a final factor
    # (1 + |x_i|), and rounded multiplication is monotone, so the largest
    # |x_i| gives the maximum over i exactly.
    i = int(np.argmax(np.abs(root.x)))
    if method == "nf":
        ks = kappa_eig_ms_formula(s, root, choose_basis(macaulay_hat(s)), i)
    elif method == "mep":
        ks = kappa_eig_mep_formula(mep_from_system(s), s, root, i)
    elif method == "macaulay":
        ks = kappa_eig_macaulay_bound(s, root, macaulay_pencil(s, np.random.default_rng(seed)))
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return ConditionReport.make(kr, ks, method)


def _cmd_audit(args) -> int:
    s = _load_system(args.system)
    if args.root is not None:
        x = _parse_root(args.root)
        if x.shape != (s.d,):
            print(f"--root has {x.size} coordinates, the system has d = {s.d}", file=sys.stderr)
            return 1
    else:
        if not s.true_roots:
            print("system has no stored roots; pass --root", file=sys.stderr)
            return 1
        n = len(s.true_roots)
        if not -n <= args.root_index < n:
            print(f"--root-index {args.root_index} is out of range: {n} stored roots", file=sys.stderr)
            return 1
        x = np.array(s.true_roots[args.root_index])
    root, bound = root_point(s, x), s.residual_bound()
    if not root.residual <= bound:
        print(f"the point is not a root: residual {root.residual:.3e} > {bound:.3e}", file=sys.stderr)
        return 1
    methods = METHODS if args.method == "all" else (args.method,)
    out = {}
    for m in methods:
        try:
            out[m] = _audit_one(s, root, m, args.seed).to_json_dict()
        except bench.SOLVER_FAILURES as exc:
            key, verb, text = _failure(exc)
            if args.method != "all":
                print(f"method {m} {verb}: {text}", file=sys.stderr)
                return 1
            out[m] = {"method": m, key: text}
    _emit(out if args.method == "all" else out[args.method], args.out)
    if not any("kappa_sub" in rec for rec in out.values()):
        print("no method produced a kappa", file=sys.stderr)
        return 1
    return 0


def _figure_names(choice: str) -> list:
    if choice == "all":
        return list(bench.FIGURES)
    if choice == "4":
        return ["4a", "4b"]
    return [choice]


def _custom_spec(args) -> bench.SweepSpec:
    """The sweep the --custom flags describe; ValueError when a trial could not run."""
    missing = [flag for flag in ("method", "family", "axis", "values") if getattr(args, flag) is None]
    if missing:
        raise SystemExit(f"--custom requires --{', --'.join(missing)}")
    if args.axis != "d" and args.d is None:
        raise ValueError(f"--axis {args.axis} requires --d")
    spec = bench.SweepSpec(
        name="custom",
        method=args.method,
        family=args.family,
        axis=args.axis,
        values=tuple(float(v) for v in args.values.split(",")),
        d=args.d,
        sigma=args.sigma,
        c=args.c,
        shift=_parse_shift(args.shift),
        n_trials=args.trials if args.trials is not None else 100,
        seed=args.seed if args.seed is not None else 1,
        polish=args.polish,
    )
    for x in spec.values:
        bench._family_spec(spec, x)
    return spec


def _cmd_sweep(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise BadInput(f"--trials {args.trials} is below 1")
    if args.custom:
        try:
            specs = [_custom_spec(args)]
        except ValueError as exc:
            print(f"sweep --custom: {exc}", file=sys.stderr)
            return 1
    elif args.figure is not None:
        specs = [
            bench.with_overrides(bench.FIGURES[n], n_trials=args.trials, seed=args.seed)
            for n in _figure_names(args.figure)
        ]
    else:
        raise SystemExit("pass --figure or --custom")
    os.makedirs(args.out, exist_ok=True)
    for spec in specs:
        records = bench.run_sweep(spec)
        csv_path = os.path.join(args.out, f"fig{spec.name}.csv")
        svg_path = os.path.join(args.out, f"fig{spec.name}.svg")
        bench.emit_csv(records, csv_path)
        bench.emit_svg(
            records,
            svg_path,
            title=f"{spec.method} on {spec.family}",
            xlabel=bench.axis_label(spec),
            log_x=spec.axis != "d",
        )
        print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_verify(args) -> int:
    names = tuple(verification.SUITES) if args.suite == "all" else (args.suite,)
    results = verification.run_all(seed=args.seed, names=names)
    out = {r.name: {"passed": r.passed, "details": r.details} for r in results}
    _emit(out, "-")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polylab",
        description="Benchmark eigenvalue-based multivariate polynomial rootfinders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a structured polynomial system as JSON")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shift", type=str, default=None, help="comma-separated root shift")
    p.add_argument("--out", type=str, default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve a system JSON with one method")
    p.add_argument("--system", required=True, help="path to gen output, or - for stdin")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--polish", action="store_true")
    p.add_argument("--out", type=str, default="-")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("audit", help="compare root vs subproblem conditioning at a root")
    p.add_argument("--system", required=True)
    p.add_argument("--method", default="all", choices=METHODS + ("all",))
    p.add_argument("--root", type=str, default=None, help="comma-separated complex root")
    p.add_argument("--root-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=str, default="-")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("sweep", help="run a benchmark sweep and write CSV + SVG")
    p.add_argument(
        "--figure",
        default=None,
        choices=tuple(bench.FIGURES) + ("4", "all"),
        help="preset sweep; 4 runs both 4a and 4b",
    )
    p.add_argument("--custom", action="store_true", help="build the sweep from flags instead")
    p.add_argument("--method", default=None, choices=("gb", "rur") + METHODS)
    p.add_argument("--family", default=None, choices=FAMILIES)
    p.add_argument("--axis", default=None, choices=("sigma", "c", "d"))
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--shift", type=str, default=None, help="comma-separated root shift")
    p.add_argument("--polish", action="store_true")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the numerical identity audits, report JSON")
    p.add_argument("--suite", default="all", choices=tuple(verification.SUITES) + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
