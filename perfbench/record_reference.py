"""Record perfbench/reference.json: the outcomes a run is checked against.

    python3 perfbench/record_reference.py          # seeds 1-8, about 8 min

For seed 1, the presets' own seed, it stores every first-pass trial's
outcome: the digits and failure class of each sweep trial, next to
`bench.run_sweep`'s per-point median digits (it refuses to write when the
trials do not give those medians), and kappa_root and the subproblem kappa
of each audit trial. For every recorded seed it stores each point's median
digits, failure counts by class, warning counts and, for the audit, median
log10 kappas; every complete pass of a run, on any seed, is checked against
their range. Re-record only when a change is meant to alter outcomes, and say
which and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

SEEDS = tuple(range(1, 9))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                    help="seeds to record; the first one's trials are stored one by one")
    args = ap.parse_args(argv)
    env.use_checkout_source()
    from polylab import bench

    from perfbench import workloads
    from perfbench.tracer import NO_TRACE

    seeds = list(args.seeds)
    ref = {"commit": env.git_commit(), "environment": env.describe(), "seed": seeds[0],
           "seeds": seeds, "sweeps": {}, "audit": {}, "points": {}, "workloads": {}}
    for name in workloads.NAMES:
        per_seed = []
        for seed in seeds:
            wl = workloads.build(name, seed)
            outcomes = {p.key: [workloads.run_trial(p, t, NO_TRACE) for t in range(p.n_trials)]
                        for p in wl.points}
            for p in wl.points:
                stats = workloads.point_stats(p, outcomes[p.key])
                rec = ref["points"].setdefault(p.key, {})
                for label, value in stats.items():
                    rec.setdefault(label, []).append(value)
            first = [o for outs in outcomes.values() for o in outs]
            per_seed.append({
                "seed": seed,
                "digits_mean": sum(o.digits for o in first) / len(first),
                "solved_share": sum(o.failure is None for o in first) / len(first),
            })
            if seed == seeds[0]:
                problem = _store_trials(ref, wl, outcomes, bench)
                if problem:
                    print(problem)
                    return 1
            print(f"{name} seed {seed}: {per_seed[-1]}", flush=True)
        ref["workloads"][name] = per_seed
    workloads.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    for key, rec in ref["points"].items():
        if any(rec["failures"]) or any(rec["warnings"]):
            print(f"{key}: failures {rec['failures']} warnings {rec['warnings']}")
    return 0


def _store_trials(ref: dict, wl, outcomes: dict, bench) -> str | None:
    """Per-trial outcomes of the first seed; None, or why they cannot be stored."""
    from perfbench import workloads

    if wl.kind == "audit":
        for p in wl.points:
            ref["audit"][p.key] = {
                "kappa_root": [o.kappas[0] for o in outcomes[p.key]],
                "kappa_sub": [o.kappas[1] for o in outcomes[p.key]],
            }
        return None
    seeded = {p.spec.name: p.spec for p in wl.points}
    for spec in wl.specs:
        medians = [r.median_digits for r in bench.run_sweep(seeded[spec.name])]
        keys = [f"{spec.name}/{idx}" for idx in range(len(spec.values))]
        for key, want in zip(keys, medians):
            got = ref["points"][key]["median"][-1]
            if got != want:
                return f"{key}: trial runner median {got} != run_sweep {want}"
        ref["sweeps"][spec.name] = {
            "spec": workloads.spec_fields(spec),
            "run_sweep_median": medians,
            "digits": [[o.digits for o in outcomes[k]] for k in keys],
            "failure": [[o.failure for o in outcomes[k]] for k in keys],
        }
    return None


if __name__ == "__main__":
    env.pin_threads()
    sys.exit(main())
