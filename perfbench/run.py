"""Run one polylab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload presets-small --seed 1 --seconds 36 --trace 0

One process, one BLAS thread, closed loop: one trial at a time, each timed
from outside the library, in whole rounds until --seconds have passed and
every point has run its first n_trials trials. The timing metrics cover
every trial of the timed loop. Outcomes are checked against
perfbench/reference.json.

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time
untraced and half traced (every public function of the library wrapped),
prints the per-layer metrics, and writes the spans to perfbench/out/.
The last line of standard output is the JSON result; perfbench/out/ also
gets a detail file per run with the environment and per-point figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

SETUP_PROBES = (5, 4)  # fresh set-up probes before and after the timed loop
HARD_LIMIT_S = 150.0  # stop timing this long after it started, first pass or not


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up and warm up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def timed_rounds(rounds, seconds: float, hard_stop: int, min_rounds: int = 0, tracer=None,
                 calibrate: bool = False) -> dict:
    """Whole rounds from `rounds` until `seconds` have passed and at least
    `min_rounds` rounds have run, but never past `hard_stop` (a perf_counter_ns
    reading); one record per trial.

    With `calibrate`, the host-speed kernel runs before a trial whenever
    hostspeed.EVERY_S have passed since it last ran; `kernel_ms` holds its
    times and `kernel_index` the latest one before each trial."""
    from perfbench import hostspeed, workloads
    from perfbench.tracer import NO_TRACE

    records = []
    errors = []
    kernel_ms, kernel_index = [], []
    clock = time.perf_counter_ns
    t_start = clock()
    deadline = t_start + int(seconds * 1e9)
    last_kernel = t_start - int(hostspeed.EVERY_S * 1e9)
    n_rounds = 0
    while (clock() < deadline or n_rounds < min_rounds) and clock() < hard_stop:
        for p, trial in next(rounds):
            if calibrate:
                if clock() - last_kernel >= hostspeed.EVERY_S * 1e9:
                    kernel_ms.append(hostspeed.kernel_ms())
                    last_kernel = clock()
                kernel_index.append(len(kernel_ms) - 1)
            t0 = clock()
            try:
                if tracer is None:
                    out = workloads.run_trial(p, trial, NO_TRACE)
                else:
                    tracer.trial = len(records)
                    with tracer.span("trial"):
                        out = workloads.run_trial(p, trial, tracer)
            except Exception:  # a crash is a failed trial, reported below
                out = None
                errors.append(f"{p.key} trial {trial}:\n{traceback.format_exc()}")
            records.append((p, trial, clock() - t0, out))
            if clock() > hard_stop:
                break
        n_rounds += 1
    elapsed = (clock() - t_start) / 1e9
    return {"records": records, "elapsed_s": elapsed, "rounds": n_rounds, "errors": errors,
            "kernel_ms": kernel_ms, "kernel_index": kernel_index}


def check(wl, ref, phases) -> tuple:
    """Reference mismatches over all phases (an empty list means correct),
    and the first-pass outcomes of each point that completed it."""
    from perfbench import workloads

    problems = []
    outcomes: dict = {}
    for phase in phases:
        problems.extend(phase["errors"])
        for p, trial, _, out in phase["records"]:
            if out is None:
                continue
            msg = workloads.check_trial(p, trial, out, ref)
            if msg:
                problems.append(msg)
            outcomes.setdefault(p.key, {})[trial] = out
    problems.extend(workloads.check_points(wl, outcomes, ref))
    first = {p.key: [outcomes[p.key][t] for t in range(p.n_trials)]
             for p in wl.points if all(t in outcomes.get(p.key, {}) for t in range(p.n_trials))}
    return problems, first


def setup_seconds(args, probes: int) -> list:
    """Wall time from spawning a fresh process to the end of its warm-up,
    `probes` times, each with the median of the host-speed kernel times
    taken just before and just after it: [(seconds, kernel ms), ...]."""
    from perfbench import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(probes):
        kernel = [hostspeed.kernel_ms() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t = time.perf_counter() - t0
            proc.communicate(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
        kernel += [hostspeed.kernel_ms() for _ in range(3)]
        times.append((t, statistics.median(kernel)))
    return times


def end_to_end(wl, phase, passes: dict, setup: list) -> tuple:
    """The end-to-end metrics: timings over every trial of the timed loop,
    scaled to the reference host speed (see hostspeed.py); outcomes over the
    first pass (the trials run_sweep would run)."""
    import numpy as np

    from perfbench import hostspeed

    wall = [ns / 1e6 for _, _, ns, _ in phase["records"]]
    scale = hostspeed.scales(phase["kernel_ms"])
    ms = [t * scale[k] for t, k in zip(wall, phase["kernel_index"])]
    setup_scaled = [t * hostspeed.REFERENCE_MS / k for t, k in setup]
    first = [o for outs in passes.values() for o in outs]
    n = max(len(first), 1)
    failed_first = sum(1 for o in first if o.failure is not None)
    metrics = {
        "trials_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "trial_ms_p50": (float(np.median(ms)), "ms"),
        "trial_ms_tail": (float(np.percentile(ms, wl.tail_pct)), "ms"),
        "solved_share": (1.0 - failed_first / n, "share"),
        "digits_mean": (sum(o.digits for o in first) / n, "digits"),
        "setup_s": (float(statistics.median(setup_scaled)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    timing = {"tail_percentile": wl.tail_pct, "trials": len(ms),
              "trials_beyond_tail": int(sum(1 for t in ms if t > metrics["trial_ms_tail"][0])),
              "first_pass_trials": len(first),
              "wall": {"trials_per_s": len(wall) / (sum(wall) / 1e3),
                       "trial_ms_p50": float(np.median(wall)),
                       "trial_ms_tail": float(np.percentile(wall, wl.tail_pct)),
                       "setup_s": float(statistics.median(t for t, _ in setup))},
              "kernel_ms": {"samples": len(phase["kernel_ms"]),
                            "median": float(np.median(phase["kernel_ms"])),
                            "min": min(phase["kernel_ms"]), "max": max(phase["kernel_ms"])}}
    return metrics, timing


def point_summary(phase) -> dict:
    by_point: dict = {}
    for p, _, ns, out in phase["records"]:
        e = by_point.setdefault(p.key, {"ms": [], "digits": [], "failures": {}, "warnings": {}})
        e["ms"].append(ns / 1e6)
        if out is None:
            continue
        e["digits"].append(out.digits)
        if out.failure:
            e["failures"][out.failure] = e["failures"].get(out.failure, 0) + 1
        for k, v in out.warnings.items():
            e["warnings"][k] = e["warnings"].get(k, 0) + v
    return {
        key: {"trials": len(e["ms"]), "ms_p50": statistics.median(e["ms"]),
              "digits_median": statistics.median(e["digits"]) if e["digits"] else None,
              "failures": e["failures"], "warnings": e["warnings"]}
        for key, e in by_point.items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.use_checkout_source()
        from perfbench import layers, tracer as tr, workloads
        wl = workloads.build(args.workload, args.seed)
        ref = workloads.load_reference()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    ref_problems = workloads.validate_reference(wl, ref)
    for p, trial in workloads.warmup_items(wl):
        workloads.run_trial(p, trial, tr.NO_TRACE)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env.describe(),
              "reference_commit": ref.get("commit")}
    # Half the set-up probes run before the timed loop and half after, so
    # their median spans the same stretch of time as the trials.
    setup = setup_seconds(args, SETUP_PROBES[0]) if args.trace == 0 else []
    rounds = workloads.schedule(wl)
    hard_stop = time.perf_counter_ns() + int(HARD_LIMIT_S * 1e9)
    if args.trace == 0:
        phase = timed_rounds(rounds, args.seconds, hard_stop, min_rounds=wl.period, calibrate=True)
        phases = [phase]
    else:
        untraced = timed_rounds(rounds, args.seconds / 2, hard_stop)
        tracer = tr.Tracer()
        with tr.instrument(tracer):
            traced = timed_rounds(rounds, args.seconds / 2, hard_stop,
                                  min_rounds=wl.period - untraced["rounds"], tracer=tracer)
        phases = [untraced, traced]
        phase = traced
    problems, passes = check(wl, ref, phases)
    problems = ref_problems + problems
    if args.trace == 0:
        setup += setup_seconds(args, SETUP_PROBES[1])
        metrics, timing = end_to_end(wl, phase, passes, setup)
        detail["setup_probes_s"] = setup
        detail["timing"] = timing
    else:
        tps = [len(ph["records"]) / ph["elapsed_s"] for ph in phases]
        outs = [o for _, _, _, o in traced["records"] if o is not None]
        units = layers.metric_units()
        values = layers.per_layer(tracer, outs, tps[0], tps[1])
        metrics = {k: (values[k], units[k]) for k in units}
        env.OUT.mkdir(exist_ok=True)
        tracer.save(env.OUT / f"spans-{wl.name}.npz")
    # A trial fails when it crashes outside bench.SOLVER_FAILURES. A solver
    # failure is an outcome, scored 0 digits as run_sweep scores it and checked
    # against the reference; solved_share and the per-layer counters report it.
    failed = sum(1 for _, _, _, o in phase["records"] if o is None)

    env.OUT.mkdir(exist_ok=True)
    detail.update({
        "rounds": [ph["rounds"] for ph in phases],
        "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "points": point_summary(phase),
    })
    detail_path = env.OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    for msg in problems[:20]:
        print(f"perfbench: MISMATCH {msg}", file=sys.stderr)
    e = detail["environment"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} rounds={detail['rounds']} "
          f"python={e['python']} numpy={e['numpy']} scipy={e['scipy']} nproc={e['nproc']} "
          f"threads={e['threads']} commit={e['commit'][:12]}")
    print(f"# blas: {' '.join(e['blas_libraries'])}")
    if args.trace == 0:
        print(f"# trial_ms_tail is p{wl.tail_pct:g} of {timing['trials']} trials "
              f"({timing['trials_beyond_tail']} beyond); outcomes over the first "
              f"{timing['first_pass_trials']} trials; set-up probes {['%.3f' % s for s, _ in setup]}")
        print(f"# wall (unscaled): {json.dumps(timing['wall'])}; host-speed kernel ms: "
              f"{json.dumps(timing['kernel_ms'])}")
    print(f"# detail: {detail_path.relative_to(env.ROOT)}")
    result = {
        "correct": not problems,
        "attempted": len(phase["records"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    env.fix_hash_seed()
    env.pin_threads()
    sys.exit(main())
