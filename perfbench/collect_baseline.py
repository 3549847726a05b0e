"""Collect perfbench/baseline.json from the detail files of baseline runs.

    for s in 1 2 3 4 5 6 7 8 9 10 1001; do for w in presets-small macaulay-dim audit; do
      python3 perfbench/run.py --workload $w --seed $s --seconds 36 --trace 0; done; done
    for s in 11 12 13 14 15 16 17 18 19 20; do for w in presets-small macaulay-dim audit; do
      python3 perfbench/run.py --workload $w --seed $s --seconds 36 --trace 0; done; done
    for s in 1 1001; do for w in presets-small macaulay-dim audit; do
      python3 perfbench/run.py --workload $w --seed $s --seconds 36 --trace 1; done; done
    python3 perfbench/collect_baseline.py

End-to-end figures are medians and quartiles over seeds 1-10, as
`statistics.quantiles(values, n=4)` gives them, and again over a second set,
seeds 11-20, run after the first; seed 1001 is held out. The workloads are
the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

SEEDS = range(1, 11)
SECOND_SET = range(11, 21)
HELD_OUT = 1001


def _detail(workload: str, seed: int, trace: int) -> dict:
    return json.loads((env.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def _metrics(detail: dict) -> dict:
    return {k: v["value"] for k, v in detail["metrics"].items()}


def main() -> int:
    names = [w["name"] for w in json.loads((env.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = {"end_to_end": {}, "end_to_end_second_set": {}, "held_out_seed": {}, "per_layer": {}}
    for w in names:
        out["end_to_end"][w] = _stats([_detail(w, s, 0) for s in SEEDS])
        out["end_to_end_second_set"][w] = _stats([_detail(w, s, 0) for s in SECOND_SET])
        out["held_out_seed"][w] = {"seed": HELD_OUT, **_metrics(_detail(w, HELD_OUT, 0))}
        out["per_layer"][w] = {f"seed{s}": _metrics(_detail(w, s, 1)) for s in (SEEDS[0], HELD_OUT)}
    last = _detail(names[-1], SEEDS[-1], 0)
    out["environment"] = last["environment"]
    out["run_seconds"] = last["seconds"]
    (Path(__file__).resolve().parent / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for key in ("end_to_end", "end_to_end_second_set"):
        for w, stats in out[key].items():
            print(key, w, {k: round(v["spread"], 3) for k, v in stats.items()})
    return 0


def _stats(runs: list) -> dict:
    stats = {}
    for name in runs[0]["metrics"]:
        values = [_metrics(r)[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        stats[name] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0}
    return stats


if __name__ == "__main__":
    sys.exit(main())
