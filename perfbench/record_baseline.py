"""Record the benchmark baseline of the current sources into baseline.json.

Usage, from the repository root::

    python3 perfbench/record_baseline.py --seeds 1-10 --seconds 55

For every workload it runs ``run.py --trace 0`` once per seed and one
``--trace 1`` run on the first seed, then writes to baseline.json:
each seed's ``result_err`` (and the cv triple) under ``results``, the
median, quartiles and spread (IQR over median) of every end-to-end
metric over the seeds, and the traced run's per-layer values.  Runs
check against the values already recorded for a seed, so after a change
that is meant to move results, delete the workload's ``results`` entry
first.  The ``layer_map`` section is kept as it is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BASELINE, ROOT, RUNS_DIR, WORKLOADS, environment


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    report = json.loads((RUNS_DIR / f"{workload}-seed{seed}-trace{trace}" / "report.json").read_text())
    print(workload, seed, trace, {k: v["value"] for k, v in last["metrics"].items()}, flush=True)
    return report


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    baseline = json.loads(BASELINE.read_text())
    for name in args.workloads:
        results = baseline["results"].setdefault(name, {"result_err": {}})
        samples: dict[str, list[float]] = {}
        for seed in seeds:
            report = bench(name, seed, args.seconds, 0)
            results["result_err"][str(seed)] = report["metrics"]["result_err"]["value"]
            if report.get("selected") is not None:
                results.setdefault("selected", {})[str(seed)] = report["selected"]
            for metric, m in report["metrics"].items():
                samples.setdefault(metric, []).append(m["value"])
        baseline.setdefault("end_to_end", {})[name] = {
            metric: summarize(values) | {"unit": report["metrics"][metric]["unit"]}
            for metric, values in samples.items()
        }
        traced = bench(name, seeds[0], args.seconds, 1)
        baseline.setdefault("per_layer", {})[name] = {
            "seed": seeds[0],
            "metrics": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    env = environment(seeds[0])
    env.pop("workload_seed")
    baseline["environment"] = env
    baseline["seeds"] = seeds
    baseline["run_seconds"] = float(args.seconds)
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
