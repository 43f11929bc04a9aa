"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads capacity,zero-oracle]
                                [--trace 0] [--out summary.json]

For every workload and end-to-end metric (per-layer with ``--trace 1``)
this prints the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median, next to the metric's bound from BENCHMARK.json.  Runs are
made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-500:]}")
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: correct {last['correct']}, attempted {last['attempted']}, "
                  f"failed {last['failed']}", flush=True)
            for metric, m in last["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else None
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "unit": units[metric], "values": vals}
            bound = bounds.get(metric)
            print(f"  {metric:44s} median {med:12.6g} {units[metric]:5s} "
                  f"spread {spread if spread is not None else float('nan'):.4f}"
                  + (f"  (bound {bound}, a third {bound / 3:.4f})" if bound else ""))
        summary[name] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
