#!/usr/bin/env python3
"""One smoothed-pipeline run with its per-iteration ledger.

Shows the geometric halving of the imbalance, the perturbation scale chosen
at each level, and the movement spent per iteration.  The global-scale
assumptions behind the worst-case analysis do not hold at desk sizes; the
halving behaviour is what survives.
"""

import argparse

import numpy as np

from frameflow.core import delta_of, dist, size_of
from frameflow.generate import near_parseval_frame
from frameflow.paulsen import solve_smoothed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--final-delta", type=float, default=1e-10)
    args = ap.parse_args()

    u, measured = near_parseval_frame(args.d, args.n, args.eps, args.seed)
    print(f"input: d={args.d} n={args.n} eps={measured:.4g} delta={delta_of(u):.4g}")

    v, trace = solve_smoothed(u, final_delta=args.final_delta, seed=args.seed)

    print(f"{'l':>3} {'sigma2':>10} {'delta_before':>13} {'delta_after':>13} "
          f"{'halving_tgt':>12} {'movement':>11} {'retries':>7}")
    delta0 = trace.records[0]["delta_before"] if trace.records else delta_of(u)
    for rec in trace.records:
        print(f"{rec['l']:3d} {rec['sigma2']:10.3e} {rec['delta_before']:13.4e} "
              f"{rec['delta_after']:13.4e} {delta0 / 2.0 ** (rec['l'] + 1):12.3e} "
              f"{rec['movement']:11.3e} {rec['retries']:7d}")
    print(f"result: iterations={len(trace.records)} size={size_of(v):.15g} "
          f"delta={delta_of(v):.3e} dist={dist(u, v):.4e} "
          f"total_movement={float(np.sum([r['movement'] for r in trace.records])):.4e}")
    if trace.downgraded:
        print("note: input imbalance above the large-delta threshold; "
              "first level used the coarse reset")


if __name__ == "__main__":
    main()
