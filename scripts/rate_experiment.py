#!/usr/bin/env python3
"""Decay-rate experiment on matrices with uniformly bounded-below entries:
measured imbalance decay against the strong per-sample rate and the weak
exponential envelope, plus the capacity lower bound the rate certifies."""

import argparse

import numpy as np

from frameflow.capacity import KAPPA_RATE, matrix_capacity
from frameflow.core import NonNegMatrix, size_of
from frameflow.dynamics import matrix_flow
from frameflow.paulsen import STRONG_RATE_DENOM, capacity_from_rate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--alpha", type=float, default=1.0 / 32.0)
    ap.add_argument("--spread", type=float, default=0.25)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    m, n, alpha = args.m, args.n, args.alpha
    print(f"{m}x{n} matrices, entries in [alpha, (1+spread)*alpha], alpha={alpha:.4g}")
    print(f"{'trial':>5} {'delta0':>10} {'samples':>8} {'strong_margin':>13} "
          f"{'weak_ratio':>10} {'bound@mu*':>11} {'bound@meas':>11} {'capacity':>10}")
    for trial in range(args.trials):
        rng = np.random.default_rng((args.seed, trial))
        a = NonNegMatrix(alpha * (1.0 + rng.uniform(0.0, args.spread, (m, n))))
        _, traj = matrix_flow(a)
        strong = alpha * m * n * traj.delta / STRONG_RATE_DENOM
        margin = float((-traj.dDelta_dt - strong).min())
        envelope = traj.delta[0] * np.exp(-alpha * n * KAPPA_RATE * traj.t)
        weak_ratio = float((traj.delta / envelope).max())
        # the worst-case pseudorandom rate certifies a (very loose) bound;
        # the measured per-sample rate certifies a sharp one
        mu_star = alpha * m * n / STRONG_RATE_DENOM
        mu_meas = float((-traj.dDelta_dt / traj.delta).min()) * (1.0 - 1e-9)
        bound_star = capacity_from_rate(traj, mu=mu_star)
        bound_meas = capacity_from_rate(traj, mu=mu_meas)
        cap = matrix_capacity(a).value
        assert bound_star <= bound_meas <= cap + 1e-9, (bound_star, bound_meas, cap)
        print(f"{trial:5d} {traj.delta[0]:10.3e} {traj.t.size:8d} {margin:13.3e} "
              f"{weak_ratio:10.6f} {bound_star:11.4f} {bound_meas:11.6f} {cap:10.6f}")
    print(f"(size s = {size_of(a):.6f}; a verified rate mu certifies "
          f"cap >= s - 2*delta0/mu)")


if __name__ == "__main__":
    main()
