#!/usr/bin/env python3
"""Answer fingerprints: one sha256 per group of outputs, for checking that a
change leaves answers byte-identical.  Run it at both commits and compare.

Groups:
  flow-trace      the `flow` CSVs of the 24 inputs of the benchmark's
                  flow-trace workload at --seed, each run until delta falls
                  to a tenth of its start, hashed in round order as one
                  stream
  steering        the CSV, final state and work counters of the three flows
                  of tests/test_dynamics.py::_STEERING_INPUTS under
                  validation_options()
  solve-basic     `solve --basic` reports (d=3, n=12), seeds 0-14
  solve-smoothed  `solve --smoothed` reports (d=3, n=500), seeds 0-1
  capacity        `capacity` reports of tight_example(k) for k = 1..6,
                  random_matrix(4, 6, s) and random_operator(4, 3, 5, s) for
                  s = 0..4, and the embedded frames
                  frame_to_operator(random_frame(3, n, (s, n))) for
                  n in {6, 9, 12}, s = 0..9 (their right transform is exactly
                  diagonal, so they pin how its log-determinant is taken)
  capacity-strata
                  `capacity` reports of the strata draws of the benchmark's
                  capacity workload (master seed 171002587): the
                  criterion-04 matrices j = 0..59 but for j = 6, on which
                  Sinkhorn runs to its 100000-iteration cap, the
                  criterion-05 positive 4x4 matrices j = 0..39 and the
                  criterion-03 near-Parseval 3x12 frames j = 0..29, drawn by
                  copies of the workload's generators
  sinkhorn-capped the bytes of B, x, y, iterations and final delta of
                  sinkhorn(a, 1e-12 s^2, 5000) on the 20 draws of the
                  acceptance test's criterion 04 (seed 20260822) whose
                  capacity is positive but whose support lacks total
                  support, so that Sinkhorn stops at its cap (picked as the
                  positive-capacity draws it leaves unconverged)
  zero-check      capacity_zero_check certificates, as json.dumps(...,
                  sort_keys=True), of tight_example(k) for k = 1..12 and of
                  200 seeded rectangular supports whose lifts have sides
                  64-400, half of them with an entry forced into every row
                  and column
  zero-check-small
                  capacity_zero_check certificates, as above, of 500 seeded
                  rectangular supports with m, n <= 7 (lifts of side at most
                  63), 500 seeded 5x5 patterns, 40 seeded squares of side
                  64-400 with an entry forced into every row and column, and
                  the reversed lower triangles of sides 64, 128, 256, 400,
                  512, 700 and 900, whose only perfect matching is the
                  anti-diagonal

`group_digests` builds every group and hashes it; `main` prints what it
returns, and tests/test_answers.py pins it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np

from frameflow import cli
from frameflow.capacity import capacity_zero_check, tight_example
from frameflow.core import NonNegMatrix, frame_to_operator, save_json, size_of
from frameflow.discrete_scaling import sinkhorn
from frameflow.dynamics import (
    frame_flow,
    matrix_flow,
    operator_flow,
    trajectory_csv,
    validation_options,
)
from frameflow.generate import near_parseval_frame, random_frame, random_matrix, random_operator

FLOW_DROP = 0.1   # the flow-trace workload's delta target, as a share of delta0


def _run(argv: list) -> tuple[int, str, str]:
    """rc, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _initial_delta(family: str, arr: np.ndarray) -> float:
    """delta0 written as the benchmark's numpy reference writes it, so that
    --tol carries the same bytes as in a flow-trace op."""
    if family == "operator":
        _, m, n = arr.shape
        left = sum(a @ a.T for a in arr)
        right = sum(a.T @ a for a in arr)
        s = float(np.trace(left))
        dl = s * np.eye(m) - m * left
        dr = s * np.eye(n) - n * right
        return float(np.sum(dl * dl) / m + np.sum(dr * dr) / n)
    m, n = arr.shape
    s = float(arr.sum())
    r = arr.sum(axis=1)
    c = arr.sum(axis=0)
    return float(np.sum((s - m * r) ** 2) / m + np.sum((s - n * c) ** 2) / n)


def flow_trace_csvs(seed: int, workdir: str) -> list:
    out = []
    for r in range(8):
        for family, obj in (("operator", random_operator(8, 3, 8, (seed, 3, r))),
                            ("matrix", random_matrix(4, 6, (seed, 3, r))),
                            ("tight", tight_example(2).A)):
            path = os.path.join(workdir, f"flow-{r}-{family}.json")
            save_json(obj, path)
            arr = obj.mats if family == "operator" else obj.entries
            tol = FLOW_DROP * _initial_delta(family, np.asarray(arr))
            rc, csv, err = _run(["flow", "--in", path, "--tol", repr(tol)])
            if rc != 0:
                raise SystemExit(f"flow on {family} round {r} exited {rc}: {err.strip()}")
            out.append(csv.encode())
    return out


def steering_flows() -> list:
    out = []
    for obj, flow, data in (
        (near_parseval_frame(3, 8, 0.05, 41)[0], frame_flow, "vectors"),
        (random_operator(4, 3, 5, 42), operator_flow, "mats"),
        (random_matrix(3, 4, 43), matrix_flow, "entries"),
    ):
        final, traj = flow(obj, opts=validation_options())
        counters = (traj.status, traj.steps, traj.rejected_err, traj.rejected_delta, traj.evals)
        out.append(trajectory_csv(traj).encode() + repr(counters).encode()
                   + getattr(final, data).tobytes())
    return out


def solve_reports(mode: str, n: int, seeds) -> list:
    out = []
    for s in seeds:
        rc, report, err = _run(["solve", mode, "--d", "3", "--n", str(n), "--eps", "0.01",
                                "--trials", "1", "--seed", str(s)])
        out.append(f"{rc}\n{report}\n{err}".encode())
    return out


def capacity_reports(workdir: str) -> list:
    objs = [tight_example(k).A for k in range(1, 7)]
    objs += [random_matrix(4, 6, s) for s in range(5)]
    objs += [random_operator(4, 3, 5, s) for s in range(5)]
    objs += [frame_to_operator(random_frame(3, n, (s, n))) for n in (6, 9, 12) for s in range(10)]
    return _capacity_reports(objs, workdir, "capacity")


def _capacity_reports(objs, workdir: str, stem: str) -> list:
    out = []
    for i, obj in enumerate(objs):
        path = os.path.join(workdir, f"{stem}-{i}.json")
        save_json(obj, path)
        rc, report, err = _run(["capacity", "--in", path])
        out.append(f"{rc}\n{report}\n{err}".encode())
    return out


STRATA_MASTER = 171002587
STRATA_DRAWS = (("c04", [j for j in range(60) if j != 6]),
                ("c05", range(40)),
                ("frame", range(30)))


def strata_input(family: str, j: int):
    """The j-th seeded draw of a capacity-workload family."""
    if family == "c04":
        rng = np.random.default_rng([STRATA_MASTER, 4, j])
        m, n = rng.integers(1, 7, 2)
        ent = rng.uniform(0.0, 1.0, (m, n)) ** 2
        if rng.random() < 0.3:
            ent *= rng.random((m, n)) < 0.8
        return NonNegMatrix(ent)
    if family == "c05":
        rng = np.random.default_rng([STRATA_MASTER, 5, j])
        return NonNegMatrix(rng.uniform(0.05, 1.0, (4, 4)))
    return near_parseval_frame(3, 12, 0.01, (STRATA_MASTER, 3, j))[0]


def capacity_strata_reports(workdir: str) -> list:
    return _capacity_reports([strata_input(family, j) for family, draws in STRATA_DRAWS
                              for j in draws], workdir, "strata")


C04_SEED = 20260822      # the acceptance tests' SEED
C04_CAP = 5000


def sinkhorn_capped() -> list:
    """Sinkhorn on the criterion-04 draws that have positive capacity but
    no total support: every one runs to the cap."""
    rng = np.random.default_rng(C04_SEED)
    out = []
    for _ in range(1000):
        m, n = rng.integers(1, 7, 2)
        ent = rng.uniform(0.0, 1.0, (m, n)) ** 2
        if rng.random() < 0.3:
            ent *= rng.random((m, n)) < 0.8
        a = NonNegMatrix(ent)
        if capacity_zero_check(a) is not None:
            continue
        b, (x, y), report = sinkhorn(a, 1e-12 * size_of(a) ** 2, C04_CAP)
        if not report.converged:
            out.append(b.entries.tobytes() + x.tobytes() + y.tobytes()
                       + repr((report.iterations, report.final_delta)).encode())
    return out


def zero_check_certificates() -> list:
    objs = [tight_example(k).A for k in range(1, 13)]
    rng = np.random.default_rng(0)
    while len(objs) < 212:
        m, n = (int(x) for x in rng.integers(2, 41, 2))
        if not 64 <= m * n // math.gcd(m, n) <= 400:
            continue
        support = rng.random((m, n)) < rng.uniform(0.02, 0.3)
        if len(objs) % 2:
            support[np.arange(m), rng.integers(0, n, m)] = True
            support[rng.integers(0, m, n), np.arange(n)] = True
        objs.append(NonNegMatrix(support * rng.uniform(0.5, 2.0, (m, n))))
    return _certificates(objs)


def zero_check_small_certificates() -> list:
    rng = np.random.default_rng(1)
    objs = []
    while len(objs) < 500:
        m, n = (int(x) for x in rng.integers(1, 8, 2))
        if m != n:
            support = rng.random((m, n)) < rng.uniform(0.2, 0.95)
            objs.append(NonNegMatrix(support * rng.uniform(0.5, 2.0, (m, n))))
    objs += [NonNegMatrix((rng.random((5, 5)) < rng.uniform(0.1, 0.9)).astype(float))
             for _ in range(500)]
    for _ in range(40):
        n = int(rng.integers(64, 401))
        support = rng.random((n, n)) < rng.uniform(0.0, 1.0) * math.log(n + 1) / n
        support[np.arange(n), rng.integers(0, n, n)] = True
        support[rng.integers(0, n, n), np.arange(n)] = True
        objs.append(NonNegMatrix(support.astype(float)))
    objs += [NonNegMatrix(np.tril(np.ones((n, n)))[::-1].copy())
             for n in (64, 128, 256, 400, 512, 700, 900)]
    return _certificates(objs)


def _certificates(objs) -> list:
    return [json.dumps(capacity_zero_check(a), sort_keys=True).encode() for a in objs]


def group_digests(seed: int = 1) -> list:
    """(name, number of outputs, sha256 of their concatenation) per group,
    with the flow-trace workload at `seed`."""
    with tempfile.TemporaryDirectory() as workdir:
        groups = [
            ("flow-trace", flow_trace_csvs(seed, workdir)),
            ("steering", steering_flows()),
            ("solve-basic", solve_reports("--basic", 12, range(15))),
            ("solve-smoothed", solve_reports("--smoothed", 500, range(2))),
            ("capacity", capacity_reports(workdir)),
            ("capacity-strata", capacity_strata_reports(workdir)),
            ("sinkhorn-capped", sinkhorn_capped()),
            ("zero-check", zero_check_certificates()),
            ("zero-check-small", zero_check_small_certificates()),
        ]
    return [(name, len(outputs), hashlib.sha256(b"".join(outputs)).hexdigest())
            for name, outputs in groups]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1, help="flow-trace workload seed")
    args = ap.parse_args()
    for name, count, digest in group_digests(args.seed):
        print(f"{name:<16} {count:>4} {digest}")


if __name__ == "__main__":
    main()
