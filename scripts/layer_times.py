#!/usr/bin/env python3
"""Per-layer timings: the median microseconds per call of each layer of the
capacity and flow code, on fixed seeded inputs.

    PYTHONPATH=src python scripts/layer_times.py [--repeats 21] [--json FILE]

Each row is timed in batches of calls sized to take about 20 ms.  The rows
take turns, one batch each per repeat, so a drift in machine speed spreads
over all of them; a row's figure is the median over its repeats.  Rows:

  delta_of frame 12x3     the imbalance of a near-Parseval 3x12 frame
  delta_of matrix 6x6     the imbalance of a random 6x6 nonnegative matrix
  eps_nearness frame      the spectral nearness of the same frame
  jacobi_eigh 3x3         the eigensolver on the frame's Gram matrix
  frame rhs               one right-hand-side evaluation of the frame flow
  rk4 step                one RK4 step of the frame flow from a given
                          derivative (three evaluations, one state each;
                          a double step takes one for its second half step)
  double step 3x12        one step-doubled attempt of the same frame flow:
                          the first half step and the full step as stacks
                          of two states, the midpoint derivative and the
                          second half step (seven drift calls; an attempt
                          adds one more at its end)
  double step 3x500       the same on a near-Parseval 3x500 frame
  sinkhorn iteration      a 100-iteration Sinkhorn call on a 6x6 matrix with
                          entries zeroed, per iteration
  sinkhorn capped iter    a Sinkhorn call on a 4x4 upper-triangular matrix
                          (positive capacity, no total support, so delta
                          never reaches 1e-12 s^2) stopped at its
                          2000-iteration cap, per iteration
  operator-sinkhorn iter  a 20-iteration operator-Sinkhorn call on a 4x3x4
                          tuple, per iteration
  frame-alternating iter  frame_alternating on a Gaussian 3x12 frame run to
                          delta <= 1e-21, per iteration
  newton iteration        one iteration of the convex matrix route on a
                          positive 4x4 matrix, its first objective evaluation
                          included
  zero check 5x5          capacity_zero_check on a 5x5 pattern that holds
                          the diagonal, so it has a perfect matching: the
                          capacitated matching with both capacities 1
  zero check 5x6 full     capacity_zero_check on a positive 5x6 matrix: a
                          full-support rectangle, decided without its lift
  zero check 5x6 holes    the same on a 5x6 matrix with 30% of its entries
                          zeroed and positive capacity: a capacitated
                          matching on its 5x6 support
  zero check 19x21 tight  the same on tight_example(10).A, capacity zero:
                          the capacitated matching ends with a Hall witness
  zero check 400 square   the same on a seeded sparse 400x400 support
                          (density 3/400, then an entry forced into every
                          row and column: about five a row), so no line is
                          empty and the matching runs in full; it has a
                          perfect matching
  perturb n=500           one perturbation of a near-Parseval 3x500 frame
  cli parse               what cli.main spends on its arguments before it
                          dispatches: the parser and the merged config of
                          `capacity --in X`
  capacity op 5x6 full    one whole in-process `frameflow capacity` op on
                          the positive 5x6 matrix of the zero check rows
                          (read from a JSON file, report to a string): the
                          one pass of capacity_report, both matrix routes
  capacity op 5x6 holes   the same on the 5x6 matrix with zeros

The iteration rows divide by the iteration count their call reports, which
is printed beside them; it should match between two commits compared.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import tempfile
import time

import numpy as np

from frameflow import cli
from frameflow._jacobi import jacobi_eigh
from frameflow.capacity import _matrix_objective, _newton, capacity_zero_check, tight_example
from frameflow.core import NonNegMatrix, delta_of, eps_nearness, save_json
from frameflow.discrete_scaling import frame_alternating, operator_sinkhorn, sinkhorn
from frameflow.dynamics import _FrameSystem, _double_step, _rk4
from frameflow.generate import near_parseval_frame, random_frame, random_matrix, random_operator
from frameflow.paulsen import perturb

BATCH_S = 0.02


def _cli_op(argv: list):
    """A call that runs one in-process CLI op, its report sent to a string."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
    return call


def _rows(workdir: str) -> list:
    """(name, call, iterations per call or None)."""
    frame = near_parseval_frame(3, 12, 0.01, 7)[0]
    matrix = random_matrix(6, 6, 7)
    sparse = NonNegMatrix(matrix.entries * (np.arange(36).reshape(6, 6) % 5 != 0))
    triangular = NonNegMatrix(np.triu(random_matrix(4, 4, 7).entries))
    capped_tol = 1e-12 * triangular.entries.sum() ** 2
    operator = random_operator(4, 3, 4, 7)
    gaussian = random_frame(3, 12, 7)
    positive = NonNegMatrix(np.random.default_rng(7).uniform(0.05, 1.0, (4, 4)))
    pattern = NonNegMatrix((np.random.default_rng(11).random((5, 5)) < 0.6) | np.eye(5, dtype=bool))
    full_rect = random_matrix(5, 6, 7)
    holed_rect = random_matrix(5, 6, 7, density=0.7)
    tight = tight_example(10).A
    square_rng = np.random.default_rng(7)
    square = square_rng.random((400, 400)) < 3.0 / 400
    square[np.arange(400), square_rng.integers(0, 400, 400)] = True
    square[square_rng.integers(0, 400, 400), np.arange(400)] = True
    square = NonNegMatrix(square.astype(float))
    wide = near_parseval_frame(3, 500, 0.01, 7)[0]
    gram = frame.gram()
    system = _FrameSystem(frame)
    y0 = system.y0.copy()
    f0 = system.f(y0)
    wide_system = _FrameSystem(wide)
    wide_y0 = wide_system.y0.copy()
    wide_f0 = wide_system.f(wide_y0)
    objective = _matrix_objective(positive.entries)
    argv = ["capacity", "--in", "x.json"]
    ops = {}
    for name, obj in (("full", full_rect), ("holes", holed_rect)):
        path = os.path.join(workdir, f"{name}.json")
        save_json(obj, path)
        ops[name] = _cli_op(["capacity", "--in", path])

    def parse():
        parser = cli._make_parser()
        return cli._build_config(parser.parse_args(argv), parser)

    sink_iters = sinkhorn(sparse, 0.0, 100)[2].iterations
    capped_iters = sinkhorn(triangular, capped_tol, 2000)[2].iterations
    op_iters = operator_sinkhorn(operator, 0.0, 20)[2].iterations
    frame_iters = frame_alternating(gaussian, 1e-21)[2].iterations
    newton_iters = _newton(objective, np.zeros(4), 0.0, 1)[3]
    return [
        ("delta_of frame 12x3", lambda: delta_of(frame), None),
        ("delta_of matrix 6x6", lambda: delta_of(matrix), None),
        ("eps_nearness frame", lambda: eps_nearness(frame), None),
        ("jacobi_eigh 3x3", lambda: jacobi_eigh(gram), None),
        ("frame rhs", lambda: system.f(y0), None),
        ("rk4 step", lambda: _rk4(system, y0, f0, 1e-3), None),
        ("double step 3x12", lambda: _double_step(system, y0, f0, 1e-3), None),
        ("double step 3x500", lambda: _double_step(wide_system, wide_y0, wide_f0, 1e-3), None),
        ("sinkhorn iteration", lambda: sinkhorn(sparse, 0.0, 100), sink_iters),
        ("sinkhorn capped iter", lambda: sinkhorn(triangular, capped_tol, 2000), capped_iters),
        ("operator-sinkhorn iter", lambda: operator_sinkhorn(operator, 0.0, 20), op_iters),
        ("frame-alternating iter", lambda: frame_alternating(gaussian, 1e-21), frame_iters),
        ("newton iteration", lambda: _newton(objective, np.zeros(4), 0.0, 1), newton_iters),
        ("zero check 5x5", lambda: capacity_zero_check(pattern), None),
        ("zero check 5x6 full", lambda: capacity_zero_check(full_rect), None),
        ("zero check 5x6 holes", lambda: capacity_zero_check(holed_rect), None),
        ("zero check 19x21 tight", lambda: capacity_zero_check(tight), None),
        ("zero check 400 square", lambda: capacity_zero_check(square), None),
        ("perturb n=500", lambda: perturb(wide, 1e-6, 7), None),
        ("cli parse", parse, None),
        ("capacity op 5x6 full", ops["full"], None),
        ("capacity op 5x6 holes", ops["holes"], None),
    ]


def _batch_size(call) -> int:
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < BATCH_S:
        call()
        calls += 1
    return calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--json", help="also write {row: median us per call} here")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        rows = _rows(workdir)
        sizes = [_batch_size(call) for _, call, _ in rows]
        samples = [[] for _ in rows]
        for _ in range(args.repeats):
            for (_, call, iters), size, out in zip(rows, sizes, samples):
                start = time.perf_counter()
                for _ in range(size):
                    call()
                out.append((time.perf_counter() - start) / size / (iters or 1) * 1e6)

    medians = {}
    print(f"{'layer':<24} {'us/call':>9} {'iters':>6}")
    for (name, _, iters), out in zip(rows, samples):
        medians[name] = round(statistics.median(out), 3)
        print(f"{name:<24} {medians[name]:>9.2f} {iters if iters else '':>6}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(medians, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
