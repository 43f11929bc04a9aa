#!/usr/bin/env python3
"""Per-layer timings: the median microseconds per call of each layer of the
capacity and flow code, on fixed seeded inputs.

    PYTHONPATH=src python scripts/layer_times.py [--repeats 21] [--json FILE]
        [--against DIR]

Each row is timed in batches of calls sized to take about 20 ms.  The rows
take turns, one batch each per repeat, so a drift in machine speed spreads
over all of them; a row's figure is the median over its repeats.

With --against DIR, a second copy of the package is imported from
DIR/src/frameflow (a checkout of another commit) under the module name
frameflow_against, and every row is built from both copies.  Each repeat
times the two sides' batches of a row back to back, the side that goes
first alternating between repeats, so both run in one process under the
same machine speed.  Each row then gives both medians, the median over the
repeats of the ratio of the two batches (this tree over DIR), and the share
of repeats in which this tree's batch was the faster.  Whole processes of
unchanged code can differ by up to 2x on a busy 2-core machine, so a
difference between two commits is read from the paired columns, not from
two separate runs.  Rows:

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
  NonNegMatrix 5x5        the constructor on the float array of the pattern
                          of `zero check 5x5`: checked as a list
  NonNegMatrix 19x21      the constructor on the entries of
                          tight_example(10): checked by numpy reductions
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
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

BATCH_S = 0.02
AGAINST = "frameflow_against"
MODULES = ("_jacobi", "capacity", "cli", "core", "discrete_scaling", "dynamics",
           "generate", "paulsen")


def load_copy(src: str, name: str = AGAINST):
    """Import the package at src/frameflow as a second copy under `name`.

    Its modules import each other relatively, so they load as `name.core`,
    `name.capacity` and so on, and sys.modules["frameflow"] is untouched."""
    root = os.path.join(src, "frameflow")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _modules(package: str) -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})


def _cli_op(cli, argv: list):
    """A call that runs one in-process CLI op, its report sent to a string."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
    return call


def _rows(ff: SimpleNamespace, workdir: str) -> list:
    """(name, call, iterations per call or None), built from the modules of
    one copy of the package."""
    cli, jacobi_eigh, perturb = ff.cli, ff._jacobi.jacobi_eigh, ff.paulsen.perturb
    NonNegMatrix, delta_of, eps_nearness = ff.core.NonNegMatrix, ff.core.delta_of, ff.core.eps_nearness
    capacity_zero_check, tight_example = ff.capacity.capacity_zero_check, ff.capacity.tight_example
    _matrix_objective, _newton = ff.capacity._matrix_objective, ff.capacity._newton
    sinkhorn, operator_sinkhorn = ff.discrete_scaling.sinkhorn, ff.discrete_scaling.operator_sinkhorn
    frame_alternating = ff.discrete_scaling.frame_alternating
    _FrameSystem, _double_step, _rk4 = ff.dynamics._FrameSystem, ff.dynamics._double_step, ff.dynamics._rk4
    near_parseval_frame, random_frame = ff.generate.near_parseval_frame, ff.generate.random_frame
    random_matrix, random_operator = ff.generate.random_matrix, ff.generate.random_operator
    frame = near_parseval_frame(3, 12, 0.01, 7)[0]
    matrix = random_matrix(6, 6, 7)
    sparse = NonNegMatrix(matrix.entries * (np.arange(36).reshape(6, 6) % 5 != 0))
    triangular = NonNegMatrix(np.triu(random_matrix(4, 4, 7).entries))
    capped_tol = 1e-12 * triangular.entries.sum() ** 2
    operator = random_operator(4, 3, 4, 7)
    gaussian = random_frame(3, 12, 7)
    positive = NonNegMatrix(np.random.default_rng(7).uniform(0.05, 1.0, (4, 4)))
    pattern_data = ((np.random.default_rng(11).random((5, 5)) < 0.6) | np.eye(5, dtype=bool)).astype(float)
    pattern = NonNegMatrix(pattern_data)
    full_rect = random_matrix(5, 6, 7)
    holed_rect = random_matrix(5, 6, 7, density=0.7)
    tight = tight_example(10).A
    tight_data = np.array(tight.entries)
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
        ff.core.save_json(obj, path)
        ops[name] = _cli_op(cli, ["capacity", "--in", path])

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
        ("NonNegMatrix 5x5", lambda: NonNegMatrix(pattern_data), None),
        ("NonNegMatrix 19x21", lambda: NonNegMatrix(tight_data), None),
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


def _per_call_us(call, size: int, iters) -> float:
    start = time.perf_counter()
    for _ in range(size):
        call()
    return (time.perf_counter() - start) / size / (iters or 1) * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--json", help="also write {row: median us per call} here")
    ap.add_argument("--against", metavar="DIR",
                    help="also time every row on the package in DIR/src, in the same process")
    args = ap.parse_args()

    packages = ["frameflow"]
    if args.against:
        load_copy(os.path.join(args.against, "src"))
        packages.append(AGAINST)
    with tempfile.TemporaryDirectory() as workdir:
        sides = []
        for package in packages:
            os.mkdir(os.path.join(workdir, package))
            sides.append(_rows(_modules(package), os.path.join(workdir, package)))
        rows = sides[0]
        if [r[0] for r in sides[-1]] != [r[0] for r in rows]:
            raise SystemExit("the two copies build different rows")
        # one batch size per row, so both sides time the same number of calls
        sizes = [_batch_size(call) for _, call, _ in rows]
        samples = [[[] for _ in rows] for _ in sides]
        for repeat in range(args.repeats):
            order = list(range(len(sides)))
            if repeat % 2:
                order.reverse()
            for i, size in enumerate(sizes):
                for side in order:
                    _, call, iters = sides[side][i]
                    samples[side][i].append(_per_call_us(call, size, iters))

    medians = {name: round(statistics.median(out), 3) for (name, _, _), out in zip(rows, samples[0])}
    if not args.against:
        print(f"{'layer':<24} {'us/call':>9} {'iters':>6}")
        for name, _, iters in rows:
            print(f"{name:<24} {medians[name]:>9.2f} {iters if iters else '':>6}")
    else:
        print(f"{'layer':<24} {'us/call':>9} {'against':>9} {'ratio':>6} {'won':>5} {'iters':>11}")
        for i, (name, _, iters) in enumerate(rows):
            pairs = list(zip(samples[0][i], samples[1][i]))
            # the median of the per-repeat ratios: a drift in machine speed
            # between repeats cancels within each pair
            ratio = statistics.median(a / b for a, b in pairs)
            won = sum(a < b for a, b in pairs) / len(pairs)
            their_iters = sides[1][i][2]
            counts = "" if not iters else (f"{iters}" if iters == their_iters else f"{iters}/{their_iters}")
            print(f"{name:<24} {medians[name]:>9.2f} {statistics.median(samples[1][i]):>9.2f}"
                  f" {ratio:>6.3f} {won:>5.0%} {counts:>11}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(medians, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
