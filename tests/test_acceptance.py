"""Acceptance gate: twelve numbered criteria, each printed as a single
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every criterion is checked at its stated parameters and tolerances; nothing
is weakened to make a line turn green.
"""

import itertools
import json
import math
import time
import warnings

import numpy as np

from frameflow.capacity import (
    capacity_zero_check,
    frame_capacity,
    matrix_capacity,
    matrix_capacity_convex,
    tensor_square,
    tight_example,
)
from frameflow.checks import identity_errors
from frameflow.cli import main
from frameflow.core import (
    Frame,
    NonNegMatrix,
    delta_of,
    dist,
    eps_nearness,
    size_of,
)
from frameflow.dynamics import frame_flow, matrix_flow, operator_flow, validation_options
from frameflow.generate import near_parseval_frame, random_matrix, random_operator
from frameflow.paulsen import perturb, perturbation_stats, solve_basic, solve_smoothed

SEED = 20260822


def _criterion(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_basic_pipeline_distance_bound():
    d, n, eps_req, seeds = 3, 12, 0.01, 100
    worst_gram = worst_norm = worst_ratio = worst_time = 0.0
    ok = True
    for sd in range(seeds):
        u, _ = near_parseval_frame(d, n, eps_req, (SEED, sd))
        eps_in = eps_nearness(u)
        t0 = time.perf_counter()
        v, report = solve_basic(u)
        elapsed = time.perf_counter() - t0
        gram_err = float(np.linalg.norm(v.vectors.T @ v.vectors - np.eye(d)))
        norm_err = float(np.abs(v.norms2() - d / n).max())
        bound = 100.0 * d * d * n * eps_in
        worst_gram = max(worst_gram, gram_err)
        worst_norm = max(worst_norm, norm_err)
        worst_ratio = max(worst_ratio, report.dist / bound)
        worst_time = max(worst_time, elapsed)
        ok &= gram_err <= 1e-8 and norm_err <= 1e-8
        ok &= report.dist <= bound and elapsed <= 10.0
    _criterion(
        1, "basic pipeline distance bound", ok,
        f"{seeds} seeds, worst gram {worst_gram:.2e}, worst norm {worst_norm:.2e}, "
        f"worst dist/bound {worst_ratio:.3f}, worst time {worst_time:.2f}s",
    )


def test_criterion_02_flow_derivative_identities():
    worst_s = worst_d = 0.0
    for obj, flow in [
        (random_operator(8, 3, 8, SEED), operator_flow),
        (random_matrix(4, 6, SEED), matrix_flow),
    ]:
        _, traj = flow(obj, opts=validation_options())
        err_s, err_d = identity_errors(traj.t, traj.s, traj.delta, traj.dDelta_dt)
        worst_s = max(worst_s, err_s)
        worst_d = max(worst_d, err_d)
    ok = worst_s <= 1e-5 and worst_d <= 1e-4
    _criterion(
        2, "flow derivative identities", ok,
        f"|FD(s)+2D| <= {worst_s:.2e} (tol 1e-5), |FD(D)-D'| <= {worst_d:.2e} (tol 1e-4)",
    )


def test_criterion_03_capacity_conserved_by_flows():
    u, _ = near_parseval_frame(3, 12, 0.01, (SEED, 3))
    v, _ = frame_flow(u)
    cf0, cf1 = frame_capacity(u).value, frame_capacity(v).value
    drift_frame = abs(cf0 - cf1) / max(cf0, cf1)

    a = random_matrix(4, 6, (SEED, 4))
    b, _ = matrix_flow(a)
    cm0, cm1 = matrix_capacity(a).value, matrix_capacity(b).value
    drift_matrix = abs(cm0 - cm1) / max(cm0, cm1)

    ok = drift_frame <= 1e-5 and drift_matrix <= 1e-5
    _criterion(
        3, "capacity conserved by flows", ok,
        f"frame drift {drift_frame:.2e}, matrix drift {drift_matrix:.2e} (tol 1e-5)",
    )


def test_criterion_04_capacity_bracket():
    rng = np.random.default_rng(SEED)
    worst_lo = worst_hi = -math.inf
    ok = True
    for _ in range(1000):
        m, n = rng.integers(1, 7, 2)
        ent = rng.uniform(0.0, 1.0, (m, n)) ** 2
        if rng.random() < 0.3:
            ent *= rng.random((m, n)) < 0.8
        a = NonNegMatrix(ent)
        value = matrix_capacity(a).value
        s, dd = size_of(a), delta_of(a)
        lo = max(0.0, s - m * n * math.sqrt(dd / 2.0)) - 1e-9
        hi = s + 1e-9
        ok &= lo <= value <= hi
        worst_lo = max(worst_lo, lo - value)
        worst_hi = max(worst_hi, value - hi)
    _criterion(
        4, "capacity bracket", ok,
        f"1000 draws (m,n <= 6), worst lower excess {worst_lo:.2e}, "
        f"worst upper excess {worst_hi:.2e}",
    )


def test_criterion_05_dual_capacity_oracles():
    rng = np.random.default_rng((SEED, 5))
    worst_gap = 0.0
    for _ in range(200):
        a = NonNegMatrix(rng.uniform(0.05, 1.0, (4, 4)))
        u, v = matrix_capacity(a).value, matrix_capacity_convex(a).value
        worst_gap = max(worst_gap, abs(u - v) / max(u, v))
    worst_diag = 0.0
    for _ in range(20):
        diag = rng.uniform(0.2, 3.0, 4)
        a = NonNegMatrix(np.diag(diag))
        closed = 4.0 * float(np.prod(diag)) ** 0.25
        worst_diag = max(
            worst_diag,
            abs(matrix_capacity(a).value - closed),
            abs(matrix_capacity_convex(a).value - closed),
        )
    ok = worst_gap <= 1e-4 and worst_diag <= 1e-6
    _criterion(
        5, "dual capacity oracles agree", ok,
        f"200 positive 4x4 rel gap <= {worst_gap:.2e} (tol 1e-4), "
        f"diagonal closed-form error <= {worst_diag:.2e} (tol 1e-6)",
    )


def test_criterion_06_tight_family():
    worst = 0.0
    ok = True
    for k in range(2, 11):
        ex = tight_example(k)
        target = 1.0 / (8.0 * k**4 - 6.0 * k**2)
        worst = max(worst, abs(delta_of(ex.A) - target))
        res = matrix_capacity(ex.A)
        ok &= res.value == 0.0 and res.certificate is not None
    ok &= worst <= 1e-12
    _criterion(
        6, "tight example family", ok,
        f"k=2..10, worst |delta - 1/(8k^4-6k^2)| = {worst:.2e}, zero certificates found",
    )


def test_criterion_07_tensor_reduction():
    rng = np.random.default_rng((SEED, 7))
    worst_cap = worst_delta = 0.0
    for i in range(100):
        ent = rng.uniform(0.05, 1.0, (3, 2))
        if i % 5 == 0:
            ent[rng.integers(0, 3), rng.integers(0, 2)] = 0.0
        a = NonNegMatrix(ent)
        b = tensor_square(a)
        ca, cb = matrix_capacity(a).value, matrix_capacity(b).value
        worst_cap = max(worst_cap, abs(ca - cb) / max(ca, cb, 1e-30))
        worst_delta = max(worst_delta, abs(delta_of(a) - delta_of(b)))
    ok = worst_cap <= 1e-6 and worst_delta <= 1e-12
    _criterion(
        7, "tensor square reduction", ok,
        f"100 random 3x2 with (p,q)=(2,3): rel cap gap <= {worst_cap:.2e}, "
        f"|delta(A)-delta(B)| <= {worst_delta:.2e}",
    )


def test_criterion_08_pseudorandom_rate():
    alpha = 1.0 / 32.0
    ok = True
    worst_strong = math.inf
    worst_weak = 0.0
    for m, n in [(4, 8), (6, 12)]:
        for sd in range(50):
            rng = np.random.default_rng((SEED, 8, m, sd))
            a = NonNegMatrix(alpha * (1.0 + rng.uniform(0.0, 0.25, (m, n))))
            _, traj = matrix_flow(a)
            lhs = -traj.dDelta_dt
            rhs = alpha * m * n * traj.delta / 32000.0
            envelope = traj.delta[0] * np.exp(-alpha * n * traj.t / 8192000.0)
            ok &= bool(np.all(lhs >= rhs * (1.0 - 1e-9)))
            ok &= bool(np.all(traj.delta <= envelope * (1.0 + 1e-12)))
            worst_strong = min(worst_strong, float((lhs - rhs).min()))
            worst_weak = max(worst_weak, float((traj.delta / envelope).max()))
    _criterion(
        8, "pseudorandom decay rates", ok,
        f"4x8 and 6x12, 50 seeds each: strong-rate min margin {worst_strong:.2e}, "
        f"weak envelope max ratio {worst_weak:.6f}",
    )


def test_criterion_09_perturbation_statistics():
    d, n, sigma2, trials = 3, 200, 1e-5, 200
    base, _ = near_parseval_frame(d, n, 0.0, (SEED, 9))

    ok = True
    dists = []
    worst_inner = worst_outer = 0.0
    for t in range(trials):
        w, noise = perturb(base, sigma2, (SEED, 9, t))
        dists.append(dist(base, w))
        stats = perturbation_stats(base, w, noise)
        inner, outer = stats["max_inner_violation"], stats["outer_violation"]
        worst_inner = max(worst_inner, inner)
        worst_outer = max(worst_outer, outer)
        ok &= inner <= 1e-9 and outer <= 1e-9
    mean_dist = float(np.mean(dists))
    ok &= mean_dist <= 2.2 * sigma2 * d * n

    # imbalance growth across the stated band of input imbalances
    rng = np.random.default_rng((SEED, 99))
    g = rng.standard_normal((n, d))
    worst_ratio = 0.0
    for band, target in enumerate((3e-8, 1e-6, 8e-5)):
        eta, du, uren = math.sqrt(target) * 0.1, None, None
        for _ in range(8):
            u = Frame(base.vectors + eta * g)
            uren = Frame(u.vectors * math.sqrt(d / n) / np.sqrt(u.norms2())[:, None])
            du = delta_of(uren)
            if 1e-8 <= du <= 1e-4 and 0.5 * target <= du <= 2.0 * target:
                break
            eta *= math.sqrt(target / du)
        ok &= 1e-8 <= du <= 1e-4
        mean_dw = float(np.mean([
            delta_of(perturb(uren, sigma2, (SEED, 9, band, t))[0]) for t in range(trials)
        ]))
        worst_ratio = max(worst_ratio, mean_dw / du)
        ok &= mean_dw <= 300.0 * du
    _criterion(
        9, "perturbation statistics", ok,
        f"{trials} trials: mean dist {mean_dist:.4f} <= {2.2 * sigma2 * d * n:.4f}, "
        f"constraints <= {max(worst_inner, worst_outer):.2e} (tol 1e-9), "
        f"band mean-imbalance ratio <= {worst_ratio:.1f} (tol 300)",
    )


def test_criterion_10_smoothed_pipeline():
    # The worst-case guarantee needs n >= 1e15 d^4 / (zeta^2 kappa^2) and is
    # NOT claimed here; this is the property-based desk-scale substitute.
    d, n, seeds = 3, 500, 50
    successes = 0
    halving_ok = size_ok = True
    for sd in range(seeds):
        u, _ = near_parseval_frame(d, n, 0.01, (SEED, 10, sd))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                v, trace = solve_smoothed(u, final_delta=1e-10, seed=sd)
        except Exception:
            continue
        if trace.records:
            delta0 = trace.records[0]["delta_before"]
            halving_ok &= all(
                rec["delta_after"] <= delta0 / 2.0 ** (rec["l"] + 1) * (1.0 + 1e-12)
                for rec in trace.records
            )
        size_ok &= abs(size_of(v) - d) <= 1e-12 * d
        if len(trace.records) <= 60 and delta_of(v) <= 1e-10:
            successes += 1
    ok = successes >= 0.8 * seeds and halving_ok and size_ok
    _criterion(
        10, "smoothed pipeline (desk-scale substitute; worst-case bound not claimed)",
        ok,
        f"{successes}/{seeds} seeds reached delta <= 1e-10 within 60 iterations "
        f"(need >= {int(0.8 * seeds)}), halving {halving_ok}, size {size_ok}",
    )


def _permanent_positive_batch(mats: np.ndarray) -> np.ndarray:
    """Vectorized boolean-permanent positivity for a (B,5,5) stack."""
    rows = np.arange(5)
    pos = np.zeros(mats.shape[0], dtype=bool)
    for perm in itertools.permutations(range(5)):
        pos |= mats[:, rows, perm].all(axis=1)
    return pos


def test_criterion_11_zero_capacity_oracle():
    t0 = time.perf_counter()
    blocks = [np.zeros((1, 25), dtype=bool)]
    for ones in range(1, 9):
        combos = np.array(list(itertools.combinations(range(25), ones)), dtype=np.int64)
        block = np.zeros((combos.shape[0], 25), dtype=bool)
        block[np.arange(combos.shape[0])[:, None], combos] = True
        blocks.append(block)
    rng = np.random.default_rng((SEED, 11))
    blocks.append(rng.random((10_000, 25)) < rng.uniform(0.1, 0.9, (10_000, 1)))
    pats = np.concatenate(blocks).reshape(-1, 5, 5)

    expected = _permanent_positive_batch(pats)
    mismatches = 0
    chunk = 200_000
    for start in range(0, pats.shape[0], chunk):
        floats = pats[start:start + chunk].astype(np.float64)
        for i in range(floats.shape[0]):
            got_positive = capacity_zero_check(NonNegMatrix(floats[i])) is None
            mismatches += got_positive != expected[start + i]
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed <= 60.0
    _criterion(
        11, "zero-capacity oracle vs permanent", ok,
        f"{pats.shape[0]} patterns (all <= 8 ones + 10^4 random), "
        f"{mismatches} mismatches, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_12_solver_determinism(tmp_path):
    ok = True
    detail = []
    for mode, argv in [
        ("basic", ["solve", "--basic", "--d", "3", "--n", "12", "--eps", "0.01",
                   "--trials", "2", "--seed", "12"]),
        ("smoothed", ["solve", "--smoothed", "--d", "3", "--n", "60", "--eps", "0.01",
                      "--trials", "1", "--seed", "12"]),
    ]:
        a, b = tmp_path / f"{mode}_a.json", tmp_path / f"{mode}_b.json"
        rc1 = main(argv + ["--out", str(a)])
        rc2 = main(argv + ["--out", str(b)])
        same = a.read_bytes() == b.read_bytes()
        ok &= rc1 == 0 and rc2 == 0 and same
        detail.append(f"{mode}: rc=({rc1},{rc2}), identical={same}")
        json.loads(a.read_text())          # reports must stay valid JSON
    _criterion(12, "solver byte determinism", ok, "; ".join(detail))
