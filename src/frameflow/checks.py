"""Named invariant checks, one per documented property of the library,
runnable as a suite (the ``check`` subcommand).  Each check returns a result
with the identity it tested and the worst observed values, so a violation
prints something actionable.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from ._jacobi import sym_inv_sqrt
from .capacity import (
    KAPPA_RATE,
    capacity_bounds,
    capacity_zero_check,
    matrix_capacity,
    matrix_capacity_convex,
    frame_capacity,
    tensor_square,
)
from .core import (
    Frame,
    NonNegMatrix,
    delta_of,
    dist,
    eps_nearness,
    frame_to_operator,
    is_doubly_balanced,
    size_of,
)
from .dynamics import (
    CSV_HEADER,
    FlowOptions,
    frame_flow,
    matrix_flow,
    operator_flow,
    validation_options,
)
from .generate import near_parseval_frame, random_frame, random_matrix, random_operator
from .paulsen import perturb, perturbation_stats, solve_basic, solve_smoothed


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def finite_difference(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Centered derivative estimates at interior samples of a nonuniform
    grid (exact on quadratics): returns f'(t[1:-1])."""
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    return (
        -h2 / (h1 * (h1 + h2)) * f[:-2]
        + (h2 - h1) / (h1 * h2) * f[1:-1]
        + h1 / (h2 * (h1 + h2)) * f[2:]
    )


def identity_errors(t: np.ndarray, s: np.ndarray, delta: np.ndarray,
                    dDelta_dt: np.ndarray) -> tuple[float, float]:
    """Worst relative residuals of the flow identities ds/dt = -2 delta and
    ddelta/dt = dDelta_dt on a sampled trajectory, from finite differences
    at the interior samples, each divided by max(1, delta).  (0.0, 0.0) with
    fewer than three samples."""
    if t.size < 3:
        return 0.0, 0.0
    scale = np.maximum(1.0, delta[1:-1])
    err_s = np.abs(finite_difference(t, s) + 2.0 * delta[1:-1]) / scale
    err_d = np.abs(finite_difference(t, delta) - dDelta_dt[1:-1]) / scale
    return float(err_s.max()), float(err_d.max())


def _permanent_positive(support: np.ndarray) -> bool:
    """Brute-force: does some permutation avoid the zero pattern?"""
    n = support.shape[0]
    rows = [int(sum(1 << j for j in range(n) if support[i, j])) for i in range(n)]
    full = (1 << n) - 1
    reach = {0}
    for r in rows:
        reach = {s | (1 << j) for s in reach for j in range(n) if (r >> j) & 1 and not (s >> j) & 1}
        if not reach:
            return False
    return full in reach


# ---------------------------------------------------------------------------
# measure layer


def check_core_delta_eps_bound(seed: int = 0) -> CheckResult:
    worst = -math.inf
    for i in range(20):
        d = 2 + i % 4
        n = d + 2 + i
        fr = random_frame(d, n, (seed, 1, i))
        eps = eps_nearness(fr)
        slack = 2.0 * d * d * eps * eps + 1e-9 - delta_of(fr)
        worst = max(worst, -slack)
    return _result(
        "core_delta_eps_bound",
        worst <= 0.0,
        f"delta <= 2 d^2 eps^2 + 1e-9 at size d; worst excess {worst:.3e}",
    )


def check_core_delta_zero_iff_balanced(seed: int = 0) -> CheckResult:
    cases = []
    for d, n in [(3, 3), (4, 4)]:
        fr = Frame(np.eye(d))
        cases.append((delta_of(fr), is_doubly_balanced(fr, 1e-12), True))
    ones = NonNegMatrix(np.full((3, 5), 1.0 / 15.0))
    cases.append((delta_of(ones), is_doubly_balanced(ones, 1e-12), True))
    for i in range(5):   # a Gaussian frame is not balanced
        fr = random_frame(3, 7, (seed, 2, i))
        cases.append((delta_of(fr), is_doubly_balanced(fr, 1e-12), False))
    bad = [c for c in cases if c[1] != c[2]]
    return _result(
        "core_delta_zero_iff_balanced",
        not bad,
        f"{len(cases)} objects, mismatches {len(bad)}",
    )


def check_core_embedding_preserves_measures(seed: int = 0) -> CheckResult:
    worst = 0.0
    for i in range(10):
        fr = random_frame(2 + i % 3, 6 + i, (seed, 3, i))
        op = frame_to_operator(fr)
        s = size_of(fr)
        scale = max(1.0, s)
        worst = max(
            worst,
            abs(s - size_of(op)) / scale,
            abs(delta_of(fr) - delta_of(op)) / scale,
            abs(eps_nearness(fr) - eps_nearness(op)),
        )
    return _result(
        "core_embedding_preserves_measures",
        worst <= 1e-12,
        f"max discrepancy of (s, delta, eps) across embedding {worst:.3e}",
    )


def check_core_dist_metric(seed: int = 0) -> CheckResult:
    rng = np.random.Generator(np.random.Philox((seed, 4)))
    worst = 0.0
    ok = True
    for _ in range(50):
        a, b, c = (Frame(rng.normal(size=(5, 3))) for _ in range(3))
        ok &= dist(a, b) >= 0 and dist(a, a) == 0.0 and dist(a, b) == dist(b, a)
        gap = math.sqrt(dist(a, c)) - math.sqrt(dist(a, b)) - math.sqrt(dist(b, c))
        worst = max(worst, gap)
    return _result(
        "core_dist_metric",
        ok and worst <= 1e-12,
        f"symmetry/nonnegativity hold={ok}, worst triangle excess {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# discrete scaling layer


def check_scaling_sinkhorn_marginals(seed: int = 0) -> CheckResult:
    worst = 0.0
    for i in range(10):
        a = random_matrix(3 + i % 3, 4 + i % 4, (seed, 5, i))
        ent = a.entries.copy()
        s = ent.sum()
        m, n = ent.shape
        for _ in range(4):
            ent *= (s / m) / ent.sum(axis=1, keepdims=True)
            s = ent.sum()
            worst = max(worst, np.abs(ent.sum(axis=1) - s / m).max() / (s / m))
            ent *= (s / n) / ent.sum(axis=0, keepdims=True)
            s = ent.sum()
            worst = max(worst, np.abs(ent.sum(axis=0) - s / n).max() / (s / n))
    return _result(
        "scaling_sinkhorn_marginals",
        worst <= 1e-12,
        f"post-pass marginal error {worst:.3e} (tol 1e-12)",
    )


def check_scaling_operator_steps(seed: int = 0) -> CheckResult:
    worst = 0.0
    for i in range(10):
        u = random_operator(4, 3, 5, (seed, 6, i))
        li = sym_inv_sqrt(u.left_gram())
        v = np.matmul(li, u.mats)
        left = np.einsum("kmn,kln->ml", v, v)
        worst = max(worst, np.abs(left - np.eye(3)).max())
        vt = np.matmul(v, sym_inv_sqrt(np.einsum("kmi,kmj->ij", v, v))) * math.sqrt(3 / 5)
        right = np.einsum("kmi,kmj->ij", vt, vt)
        scale = np.trace(right) / 5
        worst = max(worst, np.abs(right - scale * np.eye(5)).max() / max(scale, 1e-300))
    return _result(
        "scaling_operator_steps",
        worst <= 1e-10,
        f"post-step Gram deviation {worst:.3e} (tol 1e-10)",
    )


def check_scaling_capacity_covariance(seed: int = 0) -> CheckResult:
    rng = np.random.Generator(np.random.Philox((seed, 7)))
    worst = 0.0
    for i in range(10):
        a = random_matrix(4, 4, (seed, 7, i))
        x = np.exp(rng.uniform(-1.0, 1.0, size=4))
        y = np.exp(rng.uniform(-1.0, 1.0, size=4))
        scaled = NonNegMatrix(a.entries * np.outer(x, y))
        lhs = matrix_capacity(scaled, tol=1e-14).value
        rhs = (
            float(np.prod(x)) ** (1 / 4)
            * float(np.prod(y)) ** (1 / 4)
            * matrix_capacity(a, tol=1e-14).value
        )
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    return _result(
        "scaling_capacity_covariance",
        worst <= 1e-5,
        f"cap(XAY) vs product rule, rel err {worst:.3e} (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# flow layer


# four flow checks read the same three recorded flows; one run per seed
# serves them all, and the checks only read the results
@functools.lru_cache(maxsize=1)
def _flow_triple(seed: int):
    opts = validation_options(record_states=True)
    op = random_operator(4, 3, 5, (seed, 8, 0))
    fr = near_parseval_frame(3, 8, 0.05, (seed, 8, 1))[0]
    mat = random_matrix(3, 4, (seed, 8, 2))
    return tuple((obj, *flow(obj, opts=opts))
                 for obj, flow in [(op, operator_flow), (fr, frame_flow), (mat, matrix_flow)])


def check_flow_s_identity(seed: int = 0) -> CheckResult:
    worst = max(identity_errors(traj.t, traj.s, traj.delta, traj.dDelta_dt)[0]
                for _, _, traj in _flow_triple(seed))
    return _result(
        "flow_s_identity",
        worst <= 1e-5,
        f"|FD(s) + 2 delta| rel err {worst:.3e} (tol 1e-5)",
    )


def check_flow_delta_identity(seed: int = 0) -> CheckResult:
    worst = max(identity_errors(traj.t, traj.s, traj.delta, traj.dDelta_dt)[1]
                for _, _, traj in _flow_triple(seed))
    return _result(
        "flow_delta_identity",
        worst <= 1e-4,
        f"|FD(delta) - dDelta/dt| rel err {worst:.3e} (tol 1e-4)",
    )


def check_flow_monotone(seed: int = 0) -> CheckResult:
    worst = 0.0
    for _, _, traj in _flow_triple(seed):
        worst = max(worst, float(np.diff(traj.s).max(initial=-math.inf)))
        worst = max(worst, float(np.diff(traj.delta).max(initial=-math.inf)))
    return _result(
        "flow_monotone",
        worst <= 1e-12,
        f"largest sample-to-sample increase of s or delta: {worst:.3e}",
    )


def check_flow_capacity_conserved(seed: int = 0) -> CheckResult:
    fr = near_parseval_frame(3, 8, 0.05, (seed, 9, 0))[0]
    final, _ = frame_flow(fr)
    c0 = frame_capacity(fr).value
    c1 = frame_capacity(final).value
    drift_f = abs(c1 - c0) / max(c0, 1e-300)
    mat = random_matrix(3, 4, (seed, 9, 1))
    mfinal, _ = matrix_flow(mat)
    m0 = matrix_capacity(mat, tol=1e-14).value
    m1 = matrix_capacity(mfinal, tol=1e-14).value
    drift_m = abs(m1 - m0) / max(m0, 1e-300)
    worst = max(drift_f, drift_m)
    return _result(
        "flow_capacity_conserved",
        worst <= 1e-5,
        f"relative capacity drift frame {drift_f:.3e}, matrix {drift_m:.3e} (tol 1e-5)",
    )


def check_flow_reconstruction(seed: int = 0) -> CheckResult:
    worst = 0.0
    for obj, _, traj in _flow_triple(seed):
        stride = max(1, len(traj.states) // 8)
        for idx in range(0, len(traj.states), stride):
            state = traj.states[idx]
            x, y = state.transforms
            if traj.kind == "operator":
                recon = np.matmul(np.matmul(x, obj.mats), y)
                cur = state.obj.mats
            elif traj.kind == "frame":
                recon = (x @ obj.vectors.T).T * y[:, None]
                cur = state.obj.vectors
            else:
                recon = obj.entries * np.outer(x, y) ** 2
                cur = state.obj.entries
            scale = max(float(np.abs(cur).max()), 1e-300)
            worst = max(worst, float(np.abs(recon - cur).max()) / scale)
    return _result(
        "flow_reconstruction",
        worst <= 1e-7,
        f"state vs scaled initial object, rel err {worst:.3e} (tol 1e-7)",
    )


def _maintenance_instance(seed: int):
    """Positive matrix of squared entries with imbalance ~1e-19, satisfying
    alpha >= 80 sqrt(m delta)/(kappa n) so the maintenance property applies."""
    rng = np.random.Generator(np.random.Philox((seed, 10)))
    m, n = 4, 8
    base = np.full((m, n), 1.0 / n)
    noise = rng.normal(size=(m, n))
    ent = base + 3e-11 * noise
    ent *= m / ent.sum()
    return NonNegMatrix(ent)


def check_flow_kappa_maintenance(seed: int = 0) -> CheckResult:
    mat = _maintenance_instance(seed)
    delta0 = delta_of(mat)
    alpha = float(mat.entries.min())
    need = 80.0 * math.sqrt(mat.m * delta0) / (KAPPA_RATE * mat.n)
    if alpha < need:
        return _result(
            "flow_kappa_maintenance",
            False,
            f"construction failed precondition alpha {alpha:.3e} < {need:.3e}",
        )
    final, traj = matrix_flow(mat, target_delta=max(delta0 * 1e-6, 1e-28),
                              opts=FlowOptions(record_states=True))
    # the rows are not thinned here, so the states hold every step end
    scales = np.concatenate([np.concatenate(st.transforms) for st in traj.states])
    scale_min, scale_max = float(scales.min()), float(scales.max())
    ok_ratio = math.exp(-0.25) <= scale_min and scale_max <= math.exp(0.25)
    started_big = mat.entries >= alpha
    floor = min(
        float(st.obj.entries[started_big].min() if started_big.any() else math.inf)
        for st in traj.states
    )
    ok_floor = floor >= alpha / 10.0
    return _result(
        "flow_kappa_maintenance",
        ok_ratio and ok_floor,
        f"scale range [{scale_min:.6f}, {scale_max:.6f}] vs e^(+-1/4); "
        f"entry floor {floor:.3e} vs alpha/10 = {alpha / 10:.3e}",
    )


# ---------------------------------------------------------------------------
# capacity layer


def check_cap_le_size(seed: int = 0) -> CheckResult:
    worst = -math.inf
    for i in range(40):
        a = random_matrix(2 + i % 5, 2 + (i // 5) % 5, (seed, 11, i))
        s = size_of(a)
        for res in (matrix_capacity(a), matrix_capacity_convex(a)):
            worst = max(worst, res.value - s - 1e-9 * s)
    return _result(
        "cap_le_size",
        worst <= 0.0,
        f"cap - s - 1e-9 s, worst {worst:.3e} (must be <= 0)",
    )


def check_cap_lower_bracket(seed: int = 0) -> CheckResult:
    worst = -math.inf
    rng = np.random.Generator(np.random.Philox((seed, 12)))
    for i in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = random_matrix(m, n, (seed, 12, i), density=float(rng.uniform(0.4, 1.0)))
        lower, upper = capacity_bounds(a)
        val = matrix_capacity(a).value
        worst = max(worst, lower - 1e-9 - val, val - upper - 1e-9)
    return _result(
        "cap_lower_bracket",
        worst <= 0.0,
        f"bracket excess over 1000 random matrices {worst:.3e} (must be <= 0)",
    )


def check_cap_tensor_square_preserved(seed: int = 0) -> CheckResult:
    worst_c = worst_d = worst_s = 0.0
    for i in range(10):
        a = random_matrix(3, 2, (seed, 13, i))
        b = tensor_square(a)
        worst_s = max(worst_s, abs(size_of(a) - size_of(b)) / size_of(a))
        worst_d = max(worst_d, abs(delta_of(a) - delta_of(b)))
        ca = matrix_capacity(a, tol=1e-14).value
        cb = matrix_capacity(b, tol=1e-14).value
        worst_c = max(worst_c, abs(ca - cb) / max(ca, 1e-300))
    return _result(
        "cap_tensor_square_preserved",
        worst_s <= 1e-12 and worst_d <= 1e-12 and worst_c <= 1e-6,
        f"tensor lift drift: s {worst_s:.3e}, delta {worst_d:.3e}, cap rel {worst_c:.3e}",
    )


def check_cap_zero_vs_permanent(seed: int = 0) -> CheckResult:
    mismatches = 0
    total = 0
    for side in (1, 2, 3, 4):
        for bits in range(1 << (side * side)):
            support = np.array(
                [(bits >> (side * i + j)) & 1 for i in range(side) for j in range(side)],
                dtype=float,
            ).reshape(side, side)
            total += 1
            pred = capacity_zero_check(NonNegMatrix(support)) is None
            if pred != _permanent_positive(support > 0):
                mismatches += 1
    rng = np.random.Generator(np.random.Philox((seed, 14)))
    for _ in range(2000):
        support = (rng.uniform(size=(5, 5)) < rng.uniform(0.1, 0.9)).astype(float)
        total += 1
        pred = capacity_zero_check(NonNegMatrix(support)) is None
        if pred != _permanent_positive(support > 0):
            mismatches += 1
    return _result(
        "cap_zero_vs_permanent",
        mismatches == 0,
        f"{total} supports (sides <= 4 exhaustive, side 5 sampled), {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# pipeline layer


def check_paulsen_solve_basic(seed: int = 0) -> CheckResult:
    worst_g = worst_n = 0.0
    for i in range(3):
        fr, _ = near_parseval_frame(3, 12, 0.01, (seed, 15, i))
        v, _ = solve_basic(fr)
        worst_g = max(worst_g, float(np.linalg.norm(v.gram() - np.eye(3))))
        worst_n = max(worst_n, float(np.abs(v.norms2() - 3.0 / 12.0).max()))
    return _result(
        "paulsen_solve_basic",
        worst_g <= 1e-8 and worst_n <= 1e-8,
        f"output gram error {worst_g:.3e}, norm error {worst_n:.3e} (tol 1e-8)",
    )


def check_paulsen_perturb_constraints(seed: int = 0) -> CheckResult:
    d, n, sigma2 = 3, 40, 1e-6
    worst_norm = worst_inner = worst_outer = worst_move = -math.inf
    for i in range(5):
        fr, _ = near_parseval_frame(d, n, 0.01, (seed, 16, i))
        w, noise = perturb(fr, sigma2, (seed, 16, 100 + i))
        stats = perturbation_stats(fr, w, noise)
        worst_norm = max(worst_norm, stats["max_norm_error"])
        worst_inner = max(worst_inner, stats["max_inner_violation"])
        worst_outer = max(worst_outer, stats["outer_violation"])
        worst_move = max(worst_move, stats["dist"] - 4.0 * stats["z_mass"])
    ok = worst_norm <= 1e-14 and worst_inner <= 1e-10 and worst_outer <= 1e-9 and worst_move <= 0
    return _result(
        "paulsen_perturb_constraints",
        ok,
        f"norm err {worst_norm:.2e}, inner {worst_inner:.2e}, outer {worst_outer:.2e}, "
        f"movement excess over 4*sum|z|^2 {worst_move:.2e}",
    )


def check_paulsen_smoothed_invariants(seed: int = 0) -> CheckResult:
    fr, _ = near_parseval_frame(3, 60, 0.02, (seed, 17))
    v, trace = solve_smoothed(fr, seed=seed, final_delta=1e-10)
    base = Frame(fr.vectors * math.sqrt(3.0 / size_of(fr)))
    delta0 = delta_of(base)
    ok = True
    worst = 0.0
    for rec in trace.records:
        bound = delta0 / 2.0 ** (rec["l"] + 1)
        ok &= rec["delta_after"] <= bound
        worst = max(worst, rec["delta_after"] / bound)
    ok &= delta_of(v) <= 1e-10
    return _result(
        "paulsen_smoothed_invariants",
        ok,
        f"{len(trace.records)} iterations, worst delta/halving-target ratio {worst:.3f}, "
        f"final delta {delta_of(v):.3e}",
    )


ALL_CHECKS = [
    check_core_delta_eps_bound,
    check_core_delta_zero_iff_balanced,
    check_core_embedding_preserves_measures,
    check_core_dist_metric,
    check_scaling_sinkhorn_marginals,
    check_scaling_operator_steps,
    check_scaling_capacity_covariance,
    check_flow_s_identity,
    check_flow_delta_identity,
    check_flow_monotone,
    check_flow_capacity_conserved,
    check_flow_reconstruction,
    check_flow_kappa_maintenance,
    check_cap_le_size,
    check_cap_lower_bracket,
    check_cap_tensor_square_preserved,
    check_cap_zero_vs_permanent,
    check_paulsen_solve_basic,
    check_paulsen_perturb_constraints,
    check_paulsen_smoothed_invariants,
]


def run_all(seed: int = 0) -> list[CheckResult]:
    out = []
    for fn in ALL_CHECKS:
        try:
            out.append(fn(seed))
        except Exception as exc:  # a crash inside a check is a violation
            out.append(CheckResult(fn.__name__.removeprefix("check_"), False, f"crashed: {exc!r}"))
    return out


# ---------------------------------------------------------------------------
# trace revalidation


def validate_trace_csv(text: str) -> list[CheckResult]:
    """Revalidate an emitted flow trace: schema, monotonicity, and the two
    derivative identities at the emission tolerances."""
    header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    if header != CSV_HEADER.split(","):
        return [_result("trace_schema", False, f"header {header!r} != {CSV_HEADER!r}")]
    if not rows:
        return [_result("trace_schema", False, "no sample rows after the header")]
    samples = []
    for line, row in enumerate(rows, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, not {len(header)}")
            samples.append([float(v) for v in row])
        except ValueError as exc:
            return [_result("trace_schema", False, f"line {line}: {exc}")]
    data = np.array(samples)
    results = [_result("trace_schema", True, f"{data.shape[0]} samples")]
    t, s, delta, _, ddelta = (data[:, i] for i in range(5))
    inc_s = float(np.diff(s).max(initial=-math.inf))
    inc_d = float(np.diff(delta).max(initial=-math.inf))
    results.append(
        _result("trace_monotone", inc_s <= 1e-12 and inc_d <= 1e-12,
                f"worst increase s {inc_s:.3e}, delta {inc_d:.3e}")
    )
    if t.size >= 3:
        err_s, err_d = identity_errors(t, s, delta, ddelta)
        results.append(_result("trace_s_identity", err_s <= 1e-5, f"rel err {err_s:.3e}"))
        results.append(_result("trace_delta_identity", err_d <= 1e-4, f"rel err {err_d:.3e}"))
    return results
