"""End-to-end solvers for repairing nearly balanced frames.

Two pipelines. ``solve_basic`` rescales to size d, runs the frame flow to a
tiny imbalance, and rescales back to an exactly doubly stochastic frame; the
squared distance moved is bounded by 100 d^2 n eps for an eps-near input.
``solve_smoothed`` interleaves random perturbations with flow stages so the
decay rate stays pseudorandom: each iteration perturbs at a variance tied to
the current imbalance, flows to a third of the halved target, and rescales,
so the imbalance provably halves per iteration.  The per-entry census behind
the rate argument lives in ``certify_pseudorandom``, ``rate_monitor`` checks
a recorded matrix flow against the decay-rate inequalities it licenses, and
``capacity_from_rate`` converts an observed exponential decay rate into a
certified capacity lower bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .capacity import KAPPA_RATE, _bracket, _frame_certificate
from .core import SCHEMA_VERSION, Frame, NonNegMatrix, delta_of, dist, size_of
from .dynamics import T_MAX, FlowError, FlowOptions, Trajectory, frame_flow
from .generate import harmonic_frame

GRAM_SCHMIDT_DROP = 1e-12
SIGMA2_CAP_FACTOR = 1600.0          # sigma^2 <= 1/(1600 n)
SIGMA2_NUMERATOR = 1e4              # sigma^2 = 1e4 sqrt(d Delta) / (zeta kappa n)
MAX_PATH_ITERATIONS = 60
MAX_RETRIES = 20
STRONG_RATE_DENOM = 32000.0
PSEUDORANDOM_BETA = 1e-9
BASIC_FINAL_DELTA = 3e-17           # solve_basic's default target imbalance
# the solvers read only the end points of their flows
SOLVE_FLOW_OPTIONS = FlowOptions(record_samples=False)


class PerturbationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PerturbationNoise:
    """Noise intermediates: raw Gaussian x, tangentially projected y, and the
    fully constrained z with sum_j u_j z_j^T = 0."""

    sigma2: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    seed: object


@dataclass(frozen=True)
class PseudorandomReport:
    """Census of a nonnegative matrix against an entry threshold alpha.

    holds: every column max >= alpha and every row has at most beta*n
    entries below alpha.  strong_holds: at most n/8000 small entries per row
    and m/8000 per column.  weak_columns: columns with at most m/128000
    entries >= alpha.
    """

    alpha: float
    beta: float
    holds: bool
    worst_column_max: float
    worst_row_deficit: int
    strong_holds: bool
    weak_columns: int


@dataclass(frozen=True)
class RateReport:
    variant: str
    alpha: float
    ratios: np.ndarray            # (-dDelta/dt) / bound, per sample
    precondition_held: np.ndarray  # bool per sample
    violations: np.ndarray        # indices where the precondition held but ratio < 1
    ok: bool


@dataclass
class PathTrace:
    """Per-iteration record of the perturb/flow/rescale path."""

    zeta: float
    kappa: float
    seed: int
    records: list = field(default_factory=list)
    downgraded: bool = False

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "zeta": self.zeta,
            "kappa": self.kappa,
            "seed": self.seed,
            "downgraded": self.downgraded,
            "records": self.records,
        }


@dataclass(frozen=True)
class SolveReport:
    dist: float
    delta_final: float
    status: str                     # "flow" or "fallback"
    traj: Trajectory | None


# ---------------------------------------------------------------------------
# basic pipeline


def solve_basic(
    u: Frame,
    final_delta: float = BASIC_FINAL_DELTA,
    t_max: float = T_MAX,
) -> tuple[Frame, SolveReport]:
    """Move a frame to an exactly doubly stochastic one nearby.

    Rescale to size d, flow the imbalance below final_delta, rescale again;
    the output V satisfies delta(V) <= 10*final_delta.  Degenerate inputs
    (a zero vector, or vectors that do not span) cannot flow to balance, so
    they fall back to a fixed exact frame — correct, with no distance claim.
    The flow records only its end points.
    """
    d, n = u.d, u.n
    if u.norms2().min() <= 0.0 or _frame_certificate(u) is not None:
        v = harmonic_frame(d, n)
        return v, SolveReport(dist(u, v), delta_of(v), "fallback", None)

    w, _ = _renorm_size(u, d)
    final, traj = frame_flow(w, target_delta=final_delta, t_max=t_max,
                             opts=SOLVE_FLOW_OPTIONS)
    v, _ = _renorm_size(final, d)
    delta_v = delta_of(v)
    if delta_v > 10.0 * final_delta:
        raise FlowError(
            f"pipeline stopped at delta {delta_v:.3e} > 10*{final_delta:.3e}; "
            f"flow ended {traj.status!r}"
        )
    return v, SolveReport(dist(u, v), delta_v, "flow", traj)


# ---------------------------------------------------------------------------
# perturbation


def _equal_norm(v: np.ndarray, failure: str = "zero vector cannot be renormalized") -> np.ndarray:
    """Rows of the n x d array v rescaled to squared norm d/n; raises
    PerturbationError(failure) when a row is zero."""
    n, d = v.shape
    norms2 = np.einsum("nd,nd->n", v, v)
    if norms2.min() <= 0.0:
        raise PerturbationError(failure)
    return v * math.sqrt(d / n) / np.sqrt(norms2)[:, None]


def perturb(fr: Frame, sigma2: float, seed) -> tuple[Frame, PerturbationNoise]:
    """Random tangential perturbation with the outer-product constraint.

    The input vectors are first renormalized to squared norm d/n (they must
    be nonzero).  Then x ~ N(0, sigma2 I), y removes each x_j's radial
    component, z additionally projects y onto the d^2-codimensional subspace
    with sum_j u_j z_j^T = 0, and the perturbed vectors u_j + z_j are
    renormalized back to squared norm d/n.
    """
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be nonnegative")
    d, n = fr.d, fr.n
    base = _equal_norm(fr.vectors)

    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.normal(0.0, math.sqrt(sigma2), size=(n, d)) if sigma2 > 0 else np.zeros((n, d))

    scale = n / d                                  # 1/||u_j||^2
    radial = scale * np.einsum("nd,nd->n", base, x)
    y = x - radial[:, None] * base

    # constraint functionals of sum_j u_j z_j^T = 0, restricted to the
    # tangential subspace, orthonormalized by modified Gram-Schmidt
    funcs = np.zeros((d * d, n, d))
    for a in range(d):
        for b in range(d):
            phi = np.zeros((n, d))
            phi[:, b] = base[:, a]
            rad = scale * np.einsum("nd,nd->n", base, phi)
            funcs[a * d + b] = phi - rad[:, None] * base
    funcs = funcs.reshape(d * d, n * d)
    ortho = []
    for row in funcs:
        v = row.copy()
        for q in ortho:
            v -= (q @ v) * q
        nrm = math.sqrt(v @ v)
        if nrm >= GRAM_SCHMIDT_DROP:
            ortho.append(v / nrm)

    z = y.reshape(-1).copy()
    for q in ortho:
        z -= (q @ z) * q
    z = z.reshape(n, d)

    w = _equal_norm(base + z, "perturbation annihilated a vector")
    return Frame(w), PerturbationNoise(float(sigma2), x, y, z, seed)


def perturbation_stats(fr: Frame, w: Frame, noise: PerturbationNoise) -> dict:
    """Constraint statistics of w, noise = perturb(fr, ...), measured against
    the equal-norm base u of fr: the squared distance moved, the imbalance
    before and after, the worst relative tangential violation
    |<u_j, z_j>| / (|u_j| |z_j|), the outer-product violation
    |sum_j u_j z_j^T| / sum_j |u_j| |z_j|, the worst squared-norm error of w
    and the noise mass sum_j |z_j|^2."""
    d, n = fr.d, fr.n
    base = Frame(_equal_norm(fr.vectors))
    znorms = np.linalg.norm(noise.z, axis=1)
    unorms = np.linalg.norm(base.vectors, axis=1)
    inner = float(
        (np.abs(np.einsum("nd,nd->n", base.vectors, noise.z))
         / np.maximum(unorms * znorms, 1e-300)).max()
    )
    outer = float(
        np.linalg.norm(base.vectors.T @ noise.z)
        / max(float((unorms * znorms).sum()), 1e-300)
    )
    return {
        "dist": dist(base, w),
        "delta_before": delta_of(base),
        "delta_after": delta_of(w),
        "max_inner_violation": inner,
        "outer_violation": outer,
        "max_norm_error": float(np.abs(w.norms2() - d / n).max()),
        "z_mass": float((znorms**2).sum()),
    }


def certify_pseudorandom(b: NonNegMatrix, alpha: float, beta: float) -> PseudorandomReport:
    """Exact per-entry census of b against the threshold alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    ent = b.entries
    m, n = b.m, b.n
    big = ent >= alpha
    col_max = ent.max(axis=0)
    row_deficit = n - big.sum(axis=1)
    col_deficit = m - big.sum(axis=0)
    worst_col = float(col_max.min())
    worst_row = int(row_deficit.max())
    holds = worst_col >= alpha and worst_row <= beta * n
    strong = bool(row_deficit.max() <= n / 8000.0 and col_deficit.max() <= m / 8000.0)
    weak_cols = int((big.sum(axis=0) <= m / 128000.0).sum())
    return PseudorandomReport(alpha, beta, holds, worst_col, worst_row, strong, weak_cols)


def rate_monitor(traj: Trajectory, alpha: float, variant: str = "strong") -> RateReport:
    """Check the decay-rate inequality of a matrix flow sample by sample.

    strong: -ddelta/dt >= alpha m n delta / 32000, requiring every row to
    have at most n/8000 and every column at most m/8000 entries below alpha.
    weak: -ddelta/dt >= alpha n delta / 8192000, requiring every column to
    reach alpha and every row to have at most beta n entries below alpha
    (beta = PSEUDORANDOM_BETA).  Both preconditions are read from the census
    of ``certify_pseudorandom``, which requires alpha > 0.

    Violations are flagged only at samples where the precondition held,
    which needs per-sample states (run the flow with record_states=True).
    """
    if traj.kind != "matrix":
        raise ValueError("rate_monitor applies to matrix flows")
    if traj.states is None:
        raise ValueError("trajectory has no recorded states; rerun with record_states=True")
    if variant not in ("strong", "weak"):
        raise ValueError(f"unknown variant {variant!r}")

    m, n = traj.m, traj.n
    if variant == "strong":
        bound = alpha * m * n * traj.delta / STRONG_RATE_DENOM
    else:
        bound = alpha * n * traj.delta * KAPPA_RATE

    neg_rate = -traj.dDelta_dt
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, neg_rate / np.where(bound > 0, bound, 1.0), np.inf)

    census = [certify_pseudorandom(st.obj, alpha, PSEUDORANDOM_BETA) for st in traj.states]
    held = np.array([c.strong_holds if variant == "strong" else c.holds for c in census],
                    dtype=bool)

    viol = np.nonzero(held & (ratios < 1.0))[0]
    return RateReport(variant, alpha, ratios, held, viol, bool(viol.size == 0))


# ---------------------------------------------------------------------------
# smoothed pipeline


def _renorm_size(fr: Frame, d: int) -> tuple[Frame, float]:
    """The frame rescaled to size d, and the factor that did it."""
    factor = math.sqrt(d / size_of(fr))
    return Frame(fr.vectors * factor), factor


def solve_smoothed(
    u: Frame,
    zeta: float = 0.1,
    kappa: float = 1e-3,
    final_delta: float = 1e-10,
    seed: int = 0,
    t_max: float = T_MAX,
) -> tuple[Frame, PathTrace]:
    """Perturb/flow/rescale path that halves the imbalance every iteration.

    Iteration l perturbs at sigma2 = min(1e4 sqrt(d Delta_l)/(zeta kappa n),
    1/(1600 n)), flows the perturbed frame to Delta0/(3*2^l), and rescales to
    size d, which lands at Delta <= Delta0/2^{l+1}.  A perturbation whose
    movement or imbalance blowup exceeds ten times its expected scale is
    redrawn (at most 20 times).  Inputs with Delta > d/16 skip the path and
    run the basic pipeline instead (trace flagged ``downgraded``).

    The closed-form constants behind the full guarantee need n larger than
    1e15 d^4/(zeta^2 kappa^2); at any feasible size that assumption fails
    and a warning says so — the per-iteration invariants still hold and are
    what the tests assert.  Each flow records only its end points.
    """
    d, n = u.d, u.n
    trace = PathTrace(zeta=zeta, kappa=kappa, seed=seed)
    if n < 1e15 * d**4 / (zeta**2 * kappa**2):
        warnings.warn(
            "global assumption n >= 1e15 d^4/(zeta^2 kappa^2) violated; "
            "per-iteration invariants are asserted but the endpoint "
            "guarantee is not claimed",
            RuntimeWarning,
            stacklevel=2,
        )

    cur, _ = _renorm_size(u, d)
    delta_l = delta0 = delta_of(cur)
    if delta0 > d / 16.0:
        v, report = solve_basic(u, final_delta=min(final_delta, BASIC_FINAL_DELTA), t_max=t_max)
        trace.downgraded = True
        trace.records.append(
            {"l": 0, "delta_before": delta0, "delta_after": report.delta_final}
        )
        return v, trace

    for level in range(MAX_PATH_ITERATIONS):
        # delta_l is delta_of(cur), taken once: delta0 at level 0, then the
        # rescaled imbalance of the level before
        if delta_l <= final_delta:
            return cur, trace
        sigma2 = min(
            SIGMA2_NUMERATOR * math.sqrt(d * delta_l) / (zeta * kappa * n),
            1.0 / (SIGMA2_CAP_FACTOR * n),
        )
        move_cap = 10.0 * (2.0 * sigma2 * d * n + delta_l / d)
        sd = math.sqrt(delta_l)
        blow_cap = 10.0 * (
            6.0 * delta_l
            + 40.0 * sigma2**2 * n**2 * sd
            + 1e7 * sigma2**2 * d**3 * n
            + 1e14 * sigma2**3 * d**3 * n**3
        )
        perturbed = None
        retries = 0
        for attempt in range(MAX_RETRIES + 1):
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(level, attempt))
            cand, noise = perturb(cur, sigma2, stream)
            moved = dist(cur, cand)
            blow = delta_of(cand)
            if moved <= move_cap and blow <= blow_cap:
                perturbed = cand
                retries = attempt
                break
        if perturbed is None:
            raise PerturbationError(
                f"iteration {level}: perturbation checks failed {MAX_RETRIES + 1} times"
            )

        target = delta0 / (3.0 * 2.0**level)
        flowed, traj = frame_flow(perturbed, target_delta=target, t_max=t_max,
                                  opts=SOLVE_FLOW_OPTIONS)
        if traj.status != "converged":
            raise FlowError(f"iteration {level}: flow ended {traj.status!r}, not 'converged'")
        nxt, factor = _renorm_size(flowed, d)
        delta_next = delta_of(nxt)
        if delta_next > delta0 / 2.0 ** (level + 1):
            raise FlowError(
                f"iteration {level}: rescaled imbalance {delta_next:.3e} missed "
                f"the halving target {delta0 / 2.0 ** (level + 1):.3e}"
            )
        trace.records.append(
            {
                "l": level,
                "sigma2": sigma2,
                "retries": retries,
                "perturb_dist": moved,
                "delta_before": delta_l,
                "delta_perturbed": blow,
                "delta_after_flow": delta_of(flowed),
                "delta_after": delta_next,
                "flow_time": float(traj.t[-1]),
                "rescale_factor": factor,
                "capacity_lower": _bracket(cur, size_of(cur), delta_l)[0],
                "movement": dist(cur, nxt),     # squared-distance convention
            }
        )
        cur, delta_l = nxt, delta_next
    raise PerturbationError(f"no convergence within {MAX_PATH_ITERATIONS} iterations")


# ---------------------------------------------------------------------------
# frames to matrices, rates to capacities


def frame_to_matrix(w: Frame, basis: np.ndarray | None = None) -> NonNegMatrix:
    """Entrywise-squared coordinates of the frame in an orthonormal basis:
    B_ij = <g_i, w_j>^2.  Column sums equal the squared vector norms."""
    if basis is None:
        coords = w.vectors.T
    else:
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (w.d, w.d):
            raise ValueError(f"basis must be {w.d}x{w.d}")
        if np.abs(basis.T @ basis - np.eye(w.d)).max() > 1e-10:
            raise ValueError("basis is not orthonormal within 1e-10")
        coords = basis.T @ w.vectors.T
    return NonNegMatrix(coords * coords)


def capacity_from_rate(traj: Trajectory, mu: float) -> float:
    """Certified capacity lower bound s0 - 2*Delta0/mu from an observed
    exponential decay rate: requires -dDelta/dt >= mu*Delta at every sample."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    slack = 1e-9
    bad = np.nonzero(-traj.dDelta_dt < mu * traj.delta * (1.0 - slack))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"decay rate below mu*Delta at sample {i} "
            f"(t={traj.t[i]:.6g}: -dDelta/dt={-traj.dDelta_dt[i]:.6g} "
            f"< mu*Delta={mu * traj.delta[i]:.6g})"
        )
    return float(traj.s[0] - 2.0 * traj.delta[0] / mu)
