"""Capacity computations for nonnegative matrices, frames, and operator
tuples, plus the zero-capacity combinatorics.

For a nonnegative m x n matrix the capacity is

    inf_{x > 0}  m * (prod_i (A x)_i)^{1/m} / (prod_j x_j)^{1/n},

for an operator tuple  inf_{X > 0}  m * det(sum U_i X U_i^T)^{1/m} / det(X)^{1/n},
and for a frame the operator form restricted to diagonal X.  Capacity never
exceeds the size s, equals it exactly at double balance, and transforms under
diagonal/determinant-one scalings by explicit factors — which is what the
scaling-based route exploits.  Capacity is zero exactly when the support has
no perfect matching, certified by a Hall-style row/column witness.  For a
rectangular input that is the support of its tensor lift to a square; the
zero check never builds that lift.  A rectangle with full support has a
perfect matching (its lift is all ones); every other input, square or
rectangle, is decided on its own support by one capacitated matching.

`capacity_report` makes one pass over an input: it takes the zero check,
size, delta and bracket once, feeds them to the private routes (both of
them for a matrix) and returns one record; `frame_capacity` and
`operator_capacity` return its result.  The routes read their tolerances
and iteration caps from the constants below; only `matrix_capacity` takes a
`tol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jacobi import jacobi_eigh
from .core import Frame, NonNegMatrix, OperatorTuple, delta_of, frame_to_operator, size_of
from .discrete_scaling import (SCALING_MAX_ITERS, ScalingError, operator_sinkhorn,
                               reports_nonfinite, sinkhorn)

SCALING_TOL = 1e-12      # the scaling routes stop at delta <= SCALING_TOL * s^2
GRAD_TOL = 1e-10
ARMIJO_C = 1e-4
NEWTON_MAX_ITERS = 200
F_ROUNDOFF = 4e-16      # rise of f, relative to its terms, taken as roundoff by _newton
# constant in the weak-pseudorandom decay bound -ddelta/dt >= alpha n delta * KAPPA_RATE
KAPPA_RATE = 1.0 / 8192000.0


class CapacityError(RuntimeError):
    pass


def _logabsdet(a: np.ndarray) -> float:
    """log|det| of a transform given as its diagonal vector or as a matrix."""
    if a.ndim == 1:
        return float(np.add.reduce(np.log(np.abs(a))))
    # an exactly diagonal matrix (operator Sinkhorn's right side on an
    # embedded frame) takes the diagonal sum, not slogdet, only to keep the
    # reported values byte-identical: slogdet differs in the last bits
    if np.all(a == np.diag(np.diag(a))):
        return float(np.sum(np.log(np.abs(np.diag(a)))))
    return float(np.linalg.slogdet(a)[1])


@dataclass(frozen=True)
class CapacityResult:
    value: float
    method: str                       # scaling-based | convex-descent | zero-detected | bracket-only
    certificate: dict | None = None   # Hall witness {"rows": [...], "cols": [...]} when zero
    lower: float | None = None        # always-valid bracket around the true capacity
    upper: float | None = None
    converged: bool = True
    iterations: int = 0               # Newton steps (convex routes) or scaling sweeps
    # why the route stopped: converged | max_iters, then line-search (Newton)
    # or non-finite | singular (scaling); None if zero was found before it ran
    stop: str | None = None


@dataclass(frozen=True)
class CapacityReport:
    """One capacity pass over an input (`capacity_report`).  `result` is the
    route the input's kind takes (scaling for a matrix or operator tuple,
    Newton for a frame); a matrix also carries its convex route and the
    relative gap between the two values (0.0 when the capacity is zero)."""

    kind: str                             # matrix | frame | operator
    size: float
    delta: float
    result: CapacityResult
    convex: CapacityResult | None = None
    dual_relative_gap: float | None = None


@dataclass(frozen=True)
class TightExample:
    """Two-block matrix with minimal imbalance subject to zero capacity."""

    k: int
    A: NonNegMatrix
    x: float
    y: float
    E: float
    F: float


# ---------------------------------------------------------------------------
# perfect matchings on the support


def tensor_square(a: NonNegMatrix) -> NonNegMatrix:
    """Lift an m x n matrix to a square one of side mn/gcd(m,n) by tensoring
    with a constant block; size, delta, and capacity are preserved."""
    m, n = a.m, a.n
    g = math.gcd(m, n)
    block = np.full((n // g, m // g), (g * g) / (m * n))
    return NonNegMatrix(np.kron(a.entries, block))


def _block_witness(support: np.ndarray, row_cap: int, col_cap: int) -> dict | None:
    """The Hall witness of the lift of an m x n support, without the lift.

    `support` is read by its nonzero entries.  `tensor_square` repeats row i
    as the rows i*row_cap .. i*row_cap+row_cap-1 and column j as a block of
    col_cap columns, with row_cap = n/g and col_cap = m/g; a square has
    g = n, so both capacities are 1 and the lift is the square itself.  A
    perfect matching of the lift is a flow of value m*row_cap on the m x n
    support in which each row sends row_cap, each column takes col_cap and
    a supported entry carries any amount; each augmenting path pushes its
    bottleneck.  The rows reachable from rows with spare capacity in the
    final residual graph, expanded to their blocks, are the rows that
    alternating paths reach from the lift's free rows: that set is the same
    for every maximum matching (Dulmage-Mendelsohn), so it is a union of
    blocks, and the witness does not depend on the order of the search.
    The columns are those outside the neighbourhood of those rows.
    """
    m, n = support.shape
    side = m * row_cap
    # one scan of the support, in row-major order; the first empty row, else
    # the first empty column, is a witness on its own
    rows, cols = support.nonzero()
    rows, cols = rows.tolist(), cols.tolist()
    covered = set(rows)
    if len(covered) < m:
        i = min(set(range(m)) - covered)
        return {"rows": [i * row_cap], "cols": list(range(side))}
    covered = set(cols)
    if len(covered) < n:
        j = min(set(range(n)) - covered)
        return {"rows": list(range(side)), "cols": [j * col_cap]}
    adj = [[] for _ in range(m)]        # each list ascending
    for i, j in zip(rows, cols):
        adj[i].append(j)
    spare_r = [row_cap] * m
    spare_c = [col_cap] * n
    # flow[j][i]: what row i sends column j; only positive amounts are kept,
    # so the search from a column visits just the rows that feed it
    flow = [{} for _ in range(n)]
    for i in range(m):                  # greedy start, until the row is spent
        r = row_cap
        for j in adj[i]:
            c = spare_c[j]
            if c:
                t = r if r < c else c
                flow[j][i] = t
                spare_c[j] = c - t
                r -= t
                if not r:
                    break
        spare_r[i] = r
    while True:
        # one breadth-first search from every row with spare capacity;
        # via_col[j] is the row that reached column j, via_row[i] the
        # column that reached row i (-1 for a start row)
        reached = [r > 0 for r in spare_r]
        queue = [i for i in range(m) if reached[i]]
        via_row = [-1] * m
        via_col = [-1] * n
        end = -1
        for i in queue:
            for j in adj[i]:
                if via_col[j] != -1:
                    continue
                via_col[j] = i
                if spare_c[j]:
                    end = j
                    break
                for w in flow[j]:
                    if not reached[w]:
                        reached[w] = True
                        via_row[w] = j
                        queue.append(w)
            if end != -1:
                break
        if end == -1:
            break
        t, j = spare_c[end], end
        while True:
            i = via_col[j]
            j = via_row[i]
            if j == -1:
                t = min(t, spare_r[i])
                break
            t = min(t, flow[j][i])
        spare_c[end] -= t
        j = end
        while True:
            i = via_col[j]
            into = flow[j]
            into[i] = into.get(i, 0) + t
            j = via_row[i]
            if j == -1:
                spare_r[i] -= t
                break
            into = flow[j]
            if into[i] == t:
                del into[i]
            else:
                into[i] -= t
    # the last search found no spare column, so `queue` holds every row it
    # reached, and it is empty exactly when the flow is perfect
    if not queue:
        return None
    near = set()
    for i in queue:
        near.update(adj[i])
    lifted_rows, lifted_cols = [], []
    for i in sorted(queue):
        lifted_rows += range(i * row_cap, (i + 1) * row_cap)
    for j in range(n):
        if j not in near:
            lifted_cols += range(j * col_cap, (j + 1) * col_cap)
    return {"rows": lifted_rows, "cols": lifted_cols}


def capacity_zero_check(a: NonNegMatrix) -> dict | None:
    """Return a Hall witness if the capacity is zero, else None.

    A rectangular input stands for its tensor lift (`tensor_square`), and
    witness indices refer to the lifted object, which is never built.  A
    rectangle whose every entry is positive returns None at once: its lift
    is an all-ones square, which has a perfect matching.  Every other input,
    square or rectangle, goes to `_block_witness`, which finds the witness
    on the input's own support, read in one scan of its nonzero entries:
    a `NonNegMatrix` holds only finite entries >= 0 (a -0.0 counts as
    zero), so those are its support.
    """
    m, n = a.m, a.n
    if m != n and a.entries.all():
        return None
    g = math.gcd(m, n)
    return _block_witness(a.entries, n // g, m // g)


# ---------------------------------------------------------------------------
# bounds


@reports_nonfinite
def capacity_bounds(obj) -> tuple[float, float]:
    """Always-valid (lower, upper) bracket from size and imbalance alone.

    upper = s; lower = s - mn sqrt(delta/2) (rectangular / operator form),
    improved to s - n sqrt(delta/2) for square matrices, and further by the
    decay-rate bound  s - delta/(5 kappa alpha n)  whenever its pseudorandom
    preconditions verifiably hold.
    """
    return _bracket(obj, size_of(obj), delta_of(obj))


def _bracket(obj, s: float, delta: float) -> tuple[float, float]:
    """`capacity_bounds` of an object whose size s and delta are known."""
    root = math.sqrt(delta / 2.0)
    if isinstance(obj, NonNegMatrix):
        m, n = obj.m, obj.n
        lower = s - m * n * root
        if m == n:
            lower = max(lower, s - n * root)
        alpha = float(np.minimum.reduce(obj.entries, axis=None))
        # at delta = 0 the lower bound is s already, and the rate bound
        # would divide 0 by an alpha * n that can underflow to 0
        if alpha > 0.0 and 0.0 < delta <= 0.1 and abs(s - m) <= 1e-9 * max(1.0, m):
            cols_ok = np.abs(obj.col_sums() - s / n).max() <= 1e-9 * max(1.0, s)
            if cols_ok and alpha >= 80.0 * math.sqrt(m * delta) / (KAPPA_RATE * n):
                lower = max(lower, s - delta / (5.0 * KAPPA_RATE * alpha * n))
    elif isinstance(obj, Frame):
        lower = s - obj.d * obj.n * root
    elif isinstance(obj, OperatorTuple):
        lower = s - obj.m * obj.n * root
    else:
        raise TypeError(f"unsupported object {type(obj).__name__}")
    return max(0.0, lower), s


# ---------------------------------------------------------------------------
# matrix capacity, two independent routes


def _zero_result(certificate: dict) -> CapacityResult:
    return CapacityResult(0.0, "zero-detected", certificate, 0.0, 0.0)


def _scaling_result(value: float, bracket: tuple[float, float], report) -> CapacityResult:
    """A scaling route's result: its point estimate clamped at the size
    upper, since capacity never exceeds size.  Transforms that overflowed
    leave a non-finite estimate, which min would keep as NaN; it says
    nothing, so the value falls back to upper, unconverged, and the route
    reads as stopped by a non-finite value."""
    lower, upper = bracket
    if not math.isfinite(value):
        return CapacityResult(upper, "bracket-only", None, lower, upper, False,
                              report.iterations, "non-finite")
    method = "scaling-based" if report.converged else "bracket-only"
    return CapacityResult(min(value, upper), method, None, lower, upper, report.converged,
                          report.iterations, report.stop)


def _matrix_scaling(a: NonNegMatrix, s: float, bracket: tuple[float, float],
                    tol: float) -> CapacityResult:
    b, (x, y), report = sinkhorn(a, tol * s * s, SCALING_MAX_ITERS)
    value = size_of(b) * math.exp(-_logabsdet(x) / a.m - _logabsdet(y) / a.n)
    return _scaling_result(value, bracket, report)


@reports_nonfinite
def matrix_capacity(a: NonNegMatrix, tol: float = SCALING_TOL) -> CapacityResult:
    """Scaling route: balance with sinkhorn to delta <= tol * s^2, then undo
    the diagonal scalings; at balance the capacity equals the size, so the
    estimate is s(B) * (prod x)^{-1/m} (prod y)^{-1/n}, clamped at s because
    capacity never exceeds size."""
    cert = capacity_zero_check(a)
    if cert is not None:
        return _zero_result(cert)
    s = size_of(a)
    return _matrix_scaling(a, s, _bracket(a, s, delta_of(a)), tol)


# e^y overflows on trial steps where the infimum lies at infinity (a
# zero-capacity input), and what reads the overflowed values (a product, a
# slogdet) is invalid; both objectives return inf there, which the line
# search rejects.  The entry points that reach _newton hold the errstate.
def _newton(objective, y0: np.ndarray, tol: float, max_iters: int):
    """Gauge-fixed damped Newton for an objective f(y) that is invariant
    under y -> y + c 1; `objective(y)` returns (f, gradient, Hessian).

    The gradient sums to zero and the Hessian annihilates 1, so the step
    solves (H + 1 1^T / n) p = -g, which fixes the gauge (1^T p = 0).  The
    step is halved from t = 1 until the Armijo test (c = 1e-4) holds.  Near
    the minimum f sits at its roundoff floor and no decrease can pass that
    test, so there the full step is also taken when f did not rise beyond
    roundoff and max|g| shrank.  f sums terms of the size of log m (or
    log d) and of the entries of y, so its roundoff is measured against
    |f| + 1 + max|y|, not |f| alone, which can be far smaller.  Returns
    (y, f, stop, iterations), where stop says why it stopped: `converged`
    once max|g| <= tol, `max_iters`, or `line-search` when the step was
    halved below 1e-18 without passing either test.
    """
    n = y0.size
    gauge = np.full((n, n), 1.0 / n)
    y = y0.copy()
    f, g, h = objective(y)
    gnorm = float(np.maximum.reduce(np.abs(g), axis=None))
    iterations = 0
    while gnorm > tol:
        if iterations == max_iters:
            return y, f, "max_iters", iterations
        # least squares, because H loses rank where the infimum lies at
        # infinity along some direction (a support without total support)
        p = np.linalg.lstsq(h + gauge, -g, rcond=None)[0]
        slope = float(g @ p)
        floor = F_ROUNDOFF * (abs(f) + 1.0 + float(np.maximum.reduce(np.abs(y), axis=None)))
        t = 1.0
        while True:
            trial = y + t * p
            f_new, g_new, h_new = objective(trial)
            if f_new <= f + ARMIJO_C * t * slope:
                break
            if (t == 1.0 and f_new <= f + floor
                    and float(np.maximum.reduce(np.abs(g_new), axis=None)) < gnorm):
                break
            t *= 0.5
            if t < 1e-18:
                return y, f, "line-search", iterations
        y, f, g, h = trial, f_new, g_new, h_new
        gnorm = float(np.maximum.reduce(np.abs(g), axis=None))
        iterations += 1
    return y, f, "converged", iterations


def _convex(objective, n: int, bracket: tuple[float, float]) -> CapacityResult:
    """A convex route's result: exp of the minimum that Newton finds from
    y = 0, flagged unconverged unless max|grad f| <= GRAD_TOL at the end."""
    _, f, stop, iterations = _newton(objective, np.zeros(n), GRAD_TOL, NEWTON_MAX_ITERS)
    return CapacityResult(math.exp(f), "convex-descent", None, *bracket,
                          stop == "converged", iterations, stop)


def _matrix_objective(mat: np.ndarray):
    """Objective/gradient/Hessian closure for the matrix program
        f(y) = log m + (1/m) sum_i log((A e^y)_i) - (1/n) sum_j y_j.
    With P = A diag(e^y) / rows, each row of P sums to 1, the gradient is
    col(P)/m - 1/n and the Hessian (diag(col(P)) - P^T P)/m.
    """
    m, n = mat.shape
    logm = math.log(m)

    def objective(y):
        w = np.exp(y)
        rows = mat @ w
        if not (np.minimum.reduce(rows) > 0.0 and np.maximum.reduce(rows) < math.inf):
            return math.inf, None, None
        f = (logm + float(np.add.reduce(np.log(rows), axis=None)) / m
             - float(np.add.reduce(y, axis=None)) / n)
        p = mat * w / rows[:, None]
        col = np.add.reduce(p, axis=0)
        return f, col / m - 1.0 / n, (np.diag(col) - p.T @ p) / m

    return objective


@reports_nonfinite
def matrix_capacity_convex(a: NonNegMatrix) -> CapacityResult:
    """Convex route: minimize
        f(y) = log m + (1/m) sum_i log((A e^y)_i) - (1/n) sum_j y_j
    from y = 0 by gauge-fixed damped Newton; the capacity is exp(f*).  Kept
    independent of the scaling route so the two can cross-check each other.
    `converged` is False when max|grad f| > GRAD_TOL at the end."""
    cert = capacity_zero_check(a)
    if cert is not None:
        return _zero_result(cert)
    return _convex(_matrix_objective(a.entries), a.n, capacity_bounds(a))


# ---------------------------------------------------------------------------
# frames and operator tuples


def _frame_objective(vecs: np.ndarray, d: int, n: int):
    """Objective/gradient/Hessian closure for the diagonal-weight program
        g(y) = log d + (1/d) logdet(sum_l e^{y_l} u_l u_l^T) - (1/n) sum_l y_l.
    With w = e^y, K = U G^{-1} U^T and q = diag(K), the gradient is
    w q / d - 1/n and the Hessian (diag(w q) - (w w^T) o K o K)/d.
    """
    logd = math.log(d)

    def objective(y):
        w = np.exp(y)
        gram = (vecs * w[:, None]).T @ vecs
        sgn, logdet = np.linalg.slogdet(gram)
        if sgn <= 0 or not math.isfinite(logdet):    # singular, or e^y overflowed
            return math.inf, None, None
        f = logd + logdet / d - float(y.sum()) / n
        k = vecs @ np.linalg.solve(gram, vecs.T)   # u_l^T G^{-1} u_l'
        wq = w * np.diag(k)
        return f, wq / d - 1.0 / n, (np.diag(wq) - np.outer(w, w) * k * k) / d

    return objective


def _frame_certificate(fr: Frame) -> dict | None:
    """The zero certificate of a frame whose vectors do not span R^d (the
    determinant vanishes for every weight), else None."""
    if np.linalg.slogdet(fr.vectors.T @ fr.vectors)[0] > 0:
        return None
    return {"reason": "vectors do not span"}


@reports_nonfinite
def frame_weight_minimizer(fr: Frame) -> np.ndarray:
    """Positive per-vector weights x_l = e^{y_l} minimizing the diagonal
    capacity program (by the Newton routine of frame_capacity); the
    eigenbasis of sum_l x_l u_l u_l^T at these weights is the natural
    frame-side basis for the matrix compression.  Raises CapacityError when
    the vectors do not span or Newton stops short of GRAD_TOL, naming the
    stop."""
    if _frame_certificate(fr) is not None:
        raise CapacityError("vectors do not span; no interior minimizer")
    y, _, stop, iterations = _newton(_frame_objective(fr.vectors, fr.d, fr.n),
                                     np.zeros(fr.n), GRAD_TOL, NEWTON_MAX_ITERS)
    if stop != "converged":
        raise CapacityError(f"weight minimizer stopped at {stop} after "
                            f"{iterations} Newton iterations")
    return np.exp(y)


def frame_capacity(fr: Frame) -> CapacityResult:
    """Diagonal-weight capacity of a frame:
        g(y) = log d + (1/d) logdet(sum_l e^{y_l} u_l u_l^T) - (1/n) sum_l y_l,
    minimized from y = 0 by gauge-fixed damped Newton; value exp(g*).  A
    frame whose vectors do not span R^d has capacity zero (the determinant
    vanishes for every weight).  The result of `capacity_report`."""
    return capacity_report(fr).result


def _operator_scaling(u: OperatorTuple, s: float, bracket: tuple[float, float]) -> CapacityResult:
    try:
        v, (left, right), report = operator_sinkhorn(u, SCALING_TOL * s * s, SCALING_MAX_ITERS)
    except ScalingError:
        # a Gram too near singular to invert is no proof of zero capacity
        return CapacityResult(bracket[1], "bracket-only", None, *bracket, False, 0, "singular")
    value = size_of(v) * math.exp(-2.0 * _logabsdet(left) / u.m - 2.0 * _logabsdet(right) / u.n)
    return _scaling_result(value, bracket, report)


def operator_capacity(u: OperatorTuple) -> CapacityResult:
    """Scaling route for operator tuples, with the always-reported bracket
    [s - mn sqrt(delta/2), s].  The balanced point estimate uses the exact
    transform rule cap(L U R) = det(L)^{2/m} det(R)^{2/n} cap(U), so it is
    valid (an upper estimate) even when the iteration stops early.  The
    result of `capacity_report`."""
    return capacity_report(u).result


# ---------------------------------------------------------------------------
# one pass per input


@reports_nonfinite
def capacity_report(obj) -> CapacityReport:
    """Capacity of a matrix, frame or operator tuple in one pass: the zero
    check, size_of, delta_of and the bracket each run once, and feed the
    routes (both of them for a matrix) and the record.  A zero-capacity
    input skips the bracket and the routes."""
    s, delta = size_of(obj), delta_of(obj)
    if isinstance(obj, NonNegMatrix):
        cert = capacity_zero_check(obj)
        if cert is not None:
            zero = _zero_result(cert)
            return CapacityReport("matrix", s, delta, zero, zero, 0.0)
        bracket = _bracket(obj, s, delta)
        res = _matrix_scaling(obj, s, bracket, SCALING_TOL)
        convex = _convex(_matrix_objective(obj.entries), obj.n, bracket)
        gap = abs(res.value - convex.value) / max(res.value, convex.value, 1e-300)
        return CapacityReport("matrix", s, delta, res, convex, gap)
    if isinstance(obj, Frame):
        cert = _frame_certificate(obj)
        if cert is not None:
            return CapacityReport("frame", s, delta, _zero_result(cert))
        return CapacityReport("frame", s, delta, _convex(
            _frame_objective(obj.vectors, obj.d, obj.n), obj.n, _bracket(obj, s, delta)))
    return CapacityReport("operator", s, delta,
                          _operator_scaling(obj, s, _bracket(obj, s, delta)))


def _embedded_frame(u: OperatorTuple) -> Frame | None:
    """Recognize the image of frame_to_operator (U_l supported on column l)."""
    if u.k != u.n:
        return None
    fr = Frame(u.mats[np.arange(u.n), :, np.arange(u.n)])
    return fr if np.array_equal(frame_to_operator(fr).mats, u.mats) else None


def reduce_operator_to_matrix(u: OperatorTuple, x: np.ndarray | None = None) -> NonNegMatrix:
    """Compress an operator tuple to a nonnegative matrix through a positive
    definite weight X:  A_ij = sum_l (g_i^T U_l f_j)^2  with f the eigenbasis
    of X and g the eigenbasis of sum_l U_l X U_l^T.  Size is preserved
    exactly; the imbalance never increases; capacity can only drop toward the
    infimum that an optimal X attains.

    Default X: for an embedded frame, the diagonal weights found by the
    frame capacity descent; otherwise, or where that descent finds no
    minimizer (vectors that do not span, or Newton unconverged), the identity.
    """
    if x is None:
        x = np.eye(u.n)
        fr = _embedded_frame(u)
        if fr is not None:
            try:
                x = np.diag(frame_weight_minimizer(fr))
            except CapacityError:
                pass

    x = np.asarray(x, dtype=float)
    wx, fbasis = jacobi_eigh(x)
    if wx[0] <= 0.0:
        raise ValueError("weight matrix must be positive definite")
    t = np.einsum("kmn,nl,kol->mo", u.mats, x, u.mats)
    _, gbasis = jacobi_eigh(t)
    proj = np.einsum("im,kmn,nj->kij", gbasis.T, u.mats, fbasis)
    return NonNegMatrix(np.einsum("kij,kij->ij", proj, proj))


# ---------------------------------------------------------------------------
# the tight family


def tight_example(k: int) -> TightExample:
    """Two-block (2k-1) x (2k+1) matrix of unit size whose imbalance is the
    smallest possible subject to zero capacity: delta = 1/(8k^4 - 6k^2)."""
    if k < 1:
        raise ValueError("k >= 1 required")
    m, n = 2 * k - 1, 2 * k + 1
    a_coef = (4.0 * k * k + 2.0 * k - 1.0) / (k * (k + 1.0))
    if k == 1:
        e_mass, f_mass = 1.0, 0.0
        x = e_mass / (k * (k + 1.0))
        y = 0.0
    else:
        b_coef = (4.0 * k * k - 2.0 * k - 1.0) / ((k - 1.0) * k)
        opt = 1.0 / (1.0 / a_coef + 1.0 / b_coef)
        e_mass, f_mass = opt / a_coef, opt / b_coef
        x = e_mass / (k * (k + 1.0))
        y = f_mass / ((k - 1.0) * k)
    entries = np.zeros((m, n))
    entries[:k, k:] = x
    if k > 1:
        entries[k:, :k] = y
    return TightExample(k, NonNegMatrix(entries), x, y, e_mass, f_mass)
