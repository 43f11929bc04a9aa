"""Discrete scaling iterations: matrix sinkhorn, operator alternating
normalization, and the frame special case.

Conventions
-----------
* matrix: a row pass scales every row sum to s/m, a column pass every column
  sum to s/n (s is invariant under both).  One iteration = row pass + column
  pass.
* operator: odd step V <- L^{-1/2} V with L = sum V_i V_i^T (exact left
  normalization), even step V <- sqrt(m/n) * V R^{-1/2} with R = sum V_i^T V_i
  (exact right Gram, proportional to the identity afterwards).
* frame: u_i <- S^{-1/2} u_i, then u_i <- sqrt(d/n) * u_i / ||u_i|| — the same
  double step as the operator iteration applied to the frame embedding, so the
  two agree iterate-by-iterate.

Convergence is delta <= tol, checked on entry and after each double step.
delta is the sum of two halves (see ``core.delta_of``), and each loop checks
first the half of the side its next step balances, from what that step
needs anyway: the row sums and s, the left Gram, or the frame Gram.  After a
double step that half is the unbalanced one, and when it alone exceeds tol
the other half is not computed.  The reported delta is always the whole.

A non-finite entry in an iterate makes delta NaN, which stops the loop,
and the output's constructor then raises ValueError.  A non-finite delta
never counts as converged, in any of the three.  The report says why the
loop stopped, read once at exit: `converged`, `max_iters`, or `non-finite`
when delta or a transform entry is not finite or a diagonal transform holds
a 0.  The transforms of an input that no scaling balances can overflow and
underflow while its iterate stays finite.

Each routine returns (output, (left, right), report): the accumulated
transforms taking the input to the output, a diagonal side as the 1-D vector
of its diagonal and any other side as a square matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jacobi import sym_inv_sqrt
from .core import Frame, NonNegMatrix, OperatorTuple, _gram_half, _marginal_half

SCALING_MAX_ITERS = 100_000    # default iteration cap of every scaling loop

# Floating-point policy: a routine that reports a non-finite value as an
# outcome (a `non-finite` stop, a `bracket-only` capacity, a JSON null) runs
# under this context instead of numpy warning on stderr; nothing else warns
# or changes the warning filters.
reports_nonfinite = np.errstate(over="ignore", invalid="ignore", divide="ignore")

# The loops below call np.add.reduce, the ufunc reduction that .sum() and
# np.sum dispatch to: the same arithmetic, without about 0.7 us of Python
# per call, and they make several per iteration.


class ScalingError(RuntimeError):
    """Raised when a scaling step is undefined (zero row, singular Gram, ...)."""


@dataclass(frozen=True)
class IterationReport:
    iterations: int
    final_delta: float
    stop: str                   # converged | non-finite | max_iters

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def _report(iterations: int, delta: float, tol: float, transforms) -> IterationReport:
    """A non-finite delta (an overflowed sum) never counts as converged, not
    even against a tol that overflowed too.  A loop that stops short of
    convergence with finite delta and transforms ran out of iterations."""
    if delta <= tol and math.isfinite(delta):
        stop = "converged"
    elif not math.isfinite(delta) or any(
            not np.isfinite(t).all() or (t.ndim == 1 and not t.all()) for t in transforms):
        stop = "non-finite"
    else:
        stop = "max_iters"
    return IterationReport(iterations, float(delta), stop)


def _above(half, s: float, tol: float) -> bool:
    """True when one half of delta alone shows delta > tol, so the other half
    need not be computed: fl(a + b) >= a for b >= 0, and with s finite every
    entry is finite, so neither half can be NaN.  A half that is NaN itself
    never passes the test."""
    return half > tol and math.isfinite(s)


# ---------------------------------------------------------------------------


@reports_nonfinite
def sinkhorn(
    a: NonNegMatrix, tol: float = 1e-12, max_iters: int = SCALING_MAX_ITERS
) -> tuple[NonNegMatrix, tuple[np.ndarray, np.ndarray], IterationReport]:
    """Alternate row/column normalization of a nonnegative matrix.

    Returns (B, (x, y), report) with B = diag(x) A diag(y) and
    delta(B) <= tol on convergence.  A zero row or column makes the update
    undefined and raises ScalingError.
    """
    mat = a.entries.copy()
    m, n = mat.shape
    s = np.add.reduce(mat, axis=None)
    r = np.add.reduce(mat, axis=1)
    if (r == 0.0).any():
        raise ScalingError("zero row: row normalization undefined")
    if (np.add.reduce(mat, axis=0) == 0.0).any():
        raise ScalingError("zero column: column normalization undefined")

    x = np.ones(m)
    y = np.ones(n)
    iterations = 0
    while True:
        half = _marginal_half(s, r, m)
        if iterations >= max_iters or not _above(half, s, tol):
            delta = float(half + _marginal_half(s, np.add.reduce(mat, axis=0), n))
            if iterations >= max_iters or not delta > tol:
                break
        row_scale = (s / m) / r
        mat *= row_scale[:, None]
        x *= row_scale

        s = np.add.reduce(mat, axis=None)
        col_scale = (s / n) / np.add.reduce(mat, axis=0)
        mat *= col_scale[None, :]
        y *= col_scale

        iterations += 1
        s = np.add.reduce(mat, axis=None)
        r = np.add.reduce(mat, axis=1)

    return NonNegMatrix(mat), (x, y), _report(iterations, delta, tol, (x, y))


@reports_nonfinite
def operator_sinkhorn(
    u: OperatorTuple, tol: float = 1e-12, max_iters: int = SCALING_MAX_ITERS
) -> tuple[OperatorTuple, tuple[np.ndarray, np.ndarray], IterationReport]:
    """Alternate exact left/right normalization of an operator tuple.

    Odd steps make sum V_i V_i^T the identity, even steps make
    sum V_i^T V_i equal (m/n) I_n.  Singular Gram matrices raise
    ScalingError.
    """
    mats = u.mats.copy()
    m, n = u.m, u.n
    left = np.eye(m)
    right = np.eye(n)
    rescale = math.sqrt(m / n)

    gram_l = np.einsum("kmn,kln->ml", mats, mats)
    s = float(np.trace(gram_l))
    iterations = 0
    while True:
        half = _gram_half(s, gram_l, m)
        if iterations >= max_iters or not _above(half, s, tol):
            gram_r = np.einsum("kmi,kmj->ij", mats, mats)
            delta = float(half + _gram_half(s, gram_r, n))
            if iterations >= max_iters or not delta > tol:
                break
        try:
            li = sym_inv_sqrt(gram_l)
        except np.linalg.LinAlgError as exc:
            raise ScalingError(f"left Gram singular: {exc}") from exc
        mats = np.matmul(li, mats)
        left = li @ left

        gram_r = np.einsum("kmi,kmj->ij", mats, mats)
        try:
            ri = sym_inv_sqrt(gram_r)
        except np.linalg.LinAlgError as exc:
            raise ScalingError(f"right Gram singular: {exc}") from exc
        mats = rescale * np.matmul(mats, ri)
        right = right @ (rescale * ri)

        iterations += 1
        gram_l = np.einsum("kmn,kln->ml", mats, mats)
        s = float(np.trace(gram_l))

    return OperatorTuple(mats), (left, right), _report(iterations, delta, tol, (left, right))


@reports_nonfinite
def frame_alternating(
    f: Frame, tol: float = 1e-12, max_iters: int = SCALING_MAX_ITERS
) -> tuple[Frame, tuple[np.ndarray, np.ndarray], IterationReport]:
    """Alternating exact-Parseval / equal-norm steps for a frame.

    The double step is u <- S^{-1/2} u followed by the norm reset to
    sqrt(d/n) (all vectors equal norm, total size d).  Matches
    operator_sinkhorn applied to the frame embedding, iterate for iterate.
    """
    vecs = f.vectors.copy()
    d, n = f.d, f.n
    left = np.eye(d)
    yscale = np.ones(n)
    target_norm = math.sqrt(d / n)

    gram = vecs.T @ vecs
    s = float(np.trace(gram))
    iterations = 0
    while True:
        half = _gram_half(s, gram, d)
        if iterations >= max_iters or not _above(half, s, tol):
            norms2 = np.einsum("nd,nd->n", vecs, vecs)
            delta = float(half + _marginal_half(s, norms2, n))
            if iterations >= max_iters or not delta > tol:
                break
        try:
            si = sym_inv_sqrt(gram)
        except np.linalg.LinAlgError as exc:
            raise ScalingError(f"frame Gram singular: {exc}") from exc
        vecs = vecs @ si  # si symmetric: rows become S^{-1/2} u_i
        left = si @ left

        norms = np.sqrt(np.einsum("nd,nd->n", vecs, vecs))
        if (norms == 0.0).any():
            raise ScalingError("zero vector after Parseval step")
        step_scale = target_norm / norms
        vecs = vecs * step_scale[:, None]
        yscale *= step_scale

        iterations += 1
        gram = vecs.T @ vecs
        s = float(np.trace(gram))

    return Frame(vecs), (left, yscale), _report(iterations, delta, tol, (left, yscale))
