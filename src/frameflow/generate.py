"""Seeded generators for test objects: exact equal-norm Parseval frames,
frames at a requested nearness level, and random operator tuples and
nonnegative matrices.  All randomness flows through counter-based Philox
streams keyed by the caller's seed, so outputs are reproducible and
independent of scheduling.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Frame, NonNegMatrix, OperatorTuple, eps_nearness, size_of
from .discrete_scaling import ScalingError, frame_alternating

_EXACT_TOL = 1e-21          # imbalance target for the exact-frame stage
# (far above the roundoff floor, about 1e-30 on 12x3 draws; another target
# would stop frame_alternating at another iterate, moving every frame)
_MAX_DRAWS = 10


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def harmonic_frame(d: int, n: int) -> Frame:
    """Deterministic exact equal-norm Parseval frame (trigonometric moment
    construction; identity basis when n = d).  Requires n >= d."""
    if d < 1 or n < d:
        raise ValueError("need n >= d >= 1")
    if n == d:
        return Frame(np.eye(d))
    vectors = np.empty((n, d))
    j = np.arange(n)
    col = 0
    if d % 2 == 1:
        vectors[:, 0] = 1.0 / math.sqrt(n)
        col = 1
    amp = math.sqrt(2.0 / n)
    for f in range(1, (d - col) // 2 + 1):
        angle = 2.0 * math.pi * f * j / n
        vectors[:, col] = amp * np.cos(angle)
        vectors[:, col + 1] = amp * np.sin(angle)
        col += 2
    return Frame(vectors)


def random_frame(d: int, n: int, seed) -> Frame:
    """Gaussian frame scaled to size d."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1, n >= 1")
    vecs = _rng(seed).normal(size=(n, d))
    return Frame(vecs * math.sqrt(d / float(np.einsum("nd,nd->", vecs, vecs))))


def near_parseval_frame(d: int, n: int, eps: float, seed) -> tuple[Frame, float]:
    """Frame whose nearness parameter is calibrated to eps; returns
    (frame, eps_nearness(frame)), the nearness measured once.

    A Gaussian sample is balanced by alternating scaling into an exact
    equal-norm Parseval frame (degenerate draws are redrawn, at most 10
    times), then Gaussian direction noise is added at an amplitude tuned by
    a few secant steps so the measured nearness lands within a factor of
    two of the request.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if n < d:
        raise ValueError("need n >= d for a spanning frame")
    rng = _rng(seed)
    exact = None
    for _ in range(_MAX_DRAWS):
        sample = rng.normal(size=(n, d))
        try:
            exact, _, report = frame_alternating(Frame(sample), tol=_EXACT_TOL)
        except ScalingError:
            continue
        if report.converged:
            break
        exact = None
    if exact is None:
        raise ScalingError("no nondegenerate Gaussian draw in 10 attempts")
    if eps == 0.0:
        return exact, eps_nearness(exact)

    noise = rng.normal(size=(n, d))
    eta = 0.1 * eps * math.sqrt(d / n) / math.sqrt(d)   # small, linear regime
    for _ in range(8):
        frame = Frame(exact.vectors + eta * noise)
        measured = eps_nearness(frame)
        if 0.5 * eps <= measured <= 2.0 * eps:
            break
        if measured <= 0.0:
            eta *= 10.0
            continue
        eta *= eps / measured
    return frame, measured


def random_operator(k: int, m: int, n: int, seed) -> OperatorTuple:
    """Gaussian operator tuple scaled to size m."""
    if min(k, m, n) < 1:
        raise ValueError("k, m, n must be positive")
    mats = _rng(seed).normal(size=(k, m, n))
    op = OperatorTuple(mats)
    return OperatorTuple(mats * math.sqrt(m / size_of(op)))


def random_matrix(m: int, n: int, seed, density: float = 1.0) -> NonNegMatrix:
    """Uniform nonnegative matrix scaled to size m; density < 1 zeroes a
    random complement of the support."""
    if min(m, n) < 1:
        raise ValueError("m, n must be positive")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = _rng(seed)
    entries = rng.uniform(size=(m, n))
    if density < 1.0:
        entries = entries * (rng.uniform(size=(m, n)) < density)
    total = entries.sum()
    if total <= 0.0:
        entries[0, 0] = 1.0
        total = 1.0
    return NonNegMatrix(entries * (m / total))
