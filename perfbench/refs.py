"""Reference computations for the output checks.

Everything here uses numpy and plain Python only, never ``frameflow``, so a
defect in the program cannot hide by also being present in its own check.
The formulas follow the definitions in the package docstrings: a frame is
an (n, d) array of vectors, an operator tuple a (k, m, n) array, and a
nonnegative matrix an (m, n) array of squared magnitudes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def frame_size(v: np.ndarray) -> float:
    return float(np.sum(v * v))


def frame_delta(v: np.ndarray) -> float:
    n, d = v.shape
    gram = v.T @ v
    s = float(np.trace(gram))
    left = s * np.eye(d) - d * gram
    right = s - n * np.sum(v * v, axis=1)
    return float(np.sum(left * left) / d + np.sum(right * right) / n)


def frame_eps(v: np.ndarray) -> float:
    """Spectral nearness of a frame: the worst relative deviation of the
    frame operator's eigenvalues from 1 and of the squared norms from d/n."""
    n, d = v.shape
    w = np.linalg.eigvalsh(v.T @ v)
    norms2 = np.sum(v * v, axis=1)
    target = d / n
    return float(max(0.0, 1.0 - w[0], w[-1] - 1.0,
                     1.0 - norms2.min() / target, norms2.max() / target - 1.0))


def operator_size(u: np.ndarray) -> float:
    return float(np.sum(u * u))


def operator_delta(u: np.ndarray) -> float:
    _, m, n = u.shape
    left = sum(a @ a.T for a in u)
    right = sum(a.T @ a for a in u)
    s = float(np.trace(left))
    dl = s * np.eye(m) - m * left
    dr = s * np.eye(n) - n * right
    return float(np.sum(dl * dl) / m + np.sum(dr * dr) / n)


def matrix_size(a: np.ndarray) -> float:
    return float(a.sum())


def matrix_delta(a: np.ndarray) -> float:
    m, n = a.shape
    s = float(a.sum())
    r = a.sum(axis=1)
    c = a.sum(axis=0)
    return float(np.sum((s - m * r) ** 2) / m + np.sum((s - n * c) ** 2) / n)


def size_delta(kind: str, arr: np.ndarray) -> tuple[float, float]:
    if kind == "frame":
        return frame_size(arr), frame_delta(arr)
    if kind == "operator":
        return operator_size(arr), operator_delta(arr)
    return matrix_size(arr), matrix_delta(arr)


def bracket(kind: str, arr: np.ndarray) -> tuple[float, float]:
    """Always-valid capacity bracket [max(0, s - mn sqrt(delta/2)), s]
    (d and n for frames), the criterion-04 form."""
    s, delta = size_delta(kind, arr)
    if kind == "frame":
        m, n = arr.shape[1], arr.shape[0]
    elif kind == "operator":
        m, n = arr.shape[1], arr.shape[2]
    else:
        m, n = arr.shape
    return max(0.0, s - m * n * math.sqrt(delta / 2.0)), s


def finite_difference(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Second-order centred derivative of f at the interior points of a
    nonuniform grid t (exact on quadratics)."""
    h1 = np.diff(t)[:-1]
    h2 = np.diff(t)[1:]
    return (f[2:] * h1 * h1 - f[:-2] * h2 * h2 + f[1:-1] * (h2 * h2 - h1 * h1)) / (
        h1 * h2 * (h1 + h2)
    )


# ---------------------------------------------------------------------------
# zero capacity: supports, matchings, witnesses


def lifted_support(support: np.ndarray) -> np.ndarray:
    """Support of the square tensor lift of an m x n support: each entry is
    blown up to an (n/g) x (m/g) block, g = gcd(m, n)."""
    m, n = support.shape
    if m == n:
        return support.astype(bool)
    g = math.gcd(m, n)
    return np.kron(support.astype(bool), np.ones((n // g, m // g), dtype=bool))


def has_perfect_matching(support: np.ndarray) -> bool:
    """Kuhn's augmenting-path matching on a square boolean support."""
    n = support.shape[0]
    adj = [np.nonzero(row)[0].tolist() for row in support]
    match_col = [-1] * n

    def augment(u: int, seen: list) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_col[v] == -1 or augment(match_col[v], seen):
                    match_col[v] = u
                    return True
        return False

    return all(augment(u, [False] * n) for u in range(n))


def permanent_positive(pats: np.ndarray) -> np.ndarray:
    """Brute force over all permutations: does a (B, k, k) stack of boolean
    supports have a positive permanent?"""
    k = pats.shape[1]
    rows = np.arange(k)
    pos = np.zeros(pats.shape[0], dtype=bool)
    for perm in itertools.permutations(range(k)):
        pos |= pats[:, rows, list(perm)].all(axis=1)
    return pos


def hall_witness_ok(support: np.ndarray, witness) -> bool:
    """A Hall witness on a square support: row set X and column set Y with
    the X x Y block all zero and |X| + |Y| > n."""
    n = support.shape[0]
    try:
        rows = [int(i) for i in witness["rows"]]
        cols = [int(j) for j in witness["cols"]]
    except (TypeError, KeyError, ValueError):
        return False
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return False
    if any(not 0 <= i < n for i in rows) or any(not 0 <= j < n for j in cols):
        return False
    if len(rows) + len(cols) <= n:
        return False
    return not support[np.ix_(rows, cols)].any()
