"""Symmetric spectra through LAPACK (``np.linalg.eigh``).

The module and its three public names are those of the cyclic Jacobi solver
it replaced: the benchmark tracer (``perfbench/tracer.py``) looks up
``jacobi_eigh``, ``sym_inv_sqrt`` and ``sym_sqrt`` here by name.  Nothing in
the package calls ``sym_sqrt``; it stays only for that lookup, until the
module and the tracer's entries are renamed together.
"""

from __future__ import annotations

import math

import numpy as np

# eigenvalues at or below SINGULAR_RTOL * max eigenvalue count as zero when
# inverting / square-rooting
SINGULAR_RTOL = 1e-13


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with eigenvalues w ascending and eigenvectors in the columns
    of V, so that  a == V @ diag(w) @ V.T  up to roundoff.  Raises
    ValueError unless a is square, finite and symmetric: no entry of a - a.T
    may exceed 1e-10 * (1 + max|a|) in absolute value.

    The checks run in that order.  One max-abs reduction decides
    finiteness, since NaN and inf carry through it, and gives max|a|.  An
    input equal to its transpose bit for bit, as the Gram matrices of the
    scaling loops and the flows are, is symmetric and equals
    0.5 * (a + a.T), so it goes to LAPACK as it is; any other input takes
    max|a - a.T| and is symmetrised.  The test is on bits, not on
    max|a - a.T| == 0: a zero mirrored by a negative zero passes the
    latter, and LAPACK's reflectors read the sign of a zero."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix expected, got {a.shape}")
    amax = np.maximum.reduce(np.abs(a), axis=None, initial=0.0)
    if not amax < math.inf:
        raise ValueError("matrix has non-finite entries")
    bits = a.view(np.int64)
    if np.equal(bits, bits.T).all():
        return np.linalg.eigh(a)
    if np.maximum.reduce(np.abs(a - a.T), axis=None) > 1e-10 * (1.0 + amax):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(0.5 * (a + a.T))


def _sqrt_spectrum(a: np.ndarray, inverse: bool) -> np.ndarray:
    """a^(-1/2), raising LinAlgError if a is numerically singular, or else
    a^(1/2) with the eigenvalues at or below the cutoff taken as zero."""
    w, v = jacobi_eigh(a)
    cut = SINGULAR_RTOL * max(float(w[-1]), 0.0) if w.size else 0.0
    if inverse and w.size and w[0] <= cut:
        raise np.linalg.LinAlgError(
            f"matrix is numerically singular (eigenvalue {w[0]:.3e} <= {cut:.3e})")
    root = np.sqrt(np.where(w > cut, w, 0.0))
    return (v / root if inverse else v * root) @ v.T


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    return _sqrt_spectrum(a, inverse=True)


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a symmetric positive semidefinite matrix."""
    return _sqrt_spectrum(a, inverse=False)
