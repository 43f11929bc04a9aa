"""Core objects and measures.

Three kinds of scaling objects live here:

* ``Frame`` — n vectors in R^d (rows of ``vectors``).  The balanced target is
  sum_i u_i u_i^T = I_d with every norm^2 equal to d/n.
* ``OperatorTuple`` — k real m x n matrices.  Balanced means
  sum_i U_i U_i^T and sum_i U_i^T U_i are both multiples of the identity.
* ``NonNegMatrix`` — an entrywise-nonnegative m x n matrix.  Balanced means
  all row sums equal s/m and all column sums equal s/n.

The shared measures are the size ``s`` (total squared mass), the imbalance
``delta`` (zero exactly at double balance, scales as c^4 under U -> cU), and
the spectral nearness ``eps``.  All three agree across the embedding of a
frame as an operator tuple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._jacobi import jacobi_eigh

SCHEMA_VERSION = "1"

# entries of a NonNegMatrix in [-NEG_CLAMP, 0) are treated as roundoff and
# clamped to zero; anything more negative is rejected
NEG_CLAMP = 1e-15

# inputs of at most this many entries are checked as a Python list, which
# beats numpy's reductions up to about 6 x 6; larger ones use the reductions
_LIST_CHECK_MAX = 36


def _finite_min(arr: np.ndarray) -> float:
    """The smallest entry of arr (0.0 if it has none); raises ValueError
    unless every entry is finite."""
    if arr.size <= _LIST_CHECK_MAX:
        vals = arr.ravel().tolist()
        # a NaN or an inf makes the sum non-finite; a finite sum needs
        # every entry finite.  An overflowing sum falls through.
        if math.isfinite(sum(vals)):
            return min(vals) if vals else 0.0
    # arr is not empty here.  NaN propagates through minimum and maximum,
    # so both extremes are finite exactly when every entry is
    low = np.minimum.reduce(arr, axis=None)
    if not (math.isfinite(low) and math.isfinite(np.maximum.reduce(arr, axis=None))):
        raise ValueError("entries must be finite")
    return low


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Frame:
    """n vectors in R^d, stored as the rows of an (n, d) array."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.vectors, "vectors")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"vectors must be (n, d) with n, d >= 1, got {arr.shape}")
        object.__setattr__(self, "vectors", arr)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        """sum_i u_i u_i^T  (d x d)."""
        return self.vectors.T @ self.vectors

    def norms2(self) -> np.ndarray:
        return np.einsum("nd,nd->n", self.vectors, self.vectors)


@dataclass(frozen=True)
class OperatorTuple:
    """k real matrices of common shape m x n, stored as a (k, m, n) array."""

    mats: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.mats, "mats")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"mats must be (k, m, n) with all dims >= 1, got {arr.shape}")
        object.__setattr__(self, "mats", arr)

    @property
    def k(self) -> int:
        return self.mats.shape[0]

    @property
    def m(self) -> int:
        return self.mats.shape[1]

    @property
    def n(self) -> int:
        return self.mats.shape[2]

    def left_gram(self) -> np.ndarray:
        """sum_i U_i U_i^T  (m x m)."""
        return np.einsum("kmn,kln->ml", self.mats, self.mats)

    def right_gram(self) -> np.ndarray:
        """sum_i U_i^T U_i  (n x n)."""
        return np.einsum("kmi,kmj->ij", self.mats, self.mats)


class NonNegMatrix:
    """Entrywise-nonnegative m x n matrix, immutable, with a read-only
    ``entries`` array.

    Tiny negative entries (>= -1e-15, i.e. roundoff from upstream float work)
    are clamped to exactly zero; anything more negative raises.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        low = _finite_min(arr)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValueError(f"entries must be (m, n) with m, n >= 1, got {arr.shape}")
        if low < -NEG_CLAMP:
            raise ValueError(f"negative entry {low:.3e} below the -1e-15 clamp window")
        if low < 0.0:
            arr = np.where(arr < 0.0, 0.0, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"NonNegMatrix is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"NonNegMatrix is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return NonNegMatrix, (self.entries,)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)


ScalingObject = Union[Frame, OperatorTuple, NonNegMatrix]

# each kind's name, the attribute holding its array, and the header of its
# document: the sizes of the array's axes
_LAYOUT = {
    Frame: ("frame", "vectors", ("d", "n")),
    OperatorTuple: ("operator", "mats", ("m", "n", "k")),
    NonNegMatrix: ("matrix", "entries", ("m", "n")),
}


def _layout(obj: ScalingObject) -> tuple[str, str, tuple[str, ...]]:
    try:
        return _LAYOUT[type(obj)]
    except KeyError:
        raise TypeError(f"unsupported object {type(obj).__name__}") from None


# ---------------------------------------------------------------------------
# measures


def size_of(obj: ScalingObject) -> float:
    """Total squared mass: sum of squared vector norms / Frobenius norms,
    or the plain entry sum for a nonnegative matrix."""
    if isinstance(obj, Frame):
        return float(np.einsum("nd,nd->", obj.vectors, obj.vectors))
    if isinstance(obj, OperatorTuple):
        return float(np.einsum("kmn,kmn->", obj.mats, obj.mats))
    if isinstance(obj, NonNegMatrix):
        return float(obj.entries.sum())
    raise TypeError(f"unsupported object {type(obj).__name__}")


def delta_of(obj: ScalingObject) -> float:
    """Imbalance measure; 0 exactly at double balance, scales as c^4.

    delta is the sum of two nonnegative halves, one per side, each either a
    Gram half |s I - k G|^2 / k (a k x k Gram matrix G) or a marginal half
    |s - k sums|^2 / k (k sums): left and right Gram for an operator tuple,
    frame Gram and vector norms^2 for a frame, row and column sums for a
    nonnegative matrix.  The scaling loops take the halves one at a time.
    """
    if isinstance(obj, Frame):
        v = obj.vectors
        gram = v.T @ v
        s = float(np.trace(gram))
        return float(_gram_half(s, gram, obj.d)
                     + _marginal_half(s, np.einsum("nd,nd->n", v, v), obj.n))
    if isinstance(obj, OperatorTuple):
        bl = obj.left_gram()
        s = float(np.trace(bl))
        return float(_gram_half(s, bl, obj.m) + _gram_half(s, obj.right_gram(), obj.n))
    if isinstance(obj, NonNegMatrix):
        s = float(obj.entries.sum())
        return float(_marginal_half(s, obj.row_sums(), obj.m)
                     + _marginal_half(s, obj.col_sums(), obj.n))
    raise TypeError(f"unsupported object {type(obj).__name__}")


def _marginal_half(s: float, sums: np.ndarray, k: int):
    """|s - k sums|^2 / k: one side's half of delta from its k sums."""
    dev = s - k * sums
    return np.add.reduce(dev * dev, axis=None) / k


def _gram_half(s: float, gram: np.ndarray, k: int):
    """|s I - k G|^2 / k: one side's half of delta from its k x k Gram."""
    dev = s * np.eye(k) - k * gram
    return np.add.reduce(dev * dev, axis=None) / k


def dist(a: ScalingObject, b: ScalingObject) -> float:
    """Squared distance: sum of squared entrywise differences."""
    if type(a) is not type(b):
        raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    attr = _layout(a)[1]
    x, y = getattr(a, attr), getattr(b, attr)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    diff = x - y
    return float(np.sum(diff * diff))


def eps_nearness(obj: Frame | OperatorTuple) -> float:
    """Smallest eps >= 0 such that both Gram spectra are within a factor
    (1 +/- eps) of their balanced values (identity on the left, (m/n) I on
    the right; for frames the right side is the vector norms against d/n).
    """
    if isinstance(obj, Frame):
        left, right, target = obj.gram(), obj.norms2(), obj.d / obj.n
    elif isinstance(obj, OperatorTuple):
        left, right, target = obj.left_gram(), jacobi_eigh(obj.right_gram())[0], obj.m / obj.n
    else:
        raise TypeError("eps_nearness is defined for frames and operator tuples, "
                        f"not {type(obj).__name__}")
    w, _ = jacobi_eigh(left)
    return float(max(0.0, 1.0 - w[0], w[-1] - 1.0,
                     1.0 - right.min() / target, right.max() / target - 1.0))


def is_doubly_balanced(obj: ScalingObject, tol: float = 1e-12) -> bool:
    """True iff the scalar imbalance is at or below tol.

    The tolerance is on delta (the single quantity the convergence
    statements are phrased in) rather than on per-entry marginal
    deviations.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    return delta_of(obj) <= tol


# ---------------------------------------------------------------------------
# conversions


def frame_to_operator(frame: Frame) -> OperatorTuple:
    """Embed a frame as n matrices of shape d x n, the i-th holding u_i in
    column i.  Size, delta, and eps are preserved exactly."""
    d, n = frame.d, frame.n
    mats = np.zeros((n, d, n))
    idx = np.arange(n)
    mats[idx, :, idx] = frame.vectors
    return OperatorTuple(mats)


# ---------------------------------------------------------------------------
# serialization


def to_dict(obj: ScalingObject) -> dict:
    kind, attr, header = _layout(obj)
    return {"kind": kind, **{h: getattr(obj, h) for h in header},
            attr: getattr(obj, attr).tolist()}


def from_dict(data: dict) -> ScalingObject:
    if not isinstance(data, dict):
        raise ValueError(f"a document must be a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    for cls, (name, attr, header) in _LAYOUT.items():
        if name == kind:
            obj = cls(data[attr])
            if tuple(getattr(obj, h) for h in header) != tuple(data[h] for h in header):
                raise ValueError(f"{kind} header ({', '.join(header)}) disagrees with the array")
            return obj
    raise ValueError(f"unknown kind {kind!r}")


def dumps(obj: ScalingObject) -> str:
    return json.dumps(to_dict(obj), sort_keys=True)


def loads(text: str) -> ScalingObject:
    return from_dict(json.loads(text))


def save_json(obj: ScalingObject, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_json(path) -> ScalingObject:
    with open(path) as fh:
        return loads(fh.read())
