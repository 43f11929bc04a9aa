"""Continuous scaling flows.

One dynamical system covers all three kinds: an operator tuple flows by
dU_i/dt = C_m U_i + U_i C_n  with  C_m = s I - m B_m,  C_n = s I - n B_n
(B_m, B_n the two Gram sums, s their common trace), and its accumulated
transforms by dX = C_m X, dY = Y C_n.  Each flow system states this once,
as its drift; a shared base derives from it the right-hand side, delta =
|C_m|^2 / m + |C_n|^2 / n and the transforms.  A diagonal transform is
held in logs, which integrate the diagonal C itself.

* operator tuple: both C's are traceless, so X and Y keep determinant one.
* frame:  du_i/dt = (s I - d S) u_i + (s - n ||u_i||^2) u_i, the embedding
  special case; the right transform is diagonal.
* matrix:  the input is the entrywise SQUARE of the underlying matrix.  With
  s, r_i, c_j taken from the squared entries M, each supported entry obeys
  d(log M_ij)/dt = 2 (2 s - m r_i - n c_j); both transforms are diagonal,
  their logs integrating s - m r_i and s - n c_j.  Zero entries stay
  exactly zero.  The support is a slice when every entry is positive, else
  its flat index array.

Along every flow  ds/dt = -2 delta  and  ddelta/dt = -4 * speed^2, where
speed is the Frobenius velocity of the flowed object; both monitored values
are recorded analytically at every sample.

Integration is classical RK4 with step doubling.  A step is accepted when
the doubled-step error estimate is <= step_err_tol and delta did not grow
over it (delta is a Lyapunov function of every flow); the error estimate
alone then sets the next step.  Sampling never steers the integration:
between two accepted steps, the recorded samples come from cubic Hermite
interpolation on each half step (dense output), on a uniform time grid fine
enough that consecutive samples differ in delta by at most rel_delta_step.
Every drift is written for any number of leading axes, so one call
evaluates a stack of packed states.  A step attempt runs its first half
step and its full step, which start from the same state and derivative,
side by side as a stack of two, and takes the drift at the step's end
once: the accept test reads its measures and the next step its
right-hand side.  A step's samples are handled as one stack too:
interpolated on the whole grid at once, measured in one drift call over K
packed states, and recorded with one log-determinant call into one numpy
block of CSV columns; the blocks are joined once, when the trajectory is
built, and trajectory_csv formats all rows in one call.  Retained
samples are thinned to at most max_samples by doubling the record stride;
once the stride is above one, a step's samples keep their first grid and
only the ones the stride keeps are measured.  With record_samples off,
only the first and final points are recorded; the integration, its
counters and the final transforms are the same either way.  Every
accepted step is checked for growth of s, whatever is recorded.

A flow ends "converged" when delta reaches its target, "t_max" when time
runs out, and "collapsed" when it reaches the target only because s shrank:
delta/s^2 at the end is more than COLLAPSE_FACTOR times the relative target
target/s0^2 (a zero-capacity input flows towards zero this way).  The
trajectory keeps the final (left, right) transforms, and each recorded
FlowState those at its sample, a diagonal side as its vector and a dense
one as its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Frame, NonNegMatrix, OperatorTuple, ScalingObject

CSV_HEADER = "t,s,delta,ds_dt,dDelta_dt,movement,logdetX,logdetY"
_COLUMNS = CSV_HEADER.split(",")
T_MAX = 1e6             # default time limit of every flow
# s falls a little on every flow (ds/dt = -2 delta), so a balanced flow can
# end somewhat above the relative target; 4 means s halved or worse while
# delta sat at the target
COLLAPSE_FACTOR = 4.0


class FlowError(RuntimeError):
    """Numerical failure inside a flow (non-finite state, step underflow)."""


@dataclass(frozen=True)
class FlowOptions:
    rel_delta_step: float = 0.05      # max relative delta change between samples
    step_err_tol: float = 1e-8        # step-doubling error bound; sizes each step
    max_samples: int = 10_000         # retained-sample cap (stride doubling)
    record_samples: bool = True       # False: record only the first and final points
    record_states: bool = False       # keep per-sample FlowState objects

    def __post_init__(self):
        if not self.rel_delta_step > 0.0:
            raise ValueError("rel_delta_step must be positive")
        if not 0.0 < self.step_err_tol < math.inf:
            raise ValueError("step_err_tol must be positive and finite")
        if not isinstance(self.max_samples, (int, np.integer)) or self.max_samples < 2:
            raise ValueError("max_samples must be an integer >= 2")


def validation_options(**overrides) -> FlowOptions:
    """Recording profile fine enough for the finite-difference identity
    checks on trajectories (derivative-identity residuals are quadratic in
    the sample spacing, so the default 5% delta spacing is too coarse for
    them)."""
    base = dict(rel_delta_step=0.0016, step_err_tol=1e-10, max_samples=40_000)
    base.update(overrides)
    return FlowOptions(**base)


@dataclass(frozen=True)
class FlowState:
    """One sampled point of a flow: time, the reconstructed object and the
    accumulated (left, right) transforms, a diagonal side as its vector."""

    t: float
    obj: ScalingObject
    transforms: tuple[np.ndarray, np.ndarray]


@dataclass
class Trajectory:
    kind: str                  # "operator" | "frame" | "matrix"
    m: int
    n: int
    t: np.ndarray
    s: np.ndarray
    delta: np.ndarray
    ds_dt: np.ndarray
    dDelta_dt: np.ndarray
    movement: np.ndarray       # arc length travelled by the flowed object
    logdetX: np.ndarray
    logdetY: np.ndarray
    status: str                # "converged" | "collapsed" (shrank to the target) | "t_max"
    transforms: tuple[np.ndarray, np.ndarray]  # final (left, right)
    steps: int                 # accepted steps
    rejected_err: int          # steps rejected by the error estimate
    rejected_delta: int        # steps rejected because delta grew
    evals: int                 # right-hand-side evaluations
    states: list[FlowState] | None = None

    def __post_init__(self):
        # delta and s never increase along a flow; allow float-resolution slack
        for name in ("s", "delta"):
            v = getattr(self, name)
            if v.size >= 2:
                grace = 1e-12 * np.maximum(1.0, np.abs(v[:-1]))
                if np.any(v[1:] > v[:-1] + grace):
                    raise FlowError(f"{name} increased along the trajectory")

    def __len__(self) -> int:
        return len(self.t)


def trajectory_csv(traj: Trajectory) -> str:
    """Render the monitored columns as CSV (17 significant digits)."""
    cols = [getattr(traj, name) for name in _COLUMNS]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    flat = np.column_stack(cols).ravel().tolist()
    return CSV_HEADER + "\n" + (row * len(traj.t)) % tuple(flat)


# ---------------------------------------------------------------------------
# flow systems


class _System:
    """The packed layout y = [state, left, right, arc length] and all that
    follows from a system's drift(state) -> (s, L, R, V, speed2): the size,
    the left and right drifts (vectors on a diagonal side), the velocity V
    that state_rate turns into the state's derivative, and the squared speed
    of the flowed object.  A system sets m, n and kind, then calls
    __init__; it supplies drift and obj.  Packed states may carry leading
    axes (a stack of K states is K x len(y)); drift is written for any
    number of them, so one call evaluates a stack."""

    evals = 0

    def __init__(self, state, left_dense, right_dense):
        self.shape = state.shape
        self.dense = (left_dense, right_dense)
        sides = [np.eye(size).ravel() if dense else np.zeros(size)
                 for size, dense in ((self.m, left_dense), (self.n, right_dense))]
        self.sl_u = state.size
        self.sl_x = self.sl_u + sides[0].size
        self.sl_y = self.sl_x + sides[1].size
        self.y0 = np.concatenate([state.ravel(), *sides, [0.0]])

    def _state(self, y):
        return y[..., : self.sl_u].reshape(y.shape[:-1] + self.shape)

    def _sides(self, y):
        """The left and right sides: a dense one as its matrix, a diagonal
        one as its vector of logs."""
        lead = y.shape[:-1]
        x, yy = y[..., self.sl_u: self.sl_x], y[..., self.sl_x: self.sl_y]
        return (x.reshape(lead + (self.m, self.m)) if self.dense[0] else x,
                yy.reshape(lead + (self.n, self.n)) if self.dense[1] else yy)

    def state_rate(self, v):
        """Derivative of the packed state, given the velocity V flattened
        over its trailing axes."""
        return v

    def f(self, y, drift=None):
        """Right-hand side over the leading axes of y, counted once per
        state; drift, if given, is the drift of y already computed."""
        lead = y.shape[:-1]
        self.evals += math.prod(lead)
        _, left, right, v, speed2 = self.drift(self._state(y)) if drift is None else drift
        if self.dense[0] or self.dense[1]:
            x, yy = self._sides(y)
            if self.dense[0]:
                left = left @ x
            if self.dense[1]:
                right = yy @ right
        out = np.empty(y.shape)
        out[..., : self.sl_u] = self.state_rate(v.reshape(lead + (-1,)))
        out[..., self.sl_u: self.sl_x] = left.reshape(lead + (-1,))
        out[..., self.sl_x: self.sl_y] = right.reshape(lead + (-1,))
        out[..., -1] = np.sqrt(speed2)
        return out

    def _measures(self, drift):
        """(s, delta, speed2) over the leading axes of a drift, with
        delta = |L|^2 / m + |R|^2 / n."""
        s, left, right, _, speed2 = drift
        sq = [np.add.reduce(side * side, axis=(-2, -1) if dense else -1)
              for side, dense in zip((left, right), self.dense)]
        return s, sq[0] / self.m + sq[1] / self.n, speed2

    def measures(self, y, drift=None):
        """(s, delta, speed2) of one packed state, as floats; drift, if
        given, is the drift of y already computed."""
        s, delta, speed2 = self._measures(self.drift(self._state(y)) if drift is None else drift)
        return float(s), float(delta), float(speed2)

    def measures_stack(self, ys):
        """(s, delta, speed2) of each state in the stack ys, as three arrays."""
        return self._measures(self.drift(self._state(ys)))

    def logdets(self, y):
        """log|det| of the left and right transforms, over the leading axes of y."""
        return tuple(np.linalg.slogdet(side)[1] if dense else np.add.reduce(side, axis=-1)
                     for side, dense in zip(self._sides(y), self.dense))

    def transforms(self, y):
        """The accumulated transforms, a diagonal side as its vector."""
        return tuple(side.copy() if dense else np.exp(side)
                     for side, dense in zip(self._sides(y), self.dense))


class _OperatorSystem(_System):
    kind = "operator"

    def __init__(self, op: OperatorTuple):
        self.m, self.n = op.m, op.n
        self.eye_m, self.eye_n = np.eye(self.m), np.eye(self.n)
        super().__init__(op.mats, True, True)

    def drift(self, u):
        bl = np.einsum("...kmn,...kln->...ml", u, u)
        br = np.einsum("...kmi,...kmj->...ij", u, u)
        s = bl.trace(axis1=-2, axis2=-1)
        cm = s[..., None, None] * self.eye_m - self.m * bl
        cn = s[..., None, None] * self.eye_n - self.n * br
        du = np.matmul(cm[..., None, :, :], u) + np.matmul(u, cn[..., None, :, :])
        return s, cm, cn, du, np.einsum("...kmn,...kmn->...", du, du)

    def obj(self, y):
        return OperatorTuple(self._state(y).copy())


class _FrameSystem(_System):
    kind = "frame"

    def __init__(self, fr: Frame):
        self.n, self.d = fr.n, fr.d
        self.m = self.d          # left dimension of the embedding
        self.eye_d = np.eye(self.d)
        super().__init__(fr.vectors, True, False)

    def drift(self, u):
        norms2 = np.einsum("...nd,...nd->...n", u, u)
        s = np.add.reduce(norms2, axis=-1)
        c = s[..., None, None] * self.eye_d - self.d * (u.swapaxes(-1, -2) @ u)
        w = s[..., None] - self.n * norms2
        du = u @ c + w[..., None] * u
        return s, c, w, du, np.einsum("...nd,...nd->...", du, du)

    def obj(self, y):
        return Frame(self._state(y).copy())


class _MatrixSystem(_System):
    """Flow of the squared entries M on their support, in log domain.  The
    transforms are those of the UNSQUARED matrix, whose squared entries
    reconstruct as (X_ii Y_jj)^2 * M0_ij; V is the log rate of its entries,
    2 s - m r_i - n c_j."""

    kind = "matrix"

    def __init__(self, mat: NonNegMatrix):
        self.m, self.n = mat.m, mat.n
        support = np.flatnonzero(mat.entries > 0.0)   # flat (row-major) indices
        self.support = slice(None) if support.size == self.m * self.n else support
        super().__init__(np.log(mat.entries.ravel()[self.support]), False, False)

    def _mat(self, logs):
        lead = logs.shape[:-1]
        mm = np.zeros(lead + (self.m * self.n,))
        mm[..., self.support] = np.exp(logs)
        return mm.reshape(lead + (self.m, self.n))

    def drift(self, logs):
        mm = self._mat(logs)
        r = np.add.reduce(mm, axis=-1)
        c = np.add.reduce(mm, axis=-2)
        s = np.add.reduce(r, axis=-1)
        rate = 2.0 * s[..., None, None] - self.m * r[..., :, None] - self.n * c[..., None, :]
        return (s, s[..., None] - self.m * r, s[..., None] - self.n * c, rate,
                np.add.reduce(rate * rate * mm, axis=(-2, -1)))

    def state_rate(self, v):
        return 2.0 * v[..., self.support]

    def obj(self, y):
        return NonNegMatrix(self._mat(self._state(y)))


# ---------------------------------------------------------------------------
# integrator


def _rk4(system, y, k1, h):
    """One RK4 step from y, whose derivative k1 the caller supplies."""
    k2 = system.f(y + 0.5 * h * k1)
    k3 = system.f(y + 0.5 * h * k2)
    k4 = system.f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _double_step(system, y, fy, h):
    """Step doubling from y, whose derivative fy the caller supplies: two
    RK4 half steps and one full step, as (y_half, f_half, y_two, y_full).
    The first half step and the full step both start from y and fy, so they
    run as one stack of two states, each row with the coefficients _rk4
    forms for its own step; the answers are those of three _rk4 calls."""
    half = 0.5 * h
    a = np.array([[0.5 * half], [0.5 * h]])
    k2 = system.f(y + a * fy)
    k3 = system.f(y + a * k2)
    k4 = system.f(y + np.array([[half], [h]]) * k3)
    y_half, y_full = y + np.array([[half / 6.0], [h / 6.0]]) * (fy + 2.0 * k2 + 2.0 * k3 + k4)
    f_half = system.f(y_half)
    return y_half, f_half, _rk4(system, y_half, f_half, half), y_full


def _hermite(th, h, ya, fa, yb, fb):
    """Cubic Hermite interpolant of (ya, fa) and (yb, fb) a time h apart,
    at the fractions th of the interval (a column: one state per row)."""
    return (ya + th * th * (3.0 - 2.0 * th) * (yb - ya)
            + h * th * (1.0 - th) * ((1.0 - th) * fa - th * fb))


def _dense_samples(system, t, h, ends, meas_a, meas_b, rel, stride=1):
    """Samples strictly inside the accepted step [t, t + h], as (times,
    states, measures), the states stacked one per row and the measures
    their (s, delta, speed2) arrays, or None if there are none.
    ends = (y, f(y), y_half, f(y_half), y_two, f(y_two))
    holds the step's start, midpoint and end states with their derivatives,
    and meas_a, meas_b the measures at its start and end; each half step is
    interpolated by its own cubic.  The grid is uniform in time.  Its size
    is first estimated from the decay rate of delta at the step's ends, but
    from at most twice the drop of log delta over the step, then raised
    until consecutive deltas, the end points included, differ by at most the
    relative amount rel.  On an exact flow delta strictly decreases, so a
    grid along which it does not has reached the roundoff floor of delta:
    there the rates and the spacing measure only noise, and the grid is kept
    as it is.  A recorder that keeps only every stride-th sample leaves the
    spacing meaningless, so for stride > 1 the first grid is kept, unmeasured
    (measures None): the recorder measures the samples it keeps."""
    (_, delta_a, speed2_a), (_, delta_b, speed2_b) = meas_a, meas_b
    if not 0.0 < delta_b < delta_a or rel >= 1.0:
        return None
    y, fy, y_half, f_half, y_two, f_two = ends
    drop = math.log(delta_a / delta_b)
    drop_at_end_rate = 4.0 * h * max(speed2_a / delta_a, speed2_b / delta_b)
    cells = math.ceil(min(max(drop, drop_at_end_rate), 2.0 * drop) / -math.log1p(-rel))
    while cells > 1:
        theta = np.arange(1, cells) / cells
        first = theta <= 0.5
        states = np.concatenate([
            _hermite(2.0 * theta[first, None], 0.5 * h, y, fy, y_half, f_half),
            _hermite(2.0 * theta[~first, None] - 1.0, 0.5 * h, y_half, f_half, y_two, f_two),
        ])
        if stride > 1:
            return t + theta * h, states, None
        meas = system.measures_stack(states)
        deltas = np.concatenate([[delta_a], meas[1], [delta_b]])
        changes = deltas[1:] - deltas[:-1]
        worst = float(np.maximum.reduce(-changes / deltas[:-1]))
        if worst <= rel or (changes >= 0.0).any():
            return t + theta * h, states, meas
        cells = max(cells + 1, math.ceil(cells * worst / rel))
    return None


class _Recorder:
    """Sample collector with stride-doubling thinning.  Points arrive
    numbered in order; the rows kept are those whose number is a multiple
    of the stride, which doubles (halving the rows) whenever there are more
    than max_samples of them.  The rows are held as numpy blocks, one per
    add, with one column per CSV column."""

    def __init__(self, max_samples: int, record_states: bool):
        self.max_samples = max_samples
        self.blocks = []
        self.rows = 0              # rows kept over all blocks
        self.states = [] if record_states else None
        self.stride = 1
        self.count = 0

    def add(self, system, ts, ys, meas=None, force=False):
        """Record the stack of points ys at the times ts; meas holds their
        (s, delta, speed2) arrays, and is computed here, for the kept points
        only, when None.  force keeps every point."""
        first, step = (0, 1) if force else (-self.count % self.stride, self.stride)
        self.count += len(ts)
        ts, ys = ts[first::step], ys[first::step]
        if not len(ts):
            return
        s, delta, speed2 = (system.measures_stack(ys) if meas is None
                            else (v[first::step] for v in meas))
        self.blocks.append(np.array([ts, s, delta, -2.0 * delta, -4.0 * speed2, ys[:, -1],
                                     *system.logdets(ys)]).T)
        self.rows += len(ts)
        if self.states is not None:
            self.states.extend(FlowState(t, system.obj(y), system.transforms(y))
                               for t, y in zip(ts.tolist(), ys))
        while self.rows > self.max_samples:
            self.blocks = [np.concatenate(self.blocks)[::2]]
            self.rows = len(self.blocks[0])
            if self.states is not None:
                self.states = self.states[::2]
            self.stride *= 2

    def add_point(self, system, t, y, meas, force=False):
        """add for the single point y, with meas = system.measures(y)."""
        self.add(system, np.array([t]), y[None], np.array(meas)[:, None], force)


def _integrate(system, target_delta, t_max, opts: FlowOptions):
    y = system.y0.copy()
    t = 0.0
    drift = system.drift(system._state(y))     # the start's, for measures and f
    meas = system.measures(y, drift)
    s0, delta_cur, speed2 = meas
    if not (math.isfinite(s0) and math.isfinite(delta_cur)):
        raise FlowError("non-finite input")
    if target_delta is None:
        target_delta = 1e-12 * s0 * s0

    rec = _Recorder(opts.max_samples, opts.record_states)
    rec.add_point(system, t, y, meas)

    status = "converged" if delta_cur <= target_delta else None
    steps = rejected_err = rejected_delta = 0

    if status is None:
        fy = system.f(y, drift)
        rate0 = 4.0 * speed2 / delta_cur if delta_cur > 0 else 1.0
        h = min(0.02 / max(rate0, 1e-9), t_max)

    while status is None:
        h = min(h, t_max - t)
        if h <= 0.0:
            status = "t_max"
            break
        y_half, f_half, y_two, y_full = _double_step(system, y, fy, h)
        if not np.isfinite(y_two).all():
            raise FlowError(f"non-finite state at t={t:.6g}")
        err = (float(np.maximum.reduce(np.abs(y_two - y_full), axis=None))
               / max(1.0, float(np.maximum.reduce(np.abs(y), axis=None))))
        factor = max(0.2, min(2.0, 0.9 * (opts.step_err_tol / max(err, 1e-300)) ** 0.2))
        too_coarse = err > opts.step_err_tol
        if not too_coarse:     # only an attempt the error estimate passes needs its end drift
            drift_two = system.drift(system._state(y_two))
            meas_two = system.measures(y_two, drift_two)
        if too_coarse or meas_two[1] > delta_cur:
            if too_coarse:
                rejected_err += 1
            else:
                rejected_delta += 1
            h *= min(factor, 0.5)
            if h < 1e-12 * max(1.0, t):
                raise FlowError(f"step size underflow at t={t:.6g}")
            continue
        # a step on which delta grew was rejected above; the recorded rows
        # need not hold every step, so check s on each one here
        if meas_two[0] > meas[0] + 1e-12 * max(1.0, abs(meas[0])):
            raise FlowError(f"s increased along the trajectory at t={t:.6g}")
        f_two = system.f(y_two, drift_two)
        if opts.record_samples:
            ends = (y, fy, y_half, f_half, y_two, f_two)
            samples = _dense_samples(system, t, h, ends, meas, meas_two,
                                     opts.rel_delta_step, rec.stride)
            if samples is not None:
                rec.add(system, *samples)
            rec.add_point(system, t + h, y_two, meas_two)
        y, fy, meas = y_two, f_two, meas_two
        t += h
        delta_cur = meas[1]
        steps += 1
        if delta_cur <= target_delta:
            collapsed = delta_cur * s0 * s0 > COLLAPSE_FACTOR * target_delta * meas[0] ** 2
            status = "collapsed" if collapsed else "converged"
        elif t >= t_max:
            status = "t_max"
        h *= factor

    # make sure the final point is retained even if thinning skipped it
    if rec.blocks[-1][-1, 0] != t:
        rec.add_point(system, t, y, meas, force=True)

    rows = np.concatenate(rec.blocks)
    traj = Trajectory(
        kind=system.kind,
        m=system.m,
        n=system.n,
        **dict(zip(_COLUMNS, rows.T)),
        status=status,
        transforms=system.transforms(y),
        steps=steps, rejected_err=rejected_err, rejected_delta=rejected_delta,
        evals=system.evals,
        states=rec.states,
    )
    return system.obj(y), traj


def operator_flow(
    u0: OperatorTuple,
    target_delta: float | None = None,
    t_max: float = T_MAX,
    opts: FlowOptions | None = None,
) -> tuple[OperatorTuple, Trajectory]:
    """Flow an operator tuple until delta <= target_delta (default
    1e-12 * s0^2) or t_max is reached."""
    return _integrate(_OperatorSystem(u0), target_delta, t_max, opts or FlowOptions())


def frame_flow(
    f0: Frame,
    target_delta: float | None = None,
    t_max: float = T_MAX,
    opts: FlowOptions | None = None,
) -> tuple[Frame, Trajectory]:
    """Frame version of the flow; right scaling is diagonal throughout."""
    return _integrate(_FrameSystem(f0), target_delta, t_max, opts or FlowOptions())


def matrix_flow(
    m0sq: NonNegMatrix,
    target_delta: float | None = None,
    t_max: float = T_MAX,
    opts: FlowOptions | None = None,
) -> tuple[NonNegMatrix, Trajectory]:
    """Flow the squared-entry matrix (the input IS the squared object)."""
    return _integrate(_MatrixSystem(m0sq), target_delta, t_max, opts or FlowOptions())
