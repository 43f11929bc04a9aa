"""Continuous scaling flows: identities, monitors, scaling accumulation."""

import io
import math

import numpy as np
import pytest

from frameflow import (
    Frame,
    NonNegMatrix,
    delta_of,
    dist,
    dynamics,
    frame_to_operator,
    size_of,
)
from frameflow.capacity import matrix_capacity, tight_example
from frameflow.checks import identity_errors, validate_trace_csv
from frameflow.dynamics import (
    CSV_HEADER,
    FlowError,
    FlowOptions,
    Trajectory,
    _FrameSystem,
    _MatrixSystem,
    _OperatorSystem,
    _dense_samples,
    _integrate,
    _rk4,
    frame_flow,
    matrix_flow,
    operator_flow,
    trajectory_csv,
    validation_options,
)
from frameflow.generate import (
    harmonic_frame,
    near_parseval_frame,
    random_matrix,
    random_operator,
)
from frameflow.paulsen import rate_monitor, solve_basic


def _near_uniform_matrix(m, n, seed, spread=0.3):
    rng = np.random.default_rng(seed)
    entries = (1.0 + spread * rng.uniform(-1.0, 1.0, (m, n))) / (m * n)
    return NonNegMatrix(entries)


# ---------------------------------------------------------------------------
# fixed points and monotonicity


def test_balanced_inputs_are_fixed_points():
    fr = harmonic_frame(3, 6)
    final, traj = frame_flow(fr)
    assert traj.status == "converged"
    assert traj.t[-1] == 0.0
    assert traj.movement[-1] == 0.0
    assert dist(fr, final) == 0.0

    a = NonNegMatrix(np.full((4, 4), 0.25))
    _, traj = matrix_flow(a)
    assert traj.t.shape == (1,)


def test_s_and_delta_nonincreasing():
    u = random_operator(5, 3, 5, 17)
    _, traj = operator_flow(u)
    assert traj.status == "converged"
    assert np.all(np.diff(traj.s) <= 1e-12)
    assert np.all(np.diff(traj.delta) <= 1e-12)
    assert np.all(traj.delta >= 0.0)


def test_default_target_delta():
    a = _near_uniform_matrix(3, 4, 3)
    s0 = size_of(a)
    final, traj = matrix_flow(a)
    assert traj.status == "converged"
    assert delta_of(final) <= 1e-12 * s0 * s0


# ---------------------------------------------------------------------------
# derivative identities (finite differences against analytic monitors)


@pytest.mark.parametrize(
    "make",
    [
        lambda: frame_to_operator(near_parseval_frame(3, 8, 0.05, 0)[0]),
        lambda: near_parseval_frame(3, 8, 0.05, 1)[0],
        lambda: _near_uniform_matrix(3, 4, 2),
    ],
    ids=["operator", "frame", "matrix"],
)
def test_flow_derivative_identities(make):
    obj = make()
    flow = {
        "OperatorTuple": operator_flow,
        "Frame": frame_flow,
        "NonNegMatrix": matrix_flow,
    }[type(obj).__name__]
    _, traj = flow(obj, opts=validation_options())
    err_s, err_d = identity_errors(traj.t, traj.s, traj.delta, traj.dDelta_dt)
    assert err_s <= 1e-5
    assert err_d <= 1e-4


def test_trace_of_drift_matrices_vanishes():
    fr, _ = near_parseval_frame(3, 7, 0.02, 5)
    _, traj = frame_flow(fr, opts=FlowOptions(record_states=True))
    for state in traj.states[:: max(1, len(traj.states) // 7)]:
        v = state.obj.vectors
        s = float(np.einsum("nd,nd->", v, v))
        c_m = s * np.eye(3) - 3 * (v.T @ v)
        c_n = s - 7 * np.einsum("nd,nd->n", v, v)
        assert abs(np.trace(c_m)) <= 1e-9 * s
        assert abs(c_n.sum()) <= 1e-9 * s


@pytest.mark.parametrize("obj, system_cls", [
    (near_parseval_frame(3, 8, 0.05, 41)[0], _FrameSystem),
    (random_operator(4, 3, 5, 42), _OperatorSystem),
    (random_matrix(3, 4, 44, density=0.6), _MatrixSystem),
], ids=["frame", "operator", "matrix"])
def test_system_drift_matches_core_measures(obj, system_cls):
    system = system_cls(obj)
    y0 = system.y0
    s, delta, speed2 = system.measures(y0)
    assert s == pytest.approx(size_of(obj), rel=1e-12)
    assert delta == pytest.approx(delta_of(obj), rel=1e-12)
    fy = system.f(y0)
    assert fy[-1] == math.sqrt(speed2)
    # the arc-length rate is the norm of the flowed object's velocity, read
    # here from the state part of f (for a matrix: the unsquared entries
    # A = sqrt(M) move at A * d(log M)/dt / 2)
    rate = fy[: system.sl_u]
    if system_cls is _MatrixSystem:
        rate = np.sqrt(obj.entries[obj.entries > 0.0]) * rate / 2.0
    assert speed2 == pytest.approx(float(np.sum(rate * rate)), rel=1e-12)
    assert system.logdets(y0) == (0.0, 0.0)
    for side, size, dense in zip(system.transforms(y0), (system.m, system.n), system.dense):
        np.testing.assert_array_equal(side, np.eye(size) if dense else np.ones(size))


# ---------------------------------------------------------------------------
# scaling accumulation


def test_unit_determinant_scalings():
    fr, _ = near_parseval_frame(3, 9, 0.05, 8)
    _, traj = frame_flow(fr)
    assert abs(traj.logdetX[-1]) <= 1e-6
    assert abs(traj.logdetY[-1]) <= 1e-6

    a = _near_uniform_matrix(4, 5, 9)
    _, traj = matrix_flow(a)
    # sum of accumulated row/column exponents is the log-determinant
    assert np.max(np.abs(traj.logdetX)) <= 1e-8
    assert np.max(np.abs(traj.logdetY)) <= 1e-8


def test_scaling_reconstruction_along_trajectory():
    u = random_operator(4, 3, 4, 12)
    _, traj = operator_flow(u, opts=FlowOptions(record_states=True))
    norm0 = np.sqrt(size_of(u))
    for state in traj.states[:: max(1, len(traj.states) // 9)]:
        x, y = state.transforms
        rebuilt = np.einsum("ab,kbc,cd->kad", x, u.mats, y)
        err = np.sqrt(np.sum((rebuilt - state.obj.mats) ** 2))
        assert err <= 1e-7 * norm0


def test_matrix_flow_support_preserved():
    entries = np.array([[0.4, 0.0, 0.2], [0.0, 0.3, 0.1], [0.2, 0.1, 0.0]])
    final, _ = matrix_flow(NonNegMatrix(entries), t_max=5.0)
    assert np.all((final.entries == 0.0) == (entries == 0.0))
    assert np.all(final.entries[entries > 0] > 0.0)


def test_full_support_slice_matches_the_index_path():
    # a positive matrix indexes its support by a slice; the flat index array
    # of every entry must give the same bits
    a = random_matrix(4, 6, 3)
    sliced, indexed = _MatrixSystem(a), _MatrixSystem(a)
    assert sliced.support == slice(None)
    indexed.support = np.arange(a.m * a.n)
    rng = np.random.default_rng(4)
    ys = sliced.y0 + 0.1 * rng.standard_normal((2, sliced.y0.size))
    for got, want in zip(sliced.drift(sliced._state(ys)), indexed.drift(indexed._state(ys))):
        assert got.tobytes() == want.tobytes()
    assert sliced.f(ys).tobytes() == indexed.f(ys).tobytes()
    for y in ys:
        assert sliced.obj(y).entries.tobytes() == indexed.obj(y).entries.tobytes()
    holed = _MatrixSystem(NonNegMatrix([[0.4, 0.0, 0.2], [0.0, 0.3, 0.1]]))
    assert isinstance(holed.support, np.ndarray) and holed.support.tolist() == [0, 2, 4, 5]


# ---------------------------------------------------------------------------
# embedding equivalence


def test_frame_flow_matches_embedded_operator_flow():
    # the same RK4 steps on the frame system and on the operator system of
    # the embedded frame keep s, delta and the flowed objects together
    fr, _ = near_parseval_frame(3, 6, 0.05, 23)
    fsys, osys = _FrameSystem(fr), _OperatorSystem(frame_to_operator(fr))
    fy, oy = fsys.y0, osys.y0
    for step in range(2000):
        fy = _rk4(fsys, fy, fsys.f(fy), 0.02)
        oy = _rk4(osys, oy, osys.f(oy), 0.02)
        (fs, fdelta, _), (os_, odelta, _) = fsys.measures(fy), osys.measures(oy)
        assert abs(fs - os_) <= 1e-9 and abs(fdelta - odelta) <= 1e-9
        if step % 10 == 0:
            assert dist(frame_to_operator(fsys.obj(fy)), osys.obj(oy)) <= 1e-18


# ---------------------------------------------------------------------------
# capacity along the flow


def test_capacity_conserved_matrix_flow():
    a = _near_uniform_matrix(4, 4, 6)
    cap0 = matrix_capacity(a).value
    final, _ = matrix_flow(a)
    cap1 = matrix_capacity(final).value
    assert abs(cap1 - cap0) <= 1e-5 * cap0


def test_total_movement_bound():
    # coarse empirical form of the movement analysis on a near-balanced input
    u = frame_to_operator(near_parseval_frame(3, 8, 0.01, 3)[0])
    delta0 = delta_of(u)
    final, traj = operator_flow(u)
    assert dist(u, final) <= 100.0 * u.m * u.n * np.sqrt(delta0)
    assert traj.movement[-1] ** 2 <= 100.0 * u.m * u.n * np.sqrt(delta0)


# ---------------------------------------------------------------------------
# trajectory recording / export


def test_sample_thinning_keeps_endpoints():
    a = _near_uniform_matrix(3, 4, 30)
    _, dense = matrix_flow(a, opts=FlowOptions(max_samples=100_000))
    _, thin = matrix_flow(a, opts=FlowOptions(max_samples=64))
    assert len(thin.t) <= 65  # cap, plus the force-retained endpoint
    assert thin.t[0] == dense.t[0] == 0.0
    assert thin.t[-1] == dense.t[-1]
    assert np.all(np.diff(thin.t) > 0)


def test_thinned_recording_keeps_states_aligned_with_rows():
    # the flow of test_sample_thinning_keeps_endpoints: its rows are thinned
    a = _near_uniform_matrix(3, 4, 30)
    final, thin = matrix_flow(a, opts=FlowOptions(max_samples=64, record_states=True))
    assert len(thin) <= 65
    assert [st.t for st in thin.states] == thin.t.tolist()
    assert _final_bytes(thin.states[-1].obj) == _final_bytes(final)


def test_csv_layout_and_revalidation():
    fr, _ = near_parseval_frame(3, 7, 0.03, 10)
    _, traj = frame_flow(fr, opts=validation_options())
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert parsed.shape == (len(traj.t), 8)
    np.testing.assert_allclose(parsed[:, 0], traj.t, rtol=0, atol=0)

    results = validate_trace_csv(text)
    assert results and all(r.ok for r in results), [r.detail for r in results if not r.ok]


def _csv_row_by_row(traj):
    rows = np.column_stack([getattr(traj, name) for name in CSV_HEADER.split(",")]).tolist()
    return "\n".join([CSV_HEADER] + [",".join("%.17g" % v for v in r) for r in rows]) + "\n"


def test_csv_matches_row_by_row_formatting():
    # a recorded flow, thinned and not
    for opts in (validation_options(), FlowOptions(max_samples=64)):
        _, traj = matrix_flow(random_matrix(4, 6, 0), opts=opts)
        assert trajectory_csv(traj) == _csv_row_by_row(traj)
    # values at %g's notation switches, signed zero, the smallest subnormal
    # and non-finite values, in the columns that need not be monotone
    special = np.array([1e-4, 9.999999999999999e-05, 1e-5, 1e16, 1e17, 9.999999999999998e16,
                        -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.inf, -np.inf,
                        np.nan, -1e-4, 0.1])
    k = len(special)
    cols = {name: np.roll(special, j) for j, name in
            enumerate(("t", "ds_dt", "dDelta_dt", "movement", "logdetX", "logdetY"))}
    traj = Trajectory("matrix", 2, 2, s=np.linspace(2.0, 1.0, k), delta=np.geomspace(1.0, 1e-300, k),
                      status="t_max", transforms=(np.ones(2), np.ones(2)), steps=0,
                      rejected_err=0, rejected_delta=0, evals=0, **cols)
    text = trajectory_csv(traj)
    assert text == _csv_row_by_row(traj)
    assert "1e+17" in text and "1.0000000000000001e-05" in text and "-0," in text


def test_identity_errors_exact_on_quadratic_s():
    # delta linear and s quadratic in t with ds/dt = -2 delta: the
    # nonuniform-grid finite difference is exact on both, so the residuals
    # sit at roundoff (about eps |s| / min step, 1e-13), and an offset
    # injected into dDelta/dt comes back as the delta residual (delta < 1,
    # so the scale is 1)
    rng = np.random.default_rng(5)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.3, 40))])
    a, b = 0.9, 0.1
    delta = a - b * t
    s = 3.0 - 2.0 * (a * t - 0.5 * b * t * t)
    ddelta = np.full_like(t, -b)
    assert delta.min() > 0.0
    err_s, err_d = identity_errors(t, s, delta, ddelta)
    assert err_s <= 1e-12 and err_d <= 1e-12
    offset = 1e-3
    _, err_off = identity_errors(t, s, delta, ddelta + offset)
    assert abs(err_off - offset) <= 1e-12
    assert identity_errors(t[:2], s[:2], delta[:2], ddelta[:2]) == (0.0, 0.0)


def test_trace_revalidation_matches_identity_errors():
    # .17g round-trips float64, so the CSV check sees the trajectory's own
    # residuals; with fewer than three rows it reports no identity rows
    _, traj = matrix_flow(random_matrix(3, 4, 9), opts=validation_options())
    err_s, err_d = identity_errors(traj.t, traj.s, traj.delta, traj.dDelta_dt)
    details = {r.name: r.detail for r in validate_trace_csv(trajectory_csv(traj))}
    assert details["trace_s_identity"] == f"rel err {err_s:.3e}"
    assert details["trace_delta_identity"] == f"rel err {err_d:.3e}"
    two_rows = "\n".join(trajectory_csv(traj).split("\n")[:3]) + "\n"
    names = [r.name for r in validate_trace_csv(two_rows)]
    assert names == ["trace_schema", "trace_monotone"]


_STEERING_INPUTS = [
    (lambda: near_parseval_frame(3, 8, 0.05, 41)[0], frame_flow),
    (lambda: random_operator(4, 3, 5, 42), operator_flow),
    (lambda: random_matrix(3, 4, 43), matrix_flow),
]


def _final_bytes(obj):
    data = {"Frame": "vectors", "OperatorTuple": "mats", "NonNegMatrix": "entries"}
    return getattr(obj, data[type(obj).__name__]).tobytes()


@pytest.mark.parametrize("make, flow", _STEERING_INPUTS, ids=["frame", "operator", "matrix"])
def test_sampling_does_not_steer_integration(make, flow):
    obj = make()
    runs = [
        flow(obj, opts=opts)
        for opts in (
            FlowOptions(rel_delta_step=0.05),
            FlowOptions(rel_delta_step=0.0016),
            FlowOptions(max_samples=64),
            FlowOptions(max_samples=100_000),
        )
    ]
    final0, traj0 = runs[0]
    assert traj0.status == "converged" and traj0.steps > 0
    for final, traj in runs[1:]:
        assert _final_bytes(final) == _final_bytes(final0)
        assert (traj.steps, traj.rejected_err, traj.rejected_delta, traj.evals) == (
            traj0.steps, traj0.rejected_err, traj0.rejected_delta, traj0.evals)
        assert traj.t[-1] == traj0.t[-1]
    # a finer sample spacing records more rows from the same steps
    assert len(runs[1][1]) > len(runs[0][1])


@pytest.mark.parametrize("make, flow", _STEERING_INPUTS, ids=["frame", "operator", "matrix"])
def test_validation_samples_spaced_by_delta(make, flow):
    opts = validation_options()
    _, traj = flow(make(), opts=opts)
    assert traj.status == "converged"
    assert len(traj) < opts.max_samples  # no thinning: every sample is kept
    assert np.all(np.diff(traj.t) > 0.0)
    rel = np.abs(np.diff(traj.delta)) / traj.delta[:-1]
    assert rel.max() <= opts.rel_delta_step * (1.0 + 1e-9)
    # dense output fills in samples well beyond one per step
    assert len(traj) > 10 * traj.steps


def test_dense_sample_grid_refined_until_spaced():
    # One long step from an unbalanced matrix, over which delta decays at an
    # uneven rate.  The end-point decay rates are hidden from the grid
    # estimate, so only the refinement can bring the spacing within rel.
    system = _MatrixSystem(random_matrix(3, 4, 45))
    y = system.y0
    fy = system.f(y)
    s, delta_a, speed2 = system.measures(y)
    h = delta_a / (4.0 * speed2)
    y_half = _rk4(system, y, fy, 0.5 * h)
    f_half = system.f(y_half)
    y_two = _rk4(system, y_half, f_half, 0.5 * h)
    s_b, delta_b, _ = system.measures(y_two)
    rel = 0.01
    times, states, meas = _dense_samples(
        system, 0.0, h, (y, fy, y_half, f_half, y_two, system.f(y_two)),
        (s, delta_a, 0.0), (s_b, delta_b, 0.0), rel)
    estimate = math.ceil(math.log(delta_a / delta_b) / -math.log1p(-rel))
    assert len(times) + 1 > estimate
    times = np.concatenate([[0.0], times, [h]])
    assert np.all(np.diff(times) > 0.0)
    deltas = np.concatenate([[delta_a], meas[1], [delta_b]])
    assert np.max(np.abs(np.diff(deltas)) / deltas[:-1]) <= rel
    for state, *sample_meas in list(zip(states, *meas))[::10]:
        assert system.measures(state) == tuple(sample_meas)


def _measured_state_by_state(system_cls):
    """system_cls with its stacked measures and log-determinants taken one
    packed state at a time."""

    class PerState(system_cls):
        def measures_stack(self, ys):
            return np.array([self.measures(y) for y in ys]).T

        def logdets(self, ys):
            return np.array([system_cls.logdets(self, y) for y in ys]).T

    return PerState


@pytest.mark.parametrize("opts", [validation_options(), FlowOptions(), FlowOptions(max_samples=64)],
                         ids=["validation", "default", "thinned"])
@pytest.mark.parametrize("make, system_cls", [
    (_STEERING_INPUTS[0][0], _FrameSystem),
    (_STEERING_INPUTS[1][0], _OperatorSystem),
    (_STEERING_INPUTS[2][0], _MatrixSystem),
], ids=["frame", "operator", "matrix"])
def test_stacked_measures_match_state_by_state(make, system_cls, opts):
    obj = make()
    final, traj = _integrate(system_cls(obj), None, 1e6, opts)
    final_ref, ref = _integrate(_measured_state_by_state(system_cls)(obj), None, 1e6, opts)
    assert trajectory_csv(traj) == trajectory_csv(ref)
    assert (traj.status, traj.steps, traj.rejected_err, traj.rejected_delta, traj.evals) == (
        ref.status, ref.steps, ref.rejected_err, ref.rejected_delta, ref.evals)
    assert _final_bytes(final) == _final_bytes(final_ref)
    if opts.max_samples == 64:
        # the unthinned trace is over four times longer, so the stride
        # passed 1 and later steps took the unmeasured-grid path
        _, full = _integrate(system_cls(obj), None, 1e6, FlowOptions())
        assert len(traj) <= 65 and len(full) > 4 * 64


def _three_rk4_double_step(system, y, fy, h):
    """Reference for _double_step: the two half steps and the full step as
    three separate _rk4 calls, one state each."""
    y_half = _rk4(system, y, fy, 0.5 * h)
    f_half = system.f(y_half)
    y_two = _rk4(system, y_half, f_half, 0.5 * h)
    return y_half, f_half, y_two, _rk4(system, y, fy, h)


@pytest.mark.parametrize("opts", [validation_options(), FlowOptions(), FlowOptions(max_samples=64)],
                         ids=["validation", "default", "thinned"])
@pytest.mark.parametrize("make, system_cls", [
    (_STEERING_INPUTS[0][0], _FrameSystem),
    (_STEERING_INPUTS[1][0], _OperatorSystem),
    (_STEERING_INPUTS[2][0], _MatrixSystem),
], ids=["frame", "operator", "matrix"])
def test_double_step_matches_three_rk4_steps(make, system_cls, opts, monkeypatch):
    obj = make()
    final, traj = _integrate(system_cls(obj), None, 1e6, opts)
    monkeypatch.setattr(dynamics, "_double_step", _three_rk4_double_step)
    final_ref, ref = _integrate(system_cls(obj), None, 1e6, opts)
    same_csv = trajectory_csv(traj) == trajectory_csv(ref)  # no diff of ~15k-row strings
    assert same_csv
    assert (traj.status, traj.steps, traj.rejected_err, traj.rejected_delta, traj.evals) == (
        ref.status, ref.steps, ref.rejected_err, ref.rejected_delta, ref.evals)
    assert _final_bytes(final) == _final_bytes(final_ref)


@pytest.mark.parametrize("n", [12, 500])
def test_frame_drift_on_a_stack_matches_single_states(n):
    frames = [near_parseval_frame(3, n, 0.05, seed)[0].vectors for seed in range(5)]
    system = _FrameSystem(Frame(frames[0]))
    stacked = system.drift(np.stack(frames))
    for i, u in enumerate(frames):
        for single, rows in zip(system.drift(u), stacked):
            assert np.asarray(single).tobytes() == rows[i].tobytes()


def test_solve_basic_takes_eight_drift_calls_per_step_attempt(monkeypatch):
    calls = []
    drift = _FrameSystem.drift
    monkeypatch.setattr(_FrameSystem, "drift", lambda self, u: calls.append(1) or drift(self, u))
    _, report = solve_basic(near_parseval_frame(3, 12, 0.01, 17)[0])
    traj = report.traj
    attempts = traj.steps + traj.rejected_err + traj.rejected_delta
    assert traj.status == "converged" and traj.rejected_err + traj.rejected_delta > 0
    # one drift at the start, shared by its measures and derivative; then per
    # attempt three stacked evaluations for the first half step and the full
    # step beside it, one derivative and three evaluations for the second
    # half step, and, unless the error estimate rejects the attempt, the
    # end-of-step drift, shared by its measures and, on an accepted step, its
    # derivative
    assert len(calls) == 1 + 8 * attempts - traj.rejected_err
    # each state evaluated for a right-hand side counts once
    assert traj.evals == 1 + 10 * attempts + traj.steps


class _RoundoffFloor:
    """Stand-in flow system whose delta has reached its roundoff floor: it
    wobbles around a plateau instead of decreasing."""

    def __init__(self, budget):
        self.budget = budget

    def measures_stack(self, ys):
        self.budget -= len(ys)
        if self.budget < 0:
            raise RuntimeError("sample grid refined without end")
        return (np.ones(len(ys)), 1e-30 * (1.0 + 0.01 * np.sin(1e3 * ys[:, 0])),
                np.zeros(len(ys)))


def test_dense_sample_grid_kept_at_delta_floor():
    line = np.array([0.0]), np.array([1.0])
    ends = (line[0], line[1], 0.5 * line[1], line[1], line[1], line[1])
    system = _RoundoffFloor(budget=10_000)
    samples, _, _ = _dense_samples(system, 0.0, 1.0, ends, (1.0, 1.02e-30, 0.0),
                                   (1.0, 0.98e-30, 0.0), 1e-3)
    # the first grid (from the drop of log delta) is kept as it is
    assert len(samples) + 1 == math.ceil(math.log(1.02 / 0.98) / -math.log1p(-1e-3))


def test_sample_spacing_must_be_positive():
    nan, inf = float("nan"), float("inf")
    bad = [("rel_delta_step", v) for v in (0.0, -0.01, nan)]
    bad += [("step_err_tol", v) for v in (0.0, -1, nan, inf)]
    bad += [("max_samples", v) for v in (0, 1, -3, 2.5)]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            FlowOptions(**{name: value})
    FlowOptions(step_err_tol=1e-6, max_samples=2)


@pytest.mark.parametrize("make, flow", _STEERING_INPUTS, ids=["frame", "operator", "matrix"])
def test_endpoint_recording_keeps_first_and_final_rows(make, flow):
    obj = make()
    final_full, full = flow(obj)
    final_ends, ends = flow(obj, opts=FlowOptions(record_samples=False))
    assert len(full) > 2 and len(ends) == 2
    for col in CSV_HEADER.split(","):
        np.testing.assert_array_equal(getattr(ends, col), getattr(full, col)[[0, -1]])
    assert _final_bytes(final_ends) == _final_bytes(final_full)
    assert (ends.status, ends.steps, ends.rejected_err, ends.rejected_delta, ends.evals) == (
        full.status, full.steps, full.rejected_err, full.rejected_delta, full.evals)
    for side_ends, side_full in zip(ends.transforms, full.transforms):
        assert side_ends.shape == side_full.shape
        assert side_ends.tobytes() == side_full.tobytes()


class _SpikedFrameSystem(_FrameSystem):
    """Frame flow whose reported s jumps up on one measure, the end of the
    first step, and is exact everywhere else."""

    calls = 0

    def measures(self, y, drift=None):
        self.calls += 1
        s, delta, speed2 = super().measures(y, drift)
        return s + (0.01 if self.calls == 2 else 0.0), delta, speed2


def test_s_growth_on_an_accepted_step_raises_without_samples():
    fr, _ = near_parseval_frame(3, 8, 0.05, 41)
    opts = FlowOptions(record_samples=False)
    # the first attempted step is accepted, so the spike lands on its end
    _, traj = _integrate(_FrameSystem(fr), None, 1e6, opts)
    assert traj.steps > 1 and traj.rejected_err == traj.rejected_delta == 0
    # the spike is gone by the final point, so the two recorded rows alone
    # would not show it
    with pytest.raises(FlowError, match="s increased"):
        _integrate(_SpikedFrameSystem(fr), None, 1e6, opts)


def test_thinned_recording_measures_only_kept_samples(monkeypatch):
    calls = []   # states measured, one at a time or as a stack
    measures, measures_stack = _MatrixSystem.measures, _MatrixSystem.measures_stack
    monkeypatch.setattr(_MatrixSystem, "measures",
                        lambda self, y, drift=None: calls.append(1) or measures(self, y, drift))
    monkeypatch.setattr(_MatrixSystem, "measures_stack",
                        lambda self, ys: calls.append(len(ys)) or measures_stack(self, ys))
    a = _near_uniform_matrix(3, 4, 30)
    _, thin = matrix_flow(a, opts=FlowOptions(max_samples=64))
    thin_calls = sum(calls)
    _, dense = matrix_flow(a, opts=FlowOptions(max_samples=100_000))
    assert len(thin) <= 65 and len(dense) > 4 * len(thin)
    # every kept row and every step costs at most two measures; measuring
    # each sample before thinning it away took 492 here
    assert thin_calls <= 2 * (len(thin) + thin.steps)
    assert thin.rejected_err == thin.rejected_delta == 0


def test_t_max_reported():
    a = _near_uniform_matrix(3, 4, 44)
    _, traj = matrix_flow(a, target_delta=1e-30, t_max=0.5)
    assert traj.status == "t_max"
    assert traj.t[-1] == pytest.approx(0.5, abs=1e-9)


def _end_ratio(traj, target):
    """(delta/s^2 at the end) / (target/s0^2), which the collapse rule reads."""
    return (traj.delta[-1] / traj.s[-1] ** 2) / (target / traj.s[0] ** 2)


def test_zero_vector_frame_flow_collapses():
    # a zero vector gives the frame zero capacity: the flow reaches the
    # default target 1e-12 s0^2 only by shrinking s towards zero
    vectors = np.random.default_rng(0).standard_normal((6, 3))
    vectors[0] = 0.0
    _, traj = frame_flow(Frame(vectors), opts=FlowOptions(record_samples=False))
    assert traj.status == "collapsed"
    assert traj.delta[-1] <= 1e-12 * traj.s[0] ** 2
    assert _end_ratio(traj, 1e-12 * traj.s[0] ** 2) > 1e10


def test_tight_example_flow_collapses():
    # zero capacity: delta reaches a tenth of delta0 while delta/s^2 stays put
    a = tight_example(2).A
    target = 0.1 * delta_of(a)
    _, traj = matrix_flow(a, target_delta=target)
    assert traj.status == "collapsed"
    assert _end_ratio(traj, target) == pytest.approx(10.0, rel=1e-9)


# ---------------------------------------------------------------------------
# rate monitors


def _pseudorandom_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    entries = (1.0 + 0.25 * rng.uniform(-1.0, 1.0, (m, n))) / (m * n)
    a = NonNegMatrix(entries)
    alpha = 0.6 / (m * n)  # every entry clears this
    assert entries.min() >= alpha
    return a, alpha


def test_rate_monitor_strong_all_samples():
    a, alpha = _pseudorandom_instance(4, 8, 70)
    _, traj = matrix_flow(a, opts=FlowOptions(record_states=True))
    report = rate_monitor(traj, alpha, variant="strong")
    assert report.ok
    assert report.violations.size == 0
    assert np.all(report.precondition_held)
    # -dDelta/dt >= alpha m n Delta / 32000 with real margin, not rounding luck
    assert report.ratios.min() >= 1.0


def test_rate_monitor_weak_envelope():
    a, alpha = _pseudorandom_instance(6, 12, 71)
    _, traj = matrix_flow(a, opts=FlowOptions(record_states=True))
    report = rate_monitor(traj, alpha, variant="weak")
    assert report.ok
    envelope = traj.delta[0] * np.exp(-alpha * traj.n * traj.t / 8192000.0)
    assert np.all(traj.delta <= envelope * (1.0 + 1e-12))


def test_rate_monitor_balanced_input_trivial():
    a = NonNegMatrix(np.full((3, 3), 1.0 / 9.0))
    _, traj = matrix_flow(a, opts=FlowOptions(record_states=True))
    report = rate_monitor(traj, alpha=0.05, variant="strong")
    assert report.ok
