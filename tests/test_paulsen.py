"""End-to-end pipelines, the constrained perturbation, and rate certificates."""

import math

import numpy as np
import pytest

from frameflow import (
    Frame,
    NonNegMatrix,
    delta_of,
    dist,
    size_of,
)
from frameflow import paulsen
from frameflow._jacobi import jacobi_eigh
from frameflow.capacity import frame_capacity, frame_weight_minimizer, matrix_capacity
from frameflow.dynamics import FlowError, FlowOptions, matrix_flow
from frameflow.generate import harmonic_frame, near_parseval_frame, random_frame
from frameflow.paulsen import (
    PerturbationError,
    PerturbationNoise,
    capacity_from_rate,
    certify_pseudorandom,
    frame_to_matrix,
    perturb,
    perturbation_stats,
    solve_basic,
    solve_smoothed,
)


# ---------------------------------------------------------------------------
# basic pipeline


def test_basic_exact_input_is_fixed():
    fr = harmonic_frame(3, 9)
    v, report = solve_basic(fr)
    assert report.status == "flow"
    assert dist(fr, v) <= 1e-12


def test_basic_random_input():
    fr, eps = near_parseval_frame(3, 12, 0.01, 17)
    v, report = solve_basic(fr)
    assert report.status == "flow"
    gram_err = np.linalg.norm(v.gram() - np.eye(3))
    assert gram_err <= 1e-8
    assert np.abs(v.norms2() - 3.0 / 12.0).max() <= 1e-8
    assert report.dist == pytest.approx(dist(fr, v), rel=1e-12)
    assert report.dist <= 100.0 * 9 * 12 * eps


@pytest.mark.parametrize("seed", range(4))
def test_basic_endpoint_recording_gives_the_same_answer(seed, monkeypatch):
    fr, _ = near_parseval_frame(3, 12, 0.01, (seed, 0))
    v, report = solve_basic(fr)
    monkeypatch.setattr(paulsen, "SOLVE_FLOW_OPTIONS", FlowOptions())
    v_full, report_full = solve_basic(fr)
    assert v.vectors.tobytes() == v_full.vectors.tobytes()
    assert (report.dist, report.delta_final, report.status) == (
        report_full.dist, report_full.delta_final, report_full.status)
    traj, full = report.traj, report_full.traj
    assert len(traj) == 2 and len(full) > 2
    assert traj.t[-1] == full.t[-1]
    assert (traj.status, traj.steps, traj.evals) == (full.status, full.steps, full.evals)


def test_basic_degenerate_falls_back():
    vectors = np.zeros((6, 3))
    vectors[:, 0] = 1.0  # rank one: cannot be scaled to Parseval
    v, report = solve_basic(Frame(vectors))
    assert report.status == "fallback"
    assert report.traj is None
    assert delta_of(v) <= 1e-12
    assert abs(size_of(v) - v.d) <= 1e-12 * max(1.0, v.d)


def test_basic_error_names_flow_status():
    # three vectors on one line give zero capacity (3 d = 9 > n = 6) though
    # the vectors span R^3: the flow collapses and the rescale misses the bound
    vectors = np.random.default_rng(1).standard_normal((6, 3))
    vectors[1] = 2.0 * vectors[0]
    vectors[2] = -0.5 * vectors[0]
    with pytest.raises(FlowError, match="'collapsed'"):
        solve_basic(Frame(vectors))


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_zero_noise_is_renormalization():
    fr = harmonic_frame(3, 10)
    w, noise = perturb(fr, 0.0, 0)
    assert dist(fr, w) <= 1e-24
    assert noise.sigma2 == 0.0
    assert np.all(noise.z == 0.0)


def test_perturb_negative_sigma2_rejected():
    with pytest.raises(ValueError):
        perturb(harmonic_frame(2, 4), -1e-9, 0)


def test_perturb_zero_vector_rejected():
    vectors = np.ones((4, 2))
    vectors[1] = 0.0
    with pytest.raises(PerturbationError):
        perturb(Frame(vectors), 1e-6, 0)


def test_perturb_constraints_hold():
    d, n, sigma2 = 3, 40, 1e-5
    fr = harmonic_frame(d, n)
    u = fr.vectors
    for seed in range(10):
        w, noise = perturb(fr, sigma2, seed)
        # exact norms
        assert np.abs(w.norms2() - d / n).max() <= 1e-14
        # tangential: <u_j, y_j> = <u_j, z_j> = 0
        unorm = np.sqrt(d / n)
        zn = np.sqrt(np.einsum("nd,nd->n", noise.z, noise.z))
        inner_y = np.abs(np.einsum("nd,nd->n", u, noise.y)).max()
        inner_z = np.abs(np.einsum("nd,nd->n", u, noise.z))
        assert inner_y <= 1e-10
        assert np.all(inner_z <= 1e-10 * unorm * np.maximum(zn, 1e-30))
        # the outer-product constraint
        outer = np.einsum("nd,ne->de", u, noise.z)
        budget = (unorm * zn).sum()
        assert np.linalg.norm(outer) <= 1e-9 * max(budget, 1e-30)
        # pointwise movement bound from the projection geometry
        assert dist(fr, w) <= 4.0 * float(np.sum(noise.z**2)) + 1e-20


def test_perturbation_stats_of_radial_noise():
    # z_j = u_j is purely radial: the tangential violation is total, and on
    # a tight equal-norm frame sum_j u_j u_j^T = I gives |I|_F / d = 1/sqrt(d)
    d, n = 3, 8
    fr = harmonic_frame(d, n)
    zeros = np.zeros((n, d))
    noise = PerturbationNoise(0.0, zeros, zeros, fr.vectors.copy(), 0)
    stats = perturbation_stats(fr, fr, noise)
    assert abs(stats["max_inner_violation"] - 1.0) <= 1e-15
    assert abs(stats["outer_violation"] - 1.0 / math.sqrt(d)) <= 1e-15
    assert abs(stats["z_mass"] - d) <= 1e-14
    assert stats["dist"] == 0.0


def test_perturb_mean_movement():
    d, n, sigma2 = 3, 50, 1e-5
    fr = harmonic_frame(d, n)
    moved = [dist(fr, perturb(fr, sigma2, seed)[0]) for seed in range(60)]
    assert np.mean(moved) <= 2.2 * sigma2 * d * n


def test_perturb_shapes_recorded():
    fr = harmonic_frame(2, 6)
    _, noise = perturb(fr, 1e-4, 123)
    assert noise.x.shape == noise.y.shape == noise.z.shape == (6, 2)
    assert noise.seed == 123


# ---------------------------------------------------------------------------
# pseudorandom certification


def test_certify_all_entries_clear():
    b = NonNegMatrix(np.full((4, 8), 0.3))
    rep = certify_pseudorandom(b, alpha=0.2, beta=0.0)
    assert rep.holds
    assert rep.strong_holds
    assert rep.worst_row_deficit == 0
    assert rep.worst_column_max == pytest.approx(0.3)


def test_certify_dead_column_fails():
    ent = np.full((4, 8), 0.3)
    ent[:, 5] = 0.01
    rep = certify_pseudorandom(NonNegMatrix(ent), alpha=0.2, beta=0.5)
    assert not rep.holds
    assert rep.worst_column_max == pytest.approx(0.01)


def test_certify_row_deficit_census():
    ent = np.full((3, 10), 1.0)
    ent[1, :4] = 0.0  # row 1 has 4 of 10 entries below alpha
    rep = certify_pseudorandom(NonNegMatrix(ent), alpha=0.5, beta=0.3)
    assert rep.worst_row_deficit == 4
    assert not rep.holds  # 4 > beta*n = 3
    assert certify_pseudorandom(NonNegMatrix(ent), alpha=0.5, beta=0.4).holds


def test_certify_parameter_validation():
    b = NonNegMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        certify_pseudorandom(b, alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        certify_pseudorandom(b, alpha=0.1, beta=1.5)


def test_certify_perturbed_frames_statistically():
    # squared-coordinate matrices of perturbed frames clear (zeta*sigma2, 1e-9)
    # in at least 90% of trials at desk scale.  The base frame must be in
    # generic position: structured frames with coordinates that are exactly
    # zero sit on the measure-zero set the statement excludes.
    d, n, sigma2, zeta = 3, 200, 1e-10, 0.1
    fr, _ = near_parseval_frame(d, n, 0.0, 99)
    trials, passed = 50, 0
    for seed in range(trials):
        w, _ = perturb(fr, sigma2, (99, seed))
        rep = certify_pseudorandom(frame_to_matrix(w), alpha=zeta * sigma2, beta=1e-9)
        passed += int(rep.holds)
    assert passed >= 0.9 * trials


# ---------------------------------------------------------------------------
# smoothed pipeline


def test_smoothed_exact_input_zero_iterations():
    fr = harmonic_frame(3, 30)
    with pytest.warns(RuntimeWarning):
        v, trace = solve_smoothed(fr, seed=0)
    assert trace.records == []
    assert not trace.downgraded
    assert dist(fr, v) <= 1e-20


def test_smoothed_demo_run_invariants():
    fr, _ = near_parseval_frame(3, 120, 0.01, 5)
    with pytest.warns(RuntimeWarning):
        v, trace = solve_smoothed(fr, seed=5)
    assert not trace.downgraded
    assert len(trace.records) >= 3
    delta0 = trace.records[0]["delta_before"]
    for rec in trace.records:
        level = rec["l"]
        assert rec["delta_after"] <= delta0 / 2.0 ** (level + 1)
        assert rec["sigma2"] <= 1.0 / (1600.0 * 120)
        assert rec["retries"] <= 20
        # movement (squared distance) against the per-iteration scale
        assert rec["movement"] <= 100.0 * 3**1.5 * np.sqrt(rec["delta_before"])
    assert size_of(v) == pytest.approx(3.0, abs=1e-12)
    assert delta_of(v) <= 1e-10


@pytest.mark.parametrize("seed", [5, 9])
def test_smoothed_endpoint_recording_gives_the_same_answer(seed, monkeypatch):
    flows = []
    flow = paulsen.frame_flow

    def recorded_flow(*args, **kwargs):
        out = flow(*args, **kwargs)
        flows.append(out[1])
        return out

    monkeypatch.setattr(paulsen, "frame_flow", recorded_flow)
    fr, _ = near_parseval_frame(3, 60, 0.01, seed)
    with pytest.warns(RuntimeWarning):
        v, trace = solve_smoothed(fr, seed=seed)
    ends, flows[:] = flows[:], []
    monkeypatch.setattr(paulsen, "SOLVE_FLOW_OPTIONS", FlowOptions())
    with pytest.warns(RuntimeWarning):
        v_full, trace_full = solve_smoothed(fr, seed=seed)
    assert v.vectors.tobytes() == v_full.vectors.tobytes()
    assert dist(fr, v) == dist(fr, v_full)
    assert trace.records and trace.to_dict() == trace_full.to_dict()
    assert len(ends) == len(flows) == len(trace.records)
    for traj, full in zip(ends, flows):
        assert len(traj) == min(len(full), 2)
        assert traj.t[-1] == full.t[-1]
        assert (traj.status, traj.steps, traj.evals) == (full.status, full.steps, full.evals)


def test_smoothed_downgrades_unbalanced_input():
    vectors = harmonic_frame(3, 12).vectors.copy()
    vectors[0] *= 6.0
    fr = Frame(vectors)
    # the path preprocessing bound fails: delta exceeds d/16 after rescale
    s = size_of(fr)
    assert delta_of(Frame(vectors * np.sqrt(3.0 / s))) > 3.0 / 16.0
    with pytest.warns(RuntimeWarning):
        v, trace = solve_smoothed(fr, seed=2)
    assert trace.downgraded
    assert delta_of(v) <= 1e-12
    assert abs(size_of(v) - v.d) <= 1e-12 * max(1.0, v.d)


def test_smoothed_error_names_flow_status(monkeypatch):
    flow = paulsen.frame_flow

    def collapsing(*args, **kwargs):
        final, traj = flow(*args, **kwargs)
        traj.status = "collapsed"
        return final, traj

    monkeypatch.setattr(paulsen, "frame_flow", collapsing)
    fr, _ = near_parseval_frame(3, 60, 0.01, 9)
    with pytest.warns(RuntimeWarning), pytest.raises(FlowError, match="'collapsed'"):
        solve_smoothed(fr, seed=9)


def test_smoothed_trace_export():
    fr, _ = near_parseval_frame(3, 60, 0.01, 9)
    with pytest.warns(RuntimeWarning):
        _, trace = solve_smoothed(fr, seed=9)
    doc = trace.to_dict()
    assert doc["schema_version"] == "1"
    assert doc["seed"] == 9
    assert isinstance(doc["records"], list) and doc["records"]
    expected_keys = {
        "l", "sigma2", "retries", "perturb_dist", "delta_before",
        "delta_perturbed", "delta_after_flow", "delta_after", "flow_time",
        "rescale_factor", "capacity_lower", "movement",
    }
    assert set(doc["records"][0]) == expected_keys


# ---------------------------------------------------------------------------
# frame -> matrix and rate certificates


def test_frame_to_matrix_standard_pattern():
    vectors = np.vstack([np.eye(3), np.eye(3)]) / np.sqrt(2.0)
    b = frame_to_matrix(Frame(vectors))
    expected = np.hstack([np.eye(3), np.eye(3)]) * 0.5
    np.testing.assert_allclose(b.entries, expected, atol=1e-15)


def test_frame_to_matrix_column_sums_are_norms(rng):
    fr = random_frame(3, 8, 77)
    b = frame_to_matrix(fr)
    np.testing.assert_allclose(b.entries.sum(axis=0), fr.norms2(), rtol=1e-12)

    w, _ = perturb(harmonic_frame(3, 20), 1e-6, 3)
    bw = frame_to_matrix(w)
    np.testing.assert_allclose(bw.entries.sum(axis=0), 3.0 / 20.0, atol=1e-13)


def test_frame_to_matrix_rejects_skew_basis():
    fr = harmonic_frame(2, 4)
    with pytest.raises(ValueError):
        frame_to_matrix(fr, basis=np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_frame_to_matrix_capacity_dominated(rng):
    # the domination needs the compression basis: eigenvectors of
    # sum_l x_l w_l w_l^T at the minimizing diagonal weights.  An arbitrary
    # basis (standard included) can land above the frame capacity.
    for seed in range(10):
        fr, _ = near_parseval_frame(3, 7, 0.05, (5, seed))
        x = frame_weight_minimizer(fr)
        _, basis = jacobi_eigh((fr.vectors * x[:, None]).T @ fr.vectors)
        b = frame_to_matrix(fr, basis=basis)
        assert matrix_capacity(b).value <= frame_capacity(fr).value + 1e-5


def test_capacity_from_rate_balanced_input():
    a = NonNegMatrix(np.full((3, 3), 1.0 / 3.0))
    _, traj = matrix_flow(a)
    bound = capacity_from_rate(traj, mu=0.5)
    assert bound == pytest.approx(size_of(a), abs=1e-12)
    assert matrix_capacity(a).value >= bound - 1e-9


def test_capacity_from_rate_requires_decay():
    a = NonNegMatrix(np.full((2, 2), 0.5))
    _, traj = matrix_flow(NonNegMatrix(np.array([[0.4, 0.1], [0.2, 0.3]])))
    with pytest.raises(ValueError):
        capacity_from_rate(traj, mu=1e9)  # absurd rate: precondition fails
    with pytest.raises(ValueError):
        capacity_from_rate(traj, mu=0.0)


def test_capacity_from_rate_pseudorandom_instances():
    kappa = 1.0 / 8192000.0
    rng = np.random.default_rng(17)
    for _ in range(100):
        entries = (1.0 + 0.25 * rng.uniform(-1.0, 1.0, (4, 8))) / 32.0
        a = NonNegMatrix(entries)
        alpha = float(entries.min())
        _, traj = matrix_flow(a)
        bound = capacity_from_rate(traj, mu=alpha * 8 * kappa)
        assert bound <= matrix_capacity(a).value + 1e-9
