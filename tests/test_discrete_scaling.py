"""Alternating scaling algorithms: Sinkhorn and the operator/frame variants."""

import numpy as np
import pytest

from frameflow import (
    Frame,
    NonNegMatrix,
    delta_of,
    dist,
    frame_to_operator,
    size_of,
)
from frameflow.capacity import matrix_capacity, tight_example
from frameflow.dynamics import FlowOptions, frame_flow
from frameflow.discrete_scaling import (
    ScalingError,
    frame_alternating,
    operator_sinkhorn,
    sinkhorn,
)
from frameflow.generate import harmonic_frame, near_parseval_frame, random_frame, random_matrix


def test_sinkhorn_fixed_point():
    a = NonNegMatrix(np.full((3, 3), 2.0))
    b, pair, report = sinkhorn(a)
    assert report.iterations <= 1
    np.testing.assert_allclose(b.entries, a.entries, rtol=0, atol=1e-15)
    np.testing.assert_allclose(pair.left, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(pair.right, np.eye(3), atol=1e-15)


def test_sinkhorn_diagonal_hand_iteration():
    # one row pass sends diag(2,8) to diag(5,5); the column pass is then a no-op
    b, pair, report = sinkhorn(NonNegMatrix(np.diag([2.0, 8.0])))
    np.testing.assert_allclose(b.entries, np.diag([5.0, 5.0]), atol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert delta_of(b) <= 1e-24


def test_sinkhorn_zero_column_rejected():
    bad = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ScalingError):
        sinkhorn(NonNegMatrix(bad))


def test_sinkhorn_zero_capacity_never_converges():
    # block support with no perfect matching after squaring: delta stalls
    a = tight_example(2).A
    b, _, report = sinkhorn(a, tol=1e-12, max_iters=400)
    assert not report.converged
    assert report.final_delta > 0.0
    assert report.iterations == 400
    # the infimum the iteration chases is 0
    assert matrix_capacity(a).value == 0.0


def test_sinkhorn_reconstruction_and_size(rng):
    a = random_matrix(4, 6, 11)
    s0 = size_of(a)
    b, pair, report = sinkhorn(a)
    assert report.converged
    # B = X A Y with the accumulated diagonal transforms
    np.testing.assert_allclose(
        pair.left @ a.entries @ pair.right, b.entries, rtol=1e-10, atol=1e-13
    )
    assert pair.left_diagonal and pair.right_diagonal
    assert size_of(b) == pytest.approx(s0, rel=1e-9)
    assert delta_of(b) <= 1e-12


def test_sinkhorn_marginal_normalization(rng):
    # after a converged run both marginals sit at their common values
    a = random_matrix(5, 3, 2)
    b, _, _ = sinkhorn(a, tol=1e-20)
    s = size_of(b)
    np.testing.assert_allclose(b.entries.sum(axis=1), s / 5, rtol=1e-10)
    np.testing.assert_allclose(b.entries.sum(axis=0), s / 3, rtol=1e-10)


def test_sinkhorn_logdets_match_transforms():
    a = random_matrix(3, 4, 7)
    _, pair, _ = sinkhorn(a)
    assert pair.left_logdet == pytest.approx(
        np.linalg.slogdet(pair.left)[1], abs=1e-9
    )
    assert pair.right_logdet == pytest.approx(
        np.linalg.slogdet(pair.right)[1], abs=1e-9
    )


# ---------------------------------------------------------------------------
# operator scaling


def test_operator_sinkhorn_fixed_point():
    u = frame_to_operator(harmonic_frame(3, 6))
    v, pair, report = operator_sinkhorn(u)
    assert report.iterations <= 1
    assert dist(u, v) <= 1e-20
    np.testing.assert_allclose(pair.left, np.eye(3), atol=1e-10)


def test_operator_sinkhorn_converges_with_diagonal_right(rng):
    fr = random_frame(3, 9, 21)
    v, pair, report = operator_sinkhorn(frame_to_operator(fr), tol=1e-18)
    assert report.converged
    assert delta_of(v) <= 1e-18
    # the embedding keeps the right transform diagonal at every step
    assert pair.right_diagonal
    off = pair.right - np.diag(np.diag(pair.right))
    assert np.abs(off).max() == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_operator_matches_frame_alternating(seed):
    # cross-implementation oracle: the embedded operator iteration and the
    # frame iteration are the same algorithm
    fr, _ = near_parseval_frame(3, 8, 0.05, seed)
    g, _, _ = frame_alternating(fr, tol=1e-16)
    v, _, _ = operator_sinkhorn(frame_to_operator(fr), tol=1e-16)
    assert dist(frame_to_operator(g), v) <= 1e-10


def test_operator_sinkhorn_singular_gram_raises():
    # all vectors in a proper subspace: left gram is singular
    vectors = np.zeros((4, 3))
    vectors[:, 0] = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ScalingError):
        operator_sinkhorn(frame_to_operator(Frame(vectors)))


# ---------------------------------------------------------------------------
# frame alternating


def test_frame_alternating_fixed_points():
    fr = harmonic_frame(3, 7)
    g, _, report = frame_alternating(fr)
    assert report.iterations <= 1
    assert dist(fr, g) <= 1e-20

    # orthonormal basis duplicated and rescaled is already equal-norm Parseval
    dup = Frame(np.vstack([np.eye(3), np.eye(3)]) / np.sqrt(2.0))
    g, _, report = frame_alternating(dup)
    assert dist(dup, g) <= 1e-20


def test_frame_alternating_monotone_convergence():
    fr, _ = near_parseval_frame(3, 10, 0.01, 4)
    deltas = [delta_of(fr)]
    cur = fr
    for _ in range(30):
        cur, _, rep = frame_alternating(cur, tol=0.0, max_iters=1)
        deltas.append(delta_of(cur))
        if deltas[-1] < 1e-24:
            break
    drops = np.diff(deltas)
    assert (drops <= 1e-18).all()
    assert deltas[-1] <= 1e-16


def test_frame_alternating_zero_vector_rejected():
    vectors = np.ones((4, 2))
    vectors[2] = 0.0
    with pytest.raises(ScalingError):
        frame_alternating(Frame(vectors))


def test_frame_alternating_output_normalized(rng):
    fr = random_frame(4, 9, 31)
    g, _, report = frame_alternating(fr, tol=1e-18)
    assert report.converged
    assert size_of(g) == pytest.approx(4.0, abs=1e-10)
    np.testing.assert_allclose(g.norms2(), 4.0 / 9.0, atol=1e-9)


# ---------------------------------------------------------------------------
# storage of the accumulated transforms


def test_frame_flow_scaling_pair_stores_right_side_as_vector():
    fr, _ = near_parseval_frame(3, 500, 0.01, 3)
    _, traj = frame_flow(fr, opts=FlowOptions(record_samples=False))
    pair = traj.scaling
    assert pair.right_diagonal and not pair.left_diagonal
    assert pair.right_stored.shape == (500,) and pair.left_stored.shape == (3, 3)
    right = pair.right
    assert right.shape == (500, 500) and not right.flags.writeable
    np.testing.assert_array_equal(right, np.diag(pair.right_stored))
    with pytest.raises(ValueError):
        right[0, 1] = 1.0
    assert not pair.right_stored.flags.writeable
    # log|det| by the dense formulas: log|diag| summed on the diagonal
    # side, slogdet on the other
    assert pair.right_logdet == float(np.sum(np.log(np.abs(np.diag(right)))))
    assert pair.left_logdet == float(np.linalg.slogdet(pair.left)[1])


def test_sinkhorn_scaling_pair_stores_vectors():
    a = random_matrix(4, 6, 11)
    _, pair, _ = sinkhorn(a)
    assert pair.left_stored.shape == (4,) and pair.right_stored.shape == (6,)
    np.testing.assert_array_equal(pair.left, np.diag(pair.left_stored))
    assert pair.left_logdet == float(np.sum(np.log(pair.left_stored)))
