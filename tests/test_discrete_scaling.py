"""Alternating scaling algorithms: Sinkhorn and the operator/frame variants."""

import numpy as np
import pytest

from frameflow import (
    Frame,
    NonNegMatrix,
    OperatorTuple,
    delta_of,
    dist,
    frame_to_operator,
    size_of,
)
from frameflow import discrete_scaling
from frameflow._jacobi import sym_inv_sqrt
from frameflow.capacity import _logabsdet, matrix_capacity, tight_example
from frameflow.dynamics import FlowOptions, frame_flow
from frameflow.discrete_scaling import (
    ScalingError,
    frame_alternating,
    operator_sinkhorn,
    sinkhorn,
)
from frameflow.generate import (
    harmonic_frame,
    near_parseval_frame,
    random_frame,
    random_matrix,
    random_operator,
)


def test_sinkhorn_fixed_point():
    a = NonNegMatrix(np.full((3, 3), 2.0))
    b, (x, y), report = sinkhorn(a)
    assert report.iterations <= 1
    np.testing.assert_allclose(b.entries, a.entries, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x, np.ones(3), atol=1e-15)
    np.testing.assert_allclose(y, np.ones(3), atol=1e-15)


def test_sinkhorn_diagonal_hand_iteration():
    # one row pass sends diag(2,8) to diag(5,5); the column pass is then a no-op
    b, _, report = sinkhorn(NonNegMatrix(np.diag([2.0, 8.0])))
    np.testing.assert_allclose(b.entries, np.diag([5.0, 5.0]), atol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert delta_of(b) <= 1e-24


def test_sinkhorn_zero_row_rejected():
    bad = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ScalingError, match="zero row"):
        sinkhorn(NonNegMatrix(bad))


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
    b, (x, y), report = sinkhorn(a)
    assert report.converged
    # B = X A Y with the accumulated diagonal transforms, held as vectors
    assert x.shape == (4,) and y.shape == (6,)
    np.testing.assert_allclose(
        np.diag(x) @ a.entries @ np.diag(y), b.entries, rtol=1e-10, atol=1e-13
    )
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
    _, (x, y), _ = sinkhorn(a)
    assert _logabsdet(x) == pytest.approx(np.linalg.slogdet(np.diag(x))[1], abs=1e-9)
    assert _logabsdet(y) == pytest.approx(np.linalg.slogdet(np.diag(y))[1], abs=1e-9)


def _sinkhorn_reference(a, tol, max_iters):
    """Sinkhorn as first written: every iterate is copied into a validated
    NonNegMatrix and its delta taken by delta_of."""
    mat = a.entries.copy()
    m, n = mat.shape
    x, y = np.ones(m), np.ones(n)
    delta = delta_of(NonNegMatrix(mat))
    iterations = 0
    while delta > tol and iterations < max_iters:
        s = mat.sum()
        row_scale = (s / m) / mat.sum(axis=1)
        mat *= row_scale[:, None]
        x *= row_scale
        s = mat.sum()
        col_scale = (s / n) / mat.sum(axis=0)
        mat *= col_scale[None, :]
        y *= col_scale
        iterations += 1
        delta = delta_of(NonNegMatrix(mat))
    return mat, x, y, iterations, delta


def test_sinkhorn_matches_reference_loop_bit_for_bit():
    # criterion-04 draws, a third of them with entries zeroed; the draws
    # whose supports lack total support run to the 2000-iteration cap
    rng = np.random.default_rng(404)
    zeroed = capped = 0
    for _ in range(150):
        m, n = rng.integers(1, 7, 2)
        ent = rng.uniform(0.0, 1.0, (m, n)) ** 2
        if rng.random() < 0.3:
            ent *= rng.random((m, n)) < 0.8
        if not (ent.sum(axis=1).all() and ent.sum(axis=0).all()):
            continue
        a = NonNegMatrix(ent)
        tol = 1e-12 * size_of(a) ** 2
        with np.errstate(over="ignore"):    # the transforms of capped draws overflow
            b, (x, y), report = sinkhorn(a, tol, 2000)
            ref_b, ref_x, ref_y, ref_iterations, ref_delta = _sinkhorn_reference(a, tol, 2000)
        assert b.entries.tobytes() == ref_b.tobytes()
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
        assert (report.iterations, report.final_delta) == (ref_iterations, ref_delta)
        zeroed += bool((ent == 0.0).any())
        capped += report.iterations == 2000
    assert zeroed >= 5 and capped >= 1


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_sinkhorn_stopped_at_the_cap_reports_the_whole_delta(max_iters):
    # at tol 0 the row half alone exceeds tol, so the loop never takes the
    # column half until it stops at the cap
    rng = np.random.default_rng(max_iters)
    for _ in range(20):
        a = NonNegMatrix(rng.uniform(0.05, 1.0, tuple(rng.integers(1, 7, 2))))
        b, (x, y), report = sinkhorn(a, 0.0, max_iters)
        ref_b, ref_x, ref_y, ref_iterations, ref_delta = _sinkhorn_reference(a, 0.0, max_iters)
        assert b.entries.tobytes() == ref_b.tobytes()
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
        assert (report.iterations, report.final_delta) == (ref_iterations, ref_delta)
        assert report.final_delta == delta_of(b)


def test_sinkhorn_raises_on_non_finite_iterate():
    # the second row sums to 5e-324, so its scale 1/5e-324 overflows and the
    # first row pass writes inf and 0 * inf = NaN into the matrix
    a = NonNegMatrix([[1.0, 1.0], [5e-324, 0.0]])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="entries must be finite"):
        sinkhorn(a)


def test_overflowing_delta_is_not_converged():
    # delta overflows to inf, as does matrix_capacity's tol * s^2, and inf <= inf
    a = NonNegMatrix([[1e300, 1e-300, 0.0], [0.0, 1e-300, 1e300], [1.0, 0.0, 1e-300]])
    _, _, report = sinkhorn(a, np.inf)
    assert report.final_delta == np.inf and not report.converged
    assert report.stop == "non-finite"


def _c04_draw(seed, index):
    """Draw `index` (0-based) of the criterion-04 generator under `seed`."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        m, n = rng.integers(1, 7, 2)
        ent = rng.uniform(0.0, 1.0, (m, n)) ** 2
        if rng.random() < 0.3:
            ent *= rng.random((m, n)) < 0.8
    return NonNegMatrix(ent)


def test_sinkhorn_overflowing_transforms_stop_non_finite():
    # a 4x2 draw with capacity zero and no zero line: its iterate stays
    # finite, but x overflows to inf and underflows to 0, and y falls
    # to 5e-324
    a = _c04_draw(404, 129)
    assert a.entries.shape == (4, 2)
    _, (x, y), report = sinkhorn(a, 1e-12 * size_of(a) ** 2, 2000)
    assert np.isinf(x).any() and (x == 0.0).any() and y.min() == 5e-324
    assert (report.iterations, report.converged, report.stop) == (2000, False, "non-finite")


def test_scaling_loops_say_why_they_stopped():
    # a draw of the sinkhorn-capped answer group (positive capacity, no
    # total support) runs to its cap with finite transforms
    a = _c04_draw(20260822, 5)
    _, (x, y), report = sinkhorn(a, 1e-12 * size_of(a) ** 2, 5000)
    assert np.isfinite(x).all() and x.all() and np.isfinite(y).all() and y.all()
    assert (report.iterations, report.converged, report.stop) == (5000, False, "max_iters")
    u = random_operator(2, 3, 4, 5)
    f = random_frame(3, 8, 5)
    for run in (lambda: sinkhorn(random_matrix(4, 6, 11)), lambda: operator_sinkhorn(u),
                lambda: frame_alternating(f)):
        assert run()[2].stop == "converged"
    assert operator_sinkhorn(u, 0.0, 3)[2].stop == "max_iters"
    assert frame_alternating(f, 0.0, 3)[2].stop == "max_iters"


# ---------------------------------------------------------------------------
# operator scaling


def test_operator_sinkhorn_fixed_point():
    u = frame_to_operator(harmonic_frame(3, 6))
    v, (left, _), report = operator_sinkhorn(u)
    assert report.iterations <= 1
    assert dist(u, v) <= 1e-20
    np.testing.assert_allclose(left, np.eye(3), atol=1e-10)


def test_operator_sinkhorn_converges_with_diagonal_right(rng):
    fr = random_frame(3, 9, 21)
    v, (_, right), report = operator_sinkhorn(frame_to_operator(fr), tol=1e-18)
    assert report.converged
    assert delta_of(v) <= 1e-18
    # the embedding keeps the right transform exactly diagonal at every
    # step, though the operator routine returns it as a matrix
    assert right.shape == (9, 9)
    off = right - np.diag(np.diag(right))
    assert np.abs(off).max() == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_operator_matches_frame_alternating(seed):
    # cross-implementation oracle: the embedded operator iteration and the
    # frame iteration are the same algorithm
    fr, _ = near_parseval_frame(3, 8, 0.05, seed)
    g, _, _ = frame_alternating(fr, tol=1e-16)
    v, _, _ = operator_sinkhorn(frame_to_operator(fr), tol=1e-16)
    assert dist(frame_to_operator(g), v) <= 1e-10


def _operator_sinkhorn_reference(u, tol, max_iters):
    """Operator Sinkhorn as first written: every iterate is copied into a
    validated OperatorTuple and its delta taken by delta_of."""
    mats = u.mats.copy()
    m, n = u.m, u.n
    left, right = np.eye(m), np.eye(n)
    rescale = np.sqrt(m / n)
    delta = delta_of(OperatorTuple(mats))
    iterations = 0
    while delta > tol and iterations < max_iters:
        li = sym_inv_sqrt(np.einsum("kmn,kln->ml", mats, mats))
        mats = np.matmul(li, mats)
        left = li @ left
        ri = sym_inv_sqrt(np.einsum("kmi,kmj->ij", mats, mats))
        mats = rescale * np.matmul(mats, ri)
        right = right @ (rescale * ri)
        iterations += 1
        delta = delta_of(OperatorTuple(mats))
    return mats, left, right, iterations, delta


def _frame_alternating_reference(f, tol, max_iters):
    """The frame iteration as first written: every iterate is copied into a
    validated Frame and its delta taken by delta_of."""
    vecs = f.vectors.copy()
    left, yscale = np.eye(f.d), np.ones(f.n)
    target_norm = np.sqrt(f.d / f.n)
    delta = delta_of(Frame(vecs))
    iterations = 0
    while delta > tol and iterations < max_iters:
        si = sym_inv_sqrt(vecs.T @ vecs)
        vecs = vecs @ si
        left = si @ left
        step_scale = target_norm / np.sqrt(np.einsum("nd,nd->n", vecs, vecs))
        vecs = vecs * step_scale[:, None]
        yscale *= step_scale
        iterations += 1
        delta = delta_of(Frame(vecs))
    return vecs, left, yscale, iterations, delta


# (tol as a multiple of s^2, max_iters): converged runs, and runs stopped at
# the cap before the whole delta of their last iterate was needed
_REFERENCE_SETTINGS = [(1e-12, 100_000), (1e-24, 100_000), (1e-30, 40),
                       (0.0, 1), (0.0, 2), (0.0, 3)]


@pytest.mark.parametrize("rel_tol, max_iters", _REFERENCE_SETTINGS)
def test_operator_sinkhorn_matches_reference_loop_bit_for_bit(rel_tol, max_iters):
    # Gaussian tuples with k >= 2 and m, n in 2..4, whose capacity is positive
    draws = [random_operator(k, m, n, (17, k, m, n))
             for k in (2, 3, 5) for m in (2, 4) for n in (2, 3, 4)]
    draws += [frame_to_operator(random_frame(3, n, (17, n))) for n in (4, 7, 10)]
    capped = 0
    for u in draws:
        tol = rel_tol * size_of(u) ** 2
        try:
            ref = _operator_sinkhorn_reference(u, tol, max_iters)
        except np.linalg.LinAlgError:
            with pytest.raises(ScalingError):
                operator_sinkhorn(u, tol, max_iters)
            continue
        v, (left, right), report = operator_sinkhorn(u, tol, max_iters)
        ref_mats, ref_left, ref_right, ref_iterations, ref_delta = ref
        assert v.mats.tobytes() == ref_mats.tobytes()
        assert left.tobytes() == ref_left.tobytes() and right.tobytes() == ref_right.tobytes()
        assert (report.iterations, report.final_delta) == (ref_iterations, ref_delta)
        assert report.converged or max_iters < 100_000
        capped += report.iterations == max_iters
    assert max_iters == 100_000 or capped >= len(draws) - 2


@pytest.mark.parametrize("rel_tol, max_iters", _REFERENCE_SETTINGS)
def test_frame_alternating_matches_reference_loop_bit_for_bit(rel_tol, max_iters):
    draws = [random_frame(d, n, (23, d, n)) for d in (2, 3, 4) for n in (5, 8, 12)]
    draws += [near_parseval_frame(3, 12, 0.01, (23, i))[0] for i in range(8)]
    capped = 0
    for f in draws:
        tol = rel_tol * size_of(f) ** 2
        g, (left, yscale), report = frame_alternating(f, tol, max_iters)
        ref_vecs, ref_left, ref_yscale, ref_iterations, ref_delta = (
            _frame_alternating_reference(f, tol, max_iters))
        assert g.vectors.tobytes() == ref_vecs.tobytes()
        assert left.tobytes() == ref_left.tobytes() and yscale.tobytes() == ref_yscale.tobytes()
        assert (report.iterations, report.final_delta) == (ref_iterations, ref_delta)
        assert report.converged or max_iters < 100_000
        capped += report.iterations == max_iters
    assert max_iters == 100_000 or capped >= len(draws) - 2


def test_non_finite_iterates_still_raise(monkeypatch):
    # a step that writes NaN into the iterate (here a stubbed inverse square
    # root) raises the message the validated per-iterate copy used to raise
    monkeypatch.setattr(discrete_scaling, "sym_inv_sqrt", lambda g: np.full(g.shape, np.nan))
    with pytest.raises(ValueError, match="mats must be finite"):
        operator_sinkhorn(random_operator(3, 2, 4, 5))
    with pytest.raises(ValueError, match="vectors must be finite"):
        frame_alternating(random_frame(3, 7, 5))


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


def test_frame_flow_right_transform_is_a_vector():
    fr, _ = near_parseval_frame(3, 500, 0.01, 3)
    _, traj = frame_flow(fr, opts=FlowOptions(record_samples=False))
    left, right = traj.transforms
    assert right.shape == (500,) and left.shape == (3, 3)
    # log|det|: log|diag| summed on the diagonal side, slogdet on the other,
    # the same as slogdet of the full diagonal matrix
    assert _logabsdet(right) == float(np.sum(np.log(np.abs(right))))
    assert _logabsdet(right) == pytest.approx(np.linalg.slogdet(np.diag(right))[1], abs=1e-9)
    assert _logabsdet(left) == float(np.linalg.slogdet(left)[1])


def test_sinkhorn_transforms_are_vectors():
    a = random_matrix(4, 6, 11)
    _, (x, y), _ = sinkhorn(a)
    assert x.shape == (4,) and y.shape == (6,)
    assert _logabsdet(x) == float(np.sum(np.log(x)))
