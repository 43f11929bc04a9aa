"""Capacity computation, bounds, reductions, and the zero-capacity certificate."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameflow import (
    Frame,
    NonNegMatrix,
    OperatorTuple,
    capacity,
    delta_of,
    frame_to_operator,
    size_of,
)
from frameflow.capacity import (
    GRAD_TOL,
    NEWTON_MAX_ITERS,
    CapacityError,
    CapacityResult,
    _embedded_frame,
    _frame_objective,
    _matrix_objective,
    _newton,
    capacity_bounds,
    capacity_zero_check,
    frame_capacity,
    frame_weight_minimizer,
    matrix_capacity,
    matrix_capacity_convex,
    operator_capacity,
    reduce_operator_to_matrix,
    tensor_square,
    tight_example,
)
from frameflow.discrete_scaling import IterationReport, operator_sinkhorn
from frameflow.dynamics import frame_flow
from frameflow.generate import (
    harmonic_frame,
    near_parseval_frame,
    random_frame,
    random_matrix,
    random_operator,
)


def _permanent_positive_bruteforce(support):
    n = support.shape[0]
    return any(
        all(support[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


# ---------------------------------------------------------------------------
# matrix capacity point values


def test_capacity_uniform_square():
    for n in (2, 3, 5):
        a = NonNegMatrix(np.full((n, n), 1.0 / n))
        res = matrix_capacity(a)
        assert res.value == pytest.approx(float(n), rel=1e-9)
        assert res.method == "scaling-based"


def test_capacity_diagonal_closed_form():
    res = matrix_capacity(NonNegMatrix(np.diag([2.0, 8.0])))
    assert res.value == pytest.approx(8.0, rel=1e-9)
    assert matrix_capacity_convex(NonNegMatrix(np.diag([2.0, 8.0]))).value == pytest.approx(
        8.0, rel=1e-6
    )


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5))
@settings(max_examples=30)
def test_capacity_diagonal_random(diag):
    n = len(diag)
    expected = n * float(np.prod(diag)) ** (1.0 / n)
    a = NonNegMatrix(np.diag(diag))
    assert matrix_capacity(a).value == pytest.approx(expected, rel=1e-6)
    assert matrix_capacity_convex(a).value == pytest.approx(expected, rel=1e-6)


def test_capacity_zero_with_certificate():
    res = matrix_capacity(NonNegMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert res.value == 0.0
    assert res.method == "zero-detected"
    cert = res.certificate
    assert cert is not None
    # the named submatrix is identically zero and oversized (here: the zero
    # column joined with both rows, or the zero row with both columns)
    assert len(cert["rows"]) + len(cert["cols"]) > 2
    assert 1 in cert["cols"] or 1 in cert["rows"]


def test_dual_routes_agree(rng):
    for _ in range(25):
        a = NonNegMatrix(rng.random((4, 4)) + 0.05)
        v1 = matrix_capacity(a).value
        v2 = matrix_capacity_convex(a).value
        assert abs(v1 - v2) <= 1e-4 * max(v1, v2)


def test_capacity_at_most_size(rng):
    for _ in range(30):
        m, n = rng.integers(2, 6, size=2)
        a = random_matrix(int(m), int(n), int(rng.integers(2**31)))
        s = size_of(a)
        assert matrix_capacity(a).value <= s + 1e-9 * s


def test_capacity_bracket_and_result_bounds(rng):
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(2, 7, size=2))
        a = random_matrix(m, n, int(rng.integers(2**31)))
        s, delta = size_of(a), delta_of(a)
        lo = max(0.0, s - m * n * np.sqrt(delta / 2.0))
        res = matrix_capacity(a)
        assert lo - 1e-9 <= res.value <= s + 1e-9
        assert res.lower is not None and res.upper is not None
        assert res.lower - 1e-12 <= res.value <= res.upper + 1e-12


def test_scaling_covariance(rng):
    a = random_matrix(3, 4, 77)
    x = rng.uniform(0.5, 2.0, 3)
    y = rng.uniform(0.5, 2.0, 4)
    scaled = NonNegMatrix(x[:, None] * a.entries * y[None, :])
    factor = float(np.prod(x)) ** (1 / 3) * float(np.prod(y)) ** (1 / 4)
    assert matrix_capacity(scaled).value == pytest.approx(
        factor * matrix_capacity(a).value, rel=1e-5
    )


# ---------------------------------------------------------------------------
# zero detection


def test_zero_check_identity_support():
    assert capacity_zero_check(NonNegMatrix(np.eye(4))) is None


def test_zero_check_zero_column():
    a = np.ones((3, 3))
    a[:, 1] = 0.0
    cert = capacity_zero_check(NonNegMatrix(a))
    assert cert is not None
    assert 1 in cert["cols"] or len(cert["rows"]) + len(cert["cols"]) > 3


def test_zero_check_certificate_is_valid(rng):
    # whenever a certificate comes back, it must name an all-zero submatrix
    # with |rows| + |cols| exceeding the side length
    hits = 0
    for _ in range(300):
        support = rng.random((4, 4)) < 0.4
        a = NonNegMatrix(support.astype(float))
        cert = capacity_zero_check(a)
        if cert is None:
            assert _permanent_positive_bruteforce(support)
        else:
            hits += 1
            rows, cols = cert["rows"], cert["cols"]
            assert len(rows) + len(cols) > 4
            assert not _permanent_positive_bruteforce(support)
            sub = a.entries[np.ix_(rows, cols)]
            assert np.all(sub == 0.0)
    assert hits > 10  # density 0.4 produces plenty of matchless supports


def test_zero_check_exhaustive_3x3():
    for bits in range(2**9):
        support = np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        if not support.any():
            continue
        got = capacity_zero_check(NonNegMatrix(support.astype(float))) is None
        assert got == _permanent_positive_bruteforce(support)


def _alternating_witness(support):
    """The Hall witness found by hand: a maximum matching by Kuhn's augmenting
    paths, then the rows reachable from its free rows by alternating paths,
    and the columns outside their neighbourhood.  None for a perfect matching.
    The row set is the same for every maximum matching (Dulmage-Mendelsohn)."""
    n = support.shape[0]
    adj = [np.flatnonzero(row).tolist() for row in support]
    match_r = [-1] * n

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    for u in range(n):
        augment(u, set())
    reached = set(range(n)) - set(match_r)
    if not reached:
        return None
    stack = list(reached)
    while stack:
        for v in adj[stack.pop()]:
            if match_r[v] not in reached:
                reached.add(match_r[v])
                stack.append(match_r[v])
    near = {v for u in reached for v in adj[u]}
    return {"rows": sorted(reached), "cols": [v for v in range(n) if v not in near]}


def test_zero_check_matches_hopcroft_karp_across_sizes(rng):
    # squares of several sides against the Kuhn search written out above;
    # one forced entry per row and column rules out the empty-line
    # certificates, so every draw runs the matching, and densities below
    # log(n)/n give both outcomes
    for n in (5, 20, 63, 64):
        outcomes = set()
        for _ in range(40):
            support = rng.random((n, n)) < rng.uniform(0.0, 1.0) * np.log(n + 1) / n
            support[np.arange(n), rng.integers(0, n, n)] = True
            support[rng.integers(0, n, n), np.arange(n)] = True
            want = _alternating_witness(support)
            cert = capacity_zero_check(NonNegMatrix(support.astype(float)))
            assert cert == want
            if cert is not None:
                assert len(cert["rows"]) + len(cert["cols"]) > n
                assert not support[np.ix_(cert["rows"], cert["cols"])].any()
            outcomes.add(want is None)
        assert outcomes == {True, False}


def _no_lift(a):
    raise AssertionError("the zero check built a lift")


def _lifted_witness(a):
    """The witness of the materialised lift, found without the zero check:
    the first empty row with every column, else the first empty column with
    every row, else the alternating witness found by hand."""
    support = tensor_square(a).entries > 0.0
    side = support.shape[0]
    empty_rows = np.flatnonzero(~support.any(axis=1)).tolist()
    if empty_rows:
        return {"rows": empty_rows[:1], "cols": list(range(side))}
    empty_cols = np.flatnonzero(~support.any(axis=0)).tolist()
    if empty_cols:
        return {"rows": list(range(side)), "cols": empty_cols[:1]}
    return _alternating_witness(support)


@pytest.mark.parametrize("shape", [(7, 10), (9, 11), (19, 21), (18, 24), (22, 33),
                                   (5, 6), (7, 9), (4, 6), (6, 5), (6, 4), (21, 19)])
def test_zero_check_rectangle_matches_lifted_witness(shape, rng, monkeypatch):
    # no lift is built, whatever its side (70, 99, 399, 72 with g = 6, 66
    # with g = 11, 30, 63, 12 with g = 2, and the tall 30, 12 and 399, whose
    # row and column capacities swap): the witness must still equal the
    # lift's, index for index; densities from sparse to dense give both
    # outcomes, and forced entries in half the draws rule out the empty-line
    # certificates
    m, n = shape
    supports = []
    for draw in range(16):
        support = rng.random((m, n)) < rng.uniform(0.02, 0.6)
        if draw % 2:
            support[np.arange(m), rng.integers(0, n, m)] = True
            support[rng.integers(0, m, n), np.arange(n)] = True
        supports.append(support)
    for line in range(2):                   # one empty row, one empty column
        support = rng.random((m, n)) < 0.7
        if line:
            support[:, n // 2] = False
        else:
            support[m // 3] = False
        supports.append(support)
    cases = [NonNegMatrix(s * rng.uniform(0.5, 2.0, (m, n))) for s in supports]
    expected = [_lifted_witness(a) for a in cases]
    monkeypatch.setattr("frameflow.capacity.tensor_square", _no_lift)
    monkeypatch.setattr(np, "kron", _no_lift)
    side = m * n // math.gcd(m, n)
    kinds = set()
    for a, want in zip(cases, expected):
        assert capacity_zero_check(a) == want
        if want is None:
            kinds.add("perfect")
        else:
            assert len(want["rows"]) + len(want["cols"]) > side
            kinds.add("empty line" if min(len(want["rows"]), len(want["cols"])) == 1
                      else "witness")
    assert kinds == {"perfect", "empty line", "witness"}
    assert expected[-2]["rows"] == [m // 3 * (n // math.gcd(m, n))]
    assert expected[-1]["cols"] == [n // 2 * (m // math.gcd(m, n))]


def test_zero_check_tight_examples(monkeypatch):
    # each gives its lift's certificate, and none builds its lift, neither
    # the values nor the support, whatever its side (3 to 575)
    cases = [tight_example(k).A for k in range(1, 13)]
    expected = [_lifted_witness(a) for a in cases]
    monkeypatch.setattr("frameflow.capacity.tensor_square", _no_lift)
    monkeypatch.setattr(np, "kron", _no_lift)
    for a, want in zip(cases, expected):
        assert want is not None
        assert len(want["rows"]) + len(want["cols"]) > a.m * a.n // math.gcd(a.m, a.n)
        assert capacity_zero_check(a) == want


def test_zero_check_rectangle_keeps_subnormal_entries():
    # the value lift scales 5e-324 by g^2/(mn) = 1/6 and rounds it to zero,
    # which cut the support's only perfect b-matching
    assert capacity_zero_check(NonNegMatrix([[5e-324, 1.0, 0.0], [0.0, 1.0, 1.0]])) is None


def test_zero_check_square_reads_its_support_from_the_entries():
    # the support is read from the nonzero entries themselves: a subnormal
    # entry counts, and -0.0 does not
    only_matching_via_subnormal = [[5e-324, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    assert capacity_zero_check(NonNegMatrix(only_matching_via_subnormal)) is None
    entries = np.ones((3, 3))
    entries[:, 1] = -0.0
    a = NonNegMatrix(entries)
    assert np.signbit(a.entries[:, 1]).all()
    assert capacity_zero_check(a) == {"rows": [0, 1, 2], "cols": [1]}


def _raises(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"the zero check called {name}")
    return fail


def test_zero_check_every_small_rectangle_matches_its_lift(monkeypatch):
    # every 0/1 support of every shape with m, n <= 6 and mn <= 12: 19,320
    # rectangles and the 530 squares of sides 1 to 3 (a square is its own
    # lift); the certificate equals the one found by hand on the
    # materialised lift, and no lift is built
    cases = []
    for m, n in itertools.product(range(1, 7), repeat=2):
        if m * n > 12:
            continue
        bits = (np.arange(2 ** (m * n))[:, None] >> np.arange(m * n)) & 1
        cases.extend(NonNegMatrix(b.reshape(m, n).astype(float)) for b in bits)
    assert len(cases) == 19320 + 530
    expected = [_lifted_witness(a) for a in cases]
    monkeypatch.setattr(np, "kron", _raises("np.kron"))
    assert [capacity_zero_check(a) for a in cases] == expected


def test_zero_check_full_rectangle_skips_lift(rng, monkeypatch):
    # an all-positive m x n input lifts to an all-ones square, so it has a
    # perfect matching; neither a lift (np.kron) nor the capacitated
    # matching may run, whatever the lift's side (7 x 9 lifts to 63, 8 x 9
    # to 72) and whatever the entries, 5e-324 included
    monkeypatch.setattr(np, "kron", _raises("np.kron"))
    monkeypatch.setattr("frameflow.capacity._block_witness", _raises("_block_witness"))
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 10) if m != n]
    assert (7, 9) in shapes and (8, 9) in shapes
    for m, n in shapes:
        entries = rng.uniform(0.5, 2.0, (m, n))
        assert capacity_zero_check(NonNegMatrix(entries)) is None
        entries[rng.integers(m), rng.integers(n)] = 5e-324
        assert capacity_zero_check(NonNegMatrix(entries)) is None


def test_zero_check_long_augmenting_paths():
    # the reversed triangle's only perfect matching is its anti-diagonal;
    # the matching reaches it through augmenting paths of hundreds of rows,
    # more than the recursion limit allows one frame each
    n = 1100
    assert capacity_zero_check(NonNegMatrix(np.tril(np.ones((n, n)))[::-1].copy())) is None
    # a chain: row i holds columns i and i + 1 up to row n - 3, which also
    # holds column n - 1, and rows n - 2 and n - 1 hold only column 0; one
    # augmenting path runs along the whole chain, and the search after it
    # leaves a Hall witness of the last two rows
    support = np.zeros((n, n), dtype=bool)
    support[np.arange(n - 2), np.arange(n - 2)] = True
    support[np.arange(n - 2), np.arange(1, n - 1)] = True
    support[n - 3, n - 1] = True
    support[n - 2:, 0] = True
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * n)        # the hand-written Kuhn search recurses
    try:
        want = _alternating_witness(support)
    finally:
        sys.setrecursionlimit(limit)
    assert want == {"rows": [n - 2, n - 1], "cols": list(range(1, n))}
    assert capacity_zero_check(NonNegMatrix(support.astype(float))) == want


# ---------------------------------------------------------------------------
# tensor lift


def test_tensor_square_shape_and_gcd():
    a = random_matrix(3, 2, 5)
    b = tensor_square(a)  # g = 1 -> side 6
    assert b.entries.shape == (6, 6)

    c = random_matrix(2, 4, 6)
    d = tensor_square(c)  # g = 2 -> side 4
    assert d.entries.shape == (4, 4)

    e = random_matrix(3, 3, 7)
    f = tensor_square(e)  # g = n: the all-one factor is 1x1
    np.testing.assert_array_equal(f.entries, e.entries)


@pytest.mark.parametrize("shape", [(3, 2), (2, 4), (4, 6)])
def test_tensor_square_preserves_measures(shape, rng):
    a = random_matrix(*shape, int(rng.integers(2**31)))
    b = tensor_square(a)
    assert size_of(b) == pytest.approx(size_of(a), rel=1e-12)
    assert delta_of(b) == pytest.approx(delta_of(a), abs=1e-12)
    va, vb = matrix_capacity(a).value, matrix_capacity(b).value
    assert abs(va - vb) <= 1e-6 * max(1.0, va)


# ---------------------------------------------------------------------------
# tight example family


def test_tight_example_k1_frozen():
    ex = tight_example(1)
    np.testing.assert_allclose(ex.A.entries, [[0.0, 0.5, 0.5]], atol=1e-15)
    assert delta_of(ex.A) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("k", range(2, 11))
def test_tight_example_family(k):
    ex = tight_example(k)
    assert ex.A.entries.shape == (2 * k - 1, 2 * k + 1)
    assert size_of(ex.A) == pytest.approx(1.0, abs=1e-14)
    assert delta_of(ex.A) == pytest.approx(1.0 / (8 * k**4 - 6 * k**2), abs=1e-12)
    res = matrix_capacity(ex.A)
    assert res.value == 0.0 and res.certificate is not None


def test_tight_example_lower_bound_near_zero():
    # the square-matrix lower bound evaluates near 0 on the lifted example:
    # the family is extremal for it
    ex = tight_example(4)
    lifted = tensor_square(ex.A)
    n = lifted.n
    lo = size_of(lifted) - n * np.sqrt(delta_of(lifted) / 2.0)
    assert abs(lo) <= 0.05


def test_tight_example_rejects_bad_k():
    with pytest.raises(ValueError):
        tight_example(0)


# ---------------------------------------------------------------------------
# frame / operator capacity


def test_frame_capacity_balanced():
    res = frame_capacity(harmonic_frame(3, 9))
    assert res.value == pytest.approx(3.0, abs=1e-6)


def test_frame_capacity_subspace_zero():
    vectors = np.zeros((5, 3))
    vectors[:, :2] = np.random.default_rng(0).standard_normal((5, 2))
    res = frame_capacity(Frame(vectors))
    assert res.value == 0.0
    with pytest.raises(CapacityError, match="do not span"):
        frame_weight_minimizer(Frame(vectors))


def test_frame_capacity_matches_flow_limit():
    for seed in range(12):
        fr, _ = near_parseval_frame(3, 7, 0.05, seed)
        final, _ = frame_flow(fr)
        assert frame_capacity(fr).value == pytest.approx(size_of(final), abs=1e-5 * 3)


def test_operator_capacity_stochastic_input():
    u = frame_to_operator(harmonic_frame(4, 8))
    res = operator_capacity(u)
    assert res.value == pytest.approx(4.0, rel=1e-9)
    assert res.lower is not None and res.upper is not None
    assert res.upper - res.lower <= 1e-6


def test_operator_capacity_agrees_with_frame_route():
    for seed in (3, 4, 5):
        fr, _ = near_parseval_frame(3, 8, 0.05, seed)
        v1 = operator_capacity(frame_to_operator(fr)).value
        v2 = frame_capacity(fr).value
        assert abs(v1 - v2) <= 1e-5 * max(v1, v2)


def test_operator_capacity_sums_logs_of_exactly_diagonal_right_side():
    # on an embedded frame operator Sinkhorn leaves the right transform
    # exactly diagonal; its log|det| is the sum of the diagonal logs, which
    # keeps the value's bytes (slogdet moves this one in its last bit)
    u = frame_to_operator(random_frame(3, 12, (2, 12)))
    v, (left, right), _ = operator_sinkhorn(u, 1e-12 * size_of(u) ** 2)
    assert np.all(right == np.diag(np.diag(right)))
    left_logdet = float(np.linalg.slogdet(left)[1])

    def value(right_logdet):
        return min(size_of(v) * math.exp(-2.0 * left_logdet / u.m - 2.0 * right_logdet / u.n),
                   size_of(u))

    summed = value(float(np.sum(np.log(np.abs(np.diag(right))))))
    assert operator_capacity(u).value == summed
    assert summed != value(float(np.linalg.slogdet(right)[1]))


def test_operator_capacity_bracket(rng):
    for _ in range(20):
        u = random_operator(4, 3, 4, int(rng.integers(2**31)))
        s, delta = size_of(u), delta_of(u)
        res = operator_capacity(u)
        lo = max(0.0, s - u.m * u.n * np.sqrt(delta / 2.0))
        assert lo - 1e-9 <= res.value <= s + 1e-9 * max(1.0, s)


@pytest.mark.parametrize("mats, true_value", [
    ([np.diag([1.0, 1e-7])], 2e-7),         # invertible, but its Gram is below the cut
    ([[[1.0, 0.0], [0.0, 0.0]]] * 2, 0.0),  # an exact kernel
], ids=["near-singular", "exact-kernel"])
def test_operator_singular_gram_is_bracket_only(mats, true_value):
    # a Gram that operator Sinkhorn cannot invert proves nothing of zero
    # capacity: the route reports the input's bracket, unconverged
    u = OperatorTuple(mats)
    lower, upper = capacity_bounds(u)
    res = operator_capacity(u)
    assert (res.method, res.converged, res.stop, res.certificate) == (
        "bracket-only", False, "singular", None)
    assert (res.value, res.lower, res.upper, res.iterations) == (upper, lower, upper, 0)
    assert lower <= true_value <= upper
    assert capacity.capacity_report(u).result == res


# ---------------------------------------------------------------------------
# operator -> matrix reduction


def test_reduction_identity_on_embedding():
    # axis-aligned vectors with distinct, increasing axis masses: the
    # eigenbasis of the left gram is the standard basis in its given order,
    # so the reduction lands exactly on the squared coordinates
    vectors = np.zeros((6, 3))
    vectors[0, 0], vectors[1, 0] = 0.5, 0.6
    vectors[2, 1], vectors[3, 1] = 0.8, 0.7
    vectors[4, 2], vectors[5, 2] = 0.9, 1.0
    fr = Frame(vectors)
    a = reduce_operator_to_matrix(frame_to_operator(fr), x=np.eye(6))
    np.testing.assert_allclose(a.entries, fr.vectors.T**2, rtol=1e-9, atol=1e-12)


def test_embedded_frame_recognised_only_on_the_embedding():
    fr = random_frame(3, 5, 8)
    assert _embedded_frame(frame_to_operator(fr)).vectors.tobytes() == fr.vectors.tobytes()
    # a k = n tuple with one entry off its column is no embedding, and the
    # reduction takes the identity weight
    mats = frame_to_operator(fr).mats.copy()
    mats[0, 1, 2] = 0.5
    u = OperatorTuple(mats)
    assert _embedded_frame(u) is None
    np.testing.assert_array_equal(reduce_operator_to_matrix(u).entries,
                                  reduce_operator_to_matrix(u, x=np.eye(5)).entries)


def test_reduction_preserves_size_and_delta(rng):
    for _ in range(10):
        u = random_operator(4, 3, 5, int(rng.integers(2**31)))
        a = reduce_operator_to_matrix(u)
        assert size_of(a) == pytest.approx(size_of(u), abs=1e-10 * max(1.0, size_of(u)))
        assert delta_of(a) <= delta_of(u) + 1e-9


def test_reduction_capacity_never_increases():
    for seed in (1, 2, 3, 4, 5):
        u = frame_to_operator(near_parseval_frame(3, 7, 0.05, seed)[0])
        a = reduce_operator_to_matrix(u)
        assert matrix_capacity(a).value <= operator_capacity(u).value + 1e-6


def test_reduction_balanced_right_gram_gives_equal_columns():
    fr = harmonic_frame(3, 9)  # right gram of the embedding is (d/n) I
    a = reduce_operator_to_matrix(frame_to_operator(fr), x=np.eye(9))
    np.testing.assert_allclose(a.entries.sum(axis=0), 3.0 / 9.0, atol=1e-10)


# ---------------------------------------------------------------------------
# bounds helper


def test_bounds_balanced_collapse():
    a = NonNegMatrix(np.full((3, 3), 2.0))
    lo, hi = capacity_bounds(a)
    s = size_of(a)
    assert lo == pytest.approx(s, abs=1e-9)
    assert hi == pytest.approx(s, abs=1e-9)


def test_bounds_exactly_balanced_with_subnormal_entries():
    # delta is 0 and alpha * n underflows in the rate bound's denominator
    a = NonNegMatrix([[5e-324, 1.0], [1.0, 5e-324]])
    assert capacity_bounds(a) == (2.0, 2.0)
    res = matrix_capacity(a)
    assert (res.value, res.lower, res.upper) == (2.0, 2.0, 2.0)


def test_overflowing_imbalance_is_bracket_only():
    # delta and tol * s^2 overflow to inf; the value is only the size
    a = NonNegMatrix([[1e300, 1e-300, 0.0], [0.0, 1e-300, 1e300], [1.0, 0.0, 1e-300]])
    with np.errstate(over="ignore"):
        res = matrix_capacity(a)
    assert res.method == "bracket-only" and not res.converged
    assert res.lower <= res.value <= res.upper


def test_overflowed_transforms_fall_back_to_size(monkeypatch):
    # operator Sinkhorn never balances this tuple; by 10000 iterations its
    # transforms have overflowed and their log-determinants are NaN
    u = random_operator(2, 3, 5, (17, 24))
    monkeypatch.setattr(capacity, "SCALING_MAX_ITERS", 10_000)
    with np.errstate(all="ignore"):
        res = operator_capacity(u)
    assert (res.value, res.method, res.converged) == (size_of(u), "bracket-only", False)
    # the matrix route, handed transforms that overflowed the same way
    a = random_matrix(3, 3, 7)
    monkeypatch.setattr(capacity, "sinkhorn", lambda a, tol, max_iters: (
        a, (np.full(3, np.inf), np.zeros(3)), IterationReport(10, 0.0, "converged")))
    with np.errstate(all="ignore"):
        res = matrix_capacity(a)
    assert (res.value, res.method, res.converged) == (size_of(a), "bracket-only", False)


def test_bounds_contain_value(rng):
    for _ in range(25):
        a = random_matrix(3, 5, int(rng.integers(2**31)))
        lo, hi = capacity_bounds(a)
        v = matrix_capacity(a).value
        assert lo - 1e-9 <= v <= hi + 1e-9
        assert lo >= 0.0


def test_capacity_result_fields():
    res = matrix_capacity(random_matrix(3, 3, 123))
    assert isinstance(res, CapacityResult)
    assert res.converged
    assert res.method in {"scaling-based", "convex-descent", "zero-detected", "bracket-only"}


# ---------------------------------------------------------------------------
# the convex routes: gauge-fixed damped Newton

# seeds of criterion-05 style positive 4x4 matrices and near-Parseval 3x12
# frames on which plain Armijo gradient descent stopped at its
# 100000-iteration cap short of GRAD_TOL
DESCENT_CAPPED_MATRICES = (15, 27, 35, 36, 38)
DESCENT_CAPPED_FRAMES = (0, 9, 12, 14, 15)
CAPPED_SEED = 171002587


def _capped_matrix(j):
    rng = np.random.default_rng([CAPPED_SEED, 5, j])
    return NonNegMatrix(rng.uniform(0.05, 1.0, (4, 4)))


def _capped_frame(j):
    return near_parseval_frame(3, 12, 0.01, (CAPPED_SEED, 3, j))[0]


def test_convex_matrix_route_converges_where_descent_capped():
    for j in DESCENT_CAPPED_MATRICES:
        a = _capped_matrix(j)
        res = matrix_capacity_convex(a)
        assert res.converged and 0 < res.iterations <= 50
        ref = matrix_capacity(a)
        assert ref.converged and ref.iterations > 0
        assert abs(res.value - ref.value) <= 1e-10 * ref.value


def test_convex_frame_route_converges_where_descent_capped():
    for j in DESCENT_CAPPED_FRAMES:
        fr = _capped_frame(j)
        res = frame_capacity(fr)
        assert res.converged and 0 < res.iterations <= 50
        # the weights satisfy the stopping rule, recomputed from scratch
        x = frame_weight_minimizer(fr)
        u = fr.vectors
        q = np.einsum("ld,de,le->l", u, np.linalg.inv((u * x[:, None]).T @ u), u)
        assert np.abs(x * q / fr.d - 1.0 / fr.n).max() <= GRAD_TOL
        assert res.lower - 1e-12 <= res.value <= res.upper + 1e-12


def test_newton_value_ignores_gauge_shift():
    a = _capped_matrix(DESCENT_CAPPED_MATRICES[0])
    fr = _capped_frame(DESCENT_CAPPED_FRAMES[0])
    for objective, n in [(_matrix_objective(a.entries), a.n),
                         (_frame_objective(fr.vectors, fr.d, fr.n), fr.n)]:
        _, f0, stop0, _ = _newton(objective, np.zeros(n), GRAD_TOL, NEWTON_MAX_ITERS)
        assert stop0 == "converged"
        for c in (-6.0, 2.5):
            _, f1, stop1, _ = _newton(objective, np.full(n, c), GRAD_TOL, NEWTON_MAX_ITERS)
            assert stop1 == "converged"
            assert abs(np.exp(f1) - np.exp(f0)) <= 1e-12 * np.exp(f0)


# a positive 2x6 criterion-04 draw: f ends far below its terms (log 2 and
# entries of y near 2), where a roundoff allowance of 4e-16 |f| stalls the
# iteration at |g| ~ 4e-10
FULL_SUPPORT_2X6 = [
    [0.0574594252162569, 0.00024298650291681477, 0.33444586270636106,
     0.786253758598938, 0.0010723368932297726, 0.026372790298835207],
    [0.01920802914490756, 0.16967140869740432, 0.6671592340567395,
     0.4689279113119582, 0.03720250808727603, 0.041782492009854094],
]


def test_convex_route_converges_or_says_so_on_full_support_2x6(monkeypatch):
    a = NonNegMatrix(np.array(FULL_SUPPORT_2X6))
    res = matrix_capacity_convex(a)
    ref = matrix_capacity(a)
    assert ref.converged
    assert res.converged and res.iterations <= 50
    assert abs(res.value - ref.value) <= 1e-10 * ref.value
    # cut short, the route reports it and stays inside the bracket
    monkeypatch.setattr(capacity, "NEWTON_MAX_ITERS", 2)
    short = matrix_capacity_convex(a)
    assert not short.converged and short.iterations == 2
    assert short.lower - 1e-12 <= short.value <= short.upper + 1e-12


def test_zero_detected_results_report_no_iterations():
    res = matrix_capacity_convex(NonNegMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert res.method == "zero-detected" and res.iterations == 0
    vectors = np.zeros((4, 3))
    vectors[:, :2] = 1.0
    assert frame_capacity(Frame(vectors)).iterations == 0


def test_convex_route_without_total_support():
    # a criterion-04 draw whose support has no total support: rows 0 and 2
    # are forced onto columns 3 and 1, and rows 1 and 3 share a positive
    # 2x2 block on columns 0 and 2.  The infimum lies at infinity along the
    # direction that scales the entries off every perfect matching away; the
    # first Newton step goes far along it and the Hessian loses rank there.
    e = np.array([
        [0.6931679502696033, 0.027844792836561556, 0.22863312187944812, 0.006827812088745095],
        [0.26984375066398886, 0.07920513782852583, 0.1593796133869496, 0.0],
        [0.0, 0.9290611476280253, 0.0, 0.0],
        [0.44351746278580717, 0.03393988493992592, 0.6719095757812492, 0.0],
    ])
    # the capacity of a direct sum of square blocks B_k of side n_k is
    # n prod_k (cap(B_k)/n_k)^(n_k/n), and a 2x2 block [[a, b], [c, d]] has
    # capacity 2 (sqrt(ad) + sqrt(bc))
    block = 2.0 * (np.sqrt(e[1, 0] * e[3, 2]) + np.sqrt(e[1, 2] * e[3, 0]))
    closed = 4.0 * (e[0, 3] * e[2, 1]) ** 0.25 * (block / 2.0) ** 0.5
    res = matrix_capacity_convex(NonNegMatrix(e))
    assert res.converged and res.iterations <= 50
    assert res.value == pytest.approx(closed, rel=1e-9)


# ---------------------------------------------------------------------------
# why a route stopped


def _three_on_a_line() -> Frame:
    # the vectors span R^3, but 3 d = 9 > n = 6 vectors share a line, so the
    # capacity infimum is 0 and lies at infinity
    vectors = np.random.default_rng(1).standard_normal((6, 3))
    vectors[1] = 2.0 * vectors[0]
    vectors[2] = -0.5 * vectors[0]
    return Frame(vectors)


def test_newton_stops_at_max_iters_on_zero_capacity_frame():
    fr = _three_on_a_line()
    with np.errstate(over="ignore", invalid="ignore"):   # e^y overflows on the way
        res = frame_capacity(fr)
        rep = capacity.capacity_report(fr)
    assert (res.stop, res.converged, res.iterations) == ("max_iters", False, NEWTON_MAX_ITERS)
    assert rep.result == res


def test_frame_newton_handles_its_overflows_without_warnings():
    # on the way to the infimum at infinity e^y overflows and slogdet of the
    # Gram is invalid; the objective reads both as f = inf, so no
    # RuntimeWarning reaches the caller, and the answer is the one it gave
    # while numpy still printed them
    fr = _three_on_a_line()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = capacity.capacity_report(fr).result
    assert (res.method, res.converged, res.stop) == ("convex-descent", False, "max_iters")
    assert res.value == float.fromhex("0x1.4a41d57bd3575p-8")     # 0.005039324398081181


def test_weight_minimizer_raises_where_newton_stops_short():
    # no weights minimize the program of a zero-capacity frame that spans, so
    # the minimizer says so, and the reduction takes the identity weight
    fr = _three_on_a_line()
    u = frame_to_operator(fr)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CapacityError, match="max_iters"):
            frame_weight_minimizer(fr)
        a = reduce_operator_to_matrix(u)
    np.testing.assert_array_equal(a.entries, reduce_operator_to_matrix(u, x=np.eye(6)).entries)


def test_newton_stops_converged_on_matrix_and_frame():
    for res in (matrix_capacity_convex(_capped_matrix(DESCENT_CAPPED_MATRICES[0])),
                frame_capacity(_capped_frame(DESCENT_CAPPED_FRAMES[0]))):
        assert res.method == "convex-descent"
        assert (res.stop, res.converged) == ("converged", True)


def test_newton_stops_in_line_search_when_the_objective_always_rises():
    # the gradient it reports points downhill, but f = |y|_1 rises along
    # every step, by more than roundoff down to the smallest step
    def rising(y):
        return float(np.abs(y).sum()), np.array([1.0, -1.0]), np.eye(2)

    y, f, stop, iterations = _newton(rising, np.zeros(2), GRAD_TOL, NEWTON_MAX_ITERS)
    assert (stop, iterations, f) == ("line-search", 0, 0.0)
    assert np.all(y == 0.0)


def test_scaling_routes_carry_their_loops_stop(monkeypatch):
    assert matrix_capacity(random_matrix(3, 4, 5)).stop == "converged"
    assert operator_capacity(random_operator(2, 3, 3, 5)).stop == "converged"
    monkeypatch.setattr(capacity, "SCALING_MAX_ITERS", 2)
    assert matrix_capacity(random_matrix(3, 4, 5)).stop == "max_iters"
    # transforms that overflowed: the value falls back to the size
    monkeypatch.setattr(capacity, "sinkhorn", lambda a, tol, max_iters: (
        a, (np.full(3, np.inf), np.zeros(3)), IterationReport(10, 0.0, "converged")))
    with np.errstate(all="ignore"):
        res = matrix_capacity(random_matrix(3, 3, 7))
    assert (res.method, res.converged, res.stop) == ("bracket-only", False, "non-finite")


def test_capacity_report_zero_inputs_skip_the_bracket(monkeypatch):
    monkeypatch.setattr(capacity, "_bracket", lambda *args: pytest.fail("bracket taken"))
    rep = capacity.capacity_report(tight_example(3).A)
    assert rep.result.method == "zero-detected" and rep.convex is rep.result
    assert rep.dual_relative_gap == 0.0
    vectors = np.zeros((4, 3))
    vectors[:, :2] = 1.0
    rep = capacity.capacity_report(Frame(vectors))
    assert rep.result.method == "zero-detected" and rep.convex is None
