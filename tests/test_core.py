"""Measures, predicates, conversions, and serialization of the base types;
the symmetric spectral helpers; the numpy-only import rule."""

import ast
import importlib.util
import json
import math
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameflow
from frameflow import (
    Frame,
    NonNegMatrix,
    OperatorTuple,
    delta_of,
    dist,
    dumps,
    eps_nearness,
    frame_to_operator,
    from_dict,
    is_doubly_balanced,
    loads,
    size_of,
    to_dict,
)
from frameflow._jacobi import jacobi_eigh, sym_inv_sqrt, sym_sqrt
from frameflow.capacity import tight_example
from frameflow.generate import (
    harmonic_frame,
    near_parseval_frame,
    random_frame,
    random_matrix,
    random_operator,
)


# ---------------------------------------------------------------------------
# size


def test_size_zero_frame():
    assert size_of(Frame(np.zeros((4, 2)))) == 0.0


def test_size_uniform_matrix():
    a = NonNegMatrix(np.full((2, 3), 1.0 / 6.0))
    assert size_of(a) == pytest.approx(1.0, abs=1e-15)


def test_size_parseval_frame_is_trace():
    fr = harmonic_frame(3, 9)
    assert size_of(fr) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# delta


def test_delta_hand_value():
    # s=1, row sums (1,0), column sums (1,0):
    # (1/2)[(1-2)^2 + 1^2] + (1/2)[(1-2)^2 + 1^2] = 2
    a = NonNegMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert delta_of(a) == pytest.approx(2.0, abs=1e-15)


def test_delta_balanced_operator_is_zero():
    u = frame_to_operator(harmonic_frame(3, 8))
    assert delta_of(u) < 1e-28


@pytest.mark.parametrize("k", [2, 3, 5])
def test_delta_tight_example(k):
    expected = 1.0 / (8 * k**4 - 6 * k**2)
    assert delta_of(tight_example(k).A) == pytest.approx(expected, abs=1e-12)


def test_delta_quadratic_scaling_matrix(rng):
    # matrix entries play the role of squared magnitudes, so the imbalance
    # is quadratic (not quartic) in an entrywise scale factor
    a = NonNegMatrix(rng.random((3, 5)))
    base = delta_of(a)
    for c in (0.5, 2.0, 7.3):
        assert delta_of(NonNegMatrix(c * a.entries)) == pytest.approx(c**2 * base, rel=1e-10)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 4.0))
def test_delta_quartic_scaling_operator(seed, c):
    u = random_operator(3, 2, 4, seed)
    assert delta_of(OperatorTuple(c * u.mats)) == pytest.approx(
        c**4 * delta_of(u), rel=1e-9, abs=1e-12
    )


# ---------------------------------------------------------------------------
# dist


def test_dist_self_and_hand_value():
    a = Frame(np.array([[1.0, 0.0]]))
    b = Frame(np.array([[0.0, 1.0]]))
    assert dist(a, a) == 0.0
    assert dist(a, b) == pytest.approx(2.0, abs=1e-15)


def test_dist_shape_and_type_errors():
    with pytest.raises(ValueError):
        dist(Frame(np.ones((2, 2))), Frame(np.ones((3, 2))))
    with pytest.raises(TypeError):
        dist(Frame(np.ones((2, 2))), NonNegMatrix(np.ones((2, 2))))


def test_distance_triangle_inequality(rng):
    for _ in range(200):
        a, b, c = (Frame(rng.standard_normal((5, 3))) for _ in range(3))
        assert math.sqrt(dist(a, c)) <= math.sqrt(dist(a, b)) + math.sqrt(dist(b, c)) + 1e-12
        assert dist(a, b) == pytest.approx(dist(b, a), abs=0.0)


# ---------------------------------------------------------------------------
# eps nearness


def test_eps_exact_frame_zero():
    # exact up to the float rounding of the trigonometric construction
    assert eps_nearness(harmonic_frame(4, 12)) <= 1e-13


def test_eps_single_lengthened_vector():
    d, n = 3, 12
    fr = harmonic_frame(d, n)
    vectors = fr.vectors.copy()
    vectors[0] *= np.sqrt(1.05)
    eps = eps_nearness(Frame(vectors))
    # the norm condition alone forces 0.05; the gram eigenvalue bump is smaller
    assert eps >= 0.05 - 1e-12
    assert eps <= 0.06


def test_eps_monotone_in_pointwise_scaling():
    fr = harmonic_frame(3, 10)
    prev = -1.0
    for delta in (0.0, 0.01, 0.05, 0.1, 0.3):
        eps = eps_nearness(Frame(np.sqrt(1.0 + delta) * fr.vectors))
        assert eps >= prev
        prev = eps


def test_delta_bounded_by_eps_at_unit_size(rng):
    # delta <= 2 d^2 eps^2 (+ slack) whenever s = d
    for _ in range(25):
        fr = random_frame(3, 11, int(rng.integers(2**32)))
        s = size_of(fr)
        fr = Frame(fr.vectors * np.sqrt(fr.d / s))
        assert delta_of(fr) <= 2.0 * fr.d**2 * eps_nearness(fr) ** 2 + 1e-9


@pytest.mark.parametrize("eps, exit_path", [
    (0.0, "exact"), (0.01, "in window"), (0.01, "zero measured"), (0.01, "exhausted"),
])
def test_near_parseval_frame_returns_the_nearness_of_its_frame(monkeypatch, eps, exit_path):
    # the returned eps is eps_nearness of the returned frame, bit for bit, on
    # every exit: the exact frame (eps = 0), the window reached, and the
    # secant loop run out; "zero measured" starts with a nearness of 0,
    # which raises the amplitude tenfold, and "exhausted" measures 3 eps
    # above the truth, so the window [eps/2, 2 eps] is never reached
    calls = []

    def measure(frame):
        value = eps_nearness(frame)
        if exit_path == "zero measured" and not calls:
            value = 0.0
        elif exit_path == "exhausted":
            value += 3.0 * eps
        calls.append(frame)
        return value

    monkeypatch.setattr("frameflow.generate.eps_nearness", measure)
    frame, measured = near_parseval_frame(3, 12, eps, 5)
    assert calls[-1] is frame
    remeasured = measure(frame)
    assert np.float64(measured).tobytes() == np.float64(remeasured).tobytes()
    assert len(calls) - 1 == {"exact": 1, "in window": 2, "zero measured": 3,
                              "exhausted": 8}[exit_path]


# ---------------------------------------------------------------------------
# balance predicates


def test_identity_basis_is_stochastic():
    fr = Frame(np.eye(4))
    assert is_doubly_balanced(fr)
    assert size_of(fr) == fr.d


def test_tight_example_not_balanced_below_delta():
    ex = tight_example(3)
    gap = delta_of(ex.A)
    assert not is_doubly_balanced(ex.A, gap * 0.999)
    assert is_doubly_balanced(ex.A, gap * 1.001)


def test_balanced_iff_delta_zero(rng):
    objs = [
        harmonic_frame(2, 6),
        NonNegMatrix(np.full((3, 3), 1.0 / 3.0)),
        random_matrix(3, 4, 5),
        Frame(rng.standard_normal((7, 3))),
    ]
    for obj in objs:
        assert is_doubly_balanced(obj, 1e-12) == (delta_of(obj) <= 1e-12)


def test_balance_tol_must_be_positive():
    with pytest.raises(ValueError):
        is_doubly_balanced(Frame(np.eye(2)), 0.0)


# ---------------------------------------------------------------------------
# frame -> operator embedding


def test_embedding_shape_small():
    u = frame_to_operator(Frame(np.array([[2.0], [3.0]])))
    assert u.mats.shape == (2, 1, 2)
    np.testing.assert_array_equal(u.mats[0], [[2.0, 0.0]])
    np.testing.assert_array_equal(u.mats[1], [[0.0, 3.0]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_embedding_preserves_measures(seed):
    fr = random_frame(3, 7, seed)
    u = frame_to_operator(fr)
    assert size_of(u) == pytest.approx(size_of(fr), abs=1e-12)
    assert delta_of(u) == pytest.approx(delta_of(fr), rel=1e-12, abs=1e-12)
    assert eps_nearness(u) == pytest.approx(eps_nearness(fr), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# symmetric spectra


@pytest.mark.parametrize("n", range(3, 13))
def test_eigh_ascending_and_reconstructs(rng, n):
    b = rng.standard_normal((n, n))
    a = b + b.T
    w, v = jacobi_eigh(a)
    assert np.all(np.diff(w) >= 0.0)
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose((v * w) @ v.T, a, rtol=0.0, atol=1e-13 * np.abs(a).max())


def test_eigh_of_diagonal_is_its_sorted_diagonal():
    diag = np.array([3.5, -1.0, 0.0, 2.25, 1e-30, 7.0])
    w, _ = jacobi_eigh(np.diag(diag))
    np.testing.assert_array_equal(w, np.sort(diag))


@pytest.mark.parametrize("a", [
    np.ones((2, 3)), np.ones(3), np.array([[1.0, 2.0], [0.0, 1.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
])
def test_eigh_rejects_nonsquare_asymmetric_and_nonfinite(a):
    with pytest.raises(ValueError):
        jacobi_eigh(a)


@pytest.mark.parametrize("a, message", [
    (np.ones((2, 3)), r"square matrix expected, got \(2, 3\)"),
    (np.ones(3), r"square matrix expected, got \(3,\)"),
    (np.full((2, 3), np.nan), "square matrix expected"),          # shape first
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix has non-finite entries"),
    (np.array([[1.0, 5.0], [0.0, np.inf]]), "matrix has non-finite entries"),  # finiteness next
    (np.array([[-np.inf, 0.0], [0.0, 1.0]]), "matrix has non-finite entries"),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), "matrix is not symmetric"),
])
def test_eigh_error_messages_and_order(a, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        jacobi_eigh(a)


def test_eigh_matches_lapack_on_symmetrised_input(rng):
    # the answer is eigh(0.5 * (a + a.T)) bit for bit: on Gram matrices, on
    # inputs asymmetric within the tolerance, and on a zero mirrored by a
    # negative zero, which passes max|a - a.T| == 0 yet changes the sign of
    # LAPACK's first reflector (and so the eigenvectors) if passed as it is
    cases = []
    for n in range(1, 7):
        u = rng.standard_normal((3 * n, n))
        gram = u.T @ u
        nearly = gram.copy()
        nearly[0, -1] += 1e-12 * (1.0 + np.abs(gram).max())
        cases += [gram, nearly]
    signed = np.array([[2.0, 0.0, 1.0], [-0.0, 3.0, 1.0], [1.0, 1.0, 4.0]])
    cases += [signed, signed.T.copy()]
    for a in cases:
        want = np.linalg.eigh(0.5 * (a + a.T))
        w, v = jacobi_eigh(a)
        assert w.tobytes() == want[0].tobytes()
        assert v.tobytes() == want[1].tobytes()
    direct = np.linalg.eigh(signed)[1]
    assert not np.array_equal(direct, np.linalg.eigh(0.5 * (signed + signed.T))[1])


def test_eigh_symmetry_threshold():
    # asymmetry is allowed up to 1e-10 * (1 + max|a|), here 3e-10
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    inside, outside = a.copy(), a.copy()
    inside[0, 1] += 0.9 * 3e-10
    outside[0, 1] += 1.1 * 3e-10
    w, _ = jacobi_eigh(inside)
    np.testing.assert_array_equal(w, np.linalg.eigh(0.5 * (inside + inside.T))[0])
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigh(outside)
    w, v = jacobi_eigh(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)


def test_eigh_symmetry_verdict_matches_allclose(rng):
    # the check once read np.allclose(a, a.T, rtol=0, atol=...); perturb one
    # entry of a symmetric matrix by 0.1 to 10 times the tolerance
    verdicts = set()
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        b = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        a = b + b.T
        atol = 1e-10 * (1.0 + np.abs(a).max())
        i, j = rng.integers(0, n, 2)
        a[i, j] += rng.choice([-1.0, 1.0]) * atol * 10.0 ** rng.uniform(-1, 1)
        symmetric = np.allclose(a, a.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(a).max()))
        try:
            jacobi_eigh(a)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == symmetric
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_inv_sqrt_raises_on_rank_deficient_psd(rng):
    b = rng.standard_normal((5, 3))
    with pytest.raises(np.linalg.LinAlgError):
        sym_inv_sqrt(b @ b.T)


def test_inv_sqrt_inverts_square_root(rng):
    b = rng.standard_normal((4, 4))
    a = b @ b.T + np.eye(4)
    r = sym_inv_sqrt(a)
    np.testing.assert_allclose(r @ a @ r, np.eye(4), rtol=0.0, atol=1e-12)


def test_sqrt_squares_back_to_rank_one_psd(rng):
    x = rng.standard_normal(6)
    a = np.outer(x, x)
    root = sym_sqrt(a)
    np.testing.assert_allclose(root @ root, a, rtol=0.0, atol=1e-13 * np.abs(a).max())
    # the zero eigenvalues (computed at about +-1e-16) stay zero: sqrt(x x^T)
    # is x x^T / |x|, with no 1e-8 roots of roundoff mixed in
    np.testing.assert_allclose(root, a / np.linalg.norm(x), rtol=0.0, atol=1e-13 * np.abs(a).max())


# ---------------------------------------------------------------------------
# matrix entry domain


def test_negative_noise_clamped_to_zero():
    a = NonNegMatrix(np.array([[1.0, -5e-16], [0.0, 2.0]]))
    assert a.entries[0, 1] == 0.0


def test_genuinely_negative_entry_rejected():
    with pytest.raises(ValueError):
        NonNegMatrix(np.array([[1.0, -1e-12]]))


_NOT_FINITE = "entries must be finite"

# values written into the first entries of a matrix of halves, and the
# entries the constructor keeps there or the message of its ValueError
_ENTRY_CASES = {
    "subnormal": ([5e-324, 2.5e-310], [5e-324, 2.5e-310]),
    "negative zero": ([-0.0], [-0.0]),
    "clamped": ([-1e-16], [0.0]),
    "negative zero beside a clamped entry": ([-0.0, -1e-16], [-0.0, 0.0]),
    "rejected": ([-1e-14], "negative entry -1.000e-14 below the -1e-15 clamp window"),
    "+inf": ([np.inf], _NOT_FINITE),
    "-inf": ([-np.inf], _NOT_FINITE),
    "nan": ([np.nan], _NOT_FINITE),
    "overflowing sum": ([1e308, 1e308], [1e308, 1e308]),
    "overflowing negative sum": ([-1e308, -1e308],
                                 "negative entry -1.000e+308 below the -1e-15 clamp window"),
}


def _constructor_cases():
    # a 5x5 input is checked as a list, a 19x21 one by numpy reductions
    for m, n in ((5, 5), (19, 21)):
        for name, (values, kept) in _ENTRY_CASES.items():
            raw = np.full((m, n), 0.5)
            raw.flat[:len(values)] = values
            expected = kept
            if not isinstance(kept, str):
                expected = raw.copy()
                expected.flat[:len(kept)] = kept
            yield pytest.param(raw, expected, id=f"{name} {m}x{n}")
    shape_error = "entries must be (m, n) with m, n >= 1, got "
    yield pytest.param(np.zeros((0, 3)), shape_error + "(0, 3)", id="0x3")
    yield pytest.param(np.zeros((3, 0)), shape_error + "(3, 0)", id="3x0")
    yield pytest.param([1.0, 2.0], shape_error + "(2,)", id="1-d")
    yield pytest.param(np.ones((2, 2, 2)), shape_error + "(2, 2, 2)", id="3-d")
    yield pytest.param([1.0, np.nan], _NOT_FINITE, id="1-d nan")
    yield pytest.param([[1, 0], [2, 3]], np.array([[1.0, 0.0], [2.0, 3.0]]), id="int")
    yield pytest.param(np.eye(2, dtype=bool), np.eye(2), id="bool")


@pytest.mark.parametrize("raw, expected", _constructor_cases())
def test_constructor_keeps_entries_or_raises(raw, expected):
    """Finiteness is checked before shape, -0.0 is kept and a clamped entry
    becomes +0.0; the kept entries are read-only and cannot be replaced."""
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            NonNegMatrix(raw)
        assert str(err.value) == expected
        return
    a = NonNegMatrix(raw)
    assert a.entries.dtype == np.float64
    assert np.array_equal(a.entries, expected)
    assert np.array_equal(np.signbit(a.entries), np.signbit(expected))
    assert not a.entries.flags.writeable
    with pytest.raises(ValueError):
        a.entries[0, 0] = 1.0
    with pytest.raises(AttributeError):
        a.entries = expected
    with pytest.raises(AttributeError):
        del a.entries
    assert pickle.loads(pickle.dumps(a)).entries.tobytes() == a.entries.tobytes()


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "obj",
    [
        random_frame(3, 6, 1),
        random_operator(2, 3, 4, 2),
        random_matrix(2, 5, 3),
    ],
    ids=["frame", "operator", "matrix"],
)
def test_json_roundtrip_exact(obj):
    again = loads(dumps(obj))
    assert type(again) is type(obj)
    assert dist(obj, again) == 0.0


def test_document_shapes():
    doc = to_dict(random_frame(2, 4, 0))
    assert set(doc) == {"kind", "d", "n", "vectors"}
    assert doc["kind"] == "frame" and doc["d"] == 2 and doc["n"] == 4

    doc = to_dict(random_operator(3, 2, 4, 0))
    assert set(doc) == {"kind", "m", "n", "k", "mats"}

    doc = to_dict(random_matrix(2, 3, 0))
    assert set(doc) == {"kind", "m", "n", "entries"}
    assert np.asarray(doc["entries"]).shape == (2, 3)


def test_from_dict_rejects_inconsistent_header():
    doc = to_dict(random_frame(2, 4, 0))
    doc["n"] = 5
    with pytest.raises((ValueError, KeyError)):
        from_dict(doc)


def test_dumps_is_valid_json():
    parsed = json.loads(dumps(random_matrix(2, 2, 9)))
    assert parsed["kind"] == "matrix"


# ---------------------------------------------------------------------------
# dependencies


def test_package_imports_only_stdlib_and_numpy():
    # no concurrency modules either: `solve` runs its trials serially, since
    # `warnings.catch_warnings` is not thread-safe
    allowed = (set(sys.stdlib_module_names) | {"numpy"}) - {
        "threading", "_thread", "concurrent", "multiprocessing"}
    outside = []
    for path in sorted(Path(frameflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not outside, outside


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the bench tracer wraps its TARGETS by name, so a rename or a deletion
    # here would break the traced bench run; load its table without writing
    # bytecode next to it
    tracer_path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("frameflow_bench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name, _, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(f"frameflow.{module}"), name)]
    assert tracer.TARGETS and not missing, missing
    assert not [name for name in frameflow.__all__ if not hasattr(frameflow, name)]


def test_no_module_imports_inside_a_function():
    # every module states what it depends on at its top, so the import
    # graph can be read (and kept acyclic) from the module headers alone
    nested = []
    for path in sorted(Path(frameflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested
