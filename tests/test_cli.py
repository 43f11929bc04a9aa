"""End-to-end tests of the frameflow command driver: generator calibration,
flow traces, solve reports, capacity reports, exit codes, config handling,
and byte determinism."""

import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import frameflow
from frameflow import checks
from frameflow.capacity import tight_example
from frameflow.cli import RunConfig, main
from frameflow.core import (Frame, NonNegMatrix, OperatorTuple, dumps, eps_nearness,
                           from_dict, save_json)
from frameflow.dynamics import CSV_HEADER, validation_options
from frameflow.generate import near_parseval_frame, random_matrix, random_operator


def _package_env() -> dict:
    """The environment of a fresh interpreter that imports this frameflow."""
    package_root = str(Path(frameflow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr()


def load_doc(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# gen


def test_gen_exact_frame(tmp_path, capsys):
    out = tmp_path / "frame.json"
    rc, _ = run(capsys, "gen", "--kind", "frame", "--d", "3", "--n", "12",
                "--eps", "0", "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert doc["kind"] == "frame" and doc["d"] == 3 and doc["n"] == 12
    assert doc["meta"]["requested_eps"] == 0.0
    assert doc["meta"]["measured_eps"] <= 1e-10
    frame = from_dict(doc)
    assert isinstance(frame, Frame)
    assert eps_nearness(frame) <= 1e-10


def test_gen_eps_calibration(tmp_path, capsys):
    out = tmp_path / "frame.json"
    for seed in range(5):
        rc, _ = run(capsys, "gen", "--d", "3", "--n", "12", "--eps", "0.01",
                    "--seed", str(seed), "--out", str(out))
        assert rc == 0
        measured = load_doc(out)["meta"]["measured_eps"]
        assert 0.003 <= measured <= 0.03


def test_gen_tight_matrix(tmp_path, capsys):
    out = tmp_path / "tight.json"
    rc, _ = run(capsys, "gen", "--kind", "tight", "--k", "2", "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    ex = tight_example(2)
    assert doc["kind"] == "matrix"
    np.testing.assert_array_equal(np.array(doc["entries"]), ex.A.entries)
    assert doc["meta"]["k"] == 2
    assert {"x", "y", "E", "F"} <= set(doc["meta"])


def test_gen_other_kinds_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for kind, extra in [("operator", ["--k", "3", "--d", "2", "--n", "4"]),
                        ("matrix", ["--m", "4", "--n", "6"])]:
        rc, _ = run(capsys, "gen", "--kind", kind, *extra, "--seed", "7", "--out", str(a))
        assert rc == 0
        rc, _ = run(capsys, "gen", "--kind", kind, *extra, "--seed", "7", "--out", str(b))
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        doc = load_doc(a)
        assert doc["kind"] == kind


def test_gen_stdout_when_no_out(capsys):
    rc, captured = run(capsys, "gen", "--d", "2", "--n", "5", "--eps", "0")
    assert rc == 0
    assert captured.out.endswith("\n")
    assert json.loads(captured.out)["kind"] == "frame"


def test_gen_unknown_kind_is_usage_error(capsys):
    rc, captured = run(capsys, "gen", "--kind", "widget")
    assert rc == 1 and "usage error" in captured.err


def test_gen_underdetermined_frame_is_numeric_failure(capsys):
    # n < d cannot span: generator raises, mapped to the numeric exit code
    rc, captured = run(capsys, "gen", "--d", "3", "--n", "2", "--eps", "0")
    assert rc == 2 and "numeric failure" in captured.err


# ---------------------------------------------------------------------------
# usage and input errors


def test_no_subcommand(capsys):
    rc, captured = run(capsys)
    assert rc == 1 and "usage error" in captured.err


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("gen", "flow", "solve", "capacity", "perturb", "check"):
        # a line that starts with the command and goes on to say what it does
        assert re.search(rf"^\s+{name}\s+\w", out, re.MULTILINE), name


def test_unknown_flag(capsys):
    rc, _ = run(capsys, "gen", "--frobnicate", "1")
    assert rc == 1


def test_bad_flag_values(capsys):
    assert run(capsys, "gen", "--trials", "0")[0] == 1
    assert run(capsys, "gen", "--eps", "-0.5")[0] == 1
    assert run(capsys, "gen", "--seed", "-1")[0] == 1
    assert run(capsys, "flow", "--tol", "0", "--in", "x.json")[0] == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--basic", "--final-delta", "nan"],
    ["solve", "--smoothed", "--zeta", "0"],
    ["solve", "--smoothed", "--kappa", "0"],
    ["solve", "--basic", "--eps", "1.5"],
    ["solve", "--smoothed", "--zeta", "-1"],
    ["perturb", "--sigma2", "nan"],
    ["capacity", "--tol", "inf"],
    ["solve", "--trials", "0"],
])
def test_out_of_range_flag_is_usage_error(capsys, argv):
    rc, captured = run(capsys, *argv)
    field = argv[-2].removeprefix("--").replace("-", "_")
    assert rc == 1 and captured.err.startswith(f"usage error: {field} "), captured.err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--basic", "--d", "2", "--n", "4", "--tol", "1e9"], "solve takes no --tol"),
    (["perturb", "--d", "2", "--n", "4", "--trials", "5", "--tol", "3", "--k", "9"],
     "perturb takes no --k"),
    (["gen", "--kind", "matrix", "--m", "2", "--n", "2", "--tol", "5"], "gen takes no --tol"),
    (["capacity", "--in", "{obj}", "--zeta", "1"], "capacity takes no --zeta"),
    (["flow", "--in", "{obj}", "--seed", "3"], "flow takes no --seed"),
    (["check", "--in", "{trace}", "--trials", "2"], "check takes no --trials"),
    (["gen", "--smoothed"], "gen takes no --basic or --smoothed"),
], ids=["solve", "perturb", "gen", "capacity", "flow", "check", "gen-mode"])
def test_unread_flag_is_usage_error(tmp_path, capsys, argv, message):
    obj = tmp_path / "obj.json"
    run(capsys, "gen", "--kind", "matrix", "--m", "2", "--n", "2", "--out", str(obj))
    trace = tmp_path / "trace.csv"
    trace.write_text(CSV_HEADER + "\n" + ",".join(["0"] * 8) + "\n")
    rc, captured = run(capsys, *(a.format(obj=obj, trace=trace) for a in argv))
    assert rc == 1
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)
                                  if "float" in str(f.type)])
def test_nan_config_value_is_usage_error(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: float("nan")}))
    rc, captured = run(capsys, "gen", "--config", str(cfg), "--d", "2", "--n", "3")
    assert rc == 1 and captured.err.startswith(f"usage error: {name} "), captured.err


@pytest.mark.parametrize("config", [
    {"d": "3"}, {"eps": None}, {"trials": True}, {"n": 4.0}, {"infile": 7}, {"mode": "fast"},
])
def test_wrongly_typed_config_value_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc, captured = run(capsys, "gen", "--config", str(cfg))
    name = next(iter(config))
    assert rc == 1 and captured.err.startswith(f"usage error: {name} "), captured.err


def test_flow_requires_input(capsys):
    rc, captured = run(capsys, "flow")
    assert rc == 1 and "--in is required" in captured.err


def test_missing_input_file(capsys):
    rc, captured = run(capsys, "flow", "--in", "/nonexistent/obj.json")
    assert rc == 1 and "cannot read input" in captured.err


def test_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "capacity", "--in", str(bad))[0] == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "sphere", "r": 1}))
    assert run(capsys, "capacity", "--in", str(wrong))[0] == 1
    for text in ("[1, 2]", '"matrix"', "[" * 100_000 + "]" * 100_000,
                 json.dumps({"kind": "matrix", "m": 2, "n": 2, "entries": [[1, {}], [1, 1]]})):
        wrong.write_text(text)
        rc, captured = run(capsys, "capacity", "--in", str(wrong))
        assert rc == 1 and captured.err.startswith("usage error: malformed object JSON: ")


def test_solve_rejects_non_frame_input(tmp_path, capsys):
    obj = tmp_path / "mat.json"
    run(capsys, "gen", "--kind", "matrix", "--m", "3", "--n", "3", "--out", str(obj))
    for command in ("solve", "perturb"):
        rc, captured = run(capsys, command, "--in", str(obj))
        assert rc == 1 and f"{command} expects a frame" in captured.err


# ---------------------------------------------------------------------------
# flow + trace revalidation


def test_flow_tight_example_shrinks_to_zero_capacity(tmp_path, capsys):
    obj = tmp_path / "tight.json"
    trace = tmp_path / "trace.csv"
    run(capsys, "gen", "--kind", "tight", "--k", "2", "--out", str(obj))
    rc, _ = run(capsys, "flow", "--in", str(obj), "--out", str(trace))
    assert rc == 0

    data = np.loadtxt(trace, delimiter=",", skiprows=1)
    s = data[:, 1]
    assert np.diff(s).max() <= 1e-12          # monotone toward cap = 0
    assert s[-1] <= 1e-4
    assert data[:, 2][-1] <= 1e-9             # delta decays with the scale

    # every emitted trace revalidates
    rc, captured = run(capsys, "check", "--in", str(trace))
    assert rc == 0
    assert "VIOLATION" not in captured.out

    # a tampered trace is rejected with the invariant exit code
    rows = trace.read_text().splitlines()
    fields = rows[2000].split(",")
    fields[2] = repr(float(fields[2]) * 1.5)
    rows[2000] = ",".join(fields)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(rows) + "\n")
    rc, captured = run(capsys, "check", "--in", str(tampered))
    assert rc == 3
    assert "VIOLATION" in captured.out


@pytest.mark.parametrize("text, detail", [
    ("", "header []"),
    (CSV_HEADER + "\n", "no sample rows"),
    (CSV_HEADER + "\n0,1,2\n", "line 2: 3 fields"),
    (CSV_HEADER + "\n" + ",".join(["0"] * 8) + "\nx" + ",0" * 7 + "\n",
     "line 3: could not convert"),
], ids=["empty", "header-only", "short-row", "non-numeric"])
def test_malformed_trace_is_schema_violation(tmp_path, capsys, text, detail):
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    rc, captured = run(capsys, "check", "--in", str(trace))
    assert rc == 3
    assert captured.out.startswith(f"VIOLATION trace_schema: {detail}"), captured.out


# ---------------------------------------------------------------------------
# solve


def test_solve_basic_report(tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc, _ = run(capsys, "solve", "--basic", "--d", "3", "--n", "12",
                "--eps", "0.01", "--trials", "2", "--seed", "11", "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "solve" and doc["trials"] == 2
    assert [rec["trial"] for rec in doc["results"]] == [0, 1]
    for rec in doc["results"]:
        assert rec["mode"] == "basic"
        assert rec["status"] == "flow"
        assert 0.003 <= rec["input_eps"] <= 0.03
        assert rec["dist"] <= rec["bound_100_d2_n_eps"]
        v = from_dict(rec["output"])
        gram = v.vectors.T @ v.vectors
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-8
        assert np.abs(v.norms2() - 3.0 / 12.0).max() <= 1e-8


def test_solve_byte_determinism(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    argv = ["solve", "--basic", "--d", "3", "--n", "8", "--eps", "0.01",
            "--trials", "2", "--seed", "4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["solve", "--basic", "--d", "3", "--n", "8", "--eps", "0.01",
                 "--trials", "2", "--seed", "5", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_smoothed_solve_leaves_warning_filters_unchanged(capsys):
    # solve_smoothed warns when its global assumption fails; the CLI mutes
    # that warning per trial and must hand the filters back as it found them
    for seed in range(6):
        before = list(warnings.filters)
        rc, _ = run(capsys, "solve", "--smoothed", "--d", "3", "--n", "40",
                    "--trials", "4", "--seed", str(seed))
        assert rc == 0
        assert warnings.filters == before


# ---------------------------------------------------------------------------
# capacity


def test_capacity_matrix_report(tmp_path, capsys):
    obj = tmp_path / "mat.json"
    out = tmp_path / "cap.json"
    run(capsys, "gen", "--kind", "matrix", "--m", "4", "--n", "6", "--seed", "3",
        "--out", str(obj))
    rc, _ = run(capsys, "capacity", "--in", str(obj), "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert doc["schema_version"] == "1" and doc["kind"] == "matrix"
    assert doc["dual_relative_gap"] <= 1e-4
    assert doc["lower"] - 1e-9 <= doc["value"] <= doc["upper"] + 1e-9
    assert doc["method"] in ("scaling-based", "bracket-only")
    assert doc["size"] > 0 and doc["delta"] >= 0


def test_capacity_zero_certificate_surfaces(tmp_path, capsys):
    obj = tmp_path / "tight.json"
    out = tmp_path / "cap.json"
    run(capsys, "gen", "--kind", "tight", "--k", "2", "--out", str(obj))
    rc, _ = run(capsys, "capacity", "--in", str(obj), "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert doc["value"] == 0.0
    assert doc["method"] == "zero-detected"
    assert doc["certificate"] is not None


def test_capacity_singular_operator_is_bracket_only(tmp_path, capsys):
    # diag(1, 1e-7) is invertible, with capacity 2e-7, but its Gram is too
    # near singular to scale: the report keeps the bracket and claims no zero
    obj = tmp_path / "op.json"
    out = tmp_path / "cap.json"
    save_json(OperatorTuple([np.diag([1.0, 1e-7])]), obj)
    rc, _ = run(capsys, "capacity", "--in", str(obj), "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert (doc["method"], doc["converged"], doc["certificate"]) == ("bracket-only", False, None)
    assert doc["lower"] <= 2e-7 <= doc["upper"] == doc["value"]


def test_capacity_exact_frame(tmp_path, capsys):
    obj = tmp_path / "frame.json"
    out = tmp_path / "cap.json"
    run(capsys, "gen", "--d", "3", "--n", "8", "--eps", "0", "--seed", "2",
        "--out", str(obj))
    rc, _ = run(capsys, "capacity", "--in", str(obj), "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert doc["kind"] == "frame"
    assert doc["value"] == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("gen_args", [
    ["--kind", "frame", "--d", "3", "--n", "8", "--eps", "0.01", "--seed", "2"],
    ["--kind", "matrix", "--m", "3", "--n", "4", "--seed", "2"],
    ["--kind", "operator", "--k", "2", "--d", "3", "--n", "3", "--seed", "2"],
], ids=["frame", "matrix", "operator"])
def test_capacity_tol_is_usage_error(tmp_path, capsys, gen_args):
    # every route keeps its library tolerance: a loose imbalance bound would
    # report a matrix's untouched size as its converged capacity
    obj = tmp_path / "obj.json"
    run(capsys, "gen", *gen_args, "--out", str(obj))
    rc, captured = run(capsys, "capacity", "--in", str(obj), "--tol", "1e-9")
    assert rc == 1
    assert captured.err.startswith("usage error: capacity takes no --tol")
    assert captured.out == ""


def test_capacity_matrix_report_carries_convex_flag(tmp_path, capsys):
    for argv in (["--kind", "matrix", "--m", "4", "--n", "6", "--seed", "3"],
                 ["--kind", "tight", "--k", "3"]):
        obj = tmp_path / "mat.json"
        out = tmp_path / "cap.json"
        run(capsys, "gen", *argv, "--out", str(obj))
        rc, _ = run(capsys, "capacity", "--in", str(obj), "--out", str(out))
        assert rc == 0
        doc = load_doc(out)
        assert doc["convex_converged"] is True


def _counted(monkeypatch, name):
    """Wrap `name` in every frameflow module that binds it, and return the
    list of first arguments it is called with."""
    calls = []
    original = getattr(frameflow.capacity, name)

    def counted(obj, *args, **kwargs):
        calls.append(obj)
        return original(obj, *args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("frameflow") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("obj", [
    random_matrix(5, 6, 7),
    random_matrix(5, 6, 7, density=0.7),
    tight_example(3).A,
    near_parseval_frame(3, 12, 0.01, 7)[0],
    random_operator(4, 3, 4, 7),
], ids=["positive-5x6", "holes-5x6", "tight-3", "frame-3x12", "operator"])
def test_capacity_op_runs_each_measure_once(tmp_path, capsys, monkeypatch, obj):
    path = tmp_path / "obj.json"
    path.write_text(dumps(obj))
    zero_checks = _counted(monkeypatch, "capacity_zero_check")
    sizes = _counted(monkeypatch, "size_of")
    deltas = _counted(monkeypatch, "delta_of")
    rc, captured = run(capsys, "capacity", "--in", str(path))
    assert rc == 0, captured.err
    doc = json.loads(captured.out)
    assert len(zero_checks) <= 1
    assert len(deltas) == 1
    # the input, delta_of's one argument, is sized once; the scaling routes
    # also size their balanced outputs
    assert sum(x is deltas[0] for x in sizes) == 1
    assert (doc["size"], doc["delta"]) == (frameflow.size_of(obj), frameflow.delta_of(obj))


@pytest.mark.parametrize("entries, method", [
    ([[5e-324, 1.0], [1.0, 5e-324]], "scaling-based"),
    ([[1e300, 1e-300, 0.0], [0.0, 1e-300, 1e300], [1.0, 0.0, 1e-300]], "bracket-only"),
], ids=["balanced-subnormal", "overflowing-delta"])
def test_capacity_extreme_entries_exit_zero(tmp_path, capsys, entries, method):
    obj = tmp_path / "mat.json"
    obj.write_text(dumps(NonNegMatrix(entries)))
    with np.errstate(over="ignore"):
        rc, captured = run(capsys, "capacity", "--in", str(obj))
    assert rc == 0, captured.err
    doc = json.loads(captured.out, parse_constant=_reject_constant)
    assert doc["method"] == method
    assert doc["converged"] is (method == "scaling-based")
    # JSON has no token for the overflowed delta; the report writes null
    assert (doc["delta"] is None) is (method == "bracket-only")


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


# ---------------------------------------------------------------------------
# check


def test_check_runs_each_recorded_flow_once(monkeypatch):
    # four flow checks read the same three validation-profile flows, which
    # record states with their transforms; the suite is cut to the flow
    # layer, because cap_lower_bracket alone runs Sinkhorn to its cap for minutes
    recorded = {"frame": 0, "matrix": 0, "operator": 0}
    shared = validation_options(record_states=True)

    def counting(kind, flow):
        def wrapper(obj, *args, **kwargs):
            if kwargs.get("opts") == shared:
                recorded[kind] += 1
            return flow(obj, *args, **kwargs)
        return wrapper

    for kind in recorded:
        name = f"{kind}_flow"
        monkeypatch.setattr(checks, name, counting(kind, getattr(checks, name)))
    flow_checks = [fn for fn in checks.ALL_CHECKS if fn.__name__.startswith("check_flow_")]
    assert len(flow_checks) == 6
    monkeypatch.setattr(checks, "ALL_CHECKS", flow_checks)
    checks._flow_triple.cache_clear()
    try:
        results = checks.run_all(seed=0)
    finally:
        checks._flow_triple.cache_clear()
    assert all(res.ok for res in results), results
    assert recorded == {"frame": 1, "matrix": 1, "operator": 1}


def test_check_suite_passes_without_its_capped_check(monkeypatch):
    # every check but cap_lower_bracket, whose Sinkhorn runs to its cap for
    # minutes; the rest take a few seconds together.  Their `name ok detail`
    # lines are pinned by sha256; like the pins of tests/test_answers.py they
    # were recorded with Python 3.11.7 and numpy 2.4.6 (OpenBLAS 0.3.31) on an
    # x86-64 Xeon with AVX-512, and another numpy, LAPACK or CPU may round a
    # printed digit differently; re-record there at a trusted commit
    suite = [fn for fn in checks.ALL_CHECKS if fn is not checks.check_cap_lower_bracket]
    monkeypatch.setattr(checks, "ALL_CHECKS", suite)
    checks._flow_triple.cache_clear()
    try:
        results = checks.run_all(seed=0)
    finally:
        checks._flow_triple.cache_clear()
    assert [res.name for res in results] == [
        "core_delta_eps_bound", "core_delta_zero_iff_balanced",
        "core_embedding_preserves_measures", "core_dist_metric",
        "scaling_sinkhorn_marginals", "scaling_operator_steps",
        "scaling_capacity_covariance", "flow_s_identity", "flow_delta_identity",
        "flow_monotone", "flow_capacity_conserved", "flow_reconstruction",
        "flow_kappa_maintenance", "cap_le_size", "cap_tensor_square_preserved",
        "cap_zero_vs_permanent", "paulsen_solve_basic",
        "paulsen_perturb_constraints", "paulsen_smoothed_invariants",
    ]
    assert all(res.ok for res in results), [res for res in results if not res.ok]
    lines = "\n".join(f"{res.name} {res.ok} {res.detail}" for res in results)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "6d15de1002e1d2e9382841af10964acd410bbf8315c9f78061d4b194587e12f6"), lines


# ---------------------------------------------------------------------------
# perturb


def test_perturb_report(capsys):
    rc, captured = run(capsys, "perturb", "--d", "3", "--n", "40", "--eps", "0",
                       "--sigma2", "1e-6", "--seed", "5")
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["schema_version"] == "1"
    stats = doc["stats"]
    assert set(stats) == {"dist", "delta_before", "delta_after", "max_inner_violation",
                          "outer_violation", "max_norm_error", "z_mass"}
    assert stats["max_norm_error"] <= 1e-12
    assert stats["max_inner_violation"] <= 1e-9
    assert stats["outer_violation"] <= 1e-9
    assert stats["dist"] <= 4.0 * stats["z_mass"]
    assert stats["delta_after"] <= 1e-9
    w = from_dict(doc["output"])
    assert np.abs(w.norms2() - 3.0 / 40.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# config files


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 4, "n": 9, "eps": 0.0}))
    out = tmp_path / "frame.json"
    rc, _ = run(capsys, "gen", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    doc = load_doc(out)
    assert (doc["d"], doc["n"]) == (4, 9)

    rc, _ = run(capsys, "gen", "--config", str(cfg), "--n", "10", "--out", str(out))
    assert rc == 0
    assert load_doc(out)["n"] == 10


def test_config_may_set_fields_the_command_does_not_read(tmp_path, capsys):
    # one config file may serve several commands; only flags are refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-9, "trials": 3, "zeta": 0.5}))
    argv = ["gen", "--d", "2", "--n", "4", "--seed", "3"]
    rc, with_config = run(capsys, *argv, "--config", str(cfg))
    assert rc == 0
    assert run(capsys, *argv) == (0, with_config)


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(capsys, "gen", "--config", str(missing))[0] == 1

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert run(capsys, "gen", "--config", str(bad))[0] == 1

    nondict = tmp_path / "list.json"
    nondict.write_text("[1, 2]")
    assert run(capsys, "gen", "--config", str(nondict))[0] == 1

    unknown = tmp_path / "unknown.json"
    for config in ({"dee": 3}, {"demo": True}):
        unknown.write_text(json.dumps(config))
        rc, captured = run(capsys, "gen", "--config", str(unknown))
        assert rc == 1 and "unknown config keys" in captured.err


def test_main_reuses_one_parser(tmp_path, capsys):
    # main builds its parser once per process; a usage error on it leaves no
    # trace in the next call, whose stdout matches a fresh process
    obj = tmp_path / "mat.json"
    assert main(["gen", "--kind", "matrix", "--m", "4", "--n", "6", "--seed", "3",
                 "--out", str(obj)]) == 0
    assert run(capsys, "capacity", "--in", str(obj), "--seed", "1")[0] == 1
    rc, captured = run(capsys, "capacity", "--in", str(obj))
    assert rc == 0
    fresh = subprocess.run([sys.executable, "-m", "frameflow", "capacity", "--in", str(obj)],
                           env=_package_env(), capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert captured.out == fresh.stdout

    argv = ["solve", "--basic", "--d", "3", "--n", "8", "--eps", "0.01", "--seed", "4"]
    first = run(capsys, *argv)[1].out
    assert run(capsys, *argv, "--bogus")[0] == 1
    assert run(capsys, *argv)[1].out == first


# ---------------------------------------------------------------------------
# declared entry point


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_script_smoke(tmp_path):
    """The `frameflow` command declared in pyproject.toml works as a real
    process: it parses sys.argv, writes the JSON document to stdout, and
    turns main's return value into the exit code.  The declared target is
    run the way the generated console-script wrapper runs it, in a fresh
    interpreter that finds the package on PYTHONPATH, so no install is
    needed."""
    tomllib = pytest.importorskip("tomllib")      # standard library from 3.11
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["frameflow"]
    module, attr = target.split(":")
    wrapper = (f"import sys\nsys.argv[0] = 'frameflow'\n"
               f"from {module} import {attr}\nsys.exit({attr}())")
    env = _package_env()

    def frameflow_cmd(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    proc = frameflow_cmd("gen", "--d", "2", "--n", "4", "--eps", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "frame"

    proc = frameflow_cmd()
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


# ---------------------------------------------------------------------------
# README experiment scripts

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv, last_line", [
    (["basic_distance_table.py", "--d", "2", "--n", "4", "--trials", "2"],
     "   0.0300    0.02972   3.015e-04   3.028e-04   4.756e+01   6.36e-06"),
    (["smoothed_demo.py", "--n", "40", "--quiet-warnings"],
     "result: iterations=20 size=3 delta=8.016e-11 dist=3.1234e-02 total_movement=2.1718e-02"),
    (["rate_experiment.py", "--m", "2", "--n", "4", "--trials", "2"],
     "(size s = 0.283496; a verified rate mu certifies cap >= s - 2*delta0/mu)"),
], ids=["basic_distance_table", "smoothed_demo", "rate_experiment"])
def test_experiment_script_smoke(argv, last_line):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          env=_package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_layer_times_loads_a_second_copy_without_touching_frameflow():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPTS / "layer_times.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def loaded(prefix):
        return {name: mod for name, mod in sys.modules.items()
                if name == prefix or name.startswith(prefix + ".")}

    before = loaded("frameflow")
    try:
        script.load_copy(str(Path(frameflow.__file__).resolve().parent.parent), "frameflow_copy")
        core = importlib.import_module("frameflow_copy.core")
        capacity = importlib.import_module("frameflow_copy.capacity")
        assert loaded("frameflow") == before and sys.modules["frameflow"] is frameflow
        assert core.NonNegMatrix is not NonNegMatrix
        assert capacity.NonNegMatrix is core.NonNegMatrix
        assert capacity.capacity_zero_check(core.NonNegMatrix(np.eye(3))) is None
    finally:
        for name in loaded("frameflow_copy"):
            del sys.modules[name]
