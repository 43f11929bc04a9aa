"""The five benchmark workloads.

Every workload is a closed loop with one client: an op starts when the
previous one has returned.  Ops are grouped in rounds of a fixed
composition, and a run always ends on a round boundary, so the mix of input
families in a run does not depend on where the clock stops.  All inputs are
derived from the workload seed; each op's output is checked against a
reference computed by ``refs`` (numpy only), never by frameflow itself.

CLI ops call ``frameflow.cli.main(argv)`` in-process with ``--trials 1``
(so the worker pool never starts) and capture its standard output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import refs

STRATA_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "strata.json")


@dataclass
class Op:
    family: str                 # input family, for the census
    argv: list | None = None    # CLI arguments (None for a direct library call)
    data: object = None         # input of a direct call
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    unconverged: bool = False
    note: str = ""
    facts: dict = field(default_factory=dict)   # census facts about this op


def run_cli(argv: list) -> tuple[int, str, str]:
    import frameflow.cli as cli   # looked up per call, so traced wrappers apply

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _seed_stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _fail(note: str) -> Outcome:
    return Outcome(False, note=note)


class Workload:
    name = ""
    why = ""
    tail_q = 50                 # percentile reported as op_tail_s
    pool_rounds = 1             # distinct rounds prepared in set-up

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.rounds: list[list[Op]] = []

    def setup(self) -> None:
        """Build the inputs: the program-side set-up that setup_s times."""

    def write_inputs(self, workdir: str) -> None:
        """Write input files for ``--in`` ops."""

    def references(self) -> None:
        """Compute reference answers (benchmark-side, not timed)."""

    def round(self, r: int) -> list[Op]:
        return self.rounds[r % len(self.rounds)]

    def call(self, op: Op):
        return run_cli(op.argv)

    def check(self, op: Op, result) -> Outcome:
        raise NotImplementedError


def _report(result) -> tuple[dict | None, str]:
    rc, out, err = result
    if rc != 0:
        return None, f"exit {rc}: {err.strip()[:200]}"
    try:
        return json.loads(out), ""
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"


# ---------------------------------------------------------------------------
# solve --basic


class SolveBasic(Workload):
    name = "solve-basic"
    why = "target-seeking frame flow on a tiny state (criterion 01): integrator and step control"
    tail_q = 75

    def setup(self):
        d, n = (2, 4) if self.tiny else (3, 12)
        rng = _seed_stream(self.seed, 1)
        self.rounds = [[Op("frame", argv=[
            "solve", "--basic", "--d", str(d), "--n", str(n), "--eps", "0.01",
            "--trials", "1", "--seed", str(int(s))],
            ref={"dist_factor": 100.0, "tol": 1e-8})] for s in rng.integers(0, 2**31, 4096)]

    def check(self, op, result):
        doc, why = _report(result)
        if doc is None:
            return _fail(why)
        rec = doc["results"][0]
        u = np.array(rec["input"]["vectors"], dtype=float)
        v = np.array(rec["output"]["vectors"], dtype=float)
        n, d = u.shape
        if v.shape != u.shape:
            return _fail(f"output shape {v.shape} != input shape {u.shape}")
        tol = op.ref["tol"]
        gram_err = float(np.linalg.norm(v.T @ v - np.eye(d)))
        norm_err = float(np.abs(np.sum(v * v, axis=1) - d / n).max())
        moved = float(np.sum((u - v) ** 2))
        bound = op.ref["dist_factor"] * d * d * n * refs.frame_eps(u)
        if gram_err > tol or norm_err > tol:
            return _fail(f"output not balanced: gram {gram_err:.2e}, norms {norm_err:.2e}")
        if moved > bound:
            return _fail(f"dist {moved:.3e} exceeds 100 d^2 n eps = {bound:.3e}")
        return Outcome(True, unconverged=rec.get("status") != "flow",
                       facts={"dist_over_bound": moved / bound if bound > 0 else 0.0})


# ---------------------------------------------------------------------------
# solve --smoothed


class SolveSmoothed(Workload):
    name = "solve-smoothed"
    why = "the headline perturb/flow/rescale pipeline at n=500 (criterion 10): many short flows on a large state"
    tail_q = 60

    def setup(self):
        d, n = (3, 40) if self.tiny else (3, 500)
        rng = _seed_stream(self.seed, 2)
        self.rounds = [[Op("frame", argv=[
            "solve", "--smoothed", "--d", str(d), "--n", str(n), "--eps", "0.01",
            "--trials", "1", "--seed", str(int(s))],
            ref={"d": d, "final_delta": 1e-10})] for s in rng.integers(0, 2**31, 4096)]

    def check(self, op, result):
        doc, why = _report(result)
        if doc is None:
            return _fail(why)
        rec = doc["results"][0]
        v = np.array(rec["output"]["vectors"], dtype=float)
        d = op.ref["d"]
        delta = refs.frame_delta(v)
        size = refs.frame_size(v)
        if delta > op.ref["final_delta"]:
            return _fail(f"output delta {delta:.3e} > {op.ref['final_delta']:.0e}")
        if abs(size - d) > 1e-12 * d:
            return _fail(f"output size {size!r} != d = {d}")
        records = rec["trace"]["records"]
        if records:
            delta0 = records[0]["delta_before"]
            for item in records:
                if item["delta_after"] > delta0 / 2.0 ** (item["l"] + 1) * (1.0 + 1e-12):
                    return _fail(f"iteration {item['l']} did not halve the imbalance")
        return Outcome(True, facts={"iterations": len(records),
                                    "retries": sum(r.get("retries", 0) for r in records),
                                    "downgraded": int(rec["trace"]["downgraded"])})


# ---------------------------------------------------------------------------
# flow --in, dense recording


FLOW_DROP = 0.1   # each trace runs until delta falls to this share of its start


class FlowTrace(Workload):
    name = "flow-trace"
    why = "dense flow recording (criterion 02 objects and the tight example): matrix/operator flows and CSV export"
    tail_q = 50
    pool_rounds = 8

    def setup(self):
        from frameflow.capacity import tight_example
        from frameflow.generate import random_matrix, random_operator

        if self.tiny:
            shapes = ((2, 2, 3), (2, 3), 1)
        else:
            shapes = ((8, 3, 8), (4, 6), 2)
        (k, m, n), (mm, mn), tight_k = shapes
        self.objects = []
        for r in range(self.pool_rounds):
            self.objects.append([
                ("operator", random_operator(k, m, n, (self.seed, 3, r))),
                ("matrix", random_matrix(mm, mn, (self.seed, 3, r))),
                ("tight", tight_example(tight_k).A),
            ])

    def write_inputs(self, workdir):
        from frameflow.core import save_json

        self.paths = []
        for r, objs in enumerate(self.objects):
            row = []
            for family, obj in objs:
                path = os.path.join(workdir, f"flow-{r}-{family}.json")
                save_json(obj, path)
                row.append(path)
            self.paths.append(row)

    def references(self):
        self.rounds = []
        for objs, paths in zip(self.objects, self.paths):
            ops = []
            for (family, obj), path in zip(objs, paths):
                if family == "operator":
                    s0, delta0 = refs.size_delta("operator", np.asarray(obj.mats))
                else:
                    s0, delta0 = refs.size_delta("matrix", np.asarray(obj.entries))
                tol = FLOW_DROP * delta0
                ops.append(Op(family, argv=["flow", "--in", path, "--tol", repr(tol)],
                              ref={"s0": s0, "delta0": delta0, "tol": tol}))
            self.rounds.append(ops)

    def check(self, op, result):
        rc, out, err = result
        if rc != 0:
            return _fail(f"exit {rc}: {err.strip()[:200]}")
        reader = csv.reader(io.StringIO(out))
        header = next(reader, None)
        if header != ["t", "s", "delta", "ds_dt", "dDelta_dt", "movement", "logdetX", "logdetY"]:
            return _fail(f"unexpected CSV header {header!r}")
        data = np.array([[float(x) for x in row] for row in reader])
        if data.ndim != 2 or data.shape[0] < 3:
            return _fail("trace has fewer than 3 rows")
        t, s, delta, ds_dt, ddelta = (data[:, i] for i in range(5))
        ref = op.ref
        if abs(s[0] - ref["s0"]) > 1e-9 * max(1.0, ref["s0"]) or \
                abs(delta[0] - ref["delta0"]) > 1e-9 * max(1.0, ref["delta0"]):
            return _fail("first row does not match the input's size and imbalance")
        if np.diff(s).max() > 1e-12 or np.diff(delta).max() > 1e-12:
            return _fail("size or imbalance increased along the trace")
        if np.abs(ds_dt + 2.0 * delta).max() > 1e-12 * max(1.0, float(delta.max())):
            return _fail("ds/dt column is not -2 delta")
        scale = np.maximum(1.0, delta[1:-1])
        err_s = float((np.abs(refs.finite_difference(t, s) + 2.0 * delta[1:-1]) / scale).max())
        err_d = float((np.abs(refs.finite_difference(t, delta) - ddelta[1:-1]) / scale).max())
        if err_s > 1e-5 or err_d > 1e-4:
            return _fail(f"derivative identities: |FD(s)+2D| {err_s:.2e}, |FD(D)-D'| {err_d:.2e}")
        return Outcome(True, unconverged=bool(delta[-1] > ref["tol"]),
                       facts={"rows": int(data.shape[0])})


# ---------------------------------------------------------------------------
# capacity --in


# A round is a fixed number of draws from each stratum of strata.json, plus
# fresh operators and two tight examples.  Capped and converging draws
# differ in cost by three orders of magnitude, so drawing them at their
# natural rates would make a run's cost depend on how many capped draws it
# happened to get; instead every round holds exactly one capped frame and
# one capped criterion-04 matrix.  Those two are the same inputs in every
# run (CAPPED), because capped draws also differ from each other by up to
# a third in cost and a run holds only four of them.  The other strata are
# drawn without replacement in a seeded order.  Most ops are millisecond-
# scale criterion-04 draws, so the median op lies well inside one group
# rather than on the edge between two groups of different cost.  Next in
# cost after the capped and medium draws come six copies of the k = 10
# tight example, the largest of criterion 06: the p90 tail lies inside that
# group, which times the zero certificate on a 399 x 399 lift, and the lift
# sets the run's peak memory.
CAPACITY_ROUND = (
    [("frame", "cap"), ("c04", "cap"), ("c05", "medium")]
    + [("c05", "fast")] * 4 + [("frame", "fast")] * 4 + [("c04", "fast")] * 40
    + [("operator", None)] * 2 + [("tight", 10)] * 6 + [("tight", None)]
)
CAPPED = {"frame": 23, "c04": 28}
TINY_ROUND = [("c04", "fast"), ("c05", "fast"), ("operator", None), ("tight", None)]


def strata() -> dict:
    with open(STRATA_FILE) as fh:
        return json.load(fh)


def capacity_input(family: str, j: int, master: int, tiny: bool = False):
    """The j-th seeded draw of a capacity family (criterion generators)."""
    from frameflow.core import NonNegMatrix
    from frameflow.generate import near_parseval_frame

    if family == "c04":
        rng = np.random.default_rng([master, 4, j])
        m, n = rng.integers(1, 7, 2)
        ent = rng.uniform(0.0, 1.0, (m, n)) ** 2
        if rng.random() < 0.3:
            ent *= rng.random((m, n)) < 0.8
        return NonNegMatrix(ent)
    if family == "c05":
        rng = np.random.default_rng([master, 5, j])
        return NonNegMatrix(rng.uniform(0.05, 1.0, (4, 4)))
    if family == "frame":
        d, n = (2, 4) if tiny else (3, 12)
        return near_parseval_frame(d, n, 0.01, (master, 3, j))[0]
    raise ValueError(family)


class Capacity(Workload):
    name = "capacity"
    why = "capacity routes and discrete scaling over criterion 03-06 inputs, capped and converging draws in fixed shares"
    tail_q = 90
    pool_rounds = 2

    def setup(self):
        from frameflow.capacity import tight_example
        from frameflow.generate import random_operator

        table = strata()
        rng = _seed_stream(self.seed, 4)
        order = {}      # stratum -> members in a seeded order, drawn in turn
        self.objects = []
        for r in range(self.pool_rounds):
            objs = []
            for i, (family, stratum) in enumerate(TINY_ROUND if self.tiny else CAPACITY_ROUND):
                if family == "operator":
                    objs.append(("operator", random_operator(4, 3, 4, (self.seed, 4, r, i))))
                elif family == "tight":
                    k = stratum if stratum is not None else int(rng.integers(2, 10))
                    objs.append(("tight", tight_example(k).A))
                else:
                    if stratum == "cap":
                        j = CAPPED[family]
                    else:
                        members = order.setdefault((family, stratum), [])
                        if not members:
                            members.extend(rng.permutation(table["families"][family][stratum]))
                        j = int(members.pop())
                    objs.append((f"{family}-{stratum}",
                                 capacity_input(family, j, table["master"], self.tiny)))
            self.objects.append(objs)

    def write_inputs(self, workdir):
        from frameflow.core import save_json

        self.paths = []
        for r, objs in enumerate(self.objects):
            row = []
            for i, (_, obj) in enumerate(objs):
                path = os.path.join(workdir, f"capacity-{r}-{i}.json")
                save_json(obj, path)
                row.append(path)
            self.paths.append(row)

    def references(self):
        from frameflow.core import Frame, OperatorTuple

        self.rounds = []
        for objs, paths in zip(self.objects, self.paths):
            ops = []
            for (family, obj), path in zip(objs, paths):
                if isinstance(obj, Frame):
                    kind, arr = "frame", np.asarray(obj.vectors)
                    zero = np.linalg.matrix_rank(arr) < arr.shape[1]
                    support = None
                elif isinstance(obj, OperatorTuple):
                    kind, arr = "operator", np.asarray(obj.mats)
                    zero, support = False, None
                else:
                    kind, arr = "matrix", np.asarray(obj.entries)
                    support = refs.lifted_support(arr > 0.0)
                    zero = not refs.has_perfect_matching(support)
                lower, upper = refs.bracket(kind, arr)
                ops.append(Op(family, argv=["capacity", "--in", path], ref={
                    "kind": kind, "zero": bool(zero), "lower": lower, "upper": upper,
                    "support": support}))
            self.rounds.append(ops)

    def check(self, op, result):
        doc, why = _report(result)
        if doc is None:
            return _fail(why)
        ref = op.ref
        value = doc["value"]
        if doc["kind"] != ref["kind"]:
            return _fail(f"report kind {doc['kind']!r} != {ref['kind']!r}")
        if not ref["lower"] - 1e-9 <= value <= ref["upper"] + 1e-9:
            return _fail(f"value {value!r} outside [{ref['lower']!r}, {ref['upper']!r}]")
        if (value == 0.0) != ref["zero"]:
            return _fail(f"value {value!r} but reference says zero={ref['zero']}")
        if ref["zero"] and ref["support"] is not None:
            if not refs.hall_witness_ok(ref["support"], doc.get("certificate")):
                return _fail("zero capacity without a valid Hall witness on the lifted matrix")
        facts = {}
        if ref["kind"] == "matrix":
            if value > 0.0 and not doc["dual_relative_gap"] <= 1e-4:
                return _fail(f"routes disagree: relative gap {doc['dual_relative_gap']!r}")
            # the report carries the scaling route's flag only
            facts["convex_flag_missing"] = int("convex_converged" not in doc)
        unconverged = doc.get("converged") is False or doc.get("method") == "bracket-only"
        return Outcome(True, unconverged=unconverged, facts=facts)


# ---------------------------------------------------------------------------
# zero-capacity oracle, direct library calls


class ZeroOracle(Workload):
    name = "zero-oracle"
    why = "capacity_zero_check on 5x5 patterns (criterion 11) plus lifted rectangular ones: matching and NonNegMatrix"
    tail_q = 95
    LIFTED_SHARE = 1.0 / 8.0

    def setup(self):
        import frameflow.capacity
        import frameflow.core

        self.cap, self.core = frameflow.capacity, frameflow.core
        size = 256 if self.tiny else 8192
        rng = _seed_stream(self.seed, 5)
        pats = []
        for _ in range(size):
            if rng.random() < self.LIFTED_SHARE:
                while True:
                    m, n = (int(x) for x in rng.integers(1, 7, 2))
                    if m != n:
                        break
                pat = rng.random((m, n)) < rng.uniform(0.3, 0.95)
            elif rng.random() < 0.5:
                # criterion 11's exhaustive part: patterns with at most 8 ones
                pat = np.zeros(25, dtype=bool)
                pat[rng.choice(25, size=int(rng.integers(0, 9)), replace=False)] = True
                pat = pat.reshape(5, 5)
            else:
                pat = rng.random((5, 5)) < rng.uniform(0.1, 0.9)
            pats.append(pat.astype(np.float64))
        self.patterns = pats

    def references(self):
        square = [i for i, p in enumerate(self.patterns) if p.shape == (5, 5)]
        positive = np.zeros(len(self.patterns), dtype=bool)
        if square:
            stack = np.stack([self.patterns[i] > 0.0 for i in square])
            positive[square] = refs.permanent_positive(stack)
        self.rounds = []
        for i, pat in enumerate(self.patterns):
            support = refs.lifted_support(pat > 0.0)
            lifted = pat.shape[0] != pat.shape[1]
            if lifted:
                positive[i] = refs.has_perfect_matching(support)
            family = "lifted" if lifted else "5x5"
            self.rounds.append([Op(family, data=pat, ref={
                "positive": bool(positive[i]), "support": support})])

    def call(self, op):
        # attribute lookups at call time, so traced wrappers apply
        return self.cap.capacity_zero_check(self.core.NonNegMatrix(op.data))

    def check(self, op, result):
        if (result is None) != op.ref["positive"]:
            return _fail(f"zero check says positive={result is None}, reference {op.ref['positive']}")
        if result is not None and not refs.hall_witness_ok(op.ref["support"], result):
            return _fail("invalid Hall witness")
        return Outcome(True, facts={"zero": int(result is not None)})


WORKLOADS = {w.name: w for w in (SolveBasic, SolveSmoothed, FlowTrace, Capacity, ZeroOracle)}
