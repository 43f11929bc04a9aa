"""Outside-in tracing of frameflow's module functions.

Each traced function is replaced by a timing wrapper in every frameflow
module that holds a reference to it: ``from .x import f`` binds ``f`` again
in each importer, so patching only the defining module would miss the calls
made through ``paulsen.frame_flow``, ``cli.solve_basic``, ``capacity.sinkhorn``
and the rest.  A span stack gives self time (a span's duration minus the
time covered by its child spans), and work counters are read from the
values the functions return.  Nothing in the program's source changes.
"""

from __future__ import annotations

import sys
import time

# (module, function, layer name used in metric names, extra counters)
TARGETS = [
    ("core", "delta_of", "core", ()),
    ("core", "eps_nearness", "core", ()),
    ("core", "NonNegMatrix", "core", ()),
    ("_jacobi", "jacobi_eigh", "jacobi", ()),
    ("_jacobi", "sym_inv_sqrt", "jacobi", ()),
    ("_jacobi", "sym_sqrt", "jacobi", ()),
    ("generate", "near_parseval_frame", "generate", ()),
    ("discrete_scaling", "sinkhorn", "discrete_scaling", ("iterations", "unconverged")),
    ("discrete_scaling", "operator_sinkhorn", "discrete_scaling", ("iterations", "unconverged")),
    ("discrete_scaling", "frame_alternating", "discrete_scaling", ("iterations", "unconverged")),
    ("dynamics", "frame_flow", "dynamics", ("samples", "t_max")),
    ("dynamics", "matrix_flow", "dynamics", ("samples", "t_max")),
    ("dynamics", "operator_flow", "dynamics", ("samples", "t_max")),
    ("dynamics", "trajectory_csv", "dynamics", ()),
    ("capacity", "matrix_capacity", "capacity", ("unconverged",)),
    ("capacity", "matrix_capacity_convex", "capacity", ("unconverged",)),
    ("capacity", "frame_capacity", "capacity", ("unconverged",)),
    ("capacity", "operator_capacity", "capacity", ("unconverged",)),
    ("capacity", "capacity_zero_check", "capacity", ("zero",)),
    ("capacity", "capacity_bounds", "capacity", ()),
    ("paulsen", "solve_basic", "paulsen", ()),
    ("paulsen", "solve_smoothed", "paulsen", ("iterations", "retries")),
    ("paulsen", "perturb", "paulsen", ()),
    ("cli", "main", "cli", ()),
]

MAX_SPANS = 50_000


def _count(stat: str, result) -> int:
    """Work counter `stat` read from a traced function's return value."""
    if stat == "iterations" and isinstance(result, tuple) and len(result) == 3:
        return result[2].iterations                       # IterationReport
    if stat == "iterations":
        return len(result[1].records)                     # PathTrace
    if stat == "retries":
        return sum(int(rec.get("retries", 0)) for rec in result[1].records)
    if stat == "unconverged" and isinstance(result, tuple):
        return int(not result[2].converged)
    if stat == "unconverged":
        return int(not result.converged)                  # CapacityResult
    if stat == "samples":
        return len(result[1])                             # Trajectory
    if stat == "t_max":
        return int(result[1].status == "t_max")
    if stat == "zero":
        return int(result is not None)                    # Hall witness
    raise ValueError(stat)


class Tracer:
    """Span stack, per-function statistics and a bounded span record."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []      # (name, start, end, parent span, op)
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []      # [span id, child seconds]
        self._undo: list[tuple] = []

    def _wrap(self, key: str, fn, extra):
        stats = self.stats.setdefault(key, {"calls": 0, "self_s": 0.0, **{e: 0 for e in extra}})
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = len(spans) + self.dropped
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((key, start, end, parent, self.op))
                else:
                    self.dropped += 1
            for stat in extra:
                stats[stat] += _count(stat, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of each target in the loaded frameflow modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "frameflow" or name.startswith("frameflow.")) and m is not None]
        for mod_name, func, layer, extra in TARGETS:
            key = f"{layer}.{func}"
            original = getattr(sys.modules[f"frameflow.{mod_name}"], func)
            if isinstance(original, type):
                # a class: every importer shares the class object, so its
                # constructor is patched once
                init = original.__init__
                original.__init__ = self._wrap(key, init, extra)
                self._undo.append((original, "__init__", init))
                continue
            wrapped = self._wrap(key, original, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_seconds(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every counter, for per-op differences."""
        return {f"{key}.{stat}": value for key, st in self.stats.items()
                for stat, value in st.items()}

    def metrics(self) -> dict[str, float]:
        out = {}
        for _, func, layer, extra in TARGETS:
            st = self.stats.get(f"{layer}.{func}", {})
            for stat in ("calls", "self_s") + tuple(extra):
                out[f"{layer}.{func}.{stat}"] = st.get(stat, 0)
        return out
