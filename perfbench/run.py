"""frameflow benchmark: one workload, one closed-loop client, one run.

    python3 perfbench/run.py --workload solve-basic --seed 1 --seconds 20 --trace 0

Run from the root of a frameflow checkout; the program is imported from
``src/`` there.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the same numbers for people, together with the
environment and contention record and the property census.  A full record
of the run (and, for a traced run, its spans) goes to ``.perfbench_out/``.

End-to-end metrics (tracing off):
  ops_per_s        ops completed per second of time spent inside ops: the
                   median over about ten blocks of whole rounds
  op_p50_s         median op latency
  op_tail_s        op latency at the workload's fixed tail percentile
  ok_frac          share of attempted ops that returned and passed the check
  converged_frac   share of ops whose result says it converged
  setup_s          median of SETUP_REPEATS fresh set-ups (interpreter start,
                   import, input generation), each in its own process
  peak_rss_mb      peak resident set size of this process

The four time metrics are given at a fixed reference machine speed.  The
machine this benchmark was built on runs the same work up to twice as slowly
for minutes at a time, with CPU time equal to wall time.  So a run times a
fixed probe of interpreter and small-array numpy work between ops (every
PROBE_EVERY seconds) and scales each op's measured latency by REF_PROBE_S
over the median of the probes within PROBE_WINDOW seconds of it (a set-up
time by the probes just before and after it).  The measured ("raw") values
are printed beside the scaled ones and kept in the record.

``ok_frac`` and ``converged_frac`` are 1 - error_frac and 1 -
unconverged_frac, which are printed too.  A traced run first runs the loop
untraced for half the time, then replays exactly the same ops with every
function of ``tracer.TARGETS`` wrapped; the two halves give the tracing
overhead on identical work.
"""

from __future__ import annotations

import argparse
import array
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
BLOCKS = 10
PROBE_EVERY = 0.25
PROBE_WINDOW = 1.5     # probes this close to an op set its speed
# median probe time on an otherwise idle 2-core x86-64 box (Python 3.11,
# numpy 2.4), the speed at which the time metrics are reported
REF_PROBE_S = 0.0045


def _import_program():
    """Import frameflow from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "frameflow", "__init__.py")):
        print(f"perfbench: no frameflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import frameflow.cli  # noqa: F401  (loads every module the CLI uses)

    import frameflow
    if os.path.dirname(os.path.abspath(frameflow.__file__)) != os.path.join(SRC, "frameflow"):
        print("perfbench: imported frameflow is not this checkout's", file=sys.stderr)
        sys.exit(2)


def _percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# environment and contention record


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    the kind of work the program does (about 4.5 ms on an idle machine)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    a = np.arange(16.0).reshape(4, 4) / 16.0
    for _ in range(1_000):
        a = np.tanh(a @ a.T + 0.5)
    return time.perf_counter() - t0


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {"name": v.get("name"), "version": v.get("version")}
                for k, v in deps.items() if k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FRAMEFLOW_THREADS")},
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Wall time of SETUP_REPEATS fresh set-ups, each in its own process:
    interpreter start, import of the program, and input generation.  Returns
    (raw times, times at the reference speed), each set-up scaled by the
    probes taken just before and after it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    raw, scaled = [], []
    before = speed_probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-400:]}")
        after = speed_probe()
        scaled.append(raw[-1] * REF_PROBE_S / (0.5 * (before + after)))
        before = after
    return raw, scaled


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs rounds of ops, times each call, checks each output, and probes
    the machine's speed between ops."""

    def __init__(self, wl):
        self.wl = wl
        # per-op arrays stay small even for the 10^5 ops of a fast workload
        self.latencies = array.array("d")
        self.starts = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self.errors: list[str] = []
        self.census: dict[str, dict] = {}
        self.round_ends = array.array("q")  # ops completed at the end of each round
        self.probes: list[float] = []
        self.probe_at: list[float] = []              # when each probe ended
        self._last_probe = -1e9

    def probe(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last_probe >= PROBE_EVERY:
            self.probes.append(speed_probe())
            self._last_probe = time.perf_counter()
            self.probe_at.append(self._last_probe)

    def speed_scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median probe near [start, end]: below 1
        while the machine runs slowly."""
        lo = bisect.bisect_left(self.probe_at, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.probe_at, end + PROBE_WINDOW)
        if lo == hi:   # no probe that close: take the nearest one
            lo = max(0, min(lo, len(self.probes) - 1))
            hi = lo + 1
        return REF_PROBE_S / statistics.median(self.probes[lo:hi])

    def scaled_latencies(self) -> array.array:
        return array.array("d", (lat * self.speed_scale(t0, t0 + lat)
                                 for lat, t0 in zip(self.latencies, self.starts)))

    def run_op(self, op, tracer=None) -> None:
        import workloads

        self.attempted += 1
        before = tracer.snapshot() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            result = self.wl.call(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = workloads.Outcome(False, note=f"{type(exc).__name__}: {exc}")
        else:
            outcome = None
        self.latencies.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if outcome is None:
            try:
                outcome = self.wl.check(op, result)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                outcome = workloads.Outcome(False, note=f"malformed output: {exc!r}")
        if not outcome.ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.family}: {outcome.note}")
        self.unconverged += int(outcome.unconverged)
        cen = self.census.setdefault(op.family, {"ops": 0, "unconverged": 0, "seconds": 0.0})
        cen["ops"] += 1
        cen["unconverged"] += int(outcome.unconverged)
        cen["seconds"] += self.latencies[-1]
        for key, value in outcome.facts.items():
            cen[key] = cen.get(key, 0) + value
        if before is not None:
            # which routes stopped at an iteration cap, per input family
            cen["traced"] = cen.get("traced", 0) + 1
            after = tracer.snapshot()
            for key in ("capacity.matrix_capacity_convex.unconverged",
                        "capacity.frame_capacity.unconverged",
                        "capacity.matrix_capacity.unconverged",
                        "discrete_scaling.sinkhorn.unconverged"):
                diff = after.get(key, 0) - before.get(key, 0)
                if diff:
                    name = "capped:" + key.split(".")[1]
                    cen[name] = cen.get(name, 0) + diff

    def run_rounds(self, seconds: float) -> int:
        """Whole rounds until `seconds` of wall time have passed."""
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            for op in self.wl.round(rounds):
                self.run_op(op)
                self.probe()
            rounds += 1
            self.round_ends.append(len(self.latencies))
            if time.perf_counter() >= deadline:
                return rounds

    def replay(self, rounds: int, tracer) -> None:
        for r in range(rounds):
            for op in self.wl.round(r):
                tracer.op = self.attempted
                self.run_op(op, tracer)
                self.probe()


def block_throughput(latencies, round_ends) -> list[float]:
    """Ops per second inside ops, for each of about BLOCKS blocks of whole
    rounds.  The median block is insensitive to a slow spell of the machine
    that covers less than half the run."""
    per_block = max(1, len(round_ends) // BLOCKS)
    bounds = [0] + list(round_ends[per_block - 1::per_block])
    bounds[-1] = round_ends[-1]     # a short last block joins the one before
    return [(hi - lo) / sum(latencies[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _times(latencies, round_ends, tail_q: float, setup_s: float) -> dict:
    lat = np.sort(np.frombuffer(latencies))
    return {
        "ops_per_s": statistics.median(block_throughput(latencies, round_ends)),
        "op_p50_s": _percentile(lat, 50),
        "op_tail_s": _percentile(lat, tail_q),
        "setup_s": setup_s,
    }


def end_to_end(loop: Loop, wl, setup_raw: list[float], setup_scaled: list[float]):
    """(metrics, raw times, notes); metrics map name -> (value, unit)."""
    raw = _times(loop.latencies, loop.round_ends, wl.tail_q, statistics.median(setup_raw))
    scaled = _times(loop.scaled_latencies(), loop.round_ends, wl.tail_q,
                    statistics.median(setup_scaled))
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_s": (scaled["op_p50_s"], "s"),
        "op_tail_s": (scaled["op_tail_s"], "s"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "converged_frac": ((loop.attempted - loop.unconverged) / loop.attempted, "ratio"),
        "setup_s": (scaled["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(loop.latencies)
    beyond = sum(1 for x in loop.latencies if x > raw["op_tail_s"])
    notes = {
        "ops_per_s": f"median of {len(block_throughput(loop.latencies, loop.round_ends))} "
                     f"blocks of whole rounds; {n} ops in {sum(loop.latencies):.3f} s inside ops",
        "op_tail_s": f"p{wl.tail_q} over {n} ops, {beyond} beyond it",
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setup_raw) + " s raw",
    }
    return metrics, raw, notes


def print_census(census: dict) -> None:
    print("census (per input family):")
    for family, cen in sorted(census.items()):
        ops = cen["ops"]
        # capped:<route> counts come from the traced half only
        extras = ", ".join(
            f"{k} {v / (cen['traced'] if k.startswith('capped:') else ops):.3g}/op"
            for k, v in sorted(cen.items()) if k not in ("ops", "unconverged", "seconds", "traced"))
        print(f"  {family:12s} {ops:7d} ops  {cen['seconds'] / ops:10.6f} s/op raw  "
              f"unconverged {cen['unconverged'] / ops:.3f}" + (f"  {extras}" if extras else ""))


def traced_metrics(tr, loop: Loop, n_untraced: int) -> dict:
    """Per-layer metrics of the traced replay of the first n_untraced ops.
    The overhead compares the two halves at the reference speed; the
    coverage compares raw self times with the raw traced op time."""
    scaled = loop.scaled_latencies()
    untraced = sum(scaled[:n_untraced])
    traced_scaled = sum(scaled[n_untraced:])
    traced = sum(loop.latencies[n_untraced:])
    per_layer = tr.metrics()
    per_layer["cli.cmd_capacity.convex_flag_missing"] = sum(
        c.get("convex_flag_missing", 0) for c in loop.census.values())
    per_layer["trace_overhead_frac"] = traced_scaled / untraced - 1.0
    per_layer["trace_coverage_frac"] = tr.self_seconds() / traced
    metrics = {}
    for name, value in per_layer.items():
        stat = name.rsplit(".", 1)[-1]
        unit = "s" if stat == "self_s" else "ratio" if name.endswith("_frac") else "count"
        metrics[name] = {"value": value, "unit": unit}
    print(f"traced replay: same ops {untraced:.3f} s untraced, {traced_scaled:.3f} s traced "
          f"(at the reference speed); self times cover {tr.self_seconds():.3f} s of the "
          f"{traced:.3f} s raw traced time")
    print("per layer (calls, self seconds raw, share of traced op time):")
    for key, st in sorted(tr.stats.items(), key=lambda kv: -kv[1]["self_s"]):
        share = st["self_s"] / traced
        extra = ", ".join(f"{k} {v}" for k, v in st.items() if k not in ("calls", "self_s"))
        print(f"  {key:40s} {st['calls']:9d} {st['self_s']:10.4f} s {share:7.1%}"
              + (f"  ({extra})" if extra else ""))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_only:
        wl.setup()
        return 0

    env = environment()
    load_before = os.getloadavg()
    setup_raw, setup_scaled = measure_setup(args.workload, args.seed, args.tiny)
    loop = Loop(wl)

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl.setup()
        wl.write_inputs(workdir)
        wl.references()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if args.trace:
            import tracer as tracer_mod

            rounds = loop.run_rounds(args.seconds / 2.0)
            n_untraced = len(loop.latencies)
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                loop.replay(rounds, tr)
            finally:
                tr.uninstall()
        else:
            rounds = loop.run_rounds(args.seconds)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop.probe(force=True)
    load_after = os.getloadavg()

    probes = sorted(loop.probes)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "attempted": loop.attempted, "failed": loop.failed,
        "latency_percentiles_s": {q: _percentile(np.sort(np.frombuffer(loop.latencies)), q)
                                  for q in (5, 10, 25, 50, 60, 70, 75, 80, 90, 95, 99, 100)},
        "errors": loop.errors, "census": loop.census,
        "environment": dict(env, load_before=load_before, load_after=load_after,
                            probes=len(probes), probe_s={q: _percentile(probes, q)
                                                        for q in (0, 25, 50, 75, 100)},
                            probe_first_last_s=[loop.probes[0], loop.probes[-1]],
                            loop_cpu_over_wall=cpu / wall if wall > 0 else None),
    }

    print(f"workload {wl.name}  seed {args.seed}  {rounds} rounds, {loop.attempted} ops, "
          f"one client, closed loop  ({wl.why})")
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas'].get('blas', {}).get('version')}, "
          f"blas threads env {env['blas_threads_env']}, "
          f"load {load_before[0]:.2f} -> {load_after[0]:.2f}, "
          f"loop cpu/wall {record['environment']['loop_cpu_over_wall']:.3f}")
    print(f"speed probe: {len(probes)} probes, median {_percentile(probes, 50) * 1e3:.3f} ms "
          f"(quartiles {_percentile(probes, 25) * 1e3:.3f}-{_percentile(probes, 75) * 1e3:.3f}, "
          f"first {loop.probes[0] * 1e3:.3f}, last {loop.probes[-1] * 1e3:.3f}); "
          f"reference {REF_PROBE_S * 1e3:.3f} ms")
    for err in loop.errors:
        print(f"  FAILED {err}")

    if args.trace:
        metrics = traced_metrics(tr, loop, n_untraced)
        record["spans"] = {"dropped": tr.dropped, "fields": ["name", "start", "end", "parent", "op"],
                           "spans": tr.spans}
    else:
        e2e, raw, notes = end_to_end(loop, wl, setup_raw, setup_scaled)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        record["raw"] = raw
        print("end to end (times at the reference speed; raw = as measured):")
        for name, (value, unit) in e2e.items():
            line = f"  {name:16s} {value:.6g} {unit}"
            if name in raw:
                line += f"  (raw {raw[name]:.6g})"
            print(line + (f"  ({notes[name]})" if name in notes else ""))
        print(f"  {'error_frac':16s} {loop.failed / loop.attempted:.6g} ratio  "
              f"({loop.failed} of {loop.attempted} ops)")
        print(f"  {'unconverged_frac':16s} {loop.unconverged / loop.attempted:.6g} ratio")
    print_census(loop.census)
    record["metrics"] = metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
