"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints a last line with
exactly the keys the contract names and every metric of BENCHMARK.json
with its unit; that a corrupted reference answer is counted as a failed op;
and that the benchmark exits non-zero without a result where the program's
sources are missing.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# how to corrupt one reference answer of each workload
CORRUPT = {
    "solve-basic": lambda ref: ref.update(dist_factor=0.0),
    "solve-smoothed": lambda ref: ref.update(d=ref["d"] + 1),
    "flow-trace": lambda ref: ref.update(s0=2.0 * ref["s0"]),
    "capacity": lambda ref: ref.update(zero=not ref["zero"]),
    "zero-oracle": lambda ref: ref.update(positive=not ref["positive"]),
}


def _run(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_outputs(spec: dict, problems: list) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run([RUN, "--workload", wl["name"], "--seed", "0", "--seconds", "0.3",
                         "--trace", str(trace), "--tiny"])
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: last line keys {sorted(last)}")
                continue
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                problems.append(f"{where}: correct={last['correct']} failed={last['failed']} "
                                f"attempted={last['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and want[n] != got[n]]}")
            for name, m in last["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"ok   {where}: {len(got)} metrics, {last['attempted']} ops", flush=True)


def check_corrupted_reference(problems: list) -> None:
    sys.path.insert(0, HERE)
    import run
    run._import_program()
    import workloads

    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, corrupt in CORRUPT.items():
            wl = workloads.WORKLOADS[name](0, tiny=True)
            wl.setup()
            wl.write_inputs(workdir)
            wl.references()
            op = wl.round(0)[0]
            loop = run.Loop(wl)
            loop.run_op(op)
            corrupt(op.ref)
            loop.run_op(op)
            if loop.attempted != 2 or loop.failed != 1:
                problems.append(f"{name}: corrupted reference gave failed={loop.failed} "
                                f"of {loop.attempted} (want 1 of 2)")
            else:
                print(f"ok   {name}: corrupted reference counted as a failed op", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(problems: list) -> None:
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["perfbench/run.py", "--workload", "solve-basic", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print(f"ok   bare directory: exit {proc.returncode}, no result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems: list[str] = []
    check_outputs(spec, problems)
    check_corrupted_reference(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
