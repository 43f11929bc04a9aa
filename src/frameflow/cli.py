"""Batch experiment driver: frameflow COMMAND [flags].

commands:
  gen       generate a frame, operator, matrix or tight-example object
  flow      integrate the flow for an object and emit its CSV trace
  solve     run the basic or smoothed pipeline over seeded trials
  capacity  capacity report for an object, with both matrix routes
  perturb   one perturbation step with its constraint stats
  check     run the full invariant suite, or revalidate a saved trace

Each command accepts only the flags it reads, and any other flag is a usage
error.  A --config JSON file may set any field, so one file can serve
several commands; flags given on the command line override it.

Exit codes: 0 success, 1 usage (bad flags, unreadable/malformed input),
2 numeric failure, 3 invariant violation.  Outputs are deterministic for a
fixed config and seed: JSON is emitted with sorted keys and no timestamps,
trials are seeded by (seed, trial-index) and run in index order.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings

import numpy as np

from .capacity import CapacityError, capacity_report, tight_example
from .core import (
    SCHEMA_VERSION,
    Frame,
    NonNegMatrix,
    OperatorTuple,
    delta_of,
    dist,
    eps_nearness,
    load_json,
    to_dict,
)
from .discrete_scaling import ScalingError
from .dynamics import (
    FlowError,
    frame_flow,
    matrix_flow,
    operator_flow,
    trajectory_csv,
    validation_options,
)
from .generate import near_parseval_frame, random_matrix, random_operator
from .paulsen import PerturbationError, perturb, perturbation_stats, solve_basic, solve_smoothed
from . import checks as checks_mod


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclasses.dataclass
class RunConfig:
    """Merged flags and config file.  Solver and capacity parameters left at
    None take the library's defaults."""

    seed: int = 0
    d: int = 3
    n: int = 12
    m: int = 4
    k: int = 4
    eps: float = 0.01
    sigma2: float = 1e-6
    tol: float | None = None
    trials: int = 1
    out: str | None = None
    infile: str | None = None
    kind: str = "frame"
    mode: str = "basic"
    zeta: float | None = None
    kappa: float | None = None
    t_max: float | None = None
    final_delta: float | None = None

    def validate(self) -> None:
        """Check the type and range of every field.  Ranges are written as
        lo <= x < hi and tested negated, so NaN fails every one of them."""
        for name in ("seed", "d", "n", "m", "k", "trials"):
            value, lo = getattr(self, name), 0 if name == "seed" else 1
            if type(value) is not int or not lo <= value:
                raise UsageError(f"{name} must be an integer >= {lo}")
        for name, lo, hi in (("eps", 0.0, 1.0), ("sigma2", 0.0, math.inf)):
            value = getattr(self, name)
            if not (_is_real(value) and lo <= value < hi):
                raise UsageError(f"{name} must be a number in [{lo:g}, {hi:g})")
        for name in ("tol", "final_delta", "zeta", "kappa", "t_max"):
            value = getattr(self, name)
            if value is not None and not (_is_real(value) and 0.0 < value < math.inf):
                raise UsageError(f"{name} must be a positive finite number")
        for name in ("out", "infile"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise UsageError(f"{name} must not be {getattr(self, name)!r}")
        if self.mode not in ("basic", "smoothed"):
            raise UsageError(f"mode must be basic or smoothed, not {self.mode!r}")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _given(**params) -> dict:
    """The keyword arguments that are set; the callee supplies the rest."""
    return {key: value for key, value in params.items() if value is not None}


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}

# the RunConfig fields each command reads; every command also reads out
_READS = {
    "gen": ("kind", "seed", "d", "n", "m", "k", "eps"),
    "flow": ("infile", "tol", "t_max"),
    "solve": ("mode", "seed", "d", "n", "eps", "trials", "infile", "zeta", "kappa",
              "final_delta", "t_max"),
    "capacity": ("infile",),
    "perturb": ("seed", "d", "n", "eps", "sigma2", "infile"),
    "check": ("seed", "infile"),
}


def _build_config(args: argparse.Namespace, parser: _Parser) -> RunConfig:
    """Merge config file and flags, validate the values, then refuse any flag
    the command does not read, so a bad value fails on its own message."""
    merged = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    cfg = RunConfig(**merged)
    cfg.validate()
    reads = _READS[args.command] + ("out",)
    for action in parser._actions:
        if action.dest in _DEFAULTS and action.dest not in reads \
                and getattr(args, action.dest) is not None:
            flags = [a.option_strings[0] for a in parser._actions if a.dest == action.dest]
            raise UsageError(f"{args.command} takes no {' or '.join(flags)}")
    return cfg


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _dump_report(doc: dict) -> str:
    """The report as strict JSON.  JSON has no token for a non-finite float,
    so a report holding one (an overflowed measure) is dumped again with
    each such value as null; a finite report is dumped once."""
    doc.setdefault("schema_version", SCHEMA_VERSION)
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        return json.dumps(_finite_or_null(doc), sort_keys=True, allow_nan=False)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def _load_object(cfg: RunConfig):
    if cfg.infile is None:
        raise UsageError("--in is required for this subcommand")
    try:
        return load_json(cfg.infile)
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}") from exc
    except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed object JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.kind == "frame":
        frame, measured = near_parseval_frame(cfg.d, cfg.n, cfg.eps, cfg.seed)
        doc = to_dict(frame)
        doc["meta"] = {"seed": cfg.seed, "requested_eps": cfg.eps, "measured_eps": measured}
    elif cfg.kind == "operator":
        doc = to_dict(random_operator(cfg.k, cfg.d, cfg.n, cfg.seed))
        doc["meta"] = {"seed": cfg.seed}
    elif cfg.kind == "matrix":
        doc = to_dict(random_matrix(cfg.m, cfg.n, cfg.seed))
        doc["meta"] = {"seed": cfg.seed}
    elif cfg.kind == "tight":
        ex = tight_example(cfg.k)
        doc = to_dict(ex.A)
        doc["meta"] = {"k": ex.k, "x": ex.x, "y": ex.y, "E": ex.E, "F": ex.F}
    else:
        raise UsageError(f"unknown --kind {cfg.kind!r} (frame|operator|matrix|tight)")
    _emit(json.dumps(doc, sort_keys=True), cfg.out)
    return 0


def cmd_flow(cfg: RunConfig) -> int:
    obj = _load_object(cfg)
    flows = {Frame: frame_flow, OperatorTuple: operator_flow, NonNegMatrix: matrix_flow}
    flow = flows[type(obj)]
    # fine recording profile so the emitted trace re-validates against the
    # derivative identities under `check`
    _, traj = flow(obj, opts=validation_options(),
                   **_given(target_delta=cfg.tol, t_max=cfg.t_max))
    _emit(trajectory_csv(traj), cfg.out)
    return 0


def _input_frames(cfg: RunConfig, command: str):
    """trial -> (input frame, its eps_nearness): the --in frame, read and
    measured once, or else a frame generated from (seed, trial) with the
    nearness the generator measured."""
    if cfg.infile is None:
        return lambda trial: near_parseval_frame(cfg.d, cfg.n, cfg.eps, (cfg.seed, trial))
    obj = _load_object(cfg)
    if not isinstance(obj, Frame):
        raise UsageError(f"{command} expects a frame input")
    measured = eps_nearness(obj)
    return lambda trial: (obj, measured)


def cmd_solve(cfg: RunConfig) -> int:
    input_frame = _input_frames(cfg, "solve")

    def one(trial: int) -> dict:
        frame, eps_in = input_frame(trial)
        rec = {
            "trial": trial,
            "seed": cfg.seed,
            "mode": cfg.mode,
            "input_eps": eps_in,
            "input_delta": delta_of(frame),
            "input": to_dict(frame),
        }
        if cfg.mode == "smoothed":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                v, trace = solve_smoothed(
                    frame, seed=cfg.seed + trial,
                    **_given(zeta=cfg.zeta, kappa=cfg.kappa,
                             final_delta=cfg.final_delta, t_max=cfg.t_max),
                )
            rec["trace"] = trace.to_dict()
            rec["output"] = to_dict(v)
            rec["dist"] = dist(frame, v)
            rec["output_delta"] = delta_of(v)
        else:
            v, report = solve_basic(
                frame, **_given(final_delta=cfg.final_delta, t_max=cfg.t_max)
            )
            rec["output"] = to_dict(v)
            rec["dist"] = report.dist
            rec["output_delta"] = report.delta_final
            rec["status"] = report.status
            rec["bound_100_d2_n_eps"] = 100.0 * frame.d**2 * frame.n * eps_in
        return rec

    results = [one(t) for t in range(cfg.trials)]
    doc = {"command": "solve", "seed": cfg.seed, "trials": cfg.trials, "results": results}
    _emit(_dump_report(doc), cfg.out)
    return 0


def cmd_capacity(cfg: RunConfig) -> int:
    rep = capacity_report(_load_object(cfg))
    res = rep.result
    doc = {
        "command": "capacity", "kind": rep.kind, "value": res.value, "method": res.method,
        "certificate": res.certificate, "lower": res.lower, "upper": res.upper,
        "converged": res.converged, "size": rep.size, "delta": rep.delta,
    }
    if rep.convex is not None:
        doc.update(convex_value=rep.convex.value, convex_converged=rep.convex.converged,
                   dual_relative_gap=rep.dual_relative_gap)
    _emit(_dump_report(doc), cfg.out)
    return 0


def cmd_perturb(cfg: RunConfig) -> int:
    frame, _ = _input_frames(cfg, "perturb")(0)
    w, noise = perturb(frame, cfg.sigma2, cfg.seed)
    doc = {
        "command": "perturb",
        "seed": cfg.seed,
        "sigma2": cfg.sigma2,
        "output": to_dict(w),
        "stats": perturbation_stats(frame, w, noise),
    }
    _emit(_dump_report(doc), cfg.out)
    return 0


def cmd_check(cfg: RunConfig) -> int:
    if cfg.infile is not None:
        try:
            with open(cfg.infile) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read trace: {exc}") from exc
        results = checks_mod.validate_trace_csv(text)
    else:
        results = checks_mod.run_all(seed=cfg.seed)
    lines = []
    failed = 0
    for res in results:
        tag = "OK" if res.ok else "VIOLATION"
        failed += 0 if res.ok else 1
        lines.append(f"{tag:9s} {res.name}: {res.detail}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines), cfg.out)
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "gen": cmd_gen,
    "flow": cmd_flow,
    "solve": cmd_solve,
    "capacity": cmd_capacity,
    "perturb": cmd_perturb,
    "check": cmd_check,
}


@functools.cache
def _make_parser() -> _Parser:
    """The one parser of the process, built on first use and shared by every
    `main` call after it.  Parsing leaves it unchanged: `parse_args` returns
    a fresh namespace and `_build_config` only reads `_actions`."""
    parser = _Parser(prog="frameflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    for flag in ("--seed", "--d", "--n", "--m", "--k", "--trials"):
        parser.add_argument(flag, type=int)
    for flag in ("--eps", "--sigma2", "--tol", "--zeta", "--kappa", "--final-delta"):
        parser.add_argument(flag, type=float)
    parser.add_argument("--kind", help="frame|operator|matrix|tight")
    parser.add_argument("--basic", dest="mode", action="store_const", const="basic")
    parser.add_argument("--smoothed", dest="mode", action="store_const", const="smoothed")
    parser.add_argument("--in", dest="infile", help="input object JSON")
    parser.add_argument("--out")
    parser.add_argument("--config", help="JSON config file; flags override it")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args, parser)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FlowError, ScalingError, CapacityError, PerturbationError,
            np.linalg.LinAlgError, FloatingPointError, ValueError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
