"""Command-line harness: configure experiments from JSON, run single jobs or
hyperparameter sweeps, and emit traces (CSV) and summaries (JSON) for
external plotting.

A config document is a JSON object. Two tables spell it, key by key with
each default: the fields of :class:`ExperimentConfig` its top level, and the
fields of :class:`bome.core.SolverConfig` its ``solver`` object.

An unset (or null) alpha, xi_v or xi_theta follows xi, also in a sweep over
xi; a summary's ``config`` lists the resolved values. Unknown fields anywhere
are rejected, and so is a top-level field of the wrong JSON type. All file
output is UTF-8 with Unix newlines; floats are printed with 17 significant
digits so they round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    _BARRIER_NAMES,
    BilevelOracle,
    ConfigurationError,
    JointPoint,
    SolverConfig,
    StepDiagnostics,
    validate_config,
)
from .gradcheck import check_oracle_gradients, check_plug_in_estimator, plug_in_table_text
from .problems import (
    coreset_oracle,
    CoresetProblem,
    lls_oracle,
    make_synthetic_hyperclean,
    make_synthetic_ridge,
    hyperclean_oracle,
    minimax_oracle,
    ridge_oracle,
)
from .runner import Method, Termination, Trace, run

OUTPUT_DIR_ENV = "BOME_OUTPUT_DIR"
MAX_SWEEP_SIZE = 10_000

# how a type error names each JSON type
_JSON_TYPES = {str: "a string", dict: "an object", type(None): "null"}
# The solver object's keys, each to its field of SolverConfig. A flagged key
# is also a run/sweep flag, parsed by its field's annotation: float unless set.
_SOLVER_KEYS = {f.metadata["key"]: f for f in fields(SolverConfig)}
_FLAG_TYPES = {"int": {"type": int}, "BarrierKind": {"choices": _BARRIER_NAMES}}

@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description, and the table of the config
    document's top level: each field is one key (``solver_spec`` is written
    ``solver``), its metadata lists the JSON types the key may hold, and its
    default is the key's value when absent. A key of another type is rejected
    before any check of its value; a missing problem is left to the check of
    the problem name. It is frozen: an edit is a copy, which parses its solver
    object anew."""

    problem: Optional[str] = field(default=None, metadata={"types": (str,)})
    problem_params: dict = field(default_factory=dict, metadata={"types": (dict,)})
    method: str = field(default="bome", metadata={"types": (str,)})
    # the solver object as written; sweep cells and flag overrides edit it, so
    # unset keys keep following the keys they default to
    solver_spec: dict = field(default_factory=dict,
                              metadata={"types": (dict,), "key": "solver"})
    start: Union[str, dict] = field(default="default", metadata={"types": (str, dict)})
    output_path: Optional[str] = field(default=None, metadata={"types": (str, type(None))})
    sweep: Optional[dict] = field(default=None, metadata={"types": (dict, type(None))})

    @cached_property
    def solver(self) -> SolverConfig:
        """The validated solver settings that ``solver_spec`` writes, parsed on
        the first read."""
        return _parse_solver(self.solver_spec)


# the config document's top-level keys, each to its field of ExperimentConfig
_DOCUMENT_KEYS = {f.metadata.get("key", f.name): f for f in fields(ExperimentConfig)}


# ---------------------------------------------------------------------------
# Problem registry
# ---------------------------------------------------------------------------

# The named theta starts of the 2-D coreset geometry.
_CORESET_STARTS = {"start1": (0.0, 3.0), "start2": (-3.0, 1.0), "start3": (3.5, 1.0)}
_CORESET_STARTS["default"] = _CORESET_STARTS["start1"]


def _coreset(params: dict, seed: int):
    _reject_unknown(params, {"x0", "vertices"}, "problem_params")
    fields = {}
    if params.get("x0") is not None:
        fields["target_x0"] = params["x0"]
    if params.get("vertices") is not None:
        # one vertex per row in the config, one per column in the problem
        fields["vertices_X"] = np.asarray(params["vertices"], dtype=float).T
    prob = CoresetProblem(**fields)
    # v holds one weight per vertex; other than in 2-D, theta starts at 0
    dim, n_vert = prob.vertices_X.shape
    starts = _CORESET_STARTS if dim == 2 else {"default": np.zeros(dim)}
    presets = {name: (np.zeros(n_vert), np.array(theta)) for name, theta in starts.items()}
    return coreset_oracle(prob), presets


def _fixed(make, v0: list, theta0: list):
    """A builder for a problem without parameters and one default start."""

    def build(params: dict, seed: int):
        _reject_unknown(params, set(), "problem_params")
        return make(), {"default": (np.array(v0), np.array(theta0))}

    return build


def _synthetic(make, oracle, start):
    """A builder for ``make``'s problems: its keywords are the problem_params,
    the seed defaults to the solver's, and ``start(prob)`` is the default."""
    allowed = set(inspect.signature(make).parameters)

    def build(params: dict, seed: int):
        _reject_unknown(params, allowed, "problem_params")
        # a null is unset, as in the solver object
        prob = make(**{"seed": seed, **{k: v for k, v in params.items() if v is not None}})
        return oracle(prob), {"default": start(prob)}

    return build


# name -> (description, builder); a builder takes the problem_params and the
# solver seed and returns the oracle and its start presets.
PROBLEMS = {
    "coreset": ("project a target onto a softmax-weighted convex hull (v: one weight per "
                "vertex)", _coreset),
    "minimax": ("scalar bilinear game min_v max_theta v*theta; optimum at the origin",
                _fixed(minimax_oracle, [1.0], [1.0])),
    "lls": ("least squares with a line of inner minimizers (degenerate inner problem)",
            _fixed(lls_oracle, [0.0], [0.0, 3.0])),
    "hyperclean": ("learn per-sample training weights against corrupted labels (synthetic)",
                   _synthetic(make_synthetic_hyperclean, hyperclean_oracle,
                              lambda prob: (0.5 * np.ones(prob.n_train),
                                            np.zeros(prob.theta_dim)))),
    "ridge": ("learn per-coefficient ridge scales with a closed-form inner solve (synthetic)",
              _synthetic(make_synthetic_ridge, ridge_oracle,
                         lambda prob: (np.zeros(prob.dim), np.zeros(prob.dim)))),
}


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = sorted(mapping.keys() - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {where} field(s): {', '.join(unknown)}")


def _holds_bool(value) -> bool:
    """Whether a JSON value is a boolean or holds one."""
    items = list(value.values()) if isinstance(value, dict) else value
    if not isinstance(items, list):
        return isinstance(items, bool)
    types = set(map(type, items))  # recurse only into nested lists and objects
    return bool in types or not types.isdisjoint((list, dict)) and any(map(_holds_bool, items))


def build_experiment(cfg: ExperimentConfig) -> tuple[BilevelOracle, JointPoint]:
    """Instantiate the oracle and the resolved start point for a config. The
    builders and JointPoint reject malformed values with TypeError or
    ValueError, which raise as a :class:`ConfigurationError`; so does a
    boolean, which numpy would read as a number but no key takes."""
    try:
        for where, value in (("problem_params", cfg.problem_params), ("start", cfg.start)):
            if _holds_bool(value):
                raise TypeError(f"{where} holds a boolean, which no key takes")
        oracle, presets = PROBLEMS[cfg.problem][1](cfg.problem_params, cfg.solver.rng_seed)
        if isinstance(cfg.start, str):
            if cfg.start not in presets:
                raise ConfigurationError(
                    f"unknown start preset {cfg.start!r} for problem {cfg.problem!r}; "
                    f"available: {', '.join(sorted(presets))}"
                )
            v0, theta0 = presets[cfg.start]
        else:
            v0 = np.asarray(cfg.start["v"], dtype=float)
            theta0 = np.asarray(cfg.start["theta"], dtype=float)
            ref_v, ref_theta = presets["default"]
            if v0.shape != ref_v.shape or theta0.shape != ref_theta.shape:
                raise ConfigurationError(
                    f"start dimensions {v0.shape}/{theta0.shape} do not match "
                    f"problem {cfg.problem!r} (expects {ref_v.shape}/{ref_theta.shape})"
                )
        return oracle, JointPoint(v0, theta0)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"cannot build {cfg.problem!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_solver(spec: dict) -> SolverConfig:
    _reject_unknown(spec, _SOLVER_KEYS, "solver")
    cfg = SolverConfig(**{_SOLVER_KEYS[key].name: val for key, val in spec.items()
                          if val is not None})
    validate_config(cfg)
    return cfg


def _edit_solver(cfg: ExperimentConfig, edits: dict, **changes) -> ExperimentConfig:
    """A copy of ``cfg`` with ``edits`` applied to its solver object as written
    and ``changes`` to its other fields; the edited solver must parse."""
    child = replace(cfg, solver_spec={**cfg.solver_spec, **edits}, **changes)
    child.solver  # parsed here, so that a bad edit is reported before any run
    return child


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document.

    Raises :class:`ConfigurationError` carrying parse context for malformed
    JSON, every field of the wrong type if there is one, or else the full list
    of violated constraints.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    _reject_unknown(raw, _DOCUMENT_KEYS, "config")
    errors = [f"{key} must be {' or '.join(map(_JSON_TYPES.get, f.metadata['types']))}, "
              f"got {raw[key]!r}" for key, f in _DOCUMENT_KEYS.items()
              if key in raw and not isinstance(raw[key], f.metadata["types"])]
    if errors:
        raise ConfigurationError("; ".join(errors))
    cfg = ExperimentConfig(**{f.name: raw[key] for key, f in _DOCUMENT_KEYS.items()
                              if key in raw})

    if cfg.problem not in PROBLEMS:
        errors.append(f"problem must be one of {sorted(PROBLEMS)}, got {cfg.problem!r}")
    methods = sorted(m.value for m in Method)
    if cfg.method not in methods:
        errors.append(f"method must be one of {methods}, got {cfg.method!r}")
    elif cfg.method != "bome" and cfg.problem != "minimax":
        errors.append(f"method {cfg.method!r} is only supported on the minimax problem")
    try:
        cfg.solver  # parsed once: later reads of this config reuse it
    except ConfigurationError as exc:
        errors.append(str(exc))

    if isinstance(cfg.start, dict):
        unknown = sorted(cfg.start.keys() - {"v", "theta"})
        if unknown:
            errors.append(f"unknown start field(s): {', '.join(unknown)}")
        if "v" not in cfg.start or "theta" not in cfg.start:
            errors.append("explicit start must provide both 'v' and 'theta'")

    sweep = cfg.sweep
    if sweep is not None:
        unknown = sorted(sweep.keys() - _SOLVER_KEYS)
        # 0 when an entry is not a non-empty list
        size = math.prod(len(vals) if isinstance(vals, list) else 0 for vals in sweep.values())
        if not sweep:
            errors.append("sweep must be a non-empty object mapping solver fields to lists")
        elif unknown:
            errors.append(f"sweep keys must be solver fields, got: {', '.join(unknown)}")
        elif size == 0:
            errors.append("every sweep entry must be a non-empty list of values")
        elif size > MAX_SWEEP_SIZE:
            errors.append(f"sweep cross-product size {size} exceeds {MAX_SWEEP_SIZE}")
    if errors:
        raise ConfigurationError("; ".join(errors))
    # problem params and start are validated by building
    build_experiment(cfg)
    return cfg


def _output_name(cfg: ExperimentConfig) -> str:
    return cfg.output_path or f"{cfg.problem}_{cfg.method}.csv"


def expand_sweep(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Materialize the sweep cross-product as concrete single-run configs,
    ordered by grid index, each writing to the output name plus its index
    (``x.csv`` -> ``x_000.csv``). A config without a sweep is its own cell."""
    if not cfg.sweep:
        return [cfg]
    keys = sorted(cfg.sweep)
    stem, ext = os.path.splitext(_output_name(cfg))
    out = []
    for idx, combo in enumerate(itertools.product(*(cfg.sweep[k] for k in keys))):
        out.append(_edit_solver(cfg, dict(zip(keys, combo)), sweep=None,
                                output_path=f"{stem}_{idx:03d}{ext or '.csv'}"))
    return out


def _solver_to_dict(cfg: SolverConfig) -> dict:
    """The resolved solver settings under their JSON keys, for summaries."""
    out = {key: getattr(cfg, f.name) for key, f in _SOLVER_KEYS.items()}
    out["barrier"] = cfg.barrier_kind.value
    return out


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _parse_float(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


# The trace CSV: one column per StepDiagnostics field, in field order, named in
# its metadata. An int field prints as an integer and every other as a float.
_COLUMNS = fields(StepDiagnostics)
_COLUMN_NAMES = [f.metadata["column"] for f in _COLUMNS]
_PARSERS = [int if f.type == "int" else _parse_float for f in _COLUMNS]
# One %-format per row. The field that defaults to None is the kkt value, and
# on an unscored row %.0s prints its None as nothing.
_KKT_INDEX = next(i for i, f in enumerate(_COLUMNS) if f.default is None)
_SPECS = ["%s" if f.type == "int" else "%.17g" for f in _COLUMNS]
_ROW_SCORED = ",".join(_SPECS) + "\n"
_ROW_UNSCORED = ",".join(_SPECS[:_KKT_INDEX] + ["%.0s"] + _SPECS[_KKT_INDEX + 1:]) + "\n"


def emit_trace_csv(trace: Trace, path) -> None:
    """Write one row per iteration; the kkt cell is blank on rows where
    stationarity was not evaluated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_COLUMN_NAMES) + "\n")
        for values in trace.records.rows():
            fh.write((_ROW_UNSCORED if values[_KKT_INDEX] is None else _ROW_SCORED) % values)


def read_trace_csv(path) -> list[dict]:
    """Parse a trace CSV back into a list of row dicts keyed by column name
    (floats re-parsed, a blank float cell read as None)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip().split(",") != _COLUMN_NAMES:
            raise ValueError(f"unexpected trace header in {path}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(_COLUMN_NAMES):
                raise ValueError(
                    f"{path}, line {lineno}: expected {len(_COLUMN_NAMES)} fields, "
                    f"got {len(cells)}"
                )
            row = {}
            for name, parse, cell in zip(_COLUMN_NAMES, _PARSERS, cells):
                try:
                    row[name] = parse(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}, line {lineno}, column {name}: cannot parse {cell!r}"
                    ) from None
            rows.append(row)
    return rows


def summarize_trace(trace: Trace) -> dict:
    entry = {
        "problem": trace.problem_name,
        "method": trace.method.value,
        "config": _solver_to_dict(trace.config_snapshot),
        "iterations": len(trace.records),
        "termination": trace.termination.value,
        "final_f": trace.final_f,
        "final_kkt": None if trace.final_kkt is None else trace.final_kkt.total,
        "kkt_variant": trace.kkt_variant,
        "total_wall_us": sum(trace.records.column("wall_time_micros")),
        "warnings": list(trace.warnings),
    }
    kkts = [x for x in trace.records.column("kkt_value") if x is not None]
    if trace.final_kkt is not None:
        kkts.append(trace.final_kkt.total)
    entry["running_min_kkt"] = min(kkts) if kkts else None
    dist = trace.dist_to_known_opt
    if dist is not None:
        # JSON has no infinity: a distance that overflowed is written as null
        entry["dist_to_opt"] = dist if math.isfinite(dist) else None
    return entry


def emit_summary_json(traces: list[Trace], path) -> None:
    """Write the per-run summary array. Requires at least one trace."""
    if not traces:
        raise ValueError("emit_summary_json needs at least one trace")
    payload = [summarize_trace(t) for t in traces]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _resolve_output(name: str) -> Path:
    out = Path(name)
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and not out.is_absolute():
        out = Path(outdir) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# the stderr line of each termination that fails a run
_FAILURES = {
    Termination.NUMERICAL_ERROR: "run on {name} hit a numerical error",
    Termination.INNER_ASCENT: ("run on {name} stopped on a negative feasibility term: "
                               "inner descent at alpha = {alpha!r} climbs g, so no score "
                               "certifies the run; lower alpha"),
}


def _cmd_run_or_sweep(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    flags = {key: getattr(args, key) for key, f in _SOLVER_KEYS.items()
             if f.metadata.get("flag") and getattr(args, key) is not None}
    clash = sorted(flags.keys() & (cfg.sweep or {}).keys())
    if clash:  # each cell's sweep value would overwrite the flag's
        raise ConfigurationError(f"a flag may not set a key the sweep varies: "
                                 f"{', '.join('--' + key for key in clash)}")
    if flags or args.out:
        cfg = _edit_solver(cfg, flags, output_path=args.out or cfg.output_path)
    is_sweep = args.command == "sweep"
    if not is_sweep and cfg.sweep:
        raise ConfigurationError(
            "config contains a sweep; use the 'sweep' subcommand to run it"
        )
    # One cell at a time: a cell that raises leaves the earlier CSVs written.
    traces = []
    for sub_cfg in (expand_sweep(cfg) if is_sweep else [cfg]):
        trace = run(*build_experiment(sub_cfg), sub_cfg.solver, sub_cfg.method)
        traces.append(trace)
        csv_path = _resolve_output(_output_name(sub_cfg))
        emit_trace_csv(trace, csv_path)
        print(f"wrote {csv_path}")
        for warning in trace.warnings:
            print(f"warning: {csv_path}: {warning}", file=sys.stderr)
    summary_path = _resolve_output(_output_name(cfg)).with_suffix(".summary.json")
    emit_summary_json(traces, summary_path)
    print(f"wrote {summary_path}")

    failed = [t for t in traces
              if t.termination not in (Termination.MAX_ITERS, Termination.KKT_TOL)]
    for t in failed:
        print(_FAILURES[t.termination].format(
            name=t.problem_name, alpha=t.config_snapshot.inner_step_alpha), file=sys.stderr)
    return 1 if failed else 0


def _cmd_gradcheck(args) -> int:
    name = args.problem
    if name not in PROBLEMS:
        raise ConfigurationError(f"unknown problem {name!r}")
    if args.points < 1 or args.seed < 0:
        raise ConfigurationError(
            f"gradcheck needs --points >= 1 and --seed >= 0, got {args.points} and {args.seed}"
        )
    oracle, start = build_experiment(ExperimentConfig(name, solver_spec={"seed": args.seed}))
    v0, theta0 = start.v, start.theta
    rng = np.random.default_rng(args.seed)
    points = []
    for _ in range(args.points):
        if name == "hyperclean":
            # keep weights strictly inside (0, 1), away from the clip kinks
            v = rng.uniform(0.2, 0.8, size=v0.size)
        else:
            v = v0 + 0.5 * rng.standard_normal(v0.size)
        theta = theta0 + 0.5 * rng.standard_normal(theta0.size)
        points.append(JointPoint(v, theta))
    reports = check_oracle_gradients(oracle, points)
    ok = True
    for label, report in reports.items():
        print(f"gradient check for {label} on {name!r}:")
        print(report.to_text())
        print()
        ok = ok and report.passed
    if oracle.exact_inner_opt is not None:
        # half the declared 1/L keeps inner descent contracting; 0.05 otherwise
        L = oracle.metadata.smoothness_L if oracle.metadata is not None else None
        alpha = 0.05 if L is None else 1.0 / (2.0 * L)
        errors = check_plug_in_estimator(
            oracle, points[: min(5, len(points))], [1, 2, 4, 8, 16], alpha
        )
        print("plug-in constraint-gradient error vs inner steps:")
        print(plug_in_table_text(errors))
    return 0 if ok else 1


def _cmd_list_problems(args) -> int:
    for name, (description, _) in sorted(PROBLEMS.items()):
        print(f"{name:<12} {description}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bome", description="first-order bilevel optimization harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run a single experiment from a JSON config"),
                       ("sweep", "run the sweep cross-product of a config")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        for key, f in _SOLVER_KEYS.items():
            if f.metadata.get("flag"):
                p.add_argument(f"--{key}", default=None,
                               **_FLAG_TYPES.get(f.type, {"type": float}))
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--jobs", type=int, default=1, help="ignored: cells run one at a time")
        p.set_defaults(handler=_cmd_run_or_sweep)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check a problem's gradients")
    p_gc.add_argument("problem")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--points", type=int, default=20)
    p_gc.set_defaults(handler=_cmd_gradcheck)
    sub.add_parser("list-problems", help="list built-in problems").set_defaults(
        handler=_cmd_list_problems)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
