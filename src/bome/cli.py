"""Command-line harness: configure experiments from JSON, run single jobs or
hyperparameter sweeps, and emit traces (CSV) and summaries (JSON) for
external plotting.

Config document shape::

    {
      "problem": "coreset" | "minimax" | "lls" | "hyperclean" | "ridge",
      "problem_params": {...},          # optional, problem-specific
      "method": "bome" | "gda" | "ogd", # default "bome"
      "solver": {"xi": 0.05, "alpha": null, "T": 10, "eta": 0.5,
                 "barrier": "gradnorm" | "value", "iters": 1000,
                 "momentum": 0.0, "kkt_every": 10, "stop_kkt_tol": null,
                 "seed": 0, "xi_v": null, "xi_theta": null},
      "start": "start1" | {"v": [...], "theta": [...]},
      "output_path": "trace.csv",
      "sweep": {"eta": [0.1, 0.5, 0.9], "T": [1, 10]}
    }

An unset (or null) alpha, xi_v or xi_theta follows xi, also in a sweep over
xi; a summary's ``config`` lists the resolved values. Unknown fields anywhere
are rejected, and so is a top-level field of the wrong JSON type. All file
output is UTF-8 with Unix newlines; floats are printed with 17 significant
digits so they round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
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

# The config document: each top-level field, the JSON types it may hold and
# its value when absent. A field of another type is rejected before any check
# of its value; a missing problem is left to the check of the problem name.
_TOP_LEVEL = {
    "problem": ((str,), None),
    "problem_params": ((dict,), {}),
    "method": ((str,), "bome"),
    "solver": ((dict,), {}),
    "start": ((str, dict), "default"),
    "output_path": ((str, type(None)), None),
    "sweep": ((dict, type(None)), None),
}
_JSON_TYPES = {str: "a string", dict: "an object", type(None): "null"}
# The solver schema: each JSON key, the SolverConfig field it sets, and the
# argparse options of its run/sweep override flag (None: no flag). Unset keys
# are left to SolverConfig, whose unset alpha, xi_v and xi_theta follow xi.
_SOLVER_KEYS = {
    "xi": ("outer_step_xi", {"type": float}),
    "alpha": ("inner_step_alpha", {"type": float}),
    "T": ("inner_iters_T", {"type": int}),
    "eta": ("eta", {"type": float}),
    "barrier": ("barrier_kind", {"choices": _BARRIER_NAMES}),
    "iters": ("max_outer_iters_K", {"type": int}),
    "momentum": ("momentum_beta", None),
    "kkt_every": ("kkt_eval_every", None),
    "stop_kkt_tol": ("stop_kkt_tol", None),
    "seed": ("rng_seed", {"type": int}),
    "xi_v": ("xi_v", None),
    "xi_theta": ("xi_theta", None),
}

@dataclass
class ExperimentConfig:
    """A fully validated experiment description."""

    problem: str
    problem_params: dict = field(default_factory=dict)
    method: str = "bome"
    # the solver object as written; sweep cells and flag overrides edit it, so
    # unset keys keep following the keys they default to
    solver_spec: dict = field(default_factory=dict)
    start: Union[str, dict] = "default"
    output_path: Optional[str] = None
    sweep: Optional[dict] = None

    @property
    def solver(self) -> SolverConfig:
        """The validated solver settings that ``solver_spec`` writes."""
        return _parse_solver(self.solver_spec)


# ---------------------------------------------------------------------------
# Problem registry
# ---------------------------------------------------------------------------

# The named theta starts of the 2-D coreset geometry.
_CORESET_STARTS = {"start1": (0.0, 3.0), "start2": (-3.0, 1.0), "start3": (3.5, 1.0)}
_CORESET_STARTS["default"] = _CORESET_STARTS["start1"]


def _coreset(params: dict, seed: int):
    _reject_unknown(params, {"x0", "vertices"}, "problem_params")
    fields = {}
    if "x0" in params:
        fields["target_x0"] = params["x0"]
    if "vertices" in params:
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
        prob = make(**{"seed": seed, **params})
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


def build_experiment(cfg: ExperimentConfig) -> tuple[BilevelOracle, JointPoint]:
    """Instantiate the oracle and the resolved start point for a config."""
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


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_solver(spec: dict) -> SolverConfig:
    _reject_unknown(spec, _SOLVER_KEYS, "solver")
    cfg = SolverConfig(**{_SOLVER_KEYS[key][0]: val for key, val in spec.items()
                          if val is not None})
    validate_config(cfg)
    return cfg


def _edit_solver(cfg: ExperimentConfig, edits: dict) -> None:
    """Apply ``edits`` to the solver object as written; the result must parse."""
    cfg.solver_spec = {**cfg.solver_spec, **edits}
    _parse_solver(cfg.solver_spec)


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
    _reject_unknown(raw, _TOP_LEVEL, "config")
    errors = [f"{key} must be {' or '.join(_JSON_TYPES[t] for t in types)}, got {raw[key]!r}"
              for key, (types, _) in _TOP_LEVEL.items()
              if key in raw and not isinstance(raw[key], types)]
    if errors:
        raise ConfigurationError("; ".join(errors))
    doc = {key: raw.get(key, copy.copy(default)) for key, (_, default) in _TOP_LEVEL.items()}

    problem, method = doc["problem"], doc["method"]
    if problem not in PROBLEMS:
        errors.append(f"problem must be one of {sorted(PROBLEMS)}, got {problem!r}")
    methods = sorted(m.value for m in Method)
    if method not in methods:
        errors.append(f"method must be one of {methods}, got {method!r}")
    elif method != "bome" and problem != "minimax":
        errors.append(f"method {method!r} is only supported on the minimax problem")
    try:
        _parse_solver(doc["solver"])
    except ConfigurationError as exc:
        errors.append(str(exc))

    start = doc["start"]
    if isinstance(start, dict):
        unknown = sorted(start.keys() - {"v", "theta"})
        if unknown:
            errors.append(f"unknown start field(s): {', '.join(unknown)}")
        if "v" not in start or "theta" not in start:
            errors.append("explicit start must provide both 'v' and 'theta'")

    sweep = doc["sweep"]
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

    cfg = ExperimentConfig(solver_spec=doc.pop("solver"), **doc)
    # Problem params and start are validated by actually building; the
    # builders and JointPoint reject malformed values with these errors.
    try:
        build_experiment(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"cannot build {problem!r}: {exc}") from exc
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
        child = replace(cfg, sweep=None, output_path=f"{stem}_{idx:03d}{ext or '.csv'}")
        _edit_solver(child, dict(zip(keys, combo)))
        out.append(child)
    return out


def _solver_to_dict(cfg: SolverConfig) -> dict:
    """The resolved solver settings under their JSON keys, for summaries."""
    out = {key: getattr(cfg, attr) for key, (attr, _) in _SOLVER_KEYS.items()}
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


def _cmd_run_or_sweep(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    flags = {key: getattr(args, key) for key, (_, flag) in _SOLVER_KEYS.items()
             if flag is not None and getattr(args, key) is not None}
    if flags:
        _edit_solver(cfg, flags)
    if args.out:
        cfg.output_path = args.out
    is_sweep = args.command == "sweep"
    if not is_sweep and cfg.sweep:
        raise ConfigurationError(
            "config contains a sweep; use the 'sweep' subcommand to run it"
        )
    # One cell at a time: a cell that raises leaves the earlier CSVs written.
    traces = []
    for sub_cfg in (expand_sweep(cfg) if is_sweep else [cfg]):
        trace = run(*build_experiment(sub_cfg), sub_cfg.solver, Method(sub_cfg.method))
        traces.append(trace)
        csv_path = _resolve_output(_output_name(sub_cfg))
        emit_trace_csv(trace, csv_path)
        print(f"wrote {csv_path}")
        for warning in trace.warnings:
            print(f"warning: {csv_path}: {warning}", file=sys.stderr)
    summary_path = _resolve_output(_output_name(cfg)).with_suffix(".summary.json")
    emit_summary_json(traces, summary_path)
    print(f"wrote {summary_path}")

    failed = [t for t in traces if t.termination is Termination.NUMERICAL_ERROR]
    for t in failed:
        print(f"run on {t.problem_name} hit a numerical error", file=sys.stderr)
    return 1 if failed else 0


def _cmd_gradcheck(args) -> int:
    name = args.problem
    if name not in PROBLEMS:
        raise ConfigurationError(f"unknown problem {name!r}")
    if args.points < 1 or args.seed < 0:
        raise ConfigurationError(
            f"gradcheck needs --points >= 1 and --seed >= 0, got {args.points} and {args.seed}"
        )
    oracle, presets = PROBLEMS[name][1]({}, args.seed)
    v0, theta0 = presets["default"]
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
        errors = check_plug_in_estimator(
            oracle, points[: min(5, len(points))], [1, 2, 4, 8, 16], alpha=0.05
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
        for key, (_, flag) in _SOLVER_KEYS.items():
            if flag is not None:
                p.add_argument(f"--{key}", default=None, **flag)
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
