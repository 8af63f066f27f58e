"""Counting and tracing wrapper for the benchmark.

The tracer replaces bome's public functions under the module names their
callers look them up by (``bome.cli.run``, ``bome.runner.bome_step``, ...) and
wraps every callable of the oracles that ``build_experiment`` returns. Each
call records one span (id, name, start, end, parent, run id) into per-thread
arrays kept in memory; ``save`` writes them out once the command has ended.
Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the durations of its child
spans. Spans of one thread nest, so the children never overlap each other.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from array import array

import numpy as np

ORACLE_KINDS = ("eval_f", "grad_f", "eval_g", "grad_g", "grad_g_theta", "exact_inner_opt")

# (module, attribute, span name). The attribute is the name the caller looks
# up at call time, so wrapping it there puts a span at that layer boundary.
PATCH_POINTS = (
    ("bome.cli", "parse_config", "cli.parse_config"),
    ("bome.cli", "emit_trace_csv", "cli.emit_trace_csv"),
    ("bome.cli", "run", "runner.run"),
    ("bome.runner", "bome_step", "barrier_step.bome_step"),
    ("bome.runner", "kkt_exact", "metrics.kkt_exact"),
    ("bome.runner", "kkt_proxy", "metrics.kkt_proxy"),
    ("bome.barrier_step", "inner_descent", "inner_loop.inner_descent"),
    ("bome.metrics", "inner_descent", "inner_loop.inner_descent"),
)
# Unit of every metric that layer_metrics returns, plus the tracing overhead.
UNITS = {
    **{f"problems.{k}.calls_per_iter": "calls/iter" for k in ORACLE_KINDS},
    **{f"problems.{k}.us_per_call": "us/call" for k in ORACLE_KINDS},
    "problems.self_share": "ratio",
    "problems.repeat_ratio": "ratio",
    "inner_loop.calls_per_iter": "calls/iter",
    "inner_loop.steps_per_call": "steps/call",
    "inner_loop.early_exit_ratio": "ratio",
    "inner_loop.self_us_per_step": "us/step",
    "barrier_step.self_us_per_call": "us/call",
    "runner.self_us_per_iter": "us/iter",
    "runner.outer_iters": "count",
    "metrics.calls_per_iter": "calls/iter",
    "metrics.us_per_call": "us/call",
    "metrics.share": "ratio",
    "cli.parse_build_us": "us",
    "cli.emit_us_per_row": "us/row",
    "cli.emit_share": "ratio",
    "cli.sweep_cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}

ROOT = "cli.main"
BUILD = "cli.build_experiment"


class _ThreadLog:
    """Spans and counters recorded by one thread. Span i occupies
    ``times[2i:2i+2]`` (start, end) and ``fields[4i:4i+4]`` (id, name code,
    parent id, run id)."""

    def __init__(self, root_id: int):
        self.stack = [root_id]
        self.times = array("d")
        self.fields = array("q")
        self.run_id = -1
        # (kind, point) pairs evaluated since the current outer iteration began
        self.seen: set = set()
        self.oracle_calls = 0
        self.repeats = 0
        self.inner_steps = array("q")
        self.inner_T = array("q")


class Tracer:
    """Install with :meth:`install`, run one command under :meth:`command`,
    then read :meth:`layer_metrics` or write the spans with :meth:`save`."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count()
        self._run_ids = itertools.count()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._root_id = next(self._ids)
        self._root_code = self._code(ROOT)
        self._spans = None
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(self._root_id)
            self._local.log = log
            self._logs.append(log)
        return log

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        code = self._code(name)
        ids = self._ids
        perf = time.perf_counter

        def traced(*args, **kwargs):
            log = self._log()
            if before is not None:
                before(log, args)
            sid = next(ids)
            parent = log.stack[-1]
            log.stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                log.stack.pop()
                log.times.extend((t0, t1))
                log.fields.extend((sid, code, parent, log.run_id))
            if after is not None:
                after(log, args, kwargs, out)
            return out

        return traced

    def _wrap_oracle_call(self, fn, kind):
        """A leaf span that also counts repeats of (kind, point) within the
        current outer iteration. Oracle calls have no child spans, so the
        stack is left alone."""
        code = self._code(f"problems.{kind}")
        ids = self._ids
        perf = time.perf_counter

        def traced(*args):
            log = self._log()
            if len(args) == 2:  # grad_g_theta(v, theta)
                key = (code, args[0].tobytes(), args[1].tobytes())
            elif hasattr(args[0], "theta"):  # a JointPoint
                key = (code, args[0].v.tobytes(), args[0].theta.tobytes())
            else:  # exact_inner_opt(v)
                key = (code, np.asarray(args[0]).tobytes())
            seen = log.seen
            before = len(seen)
            seen.add(key)
            log.repeats += len(seen) == before
            log.oracle_calls += 1
            sid = next(ids)
            t0 = perf()
            try:
                return fn(*args)
            finally:
                t1 = perf()
                log.times.extend((t0, t1))
                log.fields.extend((sid, code, log.stack[-1], log.run_id))

        return traced

    def _wrap_oracle(self, oracle):
        fields = {
            kind: self._wrap_oracle_call(getattr(oracle, kind), kind)
            for kind in ORACLE_KINDS
            if getattr(oracle, kind) is not None
        }
        return dataclasses.replace(oracle, **fields)

    def install(self) -> None:
        """Replace the patch points and ``bome.cli.build_experiment`` for the
        rest of the process."""
        import importlib

        def enter_run(log, args):
            log.run_id = next(self._run_ids)

        def leave_run(log, args, kwargs, out):
            log.run_id = -1

        def new_iteration(log, args):
            log.seen.clear()

        def record_steps(log, args, kwargs, out):
            log.inner_steps.append(out.steps_taken)
            log.inner_T.append(args[3] if len(args) > 3 else kwargs["T"])

        hooks = {
            "runner.run": (enter_run, leave_run),
            "barrier_step.bome_step": (new_iteration, None),
            "inner_loop.inner_descent": (None, record_steps),
        }
        for module_name, attr, span in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            before, after = hooks.get(span, (None, None))
            setattr(module, attr, self._wrap(original, span, before, after))

        cli = importlib.import_module("bome.cli")
        build = cli.build_experiment
        traced_build = self._wrap(build, BUILD)

        def build_experiment(cfg):
            oracle, start = traced_build(cfg)
            return self._wrap_oracle(oracle), start

        cli.build_experiment = build_experiment

    def command(self, fn, *args):
        """Call ``fn(*args)`` as the root span; record its wall and CPU time."""
        log = self._log()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.cpu_s = time.process_time() - cpu0
            self.wall_s = t1 - t0
            log.times.extend((t0, t1))
            log.fields.extend((self._root_id, self._root_code, -1, -1))

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict:
        """All spans as arrays indexed by span id (ids are dense from 0).
        Call once the command has ended."""
        if self._spans is not None:
            return self._spans
        times = np.concatenate([np.frombuffer(log.times) for log in self._logs]).reshape(-1, 2)
        fields = np.concatenate([np.frombuffer(log.fields, dtype=np.int64)
                                 for log in self._logs]).reshape(-1, 4)
        order = np.argsort(fields[:, 0])
        times, fields = times[order], fields[order]
        if not np.array_equal(fields[:, 0], np.arange(len(fields))):
            raise RuntimeError("span ids are not dense; a span was not closed")
        out = {"start": times[:, 0], "end": times[:, 1], "codes": fields[:, 1],
               "parent": fields[:, 2], "run": fields[:, 3]}
        out["dur"] = out["end"] - out["start"]
        has_parent = out["parent"] >= 0
        child = np.bincount(out["parent"][has_parent], weights=out["dur"][has_parent],
                            minlength=out["dur"].size)
        out["self"] = out["dur"] - child
        self._spans = out
        return out

    def save(self, path) -> None:
        s = self.spans()
        np.savez(path, names=np.array(self.names), code=s["codes"], start=s["start"],
                 end=s["end"], parent=s["parent"], run=s["run"])

    def inner_calls(self) -> tuple[np.ndarray, np.ndarray]:
        """steps_taken and T of every inner_descent call."""
        steps = np.concatenate([np.frombuffer(log.inner_steps, dtype=np.int64) for log in self._logs])
        T = np.concatenate([np.frombuffer(log.inner_T, dtype=np.int64) for log in self._logs])
        return steps, T

    def counts(self) -> dict[str, int]:
        s = self.spans()
        tally = np.bincount(s["codes"], minlength=len(self.names))
        return {name: int(tally[i]) for i, name in enumerate(self.names)}

    def layer_metrics(self, outer_iters: int, rows: int) -> dict[str, float]:
        """The per-layer metrics of one traced command (times in µs)."""
        s = self.spans()
        code, dur, self_t, parent = s["codes"], s["dur"], s["self"], s["parent"]

        def mask(name):
            return code == self._codes.get(name, -1)

        def total(name, col):
            return float(col[mask(name)].sum())

        # Time attributed to some span, summed over threads: a thread pool's
        # workers overlap the root, whose self time is then clamped at zero.
        busy = float(np.clip(self_t, 0.0, None).sum())
        iters = max(outer_iters, 1)
        out: dict[str, float] = {}
        problems_self = 0.0
        for kind in ORACLE_KINDS:
            m = mask(f"problems.{kind}")
            n = int(m.sum())
            out[f"problems.{kind}.calls_per_iter"] = n / iters
            out[f"problems.{kind}.us_per_call"] = float(dur[m].mean()) * 1e6 if n else 0.0
            problems_self += float(self_t[m].sum())
        out["problems.self_share"] = problems_self / busy
        calls = sum(log.oracle_calls for log in self._logs)
        out["problems.repeat_ratio"] = sum(log.repeats for log in self._logs) / max(calls, 1)

        steps, T = self.inner_calls()
        n_inner = max(steps.size, 1)
        out["inner_loop.calls_per_iter"] = steps.size / iters
        out["inner_loop.steps_per_call"] = float(steps.sum()) / n_inner
        out["inner_loop.early_exit_ratio"] = float((steps < T).sum()) / n_inner
        out["inner_loop.self_us_per_step"] = (
            total("inner_loop.inner_descent", self_t) / max(int(steps.sum()), 1) * 1e6
        )

        n_step = max(int(mask("barrier_step.bome_step").sum()), 1)
        out["barrier_step.self_us_per_call"] = total("barrier_step.bome_step", self_t) / n_step * 1e6
        out["runner.self_us_per_iter"] = total("runner.run", self_t) / iters * 1e6
        out["runner.outer_iters"] = float(outer_iters)

        m = mask("metrics.kkt_exact") | mask("metrics.kkt_proxy")
        n = int(m.sum())
        out["metrics.calls_per_iter"] = n / iters
        out["metrics.us_per_call"] = float(dur[m].mean()) * 1e6 if n else 0.0
        out["metrics.share"] = float(dur[m].sum()) / busy

        parse = mask("cli.parse_config")
        build_outside = mask(BUILD) & ~np.isin(parent, np.flatnonzero(parse))
        out["cli.parse_build_us"] = float(dur[parse].sum() + dur[build_outside].sum()) * 1e6
        emit = total("cli.emit_trace_csv", dur)
        out["cli.emit_us_per_row"] = emit / max(rows, 1) * 1e6
        out["cli.emit_share"] = emit / busy
        out["cli.sweep_cpu_per_wall"] = self.cpu_s / self.wall_s
        return out
