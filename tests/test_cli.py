import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from bome import (
    BarrierKind,
    ConfigurationError,
    JointPoint,
    SolverConfig,
    StepDiagnostics,
    hyperclean_oracle,
    make_synthetic_hyperclean,
    minimax_oracle,
    run,
)
from bome import cli
from bome.cli import (
    build_experiment,
    emit_summary_json,
    emit_trace_csv,
    expand_sweep,
    main,
    parse_config,
    read_trace_csv,
)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config('{"problem": "minimax", "method": "bome"}')
        assert cfg.problem == "minimax"
        assert cfg.solver.eta == 0.5
        assert cfg.solver.inner_iters_T == 10
        assert cfg.solver.barrier_kind is BarrierKind.GRAD_NORM_SQ

    def test_invalid_json_reports_location(self):
        with pytest.raises(ConfigurationError, match="line"):
            parse_config('{"problem": "minimax",}')

    def test_bad_eta_named(self):
        with pytest.raises(ConfigurationError, match="eta"):
            parse_config('{"problem": "coreset", "solver": {"eta": -1}}')

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            parse_config('{"problem": "minimax", "stepsize": 1}')

    def test_unknown_solver_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown solver field"):
            parse_config('{"problem": "minimax", "solver": {"momentum_rate": 0.9}}')

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigurationError, match="problem"):
            parse_config('{"problem": "sudoku"}')

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config('{"problem": "bad", "method": "worse"}')
        assert "problem" in str(exc.value) and "method" in str(exc.value)

    def test_baselines_limited_to_minimax(self):
        with pytest.raises(ConfigurationError, match="minimax"):
            parse_config('{"problem": "coreset", "method": "gda"}')

    def test_sweep_plan_size(self):
        cfg = parse_config(
            json.dumps(
                {
                    "problem": "hyperclean",
                    "problem_params": {"m_tr": 30, "m_val": 10, "p": 3},
                    "solver": {"iters": 5},
                    "sweep": {"T": [1, 10, 20]},
                }
            )
        )
        plans = expand_sweep(cfg)
        assert len(plans) == 3
        assert [p.solver.inner_iters_T for p in plans] == [1, 10, 20]
        assert all(p.sweep is None for p in plans)

    def test_sweep_cross_product_capped(self):
        doc = {
            "problem": "minimax",
            "sweep": {"eta": list(np.linspace(0.1, 0.9, 200)), "T": list(range(1, 101))},
        }
        with pytest.raises(ConfigurationError, match="cross-product"):
            parse_config(json.dumps(doc))

    def test_explicit_start_vectors(self):
        cfg = parse_config(
            '{"problem": "minimax", "start": {"v": [2.0], "theta": [-1.0]}}'
        )
        _, start = build_experiment(cfg)
        assert start.v[0] == 2.0 and start.theta[0] == -1.0

    def test_coreset_named_presets(self):
        for name, theta in (("start1", [0.0, 3.0]), ("start2", [-3.0, 1.0]), ("start3", [3.5, 1.0])):
            cfg = parse_config(json.dumps({"problem": "coreset", "start": name}))
            _, start = build_experiment(cfg)
            np.testing.assert_array_equal(start.v, np.zeros(4))
            np.testing.assert_array_equal(start.theta, theta)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="preset"):
            parse_config('{"problem": "minimax", "start": "start9"}')

    def test_wrong_start_dimensions_rejected(self):
        with pytest.raises(ConfigurationError, match="dimensions"):
            parse_config('{"problem": "coreset", "start": {"v": [0.0], "theta": [0, 3]}}')

    def test_separate_steps_parsed(self):
        cfg = parse_config('{"problem": "minimax", "solver": {"xi": 0.01, "xi_v": 1.0}}')
        assert cfg.solver.xi_v == 1.0
        assert cfg.solver.xi_theta == 0.01

    def test_sweep_over_xi_moves_unset_alpha(self):
        doc = {"problem": "minimax", "sweep": {"xi": [0.01, 0.1]}}
        plans = expand_sweep(parse_config(json.dumps(doc)))
        assert [p.solver.inner_step_alpha for p in plans] == [0.01, 0.1]
        doc["solver"] = {"alpha": 0.2}
        plans = expand_sweep(parse_config(json.dumps(doc)))
        assert [p.solver.outer_step_xi for p in plans] == [0.01, 0.1]
        assert [p.solver.inner_step_alpha for p in plans] == [0.2, 0.2]

    def test_sweep_over_xi_moves_unset_separate_step(self):
        doc = {"problem": "minimax", "solver": {"xi_v": 1.0}, "sweep": {"xi": [0.01, 0.1]}}
        plans = expand_sweep(parse_config(json.dumps(doc)))
        assert [(p.solver.xi_v, p.solver.xi_theta) for p in plans] == [(1.0, 0.01), (1.0, 0.1)]

    @pytest.mark.parametrize("problem", sorted(cli.PROBLEMS))
    def test_unknown_problem_params_rejected(self, problem):
        doc = {"problem": problem, "problem_params": {"samples": 10}}
        with pytest.raises(ConfigurationError, match="problem_params field.*samples"):
            parse_config(json.dumps(doc))

    def test_hyperclean_defaults_are_the_generator_defaults(self, rng):
        # an empty problem_params draws make_synthetic_hyperclean's defaults
        # (the sizes, corruption and ridge_c the CLI has always used) with
        # the solver seed
        oracle, start = build_experiment(
            parse_config('{"problem": "hyperclean", "solver": {"seed": 4}}'))
        prob = make_synthetic_hyperclean(seed=4)
        assert (prob.n_train, prob.val_labels.size, prob.n_features) == (300, 100, 10)
        assert prob.corruption_mask.sum() == 90 and prob.ridge_c == 0.001
        assert start.v.shape == (300,) and start.theta.shape == (prob.theta_dim,)
        want = hyperclean_oracle(prob)
        for _ in range(5):
            p = JointPoint(rng.uniform(-0.5, 1.5, 300), rng.standard_normal(prob.theta_dim))
            assert oracle.eval_f(p) == want.eval_f(p) and oracle.eval_g(p) == want.eval_g(p)
            assert np.array_equal(oracle.grad_g(p).dtheta, want.grad_g(p).dtheta)

    def test_coreset_custom_geometry(self):
        cfg = parse_config(
            json.dumps(
                {
                    "problem": "coreset",
                    "problem_params": {
                        "x0": [0.0, 0.0],
                        "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                    },
                }
            )
        )
        oracle, _ = build_experiment(cfg)
        # inner target at v = 0 is the vertex mean, here the origin
        np.testing.assert_allclose(oracle.exact_inner_opt(np.zeros(4)), [0.0, 0.0], atol=1e-15)


def small_minimax_trace(K=12, every=10):
    oracle = minimax_oracle()
    cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=K, kkt_eval_every=every)
    return run(oracle, JointPoint([1.0], [1.0]), cfg)


class TestEmitTraceCsv:
    def test_single_iteration_two_lines(self, tmp_path):
        trace = small_minimax_trace(K=1)
        path = tmp_path / "t.csv"
        emit_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "k,f,q_hat,lambda,phi,delta_norm,grad_qhat_norm,kkt,wall_us"

    def test_kkt_column_blank_pattern(self, tmp_path):
        trace = small_minimax_trace(K=25, every=10)
        path = tmp_path / "t.csv"
        emit_trace_csv(trace, path)
        rows = read_trace_csv(path)
        populated = [r["k"] for r in rows if r["kkt"] is not None]
        assert populated == [0, 10, 20, 24]

    def test_floats_roundtrip_bit_exact(self, tmp_path):
        trace = small_minimax_trace(K=40, every=7)
        path = tmp_path / "t.csv"
        emit_trace_csv(trace, path)
        rows = read_trace_csv(path)
        assert len(rows) == len(trace.records)
        for row, rec in zip(rows, trace.records):
            assert row["f"] == rec.f_value
            assert row["q_hat"] == rec.q_hat
            assert row["lambda"] == rec.lambda_k
            assert row["phi"] == rec.phi_k
            assert row["delta_norm"] == rec.delta_norm
            assert row["grad_qhat_norm"] == rec.grad_qhat_norm
            if rec.kkt_value is None:
                assert row["kkt"] is None
            else:
                assert row["kkt"] == rec.kkt_value

    def test_bytes_match_per_cell_spelling(self, tmp_path):
        # every cell spelled on its own: blank for None, 17 significant digits
        # for a float, str for an integer
        fields = (("iter_k", False), ("f_value", True), ("q_hat", True), ("lambda_k", True),
                  ("phi_k", True), ("delta_norm", True), ("grad_qhat_norm", True),
                  ("kkt_value", True), ("wall_time_micros", False))
        trace = small_minimax_trace(K=25, every=10)
        extremes = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
        walls = (2**31, 2**53 + 1, 10**18, 0)
        for i, (x, wall) in enumerate(zip(extremes, walls)):
            for kkt in (x, None):
                trace.records.append(StepDiagnostics(
                    iter_k=25 + i, f_value=x, q_hat=-x, lambda_k=x, phi_k=x / 3.0,
                    delta_norm=abs(x), grad_qhat_norm=x, kkt_value=kkt, wall_time_micros=wall))
        assert {r.kkt_value is None for r in trace.records} == {True, False}
        lines = ["k,f,q_hat,lambda,phi,delta_norm,grad_qhat_norm,kkt,wall_us"]
        for rec in trace.records:
            cells = []
            for attr, is_float in fields:
                x = getattr(rec, attr)
                cells.append("" if x is None else ("%.17g" % x if is_float else str(x)))
            lines.append(",".join(cells))
        path = tmp_path / "t.csv"
        emit_trace_csv(trace, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_unix_newlines(self, tmp_path):
        trace = small_minimax_trace(K=3)
        path = tmp_path / "t.csv"
        emit_trace_csv(trace, path)
        data = path.read_bytes()
        assert b"\r" not in data

    @pytest.mark.parametrize("edit", [
        lambda cells: cells[:-1],
        lambda cells: cells + ["0"],
    ], ids=["short", "long"])
    def test_row_with_wrong_field_count_rejected(self, tmp_path, edit):
        path = tmp_path / "t.csv"
        emit_trace_csv(small_minimax_trace(K=3), path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"t\.csv, line 3: expected 9 fields"):
            read_trace_csv(path)

    @pytest.mark.parametrize("column, index, cell", [
        ("f", 1, "abc"),
        ("k", 0, ""),
        ("wall_us", 8, ""),
    ], ids=["bad-float", "blank-k", "blank-wall_us"])
    def test_unparsable_cell_rejected_with_its_place(self, tmp_path, column, index, cell):
        path = tmp_path / "t.csv"
        emit_trace_csv(small_minimax_trace(K=3), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[index] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"t\.csv, line 3, column {column}: cannot parse"):
            read_trace_csv(path)


class TestEmitSummaryJson:
    def test_minimax_summary_has_distance_to_optimum(self, tmp_path):
        trace = small_minimax_trace(K=500, every=100)
        path = tmp_path / "s.json"
        emit_summary_json([trace], path)
        payload = json.loads(path.read_text())
        assert len(payload) == 1
        entry = payload[0]
        fp = trace.final_point
        assert entry["dist_to_opt"] == pytest.approx(np.hypot(fp.v[0], fp.theta[0]))
        assert entry["problem"] == "minimax"
        assert entry["final_kkt"] == trace.final_kkt.total
        assert entry["termination"] == "max_iters"

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_summary_json([], tmp_path / "s.json")


class TestCliMain:
    def write_config(self, tmp_path, doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_run_writes_trace_and_summary(self, tmp_path):
        out = tmp_path / "mm.csv"
        cfg = self.write_config(
            tmp_path,
            {
                "problem": "minimax",
                "solver": {"iters": 50, "kkt_every": 10},
                "output_path": str(out),
            },
        )
        code = main(["run", str(cfg)])
        assert code == 0
        assert out.exists()
        assert out.with_suffix(".summary.json").exists()
        rows = read_trace_csv(out)
        assert len(rows) == 50

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "mm.csv"
        cfg = self.write_config(
            tmp_path, {"problem": "minimax", "solver": {"iters": 30}, "output_path": str(out)}
        )
        code = main(["run", str(cfg), "--iters", "5", "--eta", "0.9", "--barrier", "value"])
        assert code == 0
        payload = json.loads(out.with_suffix(".summary.json").read_text())
        assert payload[0]["config"]["iters"] == 5
        assert payload[0]["config"]["eta"] == 0.9
        assert payload[0]["config"]["barrier"] == "value"

    @pytest.mark.parametrize("solver, alpha", [({}, 0.1), ({"alpha": 0.2}, 0.2)])
    def test_xi_flag_moves_unset_alpha(self, tmp_path, solver, alpha):
        out = tmp_path / "mm.csv"
        cfg = self.write_config(
            tmp_path,
            {"problem": "minimax", "solver": dict(solver, iters=3), "output_path": str(out)},
        )
        assert main(["run", str(cfg), "--xi", "0.1"]) == 0
        payload = json.loads(out.with_suffix(".summary.json").read_text())
        assert payload[0]["config"]["xi"] == 0.1
        assert payload[0]["config"]["alpha"] == alpha

    def test_identical_configs_identical_csv_excluding_wall_time(self, tmp_path):
        doc = {
            "problem": "hyperclean",
            "problem_params": {"seed": 3, "m_tr": 40, "m_val": 16, "p": 4},
            "solver": {"iters": 40, "kkt_every": 20, "alpha": 0.002, "xi": 0.002},
        }
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            doc["output_path"] = str(out)
            cfg = self.write_config(tmp_path, doc, name + ".json")
            assert main(["run", str(cfg)]) == 0
            outs.append(out)

        def strip_wall(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(outs[0]) == strip_wall(outs[1])

    def test_sweep_parallel_jobs_match_sequential(self, tmp_path):
        doc = {
            "problem": "minimax",
            "solver": {"iters": 30, "kkt_every": 10},
            "sweep": {"eta": [0.1, 0.9], "T": [1, 5]},
        }
        summaries = []
        for name, jobs in (("seq", "1"), ("par", "2")):
            out = tmp_path / f"{name}.csv"
            doc["output_path"] = str(out)
            cfg = self.write_config(tmp_path, doc, f"{name}.json")
            assert main(["sweep", str(cfg), "--jobs", jobs]) == 0
            payload = json.loads(out.with_suffix(".summary.json").read_text())
            for entry in payload:
                entry.pop("total_wall_us")
            summaries.append(payload)
        assert summaries[0] == summaries[1]

    def test_sweep_runs_cells_in_calling_thread(self, tmp_path, monkeypatch):
        calls = []
        inner_run = cli.run

        def recording_run(oracle, start, cfg, *args):
            calls.append((threading.get_ident(), cfg.inner_iters_T, cfg.eta))
            return inner_run(oracle, start, cfg, *args)

        monkeypatch.setattr(cli, "run", recording_run)
        cfg = self.write_config(tmp_path, {
            "problem": "minimax",
            "solver": {"iters": 20, "kkt_every": 10},
            "sweep": {"eta": [0.1, 0.9], "T": [1, 5]},
            "output_path": str(tmp_path / "mm.csv"),
        })
        assert main(["sweep", str(cfg), "--jobs", "2"]) == 0
        main_thread = threading.main_thread().ident
        assert calls == [(main_thread, T, eta) for T in (1, 5) for eta in (0.1, 0.9)]

    def test_sweep_cell_failure_keeps_earlier_cells(self, tmp_path, monkeypatch):
        calls = []
        inner_run = cli.run

        def failing_run(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("cell 2 failed")
            return inner_run(*args)

        monkeypatch.setattr(cli, "run", failing_run)
        out = tmp_path / "mm.csv"
        cfg = self.write_config(tmp_path, {
            "problem": "minimax",
            "solver": {"iters": 20, "kkt_every": 10},
            "sweep": {"eta": [0.1, 0.9], "T": [1, 5]},
            "output_path": str(out),
        })
        with pytest.raises(RuntimeError, match="cell 2 failed"):
            main(["sweep", str(cfg)])
        written = [(tmp_path / f"mm_{idx:03d}.csv").exists() for idx in range(4)]
        assert written == [True, True, False, False]
        assert not out.with_suffix(".summary.json").exists()

    def test_sweep_writes_one_trace_per_combo(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = self.write_config(
            tmp_path,
            {
                "problem": "minimax",
                "solver": {"iters": 20, "kkt_every": 10},
                "sweep": {"eta": [0.1, 0.5], "T": [1, 10]},
                "output_path": str(out),
            },
        )
        code = main(["sweep", str(cfg)])
        assert code == 0
        for idx in range(4):
            assert (tmp_path / f"sweep_{idx:03d}.csv").exists()
        payload = json.loads(out.with_suffix(".summary.json").read_text())
        assert len(payload) == 4
        etas = sorted({entry["config"]["eta"] for entry in payload})
        assert etas == [0.1, 0.5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_distance_is_written_as_null(self, tmp_path):
        out = tmp_path / "gda.csv"
        cfg = self.write_config(tmp_path, {
            "problem": "minimax", "method": "gda",
            "solver": {"xi": 0.5, "iters": 8000, "kkt_every": 8000},
            "output_path": str(out),
        })
        assert main(["run", str(cfg)]) == 1

        def no_constant(name):
            raise ValueError(f"summary holds {name}, which is not JSON")

        text = out.with_suffix(".summary.json").read_text()
        entry = json.loads(text, parse_constant=no_constant)[0]
        assert entry["termination"] == "numerical_error"
        assert entry["dist_to_opt"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_code_on_numerical_blowup(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "problem": "ridge",
                "solver": {"xi": 1000.0, "iters": 500, "kkt_every": 100},
                "output_path": str(tmp_path / "boom.csv"),
            },
        )
        assert main(["run", str(cfg)]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_size_warnings_reach_stderr_and_summary(self, tmp_path, capsys):
        # the default xi = alpha = 0.05 is past ridge's declared 1/L, so the
        # run diverges in its first step; both warnings say why
        out = tmp_path / "ridge.csv"
        cfg = self.write_config(tmp_path, {"problem": "ridge", "output_path": str(out)})
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "hit a numerical error" in err
        entry = json.loads(out.with_suffix(".summary.json").read_text())[0]
        assert [w.split(":")[0] for w in entry["warnings"]] == ["xi > 1/L", "alpha > 1/L"]
        for warning in entry["warnings"]:
            assert f"warning: {out}: {warning}" in err
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and all(line.count(",") == 8 for line in lines)
        assert [row["k"] for row in read_trace_csv(out)] == [0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_warnings_in_grid_order(self, tmp_path, capsys):
        out = tmp_path / "ridge.csv"
        cfg = self.write_config(
            tmp_path,
            {"problem": "ridge", "solver": {"iters": 3},
             "sweep": {"xi": [0.05, 0.001, 0.04]}, "output_path": str(out)},
        )
        assert main(["sweep", str(cfg), "--jobs", "2"]) == 1
        warned = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning: ")]
        cells = [str(tmp_path / f"ridge_{idx:03d}.csv") for idx in (0, 0, 2, 2)]
        assert warned == cells
        payload = json.loads(out.with_suffix(".summary.json").read_text())
        assert [len(entry["warnings"]) for entry in payload] == [2, 0, 2]

    @pytest.mark.parametrize("command, doc", [
        ("run", {"problem": "minimax", "solver": {"T": 2.5}}),
        ("run", {"problem": "minimax", "solver": {"iters": 2.5}}),
        ("run", {"problem": "minimax", "solver": {"xi": "abc"}}),
        ("run", {"problem": "minimax", "solver": {"momentum": "x"}}),
        ("run", {"problem": "minimax", "solver": {"xi": "a", "xi_v": 1.0}}),
        ("run", {"problem": "minimax", "solver": {"xi_theta": -1.0}}),
        ("run", {"problem": "hyperclean", "problem_params": {"m_tr": "a"}}),
        ("run", {"problem": "hyperclean", "problem_params": {"ridge_c": -5.0}}),
        ("run", {"problem": "hyperclean", "problem_params": {"ridge_c": float("nan")}}),
        ("run", {"problem": "minimax", "start": {"v": "abc", "theta": [1.0]}}),
        ("run", {"problem": "minimax", "start": {"v": [float("nan")], "theta": [1.0]}}),
        ("run", {"problem": "coreset", "problem_params": {"x0": [1, 2, 3]}}),
        ("run", {"problem": "minimax", "output_path": 5}),
        ("sweep", {"problem": "ridge", "solver": {"iters": 3}, "sweep": {"seed": [0, "x"]}}),
        ("sweep", {"problem": "ridge", "solver": {"iters": 3}, "sweep": {"seed": [0, -1]}}),
        ("run", {"problem": "hyperclean", "problem_params": {"p": 0}}),
        ("run", {"problem": "ridge", "problem_params": {"p": 0}}),
        ("run", {"problem": "ridge", "problem_params": {"m_val": 0}}),
        ("run", {"problem": "minimax", "solver": {"barrier": "bogus"}}),
        ("run", {"problem": "minimax", "solver": {"barrier": 3}}),
        ("run", {"problem": "minimax", "method": ["bome"]}),
    ], ids=["T", "iters", "xi", "momentum", "xi-with-xi_v", "xi_theta", "m_tr", "ridge_c",
            "ridge_c-nan", "start-v", "start-nan", "x0", "output_path", "sweep-seed",
            "sweep-negative-seed", "hyperclean-p0", "ridge-p0", "ridge-mval0", "barrier",
            "barrier-int", "method-list"])
    def test_malformed_value_is_configuration_error(
        self, tmp_path, monkeypatch, capsys, command, doc
    ):
        monkeypatch.setenv("BOME_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = self.write_config(tmp_path, doc)
        assert main([command, str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("output_path", [None, "x.csv"])
    @pytest.mark.parametrize("sweep", [None, {"eta": [0.1, 0.5]}])
    def test_sweep_cell_names(self, tmp_path, monkeypatch, output_path, sweep):
        # a name gets the cell index only when the config has a sweep field
        outdir = tmp_path / "results"
        monkeypatch.setenv("BOME_OUTPUT_DIR", str(outdir))
        doc = {"problem": "minimax", "solver": {"iters": 3}}
        if output_path is not None:
            doc["output_path"] = output_path
        if sweep is not None:
            doc["sweep"] = sweep
        assert main(["sweep", str(self.write_config(tmp_path, doc))]) == 0
        stem = "x" if output_path else "minimax_bome"
        cells = [f"{stem}_{i:03d}.csv" for i in range(2)] if sweep else [f"{stem}.csv"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(cells + [f"{stem}.summary.json"])

    def test_coreset_geometry_sizes_the_start(self, tmp_path, capsys):
        # three 2-D vertices: v has three weights and the named starts apply
        out = tmp_path / "tri.csv"
        doc = {"problem": "coreset", "problem_params": {"vertices": [[1, 0], [0, 1], [-1, 0]]},
               "solver": {"iters": 20}, "start": "start2", "output_path": str(out)}
        assert main(["run", str(self.write_config(tmp_path, doc))]) == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())[0]
        assert summary["termination"] == "max_iters" and len(read_trace_csv(out)) == 20
        # 3-D geometry: the default start is v = 0, theta = 0; the named
        # 2-D starts are a configuration error
        out = tmp_path / "cube.csv"
        doc = {"problem": "coreset",
               "problem_params": {"x0": [1, 1, 1],
                                  "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]},
               "solver": {"iters": 20}, "output_path": str(out)}
        _, start = build_experiment(parse_config(json.dumps(doc)))
        np.testing.assert_array_equal(start.v, np.zeros(4))
        np.testing.assert_array_equal(start.theta, np.zeros(3))
        assert main(["run", str(self.write_config(tmp_path, doc))]) == 0
        assert len(read_trace_csv(out)) == 20
        capsys.readouterr()
        doc["start"] = "start1"
        assert main(["run", str(self.write_config(tmp_path, doc, "bad.json"))]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_code_on_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path, {"problem": "nonexistent"})
        assert main(["run", str(cfg)]) == 2

    def test_run_rejects_sweep_config(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"problem": "minimax", "sweep": {"eta": [0.1, 0.5]}}
        )
        assert main(["run", str(cfg)]) == 2

    def test_eta_sweep_on_coreset_all_converge(self, tmp_path):
        out = tmp_path / "eta.csv"
        cfg = self.write_config(
            tmp_path,
            {
                "problem": "coreset",
                "start": "start1",
                "solver": {
                    "xi": 0.002,
                    "alpha": 0.25,
                    "xi_v": 1.0,
                    "xi_theta": 0.002,
                    "momentum": 0.9,
                    "iters": 20000,
                    "kkt_every": 50,
                    "stop_kkt_tol": 1e-4,
                },
                "sweep": {"eta": [0.1, 0.5, 0.9]},
                "output_path": str(out),
            },
        )
        assert main(["sweep", str(cfg)]) == 0
        payload = json.loads(out.with_suffix(".summary.json").read_text())
        assert len(payload) == 3
        assert all(entry["final_kkt"] < 1e-3 for entry in payload)
        assert sorted(entry["config"]["eta"] for entry in payload) == [0.1, 0.5, 0.9]

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        monkeypatch.setenv("BOME_OUTPUT_DIR", str(outdir))
        cfg = self.write_config(
            tmp_path,
            {"problem": "minimax", "solver": {"iters": 5}, "output_path": "rel.csv"},
        )
        assert main(["run", str(cfg)]) == 0
        assert (outdir / "rel.csv").exists()

    def test_gradcheck_subcommand(self, capsys):
        assert main(["gradcheck", "coreset", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "gradient check for f" in out
        assert "passed" in out

    def test_gradcheck_unknown_problem(self):
        assert main(["gradcheck", "nonexistent"]) == 2

    @pytest.mark.parametrize("flags", [["--points", "0"], ["--points", "-2"], ["--seed", "-1"]],
                             ids=["points-0", "points-negative", "seed-negative"])
    def test_gradcheck_bad_arguments(self, capsys, flags):
        assert main(["gradcheck", "coreset", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: gradcheck needs --points >= 1")

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ("coreset", "minimax", "lls", "hyperclean", "ridge"):
            assert name in out

    def test_runs_as_python_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "bome", "--help"],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "list-problems" in proc.stdout
