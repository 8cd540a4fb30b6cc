import json
import os
import subprocess
import sys
import textwrap

import pytest

import bufcfa.cli as cli
from bufcfa.io import read_result

GRID_TEXT = """\
salient_sizes: 0.6
nonsalient_sizes: 0.0
phi_values: 0.0
sample_sizes: 300
factors: 3
per_factor: 6
"""
# A weights line as in data/fixed_weights.model, with x1's weight left open.
FIXED_WEIGHTS = "weights: x1={} " + " ".join(f"x{i}=0.6" for i in range(2, 19))


class TestFitCommand:
    def test_one_step_on_shipped_files(self, tmp_path, data_dir, capsys):
        out = tmp_path / "result.json"
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--out", str(out),
        ])
        assert code == 0
        doc = read_result(out)
        assert doc["converged"] is True
        assert doc["steps"][-1]["report"]["srmr"] <= 0.01
        printed = capsys.readouterr().out
        assert "procedure: one-step" in printed
        assert "loadings" in printed

    def test_multi_step_on_shipped_files(self, tmp_path, data_dir):
        import numpy as np

        out = tmp_path / "ms.json"
        code = cli.main([
            "fit",
            "--model", str(data_dir / "multi_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--out", str(out),
        ])
        assert code == 0
        doc = read_result(out)
        assert len(doc["steps"]) == 3
        final = doc["steps"][-1]["solution"]
        lam = np.array(final["lambda"])
        salients = [lam[i, i // 6] for i in range(18)]
        assert np.all(np.abs(np.array(salients) - 0.600) < 0.005)
        phi = np.array(final["phi"])
        assert np.all(np.abs(phi[np.tril_indices(3, -1)] - 0.304) < 0.01)
        assert doc["steps"][-1]["report"]["srmr"] <= 0.01

    def test_fixed_weight_document(self, data_dir, capsys):
        code = cli.main([
            "fit",
            "--model", str(data_dir / "fixed_weights.model"),
            "--data", str(data_dir / "population_corr.dat"),
        ])
        assert code == 0
        assert "constrained" in capsys.readouterr().out

    def test_raw_data_input(self, tmp_path, data_dir, population):
        from bufcfa.io import write_raw_data
        from bufcfa.simulation import draw_sample

        data, _ = draw_sample(population.sigma, 400, 8)
        raw = tmp_path / "sample.raw"
        write_raw_data(raw, data, [f"x{i}" for i in range(1, 19)])
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(raw),
        ])
        assert code == 0

    def test_raw_txt_with_n_prefixed_names(self, tmp_path, data_dir, population):
        # Only an "n:" line is the sample-size header; variables N1..N18 are names.
        from bufcfa.io import write_raw_data
        from bufcfa.simulation import draw_sample

        data, _ = draw_sample(population.sigma, 400, 8)
        raw = tmp_path / "facets.txt"
        write_raw_data(raw, data, [f"N{i}" for i in range(1, 19)])
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(raw),
        ])
        assert code == 0

    def test_missing_file_is_input_error(self, data_dir, capsys):
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", "/nonexistent/file.dat",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_document_is_input_error(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("variables: x1 x2\nfactor F1: x1 x9\n")
        code = cli.main([
            "fit",
            "--model", str(bad),
            "--data", str(data_dir / "population_corr.dat"),
        ])
        assert code == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "constant_column, extra, message",
        [(True, [], "x5 have zero variance"), (False, ["--n", "50"], "row count")],
        ids=["constant column", "n flag"],
    )
    def test_unusable_raw_input_is_input_error(
        self, tmp_path, data_dir, population, capsys, constant_column, extra, message
    ):
        from bufcfa.io import write_raw_data
        from bufcfa.simulation import draw_sample

        data, _ = draw_sample(population.sigma, 400, 8)
        if constant_column:
            data[:, 4] = 0.1
        raw = tmp_path / "sample.raw"
        write_raw_data(raw, data, [f"x{i}" for i in range(1, 19)])
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(raw),
            *extra,
        ])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_n_flag_overrides_matrix_header(self, tmp_path, data_dir):
        out = tmp_path / "result.json"
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--n", "750",
            "--out", str(out),
        ])
        assert code == 0
        assert read_result(out)["steps"][-1]["report"]["n"] == 750

    def test_nonconvergence_exit_code(self, data_dir, monkeypatch):
        import bufcfa.procedures as procedures

        real = procedures.one_step

        def stubborn(pattern, phi_spec, moments):
            trace = real(pattern, phi_spec, moments)
            object.__setattr__(trace, "converged", False)
            return trace

        monkeypatch.setattr(cli, "one_step", stubborn)
        code = cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
        ])
        assert code == 2

    def test_improper_icm_correlation_exits_2(self, tmp_path, improper_icm_corr):
        # The ICM step estimates phi_01 = 1.333: an estimation outcome, not an input error.
        data = tmp_path / "improper.dat"
        rows = (" ".join(repr(float(v)) for v in row) for row in improper_icm_corr)
        data.write_text("n: 300\n" + "\n".join(rows) + "\n")
        model = tmp_path / "multi.model"
        model.write_text(
            "variables: " + " ".join(f"x{i}" for i in range(1, 13)) + "\n"
            + "".join(f"factor F{j}: " + " ".join(f"x{4 * j - k}" for k in (3, 2, 1, 0)) + "\n"
                      for j in (1, 2, 3))
            + "procedure: multi-step\n"
        )
        assert cli.main(["fit", "--model", str(model), "--data", str(data)]) == 2

    def test_two_indicator_document_fits(self, tmp_path):
        # Its cold start's information is singular up to rounding: BFGS starts
        # from the identity, not from numpy's LinAlgError.
        from bufcfa.simulation import balanced_population

        sigma = balanced_population(2, 2, 0.6, 0.0, 0.3).sigma
        data = tmp_path / "four.dat"
        data.write_text("n: 300\n" + "\n".join(" ".join(map(repr, row)) for row in sigma.tolist()) + "\n")
        model = tmp_path / "four.model"
        model.write_text(
            "variables: x1 x2 x3 x4\nfactor F1: x1 x2\nfactor F2: x3 x4\nphi: free\nprocedure: icm\n"
        )
        out = tmp_path / "four.json"
        assert cli.main(["fit", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
        assert read_result(out)["steps"][0]["solution"]["converged"] is True

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("phi: free", "phi: nan", "line 7: fixed phi value nan outside (-1, 1)"),
            ("phi: free", "phi: 1.5", "line 7: fixed phi value 1.5 outside (-1, 1)"),
            ("procedure: one-step", "mi_threshold: nan", "line 8: mi_threshold must be a finite"),
            ("procedure: one-step", "weight_tolerance: nan",
             "line 8: weight_tolerance must be a positive finite"),
            ("procedure: one-step", "procedure: search\nmax_freed_per_factor: -1",
             "max_freed_per_factor must be nonnegative"),
            ("procedure: one-step", "procedure: multi-step\n" + FIXED_WEIGHTS.format("inf"),
             "line 9: weight for 'x1' must be a finite number, got 'inf'"),
            ("procedure: one-step", "procedure: multi-step\n" + FIXED_WEIGHTS.format("nan"),
             "line 9: weight for 'x1' must be a finite number, got 'nan'"),
        ],
    )
    def test_misread_document_values_are_input_errors(
        self, tmp_path, data_dir, capsys, monkeypatch, old, new, message
    ):
        import bufcfa.procedures as procedures

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(procedures, "fit", no_fit)
        text = (data_dir / "one_step.model").read_text()
        model = tmp_path / "bad.model"
        model.write_text(text.replace(old, new))
        code = cli.main([
            "fit", "--model", str(model), "--data", str(data_dir / "population_corr.dat"),
        ])
        assert code == 1
        assert message in capsys.readouterr().err


class TestQualityCommand:
    def test_prints_index(self, tmp_path, data_dir, capsys):
        out = tmp_path / "result.json"
        cli.main([
            "fit",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--out", str(out),
        ])
        capsys.readouterr()
        code = cli.main(["quality", "--result", str(out)])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_rejects_grid_document(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"kind": "grid_summary"}))
        assert cli.main(["quality", "--result", str(path)]) == 1

    def test_rejects_document_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"kind": "procedure_trace", "quality_index": 0.5}]))
        assert cli.main(["quality", "--result", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_rejects_trace_without_quality_index(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"kind": "procedure_trace"}))
        assert cli.main(["quality", "--result", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "quality_index" in err


class TestSearchCommand:
    def test_search_on_population(self, tmp_path, data_dir, capsys):
        out = tmp_path / "search.json"
        code = cli.main([
            "search",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--threshold", "5",
            "--max-per-factor", "3",
            "--out", str(out),
        ])
        assert code == 0
        doc = read_result(out)
        assert doc["procedure"] == "search"
        assert doc["mi_table"] is not None

    def test_unconverged_refit_exits_2(self, data_dir, monkeypatch):
        import dataclasses

        import bufcfa.procedures as procedures

        real_fit_each = procedures.fit_each

        def second_refit_fails(models, moments, start=None):
            solutions = real_fit_each(models, moments, start)
            solutions[1] = dataclasses.replace(solutions[1], converged=False)
            return solutions

        monkeypatch.setattr(procedures, "fit_each", second_refit_fails)
        code = cli.main([
            "search",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--threshold", "5",
        ])
        assert code == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_1(self, tmp_path, data_dir, capsys, threshold):
        out = tmp_path / "search.json"
        code = cli.main([
            "search",
            "--model", str(data_dir / "one_step.model"),
            "--data", str(data_dir / "population_corr.dat"),
            "--threshold", threshold,
            "--out", str(out),
        ])
        assert code == 1
        assert "mi_threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_document_bounds_hold_without_flags(self, tmp_path, data_dir):
        text = (data_dir / "one_step.model").read_text()
        text = text.replace("procedure: one-step", "procedure: search\nmi_threshold: 0.5")
        model = tmp_path / "search.model"
        model.write_text(text)
        patterns = {}
        for command in ("fit", "search"):
            out = tmp_path / f"{command}.json"
            argv = [command, "--model", str(model), "--data", str(data_dir / "population_corr.dat")]
            assert cli.main(argv + ["--out", str(out)]) == 0
            patterns[command] = read_result(out)["pattern"]["cells"]
        assert patterns["fit"] == patterns["search"]
        # The largest index here is about 8: the default threshold of 15 frees nothing.
        assert sum(row.count("nonsalient") for row in patterns["fit"]) == 9


class TestFixedPhiSearch:
    @pytest.mark.parametrize("command", ["fit", "search"])
    def test_every_step_keeps_the_fixed_correlations(self, tmp_path, data_dir, command):
        import numpy as np

        text = (data_dir / "one_step.model").read_text()
        text = text.replace("phi: free", "phi: 0.3")
        text = text.replace("procedure: one-step", "procedure: search\nmi_threshold: 5")
        model = tmp_path / "search.model"
        model.write_text(text)
        out = tmp_path / "search.json"
        argv = [command, "--model", str(model), "--data", str(data_dir / "population_corr.dat")]
        if command == "search":
            argv += ["--threshold", "5"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        doc = read_result(out)
        assert doc["procedure"] == "search"
        assert len(doc["steps"]) == 2
        for step in doc["steps"]:
            phi = np.array(step["solution"]["phi"])
            assert np.all(phi[~np.eye(3, dtype=bool)] == 0.3)


class TestUsageErrors:
    """argparse's own exit code 2 would read as non-convergence."""

    @pytest.mark.parametrize(
        "extra",
        [
            ("fit", [], "--data"),
            ("fit", ["--data", "x.dat", "--bogus"], "--bogus"),
            # The start-nudge seed is gone from fit and search.
            ("fit", ["--data", "x.dat", "--seed", "3"], "--seed"),
            ("search", ["--data", "x.dat", "--seed", "3"], "--seed"),
        ],
    )
    def test_usage_error_exits_1(self, data_dir, capsys, extra):
        command, args, named = extra
        argv = [command, "--model", str(data_dir / "one_step.model")] + args
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage: bufcfa" in err
        assert named in err


class TestSimulateCommand:
    def test_tiny_grid(self, tmp_path, capsys):
        grid = tmp_path / "tiny.grid"
        grid.write_text(GRID_TEXT)
        out = tmp_path / "sim.json"
        code = cli.main([
            "simulate", "--grid", str(grid), "--reps", "2", "--seed", "77",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "sim.cells.csv").exists()
        assert (tmp_path / "sim.reps.csv").exists()
        printed = capsys.readouterr().out
        assert "1 cells x 2 replications" in printed

    def test_malformed_grid(self, tmp_path, capsys):
        grid = tmp_path / "bad.grid"
        grid.write_text("salient_sizes: 0.6\n")
        code = cli.main(["simulate", "--grid", str(grid), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "missing required key" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_nonpositive_reps_flag_is_input_error(self, tmp_path, capsys, reps):
        grid = tmp_path / "tiny.grid"
        grid.write_text(GRID_TEXT)
        code = cli.main([
            "simulate", "--grid", str(grid), "--reps", reps, "--out", str(tmp_path / "o.json"),
        ])
        assert code == 1
        assert "replications must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("per_factor: 0", "per_factor must be at least 1"),
            ("per_factor: -2", "per_factor must be at least 1"),
            ("factors: 1", "factors must be at least 2"),
            ("sample_sizes: 300 18", "must exceed p=18"),
            ("salient_sizes: nan", "give one or more values in [-1, 1]"),
            ("phi_values: nan", "give one or more values in [-1, 1]"),
            ("master_seed: -1", "master_seed must be nonnegative"),
            ("salient_sizes: 0.6 0.6", "values equal to 0.001 share samples"),
        ],
    )
    def test_bad_design_is_input_error_before_any_fit(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        import bufcfa.simulation as simulation

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(simulation, "fit", no_fit)
        key = line.split(":")[0]
        text = "".join(
            row + "\n" for row in GRID_TEXT.splitlines() if not row.startswith(key + ":")
        )
        grid = tmp_path / "bad.grid"
        grid.write_text(text + line + "\n")
        code = cli.main(["simulate", "--grid", str(grid), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_zero_replications_in_document_is_input_error(self, tmp_path, capsys):
        grid = tmp_path / "zero.grid"
        grid.write_text(GRID_TEXT + "replications: 0\n")
        code = cli.main(["simulate", "--grid", str(grid), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "replications must be at least 1" in capsys.readouterr().err


def test_no_command_loads_scipy_optimize(tmp_path, data_dir):
    """A fresh process: scipy.optimize stays unloaded after fit and after simulate.

    It runs outside this process, where the test oracles have already loaded
    scipy.optimize.
    """
    grid = tmp_path / "one.grid"
    grid.write_text(GRID_TEXT)
    script = textwrap.dedent(f"""
        import json, sys
        import bufcfa, bufcfa.cli
        fit = bufcfa.cli.main([
            "fit", "--model", {str(data_dir / "multi_step.model")!r},
            "--data", {str(data_dir / "population_corr.dat")!r},
            "--out", {str(tmp_path / "fit.json")!r},
        ])
        after_fit = "scipy.optimize" in sys.modules
        simulate = bufcfa.cli.main([
            "simulate", "--grid", {str(grid)!r}, "--reps", "1",
            "--out", {str(tmp_path / "sim.json")!r},
        ])
        print(json.dumps([fit, after_fit, simulate, "scipy.optimize" in sys.modules]))
    """)
    env = {**os.environ, "PYTHONPATH": str(data_dir.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout.splitlines()[-1]) == [0, False, 0, False]


def test_no_command_loads_scipy(tmp_path, data_dir):
    """A fresh process: no scipy module is loaded after fit, search and simulate.

    The library's runtime dependency is numpy alone; only the test oracles
    import scipy, and they run in this process, not in that one.
    """
    grid = tmp_path / "one.grid"
    grid.write_text(GRID_TEXT)
    data = str(data_dir / "population_corr.dat")
    commands = [
        ["fit", "--model", str(data_dir / "multi_step.model"), "--data", data],
        ["search", "--model", str(data_dir / "one_step.model"), "--data", data],
        ["simulate", "--grid", str(grid), "--reps", "1"],
    ]
    script = textwrap.dedent(f"""
        import json, sys
        import bufcfa, bufcfa.cli
        seen = []
        for k, argv in enumerate({commands!r}):
            code = bufcfa.cli.main(argv + ["--out", {str(tmp_path)!r} + f"/out{{k}}.json"])
            seen.append([code, "scipy" in sys.modules])
        print(json.dumps(seen))
    """)
    env = {**os.environ, "PYTHONPATH": str(data_dir.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout.splitlines()[-1]) == [[0, False]] * 3
