"""Tests of the benchmark itself.

    python3 -m pytest perfbench

A short mode runs the first operations of each workload; traced counts
must repeat exactly; each output check must reject a corrupted output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "estimation.fit.calls", "estimation.fit.iterations", "estimation.fit.converged_ratio",
    "estimation.minimize.calls", "estimation.minimize.nit", "estimation.minimize.nfev",
    "estimation.cho.not_pd", "model.unpack.calls", "constraints.evaluate_lambda.calls",
    "constraints.constraint_jacobian.calls", "io.write_result.bytes",
)


def short(workload: str, trace: bool = False) -> dict:
    return run.run(workload, seed=5, seconds=1, trace=trace, max_ops=2, setup_repeats=1)[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_mode_runs_and_checks(workload):
    result = short(workload)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = short(workload, trace=True), short(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert {k: m["unit"] for k, m in first["metrics"].items()} == tracing.metric_units()
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    layer = {k: m["value"] for k, m in first["metrics"].items()}
    assert layer["cli.main.ms"] > 0 and layer["estimation.minimize.nfev"] > 0
    if workload == "search":  # the control: no constraint work at all
        assert layer["constraints.evaluate_lambda.calls"] == 0
        assert layer["constraints.constraint_jacobian.calls"] == 0
    else:
        assert layer["constraints.constraint_jacobian.calls"] > 0
    if workload == "grid":
        assert layer["simulation.draw_sample.ms"] > 0
    else:
        assert layer["io.read.ms"] > 0 and layer["modelspec.parse_model_spec.ms"] > 0


@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    """A fixed-weight multi-step fit of one generated sample, and its input."""
    workdir = tmp_path_factory.mktemp("fit")
    op = next(o for o in workloads.fit_ops(run.ROOT, workdir, 5) if "fixed_weights" in o.label)
    assert run.call_cli(op.argv) == 0
    return json.loads(op.out.read_text()), inputs.read_population(workdir / "sample00.dat")


@pytest.fixture(scope="module")
def grid_output(tmp_path_factory):
    """One grid cell's output and a shorter replay of the same cell."""
    workdir = tmp_path_factory.mktemp("grid")
    op = workloads.grid_ops(run.ROOT, workdir, 5)[1]
    assert run.call_cli(op.argv) == 0
    refs = checks.References(run.ROOT, run.call_cli)
    op.check(op, refs)  # also writes the replay
    return op, op.out.with_name(op.out.stem + "-replay.json")


def test_f_min_off_by_1e4_is_rejected(fit_output):
    doc, S = fit_output
    checks.check_discrepancies(doc, S, "fit")
    bad = json.loads(json.dumps(doc))
    bad["steps"][-1]["solution"]["f_min"] += 1e-4
    with pytest.raises(checks.CheckFailed, match="f_min"):
        checks.check_discrepancies(bad, S, "fit")


def test_residual_of_1e6_is_rejected(fit_output):
    doc, _ = fit_output
    checks.check_balance(doc, "fit")
    # Move one secondary loading so the first constraint's residual grows by
    # 1e-6, and record that residual: stored and recomputed agree.
    bad = json.loads(json.dumps(doc))
    step = bad["steps"][-1]
    k, unwanted = 0, 1  # first member of block 0, loading on factor 1
    step["solution"]["lambda"][k][unwanted] += 1e-6 / step["weights"][k]
    step["solution"]["constraint_residuals"][0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="above"):
        checks.check_balance(bad, "fit")
    # A stored residual that lambda does not give is rejected as well.
    bad = json.loads(json.dumps(doc))
    bad["steps"][-1]["solution"]["constraint_residuals"][0] = 1e-6
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_balance(bad, "fit")


def test_reordered_csv_row_is_rejected(grid_output, tmp_path):
    op, replay = grid_output
    checks.check_grid(op.out, workloads.GRID_REPLICATIONS, 0.1)
    checks.check_replay(op.out, replay)
    copy = tmp_path / op.out.name
    for suffix in (".json", ".cells.csv", ".reps.csv"):
        shutil.copy(op.out.with_suffix(suffix), copy.with_suffix(suffix))
    lines = copy.with_suffix(".reps.csv").read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    copy.with_suffix(".reps.csv").write_text("".join(lines))
    with pytest.raises(checks.CheckFailed, match="order"):
        checks.check_grid(copy, workloads.GRID_REPLICATIONS, 0.1)
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_replay(copy, replay)


def test_failed_exit_code_is_rejected(tmp_path):
    rc = run.call_cli(["fit", "--model", str(run.ROOT / "data" / "one_step.model"),
                       "--data", str(tmp_path / "missing.dat")])
    assert rc != 0
    with pytest.raises(checks.CheckFailed, match="exit code"):
        checks.check_exit(rc, "fit")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", f"{HERE.name}/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
