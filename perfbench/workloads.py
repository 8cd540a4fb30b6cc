"""The three workloads: inputs, the fixed list of operations, and their checks.

One operation is one ``bufcfa.cli.main`` call.  A round is the workload's
whole list in a fixed order; a run repeats whole rounds, so every run
times the same mix of operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

# A round takes about 12 s on the reference host (see README.md), so a
# 35-second run ends within a few seconds of its target however fast the
# host is at the time: three rounds on a typical host.
# The shipped one_step.model (self-weighted, free phi) is left out: on about
# 1 in 60 samples its fit ends feasible but a hair above the gradient
# tolerance and the command exits 2.  Self-weighted fits run in the grid.
FIT_DOCUMENTS = ("multi_step", "fixed_weights")
FIT_SAMPLES = 22  # x 2 documents = 44 operations per round
FIT_N = 300
SEARCH_SAMPLES = 20
SEARCH_N = 300
SEARCH_THRESHOLD, SEARCH_MAX_PER_FACTOR = 15.0, 3
# The accuracy_grid design: salient .6, secondary 0/.1/.2, n 300/900, phi 0
# (fixed-phi models).  Cells at phi .3 (free phi) are left out: about 1 in
# 100 of their self-weighted fits ends a hair above the gradient tolerance
# and the command exits 2.
GRID_DESIGN = tuple((secondary, 0.0, n) for n in (300, 900) for secondary in (0.0, 0.1, 0.2))
GRID_REPLICATIONS = 2
GRID_VARIANTS = 8  # the design under 8 master seeds = 48 operations per round
GRID_REPLAYS = 12  # operations whose cell is replayed shorter


WARMUP_GRID = inputs.grid_text(0.1, 0.0, 300, GRID_REPLICATIONS, 20240501)


@dataclass
class Op:
    """One CLI call plus the check of what it wrote."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[["Op", "checks.References"], None]


def _weight_tolerance(model_path: Path) -> float:
    for raw in model_path.read_text().splitlines():
        key, _, value = raw.split("#", 1)[0].partition(":")
        if key.strip() == "weight_tolerance":
            return float(value)
    return 1e-4


def fit_ops(root: Path, workdir: Path, seed: int) -> list[Op]:
    population = inputs.read_population(root / "data" / "population_corr.dat")
    samples = inputs.write_samples(workdir, population, FIT_N, FIT_SAMPLES, seed, inputs.FIT_TAG)
    ops = []
    for k, sample in enumerate(samples):
        for name in FIT_DOCUMENTS:
            model = root / "data" / f"{name}.model"
            out = workdir / f"fit-{k:02d}-{name}.json"
            argv = ["fit", "--model", str(model), "--data", str(sample.path), "--out", str(out)]
            # The null-space oracle costs about a second: once per run.
            oracle = k == 0 and name == "fixed_weights"
            check = _fit_check(sample, name, _weight_tolerance(model), oracle)
            ops.append(Op(f"fit {sample.path.name} {name}", argv, out, check))
    return ops


def _fit_check(sample: inputs.Sample, name: str, weight_tol: float, oracle: bool):
    def check(op: Op, refs: checks.References) -> None:
        doc = json.loads(op.out.read_text())
        checks.check_discrepancies(doc, sample.S, op.out)
        checks.check_balance(doc, op.out)
        checks.check_weight_gap(doc, weight_tol, op.out)
        # The constrained steps fix phi; the ICM under the same phi nests in them.
        phi = np.array(doc["steps"][-1]["solution"]["phi"])
        f_icm = refs.icm_f((sample.path.name, name), sample.S, sample.n, phi)
        checks.check_nested(doc, f_icm, op.out)
        if oracle:
            checks.check_oracle(doc, sample.S, refs, op.out)

    return check


def search_ops(root: Path, workdir: Path, seed: int) -> list[Op]:
    sigma = inputs.balanced_sigma(0.6, 0.2, 0.3)
    samples = inputs.write_samples(workdir, sigma, SEARCH_N, SEARCH_SAMPLES, seed, inputs.SEARCH_TAG)
    model = root / "data" / "one_step.model"
    ops = []
    for k, sample in enumerate(samples):
        out = workdir / f"search-{k:02d}.json"
        argv = [
            "search", "--model", str(model), "--data", str(sample.path),
            "--threshold", repr(SEARCH_THRESHOLD), "--max-per-factor", str(SEARCH_MAX_PER_FACTOR),
            "--out", str(out),
        ]
        ops.append(Op(f"search {sample.path.name}", argv, out, _search_check(sample)))
    return ops


def _search_check(sample: inputs.Sample):
    def check(op: Op, refs: checks.References) -> None:
        doc = json.loads(op.out.read_text())
        checks.check_discrepancies(doc, sample.S, op.out)
        checks.check_search(doc, sample.n, SEARCH_THRESHOLD, SEARCH_MAX_PER_FACTOR, op.out)
        checks.check_nested(doc, refs.icm_f(sample.path.name, sample.S, sample.n, "free"), op.out)

    return check


def grid_ops(root: Path, workdir: Path, seed: int) -> list[Op]:
    cells = inputs.write_grid_cells(workdir, GRID_DESIGN, GRID_REPLICATIONS, GRID_VARIANTS, seed)
    ops = []
    for k, cell in enumerate(cells):
        out = cell.path.with_suffix(".json")
        argv = ["simulate", "--grid", str(cell.path), "--out", str(out)]
        ops.append(Op(f"simulate {cell.path.name}", argv, out, _grid_check(cell, k < GRID_REPLAYS)))
    return ops


def _grid_check(cell: inputs.GridCell, replay: bool):
    def check(op: Op, refs: checks.References) -> None:
        checks.check_grid(op.out, cell.replications, cell.secondary)
        if not replay:
            return
        # Order-independent seeding: fewer replications of the same cell
        # draw the same samples for the replications they share.
        shorter = op.out.with_name(op.out.stem + "-replay.json")
        argv = ["simulate", "--grid", str(cell.path), "--reps", str(cell.replications - 1),
                "--out", str(shorter)]
        checks.check_exit(refs.replay(cell.path.name, argv), f"replay of {cell.path.name}")
        checks.check_replay(op.out, shorter)

    return check


def warmup_argv(workload: str, root: Path, workdir: Path) -> list[str]:
    """A seed-independent operation of the workload's kind on shipped data."""
    data = root / "data"
    out = str(workdir / "warmup.json")
    if workload == "grid":
        grid = workdir / "warmup.grid"
        grid.write_text(WARMUP_GRID)
        return ["simulate", "--grid", str(grid), "--out", out]
    if workload == "fit":
        return ["fit", "--model", str(data / "multi_step.model"),
                "--data", str(data / "population_corr.dat"), "--out", out]
    return ["search", "--model", str(data / "one_step.model"),
            "--data", str(data / "population_corr.dat"), "--out", out]


WORKLOADS = {"fit": fit_ops, "search": search_ops, "grid": grid_ops}
