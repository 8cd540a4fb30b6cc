"""Output checks, run outside the timed region.

Every recomputation here is written with numpy alone.  The only calls into
``bufcfa`` are the independent-clusters reference fits that nesting is
checked against, and the null-space oracle of ``tests/nullspace_oracle.py``
(which builds its own constraint matrix and runs its own BFGS).  Nothing
is compared with a stored copy of earlier output.

Each check raises :class:`CheckFailed` with a message naming the file.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

from inputs import BLOCKS, P, Q

F_TOL = 1e-8  # recomputed discrepancy vs the stored f_min
RESIDUAL_TOL = 1e-8  # every balance residual, as the fit's feasibility tolerance
RESIDUAL_AGREE = 1e-12  # recomputed vs stored residuals
NEST_TOL = 1e-9  # slack on F(constrained or searched) <= F(ICM)
ORACLE_TOL = 1e-6  # fixed-weight f_min vs the null-space optimum


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def discrepancy(S: np.ndarray, lam, phi, psi) -> float:
    """ML discrepancy ln|Sigma| - ln|S| + tr(S Sigma^-1) - p."""
    lam, phi, psi = np.asarray(lam), np.asarray(phi), np.asarray(psi)
    sigma = lam @ phi @ lam.T + np.diag(psi)
    _, ldet_sigma = np.linalg.slogdet(sigma)
    _, ldet_S = np.linalg.slogdet(S)
    return float(ldet_sigma - ldet_S + np.trace(np.linalg.solve(sigma, S)) - S.shape[0])


def balance_residuals(lam: np.ndarray, weights) -> np.ndarray:
    """One residual per (block, unwanted factor) pair, in the program's order:
    the block's secondary loadings on the unwanted factor, weighted by
    ``weights[k]`` per variable."""
    w = np.asarray(weights, dtype=float)
    out = []
    for b, members in enumerate(BLOCKS):
        m = list(members)
        out.extend(float(w[m] @ lam[m, j]) for j in range(Q) if j != b)
    return np.array(out)


def salient_estimates(lam: np.ndarray) -> np.ndarray:
    return np.array([lam[i, b] for b, members in enumerate(BLOCKS) for i in members])


def check_exit(rc: int, label: str) -> None:
    require(rc == 0, f"{label}: exit code {rc}")


def _steps(doc: dict, path) -> list[dict]:
    require(doc.get("kind") == "procedure_trace", f"{path}: not a procedure trace")
    require(doc["converged"] is True, f"{path}: procedure did not converge")
    return doc["steps"]


def check_discrepancies(doc: dict, S: np.ndarray, path) -> None:
    """Every step's f_min equals the discrepancy of its own estimates."""
    for step in _steps(doc, path):
        sol = step["solution"]
        require(sol["converged"] is True, f"{path}: step {step['label']} did not converge")
        f = discrepancy(S, sol["lambda"], sol["phi"], sol["psi"])
        require(
            abs(f - sol["f_min"]) <= F_TOL,
            f"{path}: step {step['label']} f_min {sol['f_min']!r} but recomputed {f!r}",
        )


def check_balance(doc: dict, path) -> None:
    """Residuals recomputed from lambda, under the weights recorded with each
    constrained (fixed-weight) step, agree and are all within tolerance."""
    for step in _steps(doc, path):
        label = step["label"]
        if not label.startswith("constrained-"):
            continue
        weights = step["weights"]
        require(weights is not None, f"{path}: step {label} has no weights")
        lam = np.array(step["solution"]["lambda"])
        stored = np.array(step["solution"]["constraint_residuals"])
        ours = balance_residuals(lam, weights)
        require(stored.shape == ours.shape, f"{path}: step {label} has {stored.size} residuals")
        require(
            np.max(np.abs(ours - stored)) <= RESIDUAL_AGREE,
            f"{path}: step {label} residuals differ from lambda's by "
            f"{np.max(np.abs(ours - stored)):.3e}",
        )
        require(
            np.max(np.abs(stored)) <= RESIDUAL_TOL,
            f"{path}: step {label} residual {np.max(np.abs(stored)):.3e} above {RESIDUAL_TOL}",
        )


def check_weight_gap(doc: dict, tolerance: float, path) -> None:
    """Multi-step stops once the salient estimates reproduce their weights."""
    final = _steps(doc, path)[-1]
    require(final["label"].startswith("constrained-"), f"{path}: last step is {final['label']}")
    gap = float(np.max(np.abs(salient_estimates(np.array(final["solution"]["lambda"]))
                              - np.array(final["weights"]))))
    require(abs(gap - final["weight_gap"]) <= 1e-12,
            f"{path}: weight gap {final['weight_gap']!r}, recomputed {gap!r}")
    require(gap < tolerance, f"{path}: final weight gap {gap:.3e} not below {tolerance}")


def check_nested(doc: dict, f_icm: float, path) -> None:
    """Constrained and searched fits nest the ICM, so cannot fit worse."""
    for step in _steps(doc, path):
        if step["label"] == "icm":
            continue
        f = step["solution"]["f_min"]
        require(f <= f_icm + NEST_TOL,
                f"{path}: step {step['label']} F {f!r} above the ICM fit's {f_icm!r}")


def check_search(doc: dict, n: int, threshold: float, max_per_factor: int, path) -> None:
    """Modification indices, the freed cells, and chi-square = (n - 1) F."""
    steps = _steps(doc, path)
    mi = {(int(i), int(j)): float(v) for i, j, v in doc["mi_table"]}
    require(all(v >= 0.0 for v in mi.values()), f"{path}: negative modification index")
    cells = doc["pattern"]["cells"]
    chosen = [(i, j) for i in range(P) for j in range(Q) if cells[i][j] == "nonsalient"]
    for cell in chosen:
        require(mi.get(cell, -1.0) > threshold,
                f"{path}: freed cell {cell} has index {mi.get(cell)} <= {threshold}")
    for j in range(Q):
        freed = [mi[c] for c in chosen if c[1] == j]
        require(len(freed) <= max_per_factor, f"{path}: {len(freed)} cells freed on factor {j}")
        passed = [v for (i, jj), v in mi.items() if jj == j and v > threshold and (i, j) not in chosen]
        if passed and len(freed) < max_per_factor:
            raise CheckFailed(f"{path}: factor {j} left an index above threshold unfreed")
        if passed and freed:
            require(max(passed) <= min(freed),
                    f"{path}: factor {j} freed a smaller index than it passed over")
    for step in steps:
        rep = step["report"]
        chi = (n - 1) * step["solution"]["f_min"]
        require(abs(rep["chi_square"] - chi) <= 1e-12 * max(1.0, chi),
                f"{path}: step {step['label']} chi-square {rep['chi_square']!r}, (n-1)F {chi!r}")


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def check_grid(out: Path, replications: int, secondary: float) -> None:
    """Row counts, convergence, cell means, and buffered < ICM loading RMSD."""
    doc = json.loads(out.read_text())
    require(doc.get("kind") == "grid_summary", f"{out}: not a grid summary")
    require(len(doc["records"]) == replications,
            f"{out}: {len(doc['records'])} records, expected {replications}")
    reps = _rows(out.with_suffix(".reps.csv"))
    cells = _rows(out.with_suffix(".cells.csv"))
    require(len(reps) == replications, f"{out}: reps.csv has {len(reps)} rows, expected {replications}")
    require(len(cells) == 1, f"{out}: cells.csv has {len(cells)} rows, expected 1")
    cell = cells[0]
    require([int(r["replication"]) for r in reps] == list(range(replications)),
            f"{out}: reps.csv rows out of replication order")
    for r in reps:
        require(r["icm_converged"] == "1" and r["buffered_converged"] == "1",
                f"{out}: replication {r['replication']} did not converge")
    require(int(cell["icm_converged"]) == replications and int(cell["buffered_converged"]) == replications,
            f"{out}: cell converged counts {cell['icm_converged']}/{cell['buffered_converged']}")
    for column in ("icm_loading_rmsd", "buffered_loading_rmsd", "icm_rmsea", "buffered_rmsea"):
        mean = float(np.mean([float(r[column]) for r in reps]))
        stored = float(cell[column + "_mean"])
        require(abs(mean - stored) <= 1e-12, f"{out}: {column}_mean {stored!r}, rows give {mean!r}")
    if secondary >= 0.1:
        buf, icm = float(cell["buffered_loading_rmsd_mean"]), float(cell["icm_loading_rmsd_mean"])
        require(buf < icm, f"{out}: buffered loading RMSD {buf} not below ICM's {icm}")


def check_replay(out: Path, shorter: Path) -> None:
    """A shorter run of the same cell reproduces the first rows byte for byte."""
    long_lines = out.with_suffix(".reps.csv").read_text().splitlines(keepends=True)
    short_lines = shorter.with_suffix(".reps.csv").read_text().splitlines(keepends=True)
    require(len(short_lines) < len(long_lines), f"{shorter}: replay is not shorter")
    require(long_lines[: len(short_lines)] == short_lines,
            f"{out}: first rows of reps.csv differ from a shorter run of the same cell")


def load_oracle(root: Path):
    """``tests/nullspace_oracle.py`` of the checkout, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "nullspace_oracle", root / "tests" / "nullspace_oracle.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


class References:
    """The bufcfa calls the checks rely on, each made once per key and cached."""

    def __init__(self, root: Path, run_cli):
        self.root = root
        self.run_cli = run_cli  # argv -> exit code
        self._cache: dict = {}

    def _once(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def icm_f(self, key, S: np.ndarray, n: int, phi_spec) -> float:
        """F of the independent-clusters fit under ``phi_spec``."""
        def compute():
            from bufcfa.estimation import SampleMoments
            from bufcfa.model import LoadingPattern
            from bufcfa.procedures import icm

            pattern = LoadingPattern.from_salient_blocks(BLOCKS, P, "zero")
            trace = icm(pattern, phi_spec, SampleMoments(S, n=n))
            require(trace.converged, f"ICM reference fit for {key} did not converge")
            return trace.final.solution.f_min

        return self._once(("icm", key), compute)

    def oracle_f(self, key, S: np.ndarray, phi: np.ndarray, weights) -> float:
        """Null-space optimum under fixed weights and fixed correlations."""
        def compute():
            from bufcfa.constraints import build_fixed_weight_constraints
            from bufcfa.model import FactorModel, LoadingPattern

            pattern = LoadingPattern.from_salient_blocks(BLOCKS, P, "free")
            model = FactorModel.fixed_phi(pattern, np.asarray(phi))
            cset = build_fixed_weight_constraints(pattern, weights)
            return load_oracle(self.root).elimination_optimum(model, cset, S).f_min

        return self._once(("oracle", key), compute)

    def replay(self, key, argv: list[str]) -> int:
        """Exit code of a command run for a check (a shorter grid run)."""
        return self._once(("replay", key), lambda: self.run_cli(argv))


def check_oracle(doc: dict, S: np.ndarray, refs: References, path) -> None:
    """The final fixed-weight step reaches the null-space optimum."""
    final = _steps(doc, path)[-1]
    sol = final["solution"]
    f_oracle = refs.oracle_f(str(path), S, np.array(sol["phi"]), final["weights"])
    require(abs(sol["f_min"] - f_oracle) <= ORACLE_TOL,
            f"{path}: f_min {sol['f_min']!r} but the null-space optimum is {f_oracle!r}")
