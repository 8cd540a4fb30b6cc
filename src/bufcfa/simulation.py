"""Population generators, seeded sampling, and the Monte Carlo grid.

Populations follow the block layout with equal salient loadings and
half-positive / half-negative secondary loadings per (block, unwanted
factor) pair, so every generated matrix is perfectly balanced.  Sampling
uses a counter-based (Philox) stream keyed by (master seed, cell,
replication), which makes grid results independent of execution order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, make_dataclass
from typing import Optional

import numpy as np

from .constraints import build_one_step_constraints
from .errors import NumericalError, StructureError
from .estimation import SampleMoments, fit
from .fit_indices import degrees_of_freedom, rmsea
from .model import (
    FactorModel,
    LoadingPattern,
    PopulationModel,
)

# Sign of the first half-block of secondary loadings for q = 3, keyed by
# (block, unwanted factor); the second half takes the opposite sign.
_THREE_FACTOR_SIGNS = {
    (0, 1): 1.0,
    (0, 2): -1.0,
    (1, 0): -1.0,
    (1, 2): 1.0,
    (2, 0): -1.0,
    (2, 1): 1.0,
}


def _first_half_sign(block: int, unwanted: int, q: int) -> float:
    if q == 3:
        return _THREE_FACTOR_SIGNS[(block, unwanted)]
    return 1.0 if unwanted > block else -1.0


def block_pattern(q: int, per_factor: int, nonsalient: str = "zero") -> LoadingPattern:
    """Pattern with ``per_factor`` consecutive salient variables per factor."""
    blocks = [
        list(range(j * per_factor, (j + 1) * per_factor)) for j in range(q)
    ]
    return LoadingPattern.from_salient_blocks(blocks, q * per_factor, nonsalient)


def balanced_population(
    q: int, per_factor: int, salient: float, nonsalient: float, phi_value: float
) -> PopulationModel:
    """Standardized population with perfectly balanced secondary loadings.

    Salient cells all equal ``salient``; within each (block, unwanted
    factor) pair the first half of the block carries one sign of
    ``nonsalient`` and the second half the opposite sign.  The model is
    read-only, so it is memoised on the exact arguments (0.0 and -0.0
    apart): a grid validates each cell's population and then fits from
    that same object.
    """
    signs = tuple(math.copysign(1.0, x) for x in (salient, nonsalient, phi_value))
    return _balanced_population(q, per_factor, salient, nonsalient, phi_value, signs)


@functools.lru_cache(maxsize=128)
def _balanced_population(q, per_factor, salient, nonsalient, phi_value, signs) -> PopulationModel:
    """:func:`balanced_population`'s model; ``signs`` only keys the memo."""
    if nonsalient != 0.0 and per_factor % 2 != 0:
        raise StructureError(
            "per-factor count must be even when secondary loadings are nonzero"
        )
    p = q * per_factor
    lam = np.zeros((p, q))
    for b in range(q):
        rows = range(b * per_factor, (b + 1) * per_factor)
        for pos, i in enumerate(rows):
            lam[i, b] = salient
            for j in range(q):
                if j == b:
                    continue
                sign = _first_half_sign(b, j, q)
                lam[i, j] = (sign if pos < per_factor // 2 else -sign) * nonsalient
    phi = np.full((q, q), float(phi_value))
    np.fill_diagonal(phi, 1.0)
    return PopulationModel.from_loadings(lam, phi)


def draw_sample(
    sigma: np.ndarray, n: int, seed
) -> tuple[np.ndarray, SampleMoments]:
    """n multivariate-normal rows plus their sample correlation matrix.

    ``seed`` may be an int or a numpy SeedSequence; identical seeds give
    bit-identical output.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if n <= p:
        raise StructureError(f"need n > p, got n={n}, p={p}")
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NumericalError("population matrix is not positive definite") from None
    rng = np.random.Generator(np.random.Philox(seed))
    data = rng.standard_normal((n, p)) @ L.T
    R = np.corrcoef(data, rowvar=False)
    return data, SampleMoments(R, n=n)


def rmsd(estimated: np.ndarray, population: np.ndarray, mask: np.ndarray) -> float:
    """Root mean squared difference over the masked cells."""
    estimated = np.asarray(estimated, dtype=float)
    population = np.asarray(population, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if estimated.shape != population.shape or mask.shape != estimated.shape:
        raise StructureError("rmsd inputs must share one shape")
    if not mask.any():
        raise StructureError("rmsd mask selects no cells")
    diff = estimated[mask] - population[mask]
    return float(np.sqrt(np.mean(diff**2)))


def _assignment(cost: np.ndarray) -> list[int]:
    """The row of each column in a minimum-cost assignment of a square matrix.

    The Hungarian method with row and column potentials (Kuhn 1955, *Naval
    Research Logistics Quarterly* 2, 83-97), O(q^3).  Rows enter one at a
    time along a least-reduced-cost augmenting path; on ties the lowest
    column wins, so a matrix whose assignments all cost the same gets the
    identity.
    """
    cost = np.asarray(cost, dtype=float).tolist()
    q = len(cost)
    # Rows are 1-based; column 0 is a dummy, and owner[j] is the row holding column j.
    u, v = [0.0] * (q + 1), [0.0] * (q + 1)
    owner, via = [0] * (q + 1), [0] * (q + 1)
    for row in range(1, q + 1):
        owner[0], j0 = row, 0
        slack, used = [math.inf] * (q + 1), [False] * (q + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            delta, j1 = math.inf, 0
            for j in range(1, q + 1):
                if not used[j]:
                    reduced = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(q + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    return [row - 1 for row in owner[1:]]


def align_to_population(
    lam: np.ndarray, phi: np.ndarray, lam_pop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Permute and sign-flip estimated factors to best match the population.

    Factors are matched by maximal total absolute column congruence, an
    assignment problem solved exactly by ``_assignment`` (the Hungarian
    method), then flipped to positive congruence.  Where two orders tie
    exactly, the pick may differ from ``scipy.optimize.linear_sum_assignment``'s,
    but is just as optimal.
    """
    lam = np.asarray(lam, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lam_pop = np.asarray(lam_pop, dtype=float)
    norms_e = np.linalg.norm(lam, axis=0)
    norms_p = np.linalg.norm(lam_pop, axis=0)
    congruence = (lam.T @ lam_pop) / np.outer(
        np.maximum(norms_e, 1e-12), np.maximum(norms_p, 1e-12)
    )
    order = _assignment(-np.abs(congruence))
    aligned = lam[:, order].copy()
    phi_aligned = phi[np.ix_(order, order)].copy()
    for j in range(lam.shape[1]):
        if congruence[order[j], j] < 0:
            aligned[:, j] *= -1.0
            phi_aligned[j, :] *= -1.0
            phi_aligned[:, j] *= -1.0
            phi_aligned[j, j] = 1.0
    return aligned, phi_aligned


@dataclass(frozen=True)
class GridSpec:
    """Design grid for the estimator-accuracy study."""

    salient_sizes: tuple[float, ...]
    nonsalient_sizes: tuple[float, ...]
    phi_values: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    factors: int = 3
    per_factor: int = 6
    replications: int = 100
    master_seed: int = 20_240_501

    def __post_init__(self):
        object.__setattr__(self, "salient_sizes", tuple(float(x) for x in self.salient_sizes))
        object.__setattr__(self, "nonsalient_sizes", tuple(float(x) for x in self.nonsalient_sizes))
        object.__setattr__(self, "phi_values", tuple(float(x) for x in self.phi_values))
        object.__setattr__(self, "sample_sizes", tuple(int(x) for x in self.sample_sizes))
        if self.replications < 1:
            raise StructureError(f"replications must be at least 1, got {self.replications}")
        if self.factors < 2:
            raise StructureError(f"factors must be at least 2, got {self.factors}")
        if self.per_factor < 1:
            raise StructureError(f"per_factor must be at least 1, got {self.per_factor}")
        if self.master_seed < 0:
            raise StructureError(f"master_seed must be nonnegative, got {self.master_seed}")
        p = self.factors * self.per_factor
        if any(n <= p for n in self.sample_sizes):
            raise StructureError(
                f"every sample size must exceed p={p}, got {self.sample_sizes}"
            )
        if any(a != 0.0 for a in self.nonsalient_sizes) and self.per_factor % 2 != 0:
            raise StructureError("per-factor count must be even for nonzero secondary sizes")
        for name in ("salient_sizes", "nonsalient_sizes", "phi_values"):
            values = getattr(self, name)
            if not values or not all(-1.0 <= x <= 1.0 for x in values):
                raise StructureError(f"{name} {values}: give one or more values in [-1, 1]")
            # Keys are counted against every value, so exact repeats count too.
            if len({_design_key(x) for x in values}) < len(values):
                raise StructureError(f"{name} {values}: values equal to 0.001 share samples")
        if not self.sample_sizes or len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise StructureError(f"sample_sizes {self.sample_sizes}: give one or more distinct sizes")
        for l, anl, phi in itertools.product(
            self.salient_sizes, self.nonsalient_sizes, self.phi_values
        ):
            balanced_population(self.factors, self.per_factor, l, anl, phi)

    @property
    def cells(self) -> list[tuple[float, float, float, int]]:
        return list(
            itertools.product(
                self.salient_sizes,
                self.nonsalient_sizes,
                self.phi_values,
                self.sample_sizes,
            )
        )


ESTIMATORS = ("icm", "buffered")
METRICS = ("loading_rmsd", "salient_rmsd", "phi_rmsd", "rmsea")

_DESIGN_FIELDS = [("salient", float), ("nonsalient", float), ("phi", float), ("n", int)]


def _grid_dataclass(name: str, doc: str, fields: list) -> type:
    namespace = {"__doc__": doc, "__module__": __name__}
    return make_dataclass(name, fields, frozen=True, namespace=namespace)


# Both tables are metric-major, estimator-minor: the column order of
# docs/file_formats.md.
RepRecord = _grid_dataclass(
    "RepRecord",
    """Per-replication outcome for one grid cell.

    Loading accuracy is recorded twice: over every loading cell
    (``*_loading_rmsd``, which charges the independent-clusters fit for its
    structural zeros) and over the salient cells only
    (``*_salient_rmsd``, the estimated-loading accuracy both estimators
    share).  Metrics of a fit that did not converge are None.
    """,
    _DESIGN_FIELDS
    + [("replication", int)]
    + [(f"{e}_converged", bool) for e in ESTIMATORS]
    + [(f"{e}_{m}", Optional[float]) for m in METRICS for e in ESTIMATORS],
)

CellSummary = _grid_dataclass(
    "CellSummary",
    "Converged-replication means and standard errors for one cell.",
    _DESIGN_FIELDS
    + [("replications", int)]
    + [(f"{e}_converged", int) for e in ESTIMATORS]
    + [(f"{e}_{m}_{stat}", float) for m in METRICS for e in ESTIMATORS for stat in ("mean", "se")],
)


def _mean_se(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _design_key(value: float) -> int:
    return int(round(value * 1000))


def _replication_seed(master_seed: int, cell: tuple, replication: int):
    l, anl, phi, n = cell
    key = (
        master_seed,
        _design_key(l),
        _design_key(anl),
        _design_key(phi),
        int(n),
        replication,
    )
    return np.random.SeedSequence(key)


def run_cell(grid: GridSpec, cell: tuple[float, float, float, int]) -> list[RepRecord]:
    """All replications of one design cell."""
    l, anl, phi_value, n = cell
    q, per_factor = grid.factors, grid.per_factor
    population = balanced_population(q, per_factor, l, anl, phi_value)
    icm_pattern = block_pattern(q, per_factor, "zero")
    buf_pattern = block_pattern(q, per_factor, "free")
    fits = {}
    for label, pattern, cons in (
        ("icm", icm_pattern, None),
        ("buffered", buf_pattern, build_one_step_constraints(buf_pattern)),
    ):
        # Orthogonal populations are fitted with phi fixed at 0.
        model = (
            FactorModel.fixed_phi(pattern, 0.0) if phi_value == 0.0 else FactorModel.free_phi(pattern)
        )
        fits[label] = (model, cons, degrees_of_freedom(model, cons))
    loading_mask = np.ones_like(population.lam, dtype=bool)
    salient_mask = icm_pattern.salient
    phi_mask = np.tril(np.ones((q, q), dtype=bool), k=-1)

    records = []
    for rep in range(grid.replications):
        seed = _replication_seed(grid.master_seed, cell, rep)
        _, moments = draw_sample(population.sigma, n, seed)
        values = {}
        for label in ESTIMATORS:
            model, cons, df = fits[label]
            sol = fit(model, cons, moments)
            values[f"{label}_converged"] = bool(sol.converged)
            metrics = (None,) * len(METRICS)
            if sol.converged:
                lam_a, phi_a = align_to_population(sol.lambda_hat, sol.phi_hat, population.lam)
                metrics = (  # in METRICS order
                    rmsd(lam_a, population.lam, loading_mask),
                    rmsd(lam_a, population.lam, salient_mask),
                    rmsd(phi_a, population.phi, phi_mask),
                    rmsea((n - 1) * sol.f_min, df, n),
                )
            values.update((f"{label}_{m}", v) for m, v in zip(METRICS, metrics))
        records.append(
            RepRecord(salient=l, nonsalient=anl, phi=phi_value, n=n, replication=rep, **values)
        )
    return records


def summarize_cell(cell_records: list[RepRecord]) -> CellSummary:
    first = cell_records[0]
    values = {}
    for label in ESTIMATORS:
        converged = [r for r in cell_records if getattr(r, f"{label}_converged")]
        values[f"{label}_converged"] = len(converged)
        for m in METRICS:
            mean_se = _mean_se([getattr(r, f"{label}_{m}") for r in converged])
            values[f"{label}_{m}_mean"], values[f"{label}_{m}_se"] = mean_se
    design = {name: getattr(first, name) for name, _ in _DESIGN_FIELDS}
    return CellSummary(**design, replications=len(cell_records), **values)


def run_grid(grid: GridSpec) -> tuple[list[CellSummary], list[RepRecord]]:
    """Run every cell of the grid; returns summaries plus raw records."""
    summaries = []
    all_records = []
    for cell in grid.cells:
        cell_records = run_cell(grid, cell)
        all_records.extend(cell_records)
        summaries.append(summarize_cell(cell_records))
    return summaries, all_records
