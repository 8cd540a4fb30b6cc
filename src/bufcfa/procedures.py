"""Analysis workflows: one-step, multi-step, and specification search.

Each workflow returns a :class:`ProcedureTrace` listing every fitted model
in order with its solution and fit report, so intermediate models remain
inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import (
    build_fixed_weight_constraints,
    build_one_step_constraints,
    buffered_quality_index,
)
from .errors import StructureError
from .estimation import SampleMoments, fit, fit_each
from .fit_indices import FitReport, build_report
from .model import FactorModel, LoadingPattern, Solution


@dataclass(frozen=True)
class TraceStep:
    """One fitted model inside a procedure."""

    label: str
    solution: Solution
    report: FitReport
    weights: Optional[np.ndarray] = None
    weight_gap: Optional[float] = None


@dataclass(frozen=True)
class ProcedureTrace:
    """Ordered record of every model a procedure estimated."""

    procedure: str
    pattern: LoadingPattern
    steps: tuple[TraceStep, ...]
    converged: bool
    mi_table: Optional[tuple[tuple[int, int, float], ...]] = None

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]

    @property
    def quality_index(self) -> float:
        return buffered_quality_index(self.final.solution.lambda_hat, self.pattern)


def _phi_spec_model(pattern: LoadingPattern, phi_spec) -> FactorModel:
    """Model from a pattern and either 'free', a scalar, or a q x q matrix."""
    if isinstance(phi_spec, str):
        if phi_spec != "free":
            raise StructureError(f"unknown phi spec {phi_spec!r}")
        return FactorModel.free_phi(pattern)
    return FactorModel.fixed_phi(pattern, phi_spec)


def icm(pattern: LoadingPattern, phi_spec, moments: SampleMoments) -> ProcedureTrace:
    """Plain independent-clusters fit (secondary loadings fixed to zero)."""
    icm_pattern = pattern.with_nonsalient_zero()
    model = _phi_spec_model(icm_pattern, phi_spec)
    solution = fit(model, None, moments)
    report = build_report(model, None, moments, solution)
    step = TraceStep("icm", solution, report)
    return ProcedureTrace("icm", icm_pattern, (step,), solution.converged)


def one_step(pattern: LoadingPattern, phi_spec, moments: SampleMoments) -> ProcedureTrace:
    """Single constrained fit with self-weighted balance constraints.

    Every fixed-zero secondary cell of the pattern is freed; ``phi_spec``
    is ``"free"`` or a fixed value/matrix for the inter-factor
    correlations.  With free correlations this is the exploratory ML
    model with q factors: the q unit variances and q(q - 1) balance
    constraints are the q^2 restrictions a rotation of the unrestricted
    solution takes (Joreskog 1969), so F and df equal the EFA's and the
    constraints choose only the rotation.  Fixed correlations add
    q(q - 1)/2 restrictions.
    """
    free_pattern = pattern.with_nonsalient_free()
    model = _phi_spec_model(free_pattern, phi_spec)
    constraints = build_one_step_constraints(free_pattern)
    solution = fit(model, constraints, moments)
    report = build_report(model, constraints, moments, solution)
    step = TraceStep("one-step", solution, report)
    return ProcedureTrace("one-step", free_pattern, (step,), solution.converged)


def multi_step(
    pattern: LoadingPattern,
    moments: SampleMoments,
    weight_tol: float = 1e-4,
    max_rounds: int = 10,
    initial_weights=None,
    phi_fix=None,
) -> ProcedureTrace:
    """Iterated fixed-weight estimation from an initial independent-clusters fit.

    Step 1 estimates the independent clusters model with free inter-factor
    correlations.  Later steps fix the correlations at those estimates,
    free all secondary loadings, and constrain their weighted block sums to
    zero with the previous step's salient estimates as weights, stopping
    when weights and estimates agree within ``weight_tol``.

    ``initial_weights`` (from an external source, e.g. an exploratory
    solution) skips the initial fit; it then requires ``phi_fix``, the
    fixed inter-factor correlations for the constrained steps.  ``phi_fix``
    alone overrides the correlations the constrained steps are fixed at.
    An improper initial fit, with an estimated correlation beyond
    [-1, 1], gives no correlations to fix: the trace then ends there,
    unconverged.
    """
    if max_rounds < 2:
        raise StructureError("max_rounds must be at least 2")
    free_pattern = pattern.with_nonsalient_free()
    steps = []
    start = None
    if initial_weights is None:
        steps.append(icm(pattern, "free", moments).final)
        icm_solution = steps[0].solution
        improper = phi_fix is None and np.max(np.abs(icm_solution.phi_hat)) > 1.0
        if not icm_solution.converged or improper:
            return ProcedureTrace("multi-step", free_pattern, tuple(steps), False)
        # One salient cell per row, so the row-major gather is in variable order.
        weights = icm_solution.lambda_hat[pattern.salient]
        if phi_fix is None:
            phi_fix = icm_solution.phi_hat
        start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
    else:
        weights = np.asarray(initial_weights, dtype=float)
        if phi_fix is None:
            raise StructureError(
                "external initial weights require fixed inter-factor correlations"
            )
    model = FactorModel.fixed_phi(free_pattern, phi_fix)
    converged = False
    for round_no in range(2, max_rounds + 1):
        constraints = build_fixed_weight_constraints(free_pattern, weights)
        solution = fit(model, constraints, moments, start)
        estimates = solution.lambda_hat[free_pattern.salient]
        gap = float(np.max(np.abs(estimates - weights)))
        steps.append(
            TraceStep(
                f"constrained-{round_no}",
                solution,
                build_report(model, constraints, moments, solution),
                weights=weights.copy(),
                weight_gap=gap,
            )
        )
        if not solution.converged:
            return ProcedureTrace("multi-step", free_pattern, tuple(steps), False)
        if gap < weight_tol:
            converged = True
            break
        weights = estimates
        start = solution.lambda_hat, solution.phi_hat, solution.psi_hat
    return ProcedureTrace("multi-step", free_pattern, tuple(steps), converged)


def specification_search(
    pattern: LoadingPattern,
    moments: SampleMoments,
    mi_threshold: float = 15.0,
    max_freed_per_factor: int = 3,
    phi_spec="free",
) -> ProcedureTrace:
    """Independent-clusters fit plus modification-index-guided freeing.

    The index of each fixed-zero cell is the exact chi-square drop from
    refitting with that single cell freed; the refits start from the
    independent-clusters estimates and run together (``fit_each``): one
    shared start information, one stacked solve and one stacked finish,
    each refit bit-identical to its own ``fit``.
    Per factor, at most ``max_freed_per_factor`` cells with index above
    ``mi_threshold`` are freed (largest first; ties break by factor then
    variable order), and the final model refits them simultaneously.  The
    trace is converged only when the independent-clusters fit, every refit
    and the final fit converged.  Every model takes ``phi_spec``: ``"free"``
    or a fixed value/matrix for the inter-factor correlations.
    """
    if moments.n is None:
        raise StructureError("specification search requires a sample size")
    if max_freed_per_factor < 0:
        raise StructureError("max_freed_per_factor must be nonnegative")
    icm_model = _phi_spec_model(pattern, phi_spec)
    icm_solution = fit(icm_model, None, moments)
    steps = [
        TraceStep("icm", icm_solution, build_report(icm_model, None, moments, icm_solution))
    ]
    if not icm_solution.converged:
        return ProcedureTrace("search", pattern, tuple(steps), False)

    zero_cells = np.argwhere(~pattern.free).tolist()
    icm_start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
    scale = moments.n - 1
    refits = fit_each(
        [_phi_spec_model(pattern.with_cells_freed([cell]), phi_spec) for cell in zero_cells],
        moments,
        icm_start,
    )
    refits_converged = all(refit.converged for refit in refits)
    mi_table = [
        (i, j, float(scale * max(icm_solution.f_min - refit.f_min, 0.0)))
        for (i, j), refit in zip(zero_cells, refits)
    ]

    chosen: list[tuple[int, int]] = []
    for j in range(pattern.q):
        candidates = [
            (mi, i) for (i, jj, mi) in mi_table if jj == j and mi > mi_threshold
        ]
        candidates.sort(key=lambda t: (-t[0], t[1]))
        chosen.extend((i, j) for (_, i) in candidates[:max_freed_per_factor])
    chosen.sort(key=lambda cell: (cell[1], cell[0]))

    if chosen:
        final_model = _phi_spec_model(pattern.with_cells_freed(chosen), phi_spec)
        final_solution = fit(final_model, None, moments, icm_start)
        final_report = build_report(final_model, None, moments, final_solution)
    else:
        final_model, final_solution, final_report = icm_model, icm_solution, steps[0].report
    steps.append(TraceStep("searched", final_solution, final_report))
    return ProcedureTrace(
        "search",
        final_model.pattern,
        tuple(steps),
        refits_converged and final_solution.converged,
        mi_table=tuple(mi_table),
    )
