"""Time one objective-and-gradient evaluation and one fit on the 3 x 6 layouts.

    PYTHONPATH=src python3 scripts/step_timing.py

The sample is an n = 300 draw (seed 11) from the balanced population with
salient .6, secondary +-.2 and phi .3.  Three set-ups: ICM with free phi
(unconstrained), one-step with free phi (self-weighted constraints) and
one-step with phi .3 and fixed weights .6.  Every evaluation is taken at
the set-up's cold start.

- ``one-row``: ``_Fits.objective``, the path of a serial fit's BFGS.
- ``stacked k=K``: ``_Fits.objectives`` on a stack of K rows of the same
  model, per row; a stack takes constraints only at K = 1.
- ``fit``: one cold ``fit`` with its memo warm (the grid's case), in ms, with
  its BFGS iterations (nit) and evaluations (nfev).
- ``refit start, 36 rows``: the starting inverse Hessians of a search's 36
  single-cell refits of the ICM model (free phi) from its solution, with
  the evaluation at the start that they share with BFGS, in ms.
- ``fit_each, 36 refits``: those refits solved as one stack, in ms, with
  the stacked solve's rounds (stacked evaluations, the start's included),
  the rounds that evaluate a single row, and the row evaluations.

Each time is the best of 7 repeats, in microseconds per evaluation or
milliseconds per fit.
"""

from __future__ import annotations

import time

import numpy as np

from bufcfa import (
    FactorModel,
    SampleMoments,
    balanced_population,
    block_pattern,
    build_fixed_weight_constraints,
    build_one_step_constraints,
    draw_sample,
    fit,
)
from bufcfa import estimation
from bufcfa.estimation import fit_each

REPEATS = 7
CALLS = 400
FITS = 40
STACKS = (1, 8, 36)


def best_of(call, n) -> float:
    """Best seconds per call over REPEATS runs of n calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(n):
            call()
        times.append((time.perf_counter() - start) / n)
    return min(times)


def setups():
    icm_pattern, free_pattern = block_pattern(3, 6, "zero"), block_pattern(3, 6, "free")
    return {
        "icm free phi": (FactorModel.free_phi(icm_pattern), None),
        "one-step free phi": (
            FactorModel.free_phi(free_pattern), build_one_step_constraints(free_pattern)
        ),
        "fixed weights phi .3": (
            FactorModel.fixed_phi(free_pattern, 0.3),
            build_fixed_weight_constraints(free_pattern, np.full(18, 0.6)),
        ),
    }


def fit_counts(model, cset, moments) -> tuple[int, int]:
    """nit and nfev of one fit's BFGS, read from ``minimize``'s result."""
    results = []
    minimize = estimation.minimize

    def record(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    estimation.minimize = record
    try:
        fit(model, cset, moments)
    finally:
        estimation.minimize = minimize
    return results[0].nit, results[0].nfev


def refits(moments):
    """The search's 36 single-cell refits of the free-phi ICM model, and its solution as their start."""
    pattern = block_pattern(3, 6, "zero")
    solution = fit(FactorModel.free_phi(pattern), None, moments)
    cells = np.argwhere(~pattern.free).tolist()
    models = [FactorModel.free_phi(pattern.with_cells_freed([cell])) for cell in cells]
    return models, (solution.lambda_hat, solution.phi_hat, solution.psi_hat)


def stack_counts(models, moments, start) -> tuple[int, int, int]:
    """Rounds, single-row rounds and row evaluations of one ``fit_each``'s stacked solve."""
    sizes = []
    bfgs_stack = estimation._bfgs_stack

    def record(objectives, Z0, inverses, gtol, maxiter, first=None):
        if first is not None:
            sizes.append(len(Z0))

        def counted(rows, Z):
            sizes.append(len(rows))
            return objectives(rows, Z)

        return bfgs_stack(counted, Z0, inverses, gtol, maxiter, first)

    estimation._bfgs_stack = record
    try:
        fit_each(models, moments, start)
    finally:
        estimation._bfgs_stack = bfgs_stack
    return len(sizes), sizes.count(1), sum(sizes)


def main() -> None:
    population = balanced_population(3, 6, 0.6, 0.2, 0.3)
    _, moments = draw_sample(population.sigma, 300, 11)
    assert isinstance(moments, SampleMoments)
    for name, (model, cset) in setups().items():
        fits = estimation._Fits([model], cset, moments)
        z0 = fits.start(None)[0]
        one_row = best_of(lambda: fits.objective(z0), CALLS)
        print(f"{name:22s} one-row      {one_row * 1e6:8.2f} us/eval")
        for k in STACKS if cset is None else (1,):
            stack = estimation._Fits([model] * k, cset, moments)
            Z = stack.start(None)
            rows = range(k)
            per_row = best_of(lambda: stack.objectives(rows, Z), max(CALLS // k, 20)) / k
            print(f"{name:22s} stacked k={k:<3d}{per_row * 1e6:8.2f} us/eval per row")
        fit(model, cset, moments)  # warm the cold-start memo
        per_fit = best_of(lambda: fit(model, cset, moments), FITS)
        nit, nfev = fit_counts(model, cset, moments)
        print(f"{name:22s} fit          {per_fit * 1e3:8.3f} ms  nit {nit}  nfev {nfev}")
    models, start = refits(moments)
    fits = estimation._Fits(models, None, moments)
    Z0, rows = fits.start(start), range(len(models))
    per_start = best_of(lambda: fits.start_inverses(rows, Z0, fits.evaluate(rows, Z0)), FITS)
    print(f"refit start, {len(models)} rows   {per_start * 1e3:8.3f} ms")
    per_stack = best_of(lambda: fit_each(models, moments, start), FITS // 4)
    rounds, single, evaluations = stack_counts(models, moments, start)
    print(
        f"fit_each, {len(models)} refits  {per_stack * 1e3:8.3f} ms  rounds {rounds}"
        f"  single-row rounds {single}  row evaluations {evaluations}"
    )


if __name__ == "__main__":
    main()
