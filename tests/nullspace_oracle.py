"""Reference ML optimum under fixed-weight balance constraints.

Fixed-weight balance constraints are homogeneous linear equalities in the
free loadings, ``A @ l = 0``.  Writing ``l = K @ z`` with ``K`` an
orthonormal basis of the null space of ``A`` turns the constrained problem
into an unconstrained one in ``z`` (Nocedal & Wright, *Numerical
Optimization*, sec. 15.3), which plain BFGS solves with every iterate
exactly feasible.

This is an oracle for :func:`bufcfa.estimation.fit`: it shares none of the
fit's machinery.  ``A`` is assembled from each constraint's members and
weights (not from ``constraint_jacobian``), and the discrepancy and its
gradient are written out here rather than taken from ``bufcfa.estimation``.
Only models with every inter-factor correlation fixed are supported, which
keeps the implied matrix positive definite at every iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import minimize

from bufcfa.constraints import ConstraintMode, ConstraintSet
from bufcfa.model import PSI_FLOOR, FactorModel


N_STARTS = 5
SEED = 0
AGREEMENT = 1e-6


@dataclass(frozen=True)
class EliminationOptimum:
    f_min: float
    lambda_hat: np.ndarray
    psi_hat: np.ndarray


def _free_cells(model: FactorModel) -> list[tuple[int, int]]:
    """The model's estimable loading cells, read from its pattern."""
    return [(i, j) for i in range(model.p) for j in range(model.q) if model.pattern.free[i, j]]


def _balance_matrix(model: FactorModel, cset: ConstraintSet) -> np.ndarray:
    """Rows of ``A``: one per constraint, over the model's free loading cells."""
    if cset.mode is not ConstraintMode.FIXED_WEIGHTS:
        raise ValueError("null-space elimination needs linear (fixed-weight) constraints")
    column = {cell: k for k, cell in enumerate(_free_cells(model))}
    A = np.zeros((len(cset), len(column)))
    for r, c in enumerate(cset.constraints):
        for k, w in zip(c.members, c.weights):
            if (k, c.unwanted) in column:
                A[r, column[(k, c.unwanted)]] += w
    return A


def _discrepancy(S, lam, phi, psi):
    """ML discrepancy and its gradients w.r.t. lambda and psi."""
    p = S.shape[0]
    sigma = lam @ phi @ lam.T + np.diag(psi)
    sigma_inv = np.linalg.inv(sigma)
    _, logdet_sigma = np.linalg.slogdet(sigma)
    _, logdet_S = np.linalg.slogdet(S)
    f = logdet_sigma - logdet_S + np.trace(S @ sigma_inv) - p
    W = sigma_inv - sigma_inv @ S @ sigma_inv
    return f, 2.0 * W @ lam @ phi, np.diag(W)


def elimination_optimum(model: FactorModel, cset: ConstraintSet, S: np.ndarray) -> EliminationOptimum:
    """Minimize the ML discrepancy over the null space of the constraints.

    Each of ``N_STARTS`` seeded starts draws the free loadings as .5 on
    salient cells plus N(0, .3) noise, projects them onto the feasible
    subspace, and sets every uniqueness to .5.  All starts must reach the
    same discrepancy within ``AGREEMENT``; the best one is returned.
    """
    if np.any(np.isnan(model.phi_fixed)):
        raise ValueError("elimination oracle supports fixed inter-factor correlations only")
    S = np.asarray(S, dtype=float)
    cells = _free_cells(model)
    rows = np.array([i for i, _ in cells])
    cols = np.array([j for _, j in cells])
    salient = np.array([model.pattern.salient[i, j] for i, j in cells])
    A = _balance_matrix(model, cset)
    K = null_space(A)
    n_z = K.shape[1]
    phi = model.phi_fixed
    floor = PSI_FLOOR

    def unpack(x):
        lam = np.zeros((model.p, model.q))
        lam[rows, cols] = K @ x[:n_z]
        return lam, floor + np.exp(x[n_z:])

    def objective(x):
        lam, psi = unpack(x)
        f, d_lam, d_psi = _discrepancy(S, lam, phi, psi)
        return f, np.concatenate([K.T @ d_lam[rows, cols], d_psi * (psi - floor)])

    rng = np.random.default_rng(SEED)
    results = []
    for _ in range(N_STARTS):
        l0 = 0.5 * salient + rng.normal(0.0, 0.3, size=len(cells))
        x0 = np.concatenate([K.T @ l0, np.full(model.p, np.log(0.5 - floor))])
        res = minimize(objective, x0, jac=True, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 10_000})
        results.append(res)
    start_f = tuple(float(r.fun) for r in results)
    if max(start_f) - min(start_f) > AGREEMENT:
        raise AssertionError(f"elimination starts disagree: F = {start_f}")
    best = min(results, key=lambda r: r.fun)
    lam, psi = unpack(best.x)
    return EliminationOptimum(float(best.fun), lam, psi)
