"""Maximum-likelihood discrepancy and the equality-constrained minimizer.

The discrepancy is the standard ML fit function
``F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p``.  Constrained fits solve
each balance constraint for one loading, so this module's BFGS (:func:`minimize`)
runs over the other parameters with every iterate feasible.  Uniquenesses
stay above their floor through a log transform, never by clamping.  BFGS
starts from the inverse of the expected information (the Fisher-scoring
matrix of F) in the solver's coordinates, or from the identity where that
is not positive definite.  It tries the full step, then halves it; if no
step length decreases F enough, scoring steps finish the fit.

Every evaluation factors Sigma once, with numpy's Cholesky and one p-wide
triangular inversion (:func:`_cholesky_inverse`); the model's index arrays
and the constraint set's flat arrays do the rest without Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtrtri
from scipy.optimize import OptimizeResult

from .constraints import (
    ConstraintMode,
    ConstraintSet,
    choose_pivots,
    constraint_jacobian,
    evaluate_lambda,
)
from .errors import NumericalError, StructureError
from .model import CellRole, FactorModel, Solution, implied_covariance, pack, unpack

_INFEASIBLE_F = 1e10
# Line search: Armijo's sufficient-decrease constant, and halvings before a stall.
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class SampleMoments:
    """Observed covariance or correlation matrix with optional sample size.

    ``n`` may be None for population-matrix analyses, in which case only
    sample-size-free fit measures are available downstream.
    """

    S: np.ndarray
    n: Optional[int] = None
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise StructureError(f"moment matrix must be square, got {S.shape}")
        asym = np.max(np.abs(S - S.T)) if S.size else 0.0
        if asym > 1e-8:
            raise StructureError(f"moment matrix asymmetric beyond tolerance ({asym:.2e})")
        S = (S + S.T) / 2.0
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise NumericalError("sample moment matrix is not positive definite") from None
        S.flags.writeable = False
        object.__setattr__(self, "S", S)
        if self.n is not None and self.n < 2:
            raise StructureError(f"sample size must be at least 2, got {self.n}")
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != S.shape[0]:
                raise StructureError("variable name count does not match matrix order")
            object.__setattr__(self, "names", names)

    @property
    def p(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class FitOptions:
    """Solver controls.  All tolerances are strictly positive.

    ``max_inner_iterations`` bounds the iterations of the whole fit: BFGS
    iterations plus any finishing scoring steps.  ``feasibility_tol``
    bounds the constraint residuals of a converged fit.
    """

    gradient_tol: float = 1e-7
    feasibility_tol: float = 1e-8
    max_inner_iterations: int = 2000
    salient_start: float = 0.5
    psi_start: float = 0.5
    align_signs: bool = True
    start_lambda: Optional[np.ndarray] = None
    start_phi: Optional[np.ndarray] = None
    start_psi: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("gradient_tol", "feasibility_tol"):
            if not getattr(self, name) > 0:
                raise StructureError(f"{name} must be positive")

    def with_starts(
        self, lam: np.ndarray, phi: np.ndarray, psi: np.ndarray
    ) -> "FitOptions":
        return replace(self, start_lambda=lam, start_phi=phi, start_psi=psi)


def _cholesky(matrix: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """ln|matrix| and its lower Cholesky factor, or None unless finite and positive definite."""
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    log_det = 2.0 * np.sum(np.log(np.diag(factor)))
    return (float(log_det), factor) if np.isfinite(log_det) else None


def _cholesky_inverse(matrix: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """ln|matrix| and its inverse, or None unless it is finite and positive definite.

    One Cholesky factor and one triangular inversion of it: every product
    stays p-wide, since solves with many right-hand sides wake a second
    BLAS thread that costs more than it saves at this size.
    """
    parts = _cholesky(matrix)
    if parts is None:
        return None
    factor_inv, _ = dtrtri(parts[1], lower=1)
    return parts[0], factor_inv.T @ factor_inv


def _discrepancy(sigma: np.ndarray, S: np.ndarray, log_det_S: float = 0.0):
    """F, Sigma^-1 and Sigma^-1 S at an implied matrix; None unless Sigma is PD.

    The solver passes no ``log_det_S``: ln|S| is constant in the parameters.
    """
    parts = _cholesky_inverse(sigma)
    if parts is None:
        return None
    log_det, sig_inv = parts
    sig_inv_S = sig_inv @ S
    return log_det - log_det_S + float(np.trace(sig_inv_S)) - S.shape[0], sig_inv, sig_inv_S


def ml_discrepancy(S: np.ndarray, sigma: np.ndarray) -> float:
    """ML fit function; nonnegative, zero iff the matrices coincide."""
    S = np.asarray(S, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if S.shape != sigma.shape:
        raise StructureError(f"shape mismatch: {S.shape} vs {sigma.shape}")
    sample = _cholesky(S)
    if sample is None:
        raise NumericalError("sample matrix is not positive definite")
    parts = _discrepancy(sigma, S, sample[0])
    if parts is None:
        raise NumericalError("model-implied matrix is not positive definite")
    return parts[0]


def _discrepancy_and_gradient(model: FactorModel, lam, phi, psi, S):
    """F without its ln|S| term, and the packed gradient, at a parameter point."""
    p = lam.shape[0]
    lam_phi = lam @ phi
    common = lam_phi @ lam.T
    sigma = (common + common.T) / 2.0
    sigma[np.diag_indices(p)] += psi
    parts = _discrepancy(sigma, S)
    if parts is None:
        return None
    f_part, sig_inv, sig_inv_S = parts
    # W = Sigma^-1 (Sigma - S) Sigma^-1, symmetric
    W = sig_inv - sig_inv_S @ sig_inv
    W = (W + W.T) / 2.0
    grad = np.empty(model.n_parameters)
    grad[: model.n_free_loadings] = 2.0 * (W @ lam_phi)[model.loading_cells]
    grad[model.n_free_loadings : model.psi_offset] = 2.0 * (lam.T @ W @ lam)[model.phi_pairs]
    grad[model.psi_offset :] = np.diag(W)
    return f_part, grad


def ml_gradient(model: FactorModel, theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Analytic gradient of the discrepancy w.r.t. the packed parameters."""
    lam, phi, psi = unpack(model, theta)
    parts = _discrepancy_and_gradient(model, lam, phi, psi, np.asarray(S, dtype=float))
    if parts is None:
        raise NumericalError("model-implied matrix is not positive definite")
    return parts[1]


def _expected_information(model: FactorModel, lam, phi, psi) -> Optional[np.ndarray]:
    """Expected Hessian of F in packed parameters, None where Sigma is not PD.

    ``H[a, b] = tr(Sigma^-1 dSigma_a Sigma^-1 dSigma_b)``, the Fisher-scoring
    matrix, which equals the Hessian of F wherever S = Sigma.  Every
    derivative has the form ``x y' + y x'``: ``x = e_i, y = (Lambda Phi)[:, j]``
    for a loading, ``x = l_a, y = l_b`` for a correlation and
    ``x = e_i, y = e_i / 2`` for a uniqueness.  With ``P = Sigma^-1`` that
    makes ``H[a, b] = 2 (x_a'P x_b  y_a'P y_b + x_a'P y_b  y_a'P x_b)``.
    """
    p = lam.shape[0]
    parts = _cholesky_inverse(implied_covariance(lam, phi, psi))
    if parts is None:
        return None
    sig_inv = parts[1]
    phis = slice(model.n_free_loadings, model.psi_offset)
    psis = np.arange(model.psi_offset, model.n_parameters)
    rows, cols = model.loading_cells
    a, b = model.phi_pairs
    x = np.zeros((p, model.n_parameters))
    y = np.zeros((p, model.n_parameters))
    x[rows, np.arange(rows.size)] = 1.0
    y[:, :rows.size] = (lam @ phi)[:, cols]
    x[:, phis] = lam[:, a]
    y[:, phis] = lam[:, b]
    x[np.arange(p), psis] = 1.0
    y[np.arange(p), psis] = 0.5
    px, py = sig_inv @ x, sig_inv @ y
    x_px, y_py, x_py = x.T @ px, y.T @ py, x.T @ py
    return 2.0 * (x_px * y_py + x_py * x_py.T)


def _starting_point(model: FactorModel, opts: FitOptions) -> np.ndarray:
    """Packed starting vector per the starting-value policy."""
    lam0 = np.where(model.pattern.cells == CellRole.SALIENT_FREE, opts.salient_start, 0.0)
    if opts.start_lambda is not None:
        lam0[model.loading_cells] = np.asarray(opts.start_lambda, dtype=float)[model.loading_cells]
    phi0 = model.phi_base.copy()
    if opts.start_phi is not None:
        rows, cols = model.phi_pairs
        phi0[rows, cols] = phi0[cols, rows] = np.asarray(opts.start_phi, dtype=float)[rows, cols]
    psi0 = np.full(model.p, opts.psi_start)
    if opts.start_psi is not None:
        psi0 = np.maximum(np.asarray(opts.start_psi, dtype=float), model.psi_floor * 2.0)
    return pack(model, lam0, phi0, psi0)


def _align_signs(model: FactorModel, lam: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip factor columns so the first salient loading is nonnegative.

    A column is only flipped when every off-diagonal phi entry involving it
    is free; flipping a fixed correlation would change the fitted model.
    """
    lam = lam.copy()
    phi = phi.copy()
    q = model.q
    free = np.isnan(model.phi_fixed)
    for f in range(q):
        flippable = all(free[f, g] for g in range(q) if g != f)
        if not flippable:
            continue
        first = next(
            (i for i in range(model.p) if model.pattern.cells[i, f] is CellRole.SALIENT_FREE),
            None,
        )
        if first is not None and lam[first, f] < 0:
            lam[:, f] *= -1.0
            phi[f, :] *= -1.0
            phi[:, f] *= -1.0
            phi[f, f] = 1.0
    return lam, phi


def fit(
    model: FactorModel,
    constraints: Optional[ConstraintSet],
    moments: SampleMoments,
    opts: FitOptions = FitOptions(),
) -> Solution:
    """Minimize the ML discrepancy, subject to any balance constraints.

    Each constraint is solved for its pivot (``choose_pivots``) and BFGS
    runs over the other parameters on the reduced gradient ``g - J' mu``,
    with multipliers ``mu_r = g[pivot_r] / J[r, pivot_r]``.  Returns a
    :class:`Solution` whose ``converged`` flag reports whether the reduced
    gradient and the constraint residuals met their tolerances;
    non-convergence is never silent.
    """
    if model.problems:
        raise StructureError("invalid model: " + "; ".join(model.problems))
    if moments.p != model.p:
        raise StructureError(
            f"moment matrix order {moments.p} does not match model p={model.p}"
        )
    S = moments.S
    m = len(constraints) if constraints is not None else 0
    # The solver's vector z is theta[keep], with log(psi - floor) for psi.
    keep = slice(None)
    if m:
        pivots = choose_pivots(constraints, model)
        keep = np.setdiff1d(np.arange(model.n_parameters), pivots.params)
        self_weighted = constraints.mode is ConstraintMode.SELF_WEIGHTED
        if not self_weighted:
            # Fixed weights make the Jacobian constant: build it once per fit.
            fixed_jac = constraint_jacobian(constraints, np.zeros(model.n_parameters), model)
    log_psi = slice(model.psi_offset, None)

    def jacobian(theta):
        return constraint_jacobian(constraints, theta, model) if self_weighted else fixed_jac

    def point(z):
        """Full parameters at a solver point, pivots solved."""
        theta = np.zeros(model.n_parameters)
        theta[keep] = z
        theta[log_psi] = model.psi_floor + np.exp(theta[log_psi])
        lam, phi, psi = unpack(model, theta)
        if m:
            # The pivots arrive at zero, so each residual leaves its pivot out.
            lam[pivots.cells] = -evaluate_lambda(constraints, lam) / pivots.weights(lam)
            theta[pivots.params] = lam[pivots.cells]
        return theta, lam, phi, psi

    def objective(z):
        theta, lam, phi, psi = point(z)
        parts = _discrepancy_and_gradient(model, lam, phi, psi, S)
        if parts is None:
            return _INFEASIBLE_F, np.zeros_like(z)
        f, grad = parts
        if m:
            jac = jacobian(theta)
            mu = grad[pivots.params] / jac[np.arange(m), pivots.params]
            grad = grad - jac.T @ mu
        grad[log_psi] *= theta[log_psi] - model.psi_floor
        return f, grad[keep]

    def information(z):
        """Expected information in z, None where Sigma is not PD."""
        theta, lam, phi, psi = point(z)
        info = _expected_information(model, lam, phi, psi)
        if info is None:
            return None
        # T = d theta / d z: the identity on kept parameters, psi - floor on
        # log-psi, and on each pivot row -J[r, keep] / J[r, pivot].
        T = np.eye(model.n_parameters)[:, keep]
        T[log_psi] *= (theta[log_psi] - model.psi_floor)[:, None]
        if m:
            jac = jacobian(theta)
            T[pivots.params] = -jac[:, keep] / jac[np.arange(m), pivots.params][:, None]
        return T.T @ info @ T

    theta = _starting_point(model, opts)
    theta[log_psi] = np.log(np.maximum(theta[log_psi] - model.psi_floor, 1e-300))
    z, grad_norm, n_iterations = _quasi_newton(objective, information, theta[keep], opts)
    _, lam, phi, psi = point(z)
    if opts.align_signs:
        lam, phi = _align_signs(model, lam, phi)
    f_min = ml_discrepancy(S, implied_covariance(lam, phi, psi))
    residuals = evaluate_lambda(constraints, lam) if m else np.zeros(0)
    return Solution(
        lambda_hat=lam,
        phi_hat=phi,
        psi_hat=psi,
        f_min=f_min,
        n_iterations=n_iterations,
        converged=bool(
            grad_norm < opts.gradient_tol and np.all(np.abs(residuals) < opts.feasibility_tol)
        ),
        constraint_residuals=residuals,
        gradient_norm=float(grad_norm),
    )


def _quasi_newton(objective, information, z0, opts):
    """One dense BFGS solve, then Fisher-scoring steps if it stalled.

    BFGS starts from the inverse of ``information`` at ``z0``, or from the
    identity where that is not positive definite.  Near the optimum the
    rounding error of F can stall its line search a hair above
    ``opts.gradient_tol``.  Scoring steps ``z - information(z)^-1 g`` need
    no function values; each is taken only while it keeps Sigma positive
    definite and halves the gradient norm.  BFGS iterations and scoring
    steps share ``opts.max_inner_iterations``.  Returns the final point
    with its gradient norm and the iterations used.
    """
    res = minimize(
        objective,
        z0,
        hess_inv0=_pd_inverse(information(z0)),
        gtol=opts.gradient_tol,
        maxiter=opts.max_inner_iterations,
    )
    z, grad, nit = res.x, res.jac, res.nit
    while np.max(np.abs(grad)) >= opts.gradient_tol and nit < opts.max_inner_iterations:
        inverse = _pd_inverse(information(z))
        if inverse is None:
            break
        step = z - inverse @ grad
        f, step_grad = objective(step)
        if f >= _INFEASIBLE_F or not np.max(np.abs(step_grad)) < 0.5 * np.max(np.abs(grad)):
            break
        z, grad, nit = step, step_grad, nit + 1
    return z, float(np.max(np.abs(grad))), nit


def minimize(objective, z0, *, hess_inv0, gtol, maxiter) -> OptimizeResult:
    """Dense BFGS on ``objective(z) -> (F, gradient)``, from ``z0``.

    The inverse Hessian starts at ``hess_inv0`` (the identity if None).  Each
    iteration steps along ``d = -H g``: the full step first, halved until
    ``F(z + a d) - F(z) <= c1 a g'd`` (Armijo), tested as a difference so that
    a step too small to change F never passes; a trial at ``_INFEASIBLE_F``
    simply fails it.  The solve stops once ``max|g| < gtol`` or after
    ``maxiter`` iterations, and stalls where ``d`` is not downhill or no step
    passes within ``_MAX_HALVINGS`` halvings.  The rank-2 inverse update is
    skipped where ``s'y <= 0``.  Returns ``x``, ``jac``, ``nit`` and ``nfev``.
    """
    z = np.asarray(z0, dtype=float)
    f, grad = objective(z)
    H = np.eye(z.size) if hess_inv0 is None else np.array(hess_inv0, dtype=float)
    nit, nfev = 0, 1
    while np.max(np.abs(grad)) >= gtol and nit < maxiter:
        direction = -(H @ grad)
        slope = float(grad @ direction)
        if not slope < 0:
            break
        for halving in range(_MAX_HALVINGS + 1):
            step = direction * 0.5**halving
            f_new, grad_new = objective(z + step)
            nfev += 1
            if f_new - f <= _ARMIJO_C1 * 0.5**halving * slope:
                break
        else:
            break
        change = grad_new - grad
        z, f, grad, nit = z + step, f_new, grad_new, nit + 1
        curvature = float(step @ change)
        if curvature > 0:
            h_change = H @ change
            H += ((curvature + change @ h_change) / curvature**2) * np.outer(step, step)
            H -= (np.outer(h_change, step) + np.outer(step, h_change)) / curvature
    return OptimizeResult(x=z, jac=grad, nit=nit, nfev=nfev)


def _pd_inverse(matrix: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Exactly symmetric inverse of a positive definite matrix, else None."""
    if matrix is None:
        return None
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    inverse = np.linalg.inv(matrix)
    return (inverse + inverse.T) / 2.0
