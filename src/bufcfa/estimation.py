"""Maximum-likelihood discrepancy and the equality-constrained minimizer.

The discrepancy is the standard ML fit function
``F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p``.  Constrained fits solve
each balance constraint for one loading, so this module's BFGS (:func:`_bfgs`)
runs over the other parameters with every iterate feasible.  Uniquenesses
stay above their floor through a log transform, never by clamping.  BFGS
starts from the inverse of the expected information (the Fisher-scoring
matrix of F) in the solver's coordinates, or from the identity where that
is not positive definite.  It tries the full step, then halves it; if no
step length decreases F enough, scoring steps finish the fit.

F and its gradient are computed for a stack of parameter points, one
model per slice, in one call.  :func:`fit_each` runs unconstrained fits of
same-sized models together: each model keeps its own BFGS (the
:func:`_bfgs` generator), and one driver (:func:`_lock_step`) evaluates
every round's pending trial points as one stack.  :func:`fit` is a
lock-step of one, through :func:`minimize`, the one-row adapter.  Both end
each row in :meth:`_Fits.finish`.  A slice goes through the same
operations as a stack of one, so those fits are bit-identical to serial
:func:`fit` calls.

Every evaluation factors each Sigma once, with numpy's Cholesky and one
p-wide triangular inversion (:func:`_cholesky_inverse`); the model's index
arrays and the constraint set's flat arrays do the rest without Python
loops over parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
from .model import (
    PSI_FLOOR,
    CellRole,
    FactorModel,
    Solution,
    StackedLayout,
    implied_covariance,
    pack,
    unpack,
)

_INFEASIBLE_F = 1e10
# Line search: Armijo's sufficient-decrease constant, and halvings before a stall.
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 30
# A fit converges once max|reduced gradient| < GRADIENT_TOL and every
# constraint residual is below FEASIBILITY_TOL.  MAX_ITERATIONS bounds the
# whole fit: BFGS iterations plus any finishing scoring steps.
GRADIENT_TOL = 1e-7
FEASIBILITY_TOL = 1e-8
MAX_ITERATIONS = 2000
# Cold start: salient loadings and uniquenesses here, the rest at zero.
_COLD_START = 0.5


@dataclass(frozen=True)
class SampleMoments:
    """Observed covariance or correlation matrix with optional sample size.

    ``n`` may be None for population-matrix analyses, in which case only
    sample-size-free fit measures are available downstream.  ``log_det``
    is ln|S|, kept from the positive-definiteness check.
    """

    S: np.ndarray
    n: Optional[int] = None
    names: Optional[tuple[str, ...]] = None
    log_det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise StructureError(f"moment matrix must be square, got {S.shape}")
        if not np.isfinite(S).all():
            raise StructureError("moment matrix has non-finite entries")
        asym = np.max(np.abs(S - S.T)) if S.size else 0.0
        if asym > 1e-8:
            raise StructureError(f"moment matrix asymmetric beyond tolerance ({asym:.2e})")
        S = (S + S.T) / 2.0
        log_det = float(_cholesky(S[None])[0][0])
        if not math.isfinite(log_det):
            raise NumericalError("sample moment matrix is not positive definite")
        S.flags.writeable = False
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "log_det", log_det)
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


def _cholesky(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln|M| and the lower Cholesky factor of each matrix in a stack.

    ln|M| is not finite where M is not finite and positive definite; a
    matrix that did not factor gets NaN for both.
    """
    try:
        factors = np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:  # factor one by one to find the failures
        factors = np.full_like(matrices, np.nan)
        for r, matrix in enumerate(matrices):
            try:
                factors[r] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                pass
    return 2.0 * np.log(factors.diagonal(0, 1, 2)).sum(axis=1), factors


def _cholesky_inverse(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln|M| and M^-1 for each matrix in a stack, both NaN unless ln|M| is finite.

    One Cholesky factor and one triangular inversion each: every product
    stays p-wide, since solves with many right-hand sides wake a second
    BLAS thread that costs more than it saves at this size.
    """
    log_det, factors = _cholesky(matrices)
    # Each inverted factor is stored transposed: that is the memory order
    # LAPACK returns it in, so each slice's product is the same BLAS call.
    inv_t = np.empty_like(matrices)
    for r, value in enumerate(log_det.tolist()):
        if math.isfinite(value):
            inv_t[r] = dtrtri(factors[r], lower=1)[0].T
        else:
            log_det[r] = inv_t[r] = np.nan
    return log_det, inv_t @ inv_t.transpose(0, 2, 1)


def _discrepancy(sigma: np.ndarray, S: np.ndarray, log_det_S=0.0):
    """F, Sigma^-1 and Sigma^-1 S for each implied matrix in a stack.

    F is NaN where Sigma is not positive definite.  The solver passes no
    ``log_det_S``: ln|S| is constant in the parameters.
    """
    log_det, sig_inv = _cholesky_inverse(sigma)
    sig_inv_S = sig_inv @ S
    trace = sig_inv_S.trace(0, 1, 2)
    return log_det - log_det_S + trace - S.shape[0], sig_inv, sig_inv_S


def ml_discrepancy(S: np.ndarray, sigma: np.ndarray) -> float:
    """ML fit function; nonnegative, zero iff the matrices coincide."""
    S = np.asarray(S, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if S.shape != sigma.shape:
        raise StructureError(f"shape mismatch: {S.shape} vs {sigma.shape}")
    log_det_S = float(_cholesky(S[None])[0][0])
    if not math.isfinite(log_det_S):
        raise NumericalError("sample matrix is not positive definite")
    return _fit_function(sigma, S, log_det_S)


def _fit_function(sigma: np.ndarray, S: np.ndarray, log_det_S: float) -> float:
    f = float(_discrepancy(sigma[None], S, log_det_S)[0][0])
    if math.isnan(f):
        raise NumericalError("model-implied matrix is not positive definite")
    return f


def _discrepancy_and_gradient(layout: StackedLayout, lam, phi, psi, S):
    """F without its ln|S| term, and the packed gradient, at a stack of points.

    Slice ``r`` of ``lam``, ``phi`` and ``psi`` is a point of the model in
    row ``r`` of ``layout``.  F is NaN where Sigma is not positive definite.
    """
    lam_phi = lam @ phi
    common = lam_phi @ lam.transpose(0, 2, 1)
    sigma = (common + common.transpose(0, 2, 1)) / 2.0
    diag = np.arange(psi.shape[1])
    sigma[:, diag, diag] += psi
    f, sig_inv, sig_inv_S = _discrepancy(sigma, S)
    # W = Sigma^-1 (Sigma - S) Sigma^-1, symmetric
    W = sig_inv - sig_inv_S @ sig_inv
    W = (W + W.transpose(0, 2, 1)) / 2.0
    k, n_loadings = layout.loading_rows.shape
    psi_offset = n_loadings + layout.phi_rows.shape[1]
    stack = np.arange(k)[:, None]
    grad = np.empty((k, psi_offset + psi.shape[1]))
    grad[:, :n_loadings] = 2.0 * (W @ lam_phi)[stack, layout.loading_rows, layout.loading_cols]
    phi_grad = lam.transpose(0, 2, 1) @ W @ lam
    grad[:, n_loadings:psi_offset] = 2.0 * phi_grad[stack, layout.phi_rows, layout.phi_cols]
    grad[:, psi_offset:] = W.diagonal(0, 1, 2)
    return f, grad


def ml_gradient(model: FactorModel, theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Analytic gradient of the discrepancy w.r.t. the packed parameters."""
    lam, phi, psi = unpack(model, theta)
    f, grad = _discrepancy_and_gradient(
        model.layout, lam[None], phi[None], psi[None], np.asarray(S, dtype=float)
    )
    if np.isnan(f[0]):
        raise NumericalError("model-implied matrix is not positive definite")
    return grad[0]


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
    log_det, sig_inv = _cholesky_inverse(implied_covariance(lam, phi, psi)[None])
    if not math.isfinite(log_det[0]):
        return None
    sig_inv = sig_inv[0]
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


def _starting_point(model: FactorModel, start) -> np.ndarray:
    """Packed start from a ``(lambda, phi, psi)`` triple, or the cold start if None."""
    if start is None:
        salient = model.pattern.cells == CellRole.SALIENT_FREE
        start = np.where(salient, _COLD_START, 0.0), model.phi_base, np.full(model.p, _COLD_START)
    lam, phi, psi = start
    return pack(model, lam, phi, np.maximum(psi, 2 * PSI_FLOOR))


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


class _Fits:
    """Same-sized fits on one sample, in the solver's coordinates, as one stack.

    Row ``r`` fits ``models[r]``.  The solver's vector z is theta[keep],
    with log(psi - floor) for psi.  Only a stack of one takes constraints:
    each is solved for its pivot (``choose_pivots``), and BFGS runs over
    the other parameters on the reduced gradient ``g - J' mu``, with
    multipliers ``mu_r = g[pivot_r] / J[r, pivot_r]``.  ``points`` and
    ``objectives`` evaluate the listed rows at their solver points, one row
    of ``Z`` each; ``objective``, ``information`` and ``finish`` take one row.
    """

    def __init__(self, models: Sequence[FactorModel], constraints: Optional[ConstraintSet], moments):
        for model in models:
            if model.problems:
                raise StructureError("invalid model: " + "; ".join(model.problems))
            if moments.p != model.p:
                raise StructureError(
                    f"moment matrix order {moments.p} does not match model p={model.p}"
                )
        if len({(model.q, model.n_free_loadings, model.n_free_phi) for model in models}) > 1:
            raise StructureError("models fitted together must have one size")
        self.models, self.constraints, self.moments = models, constraints, moments
        self.layout = models[0].layout if len(models) == 1 else StackedLayout.of(models)
        model = models[0]
        self.m = len(constraints) if constraints is not None else 0
        self.keep = slice(None)
        self.log_psi = slice(model.psi_offset, None)
        self.fixed_jac = None
        if self.m:
            self.pivots = choose_pivots(constraints, model)
            self.keep = np.setdiff1d(np.arange(model.n_parameters), self.pivots.params)
            if constraints.mode is not ConstraintMode.SELF_WEIGHTED:
                # Fixed weights make the Jacobian constant: build it once per fit.
                self.fixed_jac = constraint_jacobian(constraints, np.zeros(model.n_parameters), model)

    def jacobian(self, theta):
        if self.fixed_jac is not None:
            return self.fixed_jac
        return constraint_jacobian(self.constraints, theta, self.models[0])

    def start(self, start) -> np.ndarray:
        """Every row's solver point at a ``(lambda, phi, psi)`` start, cold if None."""
        theta = np.stack([_starting_point(model, start) for model in self.models])
        log_psi = self.log_psi
        theta[:, log_psi] = np.log(np.maximum(theta[:, log_psi] - PSI_FLOOR, 1e-300))
        return theta[:, self.keep]

    def points(self, rows, Z):
        """The rows' layout, and their theta, lambda, phi and psi, pivots solved."""
        layout = self.layout if len(rows) == len(self.models) else self.layout.take(rows)
        theta = np.zeros((len(rows), self.models[0].n_parameters))
        theta[:, self.keep] = Z
        with np.errstate(over="ignore"):  # a wild trial step lands on _INFEASIBLE_F
            theta[:, self.log_psi] = PSI_FLOOR + np.exp(theta[:, self.log_psi])
        lam, phi, psi = layout.unpack(theta)
        if self.m:
            # The pivots arrive at zero, so each residual leaves its pivot out.
            pivots, lam_0 = self.pivots, lam[0]
            lam_0[pivots.cells] = -evaluate_lambda(self.constraints, lam_0) / pivots.weights(lam_0)
            theta[0, pivots.params] = lam_0[pivots.cells]
        return layout, theta, lam, phi, psi

    def objectives(self, rows, Z) -> list:
        """``(F, gradient in z)`` per row, ``_INFEASIBLE_F`` and zeros where Sigma is not PD."""
        layout, theta, lam, phi, psi = self.points(rows, Z)
        f, grad = _discrepancy_and_gradient(layout, lam, phi, psi, self.moments.S)
        if self.m:
            jac, params = self.jacobian(theta[0]), self.pivots.params
            grad[0] -= jac.T @ (grad[0, params] / jac[np.arange(self.m), params])
        grad[:, self.log_psi] *= theta[:, self.log_psi] - PSI_FLOOR
        return [
            (_INFEASIBLE_F, np.zeros_like(z)) if math.isnan(f_r) else (f_r, g[self.keep])
            for z, f_r, g in zip(Z, f.tolist(), grad)
        ]

    def objective(self, z, row=0):
        return self.objectives([row], z[None])[0]

    def information(self, z, row=0):
        """Expected information in z for one row, None where Sigma is not PD.

        That is ``T' info T`` with ``T = d theta / d z``: the identity on kept
        parameters, psi - floor on log-psi, and on each pivot row
        -J[r, keep] / J[r, pivot].
        """
        model = self.models[row]
        _, theta, lam, phi, psi = self.points([row], z[None])
        info = _expected_information(model, lam[0], phi[0], psi[0])
        if info is None:
            return None
        theta, keep, log_psi = theta[0], self.keep, self.log_psi
        T = np.eye(theta.size)[:, keep]
        T[log_psi] *= (theta[log_psi] - PSI_FLOOR)[:, None]
        if self.m:
            jac, params = self.jacobian(theta), self.pivots.params
            T[params] = -jac[:, keep] / jac[np.arange(self.m), params][:, None]
        return T.T @ info @ T

    def finish(self, row, result) -> Solution:
        """Row ``row``'s solution from its BFGS result, after any scoring steps.

        Near the optimum the rounding error of F can stall the line search a
        hair above ``GRADIENT_TOL``.  Scoring steps ``z - information(z)^-1 g``
        need no function values; each is taken only while it keeps Sigma
        positive definite and halves the gradient norm.  BFGS iterations and
        scoring steps share ``MAX_ITERATIONS``.
        """
        z, grad, nit = result.x, result.jac, result.nit
        while np.max(np.abs(grad)) >= GRADIENT_TOL and nit < MAX_ITERATIONS:
            inverse = _pd_inverse(self.information(z, row))
            if inverse is None:
                break
            step = z - inverse @ grad
            f, step_grad = self.objective(step, row)
            if f >= _INFEASIBLE_F or not np.max(np.abs(step_grad)) < 0.5 * np.max(np.abs(grad)):
                break
            z, grad, nit = step, step_grad, nit + 1
        grad_norm = float(np.max(np.abs(grad)))
        _, _, lam, phi, psi = self.points([row], z[None])
        model, moments = self.models[row], self.moments
        lam, phi = _align_signs(model, lam[0], phi[0])
        psi = psi[0]
        f_min = _fit_function(implied_covariance(lam, phi, psi), moments.S, moments.log_det)
        residuals = evaluate_lambda(self.constraints, lam) if self.m else np.zeros(0)
        return Solution(
            lambda_hat=lam,
            phi_hat=phi,
            psi_hat=psi,
            f_min=f_min,
            n_iterations=nit,
            converged=bool(grad_norm < GRADIENT_TOL and np.all(np.abs(residuals) < FEASIBILITY_TOL)),
            constraint_residuals=residuals,
            gradient_norm=grad_norm,
        )


def fit(
    model: FactorModel,
    constraints: Optional[ConstraintSet],
    moments: SampleMoments,
    start=None,
) -> Solution:
    """Minimize the ML discrepancy, subject to any balance constraints.

    ``start`` is a ``(lambda, phi, psi)`` triple, such as an earlier
    solution's estimates; only its free entries are read.  Without one the
    fit starts cold.

    Each constraint is solved for its pivot and BFGS runs over the other
    parameters on the reduced gradient (see :class:`_Fits`).  Returns a
    :class:`Solution` whose ``converged`` flag reports whether the reduced
    gradient and the constraint residuals met their tolerances;
    non-convergence is never silent.
    """
    fits = _Fits([model], constraints, moments)
    z0 = fits.start(start)[0]
    result = minimize(
        fits.objective,
        z0,
        hess_inv0=_pd_inverse(fits.information(z0)),
        gtol=GRADIENT_TOL,
        maxiter=MAX_ITERATIONS,
    )
    return fits.finish(0, result)


def fit_each(models: Sequence[FactorModel], moments: SampleMoments, start=None) -> list[Solution]:
    """Unconstrained fits of same-sized models from one start, solved together.

    Each solution equals ``fit(model, None, moments, start)`` bit for bit.
    Every model runs its own BFGS (:func:`_bfgs`) from the information
    start; a round evaluates all pending trial points in one stacked call
    (:func:`_lock_step`), and :meth:`_Fits.finish` finishes each model as
    in :func:`fit`.  The models must share p, q and their counts of free
    loadings and correlations.  The information is taken one model at a
    time: stacked, it would hold three n x n products per model at once,
    for about 2% of the time.
    """
    if not models:
        return []
    fits = _Fits(models, None, moments)
    solvers = [
        _bfgs(z0, _pd_inverse(fits.information(z0, row)), GRADIENT_TOL, MAX_ITERATIONS)
        for row, z0 in enumerate(fits.start(start))
    ]
    return [fits.finish(row, r) for row, r in enumerate(_lock_step(solvers, fits.objectives))]


def minimize(objective, z0, *, hess_inv0, gtol, maxiter) -> OptimizeResult:
    """Dense BFGS (:func:`_bfgs`) on ``objective(z) -> (F, gradient)``, from ``z0``.

    A lock-step (:func:`_lock_step`) of one.  Returns ``x``, ``jac``, ``nit``
    and ``nfev``.
    """
    return _lock_step([_bfgs(z0, hess_inv0, gtol, maxiter)], lambda rows, Z: [objective(Z[0])])[0]


def _bfgs(z0, hess_inv0, gtol, maxiter):
    """Dense BFGS as a generator: yields each trial point, is sent its ``(F, gradient)``.

    The inverse Hessian starts at ``hess_inv0`` (the identity if None).  Each
    iteration steps along ``d = -H g``: the full step first, halved until
    ``F(z + a d) - F(z) <= c1 a g'd`` (Armijo), tested as a difference so that
    a step too small to change F never passes; a trial at ``_INFEASIBLE_F``
    simply fails it.  The solve stops once ``max|g| < gtol`` or after
    ``maxiter`` iterations, and stalls where ``d`` is not downhill or no step
    passes within ``_MAX_HALVINGS`` halvings.  The rank-2 inverse update is
    skipped where ``s'y <= 0``.  Returns an ``OptimizeResult`` with ``x``,
    ``jac``, ``nit`` and ``nfev``.
    """
    z = np.asarray(z0, dtype=float)
    f, grad = yield z
    H = np.eye(z.size) if hess_inv0 is None else np.array(hess_inv0, dtype=float)
    nit, nfev = 0, 1
    while np.abs(grad).max() >= gtol and nit < maxiter:
        direction = -(H @ grad)
        slope = float(grad @ direction)
        if not slope < 0:
            break
        for halving in range(_MAX_HALVINGS + 1):
            step = direction * 0.5**halving
            trial = z + step
            f_new, grad_new = yield trial
            nfev += 1
            if f_new - f <= _ARMIJO_C1 * 0.5**halving * slope:
                break
        else:
            break
        change = grad_new - grad
        z, f, grad, nit = trial, f_new, grad_new, nit + 1
        curvature = float(step @ change)
        if curvature > 0:
            h_change = H @ change
            H += ((curvature + change @ h_change) / curvature**2) * (step[:, None] * step)
            H -= (h_change[:, None] * step + step[:, None] * h_change) / curvature
    return OptimizeResult(x=z, jac=grad, nit=nit, nfev=nfev)


def _lock_step(solvers: list, evaluate) -> list:
    """Run :func:`_bfgs` generators together; returns their results in order.

    Each round sends every pending trial point to ``evaluate(rows, Z)``
    at once, where ``Z`` stacks the points of the listed rows, and sends
    each generator its ``(F, gradient)``.  A generator leaves the round
    in which it returns.
    """
    results = [None] * len(solvers)
    pending = {row: next(solver) for row, solver in enumerate(solvers)}
    while pending:
        rows = list(pending)
        values = evaluate(rows, np.array([pending[row] for row in rows]))
        for row, value in zip(rows, values):
            try:
                pending[row] = solvers[row].send(value)
            except StopIteration as done:
                del pending[row]
                results[row] = done.value
    return results


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
