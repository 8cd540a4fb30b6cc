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
every round's pending trial points as one stack.  The start is batched as
well: rows at one start point share one expected information over the
union of their free parameters (:meth:`_Fits.informations`), and the
starting inverses are one batched inverse (:func:`_pd_inverses`).  So is
the finish (:meth:`_Fits.finish`): after any per-row scoring steps, every
row is unpacked, sign-aligned and scored as one stack.  :func:`fit` is a
stack of one, driven through :func:`minimize`, the one-row adapter.  A
slice goes through the same operations as a stack of one, so those fits
are bit-identical to serial :func:`fit` calls.

Every evaluation factors each Sigma once, with numpy's Cholesky and one
p-wide triangular inversion (:func:`_cholesky_inverse`); the stacked
layout's ``pack`` gathers the gradient, and the constraint set's flat
arrays do the rest, without Python loops over parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtri

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
    FactorModel,
    Solution,
    StackedLayout,
    implied_covariance,
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
    is ln|S|, kept from the positive-definiteness check.  This is the one
    place a moment matrix is checked for symmetry (to 1e-8) and symmetrised.
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
    """ML fit function; nonnegative, zero iff the matrices coincide.

    S is checked, symmetrised and factored by :class:`SampleMoments`.
    """
    S = np.asarray(S, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if S.shape != sigma.shape:
        raise StructureError(f"shape mismatch: {S.shape} vs {sigma.shape}")
    moments = SampleMoments(S)
    f = float(_discrepancy(sigma[None], moments.S, moments.log_det)[0][0])
    if math.isnan(f):
        raise NumericalError("model-implied matrix is not positive definite")
    return f


def _discrepancy_and_gradient(layout: StackedLayout, lam, phi, psi, S):
    """F without its ln|S| term, and the packed gradient, at a stack of points.

    Slice ``r`` of ``lam``, ``phi`` and ``psi`` is a point of the model in
    row ``r`` of ``layout``.  F is NaN where Sigma is not positive definite.
    """
    # Sigma is built here, not by implied_covariance, to reuse lam_phi for the gradient.
    lam_phi = lam @ phi
    common = lam_phi @ lam.transpose(0, 2, 1)
    sigma = (common + common.transpose(0, 2, 1)) / 2.0
    diag = np.arange(psi.shape[1])
    sigma[:, diag, diag] += psi
    f, sig_inv, sig_inv_S = _discrepancy(sigma, S)
    # W = Sigma^-1 (Sigma - S) Sigma^-1, symmetric
    W = sig_inv - sig_inv_S @ sig_inv
    W = (W + W.transpose(0, 2, 1)) / 2.0
    phi_grad = lam.transpose(0, 2, 1) @ W @ lam
    return f, layout.pack(2.0 * (W @ lam_phi), 2.0 * phi_grad, W.diagonal(0, 1, 2))


def _check_order(moments: SampleMoments, model: FactorModel) -> None:
    if moments.p != model.p:
        raise StructureError(
            f"moment matrix order {moments.p} does not match model p={model.p}"
        )


def ml_gradient(model: FactorModel, theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Analytic gradient of the discrepancy w.r.t. the packed parameters.

    S is checked and symmetrised by :class:`SampleMoments`, and its order
    must be the model's p.
    """
    moments = SampleMoments(S)
    _check_order(moments, model)
    lam, phi, psi = unpack(model, theta)
    f, grad = _discrepancy_and_gradient(model.layout, lam[None], phi[None], psi[None], moments.S)
    if np.isnan(f[0]):
        raise NumericalError("model-implied matrix is not positive definite")
    return grad[0]


def _expected_information(cells, pairs, lam, phi, psi) -> Optional[np.ndarray]:
    """Expected Hessian of F in packed parameters, None where Sigma is not PD.

    The parameters are the loadings at ``cells`` and the correlations at
    ``pairs`` (row and column index arrays, in packed order), then the p
    uniquenesses.  ``H[a, b] = tr(Sigma^-1 dSigma_a Sigma^-1 dSigma_b)``, the Fisher-scoring
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
    rows, cols = cells
    a, b = pairs
    eye = np.eye(p)
    # One column per parameter, in packed order: loadings, correlations, uniquenesses.
    x = np.hstack([eye[:, rows], lam[:, a], eye])
    y = np.hstack([(lam @ phi)[:, cols], lam[:, b], 0.5 * eye])
    px, py = sig_inv @ x, sig_inv @ y
    x_px, y_py, x_py = x.T @ px, y.T @ py, x.T @ py
    return 2.0 * (x_px * y_py + x_py * x_py.T)


def _align_signs(lam, phi, first, flippable) -> tuple[np.ndarray, np.ndarray]:
    """Flip factor columns of a stack so that each first salient loading is nonnegative.

    ``first[r, f]`` is row r's first salient variable on factor f.  Only
    columns with ``flippable[r, f]`` flip: those whose every off-diagonal
    phi entry is free, since flipping a fixed correlation would change the
    fitted model.  Each flip negates exactly.
    """
    k, _, q = lam.shape
    flip = flippable & (lam[np.arange(k)[:, None], first, np.arange(q)] < 0)
    sign = np.where(flip, -1.0, 1.0)
    return lam * sign[:, None, :], phi * (sign[:, :, None] * sign[:, None, :])


class _Fits:
    """Same-sized fits on one sample, in the solver's coordinates, as one stack.

    Row ``r`` fits ``models[r]``.  The solver's vector z is theta[keep],
    with log(psi - floor) for psi.  Only a stack of one takes constraints:
    each is solved for its pivot (``choose_pivots``), and BFGS runs over
    the other parameters on the reduced gradient ``g - J' mu``, with
    multipliers ``mu_r = g[pivot_r] / J[r, pivot_r]``.  ``points``,
    ``objectives`` and ``informations`` evaluate the listed rows at their
    solver points, one row of ``Z`` each; ``objective`` takes one row, and
    ``finish`` every row.
    """

    def __init__(self, models: Sequence[FactorModel], constraints: Optional[ConstraintSet], moments):
        for model in models:
            if model.problems:
                raise StructureError("invalid model: " + "; ".join(model.problems))
            _check_order(moments, model)
        self.models, self.constraints, self.moments = models, constraints, moments
        self.layout = models[0].layout if len(models) == 1 else StackedLayout.of(models)
        model = models[0]
        self.salient = np.array([model.pattern.salient for model in models])
        # Sign alignment: each row's first salient variable per factor (a
        # valid model has one on every factor), and the factors whose every
        # correlation is free.
        self.first_salient = self.salient.argmax(axis=1)
        free_phi = np.isnan([model.phi_fixed for model in models]) | np.eye(model.q, dtype=bool)
        self.flippable = free_phi.all(axis=2)
        self.m = len(constraints) if constraints is not None else 0
        self.keep = slice(None)
        self.log_psi = slice(-model.p, None)  # the last p of theta, and of any union
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
        p, q = self.salient.shape[1:]
        if start is None:
            lam = np.where(self.salient, _COLD_START, 0.0)
            start = lam, self.layout.phi_base, np.full(p, _COLD_START)
        lam, phi, psi = (np.asarray(a, dtype=float) for a in start)
        if lam.shape[-2:] != (p, q) or phi.shape[-2:] != (q, q) or psi.shape != (p,):
            raise StructureError(f"start does not match the model's p={p}, q={q}")
        theta = self.layout.pack(lam, phi, np.maximum(psi, 2 * PSI_FLOOR))
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

    def informations(self, rows, Z) -> np.ndarray:
        """Expected information in z of each listed row, NaN where Sigma is not PD.

        That is ``T' info T`` with ``T = d theta / d z``: the identity on kept
        parameters, psi - floor on log-psi, and on each pivot row
        -J[r, keep] / J[r, pivot].  Rows at one point (lambda, phi, psi) share
        one information over the union of their free parameters, and each
        takes its principal submatrix; every entry is the same arithmetic as
        in the row's own, so a row gets the same bits either way.
        """
        layout, theta, lam, phi, psi = self.points(rows, Z)
        groups = {}
        for r, point in enumerate(zip(lam, phi, psi)):
            groups.setdefault(b"".join(a.tobytes() for a in point), []).append(r)
        out = np.full((len(rows), Z.shape[1], Z.shape[1]), np.nan)
        for group in groups.values():
            r = group[0]
            cells = layout.loading_rows[r], layout.loading_cols[r]
            pairs = layout.phi_rows[r], layout.phi_cols[r]
            if len(group) > 1:  # only unconstrained stacks have more rows, so z is theta
                cells, pairs, positions = layout.take(group).union(psi.shape[1])
            info = _expected_information(cells, pairs, lam[r], phi[r], psi[r])
            if info is None:
                continue
            keep, log_psi = self.keep, self.log_psi
            T = np.eye(len(info))[:, keep]
            T[log_psi] *= (theta[r, log_psi] - PSI_FLOOR)[:, None]
            if self.m:
                jac, params = self.jacobian(theta[r]), self.pivots.params
                T[params] = -jac[:, keep] / jac[np.arange(self.m), params][:, None]
            info = T.T @ info @ T
            if len(group) > 1:
                info = info[positions[:, :, None], positions[:, None, :]]
            out[group] = info
        return out

    def finish(self, results) -> list[Solution]:
        """Every row's solution from its BFGS result, after any scoring steps.

        Near the optimum the rounding error of F can stall the line search a
        hair above ``GRADIENT_TOL``.  Scoring steps ``z - information(z)^-1 g``
        need no function values; each is taken only while it keeps Sigma
        positive definite and halves the gradient norm.  BFGS iterations and
        scoring steps share ``MAX_ITERATIONS``.  A row takes its scoring
        steps on its own; then every row's point is unpacked, sign-aligned
        and scored (``f_min``) as one stack.
        """
        points, grad_norms, nits = [], [], []
        for row, result in enumerate(results):
            z, grad, nit = result.x, result.jac, result.nit
            while np.max(np.abs(grad)) >= GRADIENT_TOL and nit < MAX_ITERATIONS:
                inverse = _pd_inverses(self.informations([row], z[None]))[0]
                if inverse is None:
                    break
                step = z - inverse @ grad
                f, step_grad = self.objective(step, row)
                if f >= _INFEASIBLE_F or not np.max(np.abs(step_grad)) < 0.5 * np.max(np.abs(grad)):
                    break
                z, grad, nit = step, step_grad, nit + 1
            points.append(z)
            grad_norms.append(float(np.max(np.abs(grad))))
            nits.append(nit)
        _, _, lam, phi, psi = self.points(range(len(results)), np.array(points))
        lam, phi = _align_signs(lam, phi, self.first_salient, self.flippable)
        sigma = implied_covariance(lam, phi, psi)
        f_min = _discrepancy(sigma, self.moments.S, self.moments.log_det)[0]
        if np.isnan(f_min).any():
            raise NumericalError("model-implied matrix is not positive definite")
        f_min = f_min.tolist()
        residuals = evaluate_lambda(self.constraints, lam[0]) if self.m else np.zeros(0)
        feasible = bool(np.all(np.abs(residuals) < FEASIBILITY_TOL))
        return [
            Solution(
                lambda_hat=lam[r],
                phi_hat=phi[r],
                psi_hat=psi[r],
                f_min=f_min[r],
                n_iterations=nits[r],
                converged=grad_norms[r] < GRADIENT_TOL and feasible,
                constraint_residuals=residuals,
                gradient_norm=grad_norms[r],
            )
            for r in range(len(results))
        ]


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
    Z0 = fits.start(start)
    result = minimize(
        fits.objective,
        Z0[0],
        hess_inv0=_pd_inverses(fits.informations([0], Z0))[0],
        gtol=GRADIENT_TOL,
        maxiter=MAX_ITERATIONS,
    )
    return fits.finish([result])[0]


def fit_each(models: Sequence[FactorModel], moments: SampleMoments, start=None) -> list[Solution]:
    """Unconstrained fits of same-sized models from one start, solved together.

    Each solution equals ``fit(model, None, moments, start)`` bit for bit.
    The models must share p, q and their counts of free loadings and
    correlations.  Every step batches its rows the way :func:`fit` batches
    its one row:

    - The start: models whose unpacked start is equal (all of a search's
      single-cell refits, whose freed cells start at zero) share one
      expected information over the union of their free parameters
      (:meth:`_Fits.informations`), and the starting inverse Hessians are
      one batched inverse (:func:`_pd_inverses`); a row whose information
      is not positive definite starts from the identity.
    - The solve: every model runs its own BFGS (:func:`_bfgs`); a round
      evaluates all pending trial points in one stacked call
      (:func:`_lock_step`).
    - The finish: :meth:`_Fits.finish` takes any scoring steps row by row,
      then unpacks, aligns signs and scores every row as one stack.
    """
    if not models:
        return []
    fits = _Fits(models, None, moments)
    Z0 = fits.start(start)
    inverses = _pd_inverses(fits.informations(range(len(models)), Z0))
    solvers = [
        _bfgs(z0, inverse, GRADIENT_TOL, MAX_ITERATIONS) for z0, inverse in zip(Z0, inverses)
    ]
    return fits.finish(_lock_step(solvers, fits.objectives))


class _BfgsResult(NamedTuple):
    """Where :func:`_bfgs` stopped: the point, its gradient, and the counts."""

    x: np.ndarray
    jac: np.ndarray
    nit: int
    nfev: int


def minimize(objective, z0, *, hess_inv0, gtol, maxiter) -> _BfgsResult:
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
    skipped where ``s'y <= 0``.  Returns a :class:`_BfgsResult`.
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
    return _BfgsResult(z, grad, nit, nfev)


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


def _pd_inverses(matrices: np.ndarray) -> list[Optional[np.ndarray]]:
    """Exactly symmetric inverse of each positive definite matrix in a stack, else None.

    Positive definite means that the Cholesky factor exists (:func:`_cholesky`,
    which factors slice by slice once a slice fails); a NaN slice fails it.
    The inverses are one batched ``inv``: each slice is the same LAPACK call
    as the inverse of that matrix alone.
    """
    ok = np.isfinite(_cholesky(matrices)[0])
    out: list[Optional[np.ndarray]] = [None] * len(matrices)
    if ok.any():
        inverse = np.linalg.inv(matrices[ok])
        inverse = (inverse + inverse.transpose(0, 2, 1)) / 2.0
        for r, slice_ in zip(np.flatnonzero(ok).tolist(), inverse):
            out[r] = slice_
    return out
