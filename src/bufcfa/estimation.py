"""Maximum-likelihood discrepancy and the equality-constrained minimizer.

The discrepancy is the standard ML fit function
``F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p``.  Constrained fits solve
each balance constraint for one loading, so this module's BFGS (:func:`_bfgs`)
runs over the other parameters with every iterate feasible.  Uniquenesses
stay above their floor through a log transform, never by clamping.  BFGS
starts from the inverse of the expected information (the Fisher-scoring
matrix of F) in the solver's coordinates, or from the identity where that
is not positive definite.  It tries the full step, then halves it until F
decreases enough.  Where F is flat to rounding, a trial F rejects passes
if F changed by no more than rounding and the gradient fell, and
otherwise the row stops at once; where a row stops short, scoring steps
finish the fit.

F and its gradient are computed for a stack of parameter points, one
model per slice, in one call.  :func:`fit_each` runs unconstrained fits of
same-sized models together, as one BFGS state over the stack
(:func:`_bfgs_stack`): every round evaluates the running rows' trial
points in one call, and updates their inverse Hessians as one batched
product.  :func:`fit` is a stack of one, solved by the one-row generator
(:func:`_bfgs`) that :func:`minimize` drives in a plain loop; at one row
the generator costs less than the stacked state's masks and gathers.  The
two take every step through the same operations, the rank-2 inverse
update included (:func:`_update_inverses`, one (n, 2) by (2, n) product).
The start is batched as well (:meth:`_Fits.start_inverses`): rows at one
start point share one expected information over the union of their free
parameters, the block of parameters that they start away from zero is
inverted once, and each row borders that inverse with its own parameters
that start at zero, through the Schur complement (:func:`_bordered_inverses`):
a search's 36 refits invert one block, not 36 informations.  So is the
finish (:meth:`_Fits.finish`): after any per-row scoring steps, every row
is unpacked, sign-aligned and scored as one stack.  A slice goes through the same operations as a stack
of one, so those fits are bit-identical to serial :func:`fit` calls.

A row evaluated on its own skips the stack's axis: fit's BFGS, its first
evaluation from a memoised start, the finish's scoring steps and the finish
of a stack of one run the kernel on 2-D arrays (:meth:`_Fits.point`,
:meth:`_Fits.objective`), which saves numpy's per-call overhead on the
stack's indexing and reshapes.  The kernel is written once over leading
dimensions, and each operation on a 2-D point is the BLAS or LAPACK call
that its slice of a stack makes, so the one-row path gives a stack slice's
bits exactly.

Every evaluation factors each Sigma once with numpy's Cholesky and inverts
it through the factor structure (:func:`_factor_inverse`); the stacked
layout's ``pack`` gathers the gradient, and the constraint set's flat
arrays do the rest, without Python loops over parameters or scipy.

A cold fit (``fit`` without a start) starts from a point fixed by the model
and the constraints alone, so the process memoises what that start derives
without the sample (:class:`_ColdStart`): the set-up (:class:`_Setup`), the
solver's start point and the starting inverse Hessian, None included.  The
key is the exact bytes of everything the start reads: the shape, both
pattern masks, the phi spec, and the constraint set's count and flat arrays
with their weights, so that models differing in any bit (0.0 against -0.0
included) never share an entry.  A hit hands out the read-only arrays its
miss computed, so the fit runs from the same bits; the memo never holds
the moments.  Keys and arrays together stay within ``_COLD_START_BYTES``
(2 MB), each entry charged ``_COLD_START_OVERHEAD`` for its Python objects,
and the least recently used entry goes first.  A Monte Carlo cell of any
number of replications thus pays one miss per model.  The start point's
pivots and constraint Jacobian are computed once per fit, hit or miss
(:meth:`_Fits.evaluate`), and shared by the information and BFGS's first
evaluation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .constraints import (
    ConstraintMode,
    ConstraintSet,
    Pivots,
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
    _readonly,
    implied_covariance,
    unpack,
)

_INFEASIBLE_F = 1e10
# Line search: Armijo's sufficient-decrease constant, and halvings before a stall.
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 30
# F is flat to rounding for a trial whose predicted decrease -a g'd is below
# _FLAT_RATIO |F|.  F's rounding error is a few 1e-15 on the 3 x 6 models
# (|F| 5-6), a noise-level g'd reads 5e-15 to 4e-14 there, and a step that
# halving gets through on merit predicts 1e-4 or more, so the floor sits
# between the two with an order of magnitude to spare on either side.  Such a
# trial's F must also stay within the floor of F to pass on its gradient.
_FLAT_RATIO = 1e-13
# A fit converges once max|reduced gradient| < GRADIENT_TOL and every
# constraint residual is below FEASIBILITY_TOL.  MAX_ITERATIONS bounds the
# whole fit: BFGS iterations plus any finishing scoring steps.
GRADIENT_TOL = 1e-7
FEASIBILITY_TOL = 1e-8
MAX_ITERATIONS = 2000
# Cold start: salient loadings and uniquenesses here, the rest at zero.
_COLD_START = 0.5
# An information whose Cholesky factor has min L_ii^2 <= _SINGULAR_RATIO * max
# L_ii^2 is singular up to rounding, and BFGS starts from the identity.
_SINGULAR_RATIO = 1e-10


@dataclass(frozen=True)
class SampleMoments:
    """Observed covariance or correlation matrix with optional sample size.

    ``n`` may be None for population-matrix analyses, in which case only
    sample-size-free fit measures are available downstream.  ``log_det``
    is ln|S|, kept from the positive-definiteness check, and
    ``baseline_discrepancy`` is computed once, on first use.  This is the one
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
        log_det = float(_cholesky(S[None])[0])
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

    @cached_property
    def baseline_discrepancy(self) -> float:
        """F of the independence (diagonal-covariance) model: -ln|R| for the correlations R of S."""
        d = np.sqrt(np.diag(self.S))
        _, log_det_R = np.linalg.slogdet(self.S / np.outer(d, d))
        return -float(log_det_R)


def _cholesky_diagonals(matrices: np.ndarray) -> np.ndarray:
    """The diagonal of each matrix's lower Cholesky factor, NaN where it did not factor.

    ``matrices`` is one matrix or a stack of them.
    """
    try:
        factors = np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        if matrices.ndim == 2:
            return np.full(len(matrices), np.nan)
        factors = np.full_like(matrices, np.nan)  # factor one by one to find the failures
        for r, matrix in enumerate(matrices):
            try:
                factors[r] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                pass
    return factors.diagonal(0, -2, -1)


def _cholesky(matrices: np.ndarray) -> np.ndarray:
    """ln|M| of one matrix, or of each in a stack, from its lower Cholesky factor.

    ln|M| is not finite where M is not finite and positive definite; a
    matrix that did not factor gets NaN.
    """
    return 2.0 * np.log(_cholesky_diagonals(matrices)).sum(axis=-1)


def _factor_inverse(sigma, lam, phi, psi) -> tuple[np.ndarray, np.ndarray]:
    """ln|Sigma| and Sigma^-1 of Sigma = Lambda Phi Lambda' + Psi, NaN unless PD.

    One Sigma (2-D arrays) or a stack of them (3-D).  Only the Cholesky
    factor (:func:`_cholesky`) decides positive definiteness and gives
    ln|Sigma|.  Sigma^-1 = Psi^-1 - A K A' (Woodbury) with A = Psi^-1 Lambda
    and K = (I + Phi Lambda' A)^-1 Phi: one q x q solve per slice, and no
    inverse of Phi, which may be singular or indefinite where Sigma is PD.
    """
    log_det = _cholesky(sigma)
    bad = ~np.isfinite(log_det)
    any_bad = bad.any()
    # A trial step's psi = inf makes its rows of A and of Psi^-1 zero, not NaN.
    A = lam / psi[..., None]
    system = phi @ (lam.swapaxes(-1, -2) @ A)
    _diagonal(system)[...] += 1.0
    if any_bad:  # one singular slice would fail the whole stack's solve
        system[bad] = np.eye(phi.shape[-1])
    sig_inv = (A @ np.linalg.solve(system, -phi)) @ A.swapaxes(-1, -2)  # -A K A'
    _diagonal(sig_inv)[...] += 1.0 / psi
    if any_bad:
        log_det = np.where(bad, np.nan, log_det)
        sig_inv[bad] = np.nan
    return log_det, sig_inv


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous (n, n) matrix, or of each slice's in a stack."""
    return stack.reshape(*stack.shape[:-2], -1)[..., :: stack.shape[-1] + 1]


def _discrepancy(sigma: np.ndarray, S: np.ndarray, log_det_S: float) -> np.ndarray:
    """F of one arbitrary Sigma, or of each in a stack (ln|Sigma| from :func:`_cholesky`), NaN unless PD."""
    log_det = _cholesky(sigma)
    trace = np.full_like(log_det, np.nan)
    ok = np.isfinite(log_det)
    # S as a stack of one: numpy < 2 would read a 2-D right-hand side as vectors.
    trace[ok] = np.linalg.solve(sigma[ok], S[None]).trace(0, -2, -1)
    return log_det - log_det_S + trace - S.shape[0]


def ml_discrepancy(S: np.ndarray, sigma: np.ndarray) -> float:
    """ML fit function; nonnegative, zero iff the matrices coincide.

    S is checked, symmetrised and factored by :class:`SampleMoments`.
    """
    S = np.asarray(S, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if S.shape != sigma.shape:
        raise StructureError(f"shape mismatch: {S.shape} vs {sigma.shape}")
    moments = SampleMoments(S)
    f = float(_discrepancy(sigma[None], moments.S, moments.log_det)[0])
    if math.isnan(f):
        raise NumericalError("model-implied matrix is not positive definite")
    return f


def _discrepancy_and_gradient(layout: StackedLayout, lam, phi, psi, S):
    """F without its ln|S| term, and the packed gradient, at one point or a stack.

    Slice ``r`` of 3-D ``lam``, ``phi`` and ``psi`` is a point of the model in
    row ``r`` of ``layout``; 2-D arrays are one point, of a one-model layout
    (``layout.take(r)``), and give a scalar F and one gradient vector.  Either
    way each point goes through the same BLAS and LAPACK calls, so a point
    alone equals its slice of a stack bit for bit.  F is NaN where Sigma is
    not positive definite.
    """
    # Sigma is built here, not by implied_covariance, to reuse lam_phi for the gradient.
    lam_t = lam.swapaxes(-1, -2)
    lam_phi = lam @ phi
    common = lam_phi @ lam_t
    sigma = (common + common.swapaxes(-1, -2)) / 2.0
    _diagonal(sigma)[...] += psi
    log_det, sig_inv = _factor_inverse(sigma, lam, phi, psi)
    sig_inv_S = sig_inv @ S
    f = log_det + sig_inv_S.trace(0, -2, -1) - S.shape[0]
    # 2W with W = Sigma^-1 (Sigma - S) Sigma^-1, made symmetric; doubling is exact.
    W2 = sig_inv - sig_inv_S @ sig_inv
    W2 = W2 + W2.swapaxes(-1, -2)
    phi_grad = lam_t @ W2 @ lam
    return f, layout.pack(W2 @ lam_phi, phi_grad, W2.diagonal(0, -2, -1) / 2.0)


def _check_order(moments: SampleMoments, model: FactorModel) -> None:
    if moments.p != model.p:
        raise StructureError(
            f"moment matrix order {moments.p} does not match model p={model.p}"
        )


def ml_gradient(model: FactorModel, theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Analytic gradient of the discrepancy w.r.t. the packed parameters.

    S is checked and symmetrised by :class:`SampleMoments`, and its order
    must be the model's p.  Every uniqueness must be at least
    :data:`PSI_FLOOR`, the solver's bound: Sigma^-1 is formed through
    Psi^-1 (:func:`_factor_inverse`), so a uniqueness of zero raises
    NumericalError even where Sigma is positive definite.
    """
    moments = SampleMoments(S)
    _check_order(moments, model)
    lam, phi, psi = unpack(model, theta)
    if not (psi >= PSI_FLOOR).all():
        raise NumericalError(
            f"uniqueness below the floor {PSI_FLOOR} (smallest {psi.min():.3g})"
        )
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
    point = lam[None], phi[None], psi[None]
    log_det, sig_inv = _factor_inverse(implied_covariance(*point), *point)
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
    """Flip factor columns of one point or a stack so that each first salient loading is nonnegative.

    ``first[r, f]`` is row r's first salient variable on factor f (``first[f]``
    for one point).  Only columns with ``flippable[r, f]`` flip: those whose
    every off-diagonal phi entry is free, since flipping a fixed correlation
    would change the fitted model.  Each flip negates exactly.
    """
    stack = (np.arange(len(lam))[:, None],) if lam.ndim == 3 else ()
    flip = flippable & (lam[(*stack, first, np.arange(lam.shape[-1]))] < 0)
    sign = np.where(flip, -1.0, 1.0)
    return lam * sign[..., None, :], phi * (sign[..., :, None] * sign[..., None, :])


class _Setup(NamedTuple):
    """What a stack of fits derives from its models and constraints alone.

    Read-only arrays, built without calling the constraints' residuals or
    Jacobian: the layout, each row's salient mask, the sign-alignment
    arrays of :func:`_align_signs`, the kept parameters (z is theta[keep])
    and the pivots (None unconstrained).
    """

    layout: StackedLayout
    salient: np.ndarray
    first_salient: np.ndarray
    flippable: np.ndarray
    keep: slice | np.ndarray
    pivots: Optional[Pivots]

    @classmethod
    def of(cls, models: Sequence[FactorModel], constraints: Optional[ConstraintSet]) -> "_Setup":
        model = models[0]
        layout = model.layout if len(models) == 1 else StackedLayout.of(models)  # checks the sizes
        salient = _readonly([model.pattern.salient for model in models])
        # Sign alignment: each row's first salient variable per factor (a
        # valid model has one on every factor), and the factors whose every
        # correlation is free.
        free_phi = np.isnan([model.phi_fixed for model in models]) | np.eye(model.q, dtype=bool)
        keep, pivots = slice(None), None
        if constraints:
            pivots = choose_pivots(constraints, model)
            keep = _readonly(np.setdiff1d(np.arange(model.n_parameters), pivots.params))
        first_salient, flippable = salient.argmax(axis=1), free_phi.all(axis=2)
        return cls(layout, salient, _readonly(first_salient), _readonly(flippable), keep, pivots)


class _Fits:
    """Same-sized fits on one sample, in the solver's coordinates, as one stack.

    Row ``r`` fits ``models[r]``; ``setup`` is the stack's :class:`_Setup`,
    built here unless given.  The solver's vector z is theta[keep], with
    log(psi - floor) for psi.  Only a stack of one takes constraints:
    each is solved for its pivot (``choose_pivots``), and BFGS runs over
    the other parameters on the reduced gradient ``g - J' mu``, with
    multipliers ``mu_r = g[pivot_r] / J[r, pivot_r]``.  ``points``,
    ``evaluate``, ``objectives``, ``informations`` and ``start_inverses``
    evaluate the listed rows at their solver points, one row of ``Z``
    each, as a stack.
    ``point`` and ``objective`` evaluate one row on its own, with 2-D arrays
    and the row's one-model layout (``row_layouts``): the same operations
    as its slice of a stack, without the stack's axis, so both give the same
    bits.  ``finish`` takes every row, and a stack of one on its own.
    """

    def __init__(
        self,
        models: Sequence[FactorModel],
        constraints: Optional[ConstraintSet],
        moments,
        setup: Optional[_Setup] = None,
    ):
        for model in models:
            if model.problems:
                raise StructureError("invalid model: " + "; ".join(model.problems))
            _check_order(moments, model)
        self.models, self.constraints, self.moments = models, constraints, moments
        model = models[0]
        self.m = len(constraints) if constraints is not None else 0
        self.setup = setup or _Setup.of(models, constraints)
        (self.layout, self.salient, self.first_salient, self.flippable, self.keep,
         self.pivots) = self.setup
        self.log_psi = slice(-model.p, None)  # the last p of theta, and of any union
        self.row_layouts = [self.layout.take(r) for r in range(len(models))]
        self.fixed_jac = None
        if self.m and constraints.mode is not ConstraintMode.SELF_WEIGHTED:
            # Fixed weights make the Jacobian constant: build it once per fit.
            self.fixed_jac = constraint_jacobian(constraints, np.zeros(model.n_parameters), model)

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

    def evaluate(self, rows, Z) -> tuple:
        """The rows' :meth:`points`, and row 0's constraint Jacobian (None unconstrained).

        ``objectives`` and ``informations`` take this from the caller when
        both are wanted at one point, so that it is computed once.
        """
        point, jac = self.points(rows, Z), self.fixed_jac
        if self.m and jac is None:
            jac = constraint_jacobian(self.constraints, point[1][0], self.models[0])
        return point, jac

    def objectives(self, rows, Z, at=None) -> tuple[np.ndarray, np.ndarray]:
        """The rows' F and gradients in z, ``_INFEASIBLE_F`` and zeros where Sigma is not PD.

        ``at`` is the rows' :meth:`evaluate`, if already taken.
        """
        (layout, theta, lam, phi, psi), jac = at or self.evaluate(rows, Z)
        f, grad = _discrepancy_and_gradient(layout, lam, phi, psi, self.moments.S)
        if self.m:
            params = self.pivots.params
            grad[0] -= jac.T @ (grad[0, params] / jac[np.arange(self.m), params])
        grad[:, self.log_psi] *= theta[:, self.log_psi] - PSI_FLOOR
        grad = grad[:, self.keep]
        infeasible = np.isnan(f)
        if infeasible.any():
            f[infeasible], grad[infeasible] = _INFEASIBLE_F, 0.0
        return f, grad

    def point(self, z, row=0):
        """One row's theta, lambda, phi and psi at its solver point ``z``, pivots solved.

        :meth:`points` for one row, as 1-D and 2-D arrays.
        """
        theta = np.zeros(self.models[row].n_parameters)
        theta[self.keep] = z
        with np.errstate(over="ignore"):  # a wild trial step lands on _INFEASIBLE_F
            theta[self.log_psi] = PSI_FLOOR + np.exp(theta[self.log_psi])
        lam, phi, psi = self.row_layouts[row].unpack(theta)
        if self.m:
            pivots = self.pivots
            lam[pivots.cells] = -evaluate_lambda(self.constraints, lam) / pivots.weights(lam)
            theta[pivots.params] = lam[pivots.cells]
        return theta, lam, phi, psi

    def objective(self, z, row=0):
        """One row's F and gradient in z, ``_INFEASIBLE_F`` and zeros where Sigma is not PD.

        :meth:`objectives` for one row, through the 2-D kernel.
        """
        theta, lam, phi, psi = self.point(z, row)
        jac = self.fixed_jac
        if self.m and jac is None:
            jac = constraint_jacobian(self.constraints, theta, self.models[row])
        f, grad = _discrepancy_and_gradient(self.row_layouts[row], lam, phi, psi, self.moments.S)
        if math.isnan(f):
            return _INFEASIBLE_F, np.zeros(len(z))
        if self.m:
            params = self.pivots.params
            grad -= jac.T @ (grad[params] / jac[np.arange(self.m), params])
        grad[self.log_psi] *= theta[self.log_psi] - PSI_FLOOR
        return f, grad[self.keep]

    def _shared_informations(self, rows, Z, at=None):
        """Per group of rows at one point: the group, its information, each row's positions.

        The rows at one point (lambda, phi, psi) share one expected
        information in z over the union of their free parameters, and
        ``positions[i]`` places the group's row i's parameters in it, in the
        row's order (``(1, n)`` of 0..n-1 for a group of one, over its own).
        Every entry is the same arithmetic as in the row's own information,
        so a row gets the same bits either way.  The information is None
        where Sigma is not PD.  That is ``T' info T`` with
        ``T = d theta / d z``: the identity on kept parameters, psi - floor
        on log-psi, and on each pivot row -J[r, keep] / J[r, pivot].
        Unconstrained, T is diagonal, and scaling the log-psi rows, then
        columns, gives the product's bits.  ``at`` is the rows'
        :meth:`evaluate`, if already taken.
        """
        (layout, theta, lam, phi, psi), jac = at or self.evaluate(rows, Z)
        groups = {}
        for r, point in enumerate(zip(lam, phi, psi)):
            groups.setdefault(b"".join(a.tobytes() for a in point), []).append(r)
        for group in groups.values():
            r = group[0]
            cells = layout.loading_rows[r], layout.loading_cols[r]
            pairs = layout.phi_rows[r], layout.phi_cols[r]
            positions = np.arange(Z.shape[1])[None]
            if len(group) > 1:  # only unconstrained stacks have more rows, so z is theta
                cells, pairs, positions = layout.take(group).union(psi.shape[1])
            info = _expected_information(cells, pairs, lam[r], phi[r], psi[r])
            if info is not None:
                log_psi, scale = self.log_psi, theta[r, self.log_psi] - PSI_FLOOR
                if self.m:  # only a stack of one takes constraints, so r is 0
                    keep, params = self.keep, self.pivots.params
                    T = np.eye(len(info))[:, keep]
                    T[log_psi] *= scale[:, None]
                    T[params] = -jac[:, keep] / jac[np.arange(self.m), params][:, None]
                    info = T.T @ info @ T
                else:
                    info[log_psi] *= scale[:, None]
                    info[:, log_psi] *= scale
            yield group, info, positions

    def informations(self, rows, Z, at=None) -> np.ndarray:
        """Expected information in z of each listed row, NaN where Sigma is not PD.

        Each row's principal submatrix of its group's shared information
        (:meth:`_shared_informations`).  The fits invert it through
        :meth:`start_inverses`; this whole matrix is the reference that
        those inverses are tested against.
        """
        out = np.full((len(rows), Z.shape[1], Z.shape[1]), np.nan)
        for group, info, positions in self._shared_informations(rows, Z, at):
            if info is not None:
                out[group] = info[positions[:, :, None], positions[:, None, :]]
        return out

    def start_inverses(self, rows, Z, at=None) -> tuple[np.ndarray, np.ndarray]:
        """Each listed row's starting inverse Hessian (k, n, n), and whether it is the information's.

        The inverse of the row's expected information in z, or the identity
        where that is not positive definite (``ok`` False).  Per group of
        rows at one point (:meth:`_shared_informations`), the block of
        parameters that a row starts away from zero (log-psi always) is
        inverted once for all the rows with the same block, such as a
        search's single-cell refits.  Each row then borders that inverse with
        the loadings and correlations that its start leaves at exactly 0.0
        (:func:`_bordered_inverses`).  A row alone partitions its parameters
        the same way, so a stacked row gets its serial fit's bits.
        ``at`` is the rows' :meth:`evaluate`, if already taken.
        """
        n = Z.shape[1]
        out = np.empty((len(rows), n, n))
        ok = np.zeros(len(rows), dtype=bool)
        away = Z != 0.0
        away[:, self.log_psi] = True
        for group, info, positions in self._shared_informations(rows, Z, at):
            if info is None:
                out[group] = np.eye(n)
                continue
            blocks = {}
            for i, r in enumerate(group):
                blocks.setdefault(positions[i][away[r]].tobytes(), []).append(i)
            for members in blocks.values():
                rows_ = [group[i] for i in members]
                held = away[rows_]
                block = positions[members[0]][held[0]]
                border = positions[members][~held].reshape(len(members), -1)
                inverses, ok[rows_] = _bordered_inverses(
                    info[block[:, None], block],
                    info[block[None, :, None], border[:, None, :]],
                    info[border[:, :, None], border[:, None, :]],
                )
                if border.size:  # from block order (the block, then the border) to the row's own
                    order = np.where(held, np.cumsum(held, 1), len(block) + np.cumsum(~held, 1)) - 1
                    stack = np.arange(len(members))[:, None, None]
                    inverses = inverses[stack, order[:, :, None], order[:, None, :]]
                out[rows_] = inverses
        return out, ok

    def finish(self, results) -> list[Solution]:
        """Every row's solution from its BFGS result, after any scoring steps.

        Near the optimum, where F is flat to rounding, BFGS can stop a hair
        above ``GRADIENT_TOL`` (:func:`_bfgs`).  Scoring steps
        ``z - information(z)^-1 g`` need no function values; the inverse is
        the start's (:meth:`start_inverses` on the row alone), and each step
        is taken only while that information is positive definite, the step
        keeps Sigma positive definite and it halves the gradient norm.  BFGS
        iterations and scoring steps share ``MAX_ITERATIONS``.  Every row's
        ``max|g|`` is one reduction, and only the rows at or above
        ``GRADIENT_TOL`` take scoring steps, each on its own; then every
        row's point is unpacked, sign-aligned and scored (``f_min``) as one
        stack, and a stack of one as its row alone, with the same bits.
        """
        points, nits = [result.x for result in results], [result.nit for result in results]
        grad_norms = np.abs([result.jac for result in results]).max(axis=1)
        for row in np.flatnonzero(grad_norms >= GRADIENT_TOL).tolist():
            z, grad, grad_norm, nit = points[row], results[row].jac, grad_norms[row], nits[row]
            while grad_norm >= GRADIENT_TOL and nit < MAX_ITERATIONS:
                inverses, ok = self.start_inverses([row], z[None])
                if not ok[0]:
                    break
                step = z - inverses[0] @ grad
                f, step_grad = self.objective(step, row)
                step_norm = np.abs(step_grad).max()
                if f >= _INFEASIBLE_F or not step_norm < 0.5 * grad_norm:
                    break
                z, grad, grad_norm, nit = step, step_grad, step_norm, nit + 1
            points[row], grad_norms[row], nits[row] = z, grad_norm, nit
        grad_norms = grad_norms.tolist()
        if len(results) == 1:  # one row on its own, as 2-D arrays
            _, lam, phi, psi = self.point(points[0])
            first, flippable = self.first_salient[0], self.flippable[0]
        else:
            _, _, lam, phi, psi = self.points(range(len(results)), np.array(points))
            first, flippable = self.first_salient, self.flippable
        lam, phi = _align_signs(lam, phi, first, flippable)
        f_min = _discrepancy(implied_covariance(lam, phi, psi), self.moments.S, self.moments.log_det)
        if np.isnan(f_min).any():
            raise NumericalError("model-implied matrix is not positive definite")
        if lam.ndim == 2:
            lam, phi, psi, f_min = lam[None], phi[None], psi[None], f_min[None]
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
    key = cold = None
    if start is None:
        key = _cold_key(model, constraints)
        cold = _recall(key)
    fits = _Fits([model], constraints, moments, cold and cold.setup)
    if cold is None:
        Z0 = fits.start(start)
        at = fits.evaluate([0], Z0)  # shared by the information and BFGS's first evaluation
        inverses, ok = fits.start_inverses([0], Z0, at)
        hess_inv0 = inverses[0] if ok[0] else None
        if key is not None:
            _remember(key, fits.setup, Z0, hess_inv0)
        f0, g0 = fits.objectives([0], Z0, at)
        first = f0[0], g0[0]
    else:  # the memo's start: BFGS's first evaluation is its own
        Z0, hess_inv0, first = cold.z0, cold.hess_inv0, None
    result = minimize(
        fits.objective,
        Z0[0],
        hess_inv0=hess_inv0,
        gtol=GRADIENT_TOL,
        maxiter=MAX_ITERATIONS,
        first=first,
    )
    return fits.finish([result])[0]


class _ColdStart(NamedTuple):
    """A cold fit's sample-free start: set-up, solver point (1, n) and inverse Hessian (or None)."""

    setup: _Setup
    z0: np.ndarray
    hess_inv0: Optional[np.ndarray]
    nbytes: int


# Cold starts by key, least recently used first; keys and arrays stay within
# _COLD_START_BYTES, each entry charged _COLD_START_OVERHEAD for its objects.
# The lock keeps the read-modify-write steps whole when threads fit at once.
_cold_starts: dict[tuple, _ColdStart] = {}
_cold_lock = threading.Lock()
_COLD_START_BYTES = 2_000_000
_COLD_START_OVERHEAD = 8192


def _cold_key(model: FactorModel, constraints: Optional[ConstraintSet]) -> tuple:
    """Everything a cold start reads, as exact bytes.

    The shape, both pattern masks and the phi spec; with constraints, their
    count and flat arrays, weights included.  Bytes tell 0.0 from -0.0, and
    one NaN payload from another.
    """
    pattern = model.pattern
    key = (
        pattern.salient.shape,
        pattern.salient.tobytes(),
        pattern.free.tobytes(),
        model.phi_fixed.tobytes(),
    )
    if constraints:
        key += (len(constraints), *(a if a is None else a.tobytes() for a in constraints.flat))
    return key


def _recall(key: tuple) -> Optional[_ColdStart]:
    with _cold_lock:
        entry = _cold_starts.pop(key, None)
        if entry is not None:
            _cold_starts[key] = entry  # now the most recently used
    return entry


def _remember(key: tuple, setup: _Setup, z0: np.ndarray, hess_inv0) -> None:
    """Keep a cold start, read-only, and drop the least recently used beyond the bound."""
    for array in (z0, hess_inv0):
        if array is not None:
            array.flags.writeable = False
    nbytes = _COLD_START_OVERHEAD + _nbytes((key, setup, z0, hess_inv0))
    with _cold_lock:
        _cold_starts[key] = _ColdStart(setup, z0, hess_inv0, nbytes)
        while sum(entry.nbytes for entry in _cold_starts.values()) > _COLD_START_BYTES:
            del _cold_starts[next(iter(_cold_starts))]


def _nbytes(value) -> int:
    """Bytes of the arrays and byte strings in a nest of tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, bytes):
        return len(value)
    if is_dataclass(value):
        value = tuple(vars(value).values())
    return sum(map(_nbytes, value)) if isinstance(value, tuple) else 0


def fit_each(models: Sequence[FactorModel], moments: SampleMoments, start=None) -> list[Solution]:
    """Unconstrained fits of same-sized models from one start, solved together.

    Each solution equals ``fit(model, None, moments, start)`` bit for bit.
    The models must share p, q and their counts of free loadings and
    correlations.  Every step batches its rows the way :func:`fit` batches
    its one row:

    - The start: models whose unpacked start is equal (all of a search's
      single-cell refits, whose freed cells start at zero) share one
      expected information over the union of their free parameters, and
      the block they all start away from zero is inverted once and
      bordered per row (:meth:`_Fits.start_inverses`); a row whose
      information is not positive definite starts from the identity.
    - The solve: one BFGS state for the whole stack (:func:`_bfgs_stack`),
      whose first evaluation is the start's, and whose every round evaluates the rows' trial points in one stacked
      call and updates their inverse Hessians as one batched product.
      :func:`fit`'s one row runs the generator :func:`_bfgs` instead, which
      costs less at one row; both take the same steps and the same update
      (:func:`_update_inverses`), so their rows agree bit for bit.
    - The finish: :meth:`_Fits.finish` takes any scoring steps row by row,
      then unpacks, aligns signs and scores every row as one stack.
    """
    if not models:
        return []
    fits = _Fits(models, None, moments)
    Z0 = fits.start(start)
    rows = range(len(models))
    at = fits.evaluate(rows, Z0)  # shared by the inverses and BFGS's first evaluation
    # Passed on, not kept: the inverses become the stacked H.
    results = _bfgs_stack(
        fits.objectives, Z0, fits.start_inverses(rows, Z0, at)[0], GRADIENT_TOL, MAX_ITERATIONS,
        fits.objectives(rows, Z0, at),
    )
    return fits.finish(results)


class _BfgsResult(NamedTuple):
    """Where a BFGS row stopped: the point, its gradient, and the counts."""

    x: np.ndarray
    jac: np.ndarray
    nit: int
    nfev: int


def minimize(objective, z0, *, hess_inv0, gtol, maxiter, first=None) -> _BfgsResult:
    """Dense BFGS (:func:`_bfgs`) on ``objective(z) -> (F, gradient)``, from ``z0``.

    :func:`fit`'s solve: a plain loop that sends the one generator each
    trial point's value (perfbench's trace wraps it under this name).
    ``first`` is ``(F, gradient)`` at ``z0`` if the caller has it.  Returns
    ``x``, ``jac``, ``nit`` and ``nfev`` (which counts the start's
    evaluation either way).
    """
    solver = _bfgs(z0, hess_inv0, gtol, maxiter)
    z = next(solver)
    value = objective(z) if first is None else first
    while True:
        try:
            z = solver.send(value)
        except StopIteration as done:
            return done.value
        value = objective(z)


def _bfgs(z0, hess_inv0, gtol, maxiter):
    """Dense BFGS as a generator: yields each trial point, is sent its ``(F, gradient)``.

    The inverse Hessian starts at ``hess_inv0`` (the identity if None).  Each
    iteration steps along ``d = -H g``: the full step first, halved until
    ``F(z + a d) - F(z) <= c1 a g'd`` (Armijo), tested as a difference so that
    a step too small to change F never passes; a trial at ``_INFEASIBLE_F``
    simply fails it.  A trial that fails it while its predicted decrease
    ``-a g'd`` is below ``_FLAT_RATIO |F|`` is one that F cannot rank, so its
    gradient judges it: it passes if F rose by no more than that floor (so it
    is feasible) and ``max|g|`` fell, and otherwise the solve stops there,
    without halving, and leaves the row to the finish's scoring steps.  The
    solve stops once ``max|g| < gtol`` or after ``maxiter`` iterations, and stalls
    where ``d`` is not downhill or no step passes within ``_MAX_HALVINGS``
    halvings.  The rank-2 inverse update (:func:`_update_inverses`) is
    skipped where ``s'y <= 0``.  Returns a :class:`_BfgsResult`.
    """
    z = np.asarray(z0, dtype=float)
    f, grad = yield z
    H = np.eye(z.size) if hess_inv0 is None else np.array(hess_inv0, dtype=float)
    nit, nfev = 0, 1
    while (grad_max := np.abs(grad).max()) >= gtol and nit < maxiter:
        direction = -(H @ grad)
        slope = grad @ direction
        if not slope < 0:
            break
        for halving in range(_MAX_HALVINGS + 1):
            step = direction * 0.5**halving
            trial = z + step
            f_new, grad_new = yield trial
            nfev += 1
            if f_new - f <= _ARMIJO_C1 * 0.5**halving * slope:
                break
            if -(0.5**halving * slope) < _FLAT_RATIO * abs(f):  # F cannot rank it: the gradient does
                if f_new - f <= _FLAT_RATIO * abs(f) and np.abs(grad_new).max() < grad_max:
                    break
                return _BfgsResult(z, grad, nit, nfev)
        else:
            break
        change = grad_new - grad
        z, f, grad, nit = trial, f_new, grad_new, nit + 1
        curvature = step @ change
        if curvature > 0:
            _update_inverses(H, step, change, curvature)
    return _BfgsResult(z, grad, nit, nfev)


def _bfgs_stack(objectives, Z0, inverses, gtol, maxiter, first=None) -> list[_BfgsResult]:
    """:func:`_bfgs` on every row of ``Z0`` as one state; returns each row's result.

    ``objectives(rows, Z)`` gives the F (k,) and gradients (k, n) of the
    listed rows at the rows of ``Z``; ``first`` is its value at ``Z0`` for
    every row, if the caller has it.  ``inverses`` is the (k, n, n) stack of
    starting inverse Hessians; it becomes the state's H and is updated in
    place.  ``gtol`` and ``maxiter`` are one value or one per row.  The state
    is arrays over the running rows.  Each round takes every row's direction
    and slope as batched products, evaluates every trial point in one call
    and tests each row's step as :func:`_bfgs` does, by Armijo's condition
    and, where that fails with F flat to rounding, by F's change and the
    gradient; the rows whose step passed update their slices of the stacked
    H (:func:`_update_inverses`), the others halve their step, and a flat
    row whose step failed stops.  A row's stopping tests give the same
    answer in every round in which it does not move, so all rows are tested
    every round, and a row leaves in the round in which :func:`_bfgs` would
    stop it.  Each row goes through
    the same BLAS calls as in :func:`_bfgs`, so its result is that of
    ``_bfgs`` on the row alone, bit for bit.  A row's ``nfev`` is one more
    than the rounds it ran.
    """
    k, n = Z0.shape
    rows = np.arange(k)
    z, H = np.array(Z0, dtype=float), inverses
    gtol, maxiter = np.broadcast_to(gtol, k), np.broadcast_to(maxiter, k)
    f, grad = first or objectives(rows, z)
    nit, halving = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    results: list = [None] * k
    nfev = 1
    while True:
        direction = -(H @ grad[:, :, None])[:, :, 0]
        slope = _dots(grad, direction)
        grad_max = np.abs(grad).max(axis=1)
        going = (grad_max >= gtol) & (nit < maxiter) & (slope < 0) & (halving <= _MAX_HALVINGS)
        if not going.all():
            for r in np.flatnonzero(~going).tolist():
                results[rows[r]] = _BfgsResult(z[r].copy(), grad[r].copy(), int(nit[r]), nfev)
            if not going.any():
                return results
            rows, z, f, grad, H, direction, slope, grad_max, nit, halving, gtol, maxiter = (
                a[going]
                for a in (rows, z, f, grad, H, direction, slope, grad_max, nit, halving, gtol, maxiter)
            )
        scale = 0.5**halving
        step = direction * scale[:, None]
        trial = z + step
        f_new, grad_new = objectives(rows, trial)
        nfev += 1
        passed = f_new - f <= _ARMIJO_C1 * scale * slope
        flat = ~passed & (-(scale * slope) < _FLAT_RATIO * np.abs(f))
        if flat.any():
            level = f_new - f <= _FLAT_RATIO * np.abs(f)
            passed |= flat & level & (np.abs(grad_new).max(axis=1) < grad_max)
        moved = np.flatnonzero(passed)
        if moved.size == len(rows):
            change = grad_new - grad
            z, f, grad, halving = trial, f_new, grad_new, np.zeros_like(halving)
        else:
            step, change = step[moved], grad_new[moved] - grad[moved]
            z[moved], f[moved], grad[moved] = trial[moved], f_new[moved], grad_new[moved]
            # A flat row whose step failed stops: past the last halving, it leaves next round.
            halving = np.where(passed, 0, np.where(flat, _MAX_HALVINGS + 1, halving + 1))
        nit[moved] += 1
        curvature = _dots(step, change)
        update = curvature > 0
        if update.all() and moved.size == len(rows):
            _update_inverses(H, step, change, curvature)
        elif update.any():
            H_update = H[moved[update]]
            _update_inverses(H_update, step[update], change[update], curvature[update])
            H[moved[update]] = H_update


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for every row of two (k, n) stacks, one BLAS dot per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _update_inverses(H, step, change, curvature) -> None:
    """BFGS's rank-2 update of an inverse Hessian, or of each in a stack, in place.

    With ``s`` the step, ``y`` the change of gradient and ``c = s'y > 0``:
    ``H += P Q'`` with ``P = [beta s - Hy/c, -s]``, ``Q = [s, Hy/c]`` and
    ``beta = (c + y'Hy) / (c c)``, one (n, 2) by (2, n) product per slice.
    A slice of a stack goes through the same BLAS calls as that matrix
    alone, so the two agree bit for bit.  P and Q are filled column by
    column, in the (..., n, 2) layout of their stacked columns.
    """
    h_change = (H @ change[..., None])[..., 0]
    scaled = h_change / curvature[..., None]
    beta = (curvature + (change[..., None, :] @ h_change[..., None])[..., 0, 0]) / (
        curvature * curvature
    )
    P, Q = np.empty((*step.shape, 2)), np.empty((*step.shape, 2))
    P[..., 0] = beta[..., None] * step - scaled
    np.negative(step, out=P[..., 1])
    Q[..., 0], Q[..., 1] = step, scaled
    H += P @ Q.swapaxes(-1, -2)


def _conditioned(squares: np.ndarray) -> np.ndarray:
    """Whether each Cholesky factor, given by its squared diagonal (last axis), is well conditioned.

    Its smallest entry must exceed ``_SINGULAR_RATIO`` times its largest;
    NaN (no factor) fails.
    """
    return squares.min(axis=-1) > _SINGULAR_RATIO * squares.max(axis=-1)


def _bordered_inverses(A, B, C) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each ``M_r = [[A, B_r], [B_r', C_r]]``, with A's inverse taken once.

    ``A`` is (a, a), shared; ``B`` is (k, a, b) and ``C`` (k, b, b).  Through
    the Schur complement, as batched per-slice products: ``u = A^-1 B``,
    ``S = C - B'u`` and ``M^-1 = [[A^-1 + u S^-1 u', -u S^-1], [-S^-1 u', S^-1]]``,
    with ``A^-1``, ``S^-1`` and the top-left block made exactly symmetric.
    M counts as positive definite where its Cholesky factor exists and is
    well conditioned (:func:`_conditioned`); that factor has A's and then
    S's on its diagonal, so M passes where A and S both factor and their
    diagonals together pass.  A matrix that fails (NaN, indefinite, or
    singular up to rounding, whose inverse would be huge or fail) gets the
    identity.  Returns the (k, a + b, a + b) inverses in block order and
    which rows passed.  With b = 0 every row gets A's inverse,
    ``inv(A)`` made exactly symmetric.
    """
    k, a, b = B.shape
    out = np.empty((k, a + b, a + b))
    squares_A = np.square(_cholesky_diagonals(A))
    if not _conditioned(squares_A):
        out[:] = np.eye(a + b)
        return out, np.zeros(k, dtype=bool)
    A_inv = np.linalg.inv(A)
    A_inv = (A_inv + A_inv.T) / 2.0
    if b == 0:
        out[:] = A_inv
        return out, np.ones(k, dtype=bool)
    u = A_inv @ B
    S = C - B.swapaxes(-1, -2) @ u
    squares_S = np.square(_cholesky_diagonals(S))
    ok = _conditioned(np.concatenate([np.broadcast_to(squares_A, (k, a)), squares_S], axis=1))
    out[~ok] = np.eye(a + b)
    if not ok.any():
        return out, ok
    passed = slice(None) if ok.all() else np.flatnonzero(ok)
    u, S = u[passed], S[passed]
    S_inv = np.linalg.inv(S)
    S_inv = (S_inv + S_inv.swapaxes(-1, -2)) / 2.0
    v = u @ S_inv
    top = A_inv + v @ u.swapaxes(-1, -2)
    out[passed, :a, :a] = (top + top.swapaxes(-1, -2)) / 2.0
    out[passed, :a, a:] = -v
    out[passed, a:, :a] = -v.swapaxes(-1, -2)
    out[passed, a:, a:] = S_inv
    return out, ok
