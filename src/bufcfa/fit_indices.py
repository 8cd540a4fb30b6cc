"""Model fit measures: chi-square, df with constraint accounting, SRMR,
RMSEA, CFI, and the zero-correlation baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import ConstraintSet
from .errors import NotTestableError, StructureError
from .estimation import SampleMoments
from .model import FactorModel, Solution, implied_covariance


@dataclass(frozen=True)
class FitReport:
    """Fit summary for one estimated model.

    Sample-size-dependent measures are None when the moments carry no n
    (population-matrix analyses report SRMR only).
    """

    chi_square: Optional[float]
    df: int
    srmr: float
    rmsea: Optional[float]
    cfi: Optional[float]
    baseline_chi_square: Optional[float]
    baseline_df: int
    n: Optional[int]


def degrees_of_freedom(model: FactorModel, constraints: Optional[ConstraintSet] = None) -> int:
    """Distinct moments minus free parameters, plus equality constraints."""
    p = model.p
    n_constraints = len(constraints) if constraints is not None else 0
    df = p * (p + 1) // 2 - model.n_parameters + n_constraints
    if df < 0:
        raise NotTestableError(
            f"negative degrees of freedom ({df}): model is not testable"
        )
    return df


def srmr(S: np.ndarray, sigma_hat: np.ndarray) -> float:
    """Standardized root mean squared residual, diagonal cells included."""
    S = np.asarray(S, dtype=float)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if S.shape != sigma_hat.shape or S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise StructureError(f"conformable square matrices required, got {S.shape} and {sigma_hat.shape}")
    p = S.shape[0]
    d = np.sqrt(np.diag(S))
    resid = (S - sigma_hat) / np.outer(d, d)
    rows, cols = np.tril_indices(p)
    return float(np.sqrt(np.mean(resid[rows, cols] ** 2)))


def rmsea(chi_square: float, df: int, n: int) -> float:
    """Root mean square error of approximation."""
    if df <= 0:
        raise StructureError("rmsea requires df > 0")
    if n <= 1:
        raise StructureError("rmsea requires n > 1")
    return float(np.sqrt(max((chi_square - df) / (df * (n - 1)), 0.0)))


def cfi(chi_square: float, df: int, baseline_chi_square: float, baseline_df: int) -> float:
    """Comparative fit index, clamped to [0, 1]."""
    if baseline_df <= df:
        raise StructureError("baseline df must exceed model df")
    num = max(chi_square - df, 0.0)
    den = max(baseline_chi_square - baseline_df, chi_square - df, 0.0)
    if den == 0.0:
        return 1.0
    return float(min(max(1.0 - num / den, 0.0), 1.0))


def baseline_fit(moments: SampleMoments) -> tuple[float, int]:
    """Chi-square and df of the independence (diagonal-covariance) model.

    The diagonal model fits analytically: its discrepancy is -ln|R| for the
    correlation matrix R of S, which the moments keep
    (:attr:`SampleMoments.baseline_discrepancy`).
    """
    if moments.n is None:
        raise StructureError("baseline chi-square requires a sample size")
    p = moments.p
    chi_sq = (moments.n - 1) * moments.baseline_discrepancy
    return float(max(chi_sq, 0.0)), p * (p - 1) // 2


def build_report(
    model: FactorModel,
    constraints: Optional[ConstraintSet],
    moments: SampleMoments,
    solution: Solution,
) -> FitReport:
    """Assemble the full fit report for a solved model."""
    df = degrees_of_freedom(model, constraints)
    sigma_hat = implied_covariance(solution.lambda_hat, solution.phi_hat, solution.psi_hat)
    srmr_value = srmr(moments.S, sigma_hat)
    if moments.n is None:
        return FitReport(
            chi_square=None,
            df=df,
            srmr=srmr_value,
            rmsea=None,
            cfi=None,
            baseline_chi_square=None,
            baseline_df=moments.p * (moments.p - 1) // 2,
            n=None,
        )
    chi_sq = (moments.n - 1) * solution.f_min
    b_chi, b_df = baseline_fit(moments)
    return FitReport(
        chi_square=float(chi_sq),
        df=df,
        srmr=srmr_value,
        rmsea=rmsea(chi_sq, df, moments.n) if df > 0 else 0.0,
        cfi=cfi(chi_sq, df, b_chi, b_df) if b_df > df else 1.0,
        baseline_chi_square=b_chi,
        baseline_df=b_df,
        n=moments.n,
    )
