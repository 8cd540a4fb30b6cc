"""Reference exploratory (EFA) ML optimum with q orthogonal factors.

For fixed uniquenesses Psi, the ML discrepancy is minimised over the
loadings in closed form (Joreskog 1967, *Psychometrika* 32, 443-482):
with gamma_1 >= ... >= gamma_p the eigenvalues and V the eigenvectors of
Psi^{-1/2} S Psi^{-1/2},

    F(psi) = sum_{j > q} (gamma_j - ln gamma_j - 1),
    Lambda = Psi^{1/2} V_q (Gamma_q - I)^{1/2},

and the gradient of F in psi is diag(Psi^-1 (Sigma_hat - S) Psi^-1) with
Sigma_hat = Lambda Lambda' + Psi.  BFGS runs over log psi.

This is an oracle for the free-phi one-step model, which is the same
q-factor model in a rotation that the balance constraints choose: it
shares none of the library's machinery.  Its Lambda is identified only up
to rotation, so compare the common part Lambda Lambda', not the loadings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

GTOL = 1e-12


@dataclass(frozen=True)
class EfaOptimum:
    f_min: float
    lambda_hat: np.ndarray
    psi_hat: np.ndarray
    df: int
    gradient_norm: float


def _concentrated(S: np.ndarray, q: int, psi: np.ndarray):
    """F(psi), its gradient in log psi, and the loadings at psi."""
    root = np.sqrt(psi)
    gamma, V = np.linalg.eigh(S / np.outer(root, root))
    gamma, V = gamma[::-1], V[:, ::-1]
    rest = gamma[q:]
    f = float(np.sum(rest - np.log(rest) - 1.0))
    lam = root[:, None] * V[:, :q] * np.sqrt(np.maximum(gamma[:q] - 1.0, 0.0))
    residual = lam @ lam.T + np.diag(psi) - S
    return f, np.diag(residual) / psi, lam


def efa_optimum(S: np.ndarray, q: int) -> EfaOptimum:
    """Minimise the concentrated ML discrepancy over log psi.

    The start is psi_i = (1 - q / 2p) / (S^-1)_ii.  At ``GTOL`` scipy may
    report a precision loss once F stops falling, so the caller checks the
    returned gradient norm rather than scipy's ``success``.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    start = (1.0 - q / (2.0 * p)) / np.diag(np.linalg.inv(S))

    def objective(x):
        f, gradient, _ = _concentrated(S, q, np.exp(x))
        return f, gradient

    result = minimize(objective, np.log(start), jac=True, method="BFGS", options={"gtol": GTOL})
    psi = np.exp(result.x)
    f, gradient, lam = _concentrated(S, q, psi)
    df = p * (p + 1) // 2 - (p * q + p - q * (q - 1) // 2)
    return EfaOptimum(f, lam, psi, df, float(np.max(np.abs(gradient))))
