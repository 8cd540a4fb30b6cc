"""Block-trace balance constraints on secondary loadings.

Each constraint forces the weighted sum of one block's loadings on one
unwanted factor to zero.  Two weighting modes exist:

* FIXED_WEIGHTS — weights are stored constants (typically salient-loading
  estimates from a prior model),
* SELF_WEIGHTED — weights are ``1 + s**2`` over the block's own free salient
  parameters, so a single constrained fit suffices.

Constraints are linear (fixed weights) or mildly nonlinear (self-weighted)
in the free loadings; residuals are the plain weighted sums, whose zero set
matches the squared form some modeling languages require while keeping the
Jacobian full-rank at feasible points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import StructureError
from .model import FactorModel, LoadingPattern, unpack


class ConstraintMode(Enum):
    FIXED_WEIGHTS = "fixed"
    SELF_WEIGHTED = "self"


@dataclass(frozen=True)
class BalanceConstraint:
    """Zero-sum condition for one (block, unwanted factor) pair.

    ``members`` are the variable indices whose loadings on ``unwanted`` are
    balanced; ``weights`` holds the fixed weight per member, or None when
    the weights are the block's own salient parameters.
    """

    block: int
    unwanted: int
    members: tuple[int, ...]
    weights: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class ConstraintSet:
    mode: ConstraintMode
    constraints: tuple[BalanceConstraint, ...]

    def __len__(self) -> int:
        return len(self.constraints)


def _block_pairs(pattern: LoadingPattern):
    """(block index, unwanted factor, member variables) for every pair."""
    blocks = pattern.blocks
    for i in range(pattern.q):
        for j in range(pattern.q):
            if j != i:
                yield i, j, blocks[i]


def build_fixed_weight_constraints(
    pattern: LoadingPattern, weights: Sequence[float]
) -> ConstraintSet:
    """Balance constraints with externally supplied per-variable weights.

    ``weights[k]`` is the weight of variable k's secondary loadings (its
    salient-loading value from a prior model).  One constraint per (block,
    unwanted factor) pair, q*(q-1) in total.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (pattern.p,):
        raise StructureError(
            f"need one weight per variable: got {w.shape}, expected ({pattern.p},)"
        )
    if np.any(np.isnan(w)):
        raise StructureError("weight vector contains missing values")
    constraints = []
    for i, j, members in _block_pairs(pattern):
        block_w = tuple(float(w[k]) for k in members)
        if all(x == 0.0 for x in block_w):
            raise StructureError(
                f"all-zero weights for block {i}: constraints would be vacuous"
            )
        constraints.append(BalanceConstraint(i, j, tuple(members), block_w))
    return ConstraintSet(ConstraintMode.FIXED_WEIGHTS, tuple(constraints))


def build_one_step_constraints(pattern: LoadingPattern) -> ConstraintSet:
    """Self-weighted balance constraints: weights are 1 + salient**2.

    The +1 keeps every weight above one, so the constraints cannot be
    satisfied by shrinking the salient loadings themselves.
    """
    constraints = [
        BalanceConstraint(i, j, tuple(members), None)
        for i, j, members in _block_pairs(pattern)
    ]
    return ConstraintSet(ConstraintMode.SELF_WEIGHTED, tuple(constraints))


def swap_members(cset: ConstraintSet, swaps: Sequence[tuple[int, int]]) -> ConstraintSet:
    """Exchange variables inside every constraint's member list.

    Swaps are applied in order, each replacing every current occurrence of
    one variable with the other.  Used to study deliberately misplaced
    constraint membership, so the result may reference salient cells.
    """
    ids = {v for pair in swaps for v in pair}
    perm = {k: k for k in ids}
    for a, b in swaps:
        perm = {k: (b if v == a else a if v == b else v) for k, v in perm.items()}
    new_constraints = []
    for c in cset.constraints:
        members = tuple(perm.get(k, k) for k in c.members)
        new_constraints.append(BalanceConstraint(c.block, c.unwanted, members, c.weights))
    return ConstraintSet(cset.mode, tuple(new_constraints))


def evaluate_lambda(cset: ConstraintSet, lam: np.ndarray) -> np.ndarray:
    """Residual of every constraint at a full loading matrix."""
    vals = np.empty(len(cset))
    for idx, c in enumerate(cset.constraints):
        members = np.fromiter(c.members, dtype=int)
        n = lam[members, c.unwanted]
        if cset.mode is ConstraintMode.FIXED_WEIGHTS:
            w = np.asarray(c.weights)
        else:
            s = lam[members, c.block]
            w = 1.0 + s**2
        vals[idx] = float(w @ n)
    return vals


def constraint_jacobian(
    cset: ConstraintSet, theta: np.ndarray, model: FactorModel
) -> np.ndarray:
    """Analytic Jacobian of the residuals w.r.t. the packed parameters.

    Fixed-weight rows are constant; self-weighted rows carry the product
    rule through the salient weights.  Fixed-zero cells contribute nothing.
    """
    lam, _, _ = unpack(model, theta)
    index = model.loading_index
    jac = np.zeros((len(cset), model.n_parameters))
    for r, c in enumerate(cset.constraints):
        for pos, k in enumerate(c.members):
            n_idx = index.get((k, c.unwanted))
            if cset.mode is ConstraintMode.FIXED_WEIGHTS:
                if n_idx is not None:
                    jac[r, n_idx] += c.weights[pos]
            else:
                s = lam[k, c.block]
                if n_idx is not None:
                    jac[r, n_idx] += 1.0 + s**2
                s_idx = index.get((k, c.block))
                if s_idx is not None:
                    jac[r, s_idx] += 2.0 * s * lam[k, c.unwanted]
    return jac


@dataclass(frozen=True)
class Pivots:
    """Per constraint, the member loading solved for from the others.

    ``cells`` place the pivots in the loading matrix, ``params`` in the
    packed vector; ``fixed_weights`` is None in self-weighted mode.
    """

    cells: tuple[np.ndarray, np.ndarray]
    params: np.ndarray
    blocks: np.ndarray
    fixed_weights: Optional[np.ndarray]

    def weights(self, lam: np.ndarray) -> np.ndarray:
        """Each pivot's coefficient in its own constraint at ``lam``."""
        if self.fixed_weights is not None:
            return self.fixed_weights
        return 1.0 + lam[self.cells[0], self.blocks] ** 2


def choose_pivots(cset: ConstraintSet, model: FactorModel) -> Pivots:
    """One pivot per constraint: a free member cell no other constraint uses.

    Such a cell enters only its own constraint, and only linearly, so it is
    solved for exactly from the other parameters.  Fixed-weight mode takes
    the member of largest |weight|; self-weights are all >= 1, so there any
    member serves.  A constraint with no such member is a StructureError.
    """
    self_weighted = cset.mode is ConstraintMode.SELF_WEIGHTED
    uses = Counter((k, c.unwanted) for c in cset.constraints for k in c.members)
    if self_weighted:
        uses.update((k, c.block) for c in cset.constraints for k in c.members)
    chosen = []
    for r, c in enumerate(cset.constraints):
        weights = (1.0,) * len(c.members) if self_weighted else c.weights
        eligible = [
            (abs(w), -pos)
            for pos, (k, w) in enumerate(zip(c.members, weights))
            if w != 0.0 and uses[(k, c.unwanted)] == 1 and (k, c.unwanted) in model.loading_index
        ]
        if not eligible:
            raise StructureError(
                f"constraint {r} (block {c.block}, unwanted factor {c.unwanted}) has no "
                "free member loading that no other constraint uses"
            )
        pos = -max(eligible)[1]
        cell = (c.members[pos], c.unwanted)
        chosen.append((*cell, model.loading_index[cell], c.block, weights[pos]))
    rows, cols, params, blocks, weights = (np.array(x) for x in zip(*chosen))
    return Pivots((rows, cols), params, blocks, None if self_weighted else weights)


def buffered_quality_index(lambda_hat: np.ndarray, pattern: LoadingPattern) -> float:
    """Total absolute salient-weighted imbalance of the secondary loadings.

    Sums |sum_k s_k * n_kj| over every (block, unwanted factor) pair, with
    the estimated salient loadings as weights.  Zero iff the estimate is
    perfectly balanced.
    """
    lam = np.asarray(lambda_hat, dtype=float)
    if lam.shape != (pattern.p, pattern.q):
        raise StructureError(
            f"loading matrix shape {lam.shape} does not match pattern"
        )
    total = 0.0
    for i, j, members in _block_pairs(pattern):
        members = np.fromiter(members, dtype=int)
        s = lam[members, i]
        n = lam[members, j]
        total += abs(float(s @ n))
    return total
