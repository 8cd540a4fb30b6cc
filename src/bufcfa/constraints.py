"""Block-trace balance constraints on secondary loadings.

Each constraint forces the weighted sum of one block's loadings on one
unwanted factor to zero.  Two weighting modes exist, and a set's mode is
read off its constraints' weights:

* FIXED_WEIGHTS — every constraint stores one weight per member (typically
  salient-loading estimates from a prior model),
* SELF_WEIGHTED — no constraint stores weights; they are ``1 + s**2`` over
  the block's own free salient parameters, so a single constrained fit
  suffices.

Constraints are linear (fixed weights) or mildly nonlinear (self-weighted)
in the free loadings; residuals are the plain weighted sums, whose zero set
matches the squared form some modeling languages require while keeping the
Jacobian full-rank at feasible points.

A set compiles once, on first use, into flat per-member arrays
(:attr:`ConstraintSet.flat`): the residuals are then one ``np.bincount``
over them, and the Jacobian one scatter into the model's packed positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import StructureError
from .model import FactorModel, LoadingPattern, _readonly


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

    def __post_init__(self):
        if self.weights is not None and len(self.weights) != len(self.members):
            raise StructureError(
                f"constraint (block {self.block}, unwanted factor {self.unwanted}) has "
                f"{len(self.weights)} weights for {len(self.members)} members"
            )


@dataclass(frozen=True)
class ConstraintSet:
    """Balance constraints that are all fixed-weight or all self-weighted."""

    constraints: tuple[BalanceConstraint, ...]
    # Jacobian index arrays per packed layout (constraint_jacobian), built on first use.
    _jacobian_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({c.weights is None for c in self.constraints}) > 1:
            raise StructureError("constraint set mixes fixed-weight and self-weighted constraints")

    def __len__(self) -> int:
        return len(self.constraints)

    @property
    def mode(self) -> ConstraintMode:
        """SELF_WEIGHTED when the constraints store no weights, else FIXED_WEIGHTS."""
        if self.constraints and self.constraints[0].weights is None:
            return ConstraintMode.SELF_WEIGHTED
        return ConstraintMode.FIXED_WEIGHTS

    @cached_property
    def flat(self) -> tuple[np.ndarray, ...]:
        """The set as one entry per (constraint, member), built once.

        Entry t is member ``rows[t]`` of constraint ``ids[t]``: its loading
        on ``unwanted[t]`` is balanced, weighted by ``weights[t]``, or in
        self-weighted mode (``weights`` None) by ``1 + s**2`` with ``s`` its
        loading on ``blocks[t]``.  Returns (ids, rows, unwanted, blocks,
        weights), in constraint and member order.
        """
        entries = [
            (r, k, c.unwanted, c.block) for r, c in enumerate(self.constraints) for k in c.members
        ]
        columns = np.array(entries, dtype=int).reshape(-1, 4).T
        weights = None
        if self.mode is ConstraintMode.FIXED_WEIGHTS:
            weights = _readonly([w for c in self.constraints for w in c.weights])
        return (*(_readonly(a) for a in columns), weights)


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
    return ConstraintSet(tuple(constraints))


def build_one_step_constraints(pattern: LoadingPattern) -> ConstraintSet:
    """Self-weighted balance constraints: weights are 1 + salient**2.

    The +1 keeps every weight above one, so the constraints cannot be
    satisfied by shrinking the salient loadings themselves.
    """
    return ConstraintSet(
        tuple(BalanceConstraint(i, j, tuple(members)) for i, j, members in _block_pairs(pattern))
    )


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
    return ConstraintSet(tuple(new_constraints))


def evaluate_lambda(cset: ConstraintSet, lam: np.ndarray) -> np.ndarray:
    """Residual of every constraint at a full loading matrix: one bincount."""
    ids, rows, unwanted, blocks, weights = cset.flat
    lam = np.asarray(lam, dtype=float)
    if weights is None:
        weights = 1.0 + lam[rows, blocks] ** 2
    return np.bincount(ids, weights * lam[rows, unwanted], minlength=len(cset))


def constraint_jacobian(
    cset: ConstraintSet, theta: np.ndarray, model: FactorModel
) -> np.ndarray:
    """Analytic Jacobian of the residuals w.r.t. the packed parameters.

    One scatter: each member adds its weight at its unwanted-factor
    loading and, when self-weighted, ``2 s n`` at its salient loading
    ``s``.  Fixed-weight rows are constant; fixed cells add nothing.  The
    scatter's index arrays depend on the set and the model's layout alone,
    so they are built once per pair (:func:`_jacobian_plan`), and a call
    computes only the values.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_parameters,):
        raise StructureError(f"parameter vector length {theta.shape} != {model.n_parameters}")
    index, values, at = _jacobian_plan(cset, model)
    if values is None:
        # Fixed loadings are zero: a position past theta's end reads the 0.0 appended there.
        padded = np.append(theta, 0.0)
        s, s_n, n = (padded[positions] for positions in at)
        values = np.concatenate([1.0 + s**2, 2.0 * s_n * n])
    jac = np.bincount(index, values, minlength=len(cset) * model.n_parameters)
    return jac.reshape(len(cset), model.n_parameters)


def _jacobian_plan(cset: ConstraintSet, model: FactorModel) -> tuple:
    """The Jacobian's scatter for one set and packed layout, kept in the set.

    Returns the flat J index of each free entry, in member order (every
    member's weight entry, then, when self-weighted, every member's salient
    entry), and the entries' values, constant with fixed weights.  Self-weighted,
    the values are None, and ``at`` holds the theta positions of ``s`` for
    the weight entries, and of ``s`` and ``n`` for the salient entries;
    ``n_parameters`` stands for a fixed loading.
    """
    width, loading_index = model.n_parameters, model.loading_index
    key = width, loading_index.shape, loading_index.tobytes()
    plan = cset._jacobian_plans.get(key)
    if plan is not None:
        return plan
    ids, rows, unwanted, blocks, weights = cset.flat
    cols = loading_index[rows, unwanted]
    at = None
    if weights is None:
        salient_cols = loading_index[rows, blocks]
        free, salient_free = cols >= 0, salient_cols >= 0
        s_at = np.where(salient_free, salient_cols, width)
        at = s_at[free], s_at[salient_free], np.where(free, cols, width)[salient_free]
        ids = np.concatenate([ids[free], ids[salient_free]])
        cols = np.concatenate([cols[free], salient_cols[salient_free]])
    else:
        free = cols >= 0
        ids, cols, weights = ids[free], cols[free], weights[free]
    plan = ids * width + cols, weights, at
    cset._jacobian_plans[key] = plan
    return plan


@dataclass(frozen=True)
class Pivots:
    """Per constraint, the member loading solved for from the others.

    ``cells`` place the pivots in the loading matrix, ``params`` in the
    packed vector; ``fixed_weights`` is None in self-weighted mode.  Every
    array is read-only.
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
    the member of largest |weight|, the first on ties; self-weights are all
    >= 1, so there the first member serves.  A constraint with no such
    member is a StructureError.
    """
    ids, rows, unwanted, blocks, fixed_weights = cset.flat
    cells = rows * model.q + unwanted
    used = cells if fixed_weights is not None else np.concatenate([cells, rows * model.q + blocks])
    uses = np.bincount(used, minlength=model.p * model.q)
    weights = np.ones(ids.size) if fixed_weights is None else fixed_weights
    params = model.loading_index[rows, unwanted]
    eligible = (weights != 0.0) & (uses[cells] == 1) & (params >= 0)
    score = np.where(eligible, np.abs(weights), -1.0)
    best = np.full(len(cset), -1.0)
    np.maximum.at(best, ids, score)
    if np.any(best < 0.0):
        r = int(np.argmax(best < 0.0))
        c = cset.constraints[r]
        raise StructureError(
            f"constraint {r} (block {c.block}, unwanted factor {c.unwanted}) has no "
            "free member loading that no other constraint uses"
        )
    # Entries are in constraint order: take each constraint's first best one.
    hits = np.flatnonzero(score == best[ids])
    chosen = hits[np.searchsorted(ids[hits], np.arange(len(cset)))]
    fixed = None if fixed_weights is None else _readonly(weights[chosen])
    cells = _readonly(rows[chosen]), _readonly(unwanted[chosen])
    return Pivots(cells, _readonly(params[chosen]), _readonly(blocks[chosen]), fixed)


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
