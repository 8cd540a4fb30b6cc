"""Factor-model data types, parameter packing, and the implied covariance map.

The central objects are :class:`LoadingPattern` (which loading cells are
salient, free secondary, or fixed zero), :class:`FactorModel` (pattern plus
factor-correlation and uniqueness specification), and the packing helpers
that map free parameters to and from a flat vector.  A pattern is two
read-only p x q masks: ``salient`` and ``free`` (the estimable cells,
salient or secondary); a cell outside ``free`` is fixed at zero.

A model is immutable, so its invariants are checked once, at construction
(memoised on the salient cells and the correlation spec, which are all
they read), and it compiles its layout once, on first use: the loading
cells and correlation pairs of the packed vector as read-only index
arrays.  A :class:`StackedLayout` holds the arrays of same-sized models,
found for the whole stack in one pass; its ``pack`` (of parameters or of
the gradient) and ``unpack`` are single fancy-indexing operations, on the
whole stack or, through one row's layout (``take(r)``), on one vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidPopulationError, NumericalError, StructureError

# Every uniqueness stays above this floor (see estimation's log transform).
PSI_FLOOR = 1e-3


def _readonly(a: np.ndarray, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class LoadingPattern:
    """p x q masks of the salient cells and of the estimable (``free``) cells.

    Rows are observed variables, columns are factors.  Every salient cell
    is free; a free cell that is not salient is a free secondary loading,
    and a cell outside ``free`` is fixed at zero.  Construction checks only
    the shapes and that rule; :func:`validate_model` reports the invariants.
    Patterns are equal when both masks are.
    """

    salient: np.ndarray  # p x q bool
    free: np.ndarray  # p x q bool

    def __post_init__(self):
        salient, free = _readonly(self.salient, bool), _readonly(self.free, bool)
        if salient.ndim != 2 or free.shape != salient.shape:
            raise StructureError(
                f"pattern masks must be 2-D and of one shape, got {salient.shape} and {free.shape}"
            )
        stray = np.argwhere(salient & ~free).tolist()
        if stray:
            raise StructureError(f"salient cell ({stray[0][0]}, {stray[0][1]}) is not free")
        object.__setattr__(self, "salient", salient)
        object.__setattr__(self, "free", free)

    def __eq__(self, other):
        if not isinstance(other, LoadingPattern):
            return NotImplemented
        return np.array_equal(self.salient, other.salient) and np.array_equal(self.free, other.free)

    def __hash__(self):
        return hash((self.salient.shape, self.salient.tobytes(), self.free.tobytes()))

    @property
    def p(self) -> int:
        return self.salient.shape[0]

    @property
    def q(self) -> int:
        return self.salient.shape[1]

    @classmethod
    def from_salient_blocks(
        cls, blocks: Sequence[Sequence[int]], p: int, nonsalient: str = "zero"
    ) -> "LoadingPattern":
        """Build a pattern from per-factor lists of salient variable indices.

        ``nonsalient`` is ``"zero"`` for an independent-clusters pattern or
        ``"free"`` to leave every secondary loading estimable.
        """
        if nonsalient not in ("zero", "free"):
            raise StructureError(f"nonsalient must be 'zero' or 'free', got {nonsalient!r}")
        salient = np.zeros((p, len(blocks)), dtype=bool)
        for j, members in enumerate(blocks):
            for i in members:
                if not 0 <= i < p:
                    raise StructureError(f"variable index {i} out of range for p={p}")
                salient[i, j] = True
        return cls(salient, salient if nonsalient == "zero" else np.ones_like(salient))

    def salient_factor(self, var: int) -> int:
        """Index of the variable's unique salient factor."""
        hits = np.flatnonzero(self.salient[var])
        if hits.size != 1:
            raise StructureError(f"variable {var} has {hits.size} salient cells, expected 1")
        return int(hits[0])

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Per factor, the variables whose salient loading sits on it."""
        for i in range(self.p):
            self.salient_factor(i)  # raises unless the variable has one salient cell
        return tuple(tuple(np.flatnonzero(column).tolist()) for column in self.salient.T)

    def with_nonsalient_free(self) -> "LoadingPattern":
        """Copy of the pattern with every cell estimable."""
        return LoadingPattern(self.salient, np.ones_like(self.free))

    def with_nonsalient_zero(self) -> "LoadingPattern":
        """Copy of the pattern with every secondary cell fixed to zero."""
        return LoadingPattern(self.salient, self.salient)

    def with_cells_freed(self, freed: Sequence[tuple[int, int]]) -> "LoadingPattern":
        """Copy with the given (variable, factor) zero cells made estimable."""
        free = np.array(self.free)
        for (i, j) in freed:
            if not (0 <= i < self.p and 0 <= j < self.q):
                raise StructureError(f"cell ({i}, {j}) is outside the {self.p} x {self.q} pattern")
            if free[i, j]:
                raise StructureError(f"cell ({i}, {j}) is not fixed to zero")
            free[i, j] = True
        return LoadingPattern(self.salient, free)


PHI_FREE = "free"


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Estimable model: loading pattern, factor correlations, uniquenesses.

    ``phi_fixed`` is a q x q array with NaN marking freely estimated
    inter-factor correlations; the diagonal is always 1 (unit factor
    variances).  Uniquenesses are always free, bounded below by
    :data:`PSI_FLOOR`.  ``problems`` holds every invariant violation
    (:func:`validate_model`), found once, at construction.
    """

    pattern: LoadingPattern
    phi_fixed: np.ndarray  # q x q, NaN = free entry, diagonal 1.0

    def __post_init__(self):
        phi = np.asarray(self.phi_fixed, dtype=float)
        if phi.shape != (self.pattern.q, self.pattern.q):
            raise StructureError(
                f"phi spec shape {phi.shape} does not match q={self.pattern.q}"
            )
        object.__setattr__(self, "phi_fixed", _readonly(phi))
        # Immutable, so its invariants are checked once, here.
        object.__setattr__(self, "problems", tuple(validate_model(self)))

    @classmethod
    def free_phi(cls, pattern: LoadingPattern):
        """Model with all inter-factor correlations freely estimated."""
        phi = np.full((pattern.q, pattern.q), np.nan)
        np.fill_diagonal(phi, 1.0)
        return cls(pattern, phi)

    @classmethod
    def fixed_phi(cls, pattern: LoadingPattern, value: float | np.ndarray):
        """Model with all inter-factor correlations fixed.

        ``value`` is a scalar applied to every factor pair, or a full q x q
        correlation matrix.
        """
        q = pattern.q
        if np.isscalar(value):
            phi = np.full((q, q), float(value))
        else:
            phi = np.asarray(value, dtype=float).copy()
        np.fill_diagonal(phi, 1.0)
        return cls(pattern, phi)

    @property
    def p(self) -> int:
        return self.pattern.p

    @property
    def q(self) -> int:
        return self.pattern.q

    @cached_property
    def loading_index(self) -> np.ndarray:
        """p x q positions of the loadings in the packed vector, -1 where fixed."""
        cells = self.layout.loading_rows[0], self.layout.loading_cols[0]
        index = np.full((self.p, self.q), -1)
        index[cells] = np.arange(cells[0].size)
        return _readonly(index)

    @cached_property
    def n_parameters(self) -> int:
        """Free loadings + free correlations + p uniquenesses."""
        return self.layout.psi_offset + self.p

    @cached_property
    def layout(self) -> "StackedLayout":
        """The packed layout as a stack of one model."""
        return StackedLayout(*(_readonly(a) for a in StackedLayout.of([self])))


def validate_model(model: FactorModel) -> list[str]:
    """Check all model invariants; returns the violation list (empty = ok).

    They read only the salient cells and the correlation spec, so the
    check is memoised on those: freeing a zero cell changes neither.
    """
    salient = model.pattern.salient
    return list(_violations(salient.shape, salient.tobytes(), model.phi_fixed.tobytes()))


@lru_cache(maxsize=256)
def _violations(shape: tuple[int, int], salient: bytes, phi_fixed: bytes) -> tuple[str, ...]:
    """:func:`validate_model`'s findings, from its inputs as bytes."""
    problems = []
    p, q = shape
    if not p >= q >= 2:
        problems.append(f"requires p >= q >= 2, got p={p}, q={q}")
    mask = np.frombuffer(salient, dtype=bool).reshape(shape)
    for i, n_sal in enumerate(mask.sum(axis=1)):
        if n_sal == 0:
            problems.append(f"variable {i} has no salient factor")
        elif n_sal > 1:
            problems.append(f"variable {i} has multiple salient factors")
    for j in np.flatnonzero(~mask.any(axis=0)):
        problems.append(f"factor {j} has no salient variable (empty factor)")
    phi = np.frombuffer(phi_fixed).reshape(q, q)
    fixed = ~np.isnan(phi)
    if not np.array_equal(fixed, fixed.T) or not np.allclose(
        np.where(fixed, phi, 0.0), np.where(fixed, phi, 0.0).T
    ):
        problems.append("phi spec is not symmetric")
    if not np.all(np.diag(phi) == 1.0):
        problems.append("phi diagonal must be fixed to 1")
    off = phi[~np.eye(q, dtype=bool)]
    bad = off[~np.isnan(off)]
    if bad.size and (np.any(bad < -1.0) or np.any(bad > 1.0)):
        problems.append("fixed phi entries must lie in [-1, 1]")
    return tuple(problems)


def implied_covariance(lam: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Model-implied covariance: loadings @ phi @ loadings' + diag(psi).

    One Sigma per slice of stacked (..., p, q) loadings, (..., q, q) phi and
    (..., p) psi.  Symmetric by construction; raises :class:`StructureError`
    on shape mismatch.
    """
    lam = np.asarray(lam, dtype=float)
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if lam.ndim < 2:
        raise StructureError("loading matrix must be 2-D")
    *stack, p, q = lam.shape
    if phi.shape != (*stack, q, q):
        raise StructureError(f"phi shape {phi.shape} does not match q={q}")
    if psi.shape != (*stack, p):
        raise StructureError(f"psi shape {psi.shape} does not match p={p}")
    common = lam @ phi @ np.swapaxes(lam, -1, -2)
    sigma = (common + np.swapaxes(common, -1, -2)) / 2.0
    diag = np.arange(p)
    sigma[..., diag, diag] += psi
    return sigma


def standardizing_uniqueness(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Uniquenesses that standardize the model to unit total variances.

    Returns 1 - communality per variable; every communality must be < 1.
    """
    lam = np.asarray(lam, dtype=float)
    phi = np.asarray(phi, dtype=float)
    communality = np.einsum("ij,jk,ik->i", lam, phi, lam)
    if np.any(communality >= 1.0):
        bad = np.nonzero(communality >= 1.0)[0]
        raise InvalidPopulationError(
            f"communality >= 1 for variable(s) {bad.tolist()}; "
            "population cannot be standardized"
        )
    return 1.0 - communality


def pack(model: FactorModel, lam: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Flatten free parameters: loadings (row-major), phi (lower-tri), psi."""
    lam = np.asarray(lam, dtype=float)
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if lam.shape != (model.p, model.q):
        raise StructureError(f"lambda shape {lam.shape} does not match pattern")
    if psi.shape != (model.p,):
        raise StructureError(f"psi shape {psi.shape} does not match p={model.p}")
    return model.layout.pack(lam, phi, psi)[0]


def unpack(model: FactorModel, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack`; fixed cells are filled from the model spec."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_parameters,):
        raise StructureError(
            f"parameter vector length {theta.shape} != {model.n_parameters}"
        )
    lam, phi, psi = model.layout.unpack(theta[None])
    return lam[0], phi[0], psi[0]


class StackedLayout(NamedTuple):
    """The packed layouts of a stack of same-sized models, one row per model.

    Each model's free loading cells (row-major) and free correlation pairs
    (row > column), in packed order, and its correlation matrix with the
    free entries at zero.
    """

    loading_rows: np.ndarray
    loading_cols: np.ndarray
    phi_rows: np.ndarray
    phi_cols: np.ndarray
    phi_base: np.ndarray

    @classmethod
    def of(cls, models: Sequence[FactorModel]) -> "StackedLayout":
        """The layout of same-sized models, from their stacked cells and correlation specs."""
        if len({(model.p, model.q) for model in models}) > 1:
            raise StructureError("models stacked together must have one size")
        k, q = len(models), models[0].q
        free = np.array([model.pattern.free for model in models])
        phi = np.array([model.phi_fixed for model in models])
        pairs = np.isnan(phi) & np.tri(q, k=-1, dtype=bool)
        counts = free.sum(axis=(1, 2)), pairs.sum(axis=(1, 2))
        if any(np.ptp(count) for count in counts):
            raise StructureError("models stacked together must have one size")
        _, loading_rows, loading_cols = (a.reshape(k, counts[0][0]) for a in np.nonzero(free))
        _, phi_rows, phi_cols = (a.reshape(k, counts[1][0]) for a in np.nonzero(pairs))
        return cls(loading_rows, loading_cols, phi_rows, phi_cols, np.nan_to_num(phi, nan=0.0))

    @property
    def psi_offset(self) -> int:
        """Free loadings plus free correlations: where the uniquenesses start."""
        return self.loading_rows.shape[-1] + self.phi_rows.shape[-1]

    def take(self, rows) -> "StackedLayout":
        """The layout of the given rows; of one model's vectors for an int row.

        A one-model layout (``take(r)``) packs a p x q lambda, a q x q phi and
        a p psi into one vector and unpacks one vector into them.
        """
        return StackedLayout(*(a[rows] for a in self))

    def union(self, p: int) -> tuple[tuple, tuple, np.ndarray]:
        """The union of the rows' free parameters, and each row's place in it.

        Returns the union's loading cells and correlation pairs, in packed
        order, with p uniquenesses after them, and per row the union
        positions of its own packed parameters.
        """
        q = self.phi_base.shape[1]
        free_cells = np.zeros((p, q), dtype=bool)
        free_cells[self.loading_rows, self.loading_cols] = True
        free_pairs = np.zeros((q, q), dtype=bool)
        free_pairs[self.phi_rows, self.phi_cols] = True
        cells, pairs = np.nonzero(free_cells), np.nonzero(free_pairs)
        # A free cell's union position counts the free cells before it, row-major.
        position = np.cumsum(free_cells).reshape(p, q) - 1
        pair_position = cells[0].size + np.cumsum(free_pairs).reshape(q, q) - 1
        psi_position = cells[0].size + pairs[0].size + np.arange(p)
        return cells, pairs, self.pack(position, pair_position, psi_position)

    def _stack(self) -> tuple:
        """The row index that leads a stack's fancy index; none for one model's layout."""
        rows = self.loading_rows
        return (np.arange(len(rows))[:, None],) if rows.ndim == 2 else ()

    def pack(self, lam: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Packed rows from stacks of lambda, phi and psi, as :func:`pack` row by row.

        A single matrix or vector in place of a stack is every row's; a
        one-model layout packs single ones into one vector.
        """
        # Packs every gradient, so only a single psi is broadcast (np.broadcast_to is slow).
        rows = self.loading_rows.shape[:-1]
        cells = self.loading_rows, self.loading_cols
        pairs = self.phi_rows, self.phi_cols
        stack = self._stack() if lam.ndim == 3 or phi.ndim == 3 else ()
        return np.concatenate([
            lam[(*stack, *cells)] if lam.ndim == 3 else lam[cells],
            phi[(*stack, *pairs)] if phi.ndim == 3 else phi[pairs],
            psi if psi.ndim > len(rows) else np.broadcast_to(psi, (*rows, psi.size)),
        ], axis=-1)

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacks of lambda, phi and psi from packed rows, as :func:`unpack` row by row.

        A one-model layout unpacks one vector into single ones.
        """
        *rows, n_loadings = self.loading_rows.shape
        psi_offset = self.psi_offset
        q = self.phi_base.shape[-1]
        stack = self._stack()
        lam = np.zeros((*rows, theta.shape[-1] - psi_offset, q))
        lam[(*stack, self.loading_rows, self.loading_cols)] = theta[..., :n_loadings]
        phi = self.phi_base.copy()
        phi[(*stack, self.phi_rows, self.phi_cols)] = phi[(*stack, self.phi_cols, self.phi_rows)] = (
            theta[..., n_loadings:psi_offset]
        )
        psi = theta[..., psi_offset:].copy()
        return lam, phi, psi


@dataclass(frozen=True)
class Solution:
    """Estimation result: parameter estimates plus convergence diagnostics."""

    lambda_hat: np.ndarray
    phi_hat: np.ndarray
    psi_hat: np.ndarray
    f_min: float
    n_iterations: int
    converged: bool
    constraint_residuals: np.ndarray
    gradient_norm: float  # max |reduced gradient| in the solver's coordinates

    def __post_init__(self):
        for name in ("lambda_hat", "phi_hat", "psi_hat", "constraint_residuals"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def max_constraint_residual(self) -> float:
        if self.constraint_residuals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.constraint_residuals)))


@dataclass(frozen=True)
class PopulationModel:
    """Exact population parameters and the implied correlation matrix."""

    lam: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        sigma = implied_covariance(lam, phi, psi)
        if np.max(np.abs(np.diag(sigma) - 1.0)) >= 1e-12:
            raise InvalidPopulationError("population sigma diagonal is not 1")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise NumericalError("population sigma is not positive definite") from None
        object.__setattr__(self, "lam", _readonly(lam))
        object.__setattr__(self, "phi", _readonly(phi))
        object.__setattr__(self, "psi", _readonly(psi))
        object.__setattr__(self, "sigma", _readonly(sigma))

    @classmethod
    def from_loadings(cls, lam: np.ndarray, phi: np.ndarray) -> "PopulationModel":
        """Standardize a loading matrix into a full population model."""
        psi = standardizing_uniqueness(lam, phi)
        return cls(lam, phi, psi)
