"""Seeded benchmark inputs, written with numpy alone.

Every input is a function of the workload seed: the same seed gives the
same files byte for byte.  The program under test only ever sees these
files (plus the model documents shipped in ``data/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

P, Q, PER_FACTOR = 18, 3, 6
NAMES = tuple(f"x{i + 1}" for i in range(P))
BLOCKS = tuple(tuple(range(b * PER_FACTOR, (b + 1) * PER_FACTOR)) for b in range(Q))

# Stream tags keep the three workloads' draws apart for one seed.
FIT_TAG, SEARCH_TAG, GRID_TAG = 1, 2, 3


@dataclass(frozen=True)
class Sample:
    """One generated data file and the correlation matrix the program sees."""

    path: Path
    S: np.ndarray
    n: int


def read_population(path: Path) -> np.ndarray:
    """The matrix rows of a correlation file (comments and ``n:`` skipped)."""
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.lower().startswith("n:"):
            continue
        rows.append([float(x) for x in line.replace(",", " ").split()])
    return np.array(rows)


def balanced_sigma(salient: float, secondary: float, phi: float) -> np.ndarray:
    """Standardized block population with +/- balanced secondary loadings.

    Within each block the first half loads ``+secondary`` and the second
    half ``-secondary`` on every other factor, so each weighted block sum
    is zero.
    """
    lam = np.zeros((P, Q))
    for b, rows in enumerate(BLOCKS):
        for pos, i in enumerate(rows):
            lam[i, :] = secondary if pos < PER_FACTOR // 2 else -secondary
            lam[i, b] = salient
    Phi = np.full((Q, Q), phi)
    np.fill_diagonal(Phi, 1.0)
    common = lam @ Phi @ lam.T
    return common + np.diag(1.0 - np.diag(common))


def _correlation(data: np.ndarray) -> np.ndarray:
    R = np.corrcoef(data, rowvar=False)
    return (R + R.T) / 2.0


def write_samples(
    workdir: Path, sigma: np.ndarray, n: int, count: int, seed: int, tag: int
) -> list[Sample]:
    """``count`` normal samples of size n; even ones as ``.dat``, odd as ``.raw``.

    A ``.dat`` file holds the sample correlation matrix under an ``n:``
    header; a ``.raw`` file holds the observations under a header of
    variable names, and the program computes the correlations itself.
    """
    L = np.linalg.cholesky(sigma)
    samples = []
    for k in range(count):
        rng = np.random.default_rng([seed, tag, k])
        data = rng.standard_normal((n, P)) @ L.T
        R = _correlation(data)
        if k % 2 == 0:
            path = workdir / f"sample{k:02d}.dat"
            lines = [f"n: {n}"] + [" ".join(repr(float(x)) for x in row) for row in R]
        else:
            path = workdir / f"sample{k:02d}.raw"
            lines = [" ".join(NAMES)] + [" ".join(repr(float(x)) for x in row) for row in data]
        path.write_text("\n".join(lines) + "\n")
        samples.append(Sample(path, R, n))
    return samples


@dataclass(frozen=True)
class GridCell:
    """One cell of a one-cell grid document."""

    path: Path
    secondary: float
    replications: int


def grid_text(secondary: float, phi: float, n: int, replications: int, master_seed: int) -> str:
    return (
        "salient_sizes: 0.6\n"
        f"nonsalient_sizes: {secondary!r}\n"
        f"phi_values: {phi!r}\n"
        f"sample_sizes: {n}\n"
        "factors: 3\n"
        "per_factor: 6\n"
        f"replications: {replications}\n"
        f"master_seed: {master_seed}\n"
    )


def write_grid_cells(
    workdir: Path, design, replications: int, variants: int, seed: int
) -> list[GridCell]:
    """One document per (variant, design cell); each variant has its own master seed."""
    cells = []
    for v in range(variants):
        master = int(np.random.default_rng([seed, GRID_TAG, v]).integers(1, 2**31 - 1))
        for k, (secondary, phi, n) in enumerate(design):
            path = workdir / f"cell-{v}-{k:02d}.grid"
            path.write_text(grid_text(secondary, phi, n, replications, master))
            cells.append(GridCell(path, secondary, replications))
    return cells
