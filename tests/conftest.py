from pathlib import Path

import numpy as np
import pytest

from bufcfa.estimation import SampleMoments
from bufcfa.simulation import balanced_population, block_pattern

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def population():
    """18-variable, 3-factor balanced population: salient .60, secondary
    +/-.15, inter-factor correlations .30."""
    return balanced_population(3, 6, 0.6, 0.15, 0.3)


@pytest.fixture(scope="session")
def population_moments(population):
    return SampleMoments(population.sigma, n=None)


@pytest.fixture(scope="session")
def icm_pattern():
    return block_pattern(3, 6, "zero")


@pytest.fixture(scope="session")
def free_pattern():
    return block_pattern(3, 6, "free")


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def improper_icm_corr():
    """12 variables in 3 blocks of 4: r .30 within blocks, .40 between blocks
    0 and 1, .10 elsewhere.  The ICM fit converges with phi_01 = .40 / .30."""
    blocks = np.repeat(np.arange(3), 4)
    R = np.where(blocks[:, None] == blocks[None, :], 0.30, 0.10)
    R[np.ix_(blocks == 0, blocks == 1)] = R[np.ix_(blocks == 1, blocks == 0)] = 0.40
    np.fill_diagonal(R, 1.0)
    return R
