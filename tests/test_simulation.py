import dataclasses

import numpy as np
import pytest

from bufcfa.errors import InvalidPopulationError, StructureError
from bufcfa.estimation import FitOptions
from bufcfa.simulation import (
    GridSpec,
    align_to_population,
    balanced_population,
    block_pattern,
    draw_sample,
    rmsd,
    run_grid,
)

# Expected loading layout of the 18x3 balanced example: salient .60,
# secondary +/-.15, half-blocks with opposite signs per factor pair.
BALANCED_LAYOUT = np.array(
    [
        [0.60, 0.15, -0.15],
        [0.60, 0.15, -0.15],
        [0.60, 0.15, -0.15],
        [0.60, -0.15, 0.15],
        [0.60, -0.15, 0.15],
        [0.60, -0.15, 0.15],
        [-0.15, 0.60, 0.15],
        [-0.15, 0.60, 0.15],
        [-0.15, 0.60, 0.15],
        [0.15, 0.60, -0.15],
        [0.15, 0.60, -0.15],
        [0.15, 0.60, -0.15],
        [-0.15, 0.15, 0.60],
        [-0.15, 0.15, 0.60],
        [-0.15, 0.15, 0.60],
        [0.15, -0.15, 0.60],
        [0.15, -0.15, 0.60],
        [0.15, -0.15, 0.60],
    ]
)


class TestBalancedPopulation:
    def test_reproduces_expected_layout(self, population):
        assert np.allclose(population.lam, BALANCED_LAYOUT, atol=1e-15)
        assert np.allclose(
            population.phi, np.array([[1, 0.3, 0.3], [0.3, 1, 0.3], [0.3, 0.3, 1]])
        )

    def test_zero_secondary_gives_icm(self):
        pop = balanced_population(3, 6, 0.6, 0.0, 0.3)
        cross = pop.sigma[0, 6]  # variables in different blocks
        assert cross == pytest.approx(0.6 * 0.3 * 0.6, abs=1e-14)
        assert np.all(pop.lam[np.abs(pop.lam) != 0.6] == 0.0)

    def test_large_loadings_still_standardizable(self):
        pop = balanced_population(3, 6, 0.8, 0.2, 0.3)
        communality = 1.0 - pop.psi
        assert np.all(communality < 1.0)

    def test_odd_block_size_rejected_when_secondary_nonzero(self):
        with pytest.raises(StructureError):
            balanced_population(3, 5, 0.6, 0.1, 0.0)
        balanced_population(3, 5, 0.6, 0.0, 0.0)  # fine when secondaries vanish

    def test_invalid_communality_rejected(self):
        with pytest.raises(InvalidPopulationError):
            balanced_population(3, 6, 0.95, 0.3, 0.3)


class TestDrawSample:
    def test_same_seed_bit_identical(self, population):
        d1, m1 = draw_sample(population.sigma, 200, 99)
        d2, m2 = draw_sample(population.sigma, 200, 99)
        assert np.array_equal(d1, d2)
        assert np.array_equal(m1.S, m2.S)

    def test_different_seed_differs(self, population):
        d1, _ = draw_sample(population.sigma, 200, 1)
        d2, _ = draw_sample(population.sigma, 200, 2)
        assert not np.array_equal(d1, d2)

    def test_large_sample_approaches_population(self, population):
        _, moments = draw_sample(population.sigma, 100_000, 12345)
        assert np.max(np.abs(moments.S - population.sigma)) < 0.02

    def test_identity_population_noise_scale(self):
        n = 2500
        _, moments = draw_sample(np.eye(8), n, 7)
        off = np.abs(moments.S[np.tril_indices(8, -1)])
        # mean |r| of independent normals is ~ sqrt(2/pi)/sqrt(n)
        expected = np.sqrt(2 / np.pi) / np.sqrt(n)
        assert 0.4 * expected < off.mean() < 2.5 * expected

    def test_requires_n_above_p(self):
        with pytest.raises(StructureError):
            draw_sample(np.eye(10), 10, 0)

    def test_rejects_non_pd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(Exception):
            draw_sample(bad, 100, 0)


class TestRmsd:
    def test_zero_at_equality(self):
        a = np.arange(6.0).reshape(3, 2)
        assert rmsd(a, a, np.ones_like(a, dtype=bool)) == 0.0

    def test_uniform_offset(self):
        a = np.zeros((3, 2))
        assert rmsd(a + 0.1, a, np.ones_like(a, dtype=bool)) == pytest.approx(0.1)

    def test_single_cell(self):
        a = np.zeros((2, 2))
        b = a.copy()
        b[0, 1] = 0.05
        mask = np.zeros_like(a, dtype=bool)
        mask[0, 1] = True
        assert rmsd(b, a, mask) == pytest.approx(0.05)

    def test_empty_mask_rejected(self):
        a = np.zeros((2, 2))
        with pytest.raises(StructureError):
            rmsd(a, a, np.zeros_like(a, dtype=bool))


class TestAlignment:
    def test_recovers_permutation_and_signs(self, population):
        perm = [2, 0, 1]
        lam = population.lam[:, perm].copy()
        lam[:, 0] *= -1
        phi = population.phi[np.ix_(perm, perm)].copy()
        phi[0, :] *= -1
        phi[:, 0] *= -1
        np.fill_diagonal(phi, 1.0)
        lam_a, phi_a = align_to_population(lam, phi, population.lam)
        assert np.allclose(lam_a, population.lam, atol=1e-12)
        assert np.allclose(phi_a, population.phi, atol=1e-12)


class TestGrid:
    def test_invalid_grid_rejected(self):
        with pytest.raises(InvalidPopulationError):
            GridSpec((0.95,), (0.3,), (0.3,), (300,))
        with pytest.raises(StructureError):
            GridSpec((0.6,), (0.1,), (0.0,), (300,), per_factor=5)

    def test_nonpositive_replications_rejected(self):
        for reps in (0, -1):
            with pytest.raises(StructureError, match="replications"):
                GridSpec((0.6,), (0.0,), (0.0,), (300,), replications=reps)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"per_factor": 0}, "per_factor"),
            ({"per_factor": -2}, "per_factor"),
            ({"factors": 1}, "factors"),
            ({"sample_sizes": (18,)}, "exceed p=18"),
            ({"sample_sizes": (300, 12), "factors": 2}, "exceed p=12"),
        ],
    )
    def test_degenerate_design_rejected(self, kwargs, message):
        args = {"salient_sizes": (0.6,), "nonsalient_sizes": (0.0,), "phi_values": (0.0,)}
        args["sample_sizes"] = (300,)
        with pytest.raises(StructureError, match=message):
            GridSpec(**{**args, **kwargs})

    def test_colliding_seed_keys_rejected(self):
        # Seeds key each design value to 0.001, so these two would share samples.
        with pytest.raises(StructureError, match="nonsalient_sizes"):
            GridSpec((0.6,), (0.1001, 0.1004), (0.0,), (300,))
        with pytest.raises(StructureError, match="phi_values"):
            GridSpec((0.6,), (0.0,), (0.3, 0.3004), (300,))
        GridSpec((0.6,), (0.1, 0.101), (0.0,), (300,))

    def test_replication_streams_are_pinned(self):
        from bufcfa.simulation import _replication_seed

        seed = _replication_seed(20240501, (0.6, 0.1, 0.3, 900), 7)
        assert seed.generate_state(2).tolist() == [1845876177, 638730206]

    def test_cells_enumeration(self):
        grid = GridSpec((0.6,), (0.0, 0.2), (0.0,), (300, 900), replications=2)
        assert len(grid.cells) == 4

    def test_deterministic_replay(self):
        grid = GridSpec((0.6,), (0.0, 0.2), (0.0,), (300,), replications=3, master_seed=11)
        opts = FitOptions()
        s1, r1 = run_grid(grid, opts)
        s2, r2 = run_grid(grid, opts)
        assert [dataclasses.asdict(a) for a in s1] == [dataclasses.asdict(b) for b in s2]
        assert [dataclasses.asdict(a) for a in r1] == [dataclasses.asdict(b) for b in r2]

    def test_records_and_convergence_accounting(self):
        grid = GridSpec((0.6,), (0.1,), (0.3,), (300,), replications=3, master_seed=5)
        summaries, records = run_grid(grid, FitOptions())
        assert len(records) == 3
        s = summaries[0]
        assert s.replications == 3
        assert s.icm_converged <= 3 and s.buffered_converged <= 3
        converged = [r for r in records if r.buffered_converged]
        assert all(r.buffered_loading_rmsd is not None for r in converged)
        assert all(r.buffered_salient_rmsd is not None for r in converged)
        assert all(
            r.buffered_loading_rmsd is None for r in records if not r.buffered_converged
        )

    def test_cell_results_independent_of_execution_order(self):
        from bufcfa.simulation import run_cell, summarize_cell

        grid = GridSpec((0.6,), (0.0, 0.2), (0.0,), (300,), replications=3, master_seed=11)
        summaries, _ = run_grid(grid, FitOptions())
        reversed_summaries = [
            summarize_cell(run_cell(grid, cell, FitOptions()))
            for cell in reversed(grid.cells)
        ]
        assert [dataclasses.asdict(s) for s in summaries] == [
            dataclasses.asdict(s) for s in reversed(reversed_summaries)
        ]
