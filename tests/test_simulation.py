import dataclasses

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from bufcfa import estimation
from bufcfa.errors import InvalidPopulationError, StructureError
from bufcfa.io import write_result
from bufcfa.procedures import icm, one_step
from bufcfa.simulation import (
    GridSpec,
    _assignment,
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

    def test_memoised_on_exact_arguments(self):
        pop = balanced_population(3, 6, 0.6, 0.0, 0.0)
        assert balanced_population(3, 6, 0.6, 0.0, 0.0) is pop
        signed = balanced_population(3, 6, 0.6, -0.0, -0.0)
        assert signed is not pop
        assert np.signbit(signed.phi[0, 1]) and not np.signbit(pop.phi[0, 1])
        assert balanced_population(3, 6, 0.6, 0.2, 0.0) is not pop


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

    @pytest.mark.parametrize("procedure", [icm, one_step])
    def test_scrambled_estimates_align_bit_for_bit(self, procedure, population, icm_pattern):
        """Reordering by [2, 0, 1] and negating a factor is exact, so its alignment is too."""
        perm = [2, 0, 1]
        for seed in range(3):
            _, moments = draw_sample(population.sigma, 300, np.random.SeedSequence([777, seed]))
            solution = procedure(icm_pattern, "free", moments).final.solution
            lam = solution.lambda_hat[:, perm].copy()
            phi = solution.phi_hat[np.ix_(perm, perm)].copy()
            lam[:, 0] *= -1.0
            phi[0, :] *= -1.0
            phi[:, 0] *= -1.0
            phi[0, 0] = 1.0
            expected = align_to_population(solution.lambda_hat, solution.phi_hat, population.lam)
            got = align_to_population(lam, phi, population.lam)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()


class TestAssignment:
    """``_assignment`` (the row of each column) against scipy's ``linear_sum_assignment``."""

    @pytest.mark.parametrize("q", range(1, 9))
    def test_continuous_costs_match_scipy(self, q):
        rng = np.random.default_rng(q)
        for cost in rng.standard_normal((2000, q, q)):
            assert _assignment(cost) == np.argsort(linear_sum_assignment(cost)[1]).tolist()

    @pytest.mark.parametrize("q", range(1, 9))
    def test_tied_costs_reach_scipy_total(self, q):
        rng = np.random.default_rng(100 + q)
        index = np.arange(q)
        for cost in np.round(rng.uniform(-1.0, 1.0, (2000, q, q)), 1):
            ours = cost[_assignment(cost), index].sum()
            theirs = cost[index, linear_sum_assignment(cost)[1]].sum()
            assert ours == pytest.approx(theirs, abs=1e-12)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_uniform_costs_give_identity(self, q):
        for value in (0.0, 1.0, -0.3):
            assert _assignment(np.full((q, q), value)) == list(range(q))
        assert _assignment(-np.eye(q)) == list(range(q))


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
            ({"salient_sizes": (float("nan"),)}, "salient_sizes"),
            ({"nonsalient_sizes": (0.0, float("inf"))}, "nonsalient_sizes"),
            ({"phi_values": (1e308,)}, "phi_values"),
            ({"phi_values": ()}, "phi_values"),
            ({"master_seed": -1}, "master_seed"),
            ({"salient_sizes": (0.6, 0.6)}, "salient_sizes"),
            ({"sample_sizes": (300, 900, 300)}, "sample_sizes"),
            ({"sample_sizes": ()}, "sample_sizes"),
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
        s1, r1 = run_grid(grid)
        s2, r2 = run_grid(grid)
        assert [dataclasses.asdict(a) for a in s1] == [dataclasses.asdict(b) for b in s2]
        assert [dataclasses.asdict(a) for a in r1] == [dataclasses.asdict(b) for b in r2]

    def test_records_and_convergence_accounting(self):
        grid = GridSpec((0.6,), (0.1,), (0.3,), (300,), replications=3, master_seed=5)
        summaries, records = run_grid(grid)
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

    def test_cold_start_memo_leaves_the_rows_unchanged(self, tmp_path, monkeypatch):
        # Both cells fit the same two models: two misses in the first run,
        # every other fit a hit.  The rows are written from a cleared memo,
        # then from the memo that run left warm.
        grid = GridSpec((0.6,), (0.0, 0.2), (0.0,), (300,), replications=3, master_seed=11)
        memo = {}
        monkeypatch.setattr(estimation, "_cold_starts", memo)
        write_result(run_grid(grid), tmp_path / "cleared.json")
        assert len(memo) == 2
        write_result(run_grid(grid), tmp_path / "warm.json")
        assert len(memo) == 2
        for suffix in (".json", ".cells.csv", ".reps.csv"):
            cleared = (tmp_path / "cleared.json").with_suffix(suffix).read_bytes()
            assert cleared == (tmp_path / "warm.json").with_suffix(suffix).read_bytes(), suffix

    def test_each_population_is_built_once(self, monkeypatch):
        # Validating the grid builds both cells' populations, and running
        # it fits from those same objects.
        from bufcfa import simulation

        built, sigmas = [], []
        from_loadings, draw = simulation.PopulationModel.from_loadings, simulation.draw_sample

        def record(lam, phi):
            built.append(from_loadings(lam, phi))
            return built[-1]

        def record_draw(sigma, n, seed):
            sigmas.append(sigma)
            return draw(sigma, n, seed)

        monkeypatch.setattr(simulation.PopulationModel, "from_loadings", staticmethod(record))
        monkeypatch.setattr(simulation, "draw_sample", record_draw)
        simulation._balanced_population.cache_clear()
        grid = GridSpec((0.6,), (0.0, 0.2), (0.0,), (300,), replications=2, master_seed=11)
        assert len(built) == 2
        run_grid(grid)
        assert len(built) == 2
        assert [id(sigma) for sigma in sigmas] == [id(pop.sigma) for pop in built for _ in range(2)]

    def test_cell_results_independent_of_execution_order(self):
        from bufcfa.simulation import run_cell, summarize_cell

        grid = GridSpec((0.6,), (0.0, 0.2), (0.0,), (300,), replications=3, master_seed=11)
        summaries, _ = run_grid(grid)
        reversed_summaries = [
            summarize_cell(run_cell(grid, cell))
            for cell in reversed(grid.cells)
        ]
        assert [dataclasses.asdict(s) for s in summaries] == [
            dataclasses.asdict(s) for s in reversed(reversed_summaries)
        ]
