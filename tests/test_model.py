import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufcfa.errors import InvalidPopulationError, StructureError
from bufcfa.model import (
    FactorModel,
    LoadingPattern,
    PopulationModel,
    implied_covariance,
    pack,
    standardizing_uniqueness,
    unpack,
    validate_model,
)
from bufcfa.simulation import block_pattern

PHI3 = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])


def table2_row():
    return np.array([0.6, 0.15, -0.15])


class TestImpliedCovariance:
    def test_one_factor_arithmetic(self):
        sigma = implied_covariance(
            np.array([[0.6], [0.6]]), np.array([[1.0]]), np.array([0.64, 0.64])
        )
        assert sigma[0, 1] == pytest.approx(0.36)
        assert sigma[0, 0] == pytest.approx(1.0)
        assert sigma[1, 1] == pytest.approx(1.0)

    def test_table2_rows_match_direct_multiplication(self):
        # oracle: scalar triple product written out elementwise
        lam = np.vstack([table2_row(), table2_row()])
        expected = sum(
            lam[0, a] * PHI3[a, b] * lam[1, b] for a in range(3) for b in range(3)
        )
        assert expected == pytest.approx(0.3915, abs=1e-12)
        psi = np.array([1 - expected, 1 - expected])
        sigma = implied_covariance(lam, PHI3, psi)
        assert sigma[0, 1] == pytest.approx(expected, abs=1e-14)

    def test_standardizing_gives_unit_diagonal(self, population):
        sigma = implied_covariance(population.lam, population.phi, population.psi)
        assert np.max(np.abs(np.diag(sigma) - 1.0)) < 1e-12

    def test_symmetric_to_zero_ulp(self, population):
        sigma = implied_covariance(population.lam, population.phi, population.psi)
        assert np.array_equal(sigma, sigma.T)

    def test_positive_definite_for_positive_psi(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = rng.uniform(-0.7, 0.7, size=(6, 2))
            psi = rng.uniform(0.2, 1.0, size=6)
            sigma = implied_covariance(lam, np.eye(2), psi)
            np.linalg.cholesky(sigma)  # raises if not PD

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            implied_covariance(np.zeros((3, 2)), np.eye(3), np.ones(3))
        with pytest.raises(StructureError):
            implied_covariance(np.zeros((3, 2)), np.eye(2), np.ones(4))
        lam = np.zeros((3, 6, 2))  # a stack of three
        with pytest.raises(StructureError, match="phi shape"):
            implied_covariance(lam, np.eye(2), np.ones((3, 6)))
        with pytest.raises(StructureError, match="phi shape"):
            implied_covariance(lam, np.ones((4, 2, 2)), np.ones((3, 6)))
        with pytest.raises(StructureError, match="psi shape"):
            implied_covariance(lam, np.ones((3, 2, 2)), np.ones(6))
        with pytest.raises(StructureError, match="psi shape"):
            implied_covariance(lam, np.ones((3, 2, 2)), np.ones((3, 5)))

    def test_stack_slices_equal_single_calls(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(-0.7, 0.7, size=(2, 4, 6, 2))
        phi = np.ones((2, 4, 2, 2))
        phi[..., 0, 1] = phi[..., 1, 0] = rng.uniform(-0.5, 0.5, size=(2, 4))
        psi = rng.uniform(0.2, 1.0, size=(2, 4, 6))
        sigma = implied_covariance(lam, phi, psi)
        assert sigma.shape == (2, 4, 6, 6)
        for index in np.ndindex(2, 4):
            single = implied_covariance(lam[index], phi[index], psi[index])
            assert np.array_equal(sigma[index], single)


class TestStandardizingUniqueness:
    def test_table2_row(self):
        psi = standardizing_uniqueness(table2_row()[None, :], PHI3)
        assert psi[0] == pytest.approx(0.6085, abs=1e-12)

    def test_single_loading(self):
        psi = standardizing_uniqueness(np.array([[0.8, 0.0, 0.0]]), PHI3)
        assert psi[0] == pytest.approx(0.36, abs=1e-14)

    def test_unit_communality_rejected(self):
        with pytest.raises(InvalidPopulationError):
            standardizing_uniqueness(np.array([[1.0, 0.0]]), np.eye(2))


class TestPacking:
    def test_counts_two_variable_one_factor(self):
        pattern = LoadingPattern(np.ones((2, 1)), np.ones((2, 1)))
        model = FactorModel.free_phi(pattern)
        assert model.n_parameters == 4  # 2 loadings + 2 uniquenesses

    def test_counts_all_free_fixed_phi(self, free_pattern):
        model = FactorModel.fixed_phi(free_pattern, 0.304)
        assert model.n_parameters == 72  # 54 loadings + 18 uniquenesses

    def test_counts_all_free_free_phi(self, free_pattern):
        assert FactorModel.free_phi(free_pattern).n_parameters == 75

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_exact(self, seed):
        pattern = block_pattern(3, 4, "free")
        model = FactorModel.free_phi(pattern)
        theta = np.random.default_rng(seed).standard_normal(model.n_parameters)
        assert np.array_equal(pack(model, *unpack(model, theta)), theta)

    def test_unpack_reproduces_fixed_cells(self, icm_pattern):
        model = FactorModel.fixed_phi(icm_pattern, 0.304)
        theta = np.arange(1, model.n_parameters + 1, dtype=float)
        lam, phi, psi = unpack(model, theta)
        assert lam[0, 1] == 0.0 and lam[17, 0] == 0.0
        assert phi[0, 1] == 0.304 and phi[1, 0] == 0.304
        assert np.all(np.diag(phi) == 1.0)

    def test_pack_rejects_wrong_shapes(self, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        with pytest.raises(StructureError):
            pack(model, np.zeros((17, 3)), np.eye(3), np.ones(18))
        with pytest.raises(StructureError):
            unpack(model, np.zeros(model.n_parameters + 1))


class TestValidateModel:
    def test_block_pattern_is_valid(self, icm_pattern):
        assert validate_model(FactorModel.free_phi(icm_pattern)) == []

    def test_multiple_salient_flagged(self):
        salient = np.zeros((4, 2), dtype=bool)
        salient[:, 0] = True
        salient[0, 1] = True
        problems = validate_model(FactorModel.free_phi(LoadingPattern(salient, salient)))
        assert any("multiple salient" in p for p in problems)

    def test_empty_factor_flagged(self):
        salient = np.zeros((4, 2), dtype=bool)
        salient[:, 0] = True
        problems = validate_model(FactorModel.free_phi(LoadingPattern(salient, salient)))
        assert any("empty factor" in p for p in problems)

    def test_asymmetric_phi_flagged(self, icm_pattern):
        phi = np.full((3, 3), np.nan)
        np.fill_diagonal(phi, 1.0)
        phi[0, 1] = 0.3  # (1, 0) left free
        problems = validate_model(FactorModel(icm_pattern, phi))
        assert any("symmetric" in p for p in problems)

    def test_phi_out_of_range_flagged(self, icm_pattern):
        problems = validate_model(FactorModel.fixed_phi(icm_pattern, 1.5))
        assert any("[-1, 1]" in p for p in problems)


class TestPopulationModel:
    def test_diagonal_and_pd(self, population):
        assert np.max(np.abs(np.diag(population.sigma) - 1.0)) < 1e-12
        np.linalg.cholesky(population.sigma)

    def test_rejects_unstandardized(self):
        lam = np.array([[0.6, 0.0], [0.0, 0.6], [0.6, 0.0]])
        with pytest.raises(InvalidPopulationError):
            PopulationModel(lam, np.eye(2), np.full(3, 0.5))


class TestLoadingPattern:
    def test_blocks(self, icm_pattern):
        assert icm_pattern.blocks[0] == tuple(range(6))
        assert icm_pattern.blocks[2] == tuple(range(12, 18))

    def test_with_nonsalient_free(self, icm_pattern):
        free = icm_pattern.with_nonsalient_free()
        assert free.free[0, 1] and not free.salient[0, 1]
        assert free.salient[0, 0]

    @pytest.mark.parametrize(
        "roles, count",
        [
            # Variable 2's (salient, free) rows: zero and free secondary, or two salient.
            (((False, False), (False, True)), 0),
            (((True, True), (True, True)), 2),
        ],
    )
    def test_salient_count_other_than_one_rejected(self, roles, count):
        salient = np.zeros((4, 2), dtype=bool)
        salient[:2, 0] = salient[2:, 1] = True
        free = salient.copy()
        salient[2], free[2] = roles
        pattern = LoadingPattern(salient, free)
        message = f"variable 2 has {count} salient cells, expected 1"
        with pytest.raises(StructureError, match=message):
            pattern.salient_factor(2)
        with pytest.raises(StructureError, match=message):
            pattern.blocks
        assert pattern.salient_factor(1) == 0 and pattern.salient_factor(3) == 1

    def test_free_marks_salient_and_secondary_cells(self):
        # Cell (i, j) is salient, free secondary or zero as (i + j) % 3 is 0, 1 or 2.
        role = np.add.outer(np.arange(3), np.arange(3)) % 3
        pattern = LoadingPattern(role == 0, role < 2)
        assert pattern.free.sum() == 6 and not pattern.free.flags.writeable
        assert pattern.with_nonsalient_free().free.all()
        assert np.array_equal(pattern.with_nonsalient_zero().free, pattern.salient)

    def test_with_cells_freed_rejects_nonzero_cell(self, icm_pattern):
        with pytest.raises(StructureError):
            icm_pattern.with_cells_freed([(0, 0)])

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (6, 0), (0, 2)])
    def test_with_cells_freed_rejects_out_of_range_cell(self, cell):
        with pytest.raises(StructureError, match="outside the 6 x 2 pattern"):
            block_pattern(2, 3).with_cells_freed([cell])

    @pytest.mark.parametrize(
        "salient, free, message",
        [
            (np.ones(4), np.ones(4), "2-D"),
            (np.eye(2), np.ones((3, 2)), "one shape"),
            (np.eye(2), np.array([[1, 1], [1, 0]]), r"salient cell \(1, 1\) is not free"),
        ],
    )
    def test_malformed_masks_rejected(self, salient, free, message):
        with pytest.raises(StructureError, match=message):
            LoadingPattern(salient, free)

    def test_equality_compares_both_masks(self):
        a, b = block_pattern(3, 6), block_pattern(3, 6)
        assert a == b and hash(a) == hash(b)
        assert a != a.with_nonsalient_free()
        assert a != a.with_cells_freed([(0, 1)])
        assert a != LoadingPattern(a.salient.T, a.free.T)
        assert a != "pattern"
        assert len({a, b, a.with_nonsalient_free()}) == 2

    def test_models_compare_by_identity(self, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        assert model == model
        assert model != FactorModel.free_phi(icm_pattern)

    def test_masks_are_read_only_copies(self):
        salient = np.eye(2, dtype=bool)
        pattern = LoadingPattern(salient, salient)
        salient[0, 0] = False
        assert pattern.salient[0, 0] and pattern.free[0, 0]
        assert not pattern.salient.flags.writeable and not pattern.free.flags.writeable

    def test_q1_pattern_flagged_but_constructible(self):
        pattern = LoadingPattern(np.ones((2, 1)), np.ones((2, 1)))
        assert any("p >= q >= 2" in p for p in validate_model(FactorModel.free_phi(pattern)))
