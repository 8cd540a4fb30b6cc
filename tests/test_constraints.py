import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufcfa.constraints import (
    BalanceConstraint,
    ConstraintMode,
    ConstraintSet,
    buffered_quality_index,
    build_fixed_weight_constraints,
    build_one_step_constraints,
    choose_pivots,
    constraint_jacobian,
    evaluate_lambda,
    swap_members,
)
from bufcfa.errors import StructureError
from bufcfa.model import FactorModel, LoadingPattern, pack, unpack
from bufcfa.simulation import balanced_population, block_pattern


def finite_difference_jacobian(cset, theta, model, h=1e-6):
    m = len(cset)
    jac = np.zeros((m, theta.size))
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        jac[:, k] = (
            evaluate_lambda(cset, unpack(model, up)[0])
            - evaluate_lambda(cset, unpack(model, down)[0])
        ) / (2 * h)
    return jac


def rebuilt_jacobian(cset, theta, model):
    """The Jacobian with its index arrays rebuilt from the set on every call."""
    ids, rows, unwanted, blocks, weights = cset.flat
    cols = model.loading_index[rows, unwanted]
    values = weights
    if weights is None:
        salient_cols = model.loading_index[rows, blocks]
        s = np.where(salient_cols >= 0, theta[salient_cols], 0.0)
        n = np.where(cols >= 0, theta[cols], 0.0)
        ids = np.concatenate([ids, ids])
        cols = np.concatenate([cols, salient_cols])
        values = np.concatenate([1.0 + s**2, 2.0 * s * n])
    free = cols >= 0
    width = model.n_parameters
    jac = np.bincount(ids[free] * width + cols[free], values[free], minlength=len(cset) * width)
    return jac.reshape(len(cset), width)


class TestBuilders:
    def test_fixed_weight_layout(self, free_pattern):
        cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        assert len(cset) == 6
        assert cset.mode is ConstraintMode.FIXED_WEIGHTS
        pairs = {(c.block, c.unwanted) for c in cset.constraints}
        assert pairs == {(i, j) for i in range(3) for j in range(3) if i != j}
        for c in cset.constraints:
            assert c.members == tuple(range(c.block * 6, c.block * 6 + 6))
            assert c.weights == (0.6,) * 6

    def test_two_factor_count(self):
        pattern = block_pattern(2, 2, "free")
        assert len(build_fixed_weight_constraints(pattern, np.full(4, 0.5))) == 2

    @pytest.mark.parametrize("q,per", [(2, 2), (3, 6), (4, 3), (5, 6)])
    def test_count_is_q_times_q_minus_one(self, q, per):
        pattern = block_pattern(q, per, "free")
        assert len(build_one_step_constraints(pattern)) == q * (q - 1)

    def test_zero_weights_rejected(self, free_pattern):
        weights = np.full(18, 0.6)
        weights[:6] = 0.0
        with pytest.raises(StructureError, match="vacuous"):
            build_fixed_weight_constraints(free_pattern, weights)

    def test_missing_weights_rejected(self, free_pattern):
        with pytest.raises(StructureError):
            build_fixed_weight_constraints(free_pattern, np.full(17, 0.6))
        bad = np.full(18, 0.6)
        bad[3] = np.nan
        with pytest.raises(StructureError):
            build_fixed_weight_constraints(free_pattern, bad)

    def test_one_step_matches_block_structure(self, free_pattern):
        cset = build_one_step_constraints(free_pattern)
        assert cset.mode is ConstraintMode.SELF_WEIGHTED
        by_pair = {(c.block, c.unwanted): c for c in cset.constraints}
        assert by_pair[(0, 1)].members == tuple(range(6))
        assert by_pair[(2, 0)].members == tuple(range(12, 18))
        assert all(c.weights is None for c in cset.constraints)


class TestConstraintSetMode:
    def test_weight_count_must_match_members(self):
        with pytest.raises(StructureError, match="2 weights for 3 members"):
            BalanceConstraint(0, 1, (0, 1, 2), (1.0, 2.0))
        with pytest.raises(StructureError, match="3 weights for 2 members"):
            BalanceConstraint(1, 0, (3, 4), (3.0, 4.0, 5.0))

    def test_mixed_weighting_rejected(self):
        weighted = BalanceConstraint(0, 1, (0, 1), (0.6, 0.6))
        self_weighted = BalanceConstraint(1, 0, (2, 3))
        for constraints in ((weighted, self_weighted), (self_weighted, weighted)):
            with pytest.raises(StructureError, match="mixes"):
                ConstraintSet(constraints)

    def test_mode_follows_the_weights(self):
        weighted = BalanceConstraint(0, 1, (0, 1), (0.6, 0.6))
        self_weighted = BalanceConstraint(1, 0, (2, 3))
        assert ConstraintSet((weighted,)).mode is ConstraintMode.FIXED_WEIGHTS
        assert ConstraintSet((self_weighted,)).mode is ConstraintMode.SELF_WEIGHTED


class TestEvaluation:
    def test_population_is_feasible_self_weighted(self, population, free_pattern):
        cset = build_one_step_constraints(free_pattern)
        assert np.max(np.abs(evaluate_lambda(cset, population.lam))) < 1e-12

    def test_population_is_feasible_fixed_weights(self, population, free_pattern):
        cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        assert np.max(np.abs(evaluate_lambda(cset, population.lam))) < 1e-12

    def test_sign_cancellation_two_members(self):
        pattern = block_pattern(2, 2, "free")
        cset = build_one_step_constraints(pattern)
        lam = np.array([[0.6, 0.1], [0.6, -0.1], [0.0, 0.5], [0.0, 0.5]])
        by_pair = {(c.block, c.unwanted): i for i, c in enumerate(cset.constraints)}
        values = evaluate_lambda(cset, lam)
        assert values[by_pair[(0, 1)]] == pytest.approx(1.36 * 0.1 - 1.36 * 0.1, abs=1e-15)

    def test_zero_nonsalient_always_feasible(self, population, free_pattern):
        lam = np.where(np.abs(population.lam) == 0.6, population.lam, 0.0)
        for cset in (
            build_one_step_constraints(free_pattern),
            build_fixed_weight_constraints(free_pattern, np.full(18, 0.6)),
        ):
            assert np.max(np.abs(evaluate_lambda(cset, lam))) == 0.0

    def test_swapped_membership_breaks_feasibility(self, population, free_pattern):
        cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        swapped = swap_members(cset, [(4, 5), (4, 9)])
        values = evaluate_lambda(swapped, population.lam)
        assert np.max(np.abs(values)) > 0.1

    def test_evaluate_constraints_from_theta(self, population, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        theta = pack(model, population.lam, population.phi, population.psi)
        cset = build_one_step_constraints(free_pattern)
        residual = evaluate_lambda(cset, unpack(model, theta)[0])
        assert np.max(np.abs(residual)) < 1e-12


class TestJacobian:
    def test_fixed_weights_rows_are_constants(self, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        theta = np.zeros(model.n_parameters)
        jac = constraint_jacobian(cset, theta, model)
        row = jac[0]
        nonzero = row[row != 0]
        assert np.allclose(nonzero, 0.6)
        assert np.count_nonzero(row) == 6

    def test_self_weighted_partial_wrt_salient(self):
        # one block pair at salient .6, secondary .1: d/ds = 2 * .6 * .1
        pattern = block_pattern(2, 2, "free")
        model = FactorModel.free_phi(pattern)
        lam = np.array([[0.6, 0.1], [0.6, -0.1], [0.0, 0.5], [0.0, 0.5]])
        theta = pack(model, lam, np.eye(2), np.full(4, 0.5))
        cset = build_one_step_constraints(pattern)
        jac = constraint_jacobian(cset, theta, model)
        idx_c = next(i for i, c in enumerate(cset.constraints) if (c.block, c.unwanted) == (0, 1))
        idx_s = model.loading_index[(0, 0)]
        assert jac[idx_c, idx_s] == pytest.approx(0.12, abs=1e-14)

    @pytest.mark.parametrize("mode", ["fixed", "self"])
    def test_matches_central_differences(self, free_pattern, mode):
        model = FactorModel.free_phi(free_pattern)
        if mode == "fixed":
            cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        else:
            cset = build_one_step_constraints(free_pattern)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            theta = rng.uniform(-0.8, 0.8, size=model.n_parameters)
            theta[model.layout.psi_offset:] = rng.uniform(0.3, 0.9, size=model.p)
            jac = constraint_jacobian(cset, theta, model)
            fd = finite_difference_jacobian(cset, theta, model)
            worst = max(worst, float(np.max(np.abs(jac - fd))))
        assert worst < 1e-6

    @pytest.mark.parametrize("mode", ["fixed", "self"])
    def test_built_once_per_layout_with_the_same_bits(self, free_pattern, mode):
        # One set on three layouts: free phi, fixed phi (three parameters
        # fewer), and free phi with some member loadings fixed at zero.
        free = np.array(free_pattern.free)
        free[[1, 8, 15], [1, 2, 0]] = False
        models = [
            FactorModel.free_phi(free_pattern),
            FactorModel.fixed_phi(free_pattern, 0.3),
            FactorModel.free_phi(LoadingPattern(free_pattern.salient, free)),
        ]
        if mode == "fixed":
            cset = build_fixed_weight_constraints(free_pattern, 0.5 + 0.01 * np.arange(18))
        else:
            cset = build_one_step_constraints(free_pattern)
        rng = np.random.default_rng(17)
        for _ in range(20):
            for model in models:
                theta = rng.uniform(-0.8, 0.8, size=model.n_parameters)
                jac = constraint_jacobian(cset, theta, model)
                assert jac.tobytes() == rebuilt_jacobian(cset, theta, model).tobytes()
        assert len(cset._jacobian_plans) == len(models)

    def test_full_row_rank_at_generic_points(self, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        cset = build_one_step_constraints(free_pattern)
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(-0.8, 0.8, size=model.n_parameters)
            jac = constraint_jacobian(cset, theta, model)
            s = np.linalg.svd(jac, compute_uv=False)
            assert s[len(cset) - 1] > 1e-8


class TestPivots:
    @pytest.mark.parametrize("mode", ["fixed", "self"])
    @pytest.mark.parametrize("swaps", [[], [(4, 5), (4, 9)], [(0, 17), (3, 8)]])
    def test_every_built_set_has_exact_pivots(self, free_pattern, population, mode, swaps):
        model = FactorModel.free_phi(free_pattern)
        if mode == "fixed":
            weights = np.linspace(0.5, 0.7, 18)
            cset = swap_members(build_fixed_weight_constraints(free_pattern, weights), swaps)
        else:
            cset = swap_members(build_one_step_constraints(free_pattern), swaps)
        pivots = choose_pivots(cset, model)
        theta = pack(model, population.lam, population.phi, population.psi)
        jac = constraint_jacobian(cset, theta, model)
        # Each pivot column is nonzero in its own row only: the pivot enters
        # no other constraint.
        block = jac[:, pivots.params]
        assert np.all(np.diag(block) != 0.0)
        assert np.count_nonzero(block) == len(cset)
        # Solving each constraint for its pivot leaves every residual at zero.
        lam = population.lam.copy()
        lam[pivots.cells] = 0.0
        lam[pivots.cells] = -evaluate_lambda(cset, lam) / pivots.weights(lam)
        assert np.max(np.abs(evaluate_lambda(cset, lam))) < 1e-15

    def test_fixed_weights_take_largest_weight(self, free_pattern):
        weights = np.full(18, 0.6)
        weights[3] = -0.9
        cset = build_fixed_weight_constraints(free_pattern, weights)
        pivots = choose_pivots(cset, FactorModel.free_phi(free_pattern))
        rows, cols = pivots.cells
        assert rows[0] == 3 and cols[0] == 1
        assert pivots.fixed_weights[0] == -0.9

    def test_shared_weight_cell_is_not_a_pivot(self):
        # x1 sits in both constraints: its loading on factor 2 is a member of
        # the first and a self-weight of the second, and vice versa.
        model = FactorModel.free_phi(block_pattern(2, 2, "free"))
        cset = ConstraintSet(
            (BalanceConstraint(0, 1, (0, 1)), BalanceConstraint(1, 0, (0, 2, 3))),
        )
        rows, cols = choose_pivots(cset, model).cells
        assert list(zip(rows.tolist(), cols.tolist())) == [(1, 1), (2, 0)]

    def test_zero_weights_and_fixed_cells_are_skipped(self, free_pattern, icm_pattern):
        weights = np.full(18, 0.6)
        weights[0] = 0.0
        cset = build_fixed_weight_constraints(free_pattern, weights)
        rows, _ = choose_pivots(cset, FactorModel.free_phi(free_pattern)).cells
        assert 0 not in rows
        with pytest.raises(StructureError, match="constraint 0"):
            choose_pivots(cset, FactorModel.free_phi(icm_pattern))


class TestQualityIndex:
    def test_population_is_perfectly_balanced(self, population, free_pattern):
        assert buffered_quality_index(population.lam, free_pattern) == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_pair(self):
        pattern = block_pattern(2, 2, "free")
        lam = np.array([[0.6, 0.15], [0.6, 0.15], [0.0, 0.5], [0.0, 0.5]])
        assert buffered_quality_index(lam, pattern) == pytest.approx(0.18, abs=1e-12)

    def test_balanced_pair_cancels(self):
        pattern = block_pattern(2, 2, "free")
        lam = np.array([[0.6, 0.15], [0.6, -0.15], [0.0, 0.5], [0.0, 0.5]])
        assert buffered_quality_index(lam, pattern) == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(0.3, 0.8), st.floats(0.0, 0.2), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=30, deadline=None)
    def test_zero_for_every_balanced_population(self, salient, nonsalient, phi):
        pop = balanced_population(3, 6, salient, nonsalient, phi)
        assert buffered_quality_index(pop.lam, block_pattern(3, 6)) < 1e-12

    def test_shape_mismatch(self, free_pattern):
        with pytest.raises(StructureError):
            buffered_quality_index(np.zeros((17, 3)), free_pattern)
