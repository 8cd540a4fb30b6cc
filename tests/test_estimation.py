import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest

from bufcfa.constraints import (
    BalanceConstraint,
    ConstraintSet,
    build_fixed_weight_constraints,
    build_one_step_constraints,
    choose_pivots,
    evaluate_lambda,
    swap_members,
)
from bufcfa import estimation
from bufcfa.errors import NumericalError, StructureError
from bufcfa.estimation import SampleMoments, fit, fit_each, ml_discrepancy, ml_gradient
from bufcfa.model import (
    PSI_FLOOR,
    FactorModel,
    LoadingPattern,
    StackedLayout,
    implied_covariance,
    pack,
    unpack,
)
from bufcfa.io import read_correlation_matrix
from bufcfa.simulation import balanced_population, block_pattern, draw_sample
from nullspace_oracle import elimination_optimum


@pytest.fixture(scope="module")
def swapped_setup(population_moments, icm_pattern, free_pattern):
    """Acceptance criterion 4: fixed phi .304, weights and starts from the
    ICM fit, membership swapped x5<->x6 then x5<->x10."""
    icm_solution = fit(FactorModel.free_phi(icm_pattern), None, population_moments)
    weights = [icm_solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
    cset = swap_members(build_fixed_weight_constraints(free_pattern, weights), [(4, 5), (4, 9)])
    start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
    return FactorModel.fixed_phi(free_pattern, 0.304), cset, start


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty cold-start memo for one test; the process's own is restored after it."""
    memo = {}
    monkeypatch.setattr(estimation, "_cold_starts", memo)
    return memo


def reversed_members(cset):
    return ConstraintSet(
        tuple(
            BalanceConstraint(
                c.block, c.unwanted, c.members[::-1], c.weights and c.weights[::-1]
            )
            for c in cset.constraints
        ),
    )


def two_var_model():
    return FactorModel.free_phi(LoadingPattern(np.ones((2, 1)), np.ones((2, 1))))


class TestMlDiscrepancy:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        S = a @ a.T + 5 * np.eye(5)
        assert ml_discrepancy(S, S) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_oracle(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        # ln|I| - ln|S| + tr(S) - 2 = -ln(0.75), evaluated independently
        assert ml_discrepancy(S, np.eye(2)) == pytest.approx(0.2876820724517809, abs=1e-12)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            S = a @ a.T + 4 * np.eye(4)
            b = rng.standard_normal((4, 4))
            sigma = b @ b.T + 4 * np.eye(4)
            A = rng.standard_normal((4, 4)) + 3 * np.eye(4)
            f1 = ml_discrepancy(S, sigma)
            f2 = ml_discrepancy(A @ S @ A.T, A @ sigma @ A.T)
            assert f2 == pytest.approx(f1, rel=1e-8, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            S = a @ a.T + 3 * np.eye(3)
            b = rng.standard_normal((3, 3))
            sigma = b @ b.T + 3 * np.eye(3)
            assert ml_discrepancy(S, sigma) >= -1e-12

    def test_non_pd_identified(self):
        good = np.eye(2)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="sample"):
            ml_discrepancy(bad, good)
        with pytest.raises(NumericalError, match="model-implied"):
            ml_discrepancy(good, bad)

    def test_shape_mismatch(self):
        with pytest.raises(StructureError):
            ml_discrepancy(np.eye(2), np.eye(3))

    def test_asymmetric_sample_rejected(self):
        S = np.array([[1.0, 0.5], [0.5 + 1e-7, 1.0]])
        with pytest.raises(StructureError, match="asymmetric"):
            ml_discrepancy(S, np.eye(2))


def finite_difference_gradient(model, theta, S, h=1e-6):
    def value(t):
        return ml_discrepancy(S, implied_covariance(*unpack(model, t)))

    grad = np.zeros(theta.size)
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (value(up) - value(down)) / (2 * h)
    return grad


class TestMlGradient:
    def test_zero_at_truth(self, population, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        theta = pack(model, population.lam, population.phi, population.psi)
        grad = ml_gradient(model, theta, population.sigma)
        assert np.max(np.abs(grad)) < 1e-8

    def test_matches_central_differences_small_model(self):
        model = two_var_model()
        S = np.array([[1.0, 0.42], [0.42, 1.0]])
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            theta = np.concatenate(
                [rng.uniform(-0.9, 0.9, size=2), rng.uniform(0.3, 0.9, size=2)]
            )
            grad = ml_gradient(model, theta, S)
            fd = finite_difference_gradient(model, theta, S)
            worst = max(worst, float(np.max(np.abs(grad - fd))))
        assert worst < 1e-6

    def test_matches_central_differences_full_model(self, population, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        rng = np.random.default_rng(22)
        for _ in range(5):
            theta = np.concatenate(
                [
                    rng.uniform(-0.6, 0.6, size=model.layout.loading_rows.size),
                    rng.uniform(-0.2, 0.2, size=model.layout.phi_rows.size),
                    rng.uniform(0.4, 0.9, size=model.p),
                ]
            )
            grad = ml_gradient(model, theta, population.sigma)
            fd = finite_difference_gradient(model, theta, population.sigma)
            assert np.max(np.abs(grad - fd)) < 1e-6

    def test_fixed_cells_absent_from_gradient(self, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        assert model.n_parameters == 39  # 18 salient + 3 phi + 18 psi
        theta = np.concatenate([np.full(18, 0.5), np.zeros(3), np.full(18, 0.5)])
        grad = ml_gradient(model, theta, np.eye(18))
        assert grad.shape == (39,)

    def test_wrong_order_rejected(self, population, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        theta = pack(model, population.lam, population.phi, population.psi)
        with pytest.raises(StructureError, match="moment matrix order 3 does not match model p=18"):
            ml_gradient(model, theta, np.eye(3))

    def test_asymmetric_sample_rejected(self, population, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        theta = pack(model, population.lam, population.phi, population.psi)
        S = population.sigma.copy()
        S[0, 1] += 1e-3
        with pytest.raises(StructureError, match="asymmetric"):
            ml_gradient(model, theta, S)

    @pytest.mark.parametrize("psi_0", [0.0, 1e-4])
    def test_uniqueness_below_floor_rejected(self, population, free_pattern, psi_0):
        model = FactorModel.free_phi(free_pattern)
        psi = population.psi.copy()
        psi[0] = psi_0
        theta = pack(model, population.lam, population.phi, psi)
        # Sigma stays positive definite; only the uniqueness is out of range.
        sigma = implied_covariance(population.lam, population.phi, psi)
        assert np.isfinite(ml_discrepancy(population.sigma, sigma))
        with pytest.raises(NumericalError, match="uniqueness below the floor"):
            ml_gradient(model, theta, population.sigma)


class TestSampleMoments:
    def test_symmetrizes_roundoff(self):
        S = np.eye(3)
        S[0, 1] = 0.5
        S[1, 0] = 0.5 + 1e-12
        m = SampleMoments(S)
        assert m.S[0, 1] == m.S[1, 0]

    def test_rejects_asymmetry(self):
        S = np.eye(3)
        S[0, 1] = 0.5
        with pytest.raises(StructureError, match="asymmetric"):
            SampleMoments(S)

    def test_rejects_non_pd(self):
        S = np.array([[1.0, 1.1], [1.1, 1.0]])
        with pytest.raises(NumericalError):
            SampleMoments(S)

    def test_rejects_tiny_n(self):
        with pytest.raises(StructureError):
            SampleMoments(np.eye(2), n=1)

    def test_keeps_log_determinant(self, population):
        moments = SampleMoments(population.sigma)
        factor = np.linalg.cholesky(moments.S)
        assert moments.log_det == 2.0 * np.sum(np.log(np.diag(factor)))

    def test_fit_minimum_equals_public_discrepancy(self, population_moments, icm_pattern):
        # fit takes ln|S| from the moments passed in, ml_discrepancy from SampleMoments(S).
        solution = fit(FactorModel.free_phi(icm_pattern), None, population_moments)
        sigma = implied_covariance(solution.lambda_hat, solution.phi_hat, solution.psi_hat)
        assert solution.f_min == ml_discrepancy(population_moments.S, sigma)


class TestFit:
    def test_icm_reproduces_reported_estimates(self, population, population_moments, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        solution = fit(model, None, population_moments)
        assert solution.converged
        salients = [solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
        assert np.all(np.abs(np.array(salients) - 0.595) < 0.005)
        off = solution.phi_hat[np.tril_indices(3, -1)]
        assert np.all(np.abs(off - 0.304) < 0.005)

    def test_fixed_zero_cells_exactly_zero(self, population_moments, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        solution = fit(model, None, population_moments)
        mask = ~icm_pattern.free
        assert np.all(solution.lambda_hat[mask] == 0.0)

    def test_fixed_phi_entries_exact(self, population_moments, free_pattern):
        model = FactorModel.fixed_phi(free_pattern, 0.304)
        cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        solution = fit(model, cset, population_moments)
        assert solution.phi_hat[0, 1] == 0.304
        assert solution.phi_hat[2, 0] == 0.304

    def test_self_weighted_fit_recovers_population(self, population, population_moments, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        cset = build_one_step_constraints(free_pattern)
        solution = fit(model, cset, population_moments)
        assert solution.converged
        assert solution.f_min < 1e-8
        assert np.max(np.abs(solution.lambda_hat - population.lam)) < 1e-3
        assert solution.max_constraint_residual < estimation.FEASIBILITY_TOL

    def test_determinism(self, population_moments, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        cset = build_one_step_constraints(free_pattern)
        a = fit(model, cset, population_moments)
        b = fit(model, cset, population_moments)
        assert np.array_equal(a.lambda_hat, b.lambda_hat)
        assert np.array_equal(a.psi_hat, b.psi_hat)
        assert a.f_min == b.f_min
        assert a.n_iterations == b.n_iterations

    def test_nesting_buffered_no_worse_than_icm(self, population_moments, icm_pattern, free_pattern):
        phi_fix = 0.304
        icm_model = FactorModel.fixed_phi(icm_pattern, phi_fix)
        icm_solution = fit(icm_model, None, population_moments)
        buf_model = FactorModel.fixed_phi(free_pattern, phi_fix)
        cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
        buf_solution = fit(buf_model, cset, population_moments)
        assert buf_solution.f_min <= icm_solution.f_min + 1e-9

    def test_exact_recovery_of_feasible_population(self):
        pop = balanced_population(3, 4, 0.7, 0.1, 0.2)
        pattern = block_pattern(3, 4, "free")
        model = FactorModel.free_phi(pattern)
        cset = build_one_step_constraints(pattern)
        solution = fit(model, cset, SampleMoments(pop.sigma))
        assert solution.converged
        assert solution.f_min < 1e-8
        assert np.max(np.abs(solution.lambda_hat - pop.lam)) < 1e-3
        assert np.max(np.abs(solution.phi_hat - pop.phi)) < 1e-3

    def test_uniqueness_floor_respected(self, population_moments, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        solution = fit(model, None, population_moments)
        assert np.all(solution.psi_hat > PSI_FLOOR)

    def test_invalid_model_rejected(self):
        salient = np.zeros((4, 2), dtype=bool)
        salient[:, 0] = True
        model = FactorModel.free_phi(LoadingPattern(salient, salient))
        with pytest.raises(StructureError, match="empty factor"):
            fit(model, None, SampleMoments(np.eye(4)))

    def test_moment_order_mismatch(self, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        with pytest.raises(StructureError, match="order"):
            fit(model, None, SampleMoments(np.eye(17)))

    def test_sign_alignment_first_salient_nonnegative(self, population, free_pattern):
        model = FactorModel.free_phi(free_pattern)
        cset = build_one_step_constraints(free_pattern)
        start = population.lam.copy()
        start[:, 1] *= -1.0  # second factor flipped
        phi0 = population.phi.copy()
        phi0[1, :] *= -1
        phi0[:, 1] *= -1
        np.fill_diagonal(phi0, 1.0)
        solution = fit(model, cset, SampleMoments(population.sigma), (start, phi0, population.psi))
        for j in range(3):
            first = min(free_pattern.blocks[j])
            assert solution.lambda_hat[first, j] >= 0

    def test_iteration_cap_bounds_whole_fit(self, population_moments, swapped_setup, monkeypatch):
        model, cset, start = swapped_setup
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 5)
        capped = fit(model, cset, population_moments, start)
        assert capped.n_iterations <= 5
        assert not capped.converged
        assert capped.max_constraint_residual <= 1e-12

    def test_overflowing_trial_step_is_silent(self, data_dir, icm_pattern, monkeypatch):
        # From this far-off start a trial step sends exp(log psi) past the
        # float range; Sigma is then not PD, and the step simply fails.
        S = read_correlation_matrix(data_dir / "population_corr.dat").S
        _, moments = draw_sample(S, 60, np.random.SeedSequence([555, 26]))
        overflowed = []
        evaluate = estimation._discrepancy_and_gradient

        def record(model, lam, phi, psi, S):
            overflowed.append(bool(np.isinf(psi).any()))
            return evaluate(model, lam, phi, psi, S)

        monkeypatch.setattr(estimation, "_discrepancy_and_gradient", record)
        lam = np.where(icm_pattern.salient, 0.05, 0.0)
        start = lam, np.eye(3), np.full(18, 0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = fit(FactorModel.free_phi(icm_pattern), None, moments, start)
        assert any(overflowed)
        assert solution.converged
        assert solution.n_iterations == 130
        assert solution.f_min == pytest.approx(2.919804337600631, abs=1e-12)

    @pytest.mark.parametrize("case", ["one-step population", "criterion-4 swapped"])
    def test_member_order_changes_pivot_not_result(
        self, case, population_moments, free_pattern, swapped_setup
    ):
        if case == "one-step population":
            model = FactorModel.free_phi(free_pattern)
            cset, start = build_one_step_constraints(free_pattern), None
        else:
            model, cset, start = swapped_setup
            # The ICM weights tie up to rounding noise, which would pick the
            # same largest-|weight| member in either order; an exact tie
            # makes the reversal move every pivot.
            cset = ConstraintSet(
                tuple(
                    dataclasses.replace(c, weights=tuple(np.round(c.weights, 6)))
                    for c in cset.constraints
                ),
            )
        flipped = reversed_members(cset)
        assert not np.any(choose_pivots(cset, model).params == choose_pivots(flipped, model).params)
        a = fit(model, cset, population_moments, start)
        b = fit(model, flipped, population_moments, start)
        assert a.converged and b.converged
        assert a.f_min == pytest.approx(b.f_min, abs=1e-9)
        assert np.max(np.abs(a.lambda_hat - b.lambda_hat)) < 1e-6

    def test_set_without_pivot_rejected(self, population_moments, free_pattern):
        # Both constraints balance the same two cells, so neither has a cell
        # of its own to solve for.
        cset = ConstraintSet(
            (
                BalanceConstraint(0, 1, (0, 1), (0.6, 0.6)),
                BalanceConstraint(0, 1, (0, 1), (0.6, -0.6)),
            ),
        )
        with pytest.raises(StructureError, match="constraint 0 .block 0, unwanted factor 1"):
            fit(FactorModel.free_phi(free_pattern), cset, population_moments)

    def test_misplaced_membership_regression(self, population, population_moments, icm_pattern, free_pattern):
        # Pins the optimum under deliberately swapped constraint membership
        # (x5<->x6 then x5<->x10): feasible, equal to the optimum found by
        # null-space elimination, and clearly worse than under the correct
        # constraints (~.0017) while staying far from the independent-clusters
        # misfit profile.
        from bufcfa.constraints import swap_members
        from bufcfa.fit_indices import srmr

        icm_model = FactorModel.free_phi(icm_pattern)
        icm_solution = fit(icm_model, None, population_moments)
        weights = np.array(
            [icm_solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
        )
        model = FactorModel.fixed_phi(free_pattern, icm_solution.phi_hat)
        start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
        correct = fit(model, build_fixed_weight_constraints(free_pattern, weights),
                      population_moments, start)
        swapped_set = swap_members(
            build_fixed_weight_constraints(free_pattern, weights), [(4, 5), (4, 9)]
        )
        swapped = fit(model, swapped_set, population_moments, start)
        assert swapped.converged
        assert swapped.max_constraint_residual < 1e-7
        srmr_correct = srmr(
            population.sigma,
            implied_covariance(correct.lambda_hat, correct.phi_hat, correct.psi_hat),
        )
        srmr_swapped = srmr(
            population.sigma,
            implied_covariance(swapped.lambda_hat, swapped.phi_hat, swapped.psi_hat),
        )
        assert srmr_swapped > 10 * srmr_correct
        assert 0.05 <= srmr_swapped <= 0.07
        oracle = elimination_optimum(model, swapped_set, population.sigma)
        assert swapped.f_min == pytest.approx(oracle.f_min, abs=1e-6)
        assert srmr_swapped == pytest.approx(
            srmr(population.sigma, implied_covariance(oracle.lambda_hat, model.phi_fixed, oracle.psi_hat)),
            abs=1e-4,
        )


def central_difference_hessian(gradient, x, h=1e-5):
    """Hessian from central differences of an analytic gradient."""
    columns = []
    for k in range(x.size):
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        columns.append((gradient(up) - gradient(down)) / (2 * h))
    hessian = np.array(columns).T
    return (hessian + hessian.T) / 2.0


def packed_cells(model):
    """The model's free loading cells and free correlation pairs, in packed order."""
    layout = model.layout
    return (layout.loading_rows[0], layout.loading_cols[0]), (layout.phi_rows[0], layout.phi_cols[0])


def random_loadings(pattern, rng):
    """Salients in [.5, .8] and secondaries in [-.2, .2] on the free cells."""
    lam = np.zeros((pattern.p, pattern.q))
    lam[pattern.salient] = rng.uniform(0.5, 0.8, size=pattern.p)
    secondary = pattern.free & ~pattern.salient
    lam[secondary] = rng.uniform(-0.2, 0.2, size=int(secondary.sum()))
    return lam


def factor_inverse_case(case, rng):
    """A (lambda, phi, psi) stack of 4 points of the ICM pattern, Sigma positive definite."""
    salient = block_pattern(3, 6, "zero").salient
    lam = np.where(salient, rng.uniform(0.3, 0.8, size=(4, 18, 3)), 0.0)
    lam += rng.uniform(-0.2, 0.2, size=lam.shape) * ~salient
    phi = np.stack([np.eye(3) + 0.3 * (1.0 - np.eye(3))] * 4)
    psi = rng.uniform(0.2, 0.6, size=(4, 18))
    if case == "improper phi":  # |phi| = 1.2: Phi indefinite, Sigma still PD
        lam = np.where(salient, 0.4, 0.0) * np.ones((4, 1, 1))
        phi = np.stack([np.eye(3) + 1.2 * (1.0 - np.eye(3))] * 4)
    elif case == "singular phi":  # phi = 1: Phi has rank 1
        phi = np.ones((4, 3, 3))
    elif case == "psi at its floor":
        psi[:, ::2] = PSI_FLOOR
    return lam, phi, psi


class TestFactorInverse:
    """Sigma^-1 through the factor structure, against numpy's dense inverse."""

    @pytest.mark.parametrize(
        "case", ["random", "improper phi", "singular phi", "psi at its floor"]
    )
    def test_matches_dense_inverse(self, case):
        lam, phi, psi = factor_inverse_case(case, np.random.default_rng(41))
        sigma = implied_covariance(lam, phi, psi)
        assert np.all(np.linalg.eigvalsh(sigma) > 0)
        log_det, sig_inv = estimation._factor_inverse(sigma, lam, phi, psi)
        dense = np.linalg.inv(sigma)
        assert np.max(np.abs(sig_inv - dense)) < 1e-12 * np.max(np.abs(dense))
        assert log_det.tobytes() == estimation._cholesky(sigma).tobytes()

    def test_rows_without_positive_definite_sigma_read_nan_silently(self):
        # Row 1 is indefinite and row 2 has a trial step's psi = inf.  Row 3's
        # negative uniquenesses make Sigma singular and I + Phi Lambda' A
        # exactly zero, which would fail the whole stack's solve.
        lam, phi, psi = factor_inverse_case("random", np.random.default_rng(42))
        phi[1] = np.full((3, 3), 1.5) - 0.5 * np.eye(3)
        psi[1] = 0.01
        psi[2, 4] = np.inf
        lam[3], phi[3], psi[3, :3] = 0.0, np.eye(3), -1.0
        lam[3, [0, 1, 2], [0, 1, 2]] = 1.0
        sigma = implied_covariance(lam, phi, psi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_det, sig_inv = estimation._factor_inverse(sigma, lam, phi, psi)
        assert np.isnan(log_det).tolist() == [False, True, True, True]
        assert np.isnan(sig_inv[1:]).all() and np.isfinite(sig_inv[0]).all()
        assert sig_inv[0].tobytes() == estimation._factor_inverse(
            sigma[:1], lam[:1], phi[:1], psi[:1]
        )[1][0].tobytes()

    def test_slices_equal_rows_alone(self, icm_pattern):
        # A search's 36 refits as one stack: every slice, and the kernel's F
        # and gradient, equal the same row evaluated alone bit for bit.
        _, models = single_cell_refits(icm_pattern, "free")
        rng = np.random.default_rng(43)
        lam = np.stack([random_loadings(m.pattern, rng) for m in models])
        phi = np.stack([np.eye(3) + 0.3 * (1.0 - np.eye(3))] * len(models))
        psi = rng.uniform(0.3, 0.6, size=(len(models), 18))
        sigma = implied_covariance(lam, phi, psi)
        S = sigma[0]
        log_det, sig_inv = estimation._factor_inverse(sigma, lam, phi, psi)
        f, grad = estimation._discrepancy_and_gradient(StackedLayout.of(models), lam, phi, psi, S)
        assert len(models) == 36
        for r, model in enumerate(models):
            one = lam[r : r + 1], phi[r : r + 1], psi[r : r + 1]
            log_det_r, sig_inv_r = estimation._factor_inverse(sigma[r : r + 1], *one)
            assert log_det[r : r + 1].tobytes() == log_det_r.tobytes()
            assert sig_inv[r : r + 1].tobytes() == sig_inv_r.tobytes()
            f_r, grad_r = estimation._discrepancy_and_gradient(model.layout, *one, S)
            assert f[r : r + 1].tobytes() == f_r.tobytes()
            assert grad[r : r + 1].tobytes() == grad_r.tobytes()


class TestExpectedInformation:
    """At an exact-fit point S = Sigma(theta) the gradient vanishes, so the
    expected information equals the Hessian of F."""

    @pytest.mark.parametrize("case", ["icm free phi", "fixed phi free secondaries"])
    def test_equals_hessian_at_exact_fit(self, case, icm_pattern, free_pattern):
        rng = np.random.default_rng(31)
        if case == "icm free phi":
            model = FactorModel.free_phi(icm_pattern)
            phi = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
        else:
            model = FactorModel.fixed_phi(free_pattern, 0.3)
            phi = model.phi_fixed
        lam = random_loadings(model.pattern, rng)
        psi = rng.uniform(0.3, 0.6, size=model.p)
        S = implied_covariance(lam, phi, psi)
        theta = pack(model, lam, phi, psi)
        info = estimation._expected_information(*packed_cells(model), *unpack(model, theta))
        hessian = central_difference_hessian(lambda t: ml_gradient(model, t, S), theta)
        assert info.shape == (model.n_parameters, model.n_parameters)
        assert np.max(np.abs(info - hessian)) < 1e-6 * np.max(np.abs(hessian))

    def test_equals_hessian_in_solver_coordinates(self, free_pattern):
        # Self-weighted constraints: the map from the solver's z to theta
        # solves every pivot and log-transforms psi.
        model = FactorModel.free_phi(free_pattern)
        cset = build_one_step_constraints(free_pattern)
        rng = np.random.default_rng(32)
        lam = random_loadings(free_pattern, rng)
        for c in cset.constraints:
            # Make each block sum exactly zero by solving its last member.
            members = list(c.members)
            w = 1.0 + lam[members, c.block] ** 2
            last = members[-1]
            lam[last, c.unwanted] = -(w[:-1] @ lam[members[:-1], c.unwanted]) / w[-1]
        assert np.max(np.abs(evaluate_lambda(cset, lam))) < 1e-15
        phi = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
        psi = rng.uniform(0.3, 0.6, size=model.p)
        S = implied_covariance(lam, phi, psi)

        fits = estimation._Fits([model], cset, SampleMoments(S))
        objective, z0 = fits.objective, fits.start((lam, phi, psi))[0]
        assert z0.size == model.n_parameters - len(cset)
        assert np.max(np.abs(objective(z0)[1])) < 1e-12
        info = fits.informations([0], z0[None])[0]
        hessian = central_difference_hessian(lambda z: objective(z)[1], z0)
        assert np.max(np.abs(info - hessian)) < 1e-6 * np.max(np.abs(hessian))

    def test_none_where_sigma_is_not_positive_definite(self, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        lam = np.where(icm_pattern.salient, 0.6, 0.0)
        phi = np.full((3, 3), 1.5)
        np.fill_diagonal(phi, 1.0)
        cells, pairs = packed_cells(model)
        assert estimation._expected_information(cells, pairs, lam, phi, np.full(18, 0.01)) is None

    def test_batched_inverse_falls_back_slice_by_slice(self):
        # Slice 1 is indefinite and slice 3 is NaN (Sigma not PD): those two
        # alone get None; every other slice is the per-matrix inverse.
        rng = np.random.default_rng(5)
        factors = rng.normal(size=(5, 6, 9))
        stack = factors @ factors.transpose(0, 2, 1)
        stack[1] -= 100.0 * np.eye(6)
        stack[3] = np.nan
        inverses = estimation._pd_inverses(stack)
        assert [inverse is None for inverse in inverses] == [False, True, False, True, False]
        for r in (0, 2, 4):
            single = np.linalg.inv(stack[r])
            assert inverses[r].tobytes() == ((single + single.T) / 2.0).tobytes()
            assert inverses[r].tobytes() == estimation._pd_inverses(stack[r : r + 1])[0].tobytes()

    def test_identity_fallback_only_without_positive_definite_information(self):
        # A NaN slice is the information where Sigma is not positive definite.
        assert estimation._pd_inverses(np.full((1, 2, 2), np.nan)) == [None]
        assert estimation._pd_inverses(np.diag([1.0, -1.0])[None]) == [None]
        inverse = estimation._pd_inverses(np.array([[[4.0, 1.0], [1.0, 3.0]]]))[0]
        assert np.array_equal(inverse, inverse.T)
        assert np.allclose(inverse @ np.array([[4.0, 1.0], [1.0, 3.0]]), np.eye(2))

    def test_every_solve_starts_from_the_information(
        self, population_moments, free_pattern, monkeypatch, empty_memo
    ):
        starts = []
        minimize = estimation.minimize

        def record(*args, **kwargs):
            starts.append(kwargs["hess_inv0"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(estimation, "minimize", record)
        model = FactorModel.free_phi(free_pattern)
        solution = fit(model, build_one_step_constraints(free_pattern), population_moments)
        assert solution.converged
        assert starts
        for start in starts:
            assert start is not None
            np.linalg.cholesky(start)

    def test_scoring_steps_finish_a_stalled_solve(
        self, population, free_pattern, monkeypatch, empty_memo
    ):
        # Near the optimum F's rounding error can stall the line search; a
        # solve cut off after 3 BFGS iterations stands in for that stall.
        from bufcfa.simulation import draw_sample

        model = FactorModel.free_phi(free_pattern)
        cset = build_one_step_constraints(free_pattern)
        moments = draw_sample(population.sigma, 300, 5)[1]
        reference = fit(model, cset, moments)
        minimize = estimation.minimize

        def stall(*args, **kwargs):
            result = minimize(*args, **{**kwargs, "maxiter": 3})
            assert np.max(np.abs(result.jac)) > 1e-5
            return result

        monkeypatch.setattr(estimation, "minimize", stall)
        finished = fit(model, cset, moments)
        assert finished.converged
        assert finished.n_iterations > 3
        assert finished.f_min == pytest.approx(reference.f_min, abs=1e-9)
        assert np.max(np.abs(finished.lambda_hat - reference.lambda_hat)) < 1e-5


def convex_quadratic(n=6, seed=3):
    """F = z'Az/2 - b'z with the eigenvalues of A spread over [1, 4]."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.linspace(1.0, 4.0, n)) @ Q.T
    A = (A + A.T) / 2.0
    b = rng.standard_normal(n)
    return A, b, lambda z: (0.5 * z @ A @ z - b @ z, A @ z - b)


class TestMinimize:
    def test_exact_inverse_hessian_takes_one_iteration(self):
        A, b, objective = convex_quadratic()
        result = estimation.minimize(
            objective, np.zeros(6), hess_inv0=np.linalg.inv(A), gtol=1e-10, maxiter=50
        )
        assert result.nit == 1
        assert np.allclose(result.x, np.linalg.solve(A, b), atol=1e-12)

    def test_identity_start_converges_superlinearly(self):
        # Finite termination in n steps needs exact line searches; backtracking
        # from the full step takes 15 iterations here.  Steepest descent with
        # the same line search (no inverse update) takes 43.
        A, b, objective = convex_quadratic()
        result = estimation.minimize(objective, np.zeros(6), hess_inv0=None, gtol=1e-7, maxiter=50)
        assert np.max(np.abs(result.jac)) < 1e-7
        assert result.nit <= 3 * 6
        assert np.allclose(result.x, np.linalg.solve(A, b), atol=1e-6)

    def test_nfev_counts_every_objective_call(self):
        _, _, objective = convex_quadratic()
        calls = []

        def counted(z):
            calls.append(z)
            return objective(z)

        result = estimation.minimize(counted, np.zeros(6), hess_inv0=None, gtol=1e-7, maxiter=50)
        assert result.nfev == len(calls) > result.nit

    def test_maxiter_bounds_iterations(self):
        _, _, objective = convex_quadratic()
        result = estimation.minimize(objective, np.zeros(6), hess_inv0=None, gtol=1e-7, maxiter=2)
        assert result.nit == 2
        assert np.max(np.abs(result.jac)) > 1e-7

    def test_infeasible_trials_backtrack(self):
        # The full step from the origin lands at 4c, outside the ball of
        # radius 2|c| where the objective reports the infeasible value.
        c = np.array([0.3, -0.2, 0.1])
        infeasible = []

        def objective(z):
            if np.linalg.norm(z) > 2.0 * np.linalg.norm(c):
                infeasible.append(z)
                return estimation._INFEASIBLE_F, np.zeros_like(z)
            return 2.0 * (z - c) @ (z - c), 4.0 * (z - c)

        result = estimation.minimize(objective, np.zeros(3), hess_inv0=None, gtol=1e-10, maxiter=50)
        assert infeasible
        assert np.max(np.abs(result.jac)) < 1e-10
        assert np.allclose(result.x, c)

    def test_no_descent_stalls_without_raising(self):
        # A gradient that F does not follow: no step length passes.
        flat = estimation.minimize(
            lambda z: (1.0, np.ones_like(z)), np.zeros(4), hess_inv0=None, gtol=1e-7, maxiter=50
        )
        assert flat.nit == 0
        assert flat.nfev == estimation._MAX_HALVINGS + 2
        assert np.array_equal(flat.x, np.zeros(4))
        # An uphill direction stops before any trial step.
        _, _, objective = convex_quadratic()
        uphill = estimation.minimize(
            objective, np.zeros(6), hess_inv0=-np.eye(6), gtol=1e-7, maxiter=50
        )
        assert (uphill.nit, uphill.nfev) == (0, 1)


class TestBfgsStack:
    def test_rows_with_different_stops_equal_their_own_solves(self):
        # TestMinimize's objectives as one stack of six rows in six
        # dimensions: each stops for its own reason while the others run.
        A, b, quadratic = convex_quadratic()
        c = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0])

        def ball(z):
            if np.linalg.norm(z) > 2.0 * np.linalg.norm(c):
                return estimation._INFEASIBLE_F, np.zeros_like(z)
            return 2.0 * (z - c) @ (z - c), 4.0 * (z - c)

        # The identity row's gtol is looser than TestMinimize's, so that a
        # stack that read another row's tolerance would stop it elsewhere.
        rows = {  # objective, hess_inv0, gtol, maxiter
            "exact inverse Hessian": (quadratic, np.linalg.inv(A), 1e-10, 50),
            "identity start": (quadratic, None, 1e-4, 50),
            "maxiter 2": (quadratic, None, 1e-7, 2),
            "infeasible trials": (ball, None, 1e-10, 50),
            "no descent": (lambda z: (1.0, np.ones_like(z)), None, 1e-7, 50),
            "uphill": (quadratic, -np.eye(6), 1e-7, 50),
        }
        objectives_, inverses, gtols, maxiters = zip(*rows.values())
        evaluated = []

        def objectives(listed, Z):
            evaluated.append(listed.tolist())
            values = [objectives_[r](z) for r, z in zip(listed, Z)]
            return np.array([f for f, _ in values]), np.array([g for _, g in values])

        stacked = estimation._bfgs_stack(
            objectives, np.zeros((6, 6)), list(inverses), np.array(gtols), np.array(maxiters)
        )
        for (name, (objective, inverse, gtol, maxiter)), result in zip(rows.items(), stacked):
            alone = estimation.minimize(
                objective, np.zeros(6), hess_inv0=inverse, gtol=gtol, maxiter=maxiter
            )
            assert result.x.tobytes() == alone.x.tobytes(), name
            assert result.jac.tobytes() == alone.jac.tobytes(), name
            assert (result.nit, result.nfev) == (alone.nit, alone.nfev), name
        # The round in which each row was evaluated last: the uphill row
        # leaves before any trial and the exact row after one step; the
        # capped row and the ball's converged row leave in the same round,
        # and the flat row after every halving.
        last = [max(i for i, listed in enumerate(evaluated) if r in listed) for r in range(6)]
        assert last == [1, 13, 3, 3, estimation._MAX_HALVINGS + 1, 0]
        assert [result.nit for result in stacked][:3] == [1, 12, 2]
        assert 1e-7 < np.max(np.abs(stacked[1].jac)) < 1e-4
        assert np.max(np.abs(stacked[2].jac)) > 1e-7
        assert np.max(np.abs(stacked[3].jac)) < 1e-10 and np.allclose(stacked[3].x, c)
        assert (stacked[4].nit, stacked[5].nit, stacked[5].nfev) == (0, 0, 1)


def single_cell_refits(pattern, phi_spec):
    """Every model with one of the pattern's zero cells freed."""
    make = FactorModel.free_phi if phi_spec == "free" else (
        lambda p: FactorModel.fixed_phi(p, phi_spec)
    )
    zero_cells = zip(*np.nonzero(~pattern.free))
    return make(pattern), [make(pattern.with_cells_freed([cell])) for cell in zero_cells]


def moved_membership_models(pattern):
    """Free-phi ICM models with one variable moved to another factor."""
    models = []
    for v, f in zip(*np.nonzero(~pattern.free)):
        if v % 6 == 0:
            salient, free = np.array(pattern.salient), np.array(pattern.free)
            salient[v] = free[v] = False
            salient[v, f] = free[v, f] = True
            models.append(FactorModel.free_phi(LoadingPattern(salient, free)))
    return models


def far_off_start(data_dir, pattern):
    """The start of test_overflowing_trial_step_is_silent, with the ICM model
    and its moved-membership models: the ICM row's trial steps overflow psi
    and land on the non-PD path."""
    S = read_correlation_matrix(data_dir / "population_corr.dat").S
    _, moments = draw_sample(S, 60, np.random.SeedSequence([555, 26]))
    lam = np.where(pattern.salient, 0.05, 0.0)
    models = [FactorModel.free_phi(pattern)] + moved_membership_models(pattern)
    return moments, (lam, np.eye(3), np.full(18, 0.95)), models


def record_information_sizes(monkeypatch):
    """Parameter counts of every expected information taken from here on."""
    sizes = []
    information = estimation._expected_information

    def record(cells, pairs, lam, phi, psi):
        sizes.append(cells[0].size + pairs[0].size + psi.size)
        return information(cells, pairs, lam, phi, psi)

    monkeypatch.setattr(estimation, "_expected_information", record)
    return sizes


def assert_equal_to_serial_fits(solutions, models, moments, start):
    assert len(solutions) == len(models)
    for solution, model in zip(solutions, models):
        serial = fit(model, None, moments, start)
        assert solution.f_min == serial.f_min
        assert np.array_equal(solution.lambda_hat, serial.lambda_hat)
        assert np.array_equal(solution.phi_hat, serial.phi_hat)
        assert np.array_equal(solution.psi_hat, serial.psi_hat)
        assert solution.n_iterations == serial.n_iterations
        assert solution.converged == serial.converged


class TestFitEach:
    @pytest.mark.parametrize("phi_spec", ["free", 0.3])
    def test_refits_equal_serial_fits(self, population, icm_pattern, phi_spec):
        moments = SampleMoments(population.sigma, n=500)
        icm_model, refits = single_cell_refits(icm_pattern, phi_spec)
        icm_solution = fit(icm_model, None, moments)
        start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
        assert len(refits) == 36
        assert_equal_to_serial_fits(fit_each(refits, moments, start), refits, moments, start)

    @pytest.mark.parametrize("case", ["far-off start", "stalled row"])
    def test_rows_finish_in_different_rounds(self, case, data_dir, icm_pattern, monkeypatch):
        if case == "far-off start":
            moments, start, models = far_off_start(data_dir, icm_pattern)
        else:
            # Refit 3 of this sample stalls at F's rounding floor after 9
            # BFGS iterations: its last line search uses up every halving.
            # One scoring step finishes it.  Found by fitting this set-up on
            # seeds 0-1999 and keeping the rows whose BFGS ended with
            # max|g| >= GRADIENT_TOL: one refit each of seeds 285, 464 and 882.
            _, moments = draw_sample(balanced_population(3, 6, 0.6, 0.2, 0.3).sigma, 300, 285)
            icm_model, models = single_cell_refits(icm_pattern, 0.3)
            icm_solution = fit(icm_model, None, moments)
            start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
        rounds, overflowed, finishes = [], [], []
        evaluate, finish = estimation._discrepancy_and_gradient, estimation._Fits.finish

        def record(layout, lam, phi, psi, S):
            rounds.append(len(lam))
            overflowed.append(bool(np.isinf(psi).any()))
            return evaluate(layout, lam, phi, psi, S)

        def record_finish(fits, results):
            finished = finish(fits, results)
            finishes.extend(zip(results, finished))
            return finished

        monkeypatch.setattr(estimation, "_discrepancy_and_gradient", record)
        monkeypatch.setattr(estimation._Fits, "finish", record_finish)
        solutions = fit_each(models, moments, start)
        monkeypatch.undo()
        stacked = [size for size in rounds if size > 1]
        assert stacked[0] == len(models) and len(set(stacked)) > 2
        assert [result.nfev for result, _ in finishes] != [finishes[0][0].nfev] * len(models)
        if case == "far-off start":
            assert any(overflowed)
            assert solutions[0].n_iterations == 130
        else:
            result, finished = finishes[3]
            assert np.max(np.abs(result.jac)) >= estimation.GRADIENT_TOL
            assert result.nfev - 1 - result.nit > estimation._MAX_HALVINGS
            assert finished.gradient_norm < estimation.GRADIENT_TOL
            assert finished.n_iterations > result.nit
        assert all(solution.converged for solution in solutions)
        assert_equal_to_serial_fits(solutions, models, moments, start)

    @pytest.mark.parametrize("phi_spec", ["free", 0.3])
    def test_refits_share_one_start_information(
        self, population, icm_pattern, phi_spec, monkeypatch, empty_memo
    ):
        # Every refit starts at the ICM solution, its freed cell at zero: one
        # information over all 54 loadings, each row's submatrix bit for bit.
        _, moments = draw_sample(population.sigma, 300, np.random.SeedSequence([11, 0]))
        icm_model, refits = single_cell_refits(icm_pattern, phi_spec)
        icm_solution = fit(icm_model, None, moments)
        start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
        fits = estimation._Fits(refits, None, moments)
        Z0 = fits.start(start)
        sizes = record_information_sizes(monkeypatch)
        shared = fits.informations(range(len(refits)), Z0)
        union = 54 + (3 if phi_spec == "free" else 0) + 18
        assert sizes == [union]
        for r, model in enumerate(refits):
            own_fits = estimation._Fits([model], None, moments)
            z0 = own_fits.start(start)
            assert z0.tobytes() == Z0[r : r + 1].tobytes()
            own = own_fits.informations([0], z0)[0]
            assert shared[r].tobytes() == own.tobytes()
            np.linalg.cholesky(own)
        # A row whose uniquenesses move leaves the shared point.
        Z0[1, -1] += 0.1
        sizes.clear()
        moved = fits.informations(range(len(refits)), Z0)[1]
        own_fits = estimation._Fits([refits[1]], None, moments)
        assert sorted(sizes) == [refits[1].n_parameters, union - 1]
        assert moved.tobytes() == own_fits.informations([0], Z0[1:2])[0].tobytes()

    def test_rows_at_different_starts_take_separate_informations(
        self, data_dir, icm_pattern, monkeypatch, empty_memo
    ):
        # The ICM row starts at its own point.  The two rows that move one
        # variable both start with its loadings at zero, so they share one
        # information over 40 parameters; the three moved variables give three.
        moments, start, models = far_off_start(data_dir, icm_pattern)
        fits = estimation._Fits(models, None, moments)
        Z0 = fits.start(start)
        sizes = record_information_sizes(monkeypatch)
        stacked = fits.informations(range(len(models)), Z0)
        assert sizes == [39, 40, 40, 40]
        for r, model in enumerate(models):
            own_fits = estimation._Fits([model], None, moments)
            own = own_fits.informations([0], own_fits.start(start))[0]
            assert stacked[r].tobytes() == own.tobytes()

    def test_row_without_positive_definite_information_starts_from_identity(
        self, population, icm_pattern, monkeypatch
    ):
        # Factor 2's loadings start at zero.  Where it correlates .3 with the
        # others, its loadings still move Sigma; where it is uncorrelated,
        # they have zero derivatives, so that row's information is singular.
        _, moments = draw_sample(population.sigma, 300, np.random.SeedSequence([11, 0]))
        uncorrelated = np.full((3, 3), 0.3)
        uncorrelated[2, :2] = uncorrelated[:2, 2] = 0.0
        models = [
            FactorModel.fixed_phi(icm_pattern, 0.3),
            FactorModel.fixed_phi(icm_pattern, uncorrelated),
        ]
        lam = np.where(icm_pattern.salient, 0.6, 0.0)
        lam[:, 2] = 0.0
        start = lam, np.eye(3), np.full(18, 0.5)
        hess_inv0 = []
        bfgs_stack = estimation._bfgs_stack

        def record(objectives, Z0, inverses, *args):
            hess_inv0.extend(inverses)
            return bfgs_stack(objectives, Z0, inverses, *args)

        monkeypatch.setattr(estimation, "_bfgs_stack", record)
        solutions = fit_each(models, moments, start)
        monkeypatch.undo()
        assert hess_inv0[0] is not None and hess_inv0[1] is None
        assert all(solution.converged for solution in solutions)
        assert_equal_to_serial_fits(solutions, models, moments, start)

    def test_start_floors_the_uniquenesses(self, population_moments, icm_pattern, monkeypatch):
        # Uniquenesses below twice the floor start at twice the floor, whose
        # solver coordinate log(psi - floor) is log(floor).  fit's one row
        # starts the generator, and fit_each's rows the stacked state.
        starts = []
        bfgs, bfgs_stack = estimation._bfgs, estimation._bfgs_stack

        def record(z0, *args):
            starts.append(np.array(z0))
            return bfgs(z0, *args)

        def record_stack(objectives, Z0, *args):
            starts.extend(np.array(Z0))
            return bfgs_stack(objectives, Z0, *args)

        monkeypatch.setattr(estimation, "_bfgs", record)
        monkeypatch.setattr(estimation, "_bfgs_stack", record_stack)
        psi = np.full(18, 0.5)
        psi[[0, 7]] = 0.0, 1e-4
        lam = np.where(icm_pattern.salient, 0.6, 0.0)
        model = FactorModel.free_phi(icm_pattern)
        fit(model, None, population_moments, (lam, np.eye(3), psi))
        fit_each([model, model], population_moments, (lam, np.eye(3), psi))
        assert len(starts) == 3
        for z0 in starts:
            log_psi = z0[-18:]
            assert log_psi[[0, 7]].tolist() == [np.log(PSI_FLOOR)] * 2
            assert log_psi[1] == np.log(0.5 - PSI_FLOOR)

    def test_no_models(self, population_moments):
        assert fit_each([], population_moments) == []

    @pytest.mark.parametrize("bad", ["lambda", "phi", "psi"])
    def test_misshapen_start_rejected(self, population_moments, icm_pattern, bad):
        start = {"lambda": np.zeros((18, 3)), "phi": np.eye(3), "psi": np.ones(18)}
        start[bad] = {"lambda": np.zeros((18, 2)), "phi": np.eye(2), "psi": np.ones(17)}[bad]
        start = start["lambda"], start["phi"], start["psi"]
        model = FactorModel.free_phi(icm_pattern)
        with pytest.raises(StructureError, match="start does not match"):
            fit(model, None, population_moments, start)
        with pytest.raises(StructureError, match="start does not match"):
            fit_each([model, model], population_moments, start)

    def test_models_of_different_sizes_rejected(self, population_moments, icm_pattern):
        # One more loading, then one factor fewer.
        for other in (icm_pattern.with_cells_freed([(0, 1)]), block_pattern(2, 9, "zero")):
            models = [FactorModel.free_phi(icm_pattern), FactorModel.free_phi(other)]
            with pytest.raises(StructureError, match="one size"):
                fit_each(models, population_moments)

    def test_stacked_kernel_equals_stacks_of_one(self, icm_pattern):
        # One slice of the stack is not positive definite: it alone reads NaN.
        _, models = single_cell_refits(icm_pattern, "free")
        rng = np.random.default_rng(8)
        lam = np.stack([random_loadings(m.pattern, rng) for m in models[:5]])
        phi = np.stack([np.eye(3)] * 5)
        psi = rng.uniform(0.3, 0.6, size=(5, 18))
        phi[2] = np.full((3, 3), 1.5) - 0.5 * np.eye(3)
        S = implied_covariance(lam[0], phi[0], psi[0])
        layout = StackedLayout.of(models[:5])
        f, grad = estimation._discrepancy_and_gradient(layout, lam, phi, psi, S)
        assert np.isnan(f).tolist() == [False, False, True, False, False]
        for r, model in enumerate(models[:5]):
            one = lam[r : r + 1], phi[r : r + 1], psi[r : r + 1]
            f_r, grad_r = estimation._discrepancy_and_gradient(model.layout, *one, S)
            np.testing.assert_array_equal(f[r : r + 1], f_r)
            np.testing.assert_array_equal(grad[r : r + 1], grad_r)


def memo_case(case, icm_pattern, free_pattern):
    """The model and constraints of a cold fit, rebuilt from scratch on every call."""
    icm_pattern = LoadingPattern(icm_pattern.salient, icm_pattern.free)
    free_pattern = LoadingPattern(free_pattern.salient, free_pattern.free)
    weights = 0.6 + 0.01 * np.arange(18)
    return {
        "icm free phi": (FactorModel.free_phi(icm_pattern), None),
        "icm phi 0": (FactorModel.fixed_phi(icm_pattern, 0.0), None),
        "self-weighted phi 0": (
            FactorModel.fixed_phi(free_pattern, 0.0),
            build_one_step_constraints(free_pattern),
        ),
        "fixed weights": (
            FactorModel.fixed_phi(free_pattern, 0.3),
            build_fixed_weight_constraints(free_pattern, weights),
        ),
    }[case]


def assert_same_bits(solution, other):
    for name in ("lambda_hat", "phi_hat", "psi_hat", "constraint_residuals"):
        assert getattr(solution, name).tobytes() == getattr(other, name).tobytes(), name
    for name in ("f_min", "gradient_norm"):
        assert float(getattr(solution, name)).hex() == float(getattr(other, name)).hex(), name
    assert (solution.n_iterations, solution.converged) == (other.n_iterations, other.converged)


def record_recalls(monkeypatch):
    """Whether each cold fit from here on found its start in the memo."""
    hits = []
    recall = estimation._recall

    def record(key):
        entry = recall(key)
        hits.append(entry is not None)
        return entry

    monkeypatch.setattr(estimation, "_recall", record)
    return hits


def memo_arrays(value):
    """Every array in a memo entry's nest of tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = tuple(vars(value).values())
    return [a for item in value for a in memo_arrays(item)] if isinstance(value, tuple) else []


class TestColdStartMemo:
    CASES = ["icm free phi", "icm phi 0", "self-weighted phi 0", "fixed weights"]

    @pytest.mark.parametrize("case", CASES)
    def test_warm_hit_equals_cold_miss(
        self, case, population, icm_pattern, free_pattern, monkeypatch, empty_memo
    ):
        # The memo is filled from one sample and then read for another: the
        # start does not depend on the sample, so the hit gives the miss's bits.
        first, second = (draw_sample(population.sigma, 300, seed)[1] for seed in (21, 22))
        hits = record_recalls(monkeypatch)
        sizes = record_information_sizes(monkeypatch)
        fit(*memo_case(case, icm_pattern, free_pattern), first)
        warm = fit(*memo_case(case, icm_pattern, free_pattern), second)
        empty_memo.clear()
        cold = fit(*memo_case(case, icm_pattern, free_pattern), second)
        assert hits == [False, True, False]
        assert len(empty_memo) == 1
        assert_same_bits(warm, cold)
        assert warm.converged
        # Only the misses take the start's information (no fit needed scoring steps).
        assert len(sizes) == 2

    @pytest.mark.parametrize("case", CASES)
    def test_start_and_hit_make_the_same_constraint_calls(
        self, case, population_moments, icm_pattern, free_pattern, monkeypatch, empty_memo
    ):
        # The start point's pivots and Jacobian are taken once per fit, hit or miss.
        calls = []
        for name in ("evaluate_lambda", "constraint_jacobian"):
            original = getattr(estimation, name)

            def record(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(estimation, name, record)
        counts = []
        for _ in range(2):
            calls.clear()
            fit(*memo_case(case, icm_pattern, free_pattern), population_moments)
            counts.append(sorted(calls))
        assert counts[0] == counts[1]

    def test_one_differing_bit_gets_its_own_entry(
        self, population_moments, icm_pattern, free_pattern, monkeypatch, empty_memo
    ):
        moved = np.array(icm_pattern.salient)
        moved[0] = [False, True, False]
        one_phi = np.zeros((3, 3))
        one_phi[0, 1] = one_phi[1, 0] = 0.1
        weights = 0.6 + 0.01 * np.arange(18)
        last_bit, zero, negative_zero = weights.copy(), weights.copy(), weights.copy()
        last_bit[3] = np.nextafter(weights[3], 1.0)
        zero[3], negative_zero[3] = 0.0, -0.0
        fixed = FactorModel.fixed_phi(free_pattern, 0.3)
        cases = [
            (FactorModel.fixed_phi(icm_pattern, 0.0), None),
            (FactorModel.fixed_phi(LoadingPattern(moved, moved), 0.0), None),
            (FactorModel.fixed_phi(icm_pattern, one_phi), None),
            (FactorModel.fixed_phi(icm_pattern, -0.0), None),
        ] + [
            (fixed, build_fixed_weight_constraints(free_pattern, w))
            for w in (weights, last_bit, zero, negative_zero)
        ]
        hits = record_recalls(monkeypatch)
        for model, cset in cases:
            fit(model, cset, population_moments)
        assert hits == [False] * len(cases)
        assert len(empty_memo) == len(cases)
        for model, cset in cases:
            fit(model, cset, population_moments)
        assert hits[len(cases):] == [True] * len(cases)

    def test_cached_arrays_are_read_only(
        self, population_moments, icm_pattern, free_pattern, empty_memo
    ):
        for case in self.CASES:
            fit(*memo_case(case, icm_pattern, free_pattern), population_moments)
        for entry in empty_memo.values():
            arrays = memo_arrays(entry)
            assert any(a is entry.z0 for a in arrays) and any(a is entry.hess_inv0 for a in arrays)
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 1
        pivots = [entry.setup.pivots for entry in empty_memo.values() if entry.setup.pivots]
        assert len(pivots) == 2

    def test_stays_within_its_bound(
        self, population_moments, icm_pattern, monkeypatch, empty_memo
    ):
        # Room for three entries of this size: later fits push out the least
        # recently used, and an entry larger than the whole bound is not kept.
        models = [FactorModel.fixed_phi(icm_pattern, 0.05 * k) for k in range(6)]
        fit(models[0], None, population_moments)
        size = empty_memo[estimation._cold_key(models[0], None)].nbytes
        assert size > estimation._COLD_START_OVERHEAD + 36 * 36 * 8  # the inverse Hessian
        monkeypatch.setattr(estimation, "_COLD_START_BYTES", 3 * size + size // 2)
        for model in models[1:4]:
            fit(model, None, population_moments)
        fit(models[1], None, population_moments)  # a hit: now the most recent
        for model in models[4:]:
            fit(model, None, population_moments)
        kept = [estimation._cold_key(model, None) for model in (models[1], *models[4:])]
        assert list(empty_memo) == kept
        assert sum(entry.nbytes for entry in empty_memo.values()) <= estimation._COLD_START_BYTES
        monkeypatch.setattr(estimation, "_COLD_START_BYTES", size - 1)
        fit(FactorModel.fixed_phi(icm_pattern, 0.5), None, population_moments)
        assert empty_memo == {}

    def test_default_bound_holds_past_its_size(self, population_moments, free_pattern, empty_memo):
        # More distinct fixed-weight entries (66 solver parameters each) than
        # the bound holds.
        model = FactorModel.fixed_phi(free_pattern, 0.3)
        size = None
        for k in range(60):
            weights = 0.6 + 0.001 * k + np.zeros(18)
            fit(model, build_fixed_weight_constraints(free_pattern, weights), population_moments)
            size = size or next(iter(empty_memo.values())).nbytes
        assert 60 * size > estimation._COLD_START_BYTES
        assert len(empty_memo) < 60
        assert sum(entry.nbytes for entry in empty_memo.values()) <= estimation._COLD_START_BYTES

    def test_threads_share_the_memo(self, population_moments, icm_pattern, monkeypatch, empty_memo):
        # More threads than cores, each fitting models the others fit too,
        # under a bound of about three entries and a short switch interval:
        # every fit gives the serial bits and the bound holds at the end.
        models = [FactorModel.fixed_phi(icm_pattern, 0.05 * k) for k in range(6)]
        serial = [fit(model, None, population_moments) for model in models]
        size = next(iter(empty_memo.values())).nbytes
        monkeypatch.setattr(estimation, "_COLD_START_BYTES", 3 * size + size // 2)
        empty_memo.clear()
        errors, mismatches = [], []

        def work(offset):
            try:
                for k in range(40):
                    r = (offset + k) % len(models)
                    solution = fit(models[r], None, population_moments)
                    if solution.lambda_hat.tobytes() != serial[r].lambda_hat.tobytes():
                        mismatches.append(r)
            except Exception as exc:  # would be lost with the thread otherwise
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert sum(entry.nbytes for entry in empty_memo.values()) <= estimation._COLD_START_BYTES
