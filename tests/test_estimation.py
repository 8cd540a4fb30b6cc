import dataclasses
import warnings

import numpy as np
import pytest

from bufcfa.constraints import (
    BalanceConstraint,
    ConstraintMode,
    ConstraintSet,
    build_fixed_weight_constraints,
    build_one_step_constraints,
    choose_pivots,
    evaluate_lambda,
    swap_members,
)
from bufcfa import estimation
from bufcfa.errors import NumericalError, StructureError
from bufcfa.estimation import SampleMoments, fit, ml_discrepancy, ml_gradient
from bufcfa.model import (
    CellRole,
    FactorModel,
    LoadingPattern,
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


def reversed_members(cset):
    return ConstraintSet(
        cset.mode,
        tuple(
            BalanceConstraint(
                c.block, c.unwanted, c.members[::-1], c.weights and c.weights[::-1]
            )
            for c in cset.constraints
        ),
    )


def two_var_model():
    pattern = LoadingPattern(
        np.array([[CellRole.SALIENT_FREE], [CellRole.SALIENT_FREE]], dtype=object)
    )
    return FactorModel.free_phi(pattern)


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
                    rng.uniform(-0.6, 0.6, size=model.n_free_loadings),
                    rng.uniform(-0.2, 0.2, size=model.n_free_phi),
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
        mask = np.array(
            [
                [icm_pattern.cells[i, j] is CellRole.FIXED_ZERO for j in range(3)]
                for i in range(18)
            ]
        )
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
        assert np.all(solution.psi_hat > model.psi_floor)

    def test_invalid_model_rejected(self):
        cells = np.full((4, 2), CellRole.FIXED_ZERO, dtype=object)
        cells[:, 0] = CellRole.SALIENT_FREE
        model = FactorModel.free_phi(LoadingPattern(cells))
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
        lam = np.where(icm_pattern.cells == CellRole.SALIENT_FREE, 0.05, 0.0)
        start = lam, np.eye(3), np.full(18, 0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = fit(FactorModel.free_phi(icm_pattern), None, moments, start)
        assert any(overflowed)
        assert solution.converged
        assert solution.n_iterations == 129
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
                cset.mode,
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
            ConstraintMode.FIXED_WEIGHTS,
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


def random_loadings(pattern, rng):
    """Salients in [.5, .8] and secondaries in [-.2, .2] on the free cells."""
    lam = np.zeros((pattern.p, pattern.q))
    lam[pattern.cells == CellRole.SALIENT_FREE] = rng.uniform(0.5, 0.8, size=pattern.p)
    secondary = pattern.cells == CellRole.NONSALIENT_FREE
    lam[secondary] = rng.uniform(-0.2, 0.2, size=int(secondary.sum()))
    return lam


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
        info = estimation._expected_information(model, *unpack(model, theta))
        hessian = central_difference_hessian(lambda t: ml_gradient(model, t, S), theta)
        assert info.shape == (model.n_parameters, model.n_parameters)
        assert np.max(np.abs(info - hessian)) < 1e-6 * np.max(np.abs(hessian))

    def test_equals_hessian_in_solver_coordinates(self, free_pattern, monkeypatch):
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

        captured = {}
        solve = estimation._quasi_newton

        def capture(objective, information, z0):
            captured.update(objective=objective, information=information, z0=z0)
            return solve(objective, information, z0)

        monkeypatch.setattr(estimation, "_quasi_newton", capture)
        fit(model, cset, SampleMoments(S), (lam, phi, psi))
        objective, z0 = captured["objective"], captured["z0"]
        assert z0.size == model.n_parameters - len(cset)
        assert np.max(np.abs(objective(z0)[1])) < 1e-12
        info = captured["information"](z0)
        hessian = central_difference_hessian(lambda z: objective(z)[1], z0)
        assert np.max(np.abs(info - hessian)) < 1e-6 * np.max(np.abs(hessian))

    def test_none_where_sigma_is_not_positive_definite(self, icm_pattern):
        model = FactorModel.free_phi(icm_pattern)
        lam = np.where(icm_pattern.cells == CellRole.SALIENT_FREE, 0.6, 0.0)
        phi = np.full((3, 3), 1.5)
        np.fill_diagonal(phi, 1.0)
        assert estimation._expected_information(model, lam, phi, np.full(18, 0.01)) is None

    def test_identity_fallback_only_without_positive_definite_information(self):
        assert estimation._pd_inverse(None) is None
        assert estimation._pd_inverse(np.diag([1.0, -1.0])) is None
        inverse = estimation._pd_inverse(np.array([[4.0, 1.0], [1.0, 3.0]]))
        assert np.array_equal(inverse, inverse.T)
        assert np.allclose(inverse @ np.array([[4.0, 1.0], [1.0, 3.0]]), np.eye(2))

    def test_every_solve_starts_from_the_information(
        self, population_moments, free_pattern, monkeypatch
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

    def test_scoring_steps_finish_a_stalled_solve(self, population, free_pattern, monkeypatch):
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
