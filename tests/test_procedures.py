import dataclasses

import numpy as np
import pytest

import bufcfa.procedures as procedures
from bufcfa.errors import StructureError
from bufcfa.estimation import SampleMoments
from bufcfa.model import CellRole, LoadingPattern
from bufcfa.modelspec import parse_model_spec
from bufcfa.procedures import icm, multi_step, one_step, specification_search
from bufcfa.simulation import balanced_population, block_pattern, draw_sample
from efa_oracle import efa_optimum

# Exact one-cell refits give modification indices near 8 on this population
# at n = 500 (score-test approximations run higher); the search threshold in
# these tests is scaled to the refit values.
REFIT_MI_THRESHOLD = 5.0


@pytest.fixture(scope="module")
def icm_population_moments():
    pop = balanced_population(3, 6, 0.6, 0.0, 0.3)
    return pop, SampleMoments(pop.sigma, n=500)


class TestOneStep:
    def test_converges_on_sample_that_stalled(self, data_dir):
        # One of 300 n = 300 samples of the shipped population on which the
        # fit once ended feasible but one decade short of its gradient tolerance.
        from bufcfa.io import read_correlation_matrix

        sigma = read_correlation_matrix(data_dir / "population_corr.dat").S
        data = np.random.default_rng([91, 1, 0]).standard_normal((300, 18))
        data = data @ np.linalg.cholesky(sigma).T
        R = np.corrcoef(data, rowvar=False)
        trace = one_step(block_pattern(3, 6, "zero"), "free", SampleMoments((R + R.T) / 2, 300))
        assert trace.converged
        assert trace.final.solution.max_constraint_residual <= 1e-12

    def test_population_recovery(self, population, population_moments, icm_pattern):
        trace = one_step(icm_pattern, "free", population_moments)
        assert trace.converged
        assert len(trace.steps) == 1
        assert trace.final.report.srmr <= 0.01
        assert np.max(np.abs(trace.final.solution.lambda_hat - population.lam)) < 0.01
        off = trace.final.solution.phi_hat[np.tril_indices(3, -1)]
        assert np.all(np.abs(off - 0.304) < 0.01)

    def test_icm_data_gives_near_zero_secondaries(self, icm_pattern, icm_population_moments):
        _, moments = icm_population_moments
        trace = one_step(icm_pattern, "free", moments)
        assert trace.converged
        lam = trace.final.solution.lambda_hat
        secondary = np.array(
            [
                lam[i, j]
                for i in range(18)
                for j in range(3)
                if j != icm_pattern.salient_factor(i)
            ]
        )
        assert np.max(np.abs(secondary)) < 1e-2

    def test_orthogonal_fixed_phi_is_testable(self, icm_pattern):
        pop = balanced_population(3, 6, 0.6, 0.1, 0.0)
        trace = one_step(icm_pattern, 0.0, SampleMoments(pop.sigma, n=300))
        assert trace.converged
        assert trace.final.report.df == 105  # above the just-identified 102

    def test_quality_index_of_balanced_solution(self, population_moments, icm_pattern):
        trace = one_step(icm_pattern, "free", population_moments)
        assert trace.quality_index < 1e-6


class TestOneStepIsExploratory:
    """With free phi, one-step fits the unrestricted q-factor (EFA) model.

    The q unit variances and q(q - 1) balance constraints are the q^2
    restrictions a rotation needs, so F and df equal the EFA's and only
    the common part Lambda Phi Lambda' is comparable (``tests/efa_oracle.py``).
    """

    @pytest.fixture(scope="class")
    def samples(self):
        pop = balanced_population(3, 6, 0.6, 0.2, 0.3)
        return [draw_sample(pop.sigma, 300, np.random.SeedSequence([777, s]))[1] for s in range(4)]

    def test_matches_efa_oracle(self, data_dir, samples):
        doc = parse_model_spec((data_dir / "one_step.model").read_text())
        assert doc.procedure == "one-step" and doc.phi_value() == "free"
        q = len(doc.factors)
        for moments in samples:
            trace = one_step(doc.pattern("zero"), doc.phi_value(), moments)
            oracle = efa_optimum(moments.S, q)
            assert trace.converged
            assert oracle.gradient_norm < 1e-6
            solution = trace.final.solution
            assert solution.f_min == pytest.approx(oracle.f_min, abs=1e-8)
            assert trace.final.report.df == oracle.df == 102
            common = solution.lambda_hat @ solution.phi_hat @ solution.lambda_hat.T
            assert np.max(np.abs(common - oracle.lambda_hat @ oracle.lambda_hat.T)) < 1e-5
            fixed = one_step(doc.pattern("zero"), 0.3, moments)
            assert fixed.final.report.df == oracle.df + q * (q - 1) // 2 == 105


class TestMultiStep:
    def test_population_progression(self, population_moments, icm_pattern):
        trace = multi_step(icm_pattern, population_moments, weight_tol=1e-4)
        assert trace.converged
        assert len(trace.steps) == 3
        labels = [s.label for s in trace.steps]
        assert labels[0] == "icm"
        step1 = np.array(
            [
                trace.steps[0].solution.lambda_hat[i, icm_pattern.salient_factor(i)]
                for i in range(18)
            ]
        )
        assert np.all(np.abs(step1 - 0.595) < 0.005)
        step2 = np.array(
            [
                trace.steps[1].solution.lambda_hat[i, icm_pattern.salient_factor(i)]
                for i in range(18)
            ]
        )
        assert np.all(np.abs(step2 - 0.600) < 0.005)
        assert trace.steps[1].weight_gap > 1e-4
        assert trace.steps[2].weight_gap < 1e-4

    def test_icm_data_stops_immediately(self, icm_pattern, icm_population_moments):
        _, moments = icm_population_moments
        trace = multi_step(icm_pattern, moments, weight_tol=1e-4)
        assert trace.converged
        assert len(trace.steps) == 2  # weights already match the estimates

    def test_infinite_tolerance_gives_two_steps(self, population_moments, icm_pattern):
        trace = multi_step(icm_pattern, population_moments, weight_tol=np.inf)
        assert len(trace.steps) == 2
        assert trace.converged

    def test_external_weights_skip_initial_fit(self, population, population_moments, icm_pattern):
        trace = multi_step(
            icm_pattern,
            population_moments,
            initial_weights=np.full(18, 0.6),
            phi_fix=0.304,
        )
        assert trace.converged
        assert trace.steps[0].label != "icm"
        assert np.max(np.abs(trace.final.solution.lambda_hat - population.lam)) < 0.01

    def test_external_weights_require_fixed_phi(self, population_moments, icm_pattern):
        with pytest.raises(StructureError):
            multi_step(icm_pattern, population_moments, initial_weights=np.full(18, 0.6))

    def test_improper_icm_correlation_ends_unconverged(self, improper_icm_corr):
        # No fixed-phi model holds a correlation of 1.333: the trace stops
        # after the initial fit instead of raising StructureError.
        trace = multi_step(block_pattern(3, 4), SampleMoments(improper_icm_corr, n=300))
        assert not trace.converged
        assert [step.label for step in trace.steps] == ["icm"]
        icm_solution = trace.steps[0].solution
        assert icm_solution.converged
        assert icm_solution.phi_hat[0, 1] == pytest.approx(4 / 3, abs=1e-4)

    def test_max_rounds_validated(self, population_moments, icm_pattern):
        with pytest.raises(StructureError):
            multi_step(icm_pattern, population_moments, max_rounds=1)

    def test_matches_one_step_structure(self, population_moments, icm_pattern):
        # Both procedures realize the same balanced structure.  The final
        # multi-step model fixes the correlations at the initial-fit values
        # (here .304 vs the population .300), so its minimized discrepancy
        # stays slightly above the just-identified one-step optimum.
        ms = multi_step(icm_pattern, population_moments)
        os_ = one_step(icm_pattern, "free", population_moments)
        assert os_.final.solution.f_min <= ms.final.solution.f_min + 1e-9
        assert os_.final.solution.f_min < 1e-8
        assert ms.final.report.srmr <= 0.01 and os_.final.report.srmr <= 0.01
        assert np.max(
            np.abs(ms.final.solution.lambda_hat - os_.final.solution.lambda_hat)
        ) < 0.01


class TestSpecificationSearch:
    def test_population_search_frees_cells(self, population):
        moments = SampleMoments(population.sigma, n=500)
        pattern = block_pattern(3, 6, "zero")
        trace = specification_search(
            pattern, moments, mi_threshold=REFIT_MI_THRESHOLD, max_freed_per_factor=3
        )
        assert trace.converged
        assert len(trace.steps) == 2
        assert 0.04 <= trace.final.report.srmr <= 0.08
        # freed secondaries make salient loadings visibly unequal within blocks
        lam = trace.final.solution.lambda_hat
        salients = np.array([lam[i, pattern.salient_factor(i)] for i in range(18)])
        spread = max(
            salients[block, ].max() - salients[block, ].min()
            for block in (slice(0, 6), slice(6, 12), slice(12, 18))
        )
        assert spread > 0.05

    def test_never_frees_salient_and_respects_budget(self, population):
        moments = SampleMoments(population.sigma, n=500)
        pattern = block_pattern(3, 6, "zero")
        trace = specification_search(
            pattern, moments, mi_threshold=REFIT_MI_THRESHOLD, max_freed_per_factor=3
        )
        final_pattern = trace.pattern
        freed_per_factor = {j: 0 for j in range(3)}
        for i in range(18):
            for j in range(3):
                before = pattern.cells[i, j]
                after = final_pattern.cells[i, j]
                if before is CellRole.SALIENT_FREE:
                    assert after is CellRole.SALIENT_FREE
                elif before is CellRole.FIXED_ZERO and after is CellRole.NONSALIENT_FREE:
                    freed_per_factor[j] += 1
        assert all(v <= 3 for v in freed_per_factor.values())
        assert any(v > 0 for v in freed_per_factor.values())

    def test_icm_data_frees_nothing(self, icm_pattern, icm_population_moments):
        _, moments = icm_population_moments
        trace = specification_search(
            icm_pattern, moments, mi_threshold=REFIT_MI_THRESHOLD, max_freed_per_factor=3
        )
        assert trace.converged
        assert max(mi for _, _, mi in trace.mi_table) < REFIT_MI_THRESHOLD
        assert np.array_equal(trace.pattern.cells, icm_pattern.cells)
        assert trace.final.solution is trace.steps[0].solution

    def test_zero_budget_is_noop(self, population, icm_pattern):
        moments = SampleMoments(population.sigma, n=500)
        trace = specification_search(
            icm_pattern, moments, mi_threshold=0.0, max_freed_per_factor=0
        )
        assert np.array_equal(trace.pattern.cells, icm_pattern.cells)

    def test_negative_budget_rejected_before_any_fit(self, population, icm_pattern, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(procedures, "fit", no_fit)
        with pytest.raises(StructureError, match="max_freed_per_factor"):
            specification_search(
                icm_pattern, SampleMoments(population.sigma, n=500), max_freed_per_factor=-1
            )

    def test_requires_sample_size(self, population_moments, icm_pattern):
        with pytest.raises(StructureError, match="sample size"):
            specification_search(icm_pattern, population_moments)

    def test_refits_start_from_icm_solution(self, population, icm_pattern, monkeypatch):
        received = []
        real_fit = procedures.fit
        real_fit_each = procedures.fit_each

        def record(model, constraints, moments, start=None):
            received.append(start)
            return real_fit(model, constraints, moments, start)

        def record_each(models, moments, start=None):
            received.extend(start for _ in models)
            return real_fit_each(models, moments, start)

        monkeypatch.setattr(procedures, "fit", record)
        monkeypatch.setattr(procedures, "fit_each", record_each)
        trace = specification_search(
            icm_pattern, SampleMoments(population.sigma, n=500),
            mi_threshold=REFIT_MI_THRESHOLD,
        )
        icm_solution = trace.steps[0].solution
        assert received[0] is None
        refits = received[1:1 + len(trace.mi_table)]
        assert len(refits) == 36
        for lam, phi, psi in refits:
            assert lam is icm_solution.lambda_hat
            assert phi is icm_solution.phi_hat
            assert psi is icm_solution.psi_hat
        assert received[-1][0] is icm_solution.lambda_hat

    def test_refit_nonconvergence_is_not_silent(self, population, icm_pattern, monkeypatch):
        real_fit_each = procedures.fit_each

        def third_refit_fails(models, moments, start=None):
            solutions = real_fit_each(models, moments, start)
            solutions[2] = dataclasses.replace(solutions[2], converged=False)
            return solutions

        monkeypatch.setattr(procedures, "fit_each", third_refit_fails)
        trace = specification_search(
            icm_pattern, SampleMoments(population.sigma, n=500),
            mi_threshold=REFIT_MI_THRESHOLD,
        )
        assert all(step.solution.converged for step in trace.steps)
        assert not trace.converged

    def test_deterministic_tie_break(self, population):
        # the symmetric population makes indices tie within half-blocks;
        # selection must follow (factor, then variable) order
        moments = SampleMoments(population.sigma, n=500)
        pattern = block_pattern(3, 6, "zero")
        a = specification_search(pattern, moments, mi_threshold=REFIT_MI_THRESHOLD)
        b = specification_search(pattern, moments, mi_threshold=REFIT_MI_THRESHOLD)
        assert np.array_equal(a.pattern.cells, b.pattern.cells)


class TestIcmProcedure:
    def test_single_step_trace(self, population_moments, icm_pattern):
        trace = icm(icm_pattern, "free", population_moments)
        assert len(trace.steps) == 1
        assert trace.procedure == "icm"
        assert trace.converged


@pytest.fixture(scope="module")
def sample_moments(population):
    from bufcfa.simulation import draw_sample

    return draw_sample(population.sigma, 300, 2024)[1]


def standardized(solution):
    """Loadings and uniquenesses rescaled to unit model-implied variances."""
    lam, phi, psi = solution.lambda_hat, solution.phi_hat, solution.psi_hat
    scale = np.sqrt(np.einsum("ij,jk,ik->i", lam, phi, lam) + psi)
    return lam / scale[:, None], psi / scale**2


class TestMetamorphic:
    @pytest.mark.parametrize("procedure", [icm, one_step])
    def test_permuting_variables_and_factors(self, procedure, sample_moments, icm_pattern):
        rng = np.random.default_rng(41)
        rows = rng.permutation(18)
        cols = np.array([2, 0, 1])
        permuted = LoadingPattern(icm_pattern.cells[np.ix_(rows, cols)])
        moments = SampleMoments(sample_moments.S[np.ix_(rows, rows)], n=sample_moments.n)
        a = procedure(icm_pattern, "free", sample_moments).final.solution
        b = procedure(permuted, "free", moments).final.solution
        assert a.converged and b.converged
        assert b.f_min == pytest.approx(a.f_min, abs=1e-9)
        assert np.max(np.abs(b.lambda_hat - a.lambda_hat[np.ix_(rows, cols)])) < 1e-5
        assert np.max(np.abs(b.phi_hat - a.phi_hat[np.ix_(cols, cols)])) < 1e-5
        assert np.max(np.abs(b.psi_hat - a.psi_hat[rows])) < 1e-5

    @pytest.mark.parametrize("procedure", ["icm", "search"])
    def test_rescaling_variables(self, procedure, sample_moments, icm_pattern):
        # Balance constraints weight raw loadings, so only the unconstrained
        # procedures are invariant under D S D.
        d = np.random.default_rng(42).uniform(0.5, 2.0, size=18)
        rescaled = SampleMoments(d[:, None] * sample_moments.S * d, n=sample_moments.n)
        if procedure == "icm":
            a = icm(icm_pattern, "free", sample_moments)
            b = icm(icm_pattern, "free", rescaled)
        else:
            a = specification_search(icm_pattern, sample_moments, mi_threshold=REFIT_MI_THRESHOLD)
            b = specification_search(icm_pattern, rescaled, mi_threshold=REFIT_MI_THRESHOLD)
            assert np.array_equal(a.pattern.cells, b.pattern.cells)
            assert np.allclose([mi for *_, mi in b.mi_table], [mi for *_, mi in a.mi_table],
                               rtol=0, atol=1e-5)
        sa, sb = a.final.solution, b.final.solution
        assert a.converged and b.converged
        assert sb.f_min == pytest.approx(sa.f_min, abs=1e-9)
        lam_a, psi_a = standardized(sa)
        lam_b, psi_b = standardized(sb)
        assert np.max(np.abs(lam_b - lam_a)) < 1e-5
        assert np.max(np.abs(psi_b - psi_a)) < 1e-5
        assert np.max(np.abs(sb.phi_hat - sa.phi_hat)) < 1e-5
