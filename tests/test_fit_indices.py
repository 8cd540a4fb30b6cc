import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufcfa.constraints import build_one_step_constraints
from bufcfa.errors import NotTestableError, StructureError
from bufcfa.estimation import SampleMoments
from bufcfa.fit_indices import baseline_fit, cfi, degrees_of_freedom, rmsea, srmr
from bufcfa.model import FactorModel
from bufcfa.procedures import icm
from bufcfa.simulation import block_pattern


class TestDegreesOfFreedom:
    def test_thirty_variable_icm(self):
        pattern = block_pattern(5, 6, "zero")
        model = FactorModel.free_phi(pattern)
        assert degrees_of_freedom(model, None) == 395

    def test_thirty_variable_constrained(self):
        pattern = block_pattern(5, 6, "free")
        model = FactorModel.free_phi(pattern)
        cset = build_one_step_constraints(pattern)
        assert len(cset) == 20
        assert degrees_of_freedom(model, cset) == 295

    def test_one_step_matches_exploratory_formula(self):
        pattern = block_pattern(3, 6, "free")
        model = FactorModel.free_phi(pattern)
        cset = build_one_step_constraints(pattern)
        df = degrees_of_freedom(model, cset)
        p, q = 18, 3
        assert df == 102
        assert df == ((p - q) ** 2 - (p + q)) // 2

    def test_negative_df_rejected(self):
        pattern = block_pattern(2, 2, "free")  # p=4: 10 moments, 12 free params
        model = FactorModel.free_phi(pattern)
        with pytest.raises(NotTestableError):
            degrees_of_freedom(model, None)


class TestSrmr:
    def test_zero_at_equality(self):
        S = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert srmr(S, S) == 0.0

    def test_single_residual_oracle(self):
        S = np.array([[1.0, 0.4], [0.4, 1.0]])
        sigma = np.array([[1.0, 0.1], [0.1, 1.0]])
        # residual 0.3 in one of three lower-triangle cells
        assert srmr(S, sigma) == pytest.approx(np.sqrt(0.09 / 3), abs=1e-14)

    def test_diagonal_cells_standardized(self):
        S = np.diag([4.0, 1.0])
        sigma = np.diag([2.0, 1.0])
        # diagonal residual (4-2)/4 = .5; three cells total
        assert srmr(S, sigma) == pytest.approx(np.sqrt(0.25 / 3), abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(StructureError):
            srmr(np.eye(2), np.eye(3))


class TestRmsea:
    def test_exact_fit_floor(self):
        assert rmsea(100.0, 100, 500) == 0.0
        assert rmsea(50.0, 100, 500) == 0.0  # chi2 below df clamps to zero

    def test_reported_value_moderate(self):
        assert rmsea(925.17, 295, 587) == pytest.approx(0.06037665467069431, abs=1e-12)
        assert 0.0599 <= rmsea(925.17, 295, 587) <= 0.0609

    def test_reported_value_poor(self):
        assert rmsea(3430.07, 395, 587) == pytest.approx(0.11450830870629884, abs=1e-12)
        assert 0.113 <= rmsea(3430.07, 395, 587) <= 0.115

    def test_monotone_in_chi_square(self):
        values = [rmsea(x, 100, 300) for x in (100, 150, 200, 400)]
        assert values == sorted(values)

    def test_preconditions(self):
        with pytest.raises(StructureError):
            rmsea(10.0, 0, 100)
        with pytest.raises(StructureError):
            rmsea(10.0, 5, 1)


class TestCfi:
    def test_perfect_fit(self):
        assert cfi(100.0, 100, 500.0, 120) == 1.0

    def test_half_ratio(self):
        # model excess 50 is half the baseline excess 100
        assert cfi(150.0, 100, 301.0, 201) == pytest.approx(0.5)

    def test_requires_baseline_df_above_model_df(self):
        with pytest.raises(StructureError):
            cfi(10.0, 5, 20.0, 5)

    @given(
        st.floats(0.0, 1e4),
        st.integers(1, 400),
        st.floats(0.0, 1e4),
        st.integers(401, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, chi2, df, b_chi2, b_df):
        assert 0.0 <= cfi(chi2, df, b_chi2, b_df) <= 1.0


class TestBaseline:
    def test_diagonal_matrix_gives_zero(self):
        m = SampleMoments(np.diag([1.0, 2.0, 3.0]), n=100)
        chi2, df = baseline_fit(m)
        assert chi2 == pytest.approx(0.0, abs=1e-10)
        assert df == 3

    def test_two_variable_closed_form(self):
        m = SampleMoments(np.array([[1.0, 0.5], [0.5, 1.0]]), n=101)
        chi2, df = baseline_fit(m)
        assert chi2 == pytest.approx(28.76820724517809, abs=1e-10)
        assert df == 1

    def test_df_for_thirty_variables(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 30))
        S = np.corrcoef(a, rowvar=False)
        S = (S + S.T) / 2
        _, df = baseline_fit(SampleMoments(S, n=100))
        assert df == 435

    def test_requires_n(self):
        with pytest.raises(StructureError):
            baseline_fit(SampleMoments(np.eye(2)))

    def test_computed_once_per_sample(self, monkeypatch):
        # The chi-square of ln|R| taken from slogdet, as before it was kept,
        # bit for bit; a second call reads the kept value.
        rng = np.random.default_rng(1)
        m = SampleMoments(np.corrcoef(rng.standard_normal((100, 6)), rowvar=False), n=100)
        d = np.sqrt(np.diag(m.S))
        _, logdet = np.linalg.slogdet(m.S / np.outer(d, d))
        expected = float(max((m.n - 1) * (-logdet), 0.0))
        assert baseline_fit(m)[0].hex() == expected.hex()

        def no_slogdet(matrix):
            raise AssertionError("baseline recomputed")

        monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
        assert baseline_fit(m)[0].hex() == expected.hex()


class TestBuildReport:
    def test_population_run_reports_srmr_only(self, population_moments, icm_pattern):
        trace = icm(icm_pattern, "free", population_moments)
        report = trace.final.report
        assert report.chi_square is None
        assert report.rmsea is None
        assert report.cfi is None
        assert report.n is None
        assert 0.068 <= report.srmr <= 0.078

    def test_sample_run_reports_everything(self, population, icm_pattern):
        moments = SampleMoments(population.sigma, n=500)
        trace = icm(icm_pattern, "free", moments)
        report = trace.final.report
        assert report.n == 500
        assert report.chi_square == pytest.approx(499 * trace.final.solution.f_min)
        assert report.df == 132
        assert report.rmsea is not None and report.rmsea > 0
        assert 0.0 <= report.cfi <= 1.0
        assert report.baseline_df == 153

    def test_cfi_high_for_well_specified_model(self, icm_pattern):
        # data drawn from a clean independent-clusters population: the
        # correctly specified model should sit far above the baseline
        from bufcfa.simulation import balanced_population, draw_sample

        pop = balanced_population(3, 6, 0.6, 0.0, 0.3)
        values = []
        for seed in range(5):
            _, moments = draw_sample(pop.sigma, 300, seed)
            trace = icm(icm_pattern, "free", moments)
            values.append(trace.final.report.cfi)
        assert np.mean(values) > 0.95
