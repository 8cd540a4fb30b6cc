"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criterion 4 (misplaced-constraint rejection) checks that a deliberately
swapped constraint membership (x5<->x6, then x5<->x10, fixed phi .304,
weights from the ICM salients) is fitted to its true constrained optimum
and fits far worse than the correct membership: SRMR at least 10x and F
at least 100x larger.  The true optimum comes from an independent solver
in ``tests/nullspace_oracle.py`` that eliminates the linear constraints
through their null space and runs unconstrained BFGS from several random
starts; the fit must match it to 1e-6 in F and 1e-4 in SRMR.

The criterion as first written asked for SRMR in [0.125, 0.155].  Nothing
in the repository says where that band comes from: ``PAPER.md`` holds only
the abstract.  The stated setup cannot reach it.  Its optimum is SRMR
.058 (F .0799), reached by the fit from the ICM starts, by the fit from
40 noisy population starts, and by the elimination solver from every
start with positive salients.  The other local minima, SRMR .164, .201
and .237, are sign reflections: the elimination solver reaches them
from starts whose salients on factor 3, factor 1 or factor 2 are negated,
which fixed positive correlations penalize.  Two other readings of
"misplaced" miss the band too: the same swap with free phi reaches .000,
because rotation absorbs it, and with self-weighted constraints .045.
"""

import dataclasses
import time

import numpy as np
import pytest

from bufcfa.constraints import (
    build_fixed_weight_constraints,
    build_one_step_constraints,
    buffered_quality_index,
    swap_members,
)
from bufcfa.estimation import FEASIBILITY_TOL, SampleMoments, fit, ml_discrepancy, ml_gradient
from bufcfa.fit_indices import degrees_of_freedom, rmsea, srmr
from bufcfa.model import (
    CellRole,
    FactorModel,
    LoadingPattern,
    implied_covariance,
    unpack,
)
from bufcfa.procedures import multi_step, one_step
from bufcfa.simulation import (
    GridSpec,
    balanced_population,
    block_pattern,
    run_grid,
)
from nullspace_oracle import elimination_optimum


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}  {detail}")
    return ok


@pytest.fixture(scope="module")
def desk_grid():
    grid = GridSpec(
        salient_sizes=(0.6,),
        nonsalient_sizes=(0.0, 0.10, 0.20),
        phi_values=(0.0,),
        sample_sizes=(300, 900),
        replications=100,
        master_seed=20240501,
    )
    start = time.perf_counter()
    summaries, records = run_grid(grid)
    elapsed = time.perf_counter() - start
    return summaries, records, elapsed


def test_criterion_1_icm_population_example(population, population_moments, icm_pattern):
    start = time.perf_counter()
    model = FactorModel.free_phi(icm_pattern)
    solution = fit(model, None, population_moments)
    elapsed = time.perf_counter() - start
    salients = np.array(
        [solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
    )
    phis = solution.phi_hat[np.tril_indices(3, -1)]
    srmr_value = srmr(
        population.sigma,
        implied_covariance(solution.lambda_hat, solution.phi_hat, solution.psi_hat),
    )
    ok = (
        solution.converged
        and bool(np.all((salients >= 0.590) & (salients <= 0.600)))
        and bool(np.all((phis >= 0.299) & (phis <= 0.309)))
        and 0.068 <= srmr_value <= 0.078
        and elapsed < 5.0
    )
    assert report(
        1,
        "icm population example",
        ok,
        f"salient={salients.mean():.4f} phi={phis.mean():.4f} "
        f"srmr={srmr_value:.4f} time={elapsed:.2f}s",
    )


def test_criterion_2_one_step_population_example(population, population_moments, icm_pattern):
    start = time.perf_counter()
    trace = one_step(icm_pattern, "free", population_moments)
    elapsed = time.perf_counter() - start
    solution = trace.final.solution
    lam = solution.lambda_hat
    salient_ok = True
    secondary_ok = True
    for i in range(18):
        for j in range(3):
            if icm_pattern.cells[i, j] is CellRole.SALIENT_FREE:
                salient_ok &= abs(lam[i, j] - 0.600) <= 0.01
            else:
                target = np.sign(population.lam[i, j]) * 0.149
                secondary_ok &= abs(lam[i, j] - target) <= 0.01
    phis = solution.phi_hat[np.tril_indices(3, -1)]
    ok = (
        trace.converged
        and trace.final.report.srmr <= 0.01
        and salient_ok
        and secondary_ok
        and bool(np.all(np.abs(phis - 0.304) <= 0.01))
        and elapsed < 30.0
    )
    assert report(
        2,
        "one-step population example",
        ok,
        f"srmr={trace.final.report.srmr:.2e} "
        f"max|lam-pop|={np.max(np.abs(lam - population.lam)):.2e} time={elapsed:.2f}s",
    )


def test_criterion_3_multi_step_progression(population_moments, icm_pattern):
    trace = multi_step(icm_pattern, population_moments, weight_tol=1e-4, max_rounds=10)
    steps = trace.steps
    step1 = np.array(
        [steps[0].solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
    )
    step2 = np.array(
        [steps[1].solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
    )
    ok = (
        trace.converged
        and len(steps) == 3
        and bool(np.all(np.abs(step1 - 0.595) < 0.005))
        and bool(np.all(np.abs(step2 - 0.600) < 0.005))
        and steps[2].weight_gap < 1e-4
    )
    assert report(
        3,
        "multi-step progression",
        ok,
        f"steps={len(steps)} step1={step1.mean():.4f} step2={step2.mean():.4f} "
        f"final_gap={steps[-1].weight_gap:.2e}",
    )


def test_criterion_4_misplaced_constraint_rejection(population, population_moments, free_pattern, icm_pattern):
    """Swapped constraint membership is fitted exactly and fits clearly worse.

    Setup: fixed phi .304, weights from the ICM salients, ICM starts, and
    the swap x5<->x6 then x5<->x10.  The swapped fit must be feasible, must
    reach the optimum found independently by null-space elimination, and
    must fit far worse than the same setup with correct membership.
    """
    icm_model = FactorModel.free_phi(icm_pattern)
    icm_solution = fit(icm_model, None, population_moments)
    weights = np.array(
        [icm_solution.lambda_hat[i, icm_pattern.salient_factor(i)] for i in range(18)]
    )
    cset = build_fixed_weight_constraints(free_pattern, weights)
    swapped = swap_members(cset, [(4, 5), (4, 9)])  # x5<->x6, then x5<->x10
    model = FactorModel.fixed_phi(free_pattern, 0.304)
    start = icm_solution.lambda_hat, icm_solution.phi_hat, icm_solution.psi_hat
    solution = fit(model, swapped, population_moments, start)
    correct = fit(model, cset, population_moments, start)
    oracle = elimination_optimum(model, swapped, population.sigma)

    def srmr_of(lam, phi, psi):
        return srmr(population.sigma, implied_covariance(lam, phi, psi))

    srmr_value = srmr_of(solution.lambda_hat, solution.phi_hat, solution.psi_hat)
    srmr_oracle = srmr_of(oracle.lambda_hat, model.phi_fixed, oracle.psi_hat)
    srmr_correct = srmr_of(correct.lambda_hat, correct.phi_hat, correct.psi_hat)
    ok = (
        solution.converged
        and solution.max_constraint_residual < FEASIBILITY_TOL
        and abs(solution.f_min - oracle.f_min) <= 1e-6
        and abs(srmr_value - srmr_oracle) <= 1e-4
        and correct.converged
        and srmr_value >= 10 * srmr_correct
        and solution.f_min >= 100 * correct.f_min
    )
    assert report(
        4,
        "misplaced-constraint rejection",
        ok,
        f"swapped f={solution.f_min:.6f} srmr={srmr_value:.4f} "
        f"resid={solution.max_constraint_residual:.1e}; "
        f"oracle f={oracle.f_min:.6f} srmr={srmr_oracle:.4f}; "
        f"correct f={correct.f_min:.2e} srmr={srmr_correct:.4f}",
    )


def test_criterion_5_degrees_of_freedom():
    icm30 = FactorModel.free_phi(block_pattern(5, 6, "zero"))
    free30 = FactorModel.free_phi(block_pattern(5, 6, "free"))
    cons30 = build_one_step_constraints(block_pattern(5, 6, "free"))
    free18 = FactorModel.free_phi(block_pattern(3, 6, "free"))
    cons18 = build_one_step_constraints(block_pattern(3, 6, "free"))
    df_icm = degrees_of_freedom(icm30, None)
    df_con = degrees_of_freedom(free30, cons30)
    df_18 = degrees_of_freedom(free18, cons18)
    p, q = 18, 3
    ok = (
        df_icm == 395
        and df_con == 295
        and df_18 == 102
        and df_18 == ((p - q) ** 2 - (p + q)) // 2
    )
    assert report(5, "df arithmetic", ok, f"395={df_icm} 295={df_con} 102={df_18}")


def test_criterion_6_rmsea_regression():
    moderate = rmsea(925.17, 295, 587)
    poor = rmsea(3430.07, 395, 587)
    ok = 0.0599 <= moderate <= 0.0609 and 0.113 <= poor <= 0.115
    assert report(6, "rmsea regression", ok, f"moderate={moderate:.4f} poor={poor:.4f}")


def test_criterion_7_simulation_desk_scale(desk_grid):
    # Sub-criterion (a) is checked on the salient-cell RMSD (the accuracy
    # measure both estimators share; charging the independent-clusters fit
    # for its 36 structural zeros at anl=0 would compare 18 estimated cells
    # against 54).  Sub-criterion (b) is checked on the all-cells RMSD,
    # where the structural zeros are exactly the specification error the
    # comparison is about.
    summaries, _, elapsed = desk_grid
    by_cell = {(s.nonsalient, s.n): s for s in summaries}
    checks = []

    # (a) matched accuracy when the population has no secondary loadings
    for n in (300, 900):
        s = by_cell[(0.0, n)]
        ratio = max(s.icm_salient_rmsd_mean, s.buffered_salient_rmsd_mean) / min(
            s.icm_salient_rmsd_mean, s.buffered_salient_rmsd_mean
        )
        checks.append(ratio < 1.2)

    # (b) independent-clusters estimation degrades at anl = .20
    for n in (300, 900):
        s = by_cell[(0.20, n)]
        checks.append(s.icm_loading_rmsd_mean >= 1.5 * s.buffered_loading_rmsd_mean)

    # (c) mean RMSEA: balanced fits acceptable everywhere, icm poor for anl >= .10
    for s in summaries:
        checks.append(s.buffered_rmsea_mean < 0.05)
        if s.nonsalient >= 0.10:
            checks.append(s.icm_rmsea_mean > 0.05)

    checks.append(elapsed < 1800.0)
    ok = all(checks)
    detail = "; ".join(
        f"anl={s.nonsalient:.2f},n={s.n}: rmsd(all) {s.icm_loading_rmsd_mean:.3f}/"
        f"{s.buffered_loading_rmsd_mean:.3f} rmsd(salient) {s.icm_salient_rmsd_mean:.3f}/"
        f"{s.buffered_salient_rmsd_mean:.3f} rmsea {s.icm_rmsea_mean:.3f}/"
        f"{s.buffered_rmsea_mean:.3f}"
        for s in summaries
    )
    assert report(7, "simulation desk scale", ok, f"time={elapsed:.0f}s; {detail}")


def test_simulation_invariant_accuracy_profile(desk_grid):
    # Desk-scale restatement of the accuracy profile across anl at fixed
    # (l, phi, n): balanced estimation stays nearly constant while the
    # independent-clusters error over all loading cells grows severalfold.
    summaries, _, _ = desk_grid
    for n in (300, 900):
        cells = {s.nonsalient: s for s in summaries if s.n == n}
        buf = [cells[a].buffered_loading_rmsd_mean for a in (0.0, 0.10, 0.20)]
        assert max(buf) / min(buf) < 1.5
        assert cells[0.20].icm_loading_rmsd_mean >= 2.0 * cells[0.0].icm_loading_rmsd_mean


def test_criterion_8a_gradient_versus_finite_differences(population):
    pattern = block_pattern(3, 4, "free")
    model = FactorModel.free_phi(pattern)
    pop = balanced_population(3, 4, 0.6, 0.15, 0.3)
    S = pop.sigma
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        theta = np.concatenate(
            [
                rng.uniform(-0.6, 0.6, size=model.n_free_loadings),
                rng.uniform(-0.2, 0.2, size=model.n_free_phi),
                rng.uniform(0.4, 0.9, size=model.p),
            ]
        )
        grad = ml_gradient(model, theta, S)
        fd = np.zeros_like(grad)
        for k in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            fd[k] = (
                ml_discrepancy(S, implied_covariance(*unpack(model, up)))
                - ml_discrepancy(S, implied_covariance(*unpack(model, down)))
            ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd))))
    ok = worst < 1e-6
    assert report(8, "analytic gradient vs finite differences", ok, f"max_err={worst:.2e}")


def test_criterion_8b_nesting_monotonicity(population_moments, icm_pattern, free_pattern):
    icm_model = FactorModel.fixed_phi(icm_pattern, 0.304)
    icm_solution = fit(icm_model, None, population_moments)
    buf_model = FactorModel.fixed_phi(free_pattern, 0.304)
    cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
    buf_solution = fit(buf_model, cset, population_moments)
    ok = (
        icm_solution.converged
        and buf_solution.converged
        and buf_solution.f_min <= icm_solution.f_min + 1e-9
    )
    assert report(
        8,
        "icm-feasibility nesting",
        ok,
        f"f_buffered={buf_solution.f_min:.3e} <= f_icm={icm_solution.f_min:.3e}",
    )


def test_criterion_8c_exact_recovery_round_trips():
    worst_f, worst_param = 0.0, 0.0
    for (l, anl, phi) in [(0.6, 0.15, 0.3), (0.8, 0.2, 0.0), (0.5, 0.1, 0.3)]:
        pop = balanced_population(3, 4, l, anl, phi)
        pattern = block_pattern(3, 4, "free")
        model = (
            FactorModel.free_phi(pattern) if phi != 0.0 else FactorModel.fixed_phi(pattern, 0.0)
        )
        cset = build_one_step_constraints(pattern)
        solution = fit(model, cset, SampleMoments(pop.sigma))
        assert solution.converged
        worst_f = max(worst_f, solution.f_min)
        worst_param = max(worst_param, float(np.max(np.abs(solution.lambda_hat - pop.lam))))
    ok = worst_f < 1e-8 and worst_param < 1e-3
    assert report(
        8, "exact recovery round trips", ok, f"max_f={worst_f:.2e} max_param_err={worst_param:.2e}"
    )


def test_criterion_8d_quality_zero_on_balanced_populations():
    worst = 0.0
    pattern = block_pattern(3, 6)
    for l in (0.6, 0.8):
        for anl in (0.0, 0.05, 0.10, 0.15, 0.20):
            for phi in (0.0, 0.3):
                pop = balanced_population(3, 6, l, anl, phi)
                worst = max(worst, buffered_quality_index(pop.lam, pattern))
    ok = worst < 1e-12
    assert report(8, "balanced populations perfectly buffered", ok, f"max_quality={worst:.2e}")


def test_criterion_8e_deterministic_grid_replay():
    grid = GridSpec((0.6,), (0.0, 0.2), (0.3,), (300,), replications=4, master_seed=31)
    s1, r1 = run_grid(grid)
    s2, r2 = run_grid(grid)
    ok = [dataclasses.asdict(a) for a in s1] == [dataclasses.asdict(b) for b in s2] and [
        dataclasses.asdict(a) for a in r1
    ] == [dataclasses.asdict(b) for b in r2]
    assert report(8, "deterministic grid replay", ok, f"cells={len(s1)} records={len(r1)}")
