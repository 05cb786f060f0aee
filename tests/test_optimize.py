import dataclasses
import math
import warnings

import numpy as np
import pytest

from lne import (
    ConstraintSet,
    ConvergenceError,
    DegenerateConstraintError,
    EntropyParams,
    InfeasibleError,
    SolverConfig,
    escort,
    lne,
    log_norm,
    normalized_q_expectation,
    q_exp,
    solve_maxent,
    solve_minxent,
)
from lne.crossent import lnce
from lne.optimize import _log_weights, _newton_solve
from oracle import oracle_maxent

CFG = SolverConfig()


def residuals(sol, cset, beta):
    e = escort(sol.p, beta)
    return np.array([abs(float(e @ g) - t) for g, t in zip(cset.g, cset.targets)])


class TestNormalizedQExpectation:
    def test_uniform_symmetry(self):
        for q in (0.5, 1.0, 3.0):
            v = normalized_q_expectation([1 / 3] * 3, [0.0, 1.0, 2.0], q)
            assert v == pytest.approx(1.0, abs=1e-13)

    def test_ordinary_mean_at_q_one(self):
        assert normalized_q_expectation([0.8, 0.2], [0.0, 1.0], 1.0) == pytest.approx(0.2)

    def test_escort_mean(self):
        v = normalized_q_expectation([0.8, 0.2], [0.0, 1.0], 2.0)
        assert v == pytest.approx(0.04 / 0.68, abs=1e-13)

    def test_scale_invariant(self):
        v1 = normalized_q_expectation([0.8, 0.2], [0.0, 1.0], 2.0)
        v2 = normalized_q_expectation([8.0, 2.0], [0.0, 1.0], 2.0)
        assert v1 == pytest.approx(v2, abs=1e-14)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            normalized_q_expectation([0.5, 0.5], [0.0, 1.0], 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"g has shape \(3,\), expected \(2,\)"):
            normalized_q_expectation([0.5, 0.5], [0.0, 1.0, 2.0], 2.0)


class TestConstraintValidation:
    def test_constant_g_distinct_error(self):
        with pytest.raises(DegenerateConstraintError):
            ConstraintSet([[1.0, 1.0, 1.0]], [1.0])

    def test_target_outside_range(self):
        with pytest.raises(InfeasibleError):
            ConstraintSet([[0.0, 1.0, 2.0]], [2.5])
        with pytest.raises(InfeasibleError):
            ConstraintSet([[0.0, 1.0, 2.0]], [0.0])  # boundary is not interior

    def test_q_index_must_match_beta(self):
        # the expectation index is always the solve's beta: no field to set
        with pytest.raises(TypeError, match="q_index"):
            ConstraintSet([[0.0, 1.0]], [0.4], q_index=1.0)

    def test_rejects_three_dimensional_g(self):
        with pytest.raises(ValueError, match="g must be a list of m utility vectors"):
            ConstraintSet([[[0.0, 1.0]]], [0.4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="g contains non-finite entries"):
            ConstraintSet([[0.0, bad, 1.0]], [0.4])
        with pytest.raises(ValueError, match="targets contain non-finite entries"):
            ConstraintSet([[0.0, 1.0]], [bad])

    def test_constraints_of_the_wrong_type(self):
        with pytest.raises(TypeError, match="constraints must be a ConstraintSet or None"):
            solve_maxent(2, ([[0.0, 1.0]], [0.4]), (2.0, 1.0), CFG)

    def test_shape_mismatches(self):
        with pytest.raises(ValueError):
            ConstraintSet([[0.0, 1.0]], [0.4, 0.5])
        with pytest.raises(ValueError):
            solve_maxent(3, ConstraintSet([[0.0, 1.0]], [0.4]), (2.0, 1.0), CFG)

    def test_n_must_be_a_positive_integer(self):
        # int() would truncate 2.7 to 2 and solve a smaller problem
        with pytest.raises(ValueError, match="n must be a positive integer"):
            solve_maxent(2.7, None, (2.0, 1.0), CFG)
        for n in (3, 3.0, np.int64(3)):
            sol = solve_maxent(n, None, (2.0, 1.0), CFG)
            np.testing.assert_array_equal(sol.p, np.full(3, 1 / 3))

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 2.7])
    def test_solver_config_rejects_non_finite_max_iter(self, bad):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=bad)

    def test_solver_config_has_only_live_knobs(self):
        names = tuple(f.name for f in dataclasses.fields(SolverConfig))
        assert names == ("tol_residual", "max_iter")
        cfg = SolverConfig()
        assert cfg.restarts == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.restarts = 1
        for removed in ("damping", "fd_step", "restarts", "seed"):
            with pytest.raises(TypeError):
                SolverConfig(**{removed: 0})

    def test_solver_config_keeps_integral_max_iter(self):
        assert SolverConfig(max_iter=7.0).max_iter == 7
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


class TestMaxEnt:
    def test_unconstrained_is_exactly_uniform(self):
        sol = solve_maxent(5, None, (1.7, 0.4), CFG)
        np.testing.assert_array_equal(sol.p, np.full(5, 0.2))
        assert sol.branch == "power_law" and sol.Z == 5.0
        assert sol.lambdas.size == 0 and sol.report.converged

    def test_target_at_uniform_mean_gives_uniform(self):
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [1.0])
        sol = solve_maxent(3, cset, (1.0, 1.0), CFG)
        np.testing.assert_allclose(sol.p, 1 / 3, atol=1e-12)
        assert abs(sol.lambdas[0]) <= 1e-10
        assert sol.branch == "exponential"

    def test_derived_case_analytic_and_oracle(self):
        # alpha=2, beta=1: the stationary distribution is affine in g and
        # solvable by hand: p = (13, 10, 7)/30
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [0.8])
        prm = EntropyParams(2.0, 1.0)
        sol = solve_maxent(3, cset, prm, CFG)
        np.testing.assert_allclose(sol.p, np.array([13.0, 10.0, 7.0]) / 30.0, atol=1e-12)
        assert residuals(sol, cset, 1.0).max() <= 1e-10
        oracle = oracle_maxent(3, cset, prm, 1.5e-4)
        assert np.max(np.abs(oracle - sol.p)) <= 1e-2
        assert abs(float(lne(oracle, prm)) - float(lne(sol.p, prm))) <= 1e-3

    # the MaxEnt law with its cutoff, the MBG exponential and the power law's
    # diagonal limit are stated in lne.checks.  With p = C exp_q(s) unclamped,
    # p^d sum p^b / sum p^a = (1 + d s) / (1 + d lambda . R): the law and R = 0
    # give the plug-back identity
    def test_plug_back_stationarity(self, check_at_seeds):
        check_at_seeds("solvers")

    def test_mbg_branch_collinearity(self, check_at_seeds):
        check_at_seeds("solvers")

    def test_branch_limit_continuity(self, check_at_seeds):
        check_at_seeds("solvers")

    def test_two_constraints(self):
        g1 = [0.0, 1.0, 2.0, 3.0]
        g2 = [1.0, 0.0, 1.0, 0.0]
        cset = ConstraintSet([g1, g2], [1.4, 0.55])
        prm = EntropyParams(2.0, 1.0)
        sol = solve_maxent(4, cset, prm, CFG)
        assert residuals(sol, cset, 1.0).max() <= 1e-10
        pt = sol.p / math.exp(log_norm(sol.p, 1.0))
        lhs = pt / np.sum(pt**2.0)
        rhs = 1.0 + sol.lambdas @ (cset.g - cset.targets[:, None])
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        # the coarse n=4 oracle (residual band 0.1) only sanity-checks:
        # its relaxed feasible set can beat the exact solver by O(band)
        oracle = oracle_maxent(4, cset, prm, 1e-2)
        assert np.max(np.abs(oracle - sol.p)) <= 5e-2
        assert abs(float(lne(sol.p, prm)) - float(lne(oracle, prm))) <= 5e-2

    def test_clamped_states_reported(self):
        # an extreme target pushes the smallest bracket through zero
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [1.9])
        sol = solve_maxent(3, cset, (3.0, 1.0), CFG)
        assert residuals(sol, cset, 1.0).max() <= 1e-10
        assert sol.p[0] == 0.0
        assert 0 in sol.report.clamped_states

    def test_clamped_states_on_a_long_vector(self):
        # from 2048 states on, the clamped states' -inf log weights take
        # the exp pass that keeps underflowing lanes off numpy's slow path
        n = 4096
        cset = ConstraintSet([np.linspace(0.0, 2.0, n)], [1.9])
        sol = solve_maxent(n, cset, (3.0, 1.0), CFG)
        assert len(sol.report.clamped_states) > n // 2
        assert residuals(sol, cset, 1.0).max() <= 1e-10

    @pytest.mark.parametrize(
        "g, targets",
        [
            ([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]], [0.9, 0.9]),
            ([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]], [2.5, 2.5]),
        ],
    )
    @pytest.mark.parametrize("orders", [(2.0, 1.0), (1.0, 2.0), (1.5, 1.5)])
    def test_jointly_infeasible_targets(self, g, targets, orders):
        # each target lies inside its own row's range, but no distribution
        # meets both: the solver must certify that, not run out of steps
        cset = ConstraintSet(g, targets)
        with pytest.raises(InfeasibleError, match="jointly unreachable"):
            solve_maxent(len(g[0]), cset, orders, CFG)

    def test_non_convergence_carries_best_report(self):
        # two constraints (no scalar fallback) and a one-iteration budget
        cset = ConstraintSet([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0]], [2.1, 0.3])
        tiny = SolverConfig(max_iter=1)
        with pytest.raises(ConvergenceError) as exc:
            solve_maxent(4, cset, (3.0, 1.0), tiny)
        assert exc.value.report.converged is False
        assert exc.value.best.p.shape == (4,)
        assert exc.value.report.final_residual_norm > 1e-10

    def test_step_that_clamps_every_state_is_infeasible(self):
        # jointly unreachable targets, where a trial step clamps all four
        # states: log G is -inf there, the step is taken, and the next
        # iteration certifies the targets as unreachable
        g = [[1.2, 1.4, -1.3, 0.6], [1.3, 0.9, -0.9, -1.4], [-0.1, -0.5, 0.0, -0.1]]
        cset = ConstraintSet(g, [-0.65, 0.08, -0.06])
        with pytest.raises(InfeasibleError, match="every state clamps"):
            solve_maxent(4, cset, (4.5, 0.8), CFG)

    def test_underflowing_weights_fail_their_residual(self):
        # at beta = 1e-5 the log weights of the solution spread past the
        # float range: every weight but one underflows, so p misses the
        # target that the iterate met, and Z overflows
        cset = ConstraintSet([[0.0, 1.0, 2.0, 3.0, 4.0]], [1.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as exc:
                solve_maxent(5, cset, (1e-5, 1e-5), CFG)
        best = exc.value.best
        assert best.Z == math.inf and best.p.tolist().count(0.0) == 4
        assert best.report.final_residual_norm == pytest.approx(residuals(best, cset, 1e-5).max())
        assert best.report.final_residual_norm > CFG.tol_residual

    @pytest.mark.parametrize(
        "beta",
        [
            1e-310,  # the 1x1 Newton matrix is subnormal and the step overflows
            5e-324,  # it underflows to 0, and the least-squares step is 0
        ],
    )
    def test_degenerate_newton_step_leaves_the_start_point(self, beta):
        # a non-finite or a zero step stops the iteration before its first
        # step, at the start point; neither warns
        cset = ConstraintSet([[0.0, 1.0, 2.0, 3.0, 4.0]], [1.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as exc:
                solve_maxent(5, cset, (beta, beta), CFG)
        best = exc.value.best
        np.testing.assert_array_equal(best.lambdas, [0.0])
        np.testing.assert_array_equal(best.p, np.full(5, 0.2))
        assert best.report.final_residual_norm == pytest.approx(0.3, abs=1e-15)
        assert best.report.iterations == 0

    def test_no_acceptable_step_stops_before_max_iter(self):
        # escort weight ~ bracket^(beta/d) with beta/d = 0.005: meeting the
        # target needs a bracket ratio of 9^200, which no float multiplier
        # reaches.  State 0 sits at its clamp boundary, and once no step of
        # 60 halvings passes the line search the iteration stops
        cset = ConstraintSet([[0.0, 1.0]], [0.9])
        with pytest.raises(ConvergenceError) as exc:
            solve_maxent(2, cset, (40.0, 0.2), CFG)
        rep = exc.value.report
        assert 0 < rep.iterations < CFG.max_iter
        assert rep.clamped_states == (0,)
        assert rep.final_residual_norm == pytest.approx(0.1, abs=1e-12)


class TestMinXEnt:
    def test_no_constraints_returns_normalized_prior(self):
        sol = solve_minxent([0.3, 0.7], None, (1.3, 2.2), CFG)
        np.testing.assert_allclose(sol.p, [0.3, 0.7], atol=1e-15)
        sol = solve_minxent([3.0, 7.0], None, (1.0, 1.0), CFG)
        np.testing.assert_allclose(sol.p, [0.3, 0.7], atol=1e-15)

    def test_uniform_prior_duality(self, check_at_seeds):
        # stated in lne.checks, over random problems with m <= 2
        check_at_seeds("solvers")

    def test_exponential_tilt_against_bisection(self):
        # alpha = beta = 1: p ~ prior * exp(lam * (g - G)) with the scalar
        # lam fixed by the plain mean; bisect the monotone residual
        prior = np.array([0.7, 0.2, 0.1])
        g = np.array([0.0, 1.0, 2.0])
        target = 1.0
        cset = ConstraintSet([g], [target])
        sol = solve_minxent(prior, cset, (1.0, 1.0), CFG)

        def mean_resid(lam):
            w = prior * np.exp(lam * (g - target))
            p = w / w.sum()
            return float(g @ p) - target

        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mean_resid(mid) < 0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        w = prior * np.exp(lam * (g - target))
        np.testing.assert_allclose(sol.p, w / w.sum(), atol=1e-9)
        assert float(g @ sol.p) == pytest.approx(target, abs=1e-10)

    def test_alpha_below_beta_exact_stationary_solution(self):
        # g is built from the stationarity condition of a chosen p*, so p*
        # is the exact answer; with alpha < beta no state may clamp
        p_star = np.array([0.22, 0.22, 0.20, 0.22, 0.14])
        p_star /= p_star.sum()
        prior = np.array([0.30, 0.18, 0.10, 0.27, 0.15])
        prior /= prior.sum()
        alpha, beta = 0.8, 2.7
        d = alpha - beta
        G, lam = -0.85, 0.5
        e = p_star**beta / np.sum(p_star**beta)
        c = (e @ prior**d) / (e @ p_star**d)
        s = (c * p_star**d - prior**d) / d
        sol = solve_minxent(prior, ConstraintSet([G + s / lam], [G]), (alpha, beta), CFG)
        assert sol.report.clamped_states == ()
        np.testing.assert_allclose(sol.p, p_star, rtol=0.0, atol=1e-9)

    def test_prior_zero_rejected_when_alpha_below_beta(self):
        # no longer rejected: a zero-prior state takes p = 0 exactly, on either
        # side of the diagonal.  The support {0, 2} has two states, so the
        # constraint alone fixes the beta-escort at (0.4, 0.6)
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [1.2])
        for alpha, beta in ((1.0, 2.0), (2.0, 1.0)):
            sol = solve_minxent([0.5, 0.0, 0.5], cset, (alpha, beta), CFG)
            assert sol.p[1] == 0.0 and sol.report.clamped_states == ()
            p = np.array([0.4, 0.0, 0.6]) ** (1 / beta)
            np.testing.assert_allclose(sol.p, p / p.sum(), rtol=0.0, atol=1e-12)
            assert residuals(sol, cset, beta).max() <= 1e-10

    def test_prior_zero_on_the_diagonal_keeps_zero_probability(self):
        # exponential branch: p ~ prior * exp(lam * (g - G)), so the zero
        # prior stays at zero and the other two meet the plain mean
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [0.8])
        sol = solve_minxent([0.5, 0.5, 0.0], cset, (1.0, 1.0), CFG)
        assert sol.branch == "exponential" and sol.report.clamped_states == ()
        assert sol.p[2] == 0.0
        np.testing.assert_allclose(sol.p, [0.2, 0.8, 0.0], atol=1e-12)


class TestZeroPrior:
    """A zero-prior state takes p = 0: the solve runs on the prior's support
    and puts p back on all states."""

    @pytest.mark.parametrize("orders", [(2.0, 1.0), (3.0, 0.5), (1.0, 2.0), (1.0, 1.0)])
    def test_target_outside_the_support_range_is_infeasible(self, orders):
        # g is (0, 1) on the support, so 1.2 is unreachable in every branch
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [1.2])
        with pytest.raises(InfeasibleError, match=r"prior's support \[0, 1\]"):
            solve_minxent([0.5, 0.5, 0.0], cset, orders, CFG)

    def test_alpha_above_beta_stays_in_the_domain_of_lnce(self):
        prior = [0.3, 0.0, 0.7]
        sol = solve_minxent(prior, ConstraintSet([[0.0, 1.0, 2.0]], [1.2]), (2.0, 1.0), CFG)
        assert sol.p[1] == 0.0
        np.testing.assert_allclose(sol.p, [0.4, 0.0, 0.6], rtol=0.0, atol=1e-12)
        assert math.isfinite(float(lnce(sol.p, prior, (2.0, 1.0))))

    def test_reports_use_the_callers_state_numbers(self):
        prior = [0.2, 0.3, 0.0, 0.5]
        cset = ConstraintSet([[0.0, 1.0, 5.0, 3.0]], [0.5])
        sol = solve_minxent(prior, cset, (4.0, 0.5), CFG)
        assert sol.report.clamped_states == (1,) and sol.p[2] == 0.0
        assert residuals(sol, cset, 0.5).max() <= 1e-10
        with pytest.raises(ConvergenceError) as info:
            solve_minxent(prior, cset, (4.0, 0.5), SolverConfig(max_iter=1))
        best = info.value.best
        assert best.p.shape == (4,) and best.p[2] == 0.0
        assert best.report.clamped_states == (1, 3)

    def test_row_constant_on_the_support(self):
        prior = [0.5, 0.5, 0.0, 0.0]
        with pytest.raises(DegenerateConstraintError):
            solve_minxent(prior, ConstraintSet([[1.0, 1.0, 0.0, 2.0]], [1.0]), (2.0, 1.0), CFG)
        with pytest.raises(InfeasibleError, match="support"):
            solve_minxent(prior, ConstraintSet([[1.0, 1.0, 0.0, 2.0]], [1.5]), (2.0, 1.0), CFG)

    def test_positive_prior_keeps_its_bits(self):
        # a zero-prior state is cut off before the solve, so the rest keeps its bits
        prior = np.array([0.2, 0.3, 0.5])
        cset = ConstraintSet([[0.0, 1.0, 2.0]], [1.1])
        a = solve_minxent(prior, cset, (2.5, 1.2), CFG)
        cset4 = ConstraintSet([[0.0, 1.0, 2.0, 7.0]], [1.1])
        b = solve_minxent(np.append(prior, 0.0), cset4, (2.5, 1.2), CFG)
        assert a.p.tobytes() == b.p[:3].tobytes() and b.p[3] == 0.0
        assert a.lambdas.tobytes() == b.lambdas.tobytes()


class TestNearDiagonal:
    """Every pair off the diagonal, however close, takes the power-law
    branch, and p is the bracket form at the returned multipliers."""

    @pytest.mark.parametrize("d", [1e-12, -1e-12, 1e-9, -1e-9, 5e-9, -5e-9])
    @pytest.mark.parametrize("minxent", [False, True])
    def test_power_law_bracket_at_lambdas(self, d, minxent):
        import mpmath

        beta = 1.5
        g = np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 0.5, 2.0, -2.0]])
        t = np.array([0.05, 0.3, 0.2, 0.25, 0.2]) ** beta
        cset = ConstraintSet(g, g @ t / t.sum())
        prior = np.array([0.1, 0.3, 0.2, 0.25, 0.15]) if minxent else np.ones(5)
        params = (beta + d, beta)
        if minxent:
            sol = solve_minxent(prior, cset, params, CFG)
        else:
            sol = solve_maxent(5, cset, params, CFG)
        assert sol.branch == "power_law"
        assert residuals(sol, cset, beta).max() <= 1e-10
        with mpmath.workdps(60):
            dm = mpmath.mpf(beta + d) - beta
            s = [
                sum(mpmath.mpf(lam) * (mpmath.mpf(gr[i]) - mpmath.mpf(gt))
                    for lam, gr, gt in zip(sol.lambdas, g, cset.targets))
                for i in range(5)
            ]
            w = [(mpmath.mpf(q) ** dm + dm * si) ** (1 / dm) for q, si in zip(prior, s)]
            ref = [wi / mpmath.fsum(w) for wi in w]
            err = max(abs((mpmath.mpf(pi) - ri) / ri) for pi, ri in zip(sol.p, ref))
        assert err <= 1e-12, err


class TestGaussianGrid:
    """The paper's headline on a line: under normalized q-expectation
    constraints on the mean and the second moment, MaxEnt gives a
    Gaussian on the diagonal and a q-Gaussian p ~ exp_q(l1 x + l2 (x^2 -
    var)) off it, here on n = 1e4 points of [-8, 8].  Scale invariance on a
    lattice makes E*(var) = log(var) / 2 + const, and the envelope law
    dE*/dG = -alpha l then gives l2 = -1 / (2 alpha var)."""

    X = np.linspace(-8.0, 8.0, 10_000)

    @classmethod
    def _solve(cls, prm, var):
        cset = ConstraintSet([cls.X, cls.X**2], [0.0, var])
        return cset, solve_maxent(cls.X.size, cset, prm, CFG)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 2.0), (1.5, 1.0), (3.0, 1.0), (2.0, 0.5),
                                             (0.7, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("var", [1.0, 0.5])
    def test_q_gaussian(self, alpha, beta, var):
        prm = (alpha, beta)
        cset, sol = self._solve(prm, var)
        law = q_exp(sol.lambdas @ (cset.g - cset.targets[:, None]), 1.0 - (alpha - beta))
        law *= sol.p.sum() / law.sum()
        assert np.max(np.abs(sol.p - law)) <= 1e-14 * sol.p.max()
        # the envelope law, by a central difference in the target
        h = 1e-4
        lo, hi = (float(lne(self._solve(prm, var + dv)[1].p, prm)) for dv in (-h, h))
        slope = -alpha * sol.lambdas[1]
        assert abs((hi - lo) / (2.0 * h) - slope) <= 1e-5 * abs(slope)
        want = -1.0 / (2.0 * alpha * var)
        if alpha == beta:  # the Gaussian's tails past |x| = 8 are below 1e-13
            assert abs(sol.lambdas[1] / want - 1.0) <= 1e-12
        elif alpha > beta:
            # the support is compact, and the escort p^beta falls to 0 like
            # t^(beta/d) at its edge, d = alpha - beta: a sum on a grid of
            # spacing h = 16/9999 misses that edge by O(h^(1 + beta/d))
            assert abs(sol.lambdas[1] / want - 1.0) <= 1e-4
        # at alpha < beta the tails fall as |x|^(2/d), and the grid's cut at
        # |x| = 8 moves l2 by far more (6.7e-3 at (0.7, 1), 0.3 at (1, 3)):
        # only the law and the envelope are asserted there


class TestLogWeights:
    def test_minxent_bracket_small_next_to_prior_power(self):
        # bracket q^d + d*s = 1e-2 * q^d: forming the sum cancels digits
        import mpmath

        q, d = 0.03, 3.0
        s = -0.99 * q**d / d
        lw0 = np.log([q])
        lw, clamped = _log_weights(np.array([1.0]), np.array([[s]]), d, (lw0, np.exp(-d * lw0)))
        with mpmath.workdps(50):
            exact = float(mpmath.log(mpmath.mpf(q) ** 3 + 3 * mpmath.mpf(s)) / 3)
        assert clamped is None
        assert abs(lw[0] - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize(
        "lam, d, cut",
        [
            ([0.5], 2.0, [0]),  # state 0 at the cutoff's edge, bracket exactly 0
            ([0.6], 2.0, [0]),  # state 0 past it
            ([0.6], -0.5, []),
            ([0.3, -0.2], 0.5, []),
            ([0.3, -0.2], -1.5, [3]),  # where the solver's potential is +inf
        ],
    )
    def test_maxent_weights_are_the_q_exponential(self, lam, d, cut):
        # p ~ exp_q(lam . dg) with 1 - q = d: the solver's weights and q_exp
        # share one cutoff
        lam = np.array(lam)
        dg = np.array([[-1.0, 0.0, 1.0, 2.0], [0.5, -0.5, 1.5, -1.0]])[: lam.size]
        lw, clamped = _log_weights(lam, dg, d, (None, None))
        law = q_exp(lam @ dg, 1.0 - d)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(lw, np.log(law), rtol=1e-14, atol=1e-15)
        assert np.flatnonzero(lw == -np.inf).tolist() == cut
        assert (clamped is None) if not cut else np.flatnonzero(clamped).tolist() == cut


def _solve_outcome(solve, H, b):
    try:
        return solve(H, b).tobytes()
    except np.linalg.LinAlgError:
        return "singular"


class TestNewtonSolve:
    """The Newton step solves H v = -R with the LAPACK gufunc that
    np.linalg.solve calls, under its error state, without its wrapper."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bits_of_np_linalg_solve(self, m):
        # H = beta * (dg * u) @ dg.T as the step forms it.  Among every four
        # systems: one with nearly collinear rows of dg (at m = 1 a scale of
        # up to 1e+-150), one with weights u over 300 decades, and one with
        # u zero past m - 1 states, where H is singular or nearly so
        rng = np.random.default_rng([23, m])
        for k in range(1000):
            n = int(rng.integers(m + 1, 40))
            dg = rng.standard_normal((m, n))
            u = np.exp(rng.uniform(-5.0, 0.0, n))
            if k % 4 == 1:
                if m == 1:
                    dg *= 10.0 ** rng.uniform(-150.0, 150.0)
                else:
                    dg[-1] = dg[0] + 10.0 ** rng.uniform(-12.0, -4.0) * rng.standard_normal(n)
            elif k % 4 == 2:
                u = np.exp(rng.uniform(-700.0, 0.0, n))
            elif k % 4 == 3:
                u[m - 1:] = 0.0
            H = rng.uniform(0.2, 5.0) * (dg * u) @ dg.T
            b = -(dg @ rng.dirichlet(np.ones(n)))  # -R, R = dg @ e
            assert _solve_outcome(_newton_solve, H, b) == _solve_outcome(np.linalg.solve, H, b), (k, H, b)

    @pytest.mark.parametrize("H", [[[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0] * 3] * 3])
    def test_singular_matrix_raises_without_a_warning(self, H):
        # what sends the step to lstsq; a numpy whose private gufunc moved
        # or stopped raising fails here
        H = np.array(H)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _newton_solve(H, np.ones(len(H)))
        assert np.geterr() == before


class TestOracle:
    def test_unconstrained_near_uniform(self):
        o = oracle_maxent(3, None, EntropyParams(2.0, 1.0), 1e-3)
        assert np.max(np.abs(o - 1 / 3)) <= 2e-3

    def test_rejects_out_of_range_target(self):
        with pytest.raises(InfeasibleError):
            oracle_maxent(3, ConstraintSet([[0.0, 1.0, 2.0]], [5.0]), (2.0, 1.0), 1e-3)

    def test_infeasible_after_filtering(self):
        # jointly unreachable pair of targets that each pass the
        # componentwise interior check
        cset = ConstraintSet([[0.0, 1.0], [1.0, 0.0]], [0.9, 0.9])
        with pytest.raises(InfeasibleError):
            oracle_maxent(2, cset, EntropyParams(2.0, 1.0), 1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            oracle_maxent(3, None, (2.0, 1.0), 1e-5)
        with pytest.raises(ValueError):
            oracle_maxent(5, None, (2.0, 1.0), 1e-2)
        with pytest.raises(ValueError):
            oracle_maxent(
                3,
                ConstraintSet([[0.0, 1.0, 2.0]] * 3, [0.5, 0.6, 0.7]),
                (2.0, 1.0),
                1e-2,
            )

    def test_deterministic_tie_break(self):
        a = oracle_maxent(3, None, EntropyParams(1.0, 1.0), 2e-3)
        b = oracle_maxent(3, None, EntropyParams(1.0, 1.0), 2e-3)
        np.testing.assert_array_equal(a, b)
        # k = 500 is not divisible by 3: the lexicographically smallest
        # of the tied near-uniform points wins
        assert a[0] <= a[1] and a[0] <= a[2]

    def test_four_states(self):
        o = oracle_maxent(4, None, EntropyParams(2.0, 1.0), 1e-2)
        assert np.max(np.abs(o - 0.25)) <= 1e-2


class TestDeterminism:
    def test_same_seed_same_solution(self):
        cset = ConstraintSet([[0.0, 0.3, 1.0]], [0.35])
        a = solve_maxent(3, cset, (3.0, 0.5), SolverConfig())
        b = solve_maxent(3, cset, (3.0, 0.5), SolverConfig())
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)
        assert a.report == b.report


class TestRareBranches:
    """Solves from the seeded solve pools of `perfbench` that take a branch
    of the Newton iteration no other test reaches, written out exactly."""

    def test_singular_newton_matrix_takes_least_squares_step(self):
        # LAPACK's solve finds the Newton matrix singular on the way
        g = [
            [1.7396777214069008, -0.8231664480298494, -0.7226455194265616],
            [0.8324924272040991, -0.24631322817743748, 2.140910180697006],
        ]
        cset = ConstraintSet(g, [-0.02454517464910498, 0.3811866064691281])
        beta = 1.0022815499994182
        sol = solve_maxent(3, cset, (4.58595245443948, beta), CFG)
        assert sol.report.converged
        assert residuals(sol, cset, beta).max() <= 1e-10

    @pytest.mark.parametrize(
        "prior, g, targets, alpha, beta",
        [
            (
                [0.04798246099276578, 0.35406776454049166, 0.03736423977691616, 0.5605855346898264],
                [
                    [1.1079822808222626, -1.2590787456099488, 0.6781880171367002, -2.1016823873394688],
                    [0.9168677820998303, -0.7159853566905097, 1.2514063484472773, -0.3573785422973263],
                    [-0.107399947899651, 0.32648451776778026, 0.23026122682996078, 0.2426072764713659],
                ],
                [-1.7860411706729227, -0.29392730021627334, 0.24876055165844083],
                2.3388216411688196,
                2.986393347535288,
            ),
            (
                [0.4886900028498514, 0.41210621668394265, 0.09920378046620604],
                [
                    [-0.5173235764623775, 1.8773337113887656, 1.288792200120123],
                    [0.08633627234465575, 0.004686815859091383, 0.009437527050817554],
                ],
                [0.6655039044053418, 0.045604180209725016],
                2.5435893313120124,
                3.553566629918754,
            ),
        ],
    )
    def test_alpha_below_beta_rejects_trial_past_the_pole(self, prior, g, targets, alpha, beta):
        # a full Newton step drives a bracket nonpositive, where G = +inf
        # for alpha < beta: the line search must reject it, not clamp
        cset = ConstraintSet(g, targets)
        sol = solve_minxent(prior, cset, (alpha, beta), CFG)
        assert sol.report.converged
        assert sol.report.clamped_states == ()
        assert residuals(sol, cset, beta).max() <= 1e-10
