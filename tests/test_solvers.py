import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _reference import PhiloxStream, flat_family, minibatch_gradient_linear, two_sequence_loop
from composite_sgd.core import (
    ENVELOPE,
    ConvergenceError,
    DivergenceError,
    ParameterError,
    RngStream,
)
from composite_sgd.problems import (
    ExactOracle,
    GaussianNoiseOracle,
    MinibatchLinearOracle,
    exact_gradient,
    exact_objective_linear,
    exact_objective_logistic,
    gen_linear_dataset,
    gen_logistic_dataset,
    lipschitz_linear,
    ortho_lasso_instance,
)
from composite_sgd.regularizers import (
    GroupStructure,
    build_hierarchical,
    evaluate,
    group_norm,
    l1,
)
from composite_sgd.smoothing import smoothed
from composite_sgd import solvers
from composite_sgd.solvers import (
    OVERFLOW_LIMIT,
    acsa_eta,
    horizon_eta,
    pilot_sigma_sq,
    resolve_acsa_params,
    run_acsa,
    run_sg,
    run_ssg,
    theorem_bound,
    theorem_bound_smoothed,
)


def quadratic_target(p, distance=1.0):
    a = np.zeros(p)
    a[0] = distance
    return a


def quadratic_problem(p, distance=1.0):
    a = quadratic_target(p, distance)
    objective = lambda x: 0.5 * float((x - a) @ (x - a))
    oracle = ExactOracle(lambda x: x - a, p)
    return a, objective, oracle


class QueryRecorder:
    """Exact gradient oracle that records every query point y_t."""

    def __init__(self, grad, dim):
        self.grad = grad
        self.dim = dim
        self.queries = []

    def sample(self, x, rng):
        self.queries.append(x.copy())
        return self.grad(x)


class TestSchedule:
    """theta_t = 2/(2+t) and each solver's prox weight eta(t), seen through
    the run_* entry points."""

    def test_theta_sequence(self):
        # A reference recursion with theta_t = 2/(2+t), against each solver's
        # query points y_t and result, bit for bit. With no penalty every step
        # reduces to z - g / eta(t).
        a = np.array([1.0, -2.0, 0.5])
        N, L, gamma_star = 4, 2.0, 5.0
        horizon = lambda t: (2.0 / (t + 2.0)) * (N**1.5 / L + 2.0) * L
        baseline = lambda t: 2.0 * gamma_star / (L * (t + 1.0)) * L
        reg = l1(0.0, 3)
        runs = {
            "sg": (horizon, lambda o: run_sg(o, reg, L, N, RngStream(0), None,
                                             trace_every=0)),
            "ssg": (horizon, lambda o: run_ssg(o, smoothed(reg, N=N), L, N, RngStream(0),
                                               None, trace_every=0)),
            "acsa": (baseline, lambda o: run_acsa(o, reg, L, N, gamma_star, RngStream(0),
                                                  None, trace_every=0)),
        }
        for name, (eta, run) in runs.items():
            x, z, ys = np.zeros(3), np.zeros(3), []
            for t in range(N + 1):
                th = 2.0 / (2.0 + t)
                y = (1.0 - th) * x + th * z
                ys.append(y)
                z = z - (y - a) / eta(t)
                x = (1.0 - th) * x + th * z
            oracle = QueryRecorder(lambda v: v - a, 3)
            x_run, _ = run(oracle)
            assert np.array_equal(x_run, x), name
            assert len(oracle.queries) == N + 1, name
            assert all(np.array_equal(q, y) for q, y in zip(oracle.queries, ys)), name

    def test_gamma_zero(self):
        # N^{3/2} = 8 at N = 4, so gamma_0 = (2/2)(8/1 + 2) = 10. theta_0 = 1
        # makes y_0 = 0 and x_1 = z_1 = -g(0) / 10, and y_1 = z_1.
        a = np.array([3.0, -1.0])
        oracle = QueryRecorder(lambda v: v - a, 2)
        run_sg(oracle, l1(0.0, 2), 1.0, 4, RngStream(0), None, trace_every=0)
        assert np.array_equal(oracle.queries[1], a / 10.0)

    def test_inequalities_hold(self):
        for N in (1, 10, 100, 10_000):
            for L_eff in (1e-3, 1.0, 1e3):
                t = np.arange(N + 1, dtype=np.float64)
                theta = 2.0 / (2.0 + t)
                gamma = (2.0 / (t + 2.0)) * (N**1.5 / L_eff + 2.0)
                assert np.all(gamma > theta)
                lhs = (1.0 - theta[1:]) / (theta[1:] * gamma[1:])
                rhs = 1.0 / (theta[:-1] * gamma[:-1])
                assert np.all(lhs <= rhs + 1e-12)

    def test_validation(self):
        # N >= 1 and L_eff > 0 are checked by every entry point; for ssg,
        # L = 0 with no penalty gives L_mu = 0
        _, objective, oracle = quadratic_problem(2)
        reg = l1(0.0, 2)
        for N, L in ((0, 1.0), (5, 0.0), (5, -1.0)):
            with pytest.raises(ParameterError):
                run_sg(oracle, reg, L, N, RngStream(0), objective)
            with pytest.raises(ParameterError):
                run_ssg(oracle, smoothed(reg, N=N), L, N, RngStream(0), objective)
            with pytest.raises(ParameterError):
                run_acsa(oracle, reg, L, N, 2.0, RngStream(0), objective)

    @pytest.mark.parametrize("N", [1, 2**53], ids=["N1", "N2^53"])
    @pytest.mark.parametrize("L", ENVELOPE, ids=["L1e-50", "L1e50"])
    def test_prox_weights_of_accepted_configs_lie_in_the_prox_range(self, N, L):
        # README "Numeric envelope": with L, acsa_d and sigma^2 (or 0) in the
        # envelope and N <= 2^53, sg's and acsa's eta(t), which fall with t,
        # lie in [4.4e-66, 1.4e99] at t = 0 and t = N, inside the range
        # [1e-100, 1e100] that prox takes eta from
        etas = [horizon_eta(N, L)] + [acsa_eta(N, L, resolve_acsa_params(L, N, sigma_sq, d))
                                      for d in ENVELOPE for sigma_sq in (0.0, ENVELOPE[1])]
        for eta in etas:
            for t in (0, N):
                assert 4.4e-66 <= eta(t) <= 1.4e99
                assert ENVELOPE[0] ** 2 <= eta(t) <= ENVELOPE[1] ** 2

    @pytest.mark.parametrize("run", [
        lambda o, f: run_sg(o, l1(0.1, 2), 1e308, 50, RngStream(0), f),
        lambda o, f: run_sg(o, l1(0.1, 2), 1e-310, 50, RngStream(0), f),
        lambda o, f: run_ssg(o, smoothed(l1(1e50, 2), mu=1e-300), 1.0, 50, RngStream(0), f),
        lambda o, f: run_ssg(o, smoothed(l1(0.1, 2), N=50), 1e308, 50, RngStream(0), f),
        lambda o, f: run_acsa(o, l1(0.1, 2), 1.0, 50, 1e308, RngStream(0), f),
        lambda o, f: run_sg(o, l1(0.1, 2), 1e300, 5, RngStream(0), f),
        lambda o, f: run_acsa(o, l1(0.1, 2), 1.0, 5000, 1e-97, RngStream(0), f),
    ], ids=["sg-L-1e308", "sg-L-1e-310", "ssg-lambda-1e50-mu-1e-300", "ssg-L-1e308",
            "acsa-gamma-star-1e308", "sg-L-1e300", "acsa-gamma-star-1e-97"])
    def test_step_size_that_overflows_is_refused(self, run):
        # eta(0) past the largest double, from L, from ||A||^2 / mu or from
        # gamma*, each with a penalty the library accepts: each of these ended
        # at x = 0 or raised OverflowError before drawing a sample. The last
        # two are sg's eta(0) = 2e300 and acsa's eta(N) = 4e-101, doubles
        # outside the range prox takes eta from: prox refused them after the
        # first and the 2001st draw.
        a, objective, _ = quadratic_problem(2)
        recorder = QueryRecorder(lambda v: v - a, 2)
        with pytest.raises(ParameterError):
            run(recorder, objective)
        assert recorder.queries == []


class TestRunSg:
    def test_smoke_single_iteration(self):
        _, objective, oracle = quadratic_problem(3)
        x, trace = run_sg(oracle, l1(0.0, 3), 1.0, 1, RngStream(0), objective)
        assert x.shape == (3,)
        assert np.all(np.isfinite(x))
        assert [r.iteration for r in trace] == [0, 1, 2]

    def test_deterministic_quadratic_meets_bound(self):
        p = 6
        a, objective, oracle = quadratic_problem(p)  # D = ||a|| = 1
        x, _ = run_sg(oracle, l1(0.0, p), 1.0, 98, RngStream(0), objective, trace_every=0)
        gap = objective(x)  # optimum value is 0
        assert gap <= theorem_bound(1.0, 0.0, 1.0, 98)

    def test_trace_iterations_strictly_increase(self):
        _, objective, oracle = quadratic_problem(4)
        _, trace = run_sg(oracle, l1(0.0, 4), 1.0, 20, RngStream(1), objective,
                          trace_every=7)
        its = [r.iteration for r in trace]
        assert its == sorted(set(its))
        assert its[-1] == 21
        elapsed = [r.elapsed_seconds for r in trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_trace_clock_leaves_out_objective_evaluations(self):
        _, objective, oracle = quadratic_problem(3)
        pause = 0.02

        def slow_objective(x):
            time.sleep(pause)
            return objective(x)

        _, trace = run_sg(oracle, l1(0.0, 3), 1.0, 4, RngStream(0), slow_objective)
        assert len(trace) == 6
        assert trace[-1].elapsed_seconds < len(trace) * pause

    def test_objective_monotone_after_warmup(self):
        data = gen_linear_dataset(60, 6, RngStream(12).split(1))
        oracle = ExactOracle(lambda b: exact_gradient(data, b), 6)
        objective = lambda b: exact_objective_linear(data, b)
        from composite_sgd.problems import lipschitz_linear

        L = lipschitz_linear(data, "scaled")
        _, trace = run_sg(oracle, l1(0.0, 6), L, 300, RngStream(0), objective)
        values = [r.objective for r in trace[3:]]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_replay_is_bitwise_identical(self):
        data = gen_linear_dataset(40, 4, RngStream(3).split(1))
        objective = lambda b: exact_objective_linear(data, b)
        oracle = MinibatchLinearOracle(data, 5)
        x1, _ = run_sg(oracle, l1(0.1, 4), 2.0, 50, RngStream(9), objective, trace_every=0)
        x2, _ = run_sg(oracle, l1(0.1, 4), 2.0, 50, RngStream(9), objective, trace_every=0)
        assert np.array_equal(x1, x2)

    def test_prox_failure_carries_iteration_index(self, monkeypatch):
        def broken_prox(reg, g, z, eta):
            raise ConvergenceError("stalled", last_iterate=z)

        monkeypatch.setattr(solvers, "prox", broken_prox)
        _, objective, oracle = quadratic_problem(2)
        with pytest.raises(ConvergenceError) as err:
            run_sg(oracle, l1(0.1, 2), 1.0, 3, RngStream(0), objective, trace_every=0)
        assert "iteration 0" in str(err.value)

    def test_oracle_consumption_independent_of_trace_stride(self):
        data = gen_linear_dataset(30, 4, RngStream(5).split(1))
        objective = lambda b: exact_objective_linear(data, b)
        oracle = MinibatchLinearOracle(data, 3)
        x1, _ = run_sg(oracle, l1(0.05, 4), 1.5, 40, RngStream(2), objective, trace_every=1)
        x2, _ = run_sg(oracle, l1(0.05, 4), 1.5, 40, RngStream(2), objective, trace_every=13)
        assert np.array_equal(x1, x2)


class TestRunSsg:
    def test_inert_smoothing_equals_sg_without_penalty(self):
        # A = 0: L_mu = L and the smoothed gradient is zero, so the step is sg's
        data = gen_linear_dataset(50, 6, RngStream(21).split(1))
        objective = lambda b: exact_objective_linear(data, b)
        oracle = MinibatchLinearOracle(data, 5)
        reg0 = l1(0.0, 6)
        x_sg, _ = run_sg(oracle, reg0, 2.0, 80, RngStream(4), objective, trace_every=0)
        x_ssg, _ = run_ssg(oracle, smoothed(reg0, N=80), 2.0, 80, RngStream(4),
                           objective, trace_every=0)
        assert np.array_equal(x_sg, x_ssg)

    def test_one_dimensional_lasso_meets_smoothed_bound(self):
        # f(x) = (x - b)^2 / 2 with l1 penalty: optimum soft-thresholds b
        b = 1.5
        lam = 0.3
        reg = l1(lam, 1)
        x_star = np.array([b - lam])
        objective = lambda x: 0.5 * float((x[0] - b) ** 2)
        phi = lambda x: objective(x) + evaluate(reg, x)
        oracle = ExactOracle(lambda x: x - np.array([b]), 1)
        N = 100
        sreg = smoothed(reg, N=N)
        x, _ = run_ssg(oracle, sreg, 1.0, N, RngStream(0), objective, trace_every=0)
        gap = phi(x) - phi(x_star)
        D = float(np.abs(x_star[0]))
        assert 0.0 <= gap <= theorem_bound_smoothed(D, 0.0, 1.0, sreg.base.A_norm, sreg.base.M, N)

    def test_default_mu_matches_horizon_schedule(self):
        reg = l1(0.2, 4)
        sreg = smoothed(reg, N=98)
        assert np.isclose(sreg.mu, 0.2 / 100.0)

    def test_traces_report_unsmoothed_objective(self):
        _, objective, oracle = quadratic_problem(3)
        reg = l1(0.5, 3)
        sreg = smoothed(reg, N=10)
        _, trace = run_ssg(oracle, sreg, 1.0, 10, RngStream(0), objective)
        x0 = np.zeros(3)
        assert np.isclose(trace[0].objective, objective(x0) + evaluate(reg, x0))


class TestRunAcsa:
    def test_gamma_star_exact_branch(self):
        assert resolve_acsa_params(3.0, 10, 0.0) == 6.0

    def test_gamma_star_variance_branch(self):
        gamma_star = resolve_acsa_params(1.0, 10, 1.0, D=1.0)
        assert np.isclose(gamma_star, np.sqrt(880.0))

    def test_shares_sample_sequence_with_sg(self):
        data = gen_linear_dataset(40, 4, RngStream(7).split(1))
        objective = lambda b: exact_objective_linear(data, b)

        class RecordingOracle:
            def __init__(self):
                self.inner = MinibatchLinearOracle(data, 4)
                self.dim = 4
                self.draws = []

            def sample(self, x, rng):
                S = rng.indices(4, data.K)
                self.draws.append(S.copy())
                return minibatch_gradient_linear(data, x, S)

        rec_sg = RecordingOracle()
        run_sg(rec_sg, l1(0.1, 4), 1.0, 30, RngStream(6), objective, trace_every=0)
        rec_acsa = RecordingOracle()
        run_acsa(rec_acsa, l1(0.1, 4), 1.0, 30, 2.0, RngStream(6), objective,
                 trace_every=0)
        assert len(rec_sg.draws) == len(rec_acsa.draws)
        for a, b in zip(rec_sg.draws, rec_acsa.draws):
            assert np.array_equal(a, b)

    def test_converges_on_quadratic(self):
        _, objective, oracle = quadratic_problem(4)
        gamma_star = resolve_acsa_params(1.0, 400, 0.0)
        x, _ = run_acsa(oracle, l1(0.0, 4), 1.0, 400, gamma_star, RngStream(2),
                        objective, trace_every=0)
        assert objective(x) < 1e-3


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("run, iteration", [
    (lambda oracle, reg, f: run_sg(oracle, reg, 1.0, 50, RngStream(0), f, trace_every=0), 3),
    (lambda oracle, reg, f: run_ssg(oracle, smoothed(reg, N=50), 1.0, 50, RngStream(0), f,
                                    trace_every=0), 3),
    (lambda oracle, reg, f: run_acsa(oracle, reg, 1.0, 50, resolve_acsa_params(1.0, 50, 0.0),
                                     RngStream(0), f, trace_every=0), 2),
], ids=["sg", "ssg", "acsa"])
def test_divergence_guard_names_iteration(run, iteration, lam):
    # curvature ~1e9 with L presented as 1: the step sizes oscillate the
    # iterates apart and the overflow guard must fire; z trips it at the
    # iteration where x would, since x is a convex combination of the z's
    p = 2
    oracle = ExactOracle(lambda x: 1e9 * x - np.ones(p), p)
    objective = lambda x: 0.5e9 * float(x @ x) - float(x.sum())
    with pytest.raises(DivergenceError) as err:
        run(oracle, l1(lam, p), objective)
    assert err.value.iteration == iteration
    assert str(err.value) == (
        f"iterate is not finite or exceeded 1e+12 at iteration {iteration}; "
        "is the Lipschitz constant set too small?")


_BOUNDED = st.floats(-OVERFLOW_LIMIT, OVERFLOW_LIMIT)
_PAST_LIMIT = st.floats(min_value=OVERFLOW_LIMIT, exclude_min=True) | st.just(np.nan)


@st.composite
def _drawn_steps(draw):
    """The z's a step returns, entries within the limit, and the iteration
    (or None) at which one entry is pushed past it or made NaN."""
    p = draw(st.integers(1, 4))
    zs = draw(st.lists(st.lists(_BOUNDED, min_size=p, max_size=p).map(np.array),
                       min_size=1, max_size=30))
    bad_at = draw(st.none() | st.integers(0, len(zs) - 1))
    if bad_at is not None:
        zs[bad_at][draw(st.integers(0, p - 1))] = draw(_PAST_LIMIT) * draw(
            st.sampled_from([1.0, -1.0]))
    return zs, bad_at


@given(_drawn_steps())
# x_14 = fl(fl(fl(1 - theta) 1e12) + fl(theta 1e12)) rounds up past the limit
@example(([np.full(1, OVERFLOW_LIMIT) for _ in range(14)], None))
def test_guard_on_z_keeps_x_within_rounding_of_the_limit(steps):
    # x_{t+1} is a rounded convex combination of x_t and z_{t+1}, with three
    # roundings of at most a factor (1 + 2^-53) each, so checking z alone
    # bounds every x; a z past the limit, or NaN, raises at its own iteration
    zs, bad_at = steps
    p = zs[0].size
    drawn = iter(zs)
    max_abs = []

    def smooth_objective(x):
        max_abs.append(float(np.max(np.abs(x))))
        return 0.0

    def run():
        return solvers._run_two_sequence(
            ExactOracle(lambda x: np.zeros(p), p), lambda t, y, g, z: next(drawn),
            len(zs) - 1, l1(0.0, p), RngStream(0), smooth_objective, 1)

    if bad_at is None:
        run()
    else:
        with pytest.raises(DivergenceError) as err:
            run()
        assert err.value.iteration == bad_at
    assert len(max_abs) == (len(zs) if bad_at is None else bad_at) + 1
    for i, m in enumerate(max_abs):
        bound = Fraction(OVERFLOW_LIMIT) * (1 + Fraction(1, 2**53)) ** (3 * i)
        assert np.isfinite(m) and Fraction(m) <= bound


_LIMIT_EDGES = [math.nextafter(OVERFLOW_LIMIT, 0.0), OVERFLOW_LIMIT,
                math.nextafter(OVERFLOW_LIMIT, math.inf)]


@st.composite
def _guarded_z(draw):
    """A z of p up to 3000 entries: a fill near 1e12 / sqrt(p) or 1e12 /
    sqrt(2p), where ||z||^2 sits at the fast path's threshold, or near 0,
    with a few entries set one ulp either side of 1e12, up to 1.8e308, to
    +-inf or to NaN; and an iteration."""
    p = draw(st.integers(1, 3000))
    fill = draw(st.sampled_from([OVERFLOW_LIMIT / math.sqrt(p),
                                 OVERFLOW_LIMIT / math.sqrt(2.0 * p), 1.0]))
    z = fill * draw(st.just(1.0) | st.floats(0.999, 1.001)) * np.where(
        np.arange(p) % draw(st.integers(1, 3)) == 0, -1.0, 1.0)
    special = st.sampled_from(_LIMIT_EDGES + [np.inf, np.nan]) | st.floats(0.0, 1.8e308)
    for _ in range(draw(st.integers(0, 3))):
        z[draw(st.integers(0, p - 1))] = draw(special) * draw(st.sampled_from([1.0, -1.0]))
    return z, draw(st.integers(0, 10**6))


@pytest.mark.deep
@given(_guarded_z())
@example((np.full(1, _LIMIT_EDGES[1]), 7))
@example((np.full(1, _LIMIT_EDGES[2]), 7))
@example((np.full(2, OVERFLOW_LIMIT / math.sqrt(2.0)), 0))
def test_guard_raises_exactly_when_max_abs_test_fails(case):
    # the vdot fast path may only pass a z the max-abs test passes; every other
    # z gets that test's verdict, message and iteration, with no warning
    z, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.max(np.abs(z)) <= OVERFLOW_LIMIT:
            solvers._check_overflow(z, t)
            return
        with pytest.raises(DivergenceError) as err:
            solvers._check_overflow(z, t)
    assert err.value.iteration == t
    assert str(err.value) == (
        f"iterate is not finite or exceeded 1e+12 at iteration {t}; "
        "is the Lipschitz constant set too small?")


@pytest.mark.parametrize("run", [
    lambda oracle, reg, f: run_sg(oracle, reg, 1.0, 5, RngStream(0), f),
    lambda oracle, reg, f: run_ssg(oracle, smoothed(reg, N=5), 1.0, 5, RngStream(0), f),
    lambda oracle, reg, f: run_acsa(oracle, reg, 1.0, 5, 2.0, RngStream(0), f),
], ids=["sg", "ssg", "acsa"])
def test_nan_oracle_trips_divergence_guard(run):
    # NaN compares False with everything, so a "> limit" guard would let it pass
    p = 3
    oracle = ExactOracle(lambda x: np.full(p, np.nan), p)
    with pytest.raises(DivergenceError) as err:
        run(oracle, l1(0.1, p), lambda x: 0.5 * float(x @ x))
    assert err.value.iteration == 0


class TestPilotSigma:
    def test_exact_oracle_has_zero_variance(self):
        _, _, oracle = quadratic_problem(3)
        assert pilot_sigma_sq(oracle, np.zeros(3), RngStream(0)) == 0.0

    def test_recovers_injected_variance(self):
        _, _, oracle = quadratic_problem(6)
        noisy = GaussianNoiseOracle(oracle, 0.5)
        est = pilot_sigma_sq(noisy, np.zeros(6), RngStream(3), draws=4000)
        assert abs(est - 0.25) < 0.02


class TestBounds:
    def test_theorem_bound_hand_values(self):
        assert np.isclose(theorem_bound(1.0, 0.0, 1.0, 98), 0.2004)
        assert theorem_bound(0.0, 0.0, 1.0, 50) == 0.0

    def test_theorem_bound_scales_quadratically_in_D(self):
        assert np.isclose(theorem_bound(2.0, 0.0, 1.0, 98), 4 * theorem_bound(1.0, 0.0, 1.0, 98))

    def test_smoothed_bound_reduces_when_A_vanishes(self):
        assert theorem_bound_smoothed(1.0, 0.5, 2.0, 0.0, 3.0, 77) == theorem_bound(
            1.0, 0.5, 2.0, 77
        )

    def test_smoothed_bound_hand_value(self):
        assert np.isclose(
            theorem_bound_smoothed(1.0, 0.0, 1.0, 0.1, 1.0, 98), 0.2054
        )

    def test_smoothed_bound_linear_in_M(self):
        base = theorem_bound_smoothed(1.0, 0.0, 1.0, 0.2, 0.0, 98)
        one = theorem_bound_smoothed(1.0, 0.0, 1.0, 0.2, 1.0, 98)
        two = theorem_bound_smoothed(1.0, 0.0, 1.0, 0.2, 2.0, 98)
        assert np.isclose(two - one, one - base)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ParameterError):
            theorem_bound(-1.0, 0.0, 1.0, 10)
        with pytest.raises(ParameterError):
            theorem_bound_smoothed(1.0, 0.0, 1.0, -0.1, 1.0, 10)


class TestEmpiricalExpectationBound:
    def test_seed_mean_gap_under_injected_noise(self):
        # instance with a closed-form optimum and noise of known variance
        p = 8
        lam = 0.1
        data, x_star = ortho_lasso_instance(p, lam, RngStream(100).split(1))
        from composite_sgd.problems import lipschitz_linear

        L = lipschitz_linear(data, "scaled")
        reg = l1(lam, p)
        objective = lambda b: exact_objective_linear(data, b)
        phi = lambda b: objective(b) + evaluate(reg, b)
        phi_star = phi(x_star)
        D = float(np.linalg.norm(x_star))
        sigma = 0.4
        N = 200
        gaps = []
        for seed in range(20):
            oracle = GaussianNoiseOracle(
                ExactOracle(lambda b: exact_gradient(data, b), p), sigma
            )
            x, _ = run_sg(oracle, reg, L, N, RngStream(seed).split(2), objective,
                          trace_every=0)
            gaps.append(phi(x) - phi_star)
        assert np.mean(gaps) <= theorem_bound(D, sigma, L, N)


# Groups that overlap without nesting, so prox runs the certified dual solver.
OVERLAPPING = GroupStructure(*flat_family([[0, 1, 2], [2, 3, 4], [4, 5, 6, 7], [0, 7], [1, 5]],
                                          np.array([1.0, 1.5, 2.0, 0.5, 1.0]), 8))
PENALTIES = {
    "l1": lambda lam: l1(lam, 8),
    "tree": lambda lam: group_norm(lam, build_hierarchical(3)),
    "overlapping": lambda lam: group_norm(lam, OVERLAPPING),
}


@pytest.mark.parametrize("kind", ["linear", "logistic"])
@pytest.mark.parametrize("penalty", sorted(PENALTIES))
@pytest.mark.parametrize("solver", ["sg", "ssg", "acsa"])
def test_solvers_match_reference_loop_bit_for_bit(solver, penalty, kind):
    # Each solver against the recursion written out over the validating
    # public functions, with its prox weight eta(t) written out as well.
    N, batch, trace_every, gamma_star = 120, 5, 25, 40.0
    root = RngStream(31)
    if kind == "linear":
        data = gen_linear_dataset(60, 8, root.split(1))
        oracle = MinibatchLinearOracle(data, batch)
        objective = lambda b: exact_objective_linear(data, b)
        L = lipschitz_linear(data)
    else:
        data = gen_logistic_dataset(60, 8, root.split(1))
        oracle = MinibatchLinearOracle(data, batch)
        objective = lambda b: exact_objective_logistic(data, b)
        L = 0.25  # unit-norm rows
    reg = PENALTIES[penalty](0.05)
    sreg = None
    if solver == "sg":
        x, trace = run_sg(oracle, reg, L, N, root.split(2), objective, trace_every)
        eta = lambda t: (2.0 / (t + 2.0)) * (N**1.5 / L + 2.0) * L
    elif solver == "ssg":
        sreg = smoothed(reg, N=N)
        x, trace = run_ssg(oracle, sreg, L, N, root.split(2), objective, trace_every)
        L_mu = L + sreg.base.A_norm**2 / sreg.mu
        eta = lambda t: (2.0 / (t + 2.0)) * (N**1.5 / L_mu + 2.0) * L_mu
    else:
        x, trace = run_acsa(oracle, reg, L, N, gamma_star, root.split(2), objective,
                            trace_every)
        eta = lambda t: 2.0 * gamma_star / (L * (t + 1.0)) * L
    x_ref, rows_ref = two_sequence_loop(data, batch, reg, eta, N, PhiloxStream(31, (2,)),
                                        objective, trace_every, sreg)
    assert x.tobytes() == x_ref.tobytes()
    assert [(r.iteration, r.objective) for r in trace] == rows_ref
