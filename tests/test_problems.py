import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from composite_sgd.core import DimensionError, ParameterError, RngStream
from composite_sgd.harness import seed_dataset, write_dataset_csv
from composite_sgd.problems import (
    ContinuousLinearOracle,
    Dataset,
    ExactOracle,
    GaussianNoiseOracle,
    MinibatchLinearOracle,
    continuous_gradient,
    continuous_objective,
    exact_gradient,
    exact_objective_linear,
    exact_objective_logistic,
    gen_linear_dataset,
    gen_logistic_dataset,
    ground_truth,
    lipschitz_linear,
    ortho_lasso_instance,
    sigmoid,
)

from _reference import (
    central_difference,
    logistic_dataset_copying,
    minibatch_gradient_linear,
    minibatch_gradient_logistic,
    objective_residual,
    read_dataset_csv,
    sigmoid_masked,
)


class TestGroundTruth:
    def test_linear_pattern(self):
        assert np.array_equal(ground_truth("linear", 6), [1, 1, 1, 0, 0, 0])

    def test_logistic_pattern(self):
        assert np.array_equal(ground_truth("logistic", 3), np.ones(3))

    def test_odd_p_rejected_for_linear(self):
        with pytest.raises(ParameterError):
            ground_truth("linear", 5)


class TestLinearDataset:
    def test_deterministic(self):
        a = gen_linear_dataset(30, 4, RngStream(1))
        b = gen_linear_dataset(30, 4, RngStream(1))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_figure_scale_shape(self):
        d = gen_linear_dataset(1000, 20, RngStream(2))
        assert d.X.shape == (1000, 20) and d.kind == "linear"

    def test_residual_noise_scale(self):
        d = gen_linear_dataset(100_000, 4, RngStream(3))
        resid = d.y - d.X @ ground_truth("linear", 4)
        assert abs(resid.std() - 0.1) < 0.002

    def test_odd_p_rejected(self):
        with pytest.raises(ParameterError):
            gen_linear_dataset(10, 5, RngStream(0))


class TestLogisticDataset:
    def test_rows_are_unit_norm(self):
        d = gen_logistic_dataset(500, 7, RngStream(4))
        assert np.allclose(np.linalg.norm(d.X, axis=1), 1.0, atol=1e-12)
        assert set(np.unique(d.y)) <= {0.0, 1.0}

    def test_figure_scale_shape(self):
        d = gen_logistic_dataset(1000, 20, RngStream(5))
        assert d.X.shape == (1000, 20) and d.kind == "logistic"

    def test_wrong_length_beta_hat_is_refused_before_any_draw(self):
        rng = RngStream(6)
        with pytest.raises(DimensionError, match=r"^beta_hat has length 2, expected 3$"):
            gen_logistic_dataset(5, 3, rng, beta_hat=[1.0, 1.0])
        assert rng.uniform(1)[0] == RngStream(6).uniform(1)[0]

    def test_label_frequency_with_zero_coefficients(self):
        d = gen_logistic_dataset(100_000, 3, RngStream(6), beta_hat=np.zeros(3))
        assert abs(d.y.mean() - 0.5) < 0.005

    @pytest.mark.parametrize("K, p", [(70_000, 1), (10_000, 7), (5000, 20),
                                      (2000, 100), (1100, 129), (300, 512)])
    def test_equals_copying_generator_byte_for_byte(self, K, p):
        # several blocks of row norms each, and the divide in place
        d = gen_logistic_dataset(K, p, RngStream(40))
        X, y = logistic_dataset_copying(K, p, RngStream(40))
        assert d.X.tobytes() == X.tobytes() and d.y.tobytes() == y.tobytes()

    def test_peak_memory_is_about_one_design(self):
        gen_logistic_dataset(4, 3, RngStream(41))  # first-call allocations
        K, p = 20_000, 100
        rng = RngStream(42)
        tracemalloc.start()
        try:
            gen_logistic_dataset(K, p, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * K * p * 8

    def test_invariants_enforced_at_construction(self):
        with pytest.raises(ParameterError):
            Dataset(np.array([[2.0, 0.0]]), np.array([1.0]), "logistic")
        with pytest.raises(ParameterError):
            Dataset(np.array([[1.0, 0.0]]), np.array([0.5]), "logistic")
        # the oracle and exact_gradient take the link from the kind
        with pytest.raises(ParameterError):
            Dataset(np.eye(2), np.zeros(2), "poisson")

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_arrays_are_read_only(self, kind):
        # a write would leave the cached moments describing other data
        gen = gen_linear_dataset if kind == "linear" else gen_logistic_dataset
        d = gen(6, 4, RngStream(4))
        with pytest.raises(ValueError):
            d.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            d.y[0] = 1.0

    def test_arrays_are_taken_as_float64(self):
        # A list or another dtype becomes a float64 array the dataset owns, with
        # moments in float64; a float64 ndarray is kept as the same object.
        d = Dataset([[1.0, 2.0], [3.0, 5.0]], [1.0, 0.0], "linear")
        assert d.X.dtype == d.y.dtype == np.float64 and (d.X.shape, d.y.shape) == ((2, 2), (2,))
        X_int, X_32 = np.array([[1, 2], [3, 5]]), np.array([[1, 2], [3, 5]], dtype=np.float32)
        for X in (X_int, X_32):
            owned = Dataset(X, np.array([1.0, 0.0]), "linear")
            assert owned.X.dtype == owned.moments.gram.dtype == np.float64
            assert np.array_equal(owned.X, d.X) and X.flags.writeable
            assert owned.moments.gram.tobytes() == d.moments.gram.tobytes()
        X, y = np.array([[1.0, 2.0], [3.0, 5.0]]), np.array([1.0, 0.0])
        kept = Dataset(X, y, "linear")
        assert kept.X is X and kept.y is y and not X.flags.writeable
        with pytest.raises(DimensionError):
            Dataset([1.0, 2.0], [1.0], "linear")


class TestLinearObjective:
    def test_hand_value(self):
        d = Dataset(np.eye(2), np.zeros(2), "linear")
        assert exact_objective_linear(d, np.array([2.0, 0.0])) == 1.0

    def test_value_at_truth_is_noise_floor(self):
        d = gen_linear_dataset(50_000, 4, RngStream(7))
        value = exact_objective_linear(d, ground_truth("linear", 4))
        assert abs(value - 0.005) < 0.0005  # E[(eps/10)^2] / 2

    def test_nonnegative(self):
        d = gen_linear_dataset(20, 4, RngStream(8))
        for _ in range(5):
            assert exact_objective_linear(d, RngStream(9).normal(4)) >= 0.0

    def test_dimension_error(self):
        d = gen_linear_dataset(10, 4, RngStream(0))
        with pytest.raises(DimensionError):
            exact_objective_linear(d, np.ones(5))


# Entries bounded so that no product or sum of squares overflows.
_ENTRY = st.floats(-1e3, 1e3)


@st.composite
def _design(draw, tall: bool):
    p = draw(st.integers(1 if tall else 2, 8))
    K = p + draw(st.integers(0, 12)) if tall else draw(st.integers(1, p - 1))
    X = draw(arrays(np.float64, (K, p), elements=_ENTRY))
    y = draw(arrays(np.float64, K, elements=_ENTRY))
    beta = draw(arrays(np.float64, p, elements=_ENTRY))
    return Dataset(X, y, "linear"), beta


class TestMomentForm:
    """A tall design's objective comes from its cached moments; a wide one's
    from the residual, as in ``_reference.objective_residual``."""

    @pytest.mark.deep
    @given(_design(tall=True))
    # ||a||^2 underflows to 0, yet the residual form rounds to a subnormal.
    @example((Dataset(np.array([[1.96e-164]]), np.zeros(1), "linear"), np.array([140.0])))
    def test_moment_form_within_rounding_of_residual_form(self, case):
        # Each form of ||X beta - y||^2 rounds by at most about
        # (K + 2p + 2) u ||a||^2, with a = |X| |beta| + |y| and u = eps / 2:
        # K from the moments' or the residual's sums, 2p from the products
        # with beta. The objectives, over 2K, then differ by at most
        # (K + 2p + 2) eps ||a||^2 / 2K; the tolerance doubles that and
        # rounds the count up to K + 2p + 4, fixed before any run.
        #
        # That relative part is 0 once ||a||^2 underflows, but the forms can
        # still differ by subnormals. With gradual underflow a product (or
        # fused multiply-add) rounds to x (1 + d) + h with |h| <= s / 2, s the
        # smallest subnormal, and a sum adds no h. Each h is then scaled by
        # what later multiplies it. Moment form, with b = ||beta||_1: the K
        # products of each entry of X^T X are scaled by |beta_j| |beta_k|,
        # the K of each entry of X^T y by 2 |beta_j|, the p of each entry of
        # G beta by |beta_j|; beta^T G beta, (X^T y)^T beta and y^T y add p,
        # 2p and K. That is (K (1 + b)^2 + p (b + 3)) s / 2, at most
        # (K + 3p) (1 + b)^2 s / 2. Residual form: the p products of each r_i
        # move it by p s / 2, so r_i^2 by p a_i s + (p s / 2)^2, and r^T r
        # adds K s / 2: at most (p ||a||_1 + K) s. Both sums are over 2K, and
        # the two divisions by 2K add s / 2 each. Doubling the sums covers
        # the factors (1 + d) they pass through and the tolerance's own
        # rounding, so the absolute part is
        # ((K + 3p) (1 + b)^2 + 2p ||a||_1 + 4K) s / 2K.
        d, beta = case
        a = np.abs(d.X) @ np.abs(beta) + np.abs(d.y)
        tol = (d.K + 2 * d.p + 4) * np.finfo(float).eps * (a @ a) / d.K
        b = np.abs(beta).sum()
        count = (d.K + 3 * d.p) * (1.0 + b) ** 2 + 2 * d.p * a.sum() + 4 * d.K
        tol += count * np.finfo(float).smallest_subnormal / (2 * d.K)
        assert abs(exact_objective_linear(d, beta) - objective_residual(d, beta)) <= tol

    @given(_design(tall=False))
    def test_wide_design_equals_residual_form_bit_for_bit(self, case):
        d, beta = case
        assert exact_objective_linear(d, beta) == objective_residual(d, beta)

    @pytest.mark.parametrize("K, p", [(1000, 20), (20, 20), (5, 20)], ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided-y"])
    def test_equals_residual_form_at_zero_bit_for_bit(self, K, p, strided):
        # a trace's first row, at x_0 = 0; a strided y sums its squares in
        # another order than a contiguous residual does
        for seed in (29, 30, 31):
            d = gen_linear_dataset(K, p, RngStream(seed))
            y = np.stack([d.y, -d.y], axis=1)[:, 0] if strided else d.y
            d = Dataset(d.X, y, "linear")
            assert exact_objective_linear(d, np.zeros(p)) == objective_residual(d, np.zeros(p))

    def test_objective_after_lipschitz_allocates_no_gram(self):
        # lipschitz_linear forms the 400 x 400 Gram (1.28 MB); the objective
        # then reads it, and lipschitz_linear again reuses it
        p = 400
        d = gen_linear_dataset(p + 100, p, RngStream(30))
        lipschitz_linear(d, "paper")
        beta = RngStream(31).normal(p)
        for call in (lambda: exact_objective_linear(d, beta), lambda: lipschitz_linear(d)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < p * p * 8 // 4

    def test_objective_forms_the_moments_lipschitz_reuses(self):
        # with no lipschitz_linear first (a lipschitz_override run), the first
        # objective call forms the moments, and lipschitz_linear reads them
        d = gen_linear_dataset(60, 8, RngStream(32))
        assert "moments" not in vars(d)
        exact_objective_linear(d, np.ones(8))
        gram = d.moments.gram
        assert np.array_equal(gram, d.X.T @ d.X)
        lipschitz_linear(d)
        assert d.moments.gram is gram


class TestMinibatchLinear:
    def test_full_batch_equals_exact_gradient(self):
        d = gen_linear_dataset(25, 4, RngStream(10))
        beta = RngStream(11).normal(4)
        full = minibatch_gradient_linear(d, beta, np.arange(25))
        assert np.allclose(full, exact_gradient(d, beta), atol=1e-12)
        # exact_gradient and the oracle read the link from the dataset's kind:
        # their bytes equal the per-kind bodies they replace, on a tall design
        # and a wide one
        for K, p in ((25, 4), (3, 8)):
            for d in (gen_linear_dataset(K, p, RngStream(12)),
                      gen_logistic_dataset(K, p, RngStream(12))):
                beta = RngStream(13).normal(p)
                if d.kind == "linear":
                    full = d.X.T @ (d.X @ beta - d.y) / d.K
                    minibatch = minibatch_gradient_linear
                else:
                    full = d.X.T @ (sigmoid(d.X @ beta) - d.y) / d.K
                    minibatch = minibatch_gradient_logistic
                assert exact_gradient(d, beta).tobytes() == full.tobytes()
                S = RngStream(14).indices(5, K)
                sample = MinibatchLinearOracle(d, 5).sample(beta, RngStream(14))
                assert sample.tobytes() == minibatch(d, beta, S).tobytes()

    def test_zero_everything(self):
        d = Dataset(np.eye(3), np.zeros(3), "linear")
        assert np.array_equal(
            minibatch_gradient_linear(d, np.zeros(3), [0, 1]), np.zeros(3)
        )

    def test_empty_batch_rejected(self):
        d = gen_linear_dataset(10, 4, RngStream(0))
        with pytest.raises(ParameterError):
            minibatch_gradient_linear(d, np.zeros(4), [])

    @pytest.mark.parametrize("S", [[-1, 2], [3, 10]], ids=["negative", "past-K"])
    def test_out_of_range_indices_rejected(self, S):
        d = gen_linear_dataset(10, 4, RngStream(0))
        with pytest.raises(ParameterError):
            minibatch_gradient_linear(d, np.zeros(4), S)

    def test_unbiased_smoke(self):
        d = gen_linear_dataset(200, 6, RngStream(12))
        beta = RngStream(13).normal(6)
        exact = exact_gradient(d, beta)
        rng = RngStream(14)
        draws = np.stack(
            [minibatch_gradient_linear(d, beta, rng.indices(10, d.K)) for _ in range(4000)]
        )
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 5 * se + 1e-12)


class TestLogisticGradients:
    def test_sigmoid_extremes_match_closed_form(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([50.0, -50.0, 1000.0, -1000.0]))
        assert np.isclose(1.0 - out[0], np.exp(-50.0), rtol=1e-12)
        assert np.isclose(out[1], np.exp(-50.0) / (1 + np.exp(-50.0)), rtol=1e-12)
        assert out[2] == 1.0 and out[3] == 0.0

    # zeros, infinities, the smallest subnormal and normal, and the edges of
    # exp's range, each with both signs
    EDGES = [0.0, np.inf, 5e-324, 2.2250738585072014e-308, 1e-300, 36.7, 709.78, 745.0,
             745.2, 1000.0]

    def test_sigmoid_matches_masked_form_on_edge_values(self):
        t = np.array(self.EDGES + [-v for v in self.EDGES])
        assert sigmoid(t).tobytes() == sigmoid_masked(t).tobytes()

    def test_sigmoid_of_nan_is_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    def test_sigmoid_matches_masked_form(self, values):
        t = np.array(values)
        assert sigmoid(t).tobytes() == sigmoid_masked(t).tobytes()

    def test_gradient_at_zero_coefficients(self):
        d = gen_logistic_dataset(50, 5, RngStream(15))
        S = np.arange(50)
        expected = ((0.5 - d.y)[:, None] * d.X).mean(axis=0)
        assert np.allclose(minibatch_gradient_logistic(d, np.zeros(5), S), expected)

    def test_full_batch_equals_exact(self):
        d = gen_logistic_dataset(40, 4, RngStream(16))
        beta = RngStream(17).normal(4)
        assert np.allclose(
            minibatch_gradient_logistic(d, beta, np.arange(40)),
            exact_gradient(d, beta),
            atol=1e-12,
        )

    def test_exact_gradient_matches_finite_differences(self):
        d = gen_logistic_dataset(30, 5, RngStream(18))
        rng = RngStream(19)
        for _ in range(5):
            beta = rng.normal(5)
            grad = exact_gradient(d, beta)
            fd = central_difference(lambda b: exact_objective_logistic(d, b), beta)
            assert np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12) < 1e-5


class TestContinuousModel:
    def test_closed_form_value_at_pattern(self):
        beta_hat = ground_truth("linear", 4)
        assert continuous_objective(beta_hat, beta_hat) == 0.5

    def test_gradient_vanishes_at_truth(self):
        beta_hat = ground_truth("linear", 8)
        assert np.array_equal(continuous_gradient(beta_hat, beta_hat), np.zeros(8))

    def test_oracle_mean_matches_gradient(self):
        beta_hat = ground_truth("linear", 6)
        oracle = ContinuousLinearOracle(beta_hat, 8)
        beta = RngStream(20).normal(6)
        rng = RngStream(21)
        draws = np.stack([oracle.sample(beta, rng) for _ in range(6000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        exact = continuous_gradient(beta, beta_hat)
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 5 * se + 1e-12)

    def test_monte_carlo_value_smoke(self):
        beta_hat = ground_truth("linear", 4)
        beta = np.array([0.5, 1.5, -0.3, 0.2])
        rng = RngStream(22)
        n = 200_000
        X = rng.normal(n * 4).reshape(n, 4)
        eps = rng.normal(n)
        y = X @ beta_hat + eps
        losses = 0.5 * (X @ beta - y) ** 2
        se = losses.std(ddof=1) / np.sqrt(n)
        assert abs(losses.mean() - continuous_objective(beta, beta_hat)) < 3 * se


class TestLipschitz:
    def test_identity_design(self):
        d = Dataset(np.eye(2), np.zeros(2), "linear")
        assert np.isclose(lipschitz_linear(d, "paper"), 1.0, rtol=1e-7)
        assert np.isclose(lipschitz_linear(d, "scaled"), 0.5, rtol=1e-7)

    def test_diagonal_design(self):
        d = Dataset(np.diag([3.0, 1.0]), np.zeros(2), "linear")
        assert np.isclose(lipschitz_linear(d, "paper"), 9.0, rtol=1e-7)
        assert np.isclose(lipschitz_linear(d, "scaled"), 4.5, rtol=1e-7)

    def test_matches_dense_eigensolver(self):
        # tall designs iterate on X^T X, wide ones on X X^T
        for K, p in ((100, 10), (10, 100)):
            X = RngStream(23).normal(K * p).reshape(K, p)
            d = Dataset(X, np.zeros(K), "linear")
            top = float(np.linalg.eigvalsh(X.T @ X).max())
            assert np.isclose(lipschitz_linear(d, "paper"), top, rtol=1e-6)

    def test_wide_design_allocates_no_p_by_p_gram(self):
        # a 2 x 3000 design is 48 KB; its X^T X would be 72 MB
        X = RngStream(28).normal(2 * 3000).reshape(2, 3000)
        d = Dataset(X, np.zeros(2), "linear")
        tracemalloc.start()
        try:
            value = lipschitz_linear(d, "paper")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.isclose(value, float(np.linalg.eigvalsh(X @ X.T).max()), rtol=1e-6)

    def test_unknown_convention(self):
        d = Dataset(np.eye(2), np.zeros(2), "linear")
        with pytest.raises(ParameterError):
            lipschitz_linear(d, "verbatim")

    @pytest.mark.xfail(strict=True, reason="power iteration stops 1.9e-7 (relative) below "
                                           "lambda_max on this instance")
    def test_upper_bounds_lambda_max_on_lasso_small(self):
        # the benchmark's lasso-small instance: L = 1236.98967266919 against
        # lambda_max = 1236.98990698035, so the step-size hypothesis L >= lambda_max
        # fails; an eigvalsh-based L passes, and moves the pinned final objectives
        d = seed_dataset("linear-discrete", 1000, 20, 1)
        assert lipschitz_linear(d, "paper") >= np.linalg.eigvalsh(d.moments.gram)[-1]


class TestOracles:
    def test_minibatch_oracle_uses_with_replacement_stream(self):
        d = gen_linear_dataset(12, 4, RngStream(24))
        oracle = MinibatchLinearOracle(d, 5)
        rng1, rng2 = RngStream(25), RngStream(25)
        g1 = oracle.sample(np.zeros(4), rng1)
        g2 = oracle.sample(np.zeros(4), rng2)
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros(5), np.zeros((4, 1)),
                                   [0.0] * 3, [0.0] * 5, [[0.0]] * 4],
                             ids=["short", "long", "column",
                                  "short-list", "long-list", "column-list"])
    @pytest.mark.parametrize("kind", ["linear", "logistic", "continuous"])
    def test_minibatch_oracle_rejects_wrong_shape(self, kind, x):
        if kind == "linear":
            oracle = MinibatchLinearOracle(gen_linear_dataset(12, 4, RngStream(24)), 5)
        elif kind == "logistic":
            oracle = MinibatchLinearOracle(gen_logistic_dataset(12, 4, RngStream(24)), 5)
        else:
            oracle = ContinuousLinearOracle(ground_truth("linear", 4), 5)
        with pytest.raises(DimensionError):
            oracle.sample(x, RngStream(25))

    def test_noise_oracle_variance(self):
        base = ExactOracle(lambda x: np.zeros(5), 5)
        noisy = GaussianNoiseOracle(base, 2.0)
        rng = RngStream(27)
        draws = np.stack([noisy.sample(np.zeros(5), rng) for _ in range(20000)])
        mean_sq_norm = (draws**2).sum(axis=1).mean()
        assert abs(mean_sq_norm - 4.0) < 0.1

    def test_noiseless_oracle_returns_base_gradient_and_draws_nothing(self):
        g = RngStream(26).normal(5)
        noisy = GaussianNoiseOracle(ExactOracle(lambda x: g, 5), 0.0)
        rng = RngStream(27)
        assert noisy.sample(np.zeros(5), rng) is g
        # the stream's next draws are a fresh stream's first
        assert rng.normal(7).tobytes() == RngStream(27).normal(7).tobytes()


class TestOrthoLasso:
    def test_design_is_orthogonal_with_unit_scaled_lipschitz(self):
        d, x_star = ortho_lasso_instance(8, 0.1, RngStream(28))
        gram = d.X.T @ d.X
        assert np.allclose(gram, 8 * np.eye(8), atol=1e-9)
        assert np.isclose(lipschitz_linear(d, "scaled"), 1.0, rtol=1e-7)

    def test_optimum_satisfies_subgradient_condition(self):
        lam = 0.15
        d, x_star = ortho_lasso_instance(8, lam, RngStream(29))
        grad = exact_gradient(d, x_star)
        for j in range(8):
            if x_star[j] != 0.0:
                assert abs(grad[j] + lam * np.sign(x_star[j])) < 1e-9
            else:
                assert abs(grad[j]) <= lam + 1e-9

    def test_deterministic(self):
        d1, x1 = ortho_lasso_instance(8, 0.1, RngStream(30))
        d2, x2 = ortho_lasso_instance(8, 0.1, RngStream(30))
        assert np.array_equal(d1.X, d2.X) and np.array_equal(x1, x2)


class TestDatasetCsv:
    def test_roundtrip_linear(self, tmp_path):
        d = gen_linear_dataset(15, 4, RngStream(31))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, d)
        header, X, y = read_dataset_csv(path)
        assert header == ["y", "x1", "x2", "x3", "x4"]
        assert np.array_equal(X, d.X)
        assert np.array_equal(y, d.y)
        lines = path.read_bytes().decode().split("\n")
        assert "\r" not in "".join(lines)
        assert lines[1] == ",".join(f"{v:.17g}" for v in [d.y[0], *d.X[0]])

    def test_roundtrip_logistic_validates(self, tmp_path):
        d = gen_logistic_dataset(10, 3, RngStream(32))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, d)
        header, X, y = read_dataset_csv(path)
        assert header == ["y", "x1", "x2", "x3"]
        assert np.array_equal(X, d.X)
        assert np.array_equal(y, d.y)
