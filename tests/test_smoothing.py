import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from composite_sgd.core import DimensionError, ParameterError, RngStream
from composite_sgd.regularizers import (
    GroupStructure,
    build_hierarchical,
    evaluate,
    group_norm,
    l1,
)
from composite_sgd.smoothing import (
    MU_FLOOR,
    lipschitz_mu,
    maximizer,
    mu_schedule,
    smoothed,
    smoothed_gradient,
    smoothed_value,
)

from _reference import (central_difference, flat_family, groups_of, materialize_map,
                        maximizer_formula, smoothed_gradient_formula)
from test_regularizers import overlapping_instances


def group_pair():
    return group_norm(1.0, GroupStructure(*flat_family([np.array([0, 1])], np.array([1.0]), 2)))


class TestMaximizer:
    def test_l1_clamps_per_coordinate(self):
        s = smoothed(l1(0.1, 2), mu=0.05)
        assert np.allclose(maximizer(s, [1.0, -0.2]), [1.0, -0.4])

    def test_zero_input(self):
        s = smoothed(l1(0.3, 4), mu=0.1)
        assert np.array_equal(maximizer(s, np.zeros(4)), np.zeros(4))
        sg = smoothed(group_pair(), mu=0.2)
        assert np.array_equal(maximizer(sg, np.zeros(2)), np.zeros(2))

    def test_group_interior_solution(self):
        s = smoothed(group_pair(), mu=10.0)
        assert np.allclose(maximizer(s, [3.0, 4.0]), [0.3, 0.4])

    def test_feasibility_exact(self):
        rng = RngStream(2)
        s = smoothed(group_norm(0.5, build_hierarchical(3)), mu=0.01)
        st = s.base.structure
        for _ in range(50):
            v = maximizer(s, 3.0 * rng.normal(8))
            assert np.all(st.block_norms(v) <= 1.0 + 1e-15)
        sl1 = smoothed(l1(0.5, 8), mu=0.01)
        for _ in range(50):
            v = maximizer(sl1, 3.0 * rng.normal(8))
            assert np.all(np.abs(v) <= 1.0 + 1e-15)

    def test_solves_per_coordinate_concave_problem(self):
        # brute-force the 1-d concave maximization lam*x*v - (mu/2) v^2 on [-1, 1]
        s = smoothed(l1(0.1, 2), mu=0.05)
        x = np.array([1.0, -0.2])
        v = maximizer(s, x)
        grid = np.linspace(-1.0, 1.0, 200001)
        for j in range(2):
            values = 0.1 * x[j] * grid - 0.025 * grid**2
            assert abs(v[j] - grid[np.argmax(values)]) < 1e-5


class TestSmoothedValue:
    def test_hand_example_and_bracket(self):
        s = smoothed(l1(0.1, 2), mu=0.05)
        x = np.array([1.0, -0.2])
        value = smoothed_value(s, x)
        assert np.isclose(value, 0.079, atol=1e-12)
        h = evaluate(s.base, x)
        assert np.isclose(h, 0.12)
        assert value <= h <= value + s.mu * s.M + 1e-12

    def test_matches_dense_grid_maximization(self):
        # independent oracle: maximize v.(lam x) - (mu/2)||v||^2 over a grid on [-1,1]^2
        s = smoothed(l1(0.1, 2), mu=0.05)
        x = np.array([1.0, -0.2])
        ticks = np.linspace(-1.0, 1.0, 2001)
        v1, v2 = np.meshgrid(ticks, ticks, indexing="ij")
        objective = 0.1 * (v1 * x[0] + v2 * x[1]) - 0.025 * (v1**2 + v2**2)
        assert abs(smoothed_value(s, x) - objective.max()) < 5e-4

    def test_zero_at_origin(self):
        assert smoothed_value(smoothed(l1(0.2, 3), mu=0.1), np.zeros(3)) == 0.0

    def test_nonincreasing_in_mu(self):
        rng = RngStream(4)
        x = rng.normal(8)
        reg = group_norm(0.3, build_hierarchical(3))
        mus = [0.01, 0.05, 0.2, 1.0, 5.0]
        values = [smoothed_value(smoothed(reg, mu=m), x) for m in mus]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_sandwich_property(self):
        rng = RngStream(6)
        regs = [l1(0.4, 8), group_norm(0.25, build_hierarchical(3))]
        for reg in regs:
            for _ in range(200):
                x = 4.0 * rng.normal(8)
                mu = 10.0 ** (-3 + 4 * rng.uniform(1)[0])
                s = smoothed(reg, mu=mu)
                value = smoothed_value(s, x)
                h = evaluate(reg, x)
                assert value <= h + 1e-10
                assert h <= value + mu * s.M + 1e-10


class TestSmoothedGradient:
    def test_zero_at_origin(self):
        s = smoothed(group_norm(0.3, build_hierarchical(2)), mu=0.1)
        assert np.array_equal(smoothed_gradient(s, np.zeros(4)), np.zeros(4))

    def test_saturated_clamp_gives_sign_subgradient(self):
        s = smoothed(l1(0.5, 3), mu=0.01)
        x = np.array([1.0, -2.0, 0.5])  # |lam x| >= mu everywhere
        assert np.allclose(smoothed_gradient(s, x), 0.5 * np.sign(x))

    def test_matches_finite_differences(self):
        rng = RngStream(9)
        three_blocks = GroupStructure(*flat_family(
            [np.arange(3), np.arange(3, 6), np.arange(6)],
            np.array([1.0, 1.3, 0.7]),
            6,
        ))
        cases = [
            smoothed(l1(0.4, 6), mu=0.07),
            smoothed(group_norm(0.3, three_blocks), mu=0.05),
        ]
        for s in cases:
            for _ in range(50):
                x = 2.0 * rng.normal(6)
                grad = smoothed_gradient(s, x)
                fd = central_difference(lambda v: smoothed_value(s, v), x, step=1e-6)
                denom = max(np.linalg.norm(grad), 1e-12)
                assert np.linalg.norm(fd - grad) / denom < 1e-4

    def test_gradient_lipschitz_bound(self):
        rng = RngStream(10)
        s = smoothed(group_norm(0.5, build_hierarchical(3)), mu=0.02)
        constant = s.A_norm**2 / s.mu
        for _ in range(200):
            x = 3.0 * rng.normal(8)
            y = 3.0 * rng.normal(8)
            lhs = np.linalg.norm(smoothed_gradient(s, x) - smoothed_gradient(s, y))
            assert lhs <= constant * np.linalg.norm(x - y) + 1e-10


def random_overlapping_structure(p=12, count=8, seed=5):
    gen = np.random.default_rng(seed)
    groups = [gen.choice(p, size=gen.integers(2, 6), replace=False) for _ in range(count)]
    st = GroupStructure(*flat_family(groups, gen.uniform(0.5, 2.0, count), p))
    assert not st.is_laminar
    return st


class TestDualMap:
    """The smoothing against the dense matrix A of the block-selection map."""

    @pytest.mark.parametrize(
        "structure", [lambda: build_hierarchical(3), random_overlapping_structure],
        ids=["hierarchical", "overlapping"],
    )
    def test_gradient_is_adjoint_of_projected_maximizer(self, structure):
        st = structure()
        lam, mu = 0.3, 0.05
        s = smoothed(group_norm(lam, st), mu=mu)
        A = materialize_map(lam, groups_of(st), st.weights, st.p)
        bounds = np.cumsum([0] + [len(g) for g in groups_of(st)])
        rng = RngStream(3)
        for _ in range(20):
            x = 3.0 * rng.normal(st.p)
            t = A @ x / mu
            projected = np.concatenate([
                t[lo:hi] / max(1.0, np.linalg.norm(t[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])
            ])
            v = maximizer(s, x)
            assert np.max(np.abs(v - projected)) <= 1e-12
            assert np.max(np.abs(smoothed_gradient(s, x) - A.T @ v)) <= 1e-12


class TestProjectionBits:
    """The maximizer spreads each group's projection factor with the
    structure's flat owner map; the formula spreads it with np.repeat."""

    @given(overlapping_instances(), hst.floats(-6.0, 2.0))
    def test_equals_repeat_form_on_random_groups(self, instance, log_mu):
        groups, weights, p, lam, _, u = instance
        reg = group_norm(lam, GroupStructure(*flat_family(groups, weights, p)))
        s = smoothed(reg, mu=10.0**log_mu)
        assert maximizer(s, u).tobytes() == maximizer_formula(s, u).tobytes()

    @pytest.mark.parametrize("n", [0, 3, 9])
    def test_equals_repeat_form_on_trees(self, n):
        s = smoothed(group_norm(0.05, build_hierarchical(n)), mu=1e-3)
        rng = RngStream(50 + n)
        for _ in range(5):
            x = 3.0 * rng.normal(2**n)
            assert maximizer(s, x).tobytes() == maximizer_formula(s, x).tobytes()


# Signed zeros, subnormals, entries near 1e300, whose A x overflows, and NaN.
TILED_EDGES = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e300, -3e300, 1.7e308, float("nan")]


@hst.composite
def tiled_smoothings(draw):
    """(smoothed penalty, x) on a flat layout of full covers of 0..p-1 in
    order: a dyadic tree with n = 1..7, or up to 30 covers of p = 2..12
    coordinates, each cut into consecutive groups at its own cuts; x mixes
    ordinary entries with ``TILED_EDGES``."""
    if draw(hst.booleans()):
        gs = build_hierarchical(draw(hst.integers(1, 7)))
    else:
        p = draw(hst.integers(2, 12))
        groups = []
        for _ in range(draw(hst.integers(1, 30))):
            cuts = sorted(draw(hst.sets(hst.integers(1, p - 1))))
            groups += [np.arange(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, p])]
        weights = draw(arrays(np.float64, len(groups), elements=hst.floats(0.1, 3.0)))
        gs = GroupStructure(*flat_family(groups, weights, p))
    entries = hst.one_of(hst.floats(-50.0, 50.0), hst.sampled_from(TILED_EDGES))
    x = draw(arrays(np.float64, gs.p, elements=entries))
    lam, log_mu = draw(hst.floats(0.01, 5.0)), draw(hst.floats(-6.0, 2.0))
    return smoothed(group_norm(lam, gs), mu=10.0**log_mu), x


def formula_value(s, x):
    """h_mu(x) at ``maximizer_formula``'s v, with A x gathered."""
    st = s.base.structure
    if st is None:
        ax = s.base.lam * x
    else:
        ax = s.base.lam * st.rep_weights * x[st.flat_index]
    v = maximizer_formula(s, x)
    return float(v @ ax - 0.5 * s.mu * (v @ v))


def without_nan_signs(a):
    """The bytes of float array ``a`` with each NaN's sign bit cleared."""
    bits = a.view(np.uint64).copy()
    bits[np.isnan(a)] &= np.uint64(2**63 - 1)
    return bits.tobytes()


def assert_smoothing_equals_formulas(s, x, nan_signs=True):
    # bytes compare NaN payloads and zero signs too; A x overflows near 1e300.
    # With nan_signs False the gradient's NaNs must sit where the formula's
    # do, as the tiled layout's axis-0 sum promises, with any sign.
    with np.errstate(all="ignore"):
        grad, grad_ref = smoothed_gradient(s, x), smoothed_gradient_formula(s, x)
        pairs = [(maximizer(s, x), maximizer_formula(s, x)),
                 (np.float64(smoothed_value(s, x)), np.float64(formula_value(s, x)))]
    if nan_signs:
        assert grad.tobytes() == grad_ref.tobytes()
    else:
        assert np.array_equal(np.isnan(grad), np.isnan(grad_ref))
        assert without_nan_signs(grad) == without_nan_signs(grad_ref)
    for out, ref in pairs:
        assert out.tobytes() == ref.tobytes()


class TestTiledLayout:
    """A flat layout of L full covers of 0..p-1, p >= 2, is read as an (L, p)
    array: A x broadcast, A^T v summed over axis 0, with the bits of the
    gather and, but for a NaN's sign, of bincount."""

    @pytest.mark.deep
    @given(tiled_smoothings())
    def test_covers_path_equals_gather_and_bincount_bit_for_bit(self, case):
        s, x = case
        st = s.base.structure
        assert st.covers == st.flat_index.size // st.p >= 1
        assert_smoothing_equals_formulas(s, x, nan_signs=False)

    def test_tiled_shapes_off_the_covers_path_keep_the_general_bytes(self):
        # At p = 1 an axis-0 sum of 20 rows adds pairwise, not in bincount's
        # order; the others are no run of full covers in order.
        families = {
            "20 copies of 1:1": ([np.array([0])] * 20, 1),
            "a partition out of coordinate order": ([np.array([2, 3]), np.array([0, 1])], 4),
            "a partial cover": ([np.arange(6), np.arange(3)], 6),
            "a non-cover of L * p entries": ([np.arange(4), np.arange(2), np.arange(2)], 4),
        }
        rng = RngStream(25)
        for groups, p in families.values():
            weights = np.linspace(0.3, 2.0, len(groups))
            st = GroupStructure(*flat_family(groups, weights, p))
            assert st.covers == 0
            for mu in (1e-3, 1e2):
                s = smoothed(group_norm(0.7, st), mu=mu)
                for _ in range(30):
                    assert_smoothing_equals_formulas(s, rng.normal(p))

    def test_nans_of_two_signs_meeting_in_the_sum_sit_where_bincounts_do(self):
        # x_0's NaN meets the -NaN of inf * 0 (the second cover's block of
        # 1.7e308 has A x = inf and factor 1 / inf) at every coordinate but
        # the first; at p = 9 and 17 the last one is numpy's scalar tail,
        # which keeps another operand's NaN than the vector loop and bincount.
        for p in (2, 3, 4, 9, 17):
            groups = [np.arange(p), np.array([0]), np.arange(1, p)]
            st = GroupStructure(*flat_family(groups, np.full(3, 2.0), p))
            assert st.covers == 2
            x = np.full(p, 1.7e308)
            x[0] = np.nan
            s = smoothed(group_norm(1.0, st), mu=1.0)
            assert_smoothing_equals_formulas(s, x, nan_signs=False)
            with np.errstate(all="ignore"):
                assert np.isnan(smoothed_gradient(s, x)).all()

    def test_every_dyadic_tree_of_two_or_more_coordinates_is_tiled(self):
        assert build_hierarchical(0).covers == 0
        for n in range(1, 10):
            assert build_hierarchical(n).covers == n + 1


# l1: signed zeros, the smallest subnormals, 1e300, where lam x / mu overflows
# at the smaller mu, infinities and NaN.
L1_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
            float("inf"), float("-inf"), float("nan")]


def l1_smoothing(lam, p, N):
    """Smoothed l1 at the horizon schedule mu = lam / (N + 2), or at MU_FLOOR
    when ``N`` is None."""
    return smoothed(l1(lam, p), mu=MU_FLOOR) if N is None else smoothed(l1(lam, p), N=N)


@hst.composite
def l1_smoothings(draw):
    """(smoothed l1 penalty, x) with mu scheduled for N up to 10^6 or at
    MU_FLOOR; x mixes ordinary entries with ``L1_EDGES``."""
    p = draw(hst.integers(1, 30))
    N = draw(hst.none() | hst.integers(0, 10**6))
    entries = hst.one_of(hst.floats(-50.0, 50.0), hst.sampled_from(L1_EDGES))
    x = draw(arrays(np.float64, p, elements=entries))
    return l1_smoothing(draw(hst.floats(0.01, 5.0)), p, N), x


class TestL1Clamp:
    """The l1 smoothing clamps lam x / mu with 0-d bounds; its bytes are those
    of np.clip with Python-float bounds."""

    @pytest.mark.deep
    @given(l1_smoothings())
    def test_equals_clip_form_bit_for_bit(self, case):
        assert_smoothing_equals_formulas(*case)

    @pytest.mark.parametrize("N", [None, 0, 10**4], ids=["floor", "N=0", "N=1e4"])
    def test_every_edge_value_bit_for_bit(self, N):
        x = np.array(L1_EDGES)
        for lam in (0.1, 3.0):
            assert_smoothing_equals_formulas(l1_smoothing(lam, x.size, N), x)
            for i in range(x.size):  # each edge alone: no NaN in the value's sums
                assert_smoothing_equals_formulas(l1_smoothing(lam, 1, N), x[i:i + 1])


class TestDerivedCopies:
    """``SmoothedRegularizer`` keeps 0-d copies of its fields; they must
    follow the fields through ``dataclasses.replace`` and pickling."""

    @pytest.mark.parametrize(
        "reg", [l1(0.3, 8), group_norm(0.3, build_hierarchical(3)),
                group_norm(0.3, random_overlapping_structure())],
        ids=["l1", "tree", "overlapping"])
    def test_replace_and_pickle_equal_a_fresh_object(self, reg):
        x = 2.0 * RngStream(26).normal(reg.p)
        s = smoothed(reg, mu=1.0)
        heavier = dataclasses.replace(reg, lam=0.9)
        for moved, fresh in [(dataclasses.replace(s, mu=1e-3), smoothed(reg, mu=1e-3)),
                             (dataclasses.replace(s, base=heavier), smoothed(heavier, mu=1.0))]:
            want = smoothed_gradient(fresh, x).tobytes()
            assert want != smoothed_gradient(s, x).tobytes()
            assert smoothed_gradient(moved, x).tobytes() == want
            assert smoothed_gradient(pickle.loads(pickle.dumps(moved)), x).tobytes() == want


@pytest.mark.parametrize("fn", [maximizer, smoothed_value, smoothed_gradient])
@pytest.mark.parametrize(
    "reg", [l1(0.1, 4), group_norm(0.1, build_hierarchical(2))], ids=["l1", "group"]
)
def test_wrong_length_raises(fn, reg):
    s = smoothed(reg, mu=1.0)
    for bad in (np.ones(3), np.ones(7)):
        with pytest.raises(DimensionError):
            fn(s, bad)


class TestConstants:
    def test_lipschitz_mu_hand_values(self):
        s = smoothed(l1(0.1, 4), mu=0.05)
        assert np.isclose(lipschitz_mu(1.0, s), 1.2)

    def test_inert_smoothing_keeps_base_constant(self):
        # A = 0: mu falls back to MU_FLOOR, L_mu = L exactly and the gradient is 0
        for reg in (l1(0.0, 4), group_norm(0.0, build_hierarchical(2))):
            s = smoothed(reg, N=100)
            assert s.A_norm == 0.0 and s.mu == MU_FLOOR
            assert lipschitz_mu(1.0, s) == 1.0
            x = np.linspace(-3.0, 3.0, reg.p)
            assert np.array_equal(smoothed_gradient(s, x), np.zeros(reg.p))
            assert smoothed_value(s, x) == 0.0

    def test_schedule_substitution_chain(self):
        mu = mu_schedule(0.1, 98)
        assert mu == 0.001
        s = smoothed(l1(0.1, 4), mu=mu)
        assert np.isclose(lipschitz_mu(1.0, s), 11.0)

    def test_mu_schedule_values(self):
        assert mu_schedule(0.1, 98) == 0.001
        assert mu_schedule(0.0, 98) == MU_FLOOR
        assert mu_schedule(1.0, 0) == 0.5

    def test_m_constant(self):
        assert smoothed(l1(0.1, 10), mu=1.0).M == 5.0
        assert smoothed(group_norm(0.1, build_hierarchical(2)), mu=1.0).M == 3.5

    def test_default_mu_is_horizon_schedule(self):
        reg = l1(0.2, 6)
        s = smoothed(reg, N=98)
        assert np.isclose(s.mu, 0.2 / 100.0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            smoothed(l1(0.1, 2), mu=0.0)
        with pytest.raises(ParameterError):
            smoothed(l1(0.1, 2))
        with pytest.raises(ParameterError):
            lipschitz_mu(-1.0, smoothed(l1(0.1, 2), mu=0.5))
