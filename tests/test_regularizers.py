import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from composite_sgd.core import (ENVELOPE, ConvergenceError, DimensionError, ParameterError,
                                RngStream)
from composite_sgd.regularizers import (
    GroupStructure,
    build_hierarchical,
    evaluate,
    group_norm,
    l1,
    load_group_structure,
    prox,
    save_group_structure,
    soft_threshold,
    _prox_dual_fista,
    _prox_laminar,
)

from _reference import (
    PerGroupStructure,
    flat_family,
    groups_of,
    is_laminar_dense,
    materialize_map,
    prox_dual_ascent_loop,
    prox_dual_fista_repeat,
    prox_laminar_loop,
    prox_laminar_masked,
    prox_objective,
    prox_reference,
    random_laminar_structure,
    singleton_structure,
    soft_threshold_sign,
)


def nested_pair_structure():
    # singletons plus the covering pair: laminar, but with overlapping coverage
    return GroupStructure(*flat_family(
        [np.array([0]), np.array([1]), np.array([0, 1])],
        np.array([1.0, 1.0, np.sqrt(2.0)]),
        2,
    ))


def crossing_structure():
    # {0,1} and {1,2} share coordinate 1 without nesting: not laminar
    return GroupStructure(*flat_family(
        [np.array([0, 1]), np.array([1, 2])],
        np.array([1.0, 1.5]),
        3,
    ))


def assert_same_bytes(a, b):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_structure(gs, ref):
    """Every stored array of ``gs`` has the bytes and dtype of ``ref``'s, and
    its layer plan the same tuples, slices where ``ref`` has slices."""
    assert gs.p == ref.p and len(gs) == len(ref.groups)
    assert type(gs.max_cover) is int and gs.max_cover == ref.max_cover
    for name in ("flat_index", "sizes", "offsets", "owner", "weights"):
        assert_same_bytes(getattr(gs, name), getattr(ref, name))
    if ref.layers is None:
        assert gs.layers is None and gs.layer_weights is None
        return
    assert_same_bytes(gs.layer_weights, ref.layer_weights)
    assert len(gs.layers) == len(ref.layers)
    for (index, offsets, owner, lo, hi), ref_layer in zip(gs.layers, ref.layers):
        ref_index, ref_offsets, ref_owner, ref_lo, ref_hi = ref_layer
        if isinstance(ref_index, slice):
            assert isinstance(index, slice) and index == ref_index
            assert type(index.start) is int and type(index.stop) is int
        else:
            assert_same_bytes(index, ref_index)
        assert_same_bytes(offsets, ref_offsets)
        assert_same_bytes(owner, ref_owner)
        assert (type(lo), type(hi), lo, hi) == (int, int, ref_lo, ref_hi)


class TestGroupStructure:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GroupStructure(*flat_family([np.array([0, 2])], np.array([1.0]), 2))
        with pytest.raises(ParameterError):
            GroupStructure(*flat_family([np.array([0])], np.array([0.0]), 1))
        with pytest.raises(ParameterError):
            GroupStructure(*flat_family([np.array([0, 0])], np.array([1.0]), 2))
        with pytest.raises(ParameterError):
            GroupStructure(*flat_family([], np.array([]), 3))
        with pytest.raises(DimensionError):
            GroupStructure([0, 1], [1, 2], np.ones(2), 2)
        with pytest.raises(DimensionError):
            GroupStructure([0, 1], [3, -1], np.ones(2), 2)
        # the first faulty group in stored order is reported, with its first
        # fault of: empty, out of range, repeat
        with pytest.raises(ParameterError, match="^group 1 repeats an index$"):
            GroupStructure(*flat_family([[0, 1], [2, 2], [3], [1, 9]], np.ones(4), 4))
        with pytest.raises(ParameterError, match=r"^group 1 has indices outside \[0, 4\)$"):
            GroupStructure(*flat_family([[0], [3, 3, 4], []], np.ones(3), 4))

    @pytest.mark.parametrize("sizes", [1, [[1]]], ids=["scalar", "2-d"])
    def test_sizes_not_1d_are_refused_naming_sizes(self, sizes):
        with pytest.raises(DimensionError, match=r"^sizes must be a 1-d vector, got shape"):
            GroupStructure([0], sizes, [1.0], 1)

    def test_index_not_1d_is_refused_naming_index(self):
        # was blamed on sizes, which do sum to its one index
        message = r"^index must be a 1-d vector, got shape \(1, 1\)$"
        with pytest.raises(DimensionError, match=message):
            GroupStructure([[0]], [1], [1.0], 1)

    @pytest.mark.parametrize("index, sizes, fault", [
        ([0.5, 1.7], [2], "index[0] must be an integer, got 0.5"),
        ([0, 1], [1, 1.9], "sizes[1] must be an integer, got 1.9"),
        ([0, math.nan], [2], "index[1] must be an integer, got nan"),
        ([0, 1], [math.inf, 1], "sizes[0] must be an integer, got inf"),
        ([0, 2.0**63], [2], "index[1] must be an integer, got 9.223372036854776e+18"),
    ], ids=["index", "sizes", "nan", "inf", "past-int64"])
    def test_non_integral_entry_is_refused(self, index, sizes, fault):
        # a cast to int64 truncated these, or raised ValueError on NaN: [0.5, 1.7]
        # built the group {0, 1}
        with pytest.raises(ParameterError, match=f"^{re.escape(fault)}$"):
            GroupStructure(index, sizes, np.ones(len(sizes)), 2)

    def test_float_entries_holding_integers_are_taken(self):
        got = GroupStructure([1.0, 0.0, 1.0], np.array([2.0, 1.0]), [1.0, 2.0], 2)
        want = GroupStructure([1, 0, 1], [2, 1], [1.0, 2.0], 2)
        for name in ("flat_index", "sizes", "offsets", "owner"):
            assert_same_bytes(getattr(got, name), getattr(want, name))

    def test_laminar_flag(self):
        nested = GroupStructure(*flat_family(
            [np.array([0, 1, 2, 3]), np.array([0, 1]), np.array([2, 3])],
            np.ones(3),
            4,
        ))
        assert nested.is_laminar
        assert nested_pair_structure().is_laminar
        assert not crossing_structure().is_laminar

    def test_serialization_roundtrip(self, tmp_path):
        st_in = crossing_structure()
        path = tmp_path / "groups.txt"
        save_group_structure(st_in, path)
        st_out = load_group_structure(path, p=3)
        assert len(st_out) == len(st_in)
        for a, b in zip(groups_of(st_out), groups_of(st_in)):
            assert np.array_equal(a, b)
        assert np.allclose(st_out.weights, st_in.weights)

    def test_serialization_is_one_based(self, tmp_path):
        path = tmp_path / "groups.txt"
        save_group_structure(singleton_structure(2), path)
        text = path.read_text()
        assert "1: 1" in text.splitlines()[0]

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ParameterError, match=r"group 1 weight must be in \[1e-50, 1e\+50\]"):
            GroupStructure(*flat_family([[0], [1]], np.array([1.0, weight]), 2))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0", "-1"])
    def test_load_rejects_bad_weight_naming_line(self, tmp_path, weight):
        path = tmp_path / "groups.txt"
        path.write_text(f"1: 1,2\n\n{weight}: 2,3\n")
        with pytest.raises(ParameterError, match="line 3"):
            load_group_structure(path, p=3)

    @pytest.mark.parametrize("lines, fault", [
        ("1: 1,2\n\n1: 3,9\n", "line 3: index 9 is outside [1, 4]"),
        ("1: 0\n", "line 1: index 0 is outside [1, 4]"),
        ("1: 4,1,4\n2: 2,2\n", "line 1: index 4 is repeated"),
    ], ids=["above-p", "zero", "repeated"])
    def test_load_names_line_and_index_of_fault(self, tmp_path, lines, fault):
        path = tmp_path / "groups.txt"
        path.write_text(lines)
        with pytest.raises(ParameterError, match=f"^{re.escape(fault)}$"):
            load_group_structure(path, p=4)

    def test_load_rejects_index_past_int64_naming_line(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text("1: 1,99999999999999999999999\n")
        with pytest.raises(ParameterError, match="^line 1: cannot parse "):
            load_group_structure(path, p=3)


class TestBuildHierarchical:
    def test_trivial_tree(self):
        st0 = build_hierarchical(0)
        assert st0.p == 1
        assert len(st0) == 1
        assert np.array_equal(groups_of(st0)[0], [0])
        assert st0.weights[0] == 1.0

    def test_level_one_block(self):
        st2 = build_hierarchical(2)
        assert len(st2) == 7
        # level i=1, j=2 covers 1-based coordinates {3, 4}
        level1 = [g for g in groups_of(st2) if g.size == 2]
        assert np.array_equal(level1[1], [2, 3])
        assert st2.is_laminar

    def test_depth_five(self):
        st5 = build_hierarchical(5)
        assert st5.p == 32
        assert len(st5) == 63
        assert np.allclose(st5.weights, np.sqrt(st5.sizes))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            build_hierarchical(-1)

    def test_equals_per_group_reference(self):
        for n in range(11):
            levels = [(2**i, 2 ** (n - i)) for i in range(n + 1)]
            groups = [np.arange(j * size, (j + 1) * size, dtype=np.int64)
                      for size, count in levels for j in range(count)]
            weights = np.array([np.sqrt(size) for size, count in levels for _ in range(count)])
            assert_same_structure(build_hierarchical(n), PerGroupStructure(groups, weights, 2**n))


@st.composite
def group_families(draw, laminar=False, ordered=False):
    """(groups, weights, p): a random forest of nested groups over a shuffled
    coordinate order, plus identical duplicates. Unless ``laminar``, it also
    gets either a group that crosses one of its groups or arbitrary extra
    groups. The stored order is shuffled. With ``ordered``, the coordinates
    stay in order and groups are stored in the order they were nested, so a
    depth layer's groups can be adjacent ranges."""
    p = draw(st.integers(1 if laminar else 3, 10))
    perm = np.arange(p) if ordered else np.array(draw(st.permutations(range(p))),
                                                 dtype=np.int64)
    groups = []

    def nest(lo, hi):
        groups.append(perm[lo:hi])
        if hi - lo >= 2 and draw(st.booleans()):
            mid = draw(st.integers(lo + 1, hi - 1))
            for a, b in ((lo, mid), (mid, hi)):
                if draw(st.booleans()):
                    nest(a, b)

    cuts = sorted(draw(st.sets(st.integers(1, p - 1)))) if p > 1 else []
    for lo, hi in zip([0, *cuts], [*cuts, p]):
        if draw(st.booleans()):
            nest(lo, hi)
    if not groups:
        nest(0, p)
    for k in draw(st.lists(st.integers(0, len(groups) - 1), max_size=2)):
        groups.append(groups[k].copy())
    if not laminar:
        if draw(st.booleans()):
            # a near miss: one coordinate of a group swapped for one outside it
            crossable = [g for g in groups if 2 <= g.size < p]
            if crossable:
                g = draw(st.sampled_from(crossable))
                outside = np.setdiff1d(np.arange(p), g).tolist()
                groups.append(np.append(g[1:], draw(st.sampled_from(outside))))
            else:
                groups += [perm[:2], perm[1:3]]
        else:
            extras = draw(st.lists(st.sets(st.integers(0, p - 1), min_size=1),
                                   min_size=1, max_size=2))
            groups += [np.array(sorted(e), dtype=np.int64) for e in extras]
    order = range(len(groups)) if ordered else draw(st.permutations(range(len(groups))))
    weights = draw(arrays(np.float64, len(groups), elements=st.floats(0.1, 3.0)))
    return [groups[k] for k in order], weights, p


@st.composite
def faulty_families(draw):
    """(groups, weights, p): a ``group_families`` family, laminar or not, with
    coordinates in order or shuffled, and up to three faults planted in random
    groups: a group emptied, an index outside [0, p) inserted, an index of the
    group inserted again."""
    groups, weights, p = draw(group_families(laminar=draw(st.booleans()),
                                             ordered=draw(st.booleans())))
    for fault in draw(st.lists(st.sampled_from(["empty", "outside", "repeat"]), max_size=3)):
        k = draw(st.integers(0, len(groups) - 1))
        g = groups[k]
        if fault == "empty":
            groups[k] = g[:0]
        elif fault == "outside":
            bad = draw(st.sampled_from([-1, p, p + 7, -(2**62), 2**62]))
            groups[k] = np.insert(g, draw(st.integers(0, g.size)), bad)
        elif g.size:
            groups[k] = np.insert(g, draw(st.integers(0, g.size)), draw(st.sampled_from(g)))
    return groups, weights, p


# {1, 2} crosses both {0, 1} and {2, 3}, yet all three are roots: a check on
# depths alone would call the family laminar.
CROSSING_AT_EQUAL_DEPTH = ([[0, 1], [2, 3], [1, 2]], np.ones(3), 4)
# A root holding a chain of three identical groups and their sibling, stored
# out of order: the copies nest in stored order, one layer each.
IDENTICAL_CHAIN = ([[0, 1], [0, 1, 2, 3], [2, 3], [0, 1], [0, 1]],
                   np.array([0.5, 1.0, 2.0, 0.7, 0.9]), 4)


class TestFlatConstructor:
    @pytest.mark.deep
    @given(faulty_families())
    @example(([[0, 1], [2, 2], [3], [1, 9]], np.ones(4), 4))
    @example(([[0], [3, 3, 9], []], np.ones(3), 4))
    @example(CROSSING_AT_EQUAL_DEPTH)
    @example(IDENTICAL_CHAIN)
    def test_flat_constructor_equals_per_group_reference(self, family):
        # byte for byte and dtype for dtype, or the same fault message
        try:
            ref = PerGroupStructure(*family)
        except ParameterError as exc:
            with pytest.raises(ParameterError) as err:
                GroupStructure(*flat_family(*family))
            assert str(err.value) == str(exc)
            return
        assert_same_structure(GroupStructure(*flat_family(*family)), ref)

    @pytest.mark.parametrize("case", ["singletons", "copies", "tree"])
    def test_large_families_equal_per_group_reference(self, case):
        # one layer of 2e4 groups; a root over 500 copies of one group, one
        # layer per copy; the 13 layers of a dyadic tree's 8191 groups
        if case == "tree":
            p = 2**12
            groups = [np.arange(j, j + size) for size in 2 ** np.arange(13)
                      for j in range(0, p, size)]
            weights = np.sqrt([len(g) for g in groups])
            gs = build_hierarchical(12)
        else:
            if case == "singletons":
                groups, p = [[i] for i in range(20_000)], 20_000
            else:
                groups, p = [list(range(6))] + [[1, 3, 4]] * 500, 6
            weights = np.linspace(0.5, 2.0, len(groups))
            gs = GroupStructure(*flat_family(groups, weights, p))
        assert_same_structure(gs, PerGroupStructure(groups, weights, p))


# Signed zeros, subnormals, the smallest normal and entries near
# sqrt(smallest_subnormal), where block norms are smallest without being 0.
EDGE_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                1e-162, -3e-161, 1e-150]


# The ends of the range prox takes eta from, ENVELOPE squared, and one double
# past each, which it refuses.
ETA_EDGES = (ENVELOPE[0] ** 2, ENVELOPE[1] ** 2)
PAST_ETA_EDGES = (math.nextafter(ETA_EDGES[0], 0.0), math.nextafter(ETA_EDGES[1], math.inf))


# Laminar over the coordinate order 3, 0, 5, 1, 4, 2: the layers {1, 4} + {0}
# and {0, 3} + {1, 4, 5} are int64 index arrays, and {0..5} a slice.
SHUFFLED_LAMINAR = GroupStructure(*flat_family(
    [np.array([3, 0, 5, 1, 4, 2]), np.array([3, 0]), np.array([5, 1, 4]), np.array([1, 4]),
     np.array([0])],
    np.array([0.8, 0.5, 1.2, 0.3, 0.9]), 6))


@st.composite
def laminar_prox_inputs(draw):
    """(structure, lam, u, eta): a laminar family over shuffled coordinates,
    one over ordered coordinates (whose layer plans mix slice layers, some not
    starting at 0, with array layers) or a dyadic tree; u mixing ordinary
    entries with ``EDGE_ENTRIES`` and tiny ones, some groups zeroed outright;
    lam ordinary or near the envelope's floor 1e-50; eta over 8 decades, or
    within 4 decades of either end of the prox's range [1e-100, 1e100], ends
    included, where lam * w / eta runs from about 1e-151 to 3e101."""
    kind = draw(st.sampled_from(["shuffled", "ordered", "tree"]))
    if kind == "tree":
        gs = build_hierarchical(draw(st.integers(0, 5)))
    else:
        family = draw(group_families(laminar=True, ordered=kind == "ordered"))
        gs = GroupStructure(*flat_family(*family))
    entries = st.one_of(st.floats(-50.0, 50.0), st.sampled_from(EDGE_ENTRIES),
                        st.floats(-1e-300, 1e-300))
    u = draw(arrays(np.float64, gs.p, elements=entries))
    for k in draw(st.lists(st.integers(0, len(gs) - 1), max_size=3)):
        u[groups_of(gs)[k]] = draw(st.sampled_from([0.0, -0.0]))
    lam = draw(st.one_of(st.floats(0.01, 5.0), st.floats(ENVELOPE[0], 1e-40)))
    exponent = st.one_of(st.floats(-4.0, 4.0), st.floats(96.0, 100.0), st.floats(-100.0, -96.0))
    eta = draw(st.one_of(st.sampled_from(ETA_EDGES), exponent.map(lambda e: 10.0**e)))
    return gs, lam, u, eta


def loop_tolerance(u):
    # the layered prox sums in another order than the per-group loop of
    # _reference.py
    return 1e-13 * max(1.0, float(np.max(np.abs(u))))


class TestDepthLayers:
    @pytest.mark.deep
    @given(group_families())
    @example(CROSSING_AT_EQUAL_DEPTH)
    @example(IDENTICAL_CHAIN)
    def test_is_laminar_matches_dense_reference(self, family):
        groups, weights, p = family
        gs = GroupStructure(*flat_family(groups, weights, p))
        assert gs.is_laminar == is_laminar_dense(groups, p)

    @pytest.mark.deep
    @given(group_families(laminar=True))
    def test_layers_partition_groups_into_disjoint_depths(self, family):
        groups, weights, p = family
        layers = GroupStructure(*flat_family(groups, weights, p)).layers
        assert layers is not None
        assert sum(len(offsets) for _, offsets, _, _, _ in layers) == len(groups)
        for index, offsets, owner, _, _ in layers:
            index = np.arange(p)[index]
            sizes = np.diff(offsets, append=index.size)
            assert np.unique(index).size == index.size == sizes.sum()
            assert np.array_equal(owner, np.repeat(np.arange(len(offsets)), sizes))

    @given(group_families(laminar=True), st.data())
    def test_prox_matches_loop_reference(self, family, data):
        groups, weights, p = family
        u = data.draw(arrays(np.float64, p, elements=st.floats(-50, 50)))
        lam = data.draw(st.floats(0.01, 5.0))
        eta = data.draw(st.floats(0.1, 10.0))
        reg = group_norm(lam, GroupStructure(*flat_family(groups, weights, p)))
        out = prox(reg, np.zeros(p), u, eta)
        ref = prox_laminar_loop(u, lam, eta, groups, weights)
        assert np.allclose(out, ref, rtol=0.0, atol=loop_tolerance(u))

    def test_prox_matches_loop_reference_on_dyadic_tree(self):
        st9 = build_hierarchical(9)
        rng = RngStream(9)
        for lam in (0.01, 0.05, 0.1):
            u = 3.0 * rng.normal(2**9)
            out = prox(group_norm(lam, st9), np.zeros(2**9), u, 0.7)
            ref = prox_laminar_loop(u, lam, 0.7, groups_of(st9), st9.weights)
            assert np.allclose(out, ref, rtol=0.0, atol=loop_tolerance(u))

    def test_depth_order_differs_from_size_order(self):
        # {0,1,2} sits at depth 2 but is larger than {4,5} at depth 1: the size
        # order shrinks {4,5} first, the depth order shrinks {0,1,2} first
        groups = [np.arange(6), np.arange(4), np.arange(3), np.array([4, 5])]
        weights = np.array([1.0, 0.7, 0.5, 0.9])
        st6 = GroupStructure(*flat_family(groups, weights, 6))
        gathered = [(np.arange(6)[index], offsets) for index, offsets, _, _, _ in st6.layers]
        layer_sets = [[set(map(int, index[o:o + n]))
                       for o, n in zip(offsets, np.diff(offsets, append=index.size))]
                      for index, offsets in gathered]
        assert layer_sets == [[{0, 1, 2}], [{0, 1, 2, 3}, {4, 5}], [set(range(6))]]
        rng = RngStream(12)
        for _ in range(20):
            u = 2.0 * rng.normal(6)
            out = prox(group_norm(0.6, st6), np.zeros(6), u, 1.3)
            ref = prox_laminar_loop(u, 0.6, 1.3, groups, weights)
            assert np.allclose(out, ref, rtol=0.0, atol=loop_tolerance(u))

    @pytest.mark.parametrize("lam, weight, eta", [(0.4, 1.0, 1.0), (1e-50, 1e-50, 1e100)],
                             ids=["0.4-1.0", "1e-50-1e-50"])
    def test_zero_norm_blocks_come_out_exactly_zero(self, lam, weight, eta):
        # with lam = w = 1e-50 and eta = 1e100, lam * w / eta = 1e-200, the
        # least threshold the envelope lets a prox form, meets zero-norm blocks
        st3 = build_hierarchical(3)
        weights = np.full(len(st3), weight)
        reg = group_norm(lam, GroupStructure(*flat_family(groups_of(st3), weights, 8)))
        u = np.array([0.0, 0.0, 1.5, -2.0, 0.0, 0.0, 0.0, 3.0])
        with np.errstate(divide="raise", invalid="raise"):
            out = prox(reg, np.zeros(8), u, eta)
        assert np.all(out[[0, 1, 4, 5, 6]] == 0.0)
        assert np.allclose(out, prox_laminar_loop(u, lam, eta, groups_of(reg.structure), weights),
                           rtol=0.0, atol=loop_tolerance(u))

    @pytest.mark.deep
    @given(laminar_prox_inputs())
    @example((  # layers {1}, {1,2} + {4}, {0..5}: slice(1, 2), an array, slice(0, 6)
        GroupStructure(*flat_family([np.arange(6), np.array([1, 2]), np.array([4]), np.array([1])],
                                    np.array([1.0, 0.5, 2.0, 0.3]), 6)),
        0.4, np.array([0.7, -1.5, 0.2, 3.0, -0.1, 0.9]), 0.8,
    ))
    @example((build_hierarchical(3), ENVELOPE[0], np.array(EDGE_ENTRIES[1:]), ETA_EDGES[1]))
    @example((build_hierarchical(3), 5.0,
              np.array([0.7, -1.5, 1e150, 3.0, -0.1, 0.9, 1e-300, -0.0]), ETA_EDGES[0]))
    def test_prox_equals_masked_form_bit_for_bit(self, inputs):
        # the bytes compare sign bits too; the masked form divides only where a
        # block is kept, so a 0/0 or x/0 in the layer plan would raise here
        gs, lam, u, eta = inputs
        with np.errstate(divide="raise", invalid="raise"):
            out = _prox_laminar(group_norm(lam, gs), u, eta)
            ref = prox_laminar_masked(gs, lam, u, eta)
        assert out.tobytes() == ref.tobytes()

    def test_array_layers_scatter_like_masked_form(self):
        # whatever the strategy draws, the prox's scatter of int64 array
        # layers stays covered next to its in-place scaling of slice layers
        kinds = [type(index) for index, _, _, _, _ in SHUFFLED_LAMINAR.layers]
        assert kinds == [np.ndarray, np.ndarray, slice]
        assert all(index.dtype == np.int64 for index, _, _, _, _ in SHUFFLED_LAMINAR.layers[:2])
        rng = RngStream(26)
        for lam in (0.05, 0.6, 3.0):
            for _ in range(30):
                u = 2.0 * rng.normal(6)
                u[rng.indices(2, 6)] = -0.0
                with np.errstate(divide="raise", invalid="raise"):
                    out = _prox_laminar(group_norm(lam, SHUFFLED_LAMINAR), u, 1.3)
                    ref = prox_laminar_masked(SHUFFLED_LAMINAR, lam, u, 1.3)
                assert out.tobytes() == ref.tobytes()

    def test_largest_thresholds_zero_blocks_like_masked_form(self):
        # lam = w = 1e50 and eta = 1e-100 give every group lam * w / eta = 1e200,
        # the largest threshold the envelope lets a prox form: the masked form
        # zeroes every block, and so must the layer plan
        tree = build_hierarchical(3)
        gs = GroupStructure(*flat_family(groups_of(tree), np.full(len(tree), ENVELOPE[1]), 8))
        u = np.array([0.0, -0.0, 1.5, -2.0, 1e150, 5e-324, -3.0, 3.0])
        with np.errstate(divide="raise", invalid="raise"):
            out = _prox_laminar(group_norm(ENVELOPE[1], gs), u, ETA_EDGES[0])
            ref = prox_laminar_masked(gs, ENVELOPE[1], u, ETA_EDGES[0])
        assert out.tobytes() == ref.tobytes()
        assert not np.any(out)

    def test_hierarchical_eleven_levels(self):
        st11 = build_hierarchical(11)
        assert st11.is_laminar
        assert len(st11.layers) == 12
        for index, _, _, _, _ in st11.layers:
            assert np.array_equal(np.sort(np.arange(2**11)[index]), np.arange(2**11))

    def test_dyadic_tree_layers_are_slices(self):
        # every depth layer of a dyadic tree gathers 0..p-1 in order, so the
        # prox reads it as a view, with no fancy-index gather or scatter
        for n in range(12):
            for index, _, _, _, _ in build_hierarchical(n).layers:
                assert isinstance(index, slice) and index == slice(0, 2**n)


@st.composite
def overlapping_instances(draw):
    """(groups, weights, p, lam, eta, u): up to 10 random groups of 1-10
    coordinates over p <= 40, weights in [0.1, 3], lam over three decades,
    eta over six and |u| over three."""
    p = draw(st.integers(3, 40))
    groups = draw(st.lists(
        st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 10)),
        min_size=2, max_size=10,
    ))
    groups = [np.array(sorted(g), dtype=np.int64) for g in groups]
    weights = draw(arrays(np.float64, len(groups), elements=st.floats(0.1, 3.0)))
    lam = 10.0 ** draw(st.floats(-2.0, 1.0))
    eta = 10.0 ** draw(st.floats(-2.0, 4.0))
    scale = 10.0 ** draw(st.floats(-1.0, 2.0))
    u = scale * draw(arrays(np.float64, p, elements=st.floats(-1.0, 1.0)))
    return groups, weights, p, lam, eta, u


def dual_ascent_outcome(solve):
    """(iterate, message): the returned iterate and None, or the iterate a
    ConvergenceError carries and its message."""
    try:
        return solve(), None
    except ConvergenceError as exc:
        return exc.last_iterate, str(exc)


def certified_radius(lam, eta, groups, weights, x, u):
    """sqrt(2 target / eta) for the documented stop rule of the overlapping prox,
    gap <= 1e-15 * (lam * Omega(x) + lam * Omega(u))."""
    def penalty(v):
        return lam * sum(w * np.linalg.norm(v[g]) for g, w in zip(groups, weights))

    return np.sqrt(2.0 * 1e-15 * (penalty(x) + penalty(u)) / eta)


def truncation_instance(case):
    """(structure, lam, u, eta) on which the overlapping prox needs more than
    five ascent steps: the crossing pair, which restarts at ascent steps 4, 6
    and 8 and returns after step 9, or six groups of four over p = 12, which
    first restarts at steps 17 and 29."""
    if case == "crossing":
        return crossing_structure(), 0.4, np.array([1.0, -2.0, 0.5]), 1.0
    groups = [[2, 5, 8, 10], [2, 4, 10, 11], [5, 8, 9, 10], [2, 4, 5, 8], [0, 1, 6, 9], [0, 3, 7, 11]]
    weights = [1.4, 1.3, 0.7, 1.6, 1.4, 1.2]
    return GroupStructure(*flat_family(groups, weights, 12)), 0.3, RngStream(20).normal(12), 1.0


class TestDualFista:
    @pytest.mark.deep
    @given(overlapping_instances())
    def test_within_certified_radius_of_oracle(self, instance):
        # A return certifies ||x - x*|| <= sqrt(2 target / eta), and the oracle's
        # gap bounds its own distance to x* the same way, so the two lie within
        # the sum of both radii. The allowance of 1e-14 * ||u||_inf covers the
        # rounding of x = u - A^T b / eta in each, which the gaps do not see.
        groups, weights, p, lam, eta, u = instance
        gs = GroupStructure(*flat_family(groups, weights, p))
        assume(not gs.is_laminar)
        u_in = u.copy()
        out, raised = dual_ascent_outcome(lambda: _prox_dual_fista(group_norm(lam, gs), u, eta))
        assert np.array_equal(u, u_in) and not np.shares_memory(out, u)
        if raised:
            return
        radius = certified_radius(lam, eta, groups_of(gs), gs.weights, out, u)
        ref, gap = prox_reference(np.zeros(p), u, eta, lam, groups_of(gs), gs.weights, p,
                                  gap_tol=0.5 * eta * radius**2, max_iter=20_000)
        ref_radius = np.sqrt(2.0 * max(gap, 0.0) / eta)
        allowance = 1e-14 * float(np.max(np.abs(u)))
        assert np.linalg.norm(out - ref) <= radius + ref_radius + allowance

    @pytest.mark.deep
    @given(overlapping_instances())
    def test_equals_repeat_form_bit_for_bit(self, instance):
        # scale[owner] and np.repeat(scale, sizes) spread the same values
        groups, weights, p, lam, eta, u = instance
        gs = GroupStructure(*flat_family(groups, weights, p))
        assume(not gs.is_laminar)
        out, raised = dual_ascent_outcome(lambda: _prox_dual_fista(group_norm(lam, gs), u, eta))
        ref, ref_raised = dual_ascent_outcome(lambda: prox_dual_fista_repeat(gs, lam, u, eta))
        assert raised == ref_raised
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case, restarts", [("crossing", [4, 6, 8]), ("random", [17, 29])],
                             ids=["crossing", "random"])
    def test_truncation_restarts_where_pinned(self, case, restarts):
        # the budgets of test_truncated_iterate_equals_repeat_form stop just
        # before, at and just after these restarts
        gs, lam, u, eta = truncation_instance(case)
        seen = []
        prox_dual_fista_repeat(gs, lam, u, eta, restarts=seen)
        assert seen[:len(restarts)] == restarts

    def test_radii_at_the_envelope_floor_leave_u(self):
        # c_g = 1e-100 for {0, 1}, the least a penalty gives: the zero block
        # {0, 1} is projected with no 0/0, and the shrinks round to nothing
        gs = GroupStructure(*flat_family(groups_of(crossing_structure()), [ENVELOPE[0], 1.0], 3))
        u = np.array([0.0, 0.0, 1.5])
        with np.errstate(divide="raise", invalid="raise"):
            out = _prox_dual_fista(group_norm(ENVELOPE[0], gs), u, 1.0)
        assert np.array_equal(out, u)

    @pytest.mark.parametrize("entry, pen", [(1e200, "inf"), (math.inf, "inf"), (math.nan, "nan")],
                             ids=["1e200", "inf", "nan"])
    def test_centre_whose_penalty_is_not_finite_is_refused(self, monkeypatch, entry, pen):
        # sum_g c_g ||u_g|| is not finite (at 1e200, ||u_g||^2 overflows,
        # with no warning, so RuntimeWarnings as errors do not pre-empt the
        # refusal): the prox refuses u before its first ascent step (with no
        # budget, a later refusal would be a ConvergenceError) rather than
        # return NaN
        from composite_sgd import regularizers as rg

        gs = GroupStructure(*flat_family([[0, 1], [1, 2], [2, 3]], [ENVELOPE[1]] * 3, 4))
        monkeypatch.setattr(rg, "DUAL_MAX_ITER", 0)
        with pytest.raises(ParameterError, match=f"is {pen} at the centre u$"):
            prox(group_norm(ENVELOPE[1], gs), np.zeros(4), np.array([1.0, 2.0, entry, 4.0]), 1.0)

    def test_iterate_does_not_alias_input(self, monkeypatch):
        from composite_sgd import regularizers as rg

        gs = crossing_structure()
        u = np.array([1.0, -2.0, 0.5])
        out = _prox_dual_fista(group_norm(0.4, gs), u, 1.0)
        assert not np.shares_memory(out, u)
        monkeypatch.setattr(rg, "DUAL_MAX_ITER", 0)
        with pytest.raises(ConvergenceError) as err:
            _prox_dual_fista(group_norm(0.4, gs), u, 1.0)
        assert np.array_equal(err.value.last_iterate, u)
        assert not np.shares_memory(err.value.last_iterate, u)
        assert np.array_equal(u, [1.0, -2.0, 0.5])

    @pytest.mark.parametrize("case, budget", [("crossing", k) for k in range(10)]
                             + [("random", k) for k in (0, 1, 2, 5, 16, 17, 18, 28, 29, 30)])
    def test_truncated_iterate_equals_repeat_form(self, monkeypatch, case, budget):
        # The prox takes the first step and each restart step in closed form
        # and skips the restart test on the step after either; the reference
        # takes the general step with beta = 0. Every budget but the crossing
        # pair's 9 runs out, and the iterate and message must be the
        # reference's after as many steps.
        from composite_sgd import regularizers as rg

        gs, lam, u, eta = truncation_instance(case)
        monkeypatch.setattr(rg, "DUAL_MAX_ITER", budget)
        out, message = dual_ascent_outcome(lambda: _prox_dual_fista(group_norm(lam, gs), u, eta))
        ref, ref_message = dual_ascent_outcome(
            lambda: prox_dual_fista_repeat(gs, lam, u, eta, max_iter=budget))
        assert (message is None) == (case == "crossing" and budget == 9)
        assert message == ref_message
        assert_same_bytes(out, ref)
        if message is not None:
            assert message.endswith(f"after {budget} dual iterations")

    @pytest.mark.parametrize("refused, eta", [(1e-300, ETA_EDGES[0]), (1e300, ETA_EDGES[1])],
                             ids=["eta1e-300", "eta1e300"])
    @pytest.mark.parametrize("edge", ENVELOPE, ids=["c1e-100", "c1e100"])
    @pytest.mark.parametrize("centre", [1e-150, 1e150], ids=["u1e-150", "u1e150"])
    def test_extremes_equal_repeat_form(self, monkeypatch, refused, eta, edge, centre):
        # lam and every weight at one edge of the envelope, so c_g = edge^2.
        # prox refuses eta = 1e-300 and 1e300; at the end of its range on that side,
        # outcome, message and bytes must be the reference's. With eta = 1e100
        # and u of 1e150 every first step's v * v overflows, the reference's
        # projection zeroes b and it stalls at u, with overflow warnings that
        # are not under test, until its budget runs out; the prox gives the
        # same gap, target and iterate at once, with no budget.
        from composite_sgd import regularizers as rg

        gs, _, u, _ = truncation_instance("random")
        gs = GroupStructure(*flat_family(groups_of(gs), np.full(len(gs), edge), gs.p))
        u = centre * u
        with pytest.raises(ParameterError, match="^eta must be in "):
            prox(group_norm(edge, gs), np.zeros(gs.p), u, refused)
        monkeypatch.setattr(rg, "DUAL_MAX_ITER", 30)
        out, message = dual_ascent_outcome(lambda: _prox_dual_fista(group_norm(edge, gs), u, eta))
        with np.errstate(over="ignore"):
            ref, ref_message = dual_ascent_outcome(
                lambda: prox_dual_fista_repeat(gs, edge, u, eta, max_iter=30))
        if eta == ETA_EDGES[1] and centre == 1e150:
            assert_same_bytes(ref, u)
            ref_message = ref_message.replace("after 30 dual", "after 0 dual")
        assert message == ref_message
        assert_same_bytes(out, ref)

    @pytest.mark.parametrize("scale", [1e50, 1e150], ids=["u1e50", "u1e150"])
    def test_step_that_can_overflow_fails_at_once(self, scale):
        # Four groups crossing over p = 4 at eta = 1e100: from a centre of 1e50
        # the prox returns, while from 1e150 a step's v * v can overflow, and
        # it raises the stalled loop's ConvergenceError before any step, not
        # after spending its 10^5-step budget where nothing moves.
        gs = GroupStructure([0, 1, 1, 2, 2, 3, 0, 3], [2, 2, 2, 2], [1.0, 1.5, 2.0, 0.5], 4)
        u = scale * np.array([1.0, -2.0, 0.5, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, message = dual_ascent_outcome(
                lambda: prox(group_norm(0.3, gs), np.zeros(4), u, ETA_EDGES[1]))
        if scale == 1e50:
            assert message is None and np.all(np.isfinite(out))
            return
        pen_u = 0.3 * sum(w * np.linalg.norm(u[g]) for g, w in zip(groups_of(gs), gs.weights))
        assert message == (f"overlapping prox: dual gap {pen_u:.3e} above target "
                           f"{2e-15 * pen_u:.3e} after 0 dual iterations")
        assert_same_bytes(out, u)
        assert not np.shares_memory(out, u)

    def test_centre_below_the_squares_underflow_is_returned(self):
        # u's grouped squares all underflow, so sum_g c_g ||u_g|| is 0 for a
        # nonzero u: the stop test passes at b = 0 and u comes back, as in
        # the reference, where one ascent step would have moved it
        gs = crossing_structure()
        u = np.array([1e-170, -1e-170, 3e-200])
        out = _prox_dual_fista(group_norm(0.3, gs), u, 1.0)
        assert_same_bytes(out, prox_dual_fista_repeat(gs, 0.3, u, 1.0))
        assert_same_bytes(out, u)
        assert not np.shares_memory(out, u)

    @pytest.mark.parametrize("case", ["crossing", "random"])
    def test_budget_zero_names_the_gap_at_the_centre(self, monkeypatch, case):
        # at b = 0, x = u: the gap P(u) - D(0) is the penalty at u, and the
        # target DUAL_GAP_RTOL * (pen_x + pen_u) is twice 1e-15 of it
        from composite_sgd import regularizers as rg

        gs, lam, u, eta = truncation_instance(case)
        pen_u = lam * sum(w * np.linalg.norm(u[g]) for g, w in zip(groups_of(gs), gs.weights))
        monkeypatch.setattr(rg, "DUAL_MAX_ITER", 0)
        with pytest.raises(ConvergenceError) as err:
            _prox_dual_fista(group_norm(lam, gs), u, eta)
        assert str(err.value) == (f"overlapping prox: dual gap {pen_u:.3e} above target "
                                  f"{2e-15 * pen_u:.3e} after 0 dual iterations")

    def test_outputs_are_fresh(self, monkeypatch):
        # no work buffer may leave the call: two returns and the iterate of an
        # exhausted budget share memory with nothing, u included
        from composite_sgd import regularizers as rg

        gs, lam, u, eta = truncation_instance("random")
        u_in = u.copy()
        first = _prox_dual_fista(group_norm(lam, gs), u, eta)
        second = _prox_dual_fista(group_norm(lam, gs), u, eta)
        monkeypatch.setattr(rg, "DUAL_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            _prox_dual_fista(group_norm(lam, gs), u, eta)
        outs = [first, second, err.value.last_iterate, u]
        for i in range(len(outs)):
            for j in range(i):
                assert not np.shares_memory(outs[i], outs[j])
        assert_same_bytes(first, second)
        assert_same_bytes(u, u_in)


class TestEvaluate:
    def test_l1_hand_value(self):
        assert np.isclose(evaluate(l1(0.1, 2), [1.0, -2.0]), 0.3)

    def test_group_hand_value(self):
        reg = group_norm(1.0, GroupStructure(*flat_family([np.array([0, 1])], [np.sqrt(2.0)], 2)))
        assert np.isclose(evaluate(reg, [3.0, 4.0]), 5.0 * np.sqrt(2.0))

    def test_zero_vector(self):
        assert evaluate(l1(0.7, 3), np.zeros(3)) == 0.0
        assert evaluate(group_norm(0.7, build_hierarchical(2)), np.zeros(4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate(l1(0.1, 2), np.ones(3))

    def test_matches_dual_closed_form(self):
        # evaluate equals max over the dual balls of a^T A beta, attained at
        # a_g = beta_g / ||beta_g||
        rng = RngStream(5)
        for _ in range(20):
            p = 6
            groups, weights = random_laminar_structure(p, rng)
            reg = group_norm(0.3, GroupStructure(*flat_family(groups, weights, p)))
            beta = rng.normal(p)
            A = materialize_map(0.3, groups, weights, p)
            ab = A @ beta
            sizes = [len(g) for g in groups]
            offs = np.cumsum([0] + sizes[:-1])
            alpha = np.zeros(A.shape[0])
            for off, size in zip(offs, sizes):
                blk = ab[off : off + size]
                nrm = np.linalg.norm(blk)
                if nrm > 0:
                    alpha[off : off + size] = blk / nrm
            assert np.isclose(evaluate(reg, beta), alpha @ ab, atol=1e-10)


class TestProx:
    def test_l1_hand_example_with_certificate(self):
        out = prox(l1(0.5, 2), np.zeros(2), np.array([1.0, -0.3]), 1.0)
        assert np.allclose(out, [0.5, 0.0])
        # optimality of <x,g> + 0.5||x-z||^2 + 0.5||x||_1 at out:
        # active coordinate: residual + sign term vanishes; zero coordinate:
        # |g + (x - z)| stays below the threshold
        assert out[0] - 1.0 + 0.5 * np.sign(out[0]) == 0.0
        assert abs(0.0 - (-0.3)) <= 0.5

    def test_lambda_zero_is_plain_quadratic_minimum(self):
        g = np.array([0.4, -1.0, 2.0])
        z = np.array([1.0, 1.0, 1.0])
        for reg in (l1(0.0, 3), group_norm(0.0, singleton_structure(3))):
            assert np.allclose(prox(reg, g, z, 2.0), z - g / 2.0)

    def test_eta_must_be_positive(self):
        with pytest.raises(ParameterError):
            prox(l1(0.1, 2), np.zeros(2), np.zeros(2), 0.0)

    PENALTIES = [l1(0.3, 4), group_norm(0.3, build_hierarchical(2)),
                 group_norm(0.3, GroupStructure([0, 1, 1, 2, 2, 3], [2, 2, 2], [1.0, 1.5, 2.0], 4))]

    @pytest.mark.parametrize(
        "eta", [*PAST_ETA_EDGES, 1e-101, 1e101, 0.0, -1.0, math.nan, math.inf],
        ids=["past-floor", "past-ceiling", "1e-101", "1e101", "0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("reg", PENALTIES, ids=["l1", "tree", "overlapping"])
    def test_eta_outside_the_envelope_squared_is_refused(self, reg, eta):
        with pytest.raises(ParameterError,
                           match=re.escape(f"eta must be in [1e-100, 1e+100], got {eta!r}")):
            prox(reg, np.zeros(4), np.ones(4), eta)

    @pytest.mark.parametrize("eta", [1e-100, 1e100], ids=["1e-100", "1e100"])
    @pytest.mark.parametrize("reg", PENALTIES, ids=["l1", "tree", "overlapping"])
    def test_eta_at_the_envelope_squared_edges_is_taken(self, reg, eta):
        # the ends of the range, with RuntimeWarnings as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox(reg, np.linspace(-1.0, 1.0, 4), np.array([1.0, -2.0, 0.5, 3.0]), eta)
        assert out.shape == (4,) and np.all(np.isfinite(out))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            prox(l1(0.1, 2), np.zeros(3), np.zeros(2), 1.0)

    def test_nested_pair_example_matches_reference(self):
        st = nested_pair_structure()
        reg = group_norm(0.1, st)
        out = prox(reg, np.zeros(2), np.array([1.0, 1.0]), 1.0)
        ref, gap = prox_reference(
            np.zeros(2), np.array([1.0, 1.0]), 1.0, 0.1,
            groups_of(st), st.weights, 2,
        )
        assert gap < 1e-10
        assert np.allclose(out, ref, atol=1e-6)

    def test_crossing_groups_match_reference(self):
        st = crossing_structure()
        reg = group_norm(0.4, st)
        rng = RngStream(59)
        for _ in range(5):
            g = rng.normal(3)
            z = 2.0 * rng.normal(3)
            out = prox(reg, g, z, 0.9)
            ref, gap = prox_reference(g, z, 0.9, 0.4, groups_of(st), st.weights, 3)
            assert gap < 1e-10
            assert np.allclose(out, ref, atol=1e-6)

    def test_laminar_pass_matches_dual_ascent(self):
        rng = RngStream(17)
        for _ in range(25):
            p = 2 + int(rng.uniform(1)[0] * 15)
            groups, weights = random_laminar_structure(p, rng)
            st = GroupStructure(*flat_family(groups, weights, p))
            assert st.is_laminar
            reg = group_norm(0.2 + float(rng.uniform(1)[0]), st)
            g = rng.normal(p)
            z = 2.0 * rng.normal(p)
            eta = 0.5 + 2.0 * float(rng.uniform(1)[0])
            fast = prox(reg, g, z, eta)
            u = z - g / eta
            slow = _prox_dual_fista(reg, u, eta)
            assert np.allclose(fast, slow, atol=1e-6)

    def test_l1_equals_singleton_groups(self):
        rng = RngStream(23)
        for _ in range(10):
            p = 5
            lam = float(rng.uniform(1)[0])
            g = rng.normal(p)
            z = rng.normal(p)
            eta = 0.5 + float(rng.uniform(1)[0])
            a = prox(l1(lam, p), g, z, eta)
            b = prox(group_norm(lam, singleton_structure(p)), g, z, eta)
            assert np.allclose(a, b, atol=1e-12)
            assert np.isclose(
                evaluate(l1(lam, p), z), evaluate(group_norm(lam, singleton_structure(p)), z),
                atol=1e-12,
            )

    def test_minimizer_inequality_at_probes(self):
        # with psi(x) = (<x,g> + h(x)) / eta, the prox output z* satisfies
        # psi(z*) + ||z*-z||^2/2 <= psi(x) + ||x-z||^2/2 - ||x-z*||^2/2 + tol
        rng = RngStream(31)
        st = build_hierarchical(3)
        for reg in (l1(0.4, 8), group_norm(0.4, st)):
            g = rng.normal(8)
            z = rng.normal(8)
            eta = 1.7
            z_star = prox(reg, g, z, eta)

            def psi(x):
                return (float(x @ g) + evaluate(reg, x)) / eta

            lhs = psi(z_star) + 0.5 * float((z_star - z) @ (z_star - z))
            for _ in range(100):
                x = z + rng.normal(8)
                rhs = (
                    psi(x)
                    + 0.5 * float((x - z) @ (x - z))
                    - 0.5 * float((x - z_star) @ (x - z_star))
                )
                assert lhs <= rhs + 1e-9

    @given(
        arrays(np.float64, 6, elements=st.floats(-50, 50)),
        arrays(np.float64, 6, elements=st.floats(-50, 50)),
    )
    def test_nonexpansive(self, z1, z2):
        g = np.linspace(-1.0, 1.0, 6)
        reg = group_norm(0.8, GroupStructure(*flat_family(
            [np.arange(3), np.arange(3, 6), np.arange(6)], np.array([1.0, 2.0, 0.5]), 6
        )))
        p1 = prox(reg, g, z1, 1.3)
        p2 = prox(reg, g, z2, 1.3)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-12

    def test_dual_ascent_budget_exhaustion_carries_iterate(self, monkeypatch):
        from composite_sgd import regularizers as rg
        from composite_sgd.core import ConvergenceError

        monkeypatch.setattr(rg, "DUAL_MAX_ITER", 0)
        st = crossing_structure()
        z = np.ones(3)
        with pytest.raises(ConvergenceError) as err:
            prox(group_norm(0.4, st), np.zeros(3), z, 1.0)
        assert np.array_equal(err.value.last_iterate, z)
        assert not np.shares_memory(err.value.last_iterate, z)
        assert "after 0 dual iterations" in str(err.value)

    def test_slow_crossing_instance_is_certified(self):
        # block coordinate ascent runs out of sweeps on this heavily
        # overlapping family; the dual FISTA must return within its certified
        # radius of the reference
        rng = RngStream(1617)
        p = 3 + int(rng.uniform(1)[0] * 10)
        k = 2 + int(rng.uniform(1)[0] * 4)
        groups = []
        for _ in range(k):
            size = 2 + int(rng.uniform(1)[0] * (p - 1.001))
            start = int(rng.uniform(1)[0] * (p - size + 0.999))
            groups.append(np.arange(start, start + size, dtype=np.int64))
        weights = 0.3 + 1.5 * rng.uniform(k)
        st = GroupStructure(*flat_family(groups, weights, p))
        assert not st.is_laminar
        lam = 0.02 + float(rng.uniform(1)[0])
        g = rng.normal(p)
        z = 3 * rng.normal(p)
        eta = 0.2 + 4 * float(rng.uniform(1)[0])
        out = prox(group_norm(lam, st), g, z, eta)
        radius = certified_radius(lam, eta, groups_of(st), st.weights, out, z - g / eta)
        ref, gap = prox_reference(g, z, eta, lam, groups_of(st), st.weights, p,
                                  gap_tol=0.5 * eta * radius**2)
        assert gap <= 0.5 * eta * radius**2
        assert np.linalg.norm(out - ref) <= 2.0 * radius

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="degenerate optimum: the gap falls only polynomially and "
                              "the 1e5-iteration budget runs out (4e5 suffice)")
    def test_degenerate_duplicated_group_instance_returns(self):
        # Not strictly complementary at the optimum, with {12, 22} listed twice:
        # the gap ends at 3.9e-16 against a 2.4e-16 target after 1e5 iterations.
        groups = [
            [12, 22],
            [0, 4, 5, 8, 13, 16, 18, 23, 27, 28, 29, 32],
            [j for j in range(33) if j not in (4, 6, 18, 26, 32)],
            [22, 28],
            [0, 2, 7, 8, 9, 12, 14, 17, 19, 20, 21, 22, 24, 25, 26, 28, 31, 32],
            [12, 22],
        ]
        st = GroupStructure(*flat_family([np.array(g) for g in groups], np.full(6, 0.1), 33))
        out = prox(group_norm(1.0, st), np.zeros(33), np.full(33, 0.1), 1.0)
        assert np.all(np.isfinite(out))

    def test_dual_ascent_output_is_optimal(self):
        # non-laminar structures take the iterative path; check the objective
        # against the certified reference and the iterate against block
        # coordinate ascent
        rng = RngStream(41)
        for _ in range(10):
            p = 6
            groups = [
                np.sort(rng.indices(3, p).astype(np.int64)) for _ in range(4)
            ]
            groups = [np.unique(g) for g in groups]
            weights = 0.5 + rng.uniform(4)
            st = GroupStructure(*flat_family(groups, weights, p))
            reg = group_norm(0.5, st)
            g = rng.normal(p)
            z = rng.normal(p)
            out = prox(reg, g, z, 1.1)
            ref, gap = prox_reference(g, z, 1.1, 0.5, groups_of(st), st.weights, p)
            assert gap < 1e-10
            f_out = prox_objective(out, g, z, 1.1, 0.5, groups_of(st), st.weights)
            f_ref = prox_objective(ref, g, z, 1.1, 0.5, groups_of(st), st.weights)
            assert f_out <= f_ref + 1e-8
            assert np.allclose(out, ref, atol=1e-5)
            # the loop converges to rounding level here, while the gap stop
            # certifies only sqrt(2 target / eta)
            u = z - g / 1.1
            loop = prox_dual_ascent_loop(u, 0.5, 1.1, groups_of(st), st.weights)
            radius = certified_radius(0.5, 1.1, groups_of(st), st.weights, out, u)
            assert np.linalg.norm(out - loop) <= radius


_TINY_NORMAL = float(np.finfo(np.float64).tiny)
_THRESHOLDS = (st.just(0.0)
               | st.floats(min_value=5e-324, max_value=_TINY_NORMAL, exclude_max=True)
               | st.floats(min_value=_TINY_NORMAL, allow_infinity=False)
               | st.just(np.inf))


@st.composite
def _shrink_inputs(draw):
    """A threshold (0, subnormal, normal or inf) and a vector of any doubles,
    +-0, subnormals, +-inf and NaN among them, mixed with the threshold's
    neighbours on both sides of the band."""
    thr = draw(_THRESHOLDS)
    edges = [sign * v for sign in (1.0, -1.0) for v in
             (thr, math.nextafter(thr, 0.0), math.nextafter(thr, math.inf), 0.0, 5e-324)]
    u = draw(arrays(np.float64, st.integers(1, 12),
                    elements=st.floats() | st.sampled_from(edges + [np.nan])))
    return u, thr


class TestSoftThreshold:
    def test_hand_values(self):
        assert np.allclose(soft_threshold(np.array([2.0, -0.5, 0.1]), 1.0), [1.0, 0.0, 0.0])
        out = soft_threshold(np.array([-0.5, -0.0, 0.5, -1.0]), 1.0)
        assert out.tobytes() == np.zeros(4).tobytes()

    @pytest.mark.deep
    @given(_shrink_inputs())
    def test_equals_sign_form_up_to_zero_signs(self, inputs):
        # the clamp form has the sign form's values, NaN in the same places,
        # and +0.0 wherever the sign form gives -0.0
        u, thr = inputs
        with np.errstate(invalid="ignore"):  # inf - inf where |u| = thr = inf
            out = soft_threshold(u, thr)
            ref = soft_threshold_sign(u, thr) + 0.0
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == ref[~nan].tobytes()

    @given(arrays(np.float64, 4, elements=st.floats(-10, 10)), st.floats(0, 5))
    def test_is_prox_of_l1(self, u, thr):
        out = soft_threshold(u, thr)
        # subgradient optimality of 0.5||x-u||^2 + thr*||x||_1
        for j in range(4):
            if out[j] != 0.0:
                assert abs((out[j] - u[j]) + thr * np.sign(out[j])) < 1e-9
            else:
                assert abs(u[j]) <= thr + 1e-9


class TestLinearMap:
    def test_entries(self):
        st = GroupStructure(*flat_family([np.array([0, 1])], np.array([2.0]), 2))
        A = materialize_map(0.5, groups_of(st), st.weights, 2)
        assert A[0, 0] == 0.5 * 2.0 and A[1, 1] == 0.5 * 2.0
        assert A[0, 1] == 0.0 and A[1, 0] == 0.0

    def test_gram_is_diagonal_scaling(self):
        st = build_hierarchical(2)
        lam = 0.7
        A = materialize_map(lam, groups_of(st), st.weights, st.p)
        gram = A.T @ A
        expected = np.zeros(st.p)
        for g, w in zip(groups_of(st), st.weights):
            expected[g] += lam**2 * w**2
        assert np.allclose(gram, np.diag(expected), atol=1e-12)


class TestDualScales:
    """The penalty forms its scales c_g = lam * w_g, A's entries, ||A|| and M
    once, when it is built."""

    @pytest.mark.parametrize("reg", [
        l1(0.3, 5), group_norm(0.3, build_hierarchical(3)),
        group_norm(0.3, GroupStructure([0, 1, 1, 2], [2, 2], [1.0, 1.5], 3))],
        ids=["l1", "tree", "overlapping"])
    def test_scales_are_the_products_of_lambda_and_the_weights(self, reg):
        st = reg.structure
        if st is None:
            assert_same_bytes(reg.a_weights, np.array(0.3))
            assert reg.layer_scales is None and reg.M == 2.5
            return
        flat = 0.3 * st.weights[st.owner]
        assert_same_bytes(reg.a_weights.ravel(), flat)
        assert reg.a_weights.shape == ((st.covers, st.p) if st.covers else flat.shape)
        assert reg.M == len(st) / 2.0
        if st.is_laminar:
            assert_same_bytes(reg.layer_scales, 0.3 * st.layer_weights)
        else:
            assert reg.layer_scales is None

    @pytest.mark.parametrize("edge, outward", [(ENVELOPE[0], 0.0), (ENVELOPE[1], math.inf)],
                             ids=["floor", "ceiling"])
    @pytest.mark.parametrize("make", [
        lambda v: l1(v, 4), lambda v: group_norm(v, build_hierarchical(2)),
        lambda v: group_norm(1.0, GroupStructure([0, 1, 1, 2, 2, 3], [2, 2, 2], [v] * 3, 4))],
        ids=["l1", "tree", "weight"])
    def test_scales_past_the_envelope_are_refused(self, make, edge, outward):
        # at an edge of the envelope the scales, ||A||^2 and a prox are finite
        # and warn of nothing; one step past it lambda, or the weight, is
        # refused naming the value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reg = make(edge)
            out = prox(reg, np.zeros(4), np.array([1.0, -2.0, 3.0, 4.0]), 1.0)
        assert np.isfinite(reg.a_weights).all() and math.isfinite(reg.A_norm**2)
        assert np.isfinite(out).all()
        past = math.nextafter(edge, outward)
        with pytest.raises(ParameterError, match=re.escape(f"in [1e-50, 1e+50], got {past!r}")):
            make(past)

    @pytest.mark.parametrize("make", [lambda lam: l1(lam, 3),
                                      lambda lam: group_norm(lam, build_hierarchical(2))],
                             ids=["l1", "group"])
    def test_nan_lambda_is_refused(self, make):
        with pytest.raises(ParameterError,
                           match=r"^lambda must be 0 or in \[1e-50, 1e\+50\], got nan$"):
            make(math.nan)


class TestOperatorNorm:
    """``Regularizer.A_norm``, the spectral norm of A."""

    def test_l1_is_lambda(self):
        assert l1(0.1, 5).A_norm == 0.1

    def test_lambda_zero(self):
        assert l1(0.0, 5).A_norm == 0.0
        assert group_norm(0.0, build_hierarchical(2)).A_norm == 0.0
        # A = 0 whatever the weights, up to the envelope's ceiling
        assert group_norm(0.0, GroupStructure([0, 1], [2], [ENVELOPE[1]], 2)).A_norm == 0.0

    def test_hierarchical_depth_two(self):
        reg = group_norm(0.1, build_hierarchical(2))
        value = reg.A_norm
        assert np.isclose(value, 0.1 * np.sqrt(7.0), rtol=1e-12)
        A = materialize_map(0.1, groups_of(reg.structure), reg.structure.weights, 4)
        assert np.isclose(value, np.linalg.norm(A, 2), rtol=1e-10)

    def test_matches_dense_spectral_norm_on_random_structures(self):
        rng = RngStream(8)
        for _ in range(10):
            p = 7
            groups, weights = random_laminar_structure(p, rng)
            reg = group_norm(0.4, GroupStructure(*flat_family(groups, weights, p)))
            A = materialize_map(0.4, groups, weights, p)
            assert np.isclose(reg.A_norm, np.linalg.norm(A, 2), rtol=1e-10)
