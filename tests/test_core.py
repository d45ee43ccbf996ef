import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from composite_sgd.core import (
    NORMAL_CHUNK_PAIRS,
    UNIFORM_BLOCK,
    ParameterError,
    RngStream,
    TraceRecord,
)
from composite_sgd.problems import gen_linear_dataset, ground_truth

from _reference import PhiloxStream, normal_one_shot

CHUNK = NORMAL_CHUNK_PAIRS


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(1234).normal(257)
        b = RngStream(1234).normal(257)
        assert np.array_equal(a, b)

    def test_uniform_deterministic(self):
        assert np.array_equal(RngStream(9).uniform(100), RngStream(9).uniform(100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normal(64), RngStream(2).normal(64))

    def test_substreams_differ_and_are_deterministic(self):
        root = RngStream(77)
        s1 = root.split(1).normal(50)
        s2 = root.split(2).normal(50)
        assert not np.array_equal(s1, s2)
        assert np.array_equal(s1, RngStream(77).split(1).normal(50))

    def test_nested_substreams(self):
        a = RngStream(5).split(1).split(3).uniform(10)
        b = RngStream(5).split(1).split(3).uniform(10)
        assert np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(2**64)

    def test_gaussian_moments(self):
        # 3 sigma / sqrt(n) on the mean; matching slack on the variance
        z = RngStream(2024).normal(10**6)
        assert abs(z.mean()) < 0.004
        assert abs(z.var() - 1.0) < 0.005

    def test_gaussian_odd_length(self):
        z = RngStream(3).normal(7)
        assert z.shape == (7,)
        assert np.all(np.isfinite(z))

    @pytest.mark.parametrize(
        "n", [1, 2, 3, CHUNK * 2 - 1, CHUNK * 2, CHUNK * 2 + 1, 2 * CHUNK * 2 + 3])
    def test_chunked_normal_equals_one_shot_transform(self, n):
        z = RngStream(41).split(1).normal(n)
        assert z.shape == (n,)
        assert z.tobytes() == normal_one_shot(RngStream(41).split(1), n).tobytes()

    def test_linear_dataset_draws_equal_one_shot_transform(self):
        d = gen_linear_dataset(2000, 64, RngStream(42))
        ref = RngStream(42)
        X = normal_one_shot(ref, 2000 * 64).reshape(2000, 64)
        y = X @ ground_truth("linear", 64) + normal_one_shot(ref, 2000) / 10.0
        assert d.X.tobytes() == X.tobytes()
        assert d.y.tobytes() == y.tobytes()

    def test_indices_with_replacement(self):
        idx = RngStream(11).indices(1000, 13)
        assert idx.min() >= 0 and idx.max() < 13
        assert np.array_equal(idx, RngStream(11).indices(1000, 13))

    def test_uniform_range(self):
        u = RngStream(0).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_negative_sizes_rejected(self):
        with pytest.raises(ParameterError):
            RngStream(0).uniform(-1)
        with pytest.raises(ParameterError):
            RngStream(0).indices(-1, 5)
        with pytest.raises(ParameterError):
            RngStream(0).indices(3, 0)

    def test_draw_past_the_block_makes_no_copy(self):
        # 8 MB of uniforms on a stream with nothing left in its block
        n = 2**20
        rng = RngStream(6)
        tracemalloc.start()
        try:
            u = rng.uniform(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.shape == (n,)
        assert peak < 8 * n + UNIFORM_BLOCK * 16


@pytest.mark.parametrize("kind", ["uniform", "normal", "indices"])
def test_indices_after_block_refill_equal_unbuffered_stream(kind):
    # Fill and index the first block, run it down with another kind of draw,
    # cross into the next block, then index that block with the same upper.
    blocked, bare = RngStream(8), PhiloxStream(8)
    for draw, n in (("uniform", 1), ("indices", 10), (kind, UNIFORM_BLOCK - 18),
                    ("indices", 10), ("indices", 10)):
        args = (n, 1000) if draw == "indices" else (n,)
        got, want = getattr(blocked, draw)(*args), getattr(bare, draw)(*args)
        assert got.tobytes() == want.tobytes()


# Request sizes: empty, single, odd, either side of the block size, and more
# than two blocks, next to small ones that cross block boundaries mid-request.
_SIZES = st.one_of(
    st.sampled_from([0, 1, 3, 7, UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1,
                     2 * UNIFORM_BLOCK + 3]),
    st.integers(0, 40),
)
_CALLS = st.lists(
    st.tuples(st.sampled_from(["uniform", "normal", "indices"]), _SIZES,
              st.sampled_from([1, 2, 7, 1000, 2**31 + 1])),
    max_size=12,
)


@pytest.mark.deep
@given(seed=st.integers(0, 2**64 - 1), calls=_CALLS)
def test_block_draws_equal_unbuffered_stream(seed, calls):
    # Interleaved requests against a stream that draws each one straight from
    # Philox, with ``upper`` changing between index requests.
    blocked, bare = RngStream(seed).split(4), PhiloxStream(seed, (4,))
    for kind, n, upper in calls:
        if kind == "indices":
            got, want = blocked.indices(n, upper), bare.indices(n, upper)
        else:
            n = max(n, 1) if kind == "normal" else n
            got, want = getattr(blocked, kind)(n), getattr(bare, kind)(n)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


class TestTraceRecord:
    def test_fields(self):
        row = TraceRecord(3, 0.5, 1.25)
        assert (row.iteration, row.elapsed_seconds, row.objective) == (3, 0.5, 1.25)
