"""Trace builders: coverage, length caps, composition."""

import numpy as np
import pytest

from repro.cache import trace


class TestSequential:
    def test_covers_working_set(self):
        t = trace.sequential(1024, element_bytes=4, passes=1)
        assert t.min() == 0
        assert t.max() <= 1024 - 4

    def test_passes_repeat(self):
        one = trace.sequential(1024, passes=1)
        two = trace.sequential(1024, passes=2)
        assert len(two) == 2 * len(one)
        np.testing.assert_array_equal(two[: len(one)], two[len(one):])

    def test_length_cap_preserves_footprint(self):
        t = trace.sequential(100 * 1024 * 1024, passes=2, max_len=1000)
        assert len(t) <= 1100
        assert t.max() > 90 * 1024 * 1024  # stride raised, span kept

    def test_empty(self):
        assert len(trace.sequential(0)) == 0


class TestStrided:
    def test_respects_stride(self):
        t = trace.strided(1024, stride_bytes=128, passes=1)
        assert set(np.diff(t)) == {128}

    def test_cap(self):
        t = trace.strided(10**8, stride_bytes=8, passes=2, max_len=500)
        assert len(t) <= 500


class TestRandom:
    def test_bounds(self, rng):
        t = trace.random_uniform(4096, 1000, rng)
        assert len(t) == 1000
        assert t.min() >= 0
        assert t.max() <= 4092

    def test_alignment(self, rng):
        t = trace.random_uniform(4096, 100, rng, element_bytes=8)
        assert (t % 8 == 0).all()

    def test_empty(self, rng):
        assert len(trace.random_uniform(0, 10, rng)) == 0
        assert len(trace.random_uniform(100, 0, rng)) == 0


class TestBlocked:
    def test_blocks_revisited(self):
        t = trace.blocked(4096, block_bytes=1024, reuse=3, max_len=10000)
        # first block's addresses appear `reuse` times before block 2 starts
        first_block = t[t < 1024]
        beyond = np.nonzero(t >= 1024)[0]
        assert len(first_block) > 0
        if len(beyond):
            assert (t[: beyond[0]] < 1024).all()

    def test_covers_all_blocks(self):
        t = trace.blocked(8192, block_bytes=2048, reuse=2)
        for b in range(4):
            assert ((t >= b * 2048) & (t < (b + 1) * 2048)).any()


class TestComposition:
    def test_interleaved_round_robin(self):
        a = np.array([0, 1, 2], dtype=np.int64)
        b = np.array([100, 101], dtype=np.int64)
        out = trace.interleaved([a, b])
        assert out.tolist() == [0, 100, 1, 101, 2]

    def test_interleaved_empty(self):
        assert len(trace.interleaved([])) == 0
        assert len(trace.interleaved([np.empty(0, np.int64)])) == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_interleaved_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        traces = [
            rng.integers(-(1 << 40), 1 << 40, size=rng.integers(0, 40),
                         dtype=np.int64)
            for _ in range(rng.integers(0, 6))
        ]
        out = trace.interleaved(traces)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, _interleaved_oracle(traces))

    def test_offset(self):
        t = trace.offset_trace(np.array([0, 4], dtype=np.int64), 1000)
        assert t.tolist() == [1000, 1004]

    def test_offset_empty(self):
        assert len(trace.offset_trace(np.empty(0, np.int64), 10)) == 0


class TestDistinctLines:
    @pytest.mark.parametrize("addresses", [
        np.empty(0, dtype=np.int64),
        np.array([12345], dtype=np.int64),
        np.full(100, 640, dtype=np.int64),
        np.array([-65, -64, -1, 0, 63, 64], dtype=np.int64),
    ], ids=["empty", "single", "all-equal", "negative"])
    @pytest.mark.parametrize("line_bytes", [1, 64, 4096])
    def test_edge_cases_match_unique(self, addresses, line_bytes):
        assert trace.distinct_lines(addresses, line_bytes) == len(
            np.unique(addresses // line_bytes))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_traces_match_unique(self, seed):
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, rng.integers(1, 1 << 20),
                                 size=rng.integers(0, 5000), dtype=np.int64)
        for line_bytes in (1, 64, 4096):
            assert trace.distinct_lines(addresses, line_bytes) == len(
                np.unique(addresses // line_bytes))


def _interleaved_oracle(traces):
    """The element-by-element round robin ``interleaved`` replaced."""
    traces = [t for t in traces if len(t)]
    if not traces:
        return np.empty(0, dtype=np.int64)
    out = []
    for i in range(max(len(t) for t in traces)):
        for t in traces:
            if i < len(t):
                out.append(t[i])
    return np.asarray(out, dtype=np.int64)
