"""Tests for the in-process collectives, including algebraic properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.collectives import (
    STATS,
    all_gather,
    all_reduce,
    broadcast,
    reduce_scatter,
)


class TestAllReduce:
    def test_mean(self):
        out = all_reduce([np.array([2.0]), np.array([4.0])])
        np.testing.assert_allclose(out[0], 3.0)
        np.testing.assert_allclose(out[1], 3.0)

    def test_sum(self):
        out = all_reduce([np.array([2.0]), np.array([4.0])], op="sum")
        np.testing.assert_allclose(out[0], 6.0)

    def test_single_rank_identity(self):
        out = all_reduce([np.array([5.0, 6.0])])
        np.testing.assert_allclose(out[0], [5.0, 6.0])

    def test_results_independent_copies(self):
        out = all_reduce([np.zeros(2), np.zeros(2)])
        out[0][0] = 99
        assert out[1][0] == 0

    def test_bad_op(self):
        with pytest.raises(ValueError, match="op"):
            all_reduce([np.zeros(1)], op="max")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            all_reduce([])


class TestReduceScatterGather:
    def test_scatter_then_gather_is_reduce(self):
        arrays = [np.arange(6.0), np.arange(6.0) * 2]
        shards = reduce_scatter(arrays, op="sum")
        full = all_gather(shards)
        np.testing.assert_allclose(full[0], np.arange(6.0) * 3)

    def test_uneven_shards(self):
        arrays = [np.arange(5.0), np.arange(5.0)]
        shards = reduce_scatter(arrays)
        assert [s.size for s in shards] == [3, 2]

    def test_requires_flat(self):
        with pytest.raises(ValueError, match="flat"):
            reduce_scatter([np.zeros((2, 2))])

    def test_broadcast(self):
        out = broadcast(np.array([1.0, 2.0]), 3)
        assert len(out) == 3
        np.testing.assert_allclose(out[2], [1.0, 2.0])

    def test_broadcast_invalid(self):
        with pytest.raises(ValueError):
            broadcast(np.zeros(1), 0)


class TestStats:
    def test_volume_accounting(self):
        STATS.reset()
        all_reduce([np.zeros(10), np.zeros(10)])
        assert STATS.counts["all_reduce"] == 1
        assert STATS.elements["all_reduce"] == 20.0
        STATS.reset()
        assert not STATS.counts


@settings(max_examples=40)
@given(
    data=hnp.arrays(
        np.float64,
        st.integers(2, 24),
        elements=st.floats(-100, 100, allow_nan=False),
    ),
    n_ranks=st.integers(1, 5),
)
def test_scatter_gather_roundtrip_property(data, n_ranks):
    """all_gather(reduce_scatter(x * n)) == sum of replicas, any sizes."""
    arrays = [data.copy() for _ in range(n_ranks)]
    shards = reduce_scatter(arrays, op="mean")
    full = all_gather(shards)
    for rank_result in full:
        np.testing.assert_allclose(rank_result, data, atol=1e-9)


@settings(max_examples=40)
@given(
    n_ranks=st.integers(1, 5),
    size=st.integers(1, 32),
    seed=st.integers(0, 1000),
)
def test_all_reduce_mean_property(n_ranks, size, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=size) for _ in range(n_ranks)]
    expected = np.mean(arrays, axis=0)
    out = all_reduce(arrays)
    for result in out:
        np.testing.assert_allclose(result, expected, atol=1e-12)
