"""Tests for the noise-scale estimator and the cost/time trade-off."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sgd.batch import samples_to_target, steps_to_target
from repro.sgd.noise_scale import (
    NoiseScaleEstimator,
    noise_scale_exact,
    noise_scale_paired,
)
from repro.sgd.tradeoff import (
    BCRIT_52B,
    BCRIT_6_6B,
    UtilizationCurve,
    tradeoff_curve,
)


class TestNoiseScaleExact:
    def test_recovers_known_noise_scale(self):
        # Per-sample gradients g_i = G + noise, tr(Sigma)/|G|^2 known.
        rng = np.random.default_rng(0)
        dim, n = 200, 4000
        true_grad = np.ones(dim)  # |G|^2 = dim
        sigma = 2.0
        grads = true_grad + rng.normal(0, sigma, size=(n, dim))
        expected = sigma**2 * dim / dim  # tr(Sigma) / |G|^2 = sigma^2
        estimate = noise_scale_exact(grads)
        assert estimate == pytest.approx(expected, rel=0.15)

    def test_zero_noise(self):
        grads = np.tile(np.ones(8), (10, 1)) + 1e-12
        assert noise_scale_exact(grads) == pytest.approx(0.0, abs=1e-6)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two"):
            noise_scale_exact(np.ones((1, 4)))

    def test_needs_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            noise_scale_exact(np.ones(4))

    def test_pure_noise_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="noise"):
            noise_scale_exact(rng.normal(size=(4, 1000)))


class TestNoiseScalePaired:
    def test_consistent_with_model(self):
        # E|g_B|^2 = |G|^2 + tr(Sigma)/B with |G|^2=4, tr(Sigma)=8.
        small = 4 + 8 / 2
        big = 4 + 8 / 16
        assert noise_scale_paired(small, big, 2, 16) == pytest.approx(2.0)

    def test_order_enforced(self):
        with pytest.raises(ValueError, match="batch_small"):
            noise_scale_paired(1.0, 1.0, 8, 2)

    def test_running_estimator(self):
        est = NoiseScaleEstimator(batch_small=2, batch_big=16, decay=0.5)
        for _ in range(20):
            est.update(4 + 8 / 2, 4 + 8 / 16)
        assert est.noise_scale == pytest.approx(2.0, rel=1e-6)

    def test_estimator_requires_data(self):
        with pytest.raises(ValueError, match="no measurements"):
            _ = NoiseScaleEstimator(2, 4).noise_scale


class TestBatchOverhead:
    def test_eq7_doubles_at_bcrit(self):
        assert samples_to_target(1000, 1000, 5000) == pytest.approx(10000)

    def test_small_batch_limit(self):
        assert samples_to_target(1, 1e9, 5000) == pytest.approx(5000, rel=1e-6)

    def test_gpt3_overhead_paper_example(self):
        # Section 3.5: B = 3M tokens vs B_crit = 10M -> ~30% overhead.
        overhead = samples_to_target(3e6, 10e6, 1.0) - 1.0
        assert overhead == pytest.approx(0.3)

    def test_52b_batch_1024_overhead(self):
        # Footnote 9: B=1024 gives ~15% overhead for the 52B model.
        overhead = samples_to_target(1024, BCRIT_52B, 1.0) - 1.0
        assert overhead == pytest.approx(0.15, abs=0.01)

    def test_6_6b_batch_1024_overhead(self):
        # Footnote 9: ~30% for the 6.6B model.
        overhead = samples_to_target(1024, BCRIT_6_6B, 1.0) - 1.0
        assert overhead == pytest.approx(0.30, abs=0.01)

    def test_steps_to_target(self):
        assert steps_to_target(100, 1000, 1000) == pytest.approx(11.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            samples_to_target(0, 1, 1)


class TestTradeoff:
    CURVE = UtilizationCurve(
        method="test",
        points=((0.125, 0.30), (1.0, 0.40), (8.0, 0.50)),
    )

    def _points(self, sizes=(256, 1024, 4096)):
        return tradeoff_curve(
            self.CURVE, list(sizes), 6780.0, 4.2e14, 125e12
        )

    def test_time_decreases_with_cluster_size(self):
        pts = self._points()
        times = [p.time_days for p in pts]
        assert times == sorted(times, reverse=True)

    def test_cost_increases_with_cluster_size(self):
        pts = self._points()
        costs = [p.cost_gpu_days for p in pts]
        assert costs == sorted(costs)

    def test_eq8_cost_time_relation(self):
        for p in self._points():
            assert p.cost_gpu_days == pytest.approx(p.time_days * p.n_gpus)

    def test_large_cluster_prefers_small_beta(self):
        pts = self._points(sizes=(256, 65536))
        assert pts[-1].beta <= pts[0].beta

    def test_52b_headline_scale(self):
        # Figure 1a: ~10-20 days on 4096 V100s for the best method.
        pts = tradeoff_curve(
            self.CURVE, [4096], BCRIT_52B, 4.3e14, 125e12
        )
        assert 3 < pts[0].time_days < 40

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            self._points(sizes=(0,))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            UtilizationCurve("bad", ())
        with pytest.raises(ValueError):
            UtilizationCurve("bad", ((1.0, 1.5),))


@settings(max_examples=50)
@given(
    batch=st.floats(1, 1e6),
    bcrit=st.floats(1, 1e6),
    base=st.floats(1, 1e9),
)
def test_samples_monotone_in_batch_property(batch, bcrit, base):
    assert samples_to_target(batch, bcrit, base) >= base
    assert samples_to_target(batch * 2, bcrit, base) > samples_to_target(
        batch, bcrit, base
    )
