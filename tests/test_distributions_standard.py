"""Tests for the standard continuous distributions."""

import math

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    Pareto,
    Weibull,
)
from repro.exceptions import DistributionError


def sample_mean(dist, rng, n=200_000):
    return float(np.mean(dist.sample(rng, n)))


class TestDeterministic:
    def test_every_sample_equals_value(self, rng):
        dist = Deterministic(2.5)
        assert dist.sample(rng) == 2.5
        assert (dist.sample(rng, 10) == 2.5).all()

    def test_moments(self):
        dist = Deterministic(3.0)
        assert dist.mean() == 3.0
        assert dist.variance() == 0.0
        assert dist.cv2() == 0.0

    def test_invalid_value(self):
        with pytest.raises(DistributionError):
            Deterministic(0.0)


class TestExponential:
    def test_moments(self):
        dist = Exponential(2.0)
        assert dist.mean() == 2.0
        assert dist.variance() == 4.0
        assert dist.cv2() == pytest.approx(1.0)

    def test_sample_mean_close_to_analytic(self, rng):
        dist = Exponential(0.5)
        assert sample_mean(dist, rng) == pytest.approx(0.5, rel=0.02)

    def test_invalid_mean(self):
        with pytest.raises(DistributionError):
            Exponential(-1.0)


class TestPareto:
    def test_mean_parameterisation(self):
        dist = Pareto(alpha=2.1, mean=1.0)
        assert dist.mean() == pytest.approx(1.0)

    def test_xm_parameterisation(self):
        dist = Pareto(alpha=3.0, xm=2.0)
        assert dist.mean() == pytest.approx(3.0)

    def test_sample_mean_close_to_analytic(self, rng):
        dist = Pareto(alpha=2.5, mean=1.0)
        assert sample_mean(dist, rng, 400_000) == pytest.approx(1.0, rel=0.05)

    def test_samples_at_least_xm(self, rng):
        dist = Pareto(alpha=2.1, xm=1.5)
        assert float(np.min(dist.sample(rng, 10_000))) >= 1.5

    def test_infinite_variance_below_two(self):
        assert math.isinf(Pareto(alpha=1.9, mean=1.0).variance())

    def test_finite_variance_above_two(self):
        assert Pareto(alpha=2.5, mean=1.0).variance() > 0

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(DistributionError):
            Pareto(alpha=1.0, mean=1.0)

    def test_must_give_exactly_one_of_mean_and_xm(self):
        with pytest.raises(DistributionError):
            Pareto(alpha=2.0, xm=1.0, mean=1.0)
        with pytest.raises(DistributionError):
            Pareto(alpha=2.0)


class TestWeibull:
    def test_shape_one_is_exponential(self):
        dist = Weibull(shape=1.0, scale=2.0)
        assert dist.mean() == pytest.approx(2.0)
        assert dist.cv2() == pytest.approx(1.0)

    def test_small_shape_is_heavy(self):
        assert Weibull(shape=0.5, scale=1.0).cv2() > 1.0

    def test_large_shape_is_light(self):
        assert Weibull(shape=4.0, scale=1.0).cv2() < 0.2

    def test_sample_mean_matches(self, rng):
        dist = Weibull(shape=0.7, scale=1.0)
        assert sample_mean(dist, rng) == pytest.approx(dist.mean(), rel=0.03)

    def test_invalid_shape(self):
        with pytest.raises(DistributionError):
            Weibull(shape=0.0)


class TestErlang:
    def test_moments(self):
        dist = Erlang(k=4, mean=2.0)
        assert dist.mean() == 2.0
        assert dist.cv2() == pytest.approx(0.25)

    def test_sample_mean(self, rng):
        assert sample_mean(Erlang(3, 1.0), rng) == pytest.approx(1.0, rel=0.02)

    def test_invalid_k(self):
        with pytest.raises(DistributionError):
            Erlang(k=0)


class TestHyperExponential:
    def test_from_mean_cv2_reproduces_moments(self):
        dist = HyperExponential.from_mean_cv2(mean=2.0, cv2=4.0)
        assert dist.mean() == pytest.approx(2.0)
        assert dist.cv2() == pytest.approx(4.0, rel=1e-6)

    def test_cv2_one_is_plain_exponential(self):
        dist = HyperExponential.from_mean_cv2(mean=1.0, cv2=1.0)
        assert dist.cv2() == pytest.approx(1.0)

    def test_cv2_below_one_rejected(self):
        with pytest.raises(DistributionError):
            HyperExponential.from_mean_cv2(mean=1.0, cv2=0.5)

    def test_sample_mean(self, rng):
        dist = HyperExponential.from_mean_cv2(mean=1.0, cv2=8.0)
        assert sample_mean(dist, rng, 400_000) == pytest.approx(1.0, rel=0.05)

    def test_invalid_mixture(self):
        with pytest.raises(DistributionError):
            HyperExponential([0.5, 0.4], [1.0, 2.0])


class TestScaling:
    def test_scaled_to_mean(self, rng):
        dist = Exponential(4.0).scaled_to_mean(1.0)
        assert dist.mean() == pytest.approx(1.0)
        assert dist.cv2() == pytest.approx(1.0)

    def test_unit_mean_preserves_shape(self):
        base = Pareto(alpha=2.5, xm=3.0)
        unit = base.unit_mean()
        assert unit.mean() == pytest.approx(1.0)
        assert unit.cv2() == pytest.approx(base.cv2())

    def test_second_moment_relation(self):
        dist = Exponential(2.0)
        assert dist.second_moment() == pytest.approx(dist.variance() + dist.mean() ** 2)

    def test_invalid_target_mean(self):
        with pytest.raises(DistributionError):
            Exponential(1.0).scaled_to_mean(0.0)
