"""Tests for the weighted (conditional) density estimator."""

import math

import numpy as np
import pytest
from scipy import stats

from warpdens import (
    ConditionalFitConfig,
    ConstraintError,
    DegenerateSampleError,
    DomainError,
    FitConfig,
    ShapeSpec,
    adaptive_bandwidth,
    compute_weights,
    count_modes,
    fit,
    fit_conditional,
    pilot_bandwidth,
)


class TestPilotBandwidth:
    def test_normal_reference_rule(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 1000)
        h = pilot_bandwidth(x)
        sd = np.std(x, ddof=1)
        assert abs(h / sd - 1.06 * 1000 ** (-0.2)) < 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 500)
        assert abs(pilot_bandwidth(3.0 * x) - 3.0 * pilot_bandwidth(x)) < 1e-10

    def test_sample_size_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 400)
        h1 = pilot_bandwidth(x)
        h2 = pilot_bandwidth(np.concatenate([x, x]))
        # doubling n (same sample twice keeps sd nearly equal) shrinks h
        assert h2 < h1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSampleError):
            pilot_bandwidth(np.full(50, 1.0))


class TestAdaptiveBandwidth:
    def test_uniform_covariates_near_pilot(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 5000)
        h = pilot_bandwidth(x)
        # pilot KDE of U[0,1] is ~1 in the interior, so h(x0) ~ h
        assert abs(adaptive_bandwidth(x, 0.5, h) / h - 1.0) < 0.1

    def test_minimal_at_densest_point(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 5000)
        h = pilot_bandwidth(x)
        h_center = adaptive_bandwidth(x, 0.0, h)
        h_tail = adaptive_bandwidth(x, 2.5, h)
        assert h_center < h_tail

    def test_symmetry(self):
        x = np.concatenate([np.linspace(-2, 2, 801)])
        h = pilot_bandwidth(x)
        assert abs(
            adaptive_bandwidth(x, 1.0, h) - adaptive_bandwidth(x, -1.0, h)
        ) < 1e-12

    def test_outside_support_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 0.1, 500)
        with pytest.raises(DomainError):
            adaptive_bandwidth(x, 50.0, pilot_bandwidth(x))


class TestComputeWeights:
    def test_sum_to_one_and_count(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 101)
        w = compute_weights(x, 0.0, 0.5, 0.5)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.count_nonzero(w) == math.ceil(0.5 * 101)

    def test_equal_covariates_uniform(self):
        x = np.zeros(40)
        w = compute_weights(x, 0.0, 1.0, 0.5)
        m = math.ceil(0.5 * 40)
        assert np.count_nonzero(w) == m
        assert np.allclose(w[w > 0], 1.0 / m)

    def test_flat_kernel_limit(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 64)
        w = compute_weights(x, 0.0, 1e9, 1.0)
        assert np.allclose(w, 1.0 / 64)

    def test_three_point_example(self):
        # distances (0, h, 2h): weights prop. to phi(0), phi(1), phi(2)
        h = 0.7
        x = np.array([1.0, 1.0 + h, 1.0 + 2 * h])
        w = compute_weights(x, 1.0, h, 1.0)
        expect = stats.norm.pdf([0.0, 1.0, 2.0])
        expect = expect / expect.sum()
        assert np.max(np.abs(w - expect)) < 1e-12
        # independently derived normalized values
        assert np.max(np.abs(w - [0.57410, 0.34821, 0.07770])) < 1e-4

    @pytest.mark.parametrize(
        "h_x0, frac",
        [(1.0, 0.0), (1.0, -0.5), (1.0, 1.5), (1.0, math.nan),
         (0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5)],
        ids=["frac-zero", "frac-negative", "frac-above-one", "frac-nan",
             "h-zero", "h-negative", "h-inf", "h-nan"],
    )
    def test_rejected(self, h_x0, frac):
        with pytest.raises(DomainError):
            compute_weights(np.linspace(-1.0, 1.0, 20), 0.0, h_x0, frac)


class TestConditionalFitConfig:
    @pytest.mark.parametrize(
        "change, error",
        [
            ({"x0": math.nan}, DomainError),
            ({"x0": math.inf}, DomainError),
            ({"x0": "a"}, DomainError),
            ({"x0": None}, DomainError),
            ({"neighbor_fraction": "a"}, DomainError),
            ({"neighbor_fraction": True}, DomainError),
            ({"base": None}, ConstraintError),
            ({"base": ShapeSpec.modes(1)}, ConstraintError),
        ],
        ids=["x0-nan", "x0-inf", "x0-str", "x0-none", "fraction-str", "fraction-bool",
             "base-none", "base-shape"],
    )
    def test_rejected(self, change, error):
        fields = {"base": FitConfig(shape=ShapeSpec.modes(1)), "x0": 0.0, **change}
        with pytest.raises(error):
            ConditionalFitConfig(**fields)

    def test_numpy_scalars_accepted(self):
        base = FitConfig(shape=ShapeSpec.modes(1))
        cfg = ConditionalFitConfig(
            base, np.float64(0.5), neighbor_fraction=np.float32(0.5)
        )
        assert cfg.x0 == 0.5


class TestFitConditional:
    def test_uniform_weights_reduce_to_plain_fit(self):
        # frac=1 with every covariate at distance 1 from x0 makes all
        # weights equal; the conditional fit must match the unconditional
        # fit bit-for-bit
        rng = np.random.default_rng(8)
        x = np.tile([-1.0, 1.0], 60)
        y = rng.normal(0, 1, 120)
        base = FitConfig(shape=ShapeSpec.modes(1), restarts=4, seed=5)
        cond = fit_conditional(
            x, y, ConditionalFitConfig(base=base, x0=0.0, neighbor_fraction=1.0)
        )
        plain = fit(y, base)
        assert np.array_equal(cond.c_hat.c, plain.c_hat.c)
        assert np.array_equal(cond.lambda_hat, plain.lambda_hat)
        assert cond.loglik == plain.loglik
        assert cond.j == plain.j

    def test_bimodal_conditional_recovery(self):
        rng = np.random.default_rng(9)
        n = 600
        x = rng.normal(0, 1, n)
        y = np.where(
            rng.uniform(size=n) < 0.5,
            rng.normal(x - 1.5, 0.5),
            rng.normal(x + 1.5, 0.5),
        )
        cfg = ConditionalFitConfig(
            base=FitConfig(shape=ShapeSpec.modes(2), restarts=6, seed=2),
            x0=float(np.median(x)),
        )
        est = fit_conditional(x, y, cfg)
        assert count_modes(est.unit_density()) == 2
        assert est.bandwidth is not None and est.bandwidth > 0
        assert est.n_eff is not None and 1.0 < est.n_eff <= n

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, 200)
        y = rng.normal(x, 1.0)
        cfg = ConditionalFitConfig(
            base=FitConfig(shape=ShapeSpec.modes(1), restarts=3, seed=7), x0=0.0
        )
        a = fit_conditional(x, y, cfg)
        b = fit_conditional(x, y, cfg)
        assert np.array_equal(a.c_hat.c, b.c_hat.c)
        assert a.loglik == b.loglik

    def test_small_sample_rejected(self):
        cfg = ConditionalFitConfig(
            base=FitConfig(shape=ShapeSpec.modes(1)), x0=0.0
        )
        with pytest.raises(DegenerateSampleError):
            fit_conditional(np.arange(5.0), np.arange(5.0), cfg)

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_non_1d_column_rejected(self, column):
        rng = np.random.default_rng(12)
        data = {"x": rng.normal(0, 1, 60), "y": rng.normal(0, 1, 60)}
        data[column] = data[column].reshape(30, 2)
        cfg = ConditionalFitConfig(
            base=FitConfig(shape=ShapeSpec.modes(1)), x0=0.0
        )
        with pytest.raises(DegenerateSampleError, match="1-D"):
            fit_conditional(data["x"], data["y"], cfg)

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_non_finite_pair_rejected(self, column):
        rng = np.random.default_rng(12)
        data = {"x": rng.normal(0, 1, 60), "y": rng.normal(0, 1, 60)}
        # the pair nearest x0 always keeps weight
        data[column][np.argmin(np.abs(data["x"]))] = np.nan
        cfg = ConditionalFitConfig(
            base=FitConfig(shape=ShapeSpec.modes(1)), x0=0.0
        )
        with pytest.raises(DegenerateSampleError, match="finite"):
            fit_conditional(data["x"], data["y"], cfg)
