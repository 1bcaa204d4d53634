import math
import warnings

import numpy as np
import pytest

from gammaratio import (
    DomainError,
    RatioSpec,
    beta_product_moments,
    cm_probe,
    count_zeros,
    derive,
    fox_identity_residual,
    laplace_reconstruct,
    meijer_identity_residual,
)
from gammaratio.foxh import DEFAULT_CONTOUR, DensityEvaluator


class TestLaplaceReconstruct:
    def test_inverse_x(self, spec_inverse_x):
        # 1/3 = int_0^inf e^{-3t} dt reconstructed through the density.
        report = laplace_reconstruct(spec_inverse_x, [3.0])
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_mixed_scale(self, spec_mixed_scale):
        report = laplace_reconstruct(spec_mixed_scale, [0.5, 1.0, 2.0])
        assert report.passed
        assert report.max_residual <= 1e-6

    def test_equal_scales(self, spec_equal_scales):
        report = laplace_reconstruct(spec_equal_scales, [1.0, 4.0])
        assert report.passed

    def test_matches_mellin_internal(self, spec_equal_scales):
        # Same integral after substitution; wiring must agree tightly.
        x = 1.5
        via_laplace = DensityEvaluator(spec_equal_scales, DEFAULT_CONTOUR).mellin_transform(x)
        again = DensityEvaluator(spec_equal_scales, DEFAULT_CONTOUR).mellin_transform(x)
        assert via_laplace == pytest.approx(again, rel=1e-10)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite_point(self, spec_paired, x):
        # A package error before any quadrature, so no RuntimeWarning either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                laplace_reconstruct(spec_paired, [x])

    def test_report_fields(self, spec_inverse_x):
        report = laplace_reconstruct(spec_inverse_x, [1.0, 2.0])
        assert len(report.sample_points) == len(report.residuals) == 2
        assert report.max_residual == max(report.residuals)


class TestMeijerIdentity:
    def test_linear_density_closed_form(self):
        # Shifts (0,), (2,): density is 1-x; residual should be tiny.
        report = meijer_identity_residual((0.0,), (2.0,), [0.2, 0.5, 0.8])
        assert report.passed
        assert report.max_residual <= 1e-8

    def test_power_density(self):
        report = meijer_identity_residual((1.0,), (2.0,), [0.5])
        assert report.passed
        assert report.max_residual <= 1e-7

    def test_collapses_near_one(self):
        # Both sides vanish as x -> 1; residual switches to absolute.
        report = meijer_identity_residual((0.0,), (2.0,), [0.995])
        assert report.max_residual <= 1e-7

    def test_rejects_bad_gap(self):
        with pytest.raises(DomainError):
            meijer_identity_residual((1.0,), (1.0,), [0.5])

    def test_excluded_nodes_skip_the_density(self, monkeypatch):
        # Within 1e-6 of x the integrand is its limit value, so only the one
        # density at x itself (the left-hand side) may come that close.
        batches = []
        values = DensityEvaluator.values

        def recording(self, xs):
            batches.append(np.asarray(xs, dtype=float).ravel())
            return values(self, xs)

        monkeypatch.setattr(DensityEvaluator, "values", recording)
        x = 0.5
        report = meijer_identity_residual((0.3,), (3.1,), [x])
        assert report.passed
        points = np.concatenate(batches)
        assert points[np.abs(points - x) <= 1e-6].tolist() == [x]
        assert len(points) <= 25

    def test_interval_inside_exclusion(self):
        # The quadrature runs over [x, 0.95], all of it within 1e-6 of x.
        report = meijer_identity_residual((0.0,), (2.0,), [0.9499995])
        assert report.max_residual <= 1e-9


class TestFoxIdentity:
    def test_degenerate_exact(self, spec_inverse_x):
        # Density and kernel both identically 1: identity reduces to
        # log(1/x) = int_x^1 du/u.
        report = fox_identity_residual(spec_inverse_x, [0.37])
        assert report.max_residual <= 1e-10

    def test_equal_scales(self, spec_equal_scales):
        rho = derive(spec_equal_scales).rho
        report = fox_identity_residual(spec_equal_scales, [rho / 2.0])
        assert report.passed
        assert report.max_residual <= 1e-5

    def test_mixed_scale(self, spec_mixed_scale):
        rho = derive(spec_mixed_scale).rho
        report = fox_identity_residual(spec_mixed_scale, [rho / 4.0])
        assert report.passed

    def test_rejects_x_outside_support(self, spec_equal_scales):
        rho = derive(spec_equal_scales).rho
        with pytest.raises(DomainError):
            fox_identity_residual(spec_equal_scales, [1.5 * rho])


class TestCmProbe:
    def test_inverse_x(self, spec_inverse_x):
        report = cm_probe(spec_inverse_x, x0=2.0, h=0.05, max_order=6)
        assert report.passed
        assert report.max_residual == 0.0

    def test_mixed_scale(self, spec_mixed_scale):
        report = cm_probe(spec_mixed_scale, x0=1.0, h=0.02, max_order=6)
        assert report.passed

    def test_growing_ratio_fails(self):
        spec = RatioSpec(A=(2,), a=(0,), B=(1,), b=(0.5,))
        report = cm_probe(spec, x0=2.0, h=0.05, max_order=4)
        assert not report.passed

    def test_validates_stencil(self, spec_inverse_x):
        with pytest.raises(DomainError):
            cm_probe(spec_inverse_x, x0=0.2, h=0.05, max_order=6)
        with pytest.raises(DomainError):
            cm_probe(spec_inverse_x, x0=5.0, h=0.1, max_order=9)


class TestBetaProductMoments:
    def test_uniform_mean(self):
        # alpha=beta=1 is the uniform law; E(u) = 1/2.
        report = beta_product_moments([1.0], [1.0], [1.0], [2.0], n_samples=50_000, rng_seed=3)
        assert report.passed

    def test_beta_mean_oracle(self):
        # E(zeta) = alpha/(alpha+beta) = 0.4.
        report = beta_product_moments([2.0], [3.0], [1.0], [2.0], n_samples=50_000, rng_seed=5)
        assert report.passed

    def test_two_factor_product(self):
        report = beta_product_moments(
            [2.0, 3.0], [1.0, 2.0], [1.5, 0.5], [2.0, 3.0], n_samples=100_000, rng_seed=11
        )
        assert report.passed

    def test_deterministic_given_seed(self):
        a = beta_product_moments([2.0], [1.5], [1.0], [2.0], n_samples=20_000, rng_seed=42)
        b = beta_product_moments([2.0], [1.5], [1.0], [2.0], n_samples=20_000, rng_seed=42)
        assert a.residuals == b.residuals

    def test_root_n_convergence(self):
        # RMS error over seeds should shrink roughly like 1/sqrt(n).
        errs_small, errs_big = [], []
        for seed in range(12):
            r1 = beta_product_moments([2.0], [3.0], [1.0], [2.0], n_samples=10_000, rng_seed=seed)
            r2 = beta_product_moments([2.0], [3.0], [1.0], [2.0], n_samples=40_000, rng_seed=seed)
            se1 = float(r1.notes.split("standard errors ")[1].strip("[]()").split(",")[0])
            se2 = float(r2.notes.split("standard errors ")[1].strip("[]()").split(",")[0])
            errs_small.append(r1.residuals[0] * se1)
            errs_big.append(r2.residuals[0] * se2)
        rms_small = math.sqrt(sum(e * e for e in errs_small) / len(errs_small))
        rms_big = math.sqrt(sum(e * e for e in errs_big) / len(errs_big))
        # Expect ~0.5; allow wide but meaningful statistical slack.
        assert rms_big / rms_small < 0.95

    def test_validation(self):
        with pytest.raises(DomainError):
            beta_product_moments([1.0], [1.0], [1.0], [2.0], n_samples=100)
        with pytest.raises(DomainError):
            beta_product_moments([-1.0], [1.0], [1.0], [2.0])
        with pytest.raises(DomainError):
            # Moment argument A x + alpha - A is nonpositive at x = 0.5.
            beta_product_moments([0.5], [1.0], [2.0], [0.5])


class TestCountZeros:
    def test_lcm_spec_no_zeros(self, spec_equal_scales):
        report = count_zeros(spec_equal_scales, grid_size=64)
        assert report.q_zero_count == 0
        assert report.h_zero_count == 0
        assert report.conjecture_consistent is True

    def test_negative_mu_skips_density(self):
        spec = RatioSpec(A=(1,), a=(1,), B=(1,), b=(0,))
        report = count_zeros(spec, grid_size=64)
        assert report.q_zero_count == 0
        assert not report.h_evaluated
        assert report.conjecture_consistent is None

    def test_degenerate_kernel_flagged(self):
        spec = RatioSpec(A=(1, 2), a=(0.5, 1), B=(2, 1), b=(1, 0.5))
        report = count_zeros(spec, grid_size=64)
        assert report.q_identically_zero
        assert report.q_zero_count == 0

    def test_sign_changing_kernel(self):
        spec = RatioSpec(A=(1, 1), a=(0, 1.2), B=(1, 1), b=(0.5, 0.5))
        report = count_zeros(spec, grid_size=128)
        assert report.q_zero_count >= 1
        for lo, hi in report.q_intervals:
            assert hi - lo <= 1e-8

    def test_refinement_never_loses_brackets(self):
        spec = RatioSpec(A=(1, 1), a=(0, 1.2), B=(1, 1), b=(0.5, 0.5))
        coarse = count_zeros(spec, grid_size=64)
        fine = count_zeros(spec, grid_size=128)
        finer = count_zeros(spec, grid_size=256)
        assert coarse.q_zero_count <= fine.q_zero_count <= finer.q_zero_count
