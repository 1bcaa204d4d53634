import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as spgamma

from gammaratio import (
    DomainError,
    RatioSpec,
    beta_product_moments,
    cm_kernel,
    cm_kernel_series,
    cm_kernel_t,
    derive,
    digamma,
    gamma_ratio,
    kernel_positive_part,
    log_gamma,
    log_ratio_derivative,
    polygamma,
    power_sum_diff,
)
from gammaratio.foxh import gamma_product_ratio_at
from gammaratio.monotonicity import build_unweighted


class TestRatioSpecValidation:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            RatioSpec(A=(0.0,), a=(1.0,), B=(1.0,), b=(1.0,))
        with pytest.raises(DomainError):
            RatioSpec(A=(-2.0,), a=(1.0,), B=(1.0,), b=(1.0,))

    def test_rejects_negative_shift(self):
        with pytest.raises(DomainError):
            RatioSpec(A=(1.0,), a=(-0.1,), B=(1.0,), b=(1.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            RatioSpec(A=(1.0, 2.0), a=(0.5,), B=(1.0,), b=(1.0,))

    def test_rejects_oversized_entries(self):
        with pytest.raises(DomainError):
            RatioSpec(A=(2e3,), a=(0.0,), B=(1.0,), b=(1.0,))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            RatioSpec(A=(float("nan"),), a=(0.0,), B=(1.0,), b=(1.0,))

    def test_round_trip_dict(self):
        spec = RatioSpec(A=(2, 1), a=(0.5, 0), B=(1.5, 1.5), b=(1, 2))
        assert RatioSpec.from_dict(spec.to_dict()) == spec

    def test_order_preserved(self):
        spec = RatioSpec(A=(3, 1), a=(2, 0), B=(2, 2), b=(1, 1))
        assert spec.A == (3.0, 1.0)
        assert spec.a == (2.0, 0.0)


class TestDerive:
    def test_mixed_scale_support_radius(self, spec_mixed_scale):
        # rho = 2^2 3^3 / 5^5 = 108/3125 exactly.
        inv = derive(spec_mixed_scale)
        assert inv.rho == pytest.approx(0.03456, abs=1e-5)
        assert inv.rho == pytest.approx(108.0 / 3125.0, rel=1e-12)

    def test_mixed_scale_decay_exponent(self, spec_mixed_scale):
        # mu = (2+6) - (0.4+2.4+0.9) + (3-2)/2
        assert derive(spec_mixed_scale).mu == pytest.approx(4.8, abs=1e-12)

    def test_paired_support_radius(self, spec_paired):
        assert derive(spec_paired).rho == pytest.approx(0.783668, abs=1e-6)

    def test_identical_vectors(self):
        spec = RatioSpec(A=(3, 2.2, 1.4), a=(1, 2, 3), B=(3, 2.2, 1.4), b=(1, 2, 3))
        inv = derive(spec)
        assert inv.rho == pytest.approx(1.0, rel=1e-14)
        assert inv.entropy_A == inv.entropy_B

    def test_pole_abscissa(self, spec_mixed_scale):
        assert derive(spec_mixed_scale).gamma_pole == pytest.approx(-0.2, rel=1e-12)

    def test_stirling_const_positive(self, spec_paired):
        inv = derive(spec_paired)
        assert inv.stirling_const > 0.0
        assert inv.log_stirling_const == pytest.approx(math.log(inv.stirling_const), rel=1e-12)


class TestGammaRatio:
    def test_inverse_x(self, spec_inverse_x):
        assert gamma_ratio(spec_inverse_x, 4.0) == pytest.approx(0.25, rel=1e-12)

    def test_identical_spec_is_one(self):
        spec = RatioSpec(A=(2, 1.1), a=(0.3, 4), B=(2, 1.1), b=(0.3, 4))
        for x in (0.5, 1.0, 7.0):
            assert gamma_ratio(spec, x) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_product_oracle(self, spec_mixed_scale):
        exact = (
            spgamma(2.4) * spgamma(5.4) * spgamma(1.9) / (spgamma(3.0) * spgamma(11.0))
        )
        assert gamma_ratio(spec_mixed_scale, 1.0) == pytest.approx(exact, rel=1e-10)

    def test_domain(self, spec_mixed_scale):
        with pytest.raises(DomainError):
            gamma_ratio(spec_mixed_scale, 0.0)
        with pytest.raises(DomainError):
            gamma_ratio(spec_mixed_scale, -2.0)

    def test_overflow_raises_domain_error(self):
        spec = RatioSpec(A=(1000.0,), a=(0.0,), B=(1.0,), b=(0.0,))
        with pytest.raises(DomainError, match="x=2.0"):
            gamma_ratio(spec, 2.0)
        with pytest.raises(DomainError, match="s=2.0"):
            gamma_product_ratio_at(spec, 2.0)


class TestLogRatioDerivative:
    def test_inverse_x_first(self, spec_inverse_x):
        for x in (0.5, 2.0, 9.0):
            assert log_ratio_derivative(spec_inverse_x, x, 1) == pytest.approx(-1.0 / x, rel=1e-12)

    def test_identical_spec_zero(self):
        spec = RatioSpec(A=(2, 3), a=(1, 2), B=(2, 3), b=(1, 2))
        assert log_ratio_derivative(spec, 1.7, 1) == 0.0
        assert log_ratio_derivative(spec, 1.7, 2) == 0.0

    def test_second_derivative_finite_difference_oracle(self, spec_equal_scales):
        x, h = 2.0, 1e-3
        logw = lambda y: math.log(gamma_ratio(spec_equal_scales, y))
        fd = (logw(x + h) - 2.0 * logw(x) + logw(x - h)) / h**2
        exact = log_ratio_derivative(spec_equal_scales, x, 2)
        assert exact > 0.0
        assert exact == pytest.approx(fd, rel=1e-6)

    def test_order_validation(self, spec_inverse_x):
        with pytest.raises(DomainError):
            log_ratio_derivative(spec_inverse_x, 1.0, 3)


class TestKernelU:
    def test_trivial_kernel_is_one(self, spec_inverse_x):
        for u in (1e-8, 1e-3, 0.5, 3.0, 40.0):
            assert cm_kernel(spec_inverse_x, u) == pytest.approx(1.0, rel=1e-12)

    def test_singular_coefficient(self):
        # u * kernel -> sum(A) - sum(B) as u -> 0.
        spec = RatioSpec(A=(2,), a=(0,), B=(1,), b=(0.5,))
        for u in (1e-4, 1e-6):
            assert u * cm_kernel(spec, u) == pytest.approx(1.0, abs=1e-4)

    def test_naive_sum_oracle_at_moderate_u(self, spec_equal_scales):
        spec = spec_equal_scales
        u = 1.0
        naive = math.fsum(
            [math.exp(-ai * u / Ai) / (1 - math.exp(-u / Ai)) for Ai, ai in zip(spec.A, spec.a)]
            + [-math.exp(-bj * u / Bj) / (1 - math.exp(-u / Bj)) for Bj, bj in zip(spec.B, spec.b)]
        )
        val = cm_kernel(spec, u)
        assert val > 0.0
        assert val == pytest.approx(naive, abs=1e-12)

    def test_small_u_constant_term(self, spec_equal_scales, spec_paired):
        assert cm_kernel(spec_equal_scales, 1e-6) == pytest.approx(
            derive(spec_equal_scales).mu, abs=1e-6
        )
        # The large-shift spec has an O(u) coefficient near 19, so the
        # constant term only emerges at smaller u.
        assert cm_kernel(spec_paired, 1e-8) == pytest.approx(derive(spec_paired).mu, abs=1e-6)

    def test_vectorized_matches_scalar(self, spec_equal_scales):
        us = np.array([1e-5, 0.01, 0.5, 2.0])
        vec = cm_kernel(spec_equal_scales, us)
        for u, v in zip(us, vec):
            assert v == pytest.approx(cm_kernel(spec_equal_scales, float(u)), rel=1e-13)

    def test_domain(self, spec_inverse_x):
        with pytest.raises(DomainError):
            cm_kernel(spec_inverse_x, 0.0)
        with pytest.raises(DomainError):
            cm_kernel(spec_inverse_x, -1.0)


class TestKernelT:
    def test_trivial_kernel_is_one(self, spec_inverse_x):
        for t in (0.01, 0.5, 0.95, 0.999999):
            assert cm_kernel_t(spec_inverse_x, t) == pytest.approx(1.0, rel=1e-12)

    def test_substitution_identity(self, spec_mixed_scale):
        assert cm_kernel_t(spec_mixed_scale, 0.5) == pytest.approx(
            cm_kernel(spec_mixed_scale, math.log(2.0)), rel=1e-10
        )

    def test_substitution_identity_grid(self, spec_mixed_scale, spec_equal_scales, spec_paired):
        ts = np.arange(0.01, 1.0, 0.01)
        for spec in (spec_mixed_scale, spec_equal_scales, spec_paired):
            q = cm_kernel_t(spec, ts)
            p = cm_kernel(spec, -np.log(ts))
            assert np.all(np.abs(q - p) <= 1e-10 * (1.0 + np.abs(p)))

    def test_small_t_power_law(self):
        # min(a/A)=0.2 < min(b/B)=0.5: kernel ~ t^0.2 as t -> 0, with the
        # next-order correction decaying like t^0.3.
        spec = RatioSpec(A=(2, 1), a=(0.4, 1.0), B=(1, 2), b=(0.5, 4.0))
        for t in (1e-8, 1e-10):
            assert cm_kernel_t(spec, t) == pytest.approx(t**0.2, rel=1e-2)

    def test_domain(self, spec_inverse_x):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                cm_kernel_t(spec_inverse_x, bad)

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_substitution_property(self, t):
        spec = RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6))
        q = cm_kernel_t(spec, t)
        p = cm_kernel(spec, -math.log(t))
        assert abs(q - p) <= 1e-10 * (1.0 + abs(p))


class TestKernelSeries:
    def test_leading_coefficient_is_mu(self, spec_equal_scales, spec_mixed_scale):
        for spec in (spec_equal_scales, spec_mixed_scale):
            coef, _ = cm_kernel_series(spec, 1)[0]
            assert coef == pytest.approx(derive(spec).mu, rel=1e-12)

    def test_matches_kernel_at_small_u(self, spec_equal_scales):
        coeffs = cm_kernel_series(spec_equal_scales, 4)
        u = 1e-3
        series = math.fsum(c * u**k for k, (c, _) in enumerate(coeffs))
        assert cm_kernel(spec_equal_scales, u) == pytest.approx(series, abs=1e-11)


class TestDerivativeConsistency:
    def test_second_log_derivative_equals_kernel_transform(self, spec_equal_scales):
        # (log W)''(x) = int_0^inf e^{-xu} u P(u) du
        spec = spec_equal_scales
        for x in (1.0, 2.0, 5.0):
            integral, _ = quad(
                lambda u: math.exp(-x * u) * u * cm_kernel(spec, u),
                0.0, 200.0 / x, epsabs=1e-13, epsrel=1e-10, limit=300,
            )
            exact = log_ratio_derivative(spec, x, 2)
            assert integral == pytest.approx(exact, rel=1e-7)

    def test_asymptotic_slope(self, spec_equal_scales, spec_paired):
        # -(log W)'(x) -> -log rho as x -> inf for equal-sum specs.
        for spec in (spec_equal_scales, spec_paired):
            inv = derive(spec)
            val = -log_ratio_derivative(spec, 1e4, 1)
            assert abs(val + inv.log_rho) <= 1e-3


class TestPowerSumDiff:
    def test_equal_vectors_zero(self):
        assert power_sum_diff((1, 2), (1, 2), 0.3) == 0.0

    def test_single_pair(self):
        assert power_sum_diff((0,), (1,), 0.25) == pytest.approx(0.75, rel=1e-14)

    def test_two_factor_product(self):
        # Built from exponent pairs (2,1) and (3,1): equals (t - t^2)(t - t^3).
        spec = build_unweighted([2.0, 3.0], [1.0, 1.0])
        for t in (0.1, 0.4, 0.8, 1.0):
            expect = (t - t**2) * (t - t**3)
            got = power_sum_diff(spec.a, spec.b, t)
            assert got == pytest.approx(expect, abs=1e-12)
        assert np.all(power_sum_diff(spec.a, spec.b, np.linspace(0.01, 1.0, 50)) >= 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            power_sum_diff((1,), (1, 2), 0.5)


_UNIT = RatioSpec(A=(1.0,), a=(0.5,), B=(1.0,), b=(1.5,))


@pytest.mark.parametrize(
    "call",
    [
        lambda v: kernel_positive_part(_UNIT, v),
        lambda v: kernel_positive_part(_UNIT, np.array([0.5, v])),
        lambda v: power_sum_diff([0.5], [1.5], v),
        lambda v: power_sum_diff([0.5], [1.5], np.array([0.5, v])),
        lambda v: power_sum_diff([v], [1.5], 0.5),
        lambda v: log_gamma(v),
        lambda v: log_gamma(complex(v, 1.0)),
        lambda v: digamma(v),
        lambda v: polygamma(2, v),
        lambda v: beta_product_moments([1.0], [2.0], [1.0], [v], n_samples=10_000),
        lambda v: beta_product_moments([v], [2.0], [1.0], [1.5], n_samples=10_000),
    ],
    ids=["kernel_positive_part", "kernel_positive_part-array", "power_sum_diff", "power_sum_diff-array",
         "power_sum_diff-shift", "log_gamma", "log_gamma-complex", "digamma", "polygamma",
         "beta_product_moments", "beta_product_moments-alpha"],
)
@pytest.mark.parametrize("v", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_argument_raises(call, v):
    # A NaN fails every comparison, so each domain check tests the positive
    # condition; an infinite argument is refused the same way.
    with pytest.raises(DomainError):
        call(v)
