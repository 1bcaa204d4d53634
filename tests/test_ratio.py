import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as spgamma

from gammaratio import (
    DomainError,
    RatioSpec,
    UnsupportedParameterError,
    beta_product_moments,
    classify,
    cm_kernel,
    cm_kernel_series,
    cm_kernel_t,
    derive,
    digamma,
    fox_h,
    gamma_ratio,
    kernel_positive_part,
    log_gamma,
    log_ratio_derivative,
    polygamma,
    power_sum_diff,
)
from gammaratio import ratio
from gammaratio.foxh import gamma_product_ratio_at
from gammaratio.monotonicity import build_unweighted
from gammaratio.ratio import _stirling_table
from oracles import box_spec

VERDICTS = {"LCM", "NOT_LCM", "BERNSTEIN_DERIVATIVE", "INCONCLUSIVE"}


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


def supported_box_spec(rng):
    """p, q <= 4, entries log-uniform in [1e-2, 1e3], half the specs with every shift 0."""
    p, q = rng.randint(1, 4), rng.randint(1, 4)
    zero = rng.random() < 0.5
    A, B = ([10.0 ** rng.uniform(-2.0, 3.0) for _ in range(n)] for n in (p, q))
    a, b = ([0.0 if zero else 10.0 ** rng.uniform(-2.0, 3.0) for _ in range(n)] for n in (p, q))
    return RatioSpec(A=A, a=a, B=B, b=b)


class TestDeriveOverBox:
    def test_derive_and_classify_total(self):
        # rho and A* overflow on about a third of the box: derive keeps their
        # logs and gives inf, and every decision reads the logs.  With warnings
        # as errors, derive and classify return a verdict or raise a package
        # error on every spec.
        rng = random.Random(11)
        overflowed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                spec = supported_box_spec(rng)
                try:
                    inv = derive(spec)
                    verdict = classify(spec)
                except DomainError:
                    continue
                overflowed += math.isinf(inv.rho) or math.isinf(inv.stirling_const)
                assert verdict.classification in VERDICTS
                assert inv.rho_at_most_one() == (inv.log_rho <= math.log1p(1e-12))
        assert overflowed >= 50

    def test_infinite_rho_refused_by_density(self):
        spec = RatioSpec(A=(1000.0,), a=(0.0,), B=(1.0,) * 1000, b=(1.0,) * 1000)
        inv = derive(spec)
        assert inv.rho == math.inf and inv.log_rho == pytest.approx(1000.0 * math.log(1000.0))
        assert classify(spec).classification == "NOT_LCM"
        with pytest.raises(UnsupportedParameterError):
            fox_h(spec, 0.5)


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


class TestStirlingTable:
    def test_rows_match_bernoulli_polynomials(
        self, spec_mixed_scale, spec_paired, spec_bernstein_only, spec_equal_scales, spec_inverse_x
    ):
        # m d_m = sum_i (-1)^(m+1) B_(m+1)(a_i) / ((m+1) A_i^m), minus the same
        # sum over (b_j, B_j), at 30 digits; the rounding bound of
        # the error weights of foxh._EndpointSeries must hold for every row, m = 0..21.
        rng = random.Random(20150130)
        fixtures = [spec_mixed_scale, spec_paired, spec_bernstein_only, spec_equal_scales, spec_inverse_x]
        for spec in fixtures + [box_spec(rng) for _ in range(200)]:
            md, magnitudes = _stirling_table(spec, 21)
            with mpmath.workdps(30):
                for m in range(22):
                    exact = (-1) ** (m + 1) * (
                        mpmath.fsum(mpmath.bernpoly(m + 1, a) / mpmath.mpf(A) ** m for A, a in zip(spec.A, spec.a))
                        - mpmath.fsum(mpmath.bernpoly(m + 1, b) / mpmath.mpf(B) ** m for B, b in zip(spec.B, spec.b))
                    ) / (m + 1)
                    bound = (m + spec.p + spec.q + 6) * np.finfo(float).eps * magnitudes[m]
                    assert abs(md[m] - exact) <= bound, (spec, m)
            assert md[0] == pytest.approx(derive(spec).mu, rel=1e-12, abs=1e-12)


    @pytest.mark.parametrize("n", [0, 5, 11, 21])
    def test_powers_cut_to_the_rows_read(self, n):
        # The table raises the shifts and scales only to the n + 2 exponents its rows
        # read; the rows are those of a build with all 23 powers, bit for bit.
        def full_power_table(spec, n):
            powers = np.empty((3, len(ratio._EXPONENTS[0]), spec.p + spec.q))
            np.power(np.array([[v - 0.5 for v in spec.a + spec.b], spec.A + spec.B])[:, None, :],
                     ratio._EXPONENTS, out=powers[::2])
            np.abs(powers[0], out=powers[1])
            rows = (ratio._BERNOULLI_PAIR[:, : n + 2, : n + 2] @ powers[:2, : n + 2])[:, 1:]
            rows *= powers[2, : n + 1]
            md_rows = rows[0] @ np.array([1.0] * spec.p + [-1.0] * spec.q)
            return md_rows / ratio._DIVISORS[: n + 1], rows[1].sum(axis=1) / ratio._DIVISORS[: n + 1]

        rng = random.Random(20261020 + n)
        specs = [box_spec(rng) for _ in range(100)]
        for k in range(1, 5):
            beta = [rng.uniform(0.0, 3.0) for _ in range(k)]
            specs.append(build_unweighted([v + rng.uniform(0.05, 3.0) for v in beta], beta))
        for spec in specs:
            got, expected = _stirling_table(spec, n), full_power_table(spec, n)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in expected], spec


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
