import gc
import math
import weakref

import numpy as np
import pytest
from scipy.special import beta as spbeta, betainc, gamma as spgamma

import gammaratio.foxh as foxh_mod
from gammaratio import (
    ContourConfig,
    DomainError,
    RatioSpec,
    SingularPointError,
    UnsupportedParameterError,
    check_necessary,
    count_zeros,
    density,
    derive,
    fox_h,
    meijer_g,
    mellin_check,
)
from gammaratio.foxh import (
    DensityEvaluator,
    _MemoG,
    _osc_tail_moment,
    _tail_moments,
    gamma_product_ratio_at,
    subtracted_gamma_ratio,
)


def beta_density(alpha, beta, x):
    """Closed form of the representing density for the p=q=1 unit family."""
    return x**alpha * (1.0 - x) ** (beta - 1.0) / spgamma(beta)


class TestContourConfig:
    def test_defaults_valid(self):
        cfg = ContourConfig()
        assert cfg.truncation_T == 400.0
        assert cfg.quad_rel_tol == 1e-8

    def test_rejects_small_truncation(self):
        with pytest.raises(DomainError):
            ContourConfig(truncation_T=5.0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            ContourConfig(quad_rel_tol=1e-2)
        with pytest.raises(DomainError):
            ContourConfig(quad_rel_tol=1e-15)

    def test_abscissa_must_clear_pole(self, spec_mixed_scale):
        inv = derive(spec_mixed_scale)
        with pytest.raises(DomainError):
            ContourConfig(abscissa_c=-0.5).resolve_abscissa(inv)

    def test_default_abscissa(self, spec_mixed_scale):
        inv = derive(spec_mixed_scale)
        assert ContourConfig().resolve_abscissa(inv) == pytest.approx(1.0)


class TestFoxH:
    def test_constant_density(self, spec_inverse_x):
        # W(x) = 1/x has representing density identically 1 on (0, 1).
        ev = fox_h(spec_inverse_x, 0.3)
        assert ev.value == pytest.approx(1.0, abs=1e-10)
        assert ev.value == ev.leading_part + ev.remainder_part
        assert ev.error_estimate >= 0.0

    def test_beta_closed_form(self):
        for alpha, beta in ((0.0, 1.0), (1.0, 3.0), (3.0, 0.5), (0.5, 2.5)):
            spec = RatioSpec(A=(1.0,), a=(alpha,), B=(1.0,), b=(alpha + beta,))
            for x in (0.2, 0.5, 0.8):
                got = fox_h(spec, x).value
                assert got == pytest.approx(beta_density(alpha, beta, x), rel=1e-8)

    def test_support_vanishes(self, spec_mixed_scale, spec_equal_scales):
        for spec in (spec_mixed_scale, spec_equal_scales):
            rho = derive(spec).rho
            for mult in (1.1, 2.0, 10.0):
                assert abs(fox_h(spec, mult * rho).value) <= 1e-7

    def test_positive_on_support_for_lcm(self, spec_mixed_scale, spec_equal_scales):
        cfg = ContourConfig()
        for spec in (spec_mixed_scale, spec_equal_scales):
            rho = derive(spec).rho
            for frac in np.linspace(0.08, 0.92, 12):
                assert fox_h(spec, frac * rho, cfg).value >= -10.0 * cfg.quad_rel_tol

    def test_rejects_near_support_endpoint(self, spec_equal_scales):
        rho = derive(spec_equal_scales).rho
        with pytest.raises(SingularPointError):
            fox_h(spec_equal_scales, rho * (1.0 + 1e-9))

    def test_rejects_nonpositive_mu(self):
        spec = RatioSpec(A=(1,), a=(1,), B=(1,), b=(0,))
        with pytest.raises(UnsupportedParameterError):
            fox_h(spec, 0.5)

    def test_rejects_unequal_sums(self, spec_bernstein_only):
        with pytest.raises(DomainError):
            fox_h(spec_bernstein_only, 0.5)

    def test_warns_for_tiny_mu(self):
        spec = RatioSpec(A=(1.0,), a=(0.2,), B=(1.0,), b=(0.3,))
        with pytest.warns(RuntimeWarning, match="slow contour decay"):
            fox_h(spec, 0.5)

    def test_parts_sum_exactly(self, spec_equal_scales):
        ev = fox_h(spec_equal_scales, 0.4)
        assert ev.value == ev.leading_part + ev.remainder_part

    def test_quadrature_failure_raises_with_estimate(self, spec_equal_scales, monkeypatch):
        from gammaratio import QuadratureAccuracyError

        # Force every quadrature path to disagree across contours.
        monkeypatch.setattr(foxh_mod, "_fourier_re", lambda ev, c, omega: (c, 1e6, False))
        with pytest.raises(QuadratureAccuracyError) as exc:
            fox_h(spec_equal_scales, 0.4)
        assert exc.value.error_estimate > 0.0
        assert math.isfinite(exc.value.best_estimate)


def default_grid(spec):
    rho = derive(spec).rho
    return [rho * k / 50.0 for k in range(1, 50)]


class TestSumTie:
    """One relative tolerance, REL_TOL, decides sum(A) = sum(B) everywhere."""

    SPEC = RatioSpec(A=(2.0, 1.0), a=(0.5, 1.0), B=(3.0 * (1.0 + 5e-11),), b=(2.5,))

    def test_near_tie_is_unequal_everywhere(self):
        inv = derive(self.SPEC)
        assert 4e-11 < (inv.sum_B - inv.sum_A) / inv.sum_A < 6e-11
        assert check_necessary(self.SPEC)[0].status == "fails"
        with pytest.raises(DomainError, match="sum"):
            fox_h(self.SPEC, 0.5 * inv.rho)
        with pytest.raises(DomainError, match="sum"):
            density(self.SPEC, [0.25 * inv.rho, 0.5 * inv.rho])
        assert count_zeros(self.SPEC).h_evaluated is False


class TestDensityCurve:
    def test_curve_equals_pointwise(self, spec_mixed_scale, spec_equal_scales):
        for spec in (spec_mixed_scale, spec_equal_scales):
            xs = default_grid(spec)
            assert density(spec, xs) == [fox_h(spec, x) for x in xs]

    def test_memoized_g_matches_fresh_contour(self, spec_mixed_scale):
        ev = DensityEvaluator(spec_mixed_scale)
        for x in default_grid(spec_mixed_scale)[::6]:
            ev.evaluate(x)
        memo = ev.g.values
        assert len(memo) > 100
        inv = derive(spec_mixed_scale)
        for s in list(memo)[::37]:
            assert ev.g(s) == _MemoG(spec_mixed_scale, inv)(s)

    def test_same_errors_as_fox_h(self, spec_equal_scales):
        rho = derive(spec_equal_scales).rho
        for x in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                fox_h(spec_equal_scales, x)
            with pytest.raises(DomainError):
                density(spec_equal_scales, [0.5 * rho, x])
        for x in (rho * (1.0 + 1e-9), rho * (1.0 - 5e-7)):
            with pytest.raises(SingularPointError):
                fox_h(spec_equal_scales, x)
            with pytest.raises(SingularPointError):
                density(spec_equal_scales, [0.5 * rho, x])

    def test_warns_once_per_curve(self):
        spec = RatioSpec(A=(1.0,), a=(0.2,), B=(1.0,), b=(0.3,))
        with pytest.warns(RuntimeWarning, match="slow contour decay") as record:
            density(spec, [0.3, 0.5])
        assert len([w for w in record if "slow contour decay" in str(w.message)]) == 1

    def test_curve_g_evaluations(self, spec_mixed_scale, monkeypatch):
        # Each g evaluation makes one loggamma call; without the shared
        # contour this curve needs about 47,000.
        calls = []
        loggamma = foxh_mod.sc.loggamma

        def counted(z):
            calls.append(1)
            return loggamma(z)

        monkeypatch.setattr(foxh_mod.sc, "loggamma", counted)
        density(spec_mixed_scale, default_grid(spec_mixed_scale))
        assert 0 < len(calls) <= 3000


class TestEdgeIntegral:
    @pytest.mark.parametrize("alpha, beta", [(0.7, 2.2), (1.3, 1.8), (0.5, 4.0)])
    @pytest.mark.parametrize("w_hi", [0.05, 0.3, 1.0])
    def test_beta_closed_form(self, alpha, beta, w_hi):
        # H(x) = x^alpha (1-x)^(mu-1) / Gamma(mu) on (0, 1), mu = beta - alpha,
        # so int_0^w_hi H(e^-w) dw is an incomplete beta integral.
        ev = DensityEvaluator(RatioSpec(A=(1.0,), a=(alpha,), B=(1.0,), b=(beta,)))
        got = ev.edge_integral(lambda w: 1.0, w_hi)
        mu = beta - alpha
        exact = spbeta(alpha, mu) * (1.0 - betainc(alpha, mu, math.exp(-w_hi))) / spgamma(mu)
        assert got == pytest.approx(exact, rel=1e-9, abs=0.0)


class TestTailMoments:
    def test_rule_matches_direct_moments(self):
        rng = np.random.default_rng(20150121)
        cases = []
        for _ in range(150):
            omega = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, math.log10(30.0)))
            kind = rng.integers(3)
            if kind == 0:
                mu = float(rng.integers(1, 6))
            elif kind == 1:
                mu = float(rng.integers(0, 5)) + 0.5
            else:
                mu = float(rng.uniform(0.2, 5.0))
            cases.append((omega, mu))
        cases += [(omega, mu) for omega in (-1e-8, 1e-8) for mu in (0.2, 1.0, 2.5, 5.0)]
        for omega, mu in cases:
            T = float(rng.choice([10.0, 400.0, 1000.0]))
            z0 = complex(float(rng.choice([0.05, 0.3, 1.0, 2.5])), T)
            got = _tail_moments(omega, mu, z0)
            for k, moment in enumerate(got, start=1):
                direct = _osc_tail_moment(omega, mu + k, z0)
                assert abs(moment - direct) <= 1e-12 * abs(direct)

    def test_zero_frequency_closed_form(self):
        z0 = complex(0.3, 400.0)
        got = _tail_moments(0.0, 1.5, z0)
        assert got == [z0 ** (-0.5 - k) / (1j * (0.5 + k)) for k in (1, 2, 3)]

    def test_density_calls_no_incomplete_gamma(self, spec_mixed_scale, monkeypatch):
        def refuse(*args):
            raise AssertionError("mpmath.gammainc called")

        monkeypatch.setattr(foxh_mod.mpmath, "gammainc", refuse)
        values = density(spec_mixed_scale, default_grid(spec_mixed_scale))
        assert all(math.isfinite(ev.value) for ev in values)


class TestContourColumns:
    def grid_and_shifted(self, spec):
        # The last two points move the contour to the abscissas 0.3 and 0.1.
        rho = derive(spec).rho
        return default_grid(spec) + [rho * math.exp(-8.0), rho * math.exp(-25.0)]

    def test_columns_hold_memoized_g(self, spec_mixed_scale):
        ev = DensityEvaluator(spec_mixed_scale)
        for x in self.grid_and_shifted(spec_mixed_scale):
            ev.evaluate(x)
        memo = ev.g.values
        assert sorted(ev._lines) == [0.1, 0.3, 1.0]
        for c, line in ev._lines.items():
            assert line.re and line.im and line.re.twin is line.im
            for t, part in line.re.items():
                assert part.hex() == memo[complex(c, t)].real.hex()
            for t, part in line.im.items():
                assert part.hex() == memo[complex(c, t)].imag.hex()

    def test_evaluator_freed_without_cyclic_gc(self, spec_mixed_scale):
        gc.disable()
        try:
            ev = DensityEvaluator(spec_mixed_scale)
            ev.evaluate(0.5 * ev.inv.rho)
            for x in self.grid_and_shifted(spec_mixed_scale):
                ev.evaluate(x)
            assert ev._lines
            ref = weakref.ref(ev)
            del ev
            assert ref() is None
        finally:
            gc.enable()


class TestMeijerG:
    def test_constant_density(self):
        assert meijer_g((0.0,), (1.0,), 0.5).value == pytest.approx(1.0, abs=1e-10)

    def test_closed_form(self):
        # alpha=1, beta=2: density x(1-x)/Gamma(2) evaluated at 0.5.
        assert meijer_g((1.0,), (3.0,), 0.5).value == pytest.approx(0.25, rel=1e-9)

    def test_near_right_endpoint_finite(self):
        ev = meijer_g((0.5,), (2.0,), 0.999)
        assert math.isfinite(ev.value)

    def test_rejects_outside_support(self):
        with pytest.raises(DomainError):
            meijer_g((0.0,), (1.0,), 1.0)
        with pytest.raises(DomainError):
            meijer_g((0.0,), (1.0,), 1.5)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(UnsupportedParameterError):
            meijer_g((1.0,), (1.0,), 0.5)


class TestSubtractedIntegrand:
    def test_conjugate_symmetry(self, spec_equal_scales, spec_mixed_scale):
        for spec in (spec_equal_scales, spec_mixed_scale):
            c = max(derive(spec).gamma_pole, 0.0) + 1.0
            for t in (0.3, 2.0, 17.5, 130.0):
                up = subtracted_gamma_ratio(spec, complex(c, t))
                down = subtracted_gamma_ratio(spec, complex(c, -t))
                assert down == pytest.approx(up.conjugate(), rel=1e-10)

    def test_trivial_spec_integrand_vanishes(self, spec_inverse_x):
        # Gamma(s)/Gamma(s+1) = s^-1 exactly, so the subtraction is exact.
        for t in (0.5, 3.0, 40.0):
            assert abs(subtracted_gamma_ratio(spec_inverse_x, complex(1.0, t))) < 1e-15

    def test_decay_law(self, spec_equal_scales):
        # |g(c+it)| <= C t^-(mu+1): fit C on [50, 400], verify beyond.
        spec = spec_equal_scales
        inv = derive(spec)
        c = max(inv.gamma_pole, 0.0) + 1.0
        fit_ts = np.linspace(50.0, 400.0, 8)
        C = max(
            abs(subtracted_gamma_ratio(spec, complex(c, t))) * t ** (inv.mu + 1.0) for t in fit_ts
        )
        for t in (600.0, 1000.0, 2500.0):
            bound = 1.2 * C * t ** (-inv.mu - 1.0)
            assert abs(subtracted_gamma_ratio(spec, complex(c, t))) <= bound


class TestMellin:
    def test_trivial_identity(self, spec_inverse_x):
        lhs, rhs = mellin_check(spec_inverse_x, 2.0)
        assert rhs == pytest.approx(0.5, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_mixed_scale_s1(self, spec_mixed_scale):
        lhs, rhs = mellin_check(spec_mixed_scale, 1.0)
        exact = spgamma(2.4) * spgamma(5.4) * spgamma(1.9) / (spgamma(3.0) * spgamma(11.0))
        assert rhs == pytest.approx(exact, rel=1e-12)
        assert abs(lhs - rhs) / rhs <= 1e-6

    def test_equal_scales_s2(self, spec_equal_scales):
        lhs, rhs = mellin_check(spec_equal_scales, 2.0)
        assert abs(lhs - rhs) / rhs <= 1e-6

    def test_rejects_s_left_of_pole(self, spec_mixed_scale):
        with pytest.raises(DomainError):
            mellin_check(spec_mixed_scale, -0.3)

    def test_gamma_product_helper(self, spec_equal_scales):
        spec = spec_equal_scales
        exact = math.prod(spgamma(Ai * 2.0 + ai) for Ai, ai in zip(spec.A, spec.a)) / math.prod(
            spgamma(Bj * 2.0 + bj) for Bj, bj in zip(spec.B, spec.b)
        )
        assert gamma_product_ratio_at(spec, 2.0) == pytest.approx(exact, rel=1e-12)
