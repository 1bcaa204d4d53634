import cmath
import gc
import math
import random
import weakref

import mpmath
import numpy as np
import pytest
from scipy.special import beta as spbeta, betainc, gamma as spgamma

import gammaratio.foxh as foxh_mod
from gammaratio import (
    ContourConfig,
    DomainError,
    QuadratureAccuracyError,
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
from gammaratio.foxh import DensityEvaluator, HEvaluation, gamma_product_ratio_at
from oracles import fresh_spec, invariants


def beta_density(alpha, beta, x):
    """Closed form of the representing density for the p=q=1 unit family."""
    return x**alpha * (1.0 - x) ** (beta - 1.0) / spgamma(beta)


def g_40_digits(spec, s):
    """W(s) rho^-s - A* s^-mu from mpmath gamma functions at 40 digits."""
    log_rho, mu, a_star = invariants(spec, 40)
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        w = mpmath.fprod(mpmath.gamma(A * s + a) for A, a in zip(spec.A, spec.a)) / mpmath.fprod(
            mpmath.gamma(B * s + b) for B, b in zip(spec.B, spec.b)
        )
        return complex(w * mpmath.exp(-s * log_rho) - a_star * s ** (-mu))


class TestContourConfig:
    def test_defaults_valid(self, spec_mixed_scale):
        assert ContourConfig().quad_rel_tol == 1e-8
        assert DensityEvaluator(spec_mixed_scale).cfg == ContourConfig()

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            ContourConfig(quad_rel_tol=1e-2)
        with pytest.raises(DomainError):
            ContourConfig(quad_rel_tol=1e-15)


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

    def test_density_calls_no_incomplete_gamma(self, spec_mixed_scale, monkeypatch):
        def refuse(*args):
            raise AssertionError("mpmath.gammainc called")

        monkeypatch.setattr(foxh_mod.mpmath, "gammainc", refuse)
        values = density(spec_mixed_scale, default_grid(spec_mixed_scale))
        assert all(math.isfinite(ev.value) for ev in values)

    def test_warns_for_tiny_mu(self):
        spec = RatioSpec(A=(1.0,), a=(0.2,), B=(1.0,), b=(0.3,))
        with pytest.warns(RuntimeWarning, match="small decay exponent"):
            fox_h(spec, 0.5)

    def test_past_support_within_estimate(self, monkeypatch):
        # The density is exactly 0 at x >= rho: every seeded fresh point
        # there, and rho itself, returns 0.0 in every field with error 0.0,
        # without building a contour.
        def refuse(*args):
            raise AssertionError("a contour built past the support")

        monkeypatch.setattr(foxh_mod._Hyperbola, "__init__", refuse)
        zero = HEvaluation(0.0, 0.0, 0.0, 0.0)
        rng = random.Random(20150122)
        for _ in range(200):
            spec = fresh_spec(rng)
            omega = -math.exp(rng.uniform(math.log(1e-4), math.log(25.0)))
            x = math.exp(derive(spec).log_rho - omega)
            assert fox_h(spec, x) == zero
            ev = DensityEvaluator(spec)
            assert ev.evaluate(x) == zero
            assert ev.values([x, ev.inv.rho]).tolist() == [0.0, 0.0]
            assert ev._hyperbolas == {}
        # On this spec log(rho) - log(rho) rounds to 1.1e-16, not 0.
        ev = DensityEvaluator(RatioSpec(A=(0.59, 0.63), a=(0.18, 0.5), B=(1.22,), b=(0.94,)))
        assert ev.evaluate(ev.inv.rho) == zero
        assert ev._hyperbolas == {}

    def test_near_endpoint_judged_in_density_units(self):
        # Near the support endpoint the remainder is small against the
        # leading part, and its error is judged against the density.  The
        # value is mpmath.meijerg at 30 digits, pinned because its series
        # take seconds this close to x = 1.
        spec = RatioSpec(A=(1.0, 1.0, 1.0), a=(1.449, 24.64, 2.824), B=(1.0, 1.0, 1.0), b=(10.31, 14.35, 5.751))
        ev = fox_h(spec, math.exp(-0.00223))
        assert abs(ev.value - 0.06547795947191738071817911) <= ev.error_estimate

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["values", "evaluate"])
    def test_rejects_non_positive_or_non_finite_x(self, spec_equal_scales, entry, x):
        # The x entry refuses x before mapping it to omega = log(rho/x).
        ev = DensityEvaluator(spec_equal_scales)
        with pytest.raises(DomainError, match="positive real"):
            getattr(ev, entry)([x] if entry == "values" else x)
        assert ev._hyperbolas == {}

    def test_leading_part_overflow_raises_package_error(self):
        # mu = 150: H = (1 - x)^149 / Gamma(150) <= 2.6e-261, but its leading
        # part alone, A* omega^149 / Gamma(150), overflows at omega = 200.
        spec = RatioSpec(A=(1,), a=(0,), B=(1,), b=(150,))
        with pytest.raises(UnsupportedParameterError, match="omega=200"):
            DensityEvaluator(spec)._at_omega(np.array([200.0]))
        with pytest.raises(UnsupportedParameterError, match="omega="):
            density(spec, [1e-300])

    @pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_paired"])
    def test_one_assembly_for_x_and_omega(self, name, request):
        # A point given as x and the same point given as omega' = log rho -
        # log x (the x entry's own map) go through one assembly: the same
        # density, bitwise, and the leading part is A*/Gamma(mu) omega'^(mu-1).
        spec = request.getfixturevalue(name)
        ev = DensityEvaluator(spec)
        rng = np.random.default_rng(20150127)
        for omega in rng.uniform(1e-3, 12.0, 200):
            x = ev.inv.rho * math.exp(-omega)
            w = ev.inv.log_rho - float(np.log(x))
            assert ev.values([x])[0] == ev._at_omega(np.array([w]))[0], (omega, x)
            assert ev.evaluate(x).leading_part == ev.lead_scale * w ** (ev.inv.mu - 1.0), (omega, x)

    def test_parts_sum_exactly(self, spec_equal_scales):
        ev = fox_h(spec_equal_scales, 0.4)
        assert ev.value == ev.leading_part + ev.remainder_part

    def test_quadrature_failure_raises_with_estimate(self, spec_equal_scales, monkeypatch):
        # Every rung refuses x = 0.01 (omega = 4.6, past half the endpoint
        # series' radius, so no series either), the second it asks with the
        # least error: the point raises with that rung's value.
        calls = []

        def refuse(hyperbola, omega, *args):
            calls.append(len(calls) + 1)
            return [(0.0, float(calls[-1]), 10.0 ** abs(calls[-1] - 2), False)] * len(omega)

        monkeypatch.setattr(foxh_mod._Hyperbola, "__call__", refuse)
        ev = DensityEvaluator(spec_equal_scales)
        assert math.log(ev.inv.rho / 0.01) > ev.half_radius
        with pytest.raises(QuadratureAccuracyError) as exc:
            ev.evaluate(0.01)
        assert len(calls) == sum(h is not None for h in ev._hyperbolas.values()) >= 3
        assert (exc.value.best_estimate, exc.value.error_estimate) == (2.0, 1.0)


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

    def test_shared_contours_match_fresh(self, spec_mixed_scale):
        # Points in the bins 4, 16 and 32, taken one at a time through one
        # evaluator, reuse its contours and give bitwise the records of a
        # fresh evaluator each; the held contours equal ones built afresh.
        ev = DensityEvaluator(spec_mixed_scale)
        xs = [ev.inv.rho * math.exp(-w) for w in (3.0, 12.0, 2.5, 20.0, 3.5, 9.0)]
        shared = [ev.evaluate(x) for x in xs]
        assert sorted(ev._hyperbolas) == [(4.0, 0), (16.0, 0), (32.0, 0)]
        fresh = DensityEvaluator(spec_mixed_scale)
        for (top, rung), held in ev._hyperbolas.items():
            built = fresh._contour(top, rung)
            assert np.array_equal(held.log_f, built.log_f) and np.array_equal(held.weights, built.weights)
        assert shared == [DensityEvaluator(spec_mixed_scale).evaluate(x) for x in xs]

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
        with pytest.warns(RuntimeWarning, match="small decay exponent") as record:
            density(spec, [0.3, 0.5])
        assert len([w for w in record if "small decay exponent" in str(w.message)]) == 1

    def test_curve_g_evaluations(self, spec_mixed_scale, monkeypatch):
        # Past the endpoint series' switch (2.02) the curve's points lie in
        # the bin (2, 4]: it evaluates log F once, on rung 0's 26 nodes and
        # the 13 of each strip edge, and a second pass evaluates nothing.
        shapes = []
        plane = foxh_mod.sc.log_gamma_plane

        def counted(z):
            shapes.append(z.shape)
            return plane(z)

        monkeypatch.setattr(foxh_mod.sc, "log_gamma_plane", counted)
        ev = DensityEvaluator(spec_mixed_scale)
        first = ev.values(default_grid(spec_mixed_scale))
        assert shapes == [(5, 52)]
        assert np.array_equal(ev.values(default_grid(spec_mixed_scale)), first)
        assert shapes == [(5, 52)]


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


class TestStirlingSeries:
    @pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_equal_scales"])
    def test_terms_match_high_precision_g(self, name, request):
        # The e_k of the endpoint series, as the Stirling series of g = W(s)
        # rho^-s - A* s^-mu = A* sum_(k>=1) e_k s^(-mu-k), at s = 1 + i t for
        # t = T, 2T and 8T against a 40-digit g, T the least t >= 5 where the
        # last term falls to 1e-15 of the largest one before it: the sum of the
        # first k terms is off by at most the first omitted term, plus the
        # rounding of the double-precision terms.
        spec = request.getfixturevalue(name)
        ev = DensityEvaluator(spec)
        md = foxh_mod._stirling_table(spec, 21)[0][1:].tolist()
        coef = ev.inv.stirling_const * np.array(foxh_mod._stirling_coefficients(md)[1:])
        K = len(coef) - 1
        T = max(5.0, min((abs(coef[-1]) / (1e-15 * abs(c))) ** (1.0 / (K - k)) for k, c in enumerate(coef[:-1])))
        for t in (T, 2.0 * T, 8.0 * T):
            s = complex(1.0, t)
            exact = g_40_digits(spec, s)
            terms = coef * s ** -(ev.inv.mu + np.arange(1, K + 2))
            for k in (1, 2, 4, 8, 12, 16, K):
                assert abs(terms[:k].sum() - exact) <= abs(terms[k]) + 1e-14 * abs(exact)


class TestContourColumns:
    def grid_and_far(self, ev):
        # The grid's points build the contour of the bin (2, 4]; omega = 8
        # and 25 those of the bins 8 and 32.
        for x in default_grid(ev.spec):
            ev.evaluate(x)
        ev.values([ev.inv.rho * math.exp(-8.0), ev.inv.rho * math.exp(-25.0)])
        assert sorted(ev._hyperbolas) == [(4.0, 0), (8.0, 0), (32.0, 0)]

    def test_columns_hold_scalar_g(self, spec_mixed_scale):
        # Each contour evaluates log F on all its nodes in one vectorized
        # pass; at every node F z' lies within 4 eps times the magnitudes of
        # its log-gammas and of z log rho of its value at 30 digits, on rung
        # 0 of spec_mixed_scale and on the saddle rung of a far-shifted spec.
        ev = DensityEvaluator(spec_mixed_scale)
        self.grid_and_far(ev)
        raising = DensityEvaluator(RatioSpec(A=(3.0,), a=(27.520246106590967,), B=(1.0, 2.0),
                                             b=(42.18908251140206, 23.06067347444499)))
        raising.evaluate(math.exp(raising.inv.log_rho - 0.2073070718125844))
        assert (0.25, 1) in raising._hyperbolas
        for each in (ev, raising):
            spec, log_rho = each.spec, each.inv.log_rho
            for (top, rung), contour in each._hyperbolas.items():
                nodes = foxh_mod._RUNGS[rung][0]
                log_dz = foxh_mod._hyperbola_shapes(nodes)[1] + math.log(4.4921 * nodes / top)
                for z, log_f, dz in list(zip(contour.z.tolist(), contour.log_f.tolist(), log_dz.tolist()))[::3]:
                    with mpmath.workdps(30):
                        z = mpmath.mpc(z)
                        logs = [mpmath.loggamma(A * z + a) for A, a in zip(spec.A, spec.a)]
                        logs += [-mpmath.loggamma(B * z + b) for B, b in zip(spec.B, spec.b)]
                        exact = complex(mpmath.exp(mpmath.fsum(logs) - z * log_rho))
                        size = float(mpmath.fsum(abs(v) for v in logs) + abs(z * log_rho))
                    got = cmath.exp(log_f - dz)
                    assert abs(got - exact) <= 4.0 * np.finfo(float).eps * (size + 10.0) * abs(exact), (top, rung)

    def test_evaluator_freed_without_cyclic_gc(self, spec_mixed_scale):
        gc.disable()
        try:
            ev = DensityEvaluator(spec_mixed_scale)
            ev.evaluate(0.5 * ev.inv.rho)
            self.grid_and_far(ev)
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

    def test_near_pole_real_or_package_error(self, spec_mixed_scale):
        # Near the pole tau reaches 900, where x = rho e^-tau would underflow,
        # and the near part's closed form must stay real for s <= 0.  Each s
        # gives a real lhs within 1e-6 of the gamma ratio, or a package error.
        # The pole at -2 puts e^(-s tau) past the double range at s = -1.9.
        one_factor = RatioSpec(A=(1.0,), a=(0.0,), B=(1.0,), b=(1.5,))
        far_pole = RatioSpec(A=(1.0,), a=(2.0,), B=(1.0,), b=(3.5,))
        cases = (
            [(spec_mixed_scale, s) for s in (-0.19, -0.15, -0.1)]
            + [(one_factor, s) for s in (0.01, 0.05)]
            + [(far_pole, -1.9)]
        )
        answered = 0
        for spec, s in cases:
            try:
                lhs, rhs = mellin_check(spec, s)
            except (DomainError, QuadratureAccuracyError):
                continue
            assert isinstance(lhs, float)
            assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
            answered += 1
        assert answered >= 1

    def test_rejects_s_left_of_pole(self, spec_mixed_scale):
        with pytest.raises(DomainError):
            mellin_check(spec_mixed_scale, -0.3)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_rejects_non_finite_s(self, spec_mixed_scale, s):
        with pytest.raises(DomainError, match="finite"):
            mellin_check(spec_mixed_scale, s)
        with pytest.raises(DomainError, match="finite"):
            DensityEvaluator(spec_mixed_scale).mellin_transform(s)

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_gamma_product_rejects_non_finite_s(self, spec_equal_scales, s):
        with pytest.raises(DomainError, match="finite"):
            gamma_product_ratio_at(spec_equal_scales, s)

    def test_gamma_product_helper(self, spec_equal_scales):
        spec = spec_equal_scales
        exact = math.prod(spgamma(Ai * 2.0 + ai) for Ai, ai in zip(spec.A, spec.a)) / math.prod(
            spgamma(Bj * 2.0 + bj) for Bj, bj in zip(spec.B, spec.b)
        )
        assert gamma_product_ratio_at(spec, 2.0) == pytest.approx(exact, rel=1e-12)
