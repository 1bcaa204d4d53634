import cmath
import gc
import math
import os
import random
import subprocess
import sys
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


@pytest.fixture
def line_only(monkeypatch):
    """Every hyperbola refuses its points, so that each point past the endpoint series takes
    the line Re s = c."""
    def refuse(self, omega, *args):
        return [(0.0, math.inf, False)] * len(omega)

    monkeypatch.setattr(foxh_mod._Hyperbola, "__call__", refuse)


def beta_density(alpha, beta, x):
    """Closed form of the representing density for the p=q=1 unit family."""
    return x**alpha * (1.0 - x) ** (beta - 1.0) / spgamma(beta)


def subtracted_gamma_ratio(spec, s):
    """Gamma-product ratio times rho^-s minus its algebraic leading term at one point,
    through the engine's vectorized g."""
    return complex(foxh_mod._g(spec, derive(spec), np.array([complex(s)]))[0][0])


def g_40_digits(spec, s):
    """W(s) rho^-s - A* s^-mu from mpmath gamma functions at 40 digits."""
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        half = mpmath.mpf(1) / 2
        num = list(zip(spec.A, spec.a))
        den = list(zip(spec.B, spec.b))
        w = mpmath.fprod(mpmath.gamma(A * s + a) for A, a in num) / mpmath.fprod(
            mpmath.gamma(B * s + b) for B, b in den
        )
        log_rho = mpmath.fsum(A * mpmath.log(A) for A, _ in num) - mpmath.fsum(B * mpmath.log(B) for B, _ in den)
        mu = mpmath.fsum(spec.b) - mpmath.fsum(spec.a) + half * (spec.p - spec.q)
        log_stirling = (
            half * (spec.p - spec.q) * mpmath.log(2 * mpmath.pi)
            + mpmath.fsum((a - half) * mpmath.log(A) for A, a in num)
            + mpmath.fsum((half - b) * mpmath.log(B) for B, b in den)
        )
        return complex(w * mpmath.exp(-s * log_rho) - mpmath.exp(log_stirling) * s ** (-mu))


def tail_moments(omega, mu, z0):
    """Moments I_nu, nu = mu+1..mu+K+1, of the tail's log-u rule at omega > 0 (_Line.tail)."""
    u, powers = foxh_mod._ray_powers(z0, mu, *foxh_mod._tail_lattice(omega, z0))
    return (1j * foxh_mod._TAIL_STEP) * (powers @ (u * np.exp(-omega * u)))


def osc_tail_moment(omega, nu, z0):
    """int_0^inf (z0 + i t)^-nu e^{i omega t} dt for Re z0 > 0, nu > 1, omega > 0, at the
    working precision of mpmath.

    Rotating the integration ray makes it an upper incomplete gamma at a
    complex point off the principal cut.
    """
    m = nu - 1.0
    val = complex(mpmath.gammainc(-m, -omega * z0))
    return -1j * cmath.exp(-omega * z0) * (omega**m) * cmath.exp(-1j * math.pi * m) * val


def recurrence_moments(omega, mu, z0, n=21):
    """I_nu = int_0^inf (z0 + i t)^-nu e^{i omega t} dt, nu = mu+1..mu+n, at 40 digits.

    One incomplete gamma, as in osc_tail_moment, gives the end that is stable
    to start from, and parts integration, I_(nu+1) = (z0^-nu + i omega I_nu) /
    (i nu), gives the rest: run backward from nu = mu + n when |omega z0| >= 1,
    forward from mu + 1 otherwise.
    """
    with mpmath.workdps(40):
        w, z = mpmath.mpf(omega), mpmath.mpc(z0)

        def incomplete(nu):
            m = nu - 1
            return -1j * mpmath.exp(-w * z) * w**m * mpmath.exp(-1j * mpmath.pi * m) * mpmath.gammainc(-m, -w * z)

        nus = [mpmath.mpf(mu) + k for k in range(1, n + 1)]
        if abs(w * z) >= 1:
            moments = [incomplete(nus[-1])]
            for nu in reversed(nus[:-1]):
                moments.append((1j * nu * moments[-1] - z**-nu) / (1j * w))
            moments.reverse()
        else:
            moments = [incomplete(nus[0])]
            for nu in nus[:-1]:
                moments.append((z**-nu + 1j * w * moments[-1]) / (1j * nu))
        return [complex(v) for v in moments]


def fresh_spec(rng):
    """Seeded spec with unit or integer scales and mu in [0.6, 4]."""
    mu = rng.uniform(0.6, 4.0)
    if rng.random() < 0.5:
        A = B = (1.0,) * rng.randint(1, 3)
    else:
        total = rng.randint(2, 6)
        A = tuple(rng.choice([(total,), (1, total - 1), (total - 1, 1)]))
        B = (total,) if len(A) > 1 else (1, total - 1)
    a = [rng.uniform(0.0, 3.0) for _ in A]
    weights = [rng.uniform(0.2, 1.0) for _ in B]
    target = mu + math.fsum(a) - 0.5 * (len(A) - len(B))
    return RatioSpec(A=A, a=a, B=B, b=[target * w / math.fsum(weights) for w in weights])


class TestContourConfig:
    def test_defaults_valid(self, spec_mixed_scale):
        assert ContourConfig().quad_rel_tol == 1e-8
        ev = DensityEvaluator(spec_mixed_scale)
        assert ev.T >= foxh_mod._HEAD_T_MIN
        # Past the floor, T is where the first omitted Stirling term drops
        # to 1e-15 of the largest kept one.
        terms = np.abs(ev.coef) * ev.T ** -np.arange(len(ev.coef), dtype=float)
        assert ev.T == foxh_mod._HEAD_T_MIN or terms[-1] <= 1e-15 * (1.0 + 1e-12) * terms[:-1].max()

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            ContourConfig(quad_rel_tol=1e-2)
        with pytest.raises(DomainError):
            ContourConfig(quad_rel_tol=1e-15)

    def test_default_abscissa(self, spec_mixed_scale):
        assert DensityEvaluator(spec_mixed_scale).c == 1.0


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

    def test_past_support_within_estimate(self, monkeypatch):
        # The density is exactly 0 at x >= rho: every seeded fresh point
        # there, and rho itself, returns 0.0 in every field with error 0.0,
        # without evaluating g or building a contour line.
        def refuse(*args):
            raise AssertionError("g evaluated past the support")

        monkeypatch.setattr(foxh_mod, "_g", refuse)
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
            assert ev._lines == {}
        # On this spec log(rho) - log(rho) rounds to 1.1e-16, not 0.
        ev = DensityEvaluator(RatioSpec(A=(0.59, 0.63), a=(0.18, 0.5), B=(1.22,), b=(0.94,)))
        assert ev.evaluate(ev.inv.rho) == zero
        assert ev._lines == {}

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
        assert ev._lines == {}

    def test_leading_part_overflow_raises_package_error(self):
        # mu = 150: H = (1 - x)^149 / Gamma(150) <= 2.6e-261, but its leading
        # part alone, A* omega^149 / Gamma(150), overflows at omega = 200.
        spec = RatioSpec(A=(1,), a=(0,), B=(1,), b=(150,))
        with pytest.raises(UnsupportedParameterError, match="omega=200"):
            DensityEvaluator(spec)._at_omega(1.0, np.array([200.0]))
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
            assert ev.values([x])[0] == ev._at_omega(ev.c, np.array([w]))[0], (omega, x)
            assert ev.evaluate(x).leading_part == ev.lead_scale * w ** (ev.inv.mu - 1.0), (omega, x)

    def test_parts_sum_exactly(self, spec_equal_scales):
        ev = fox_h(spec_equal_scales, 0.4)
        assert ev.value == ev.leading_part + ev.remainder_part

    def test_quadrature_failure_raises_with_estimate(self, spec_equal_scales, monkeypatch, line_only):
        from gammaratio import QuadratureAccuracyError

        # Every head result has an error far past the tolerance, so the
        # point raises at once with its prefactored value as the best
        # estimate.  x = 0.1 (omega = 2.3) lies above the endpoint-series
        # switch, and the hyperbola refuses it, so it takes the line.
        calls = []

        def untrusted(line, omega):
            calls.append((line, omega))
            return [line.c] * len(omega), [1e6] * len(omega)

        monkeypatch.setattr(foxh_mod._Line, "head", untrusted)
        assert math.log(1.0 / 0.1) > DensityEvaluator(spec_equal_scales).series.switch
        with pytest.raises(QuadratureAccuracyError) as exc:
            fox_h(spec_equal_scales, 0.1)
        assert len(calls) == 1
        line, (omega,) = calls[0]
        (tail,), _ = line.tail(np.array([omega]))
        assert exc.value.best_estimate == math.exp(line.c * omega) / math.pi * (line.c + tail)
        assert exc.value.error_estimate > 0.0
        assert math.isfinite(exc.value.best_estimate)


def default_grid(spec):
    rho = derive(spec).rho
    return [rho * k / 50.0 for k in range(1, 50)]


def line_level(c, w):
    """c, or beyond omega = 6 the first of 1, 0.3, 0.1, 0.05 at most max(0.05, 6 / w): lines
    at the abscissas mellin_transform takes for s < 1."""
    if w <= 6.0:
        return c
    target = max(0.05, 6.0 / w)
    return min(c, next((lv for lv in (1.0, 0.3, 0.1, 0.05) if lv <= target), 0.05))


def contour_points(ev, omegas):
    """The line remainders and estimates at every omega, each on its line_level line, built
    here directly: the hyperbola serves such points in the density."""
    omegas = np.asarray(omegas, dtype=float)
    lead = (ev.lead_scale * omegas ** (ev.inv.mu - 1.0)).tolist()
    levels = [line_level(ev.c, w) for w in omegas.tolist()]
    out = []
    for level in sorted(set(levels), key=levels.index):
        idx = [k for k, lv in enumerate(levels) if lv == level]
        out += zip(*foxh_mod._remainder_on_line(ev, level, omegas[idx], [lead[k] for k in idx]))
    return out


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

    def test_shared_lines_match_fresh(self, spec_mixed_scale):
        # omega in (6, 20] lies on the c = 0.3 line: 20 after 12 halves its
        # head panels once, and 7 then 20 grow its tail lattice at both ends.
        # The held arrays equal ones computed afresh, and every value agrees
        # with a fresh evaluator within its error estimate.  The points are
        # taken on their contour lines one at a time.
        ev = DensityEvaluator(spec_mixed_scale)
        omegas = (3.0, 12.0, 2.5, 7.0, 5.0, 20.0, 4.0, 9.0)
        shared = [contour_points(ev, [omega])[0] for omega in omegas]
        assert list(ev._lines) == [1.0, 0.3]
        line = ev._lines[0.3]
        assert line.panel == pytest.approx(math.pi / 12.0, rel=1e-12)
        assert np.array_equal(line.g, foxh_mod._g(ev.spec, ev.inv, 0.3 + 1j * line.t)[0])
        k0, u, rows = line.rows
        u_fresh, powers = foxh_mod._ray_powers(complex(0.3, ev.T), ev.inv.mu, k0, k0 + len(u))
        assert np.array_equal(u, u_fresh)
        kept = np.append(ev.coef[:-1], 0.0)
        fresh = np.array([kept, ev.coef - kept]) @ powers
        assert np.all(np.abs(rows - fresh) <= 1e-14 * np.abs(fresh))
        for omega, (got, got_err) in zip(omegas, shared):
            alone, alone_err = contour_points(DensityEvaluator(spec_mixed_scale), [omega])[0]
            assert abs(got - alone) <= got_err + alone_err

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

    def test_curve_g_evaluations(self, spec_mixed_scale, monkeypatch, line_only):
        # Past the endpoint series the curve evaluates g once, on the head
        # nodes of its one line: 8 panels of 21 nodes.
        sizes = []
        g = foxh_mod._g

        def counted(spec, inv, s):
            sizes.append(len(s))
            return g(spec, inv, s)

        monkeypatch.setattr(foxh_mod, "_g", counted)
        density(spec_mixed_scale, default_grid(spec_mixed_scale))
        assert sizes == [8 * 21]

    def test_curve_extends_tail_lattice_rarely(self, spec_mixed_scale, monkeypatch, line_only):
        # Each short end of a held lattice grows by at least its length, so
        # a curve builds its tail rows a few times, and every held row equals
        # one fresh contraction of its whole range.
        calls = []
        ray_powers = foxh_mod._ray_powers

        def counted(*args):
            calls.append(args)
            return ray_powers(*args)

        monkeypatch.setattr(foxh_mod, "_ray_powers", counted)
        ev = DensityEvaluator(spec_mixed_scale)
        for x in default_grid(spec_mixed_scale):
            ev.evaluate(x)
        assert len(calls) <= 8
        line = ev._lines[1.0]
        k0, u, rows = line.rows
        _, powers = ray_powers(complex(1.0, ev.T), ev.inv.mu, k0, k0 + len(u))
        # The rows held, built block by block, equal one build over all their nodes.
        assert np.array_equal(rows, line._tail_terms(powers))

    def test_fresh_point_places_head_once(self, monkeypatch):
        # One panel rule sizes a fresh line and decides on halving it, so a
        # fresh point evaluates g once, also where 2 pi / |omega| rounds.
        sizes = []
        g = foxh_mod._g

        def counted(spec, inv, s):
            sizes.append(len(s))
            return g(spec, inv, s)

        monkeypatch.setattr(foxh_mod, "_g", counted)
        rng = random.Random(20150128)
        for _ in range(50):
            spec = fresh_spec(rng)
            omega = rng.uniform(2.0 * math.pi, 16.0)
            sizes.clear()
            contour_points(DensityEvaluator(spec), [omega])
            assert len(sizes) == 1, (spec, omega, sizes)

    def test_batch_sizes_line_once(self, spec_mixed_scale, monkeypatch):
        # A batch sizes each line for its largest |omega| before any point is
        # summed; a later batch within that reach reuses the line.
        sizes = []
        g = foxh_mod._g

        def counted(spec, inv, s):
            sizes.append(len(s))
            return g(spec, inv, s)

        monkeypatch.setattr(foxh_mod, "_g", counted)
        ev = DensityEvaluator(spec_mixed_scale)
        contour_points(ev, [7.0, 12.0, 9.0])
        contour_points(ev, [10.0, 8.0])
        assert len(sizes) == 1
        assert list(ev._lines) == [0.3]
        assert ev._lines[0.3].panel == pytest.approx(2.0 * math.pi / 12.0, rel=1e-12)

    def test_one_point_builds_tail_rows_once(self, spec_mixed_scale, monkeypatch, line_only):
        # A fresh line builds only the range its first point needs; x =
        # rho / 20 (omega = 3.0) lies above the endpoint-series switch.
        calls = []
        ray_powers = foxh_mod._ray_powers

        def counted(*args):
            calls.append(args[2:])
            return ray_powers(*args)

        monkeypatch.setattr(foxh_mod, "_ray_powers", counted)
        fox_h(spec_mixed_scale, derive(spec_mixed_scale).rho / 20.0)
        assert len(calls) == 1 and calls[0][0] < calls[0][1]


class TestFactoredHead:
    @staticmethod
    def sum_30_digits(line, omega):
        """Re sum_j w_j g_j e^{i omega t_j} over the stored nodes and Kronrod weights, at 30 digits."""
        with mpmath.workdps(30):
            omega = mpmath.mpf(omega)
            total = mpmath.mpf(0)
            for t, wg in zip(line.t.tolist(), line.wg[0].tolist()):
                cos, sin = mpmath.cos_sin(omega * t)
                total += wg.real * cos - wg.imag * sin
            return total

    @pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_equal_scales"])
    def test_head_within_phase_rounding(self, name, request):
        # The equal panels share one half-width h, every node there is
        # exactly mid_k + h x_j, and the factored head is off the exact sum
        # of its own terms by at most eps (sum |w g| + |omega| sum |t w g|).
        ev = DensityEvaluator(request.getfixturevalue(name))
        eps = np.finfo(float).eps
        for c, omega in ((1.0, 2.5), (0.3, 4.0), (0.1, 23.3)):
            line = foxh_mod._Line(ev, c, omega)
            (value,), (err,) = line.head(np.array([omega]))
            equal = line.t[line.graded :].reshape(-1, 21)
            assert np.array_equal(equal, line.mid[:, None] + line.h * foxh_mod._GK_NODES)
            wg = np.abs(line.wg[0])
            rounding = eps * (wg.sum() + abs(omega) * (line.t @ wg))
            assert abs(value - self.sum_30_digits(line, omega)) <= rounding
            assert err >= rounding


LINE_RECORDS = """
import random, sys
import numpy as np
from gammaratio import QuadratureAccuracyError, foxh
from test_series_path import box_spec
rng = random.Random(7)
specs = [box_spec(rng) for _ in range(23)]
for spec in (specs[0], specs[22]):
    for omega in (0.5, 2.0, 8.0, 31.32):
        ev = foxh.DensityEvaluator(spec)
        lead = [ev.lead_scale * omega ** (ev.inv.mu - 1.0)]
        try:
            print(foxh._remainder_on_line(ev, ev.c, np.array([omega]), lead))
        except QuadratureAccuracyError as exc:
            print(exc.best_estimate, exc.error_estimate)
"""


class TestLineSums:
    def test_records_do_not_depend_on_blas_threads(self):
        # Two box specs (seed 7) whose line records moved with the BLAS thread
        # count at omega = 31.32 while the line summed with matrix products.
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(foxh_mod.__file__)))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            done = subprocess.run([sys.executable, "-c", LINE_RECORDS], capture_output=True, text=True, env=env,
                                  timeout=300, check=True)
            out.append(done.stdout)
        assert len(out[0].splitlines()) == 8
        assert out[0] == out[1]

    def test_point_sums_do_not_depend_on_batch(self, spec_mixed_scale):
        # One line serves a batch and then each of its points alone: head and
        # tail give bitwise the same sums.
        ev = DensityEvaluator(spec_mixed_scale)
        omegas = np.array([0.3, 1.7, 4.0, 9.5, 23.0])
        line = foxh_mod._Line(ev, 0.3, float(omegas.max()))
        batch = line.head(omegas), line.tail(omegas)
        for k, omega in enumerate(omegas.tolist()):
            (head, head_err), (tail, tail_err) = line.head(np.array([omega])), line.tail(np.array([omega]))
            assert (head, head_err, tail, tail_err) == ([batch[0][0][k]], [batch[0][1][k]],
                                                        [batch[1][0][k]], [batch[1][1][k]])


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
            omega = float(10.0 ** rng.uniform(-8.0, math.log10(30.0)))
            kind = rng.integers(3)
            if kind == 0:
                mu = float(rng.integers(1, 6))
            elif kind == 1:
                mu = float(rng.integers(0, 5)) + 0.5
            else:
                mu = float(rng.uniform(0.2, 5.0))
            cases.append((omega, mu))
        cases += [(1e-8, mu) for mu in (0.2, 1.0, 2.5, 5.0)]
        for omega, mu in cases:
            T = float(rng.choice([10.0, 400.0, 1000.0]))
            z0 = complex(float(rng.choice([0.05, 0.3, 1.0, 2.5])), T)
            got = tail_moments(omega, mu, z0)
            reference = recurrence_moments(omega, mu, z0)
            assert len(got) == len(reference) == 21
            for moment, exact in zip(got, reference):
                assert abs(moment - exact) <= 1e-12 * abs(exact)

    def test_rule_at_head_floor(self):
        # The shortest tail start on every abscissa the evaluator uses, against
        # incomplete gammas at 20 digits.
        rng = random.Random(20150126)
        for c in (1.0, 0.3, 0.05):
            z0 = complex(c, foxh_mod._HEAD_T_MIN)
            for mu in (0.3, 1.0, 2.5, 4.8):
                omega = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
                got = tail_moments(omega, mu, z0)
                with mpmath.workdps(20):
                    for k, moment in enumerate(got, start=1):
                        direct = osc_tail_moment(omega, mu + k, z0)
                        assert abs(moment - direct) <= 1e-13 * abs(direct), (c, mu, omega, k)

    def test_line_tail_contracts_moments(self, spec_equal_scales):
        # The held rows give the Stirling terms summed against the moments,
        # and the first omitted term, whatever order the frequencies come in.
        ev = DensityEvaluator(spec_equal_scales)
        z0 = complex(ev.c, ev.T)
        line = foxh_mod._Line(ev, ev.c, 3.0)
        for omega in (3.0, 0.2, 11.0, 1e-4, 0.7, 15.0):
            (value,), (omitted,) = line.tail(np.array([omega]))
            moments = tail_moments(omega, ev.inv.mu, z0)
            kept = complex(np.exp(1j * omega * ev.T) * (ev.coef[:-1] @ moments[:-1]))
            assert abs(value - kept.real) <= 1e-13 * abs(kept)
            assert omitted == pytest.approx(abs(ev.coef[-1] * moments[-1]), rel=1e-13)

    def test_density_calls_no_incomplete_gamma(self, spec_mixed_scale, monkeypatch):
        def refuse(*args):
            raise AssertionError("mpmath.gammainc called")

        monkeypatch.setattr(foxh_mod.mpmath, "gammainc", refuse)
        values = density(spec_mixed_scale, default_grid(spec_mixed_scale))
        assert all(math.isfinite(ev.value) for ev in values)


class TestStirlingSeries:
    @pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_equal_scales"])
    def test_terms_match_high_precision_g(self, name, request):
        # g at t = T, 2T and 8T against a 40-digit g: the sum of the first k
        # exact terms is off by at most the first omitted term, plus the
        # rounding of the double-precision terms.
        spec = request.getfixturevalue(name)
        ev = DensityEvaluator(spec)
        K = len(ev.coef) - 1
        for t in (ev.T, 2.0 * ev.T, 8.0 * ev.T):
            s = complex(ev.c, t)
            exact = g_40_digits(spec, s)
            terms = ev.coef * s ** -(ev.inv.mu + np.arange(1, K + 2))
            for k in (1, 2, 4, 8, 12, 16, K):
                assert abs(terms[:k].sum() - exact) <= abs(terms[k]) + 1e-14 * abs(exact)


class TestContourColumns:
    def grid_and_shifted(self, ev):
        # The grid's points build hyperbolas; omega = 3, 8 and 25 build the
        # lines at the abscissas 1, 0.3 and 0.1 directly.
        for x in default_grid(ev.spec):
            ev.evaluate(x)
        assert ev._hyperbolas
        contour_points(ev, [3.0])
        contour_points(ev, [8.0])
        contour_points(ev, [25.0])

    def test_columns_hold_scalar_g(self, spec_mixed_scale):
        # Each line evaluates g on all its head nodes in one vectorized
        # pass; every value is the one-point subtracted_gamma_ratio there.
        ev = DensityEvaluator(spec_mixed_scale)
        self.grid_and_shifted(ev)
        assert sorted(ev._lines) == [0.1, 0.3, 1.0]
        for c, line in ev._lines.items():
            scalar = np.array([subtracted_gamma_ratio(spec_mixed_scale, complex(c, t)) for t in line.t])
            assert np.all(np.abs(line.g - scalar) <= 1e-15 * np.abs(scalar))

    def test_evaluator_freed_without_cyclic_gc(self, spec_mixed_scale):
        gc.disable()
        try:
            ev = DensityEvaluator(spec_mixed_scale)
            ev.evaluate(0.5 * ev.inv.rho)
            self.grid_and_shifted(ev)
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
