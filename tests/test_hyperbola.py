"""The hyperbola ladder: far and mid-band density points that the endpoint series does not serve.

Every point a rung serves must lie within its estimate of an independent
reference of tests/oracles.py: the Meijer G-function at 20 digits for
integer scales, the sum of the residues at the left poles at 40 digits
(simple poles), and the endpoint series at 40 digits within half its
radius; reference() takes them in that order.  The estimate is a bound
(strip, truncation and rounding); a point rung 0 refuses asks the later
rungs in turn, once each, and then the endpoint series on the rule of every
path.
"""

import itertools
import math
import random
import warnings

import numpy as np
import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import DomainError, QuadratureAccuracyError, RatioSpec, density, derive, fox_h, mellin_check
from gammaratio.foxh import ContourConfig, DensityEvaluator
from gammaratio.quadrature import GK_NODES
from oracles import (PACKAGE_ERRORS, EndpointSeries40, box_spec, coverage_points, full_box_spec, hyperbola_point,
                     meijer_density, reference, residue_sum_40)


@pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_paired", "spec_equal_scales"])
def test_fixtures_within_estimate_of_residue_sum(name, request):
    spec = request.getfixturevalue(name)
    for omega in (6.5, 9.0, 14.0, 25.0, 40.0, 60.0):
        got, served = hyperbola_point(spec, omega)
        exact = residue_sum_40(spec, math.exp(derive(spec).log_rho - omega))
        assert served, (name, omega)
        assert abs(got.value - exact) <= got.error_estimate, (name, omega, got, exact)
        assert abs(got.value - exact) <= 1e-11 * abs(exact)


def test_far_tail_keeps_its_digits(spec_paired):
    # The leading part P exceeds H by many orders here: the record is H
    # itself, not P + (H - P), so H keeps its digits at omega = 25 and 40.
    for omega in (25.0, 40.0):
        got, served = hyperbola_point(spec_paired, omega)
        exact = residue_sum_40(spec_paired, math.exp(derive(spec_paired).log_rho - omega))
        assert served
        assert got.leading_part > 1e3 * got.value > 0.0
        assert abs(got.value - exact) <= got.error_estimate <= 1e-9 * abs(exact)
        assert got.remainder_part == got.value - got.leading_part


def test_box_specs_within_estimate():
    # Seeded density-fuzz specs at omega log-uniform in [0.05, 40], zero-shift
    # specs (whose numerator poles coincide at s = 0) included: every point the
    # hyperbola serves lies within its estimate of the Meijer G-function for
    # integer scales, else the residue sum where the poles are simple and omega
    # >= 3, else the 40-digit endpoint series within half its radius.
    rng = random.Random(20150132)
    checked, zero_shift = 0, 0
    for _ in range(150):
        spec = box_spec(rng)
        omega = math.exp(rng.uniform(math.log(0.05), math.log(40.0)))
        try:
            got, served = hyperbola_point(spec, omega)
        except PACKAGE_ERRORS:
            continue
        if not served:
            continue
        exact = reference(spec, math.exp(derive(spec).log_rho - omega))
        if exact is None:
            continue
        assert abs(got.value - exact) <= got.error_estimate, (spec, omega, got, exact)
        checked += 1
        zero_shift += not any(spec.a + spec.b)
    assert checked >= 45 and zero_shift >= 10


def test_mid_band_within_estimate_of_endpoint_series():
    # Integer-scale specs at omega between the endpoint series' switch and half
    # its radius: the hyperbola serves them, within the 40-digit series.
    checked = 0
    for spec in (RatioSpec(A=(3.0,), a=(1.2,), B=(3.0,), b=(4.9,)),
                 RatioSpec(A=(2.0, 3.0), a=(0.3, 1.4), B=(5.0,), b=(4.6,)),
                 RatioSpec(A=(4.0, 2.0), a=(2.5, 0.7), B=(3.0, 3.0), b=(5.1, 2.2))):
        ev = DensityEvaluator(spec)
        series = EndpointSeries40(spec)
        for omega in np.linspace(ev.series.switch, ev.half_radius, 7)[1:-1].tolist():
            got, served = hyperbola_point(spec, omega)
            assert served, (spec, omega)
            exact = series(math.exp(ev.inv.log_rho - omega))
            assert abs(got.value - exact) <= got.error_estimate, (spec, omega, got, exact)
            checked += 1
    assert checked == 15


def test_coincident_poles_within_estimate():
    # Gamma(s + 0.3) and Gamma(s + 1.3) share the poles -1.3, -2.3, ...; the
    # contour wraps them like any other, against the Meijer G-function.
    spec = RatioSpec(A=(1.0, 1.0), a=(0.3, 1.3), B=(1.0, 1.0), b=(1.0, 2.5))
    for omega in (1.5, 3.0, 9.0, 20.0):
        got, served = hyperbola_point(spec, omega)
        assert served
        exact = meijer_density(spec, math.exp(derive(spec).log_rho - omega))
        assert abs(got.value - exact) <= got.error_estimate, (omega, got, exact)


def test_near_coincident_poles_within_estimate():
    # Poles 1e-5 apart: no residue gap to keep, and no line.
    spec = RatioSpec(A=(1.0, 1.0), a=(0.3, 1.30001), B=(1.0, 1.0), b=(1.0, 2.5))
    got, served = hyperbola_point(spec, 9.0)
    assert served
    exact = meijer_density(spec, math.exp(derive(spec).log_rho - 9.0))
    assert abs(got.value - exact) <= got.error_estimate


def test_many_factors_served():
    # 20 numerator and 20 denominator factors: one log-gamma call of 40 rows.
    spec = RatioSpec(A=(1.0,) * 20, a=[0.1 * i + 0.05 for i in range(20)], B=(1.0,) * 20,
                     b=[0.1 * i + 0.6 for i in range(20)])
    got, served = hyperbola_point(spec, 9.0)
    assert served
    assert math.isfinite(got.value) and 0.0 < got.error_estimate < 1e-8 * abs(got.value)


@pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_paired", "spec_equal_scales"])
def test_record_independent_of_batch(name, request):
    # A point alone, inside a 49-point curve and inside one round of an outer
    # quadrature (21 Kronrod nodes around it) gives bitwise the same record.
    spec = request.getfixturevalue(name)
    rho = derive(spec).rho
    xs = [rho * k / 50.0 for k in range(1, 50)] + [rho * math.exp(-w) for w in (7.0, 12.0, 30.0)]
    assert density(spec, xs) == [fox_h(spec, x) for x in xs]
    for omega in (0.9, 2.5, 7.0, 12.0, 30.0):
        nodes = omega + 0.4 * omega * GK_NODES
        alone = [DensityEvaluator(spec)._at_omega(np.array([w]))[0] for w in nodes.tolist()]
        assert DensityEvaluator(spec)._at_omega(nodes).tolist() == alone


@pytest.fixture
def paths(monkeypatch):
    """The order in which a point asks the rungs of the ladder and the endpoint series, with
    what each served."""
    events, rungs = [], {}
    init, hyperbola = foxh_mod._Hyperbola.__init__, foxh_mod._Hyperbola.__call__
    series = foxh_mod._EndpointSeries.__call__

    def build(self, ev, top, rung, sigma):
        rungs[id(self)] = rung
        init(self, ev, top, rung, sigma)

    def ask_hyperbola(self, omega, *args):
        out = hyperbola(self, omega, *args)
        events.append((f"rung {rungs[id(self)]}", [ok for *_, ok in out]))
        return out

    def ask_series(self, omega, *args):
        out = series(self, omega, *args)
        events.append(("series", [ok for *_, ok in out]))
        return out

    monkeypatch.setattr(foxh_mod._Hyperbola, "__init__", build)
    monkeypatch.setattr(foxh_mod._Hyperbola, "__call__", ask_hyperbola)
    monkeypatch.setattr(foxh_mod._EndpointSeries, "__call__", ask_series)
    return events


def fuzz_point(index):
    """Point `index` (spec, omega) of the fuzz set of scripts/coverage.py."""
    return next(itertools.islice(coverage_points("fuzz"), index, None))


def assert_ladder_point(spec, omega, paths, served_by):
    """The point's record lies within its estimate of reference() (the Meijer G-function for
    the integer scales here, else the 40-digit endpoint series), and served_by is the last
    path it asked, which served it."""
    ev = DensityEvaluator(spec)
    x = math.exp(ev.inv.log_rho - omega)
    got = ev.evaluate(x)
    assert paths[-1] == (served_by, [True]), paths
    assert all(not any(oks) for _, oks in paths[:-1]), paths
    exact = reference(spec, x)
    assert abs(got.value - exact) <= got.error_estimate <= 1e-8 * (abs(got.leading_part) + abs(got.remainder_part))
    return got


# Density-fuzz points the bound of rung 0 refuses: the first took the line
# Re s = c before the ladder replaced it, the second raised there.
REFUSED = RatioSpec(A=(0.09831332070509084, 12.27686262635491), a=(54.35392131462578, 10.893083484670264),
                    B=(3.05423705006129, 7.188885648144906, 2.132053248853806),
                    b=(45.34659287164609, 49.18663610022702, 50.9752696356537))
RAISING = RatioSpec(A=(3.0,), a=(27.520246106590967,), B=(1.0, 2.0), b=(42.18908251140206, 23.06067347444499))


def test_refused_point_climbs_the_ladder(paths):
    ev = DensityEvaluator(REFUSED)
    got = ev.evaluate(math.exp(ev.inv.log_rho - 1.062712870331816))
    assert paths[0] == ("rung 0", [False]) and len(paths) > 1 and paths[-1][1] == [True]
    assert math.isfinite(got.value) and got.remainder_part == got.value - got.leading_part


def test_growing_integrand_is_refused(paths):
    # F still grows at the last node of rung 0 here (shifts up to 50): the
    # omitted nodes are not small, and without the decay check the sum lay
    # 1.4 times its estimate off the 40-digit residue sum.  The bound refuses
    # the point, and a later rung takes it within its estimate of that sum.
    spec = RatioSpec(A=(1.0, 4.0, 3.0), a=(12.430531173085406, 50.60609519108384, 23.15753578413368),
                     B=(5.0, 2.0, 1.0), b=(7.6326577677911605, 52.017542011936854, 42.89712381507301))
    ev = DensityEvaluator(spec)
    x = math.exp(ev.inv.log_rho - 9.431323665864351)
    got = ev.evaluate(x)
    assert paths[0] == ("rung 0", [False]) and paths[-1][1] == [True]
    exact = residue_sum_40(spec, x)
    assert abs(got.value - exact) <= got.error_estimate


# One coverage point per later rung and one for the series fallback, each
# of which raised or took the line Re s = c before the ladder replaced it.


def test_rung_1_serves_fuzz_point_15(paths):
    # RAISING, where the line could not be trusted (mu = 37).
    spec, omega = fuzz_point(15)
    assert (spec, omega) == (RAISING, 0.2073070718125844)
    assert_ladder_point(spec, omega, paths, "rung 1")


def test_rung_2_serves_fuzz_point_145(paths):
    # Integer scales, shifts up to 58 (mu = 56); the line raised here.
    assert_ladder_point(*fuzz_point(145), paths, "rung 2")


def test_rung_3_serves_fuzz_point_189(paths):
    # Shifts up to 58 and mu = 71, served on the line before.
    assert_ladder_point(*fuzz_point(189), paths, "rung 3")


def test_series_serves_fuzz_point_79_first(paths):
    # Zero shifts, p = 3 and q = 2 (mu = 0.5) at omega = 0.0126, below the
    # series' switch (0.078), where no rung meets the tolerance: the series
    # serves it at the first ask, with no contour.
    spec, omega = fuzz_point(79)
    got = assert_ladder_point(spec, omega, paths, "series")
    assert paths == [("series", [True])]
    assert got.value == got.leading_part + got.remainder_part


def test_series_serves_last_above_its_switch(paths):
    # Zero shifts, scales 0.11 to 19.4 (draw 187 of box_spec under
    # random.Random(99)) at omega = 0.236, above the series' switch (0.158)
    # and below half its radius (0.356): no rung meets the tolerance, and the
    # series, asked after them (rung 1 would repeat rung 0 and is skipped), does.
    spec = RatioSpec(A=(0.11338314031018501, 19.26144871932242), a=(0.0, 0.0), B=(19.374831859632604,), b=(0.0,))
    got = assert_ladder_point(spec, 0.2355535278793799, paths, "series")
    assert [name for name, _ in paths] == ["rung 0", "rung 2", "rung 3", "series"]
    assert got.value == got.leading_part + got.remainder_part


def test_series_refusal_below_switch_asks_series_once(paths):
    # Fuzz point 253 (omega = 1.01e-3, below the series' switch 1.6e-3) under
    # quad_rel_tol = 1e-12: the series' estimate, 8.1e-4 on a density of
    # 2.2e7, misses that tolerance, and rung 0 serves the point.  The series
    # is asked first and never again.
    spec, omega = fuzz_point(253)
    ev = DensityEvaluator(spec, ContourConfig(quad_rel_tol=1e-12))
    x = math.exp(ev.inv.log_rho - omega)
    got = ev.evaluate(x)
    assert omega < ev.series.switch
    assert paths == [("series", [False]), ("rung 0", [True])]
    assert abs(got.value - EndpointSeries40(spec)(x)) <= got.error_estimate


def test_raise_reports_least_estimate_of_every_path(spec_mixed_scale, paths):
    # Below the switch (2.02) under quad_rel_tol = 1e-14 neither the series
    # nor any rung serves omega = 1; the series, asked once and first, has
    # the least estimate, and the error carries its record.
    ev = DensityEvaluator(spec_mixed_scale, ContourConfig(quad_rel_tol=1e-14))
    x = ev.inv.rho * math.exp(-1.0)
    with pytest.raises(QuadratureAccuracyError) as exc:
        ev.evaluate(x)
    assert paths[0] == ("series", [False]) and [name for name, _ in paths].count("series") == 1
    assert len(paths) > 1 and not any(ok for _, oks in paths for ok in oks)
    series = DensityEvaluator(spec_mixed_scale).evaluate(x)
    assert (exc.value.best_estimate, exc.value.error_estimate) == (series.value, series.error_estimate)


def test_full_box_answers_or_raises_package_errors():
    # fox_h, density and mellin_check(spec, 1) on 300 full-box specs: each
    # answers finitely or raises a package error, and nothing warns (warnings
    # are errors in this suite) but the documented small-mu warning.  Before,
    # edge_integral's w^(mu-1) underflowed with mu in the hundreds and let a
    # RuntimeWarning out of mellin_check on 4 of these specs.
    rng = random.Random(2026)
    answered = 0
    for _ in range(300):
        A, a, B, b = full_box_spec(rng)
        omega = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
        try:
            spec = RatioSpec(A=A, a=a, B=B, b=b)
            log_rho = derive(spec).log_rho
        except DomainError:
            continue
        if abs(log_rho) > 600.0:
            continue  # x = rho e^-omega leaves the double range
        xs = [math.exp(log_rho - w) for w in (omega / 3.0, omega, 3.0 * omega)]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="mu=")
            for call in (lambda: [fox_h(spec, xs[1])], lambda: density(spec, xs), lambda: mellin_check(spec, 1.0)):
                try:
                    out = call()
                except PACKAGE_ERRORS:
                    continue
                answered += 1
                values = [v for r in out for v in ((r.value, r.error_estimate) if hasattr(r, "value") else (r,))]
                assert all(math.isfinite(v) for v in values), (spec, omega, out)
    assert answered >= 120


@pytest.mark.parametrize("s", [-0.1, -0.05])
def test_mellin_check_left_of_zero_answers(spec_mixed_scale, s):
    # tau_max = 450 and 300: the bulk beyond omega = 6 reads H itself, whose
    # estimate falls with it; P + (H - P) left a noise of eps P(tau_max)
    # e^(-s tau_max), 6.4e12 at s = -0.1.
    lhs, rhs = mellin_check(spec_mixed_scale, s)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_spec_past_its_series_switch_answers():
    # The line raised at omega = 5e-4 here, and the endpoint series refused
    # it while it was judged against the line's least estimate; on the rule
    # of every path the series serves it within its estimate of the 40-digit
    # endpoint series, with no contour.
    spec = RatioSpec(A=(5.0,), a=(29.4,), B=(1.0, 4.0), b=(18.2, 15.6))
    series = EndpointSeries40(spec)
    for omega in (5e-4, 1e-3):
        ev = DensityEvaluator(spec)
        got = ev.evaluate(math.exp(ev.inv.log_rho - omega))
        exact = series(math.exp(derive(spec).log_rho - omega))
        assert ev._hyperbolas == {}
        assert abs(got.value - exact) <= got.error_estimate <= 1e-8 * abs(exact)
