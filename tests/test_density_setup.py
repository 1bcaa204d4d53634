"""The per-spec set-up of a density point on a spec seen for the first time.

An endpoint-series point builds one Stirling table (the m d_m and their
magnitudes from one set of Bernoulli powers); a far point (omega > 6, where
the residue series served before the hyperbola replaced it) builds one
hyperbola and sets up no endpoint series, also within half the series'
radius.  Specs whose integrand or Stirling terms leave the double range
answer or raise a package error, with no floating-point warning on the way.
"""

import math

import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import QuadratureAccuracyError, RatioSpec, UnsupportedParameterError, fox_h
from gammaratio.foxh import DensityEvaluator
from test_series_path import EndpointSeries40


@pytest.fixture
def table_calls(monkeypatch):
    calls = []
    helper = foxh_mod._stirling_table

    def counting(spec, n):
        calls.append(n)
        return helper(spec, n)

    monkeypatch.setattr(foxh_mod, "_stirling_table", counting)
    return calls


@pytest.fixture
def extend_calls(monkeypatch):
    """The bin and rung of the hyperbolas built, one entry per _Hyperbola."""
    calls = []
    helper = foxh_mod._Hyperbola.__init__

    def counting(self, ev, top, rung, sigma):
        calls.append((top, rung))
        return helper(self, ev, top, rung, sigma)

    monkeypatch.setattr(foxh_mod._Hyperbola, "__init__", counting)
    return calls


# The last three, density-scatter seed 3 op 566 and seed 20 op 446 and a point of
# density-grid seed 1 op 5, lie below the switch where the density is large; every
# contour's estimate is larger than the series' there.
SERIES_POINTS = [
    (RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6)), 0.3),
    (RatioSpec(A=(1.0,), a=(0.7,), B=(1.0,), b=(2.9,)), 0.02),
    (RatioSpec(A=(2.0, 1.0), a=(0.5, 1.2), B=(1.0, 2.0), b=(2.5, 1.3)), 0.5),
    (RatioSpec(A=(2.0, 2.0, 2.0), a=(0.328006169609225, 2.7411080270832118, 2.286446076099979), B=(1.0, 1.0, 4.0),
               b=(3.6623439781430585, 1.4410297038444846, 1.0259811122614066)), 0.013239250499849975),
    (RatioSpec(A=(6.0,), a=(2.913647313404752,), B=(1.0, 5.0), b=(3.4297292238337937, 0.7296394174536205)),
     0.014505575673265714),
    (RatioSpec(A=(2.0, 2.0, 2.0), a=(1.8965801201638812, 2.5531011028842743, 0.2924844370354317), B=(5.0, 1.0),
               b=(1.9872212187753338, 4.906953386345346)), 0.47803580094300013),
]

RESIDUE_POINTS = [
    (RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6)), 9.0),
    (RatioSpec(A=(1.0,), a=(0.7,), B=(1.0,), b=(2.9,)), 6.5),
    (RatioSpec(A=(2.0, 1.0), a=(0.5, 1.2), B=(1.0, 2.0), b=(2.5, 1.3)), 15.0),
]


@pytest.mark.parametrize("spec, omega", SERIES_POINTS)
def test_series_point_builds_one_stirling_table(spec, omega, table_calls):
    ev = DensityEvaluator(spec)
    got = ev.evaluate(ev.inv.rho * math.exp(-omega))
    assert omega < ev.series.switch
    assert ev._hyperbolas == {}
    assert table_calls == [21]
    assert got.value == got.leading_part + got.remainder_part
    assert abs(got.value - EndpointSeries40(spec)(ev.inv.rho * math.exp(-omega))) <= got.error_estimate


@pytest.mark.parametrize("spec, omega", RESIDUE_POINTS)
def test_residue_point_grows_its_table_once(spec, omega, table_calls, extend_calls):
    # The far point evaluates F on rung 0 of one bin, and builds no Stirling table.
    ev = DensityEvaluator(spec)
    got = ev.evaluate(ev.inv.rho * math.exp(-omega))
    assert [rung for _, rung in extend_calls] == [0]
    assert table_calls == []
    assert got.remainder_part == got.value - got.leading_part


# Points beyond _SHIFT_OMEGA that also lie within half the endpoint series'
# radius (pi min(scales) > omega), above the series' switch; density-scatter
# draws such points.  They ask no endpoint series.
NEAR_AND_FAR_POINTS = [
    (RatioSpec(A=(3.0,), a=(1.9949436966042144,), B=(3.0,), b=(4.948348422197944,)), 6.447995847486446),
    (RatioSpec(A=(5.0,), a=(2.8561944036367817,), B=(5.0,), b=(4.647981215004401,)), 11.126448251329448),
    (RatioSpec(A=(3.0, 2.0), a=(0.3355731762103895, 1.4054740559230092), B=(5.0,), b=(4.564992949059811,)),
     6.036267331777168),
]


@pytest.mark.parametrize("spec, omega", NEAR_AND_FAR_POINTS)
def test_residue_point_within_series_radius_sets_up_no_series(spec, omega, table_calls, extend_calls):
    ev = DensityEvaluator(spec)
    got = ev.evaluate(ev.inv.rho * math.exp(-omega))
    assert foxh_mod._SHIFT_OMEGA < omega < ev.half_radius
    assert "series" not in ev.__dict__
    assert table_calls == []
    assert [rung for _, rung in extend_calls] == [0]
    assert got.remainder_part == got.value - got.leading_part


# Two specs of the full box (p, q <= 4, entries log-uniform in [1e-2, 1e3],
# equal sums) at omega in the far band: on the line Re s = c, before the
# hyperbola ladder replaced it, the first overflowed the contour integrand g
# and the second the Stirling terms A* e_k of its tail, the quantity each
# case names.  The ladder evaluates log F, so neither overflows: fox_h answers
# finitely or raises a package error.
OVERFLOWING = [
    (
        RatioSpec(
            A=(33.42182000143021, 0.4272947202731662, 0.024160531075520107, 392.0248271646997),
            a=(0.06936006738532342, 216.35583535453318, 1.1306556312307703, 149.83124992655928),
            B=(191.757781148808, 132.12904737191747, 102.01127389675314),
            b=(384.58326266740403, 1.359013568829516, 0.02322966083608382),
        ),
        296.37670127913225,
        "contour integrand g",
    ),
    (
        RatioSpec(
            A=(2.4877306493395412,),
            a=(308.11429684442646,),
            B=(0.9900486405476406, 0.3047312607750832, 0.4447491653151499, 0.7482015827016674),
            b=(7.078980505475299, 0.04859761421520806, 375.0917886424034, 0.14982088920292339),
        ),
        14.76872803487809,
        "Stirling terms",
    ),
]


@pytest.mark.parametrize("spec, omega, quantity", OVERFLOWING)
def test_overflow_raises_package_error_naming_the_quantity(spec, omega, quantity):
    # Warnings are errors in this suite, so a floating-point warning on the way fails.
    ev = DensityEvaluator(spec)
    try:
        got = fox_h(spec, math.exp(ev.inv.log_rho - omega))
    except (UnsupportedParameterError, QuadratureAccuracyError) as exc:
        assert "nan" not in str(exc).lower(), quantity
        return
    assert math.isfinite(got.value) and got.error_estimate < math.inf, quantity
