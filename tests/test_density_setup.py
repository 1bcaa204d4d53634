"""The per-spec set-up of a density point on a spec seen for the first time.

An endpoint-series point builds one Stirling table (the m d_m and their
magnitudes from one set of Bernoulli powers); a far point (omega > 6, where
the residue series served before the hyperbola replaced it) builds one
hyperbola and sets up no endpoint series, also within half the series'
radius.  Specs whose line integrand or tail terms leave the double range
raise a package error that names the quantity, with no floating-point
warning on the way.
"""

import math

import numpy as np
import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import QuadratureAccuracyError, RatioSpec, UnsupportedParameterError, fox_h
from gammaratio.foxh import DensityEvaluator


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
    """The bins of the hyperbolas built, one entry per _Hyperbola."""
    calls = []
    helper = foxh_mod._Hyperbola.__init__

    def counting(self, ev, top):
        calls.append(top)
        return helper(self, ev, top)

    monkeypatch.setattr(foxh_mod._Hyperbola, "__init__", counting)
    return calls


SERIES_POINTS = [
    (RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6)), 0.3),
    (RatioSpec(A=(1.0,), a=(0.7,), B=(1.0,), b=(2.9,)), 0.02),
    (RatioSpec(A=(2.0, 1.0), a=(0.5, 1.2), B=(1.0, 2.0), b=(2.5, 1.3)), 0.5),
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
    assert ev._lines == {}
    assert table_calls == [21]
    assert got.value == got.leading_part + got.remainder_part


@pytest.mark.parametrize("spec, omega", RESIDUE_POINTS)
def test_residue_point_grows_its_table_once(spec, omega, table_calls, extend_calls):
    # The far point evaluates F on one hyperbola, and builds no line and no Stirling table.
    ev = DensityEvaluator(spec)
    got = ev.evaluate(ev.inv.rho * math.exp(-omega))
    assert ev._lines == {}
    assert len(extend_calls) == 1
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
    assert len(extend_calls) == 1
    assert ev._lines == {}
    assert got.remainder_part == got.value - got.leading_part


# Two specs of the full box (p, q <= 4, entries log-uniform in [1e-2, 1e3],
# equal sums) at omega in the far band: on the line Re s = c the first
# overflows the contour integrand g, the second the tail's Stirling terms
# A* e_k.  fox_h answers the second from the hyperbola.
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
    with pytest.raises(UnsupportedParameterError, match=quantity) as info:
        foxh_mod._remainder_on_line(ev, ev.c, np.array([omega]), [ev.lead_scale * omega ** (ev.inv.mu - 1.0)])
    assert "nan" not in str(info.value).lower()
    try:
        got = fox_h(spec, math.exp(ev.inv.log_rho - omega))
    except (UnsupportedParameterError, QuadratureAccuracyError):
        return
    assert math.isfinite(got.value) and got.error_estimate < math.inf


@pytest.mark.parametrize(
    "coef",
    [
        # The omitted term over tol times a kept one leaves the double range.
        [1e-300, 0.0] * 10 + [1.0],
        # tol times each kept term underflows to 0.
        [5e-324] * 20 + [1.0],
    ],
)
def test_tail_start_past_the_double_range_takes_the_cap(coef):
    assert foxh_mod._tail_start(np.array(coef)) == foxh_mod._TAIL_T_MAX
