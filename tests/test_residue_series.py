"""Far below the support endpoint, against the sum of the residues at the left poles.

Beyond omega = log(rho/x) = 6 every point of these specs is served by the
hyperbola and builds no line.  Every value must lie within its estimate of
an independent reference: the Meijer G-function for integer scales, and
otherwise the sum of the residues of W(s) x^-s at the left poles in mpmath at
40 digits (residue_sum_40, for simple poles), which tests/test_hyperbola.py
uses as an oracle too.
"""

import math
import random

import mpmath
import numpy as np
import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import QuadratureAccuracyError, RatioSpec, derive, mellin_check
from gammaratio.foxh import DensityEvaluator
from test_foxh import fresh_spec
from test_series_path import box_spec, meijer_density

FIXTURES = ("spec_mixed_scale", "spec_paired", "spec_equal_scales", "spec_inverse_x")
FAR = (6.5, 9.0, 14.0, 25.0, 40.0)


def residue_sum_40(spec, x, cap=3000):
    """sum_i sum_k Res_(s = -(a_i + k)/A_i) W(s) x^-s at 40 digits, each row summed until
    eight terms in a row lie below 1e-35 of its largest; simple poles only."""
    with mpmath.workdps(40):
        A, a, B, b = ([mpmath.mpf(v) for v in vs] for vs in (spec.A, spec.a, spec.B, spec.b))
        log_x = mpmath.log(mpmath.mpf(x))
        total = mpmath.mpf(0)
        for i in range(spec.p):
            largest, small = mpmath.mpf(0), 0
            for k in range(cap):
                s = -(a[i] + k) / A[i]
                c = (-1) ** k / (mpmath.factorial(k) * A[i])
                for l in range(spec.p):
                    if l != i:
                        c *= mpmath.gamma(A[l] * s + a[l])
                for j in range(spec.q):
                    c *= mpmath.rgamma(B[j] * s + b[j])
                term = c * mpmath.exp(-s * log_x)
                total += term
                largest = max(largest, abs(term))
                small = small + 1 if abs(term) <= mpmath.mpf(10) ** -35 * largest else 0
                if small == 8:
                    break
            else:
                raise AssertionError(f"row {i} of {spec} did not converge in {cap} terms")
        return total


def reference(spec, x):
    if all(v == int(v) for v in spec.A + spec.B):
        return meijer_density(spec, x)
    return residue_sum_40(spec, x)


def served(spec, omega):
    """The record at rho e^-omega, and whether it was served without a line."""
    ev = DensityEvaluator(spec)
    got = ev.evaluate(math.exp(ev.inv.log_rho - omega))
    return got, not ev._lines


def assert_within_estimate(spec, omega):
    got, residue = served(spec, omega)
    assert residue, (spec, omega)
    exact = reference(spec, math.exp(derive(spec).log_rho - omega))
    assert abs(got.value - exact) <= got.error_estimate, (spec, omega, got, exact)
    return float(abs(got.value - exact) / got.error_estimate)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_within_estimate(name, request):
    spec = request.getfixturevalue(name)
    for omega in FAR:
        assert_within_estimate(spec, omega)


def test_box_specs_within_estimate():
    # Seeded density-fuzz specs (non-integer scales in [0.05, 20], shifts 0 or
    # up to 60) at omega log-uniform in [6, 40]: every point served without a
    # line lies within its estimate of the 40-digit residue sum.  With every
    # shift 0 and p > 1 the poles at s = 0 coincide, outside that sum's reach;
    # tests/test_hyperbola.py checks such points.
    rng = random.Random(20150130)
    checked = 0
    for _ in range(80):
        spec = box_spec(rng)
        omega = math.exp(rng.uniform(math.log(6.5), math.log(40.0)))
        try:
            got, residue = served(spec, omega)
        except QuadratureAccuracyError:
            continue  # a contour point
        if not residue or (spec.p > 1 and not any(spec.a)):
            continue
        exact = residue_sum_40(spec, math.exp(derive(spec).log_rho - omega))
        assert abs(got.value - exact) <= got.error_estimate, (spec, omega, got, exact)
        checked += 1
    assert checked >= 30


def test_shift_band_points_within_estimate():
    # Unit and integer scales, mu in [0.6, 4], omega in [6, 16], as on the
    # density-scatter workload: all are served, against the Meijer G-function.
    rng = random.Random(20150131)
    ratios = [assert_within_estimate(fresh_spec(rng), rng.uniform(6.0, 16.0)) for _ in range(30)]
    assert max(ratios) < 0.5


def test_far_small_scale_spec_answers():
    # A scale of 1e-3 needs T = 7,496 on the contour, whose long head raises
    # at this omega; the poles are simple, and the series gives the value of
    # a 40-digit residue sum.
    spec = RatioSpec(A=(1e-3, 1.0), a=(0.5, 0.2), B=(1.001,), b=(2.0,))
    got, residue = served(spec, 40.0)
    assert residue
    assert abs(got.value - 6.376742079351005e-04) <= got.error_estimate < 1e-11


def test_batch_equals_single_points(spec_mixed_scale, spec_paired, spec_equal_scales):
    # Hyperbola and endpoint-series points mixed in one batch give
    # bitwise the records they give alone, whatever the order.
    for spec in (spec_mixed_scale, spec_paired, spec_equal_scales):
        rho = derive(spec).rho
        omegas = (40.0, 0.004, 6.5, 2.0, 14.0, 9.0, 25.0, -0.5, 7.0)
        xs = [rho * math.exp(-w) for w in omegas]
        batch = DensityEvaluator(spec)._records(np.array(xs))
        assert batch == [DensityEvaluator(spec).evaluate(x) for x in xs]
        reverse = DensityEvaluator(spec)._records(np.array(xs[::-1]))
        assert reverse[::-1] == batch


def test_residue_point_builds_no_line_and_no_stirling_table(spec_mixed_scale, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a contour or Stirling table was built")

    monkeypatch.setattr(foxh_mod, "_g", refuse)
    monkeypatch.setattr(foxh_mod, "_stirling_table", refuse)
    ev = DensityEvaluator(spec_mixed_scale)
    got = ev.evaluate(ev.inv.rho * math.exp(-9.0))
    assert ev._lines == {}
    assert got.remainder_part == got.value - got.leading_part


def test_mellin_check_at_zero_answers(spec_mixed_scale):
    # Beyond omega = 6 the hyperbola serves the bulk, so the line's noise at
    # tau_max no longer bounds the integral.
    lhs, rhs = mellin_check(spec_mixed_scale, 0.0)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
