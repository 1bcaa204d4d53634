"""Tests of the benchmark's own parts: seeded generator, oracle, tracer.

Run from the repository root:  python -m pytest -q bench
"""

import math

import pytest

import gammaratio as gr
from gammaratio import foxh, monotonicity

import oracle
import run
import tracer
import workloads

N_CYCLES = {"classify-survey": 5, "density-grid": 3, "density-scatter": 5, "identity-checks": 2}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    n = N_CYCLES[workload]
    first = workloads.first_ops(workload, 7, n)
    assert first == workloads.first_ops(workload, 7, n)
    assert first != workloads.first_ops(workload, 8, n)


@pytest.mark.parametrize("workload", ["density-grid", "density-scatter"])
def test_density_specs_in_domain(workload):
    for op in workloads.first_ops(workload, 3, N_CYCLES[workload]):
        inv = gr.derive(op.spec)
        assert inv.sums_equal()
        assert inv.mu > 0.0
        assert all(v == int(v) for v in op.spec.A + op.spec.B)
        if op.x is not None:
            lo, hi = workloads.OMEGA_BANDS[op.stratum.split("/")[0]]
            assert lo <= math.log(inv.rho / op.x) <= hi


def test_scatter_specs_are_fresh():
    ops = workloads.first_ops("density-scatter", 3, 10)
    assert len({op.spec for op in ops}) == len(ops)


def test_identity_specs_in_domain():
    ops = workloads.first_ops("identity-checks", 3, N_CYCLES["identity-checks"])
    for op in ops:
        inv = gr.derive(op.spec)
        assert inv.rho <= 1.0
        assert inv.mu > 0.0
        if op.kind == "identities":
            assert 0.0 < op.x < inv.rho
        if op.stratum == "unit":
            assert 3.0 <= inv.mu <= 4.0
    assert min(gr.derive(op.spec).mu for op in ops) < 1.0
    assert any(op.stratum == "unit" for op in ops)


def test_fixture_specs_present():
    def names(workload, n):
        return {op.stratum for op in workloads.first_ops(workload, 0, n)}

    assert set(workloads.FIXTURES) <= names("classify-survey", 5)
    assert "spec_mixed_scale" in names("density-grid", 1)
    assert {"spec_mixed_scale", "spec_paired", "spec_equal_scales", "spec_inverse_x"} <= names(
        "identity-checks", 1
    )
    assert workloads.fixture("spec_paired") == gr.RatioSpec(
        A=(2, 3, 1.4), a=(0.8, 8, 2.3), B=(1, 2.4, 3), b=(1.5, 7.8, 11)
    )


def test_classify_mix():
    ops = workloads.first_ops("classify-survey", 0, 4)
    strata = [op.stratum for op in ops]
    assert strata.count("unweighted") == len(ops) // 3
    assert 0 < strata.count("large") < len(ops) // 4
    assert max(max(op.spec.A + op.spec.B) for op in ops if op.stratum == "large") > 100.0


def test_oracle_inverse_x_is_one():
    assert oracle.density((1,), (0,), (1,), (1,), [0.1, 0.5, 0.9]) == pytest.approx([1.0] * 3, rel=1e-15)


def test_oracle_beta_density():
    # Gamma(s + a) / Gamma(s + b) is the Mellin transform of a beta density.
    a, b = 0.7, 2.9
    xs = [0.05, 0.4, 0.85]
    exact = [x**a * (1 - x) ** (b - a - 1) / math.gamma(b - a) for x in xs]
    assert oracle.density((1,), (a,), (1,), (b,), xs) == pytest.approx(exact, rel=1e-13)


def test_oracle_gauss_reduction():
    # Gamma(2s + a) / Gamma(2s + b): the beta density pushed through x = y^2.
    a, b = 0.6, 2.3
    xs = [0.03, 0.3, 0.8]
    exact = [x ** (a / 2) * (1 - math.sqrt(x)) ** (b - a - 1) / (2 * math.gamma(b - a)) for x in xs]
    assert oracle.density((2,), (a,), (2,), (b,), xs) == pytest.approx(exact, rel=1e-13)


def test_oracle_matches_fox_h_on_mixed_scale():
    spec = workloads.fixture("spec_mixed_scale")
    rho = gr.derive(spec).rho
    xs = [rho * k / 6 for k in range(1, 6)]
    for x, exact in zip(xs, oracle.density(spec.A, spec.a, spec.B, spec.b, xs)):
        ev = gr.fox_h(spec, x)
        assert abs(ev.value - exact) <= ev.error_estimate


def test_necessary_conditions_agree_with_classifier():
    for op in workloads.first_ops("classify-survey", 2, 2):
        s = op.spec
        if max(s.A + s.B) > 50.0:
            continue
        nec = monotonicity.check_necessary(s)
        assert oracle.necessary_hold(s.A, s.a, s.B, s.b) == all(ev.status == "holds" for ev in nec)


def test_tracer_spans_and_restore():
    original = (monotonicity.classify, foxh.fox_h, foxh.quad, foxh.sc)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert gr.classify is not original[0]
        gr.classify(workloads.fixture("spec_bernstein_only"))
        assert "foxh" not in tr.spans_by_layer()
        gr.fox_h(workloads.fixture("spec_mixed_scale"), 0.01)
    finally:
        tr.close()
    assert (monotonicity.classify, foxh.fox_h, foxh.quad, foxh.sc) == original
    assert gr.classify is original[0]
    m = tr.layer_metrics()
    assert m["foxh.fox_h.calls"][0] == 1
    assert m["foxh.points"][0] == 1
    assert m["foxh.g.calls"][0] > 100
    assert m["foxh.head_quad.calls"][0] >= 1
    assert m["foxh.mellin_quad.calls"][0] == 0
    assert all(span[3] >= 0 for span in tr.spans if span[0] == "foxh.head_quad")
    # Self time never exceeds total time.
    for name in tr.calls:
        assert tr.self_time[name] <= tr.total[name] + 1e-12


def test_calibration_calls_no_package_code():
    unit = run.make_calibration()
    tr = tracer.Tracer()
    tr.install()
    try:
        value = unit()
    finally:
        tr.close()
    assert math.isfinite(value)
    assert not tr.spans
