"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them as they go).
The reference parameter sets are the four fixture specs plus randomized
families; tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
from scipy.special import gamma as spgamma

from gammaratio import (
    ContourConfig,
    RatioSpec,
    beta_product_moments,
    build_unweighted,
    check_kernel_nonneg,
    check_sufficient_a,
    check_sufficient_b,
    check_sufficient_c,
    classify,
    cm_probe,
    count_zeros,
    derive,
    digamma,
    fox_h,
    fox_identity_residual,
    laplace_reconstruct,
    meijer_identity_residual,
    mellin_check,
    power_sum_diff,
)
from gammaratio.monotonicity import FAILS, HOLDS, LCM, BERNSTEIN_DERIVATIVE
from oracles import gen_condition_a, gen_condition_b, gen_condition_c


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


class TestCriterion01MixedScaleClassification:
    def test_mixed_scale_reproduction(self, spec_mixed_scale):
        start = time.perf_counter()
        inv = derive(spec_mixed_scale)
        cond_a = check_sufficient_a(spec_mixed_scale)
        verdict = classify(spec_mixed_scale)
        elapsed = time.perf_counter() - start

        rho_ok = abs(inv.rho - 0.03456) <= 1e-5
        max_ratio = max(ai / Ai for ai, Ai in zip(spec_mixed_scale.a, spec_mixed_scale.A))
        min_gap = min((bj - 1.0) / Bj for bj, Bj in zip(spec_mixed_scale.b, spec_mixed_scale.B))
        ok = (
            rho_ok
            and max_ratio == 0.9
            and min_gap == 1.0
            and cond_a.status == HOLDS
            and verdict.classification == LCM
            and elapsed < 1.0
        )
        _report(
            "1 (mixed-scale classification)",
            ok,
            f"rho={inv.rho:.6f}, max(a/A)={max_ratio}, min((b-1)/B)={min_gap}, "
            f"verdict={verdict.classification}, {elapsed:.2f}s",
        )


class TestCriterion02PairedClassification:
    def test_paired_reproduction(self, spec_paired):
        start = time.perf_counter()
        inv = derive(spec_paired)
        a_ev = check_sufficient_a(spec_paired)
        b_ev = check_sufficient_b(spec_paired)
        c_ev = check_sufficient_c(spec_paired)
        verdict = classify(spec_paired)
        elapsed = time.perf_counter() - start

        ok = (
            abs(inv.rho - 0.783668) <= 1e-6
            and b_ev.status == HOLDS
            and a_ev.status == FAILS
            and c_ev.status == FAILS
            and verdict.classification == LCM
            and elapsed < 1.0
        )
        _report(
            "2 (paired-scale classification)",
            ok,
            f"rho={inv.rho:.7f}, (a)={a_ev.status}, (b)={b_ev.status}, (c)={c_ev.status}, "
            f"verdict={verdict.classification}, {elapsed:.2f}s",
        )


class TestCriterion03BernsteinClassification:
    def test_bernstein_reproduction(self, spec_bernstein_only):
        start = time.perf_counter()
        s = spec_bernstein_only
        comparisons = (
            (1.0 / s.A[0], 0.25, 1.0 / s.B[0], 1.0 / 3.0),
            (1.0 / s.A[0] + 1.0 / s.A[1], 0.75, 1.0 / s.B[0] + 1.0 / s.B[1], 4.0 / 3.0),
            (s.a[0] / s.A[0], 0.175, s.b[0] / s.B[0], 0.2),
            (s.a[0] / s.A[0] + s.a[1] / s.A[1], 1.075, s.b[0] / s.B[0] + s.b[1] / s.B[1], 1.4),
        )
        values_ok = all(
            abs(lhs - lhs_ref) <= 1e-12 and abs(rhs - rhs_ref) <= 1e-12 and lhs < rhs
            for lhs, lhs_ref, rhs, rhs_ref in comparisons
        )
        verdict = classify(s)
        elapsed = time.perf_counter() - start
        ok = (
            values_ok
            and verdict.classification == BERNSTEIN_DERIVATIVE
            and verdict.find("NEC_A").status == FAILS
            and elapsed < 1.0
        )
        _report(
            "3 (Bernstein-derivative classification)",
            ok,
            f"verdict={verdict.classification}, prefix comparisons ok={values_ok}, {elapsed:.2f}s",
        )


class TestCriterion04EqualScalesClassification:
    def test_equal_scales_reproduction(self, spec_equal_scales):
        start = time.perf_counter()
        c_ev = check_sufficient_c(spec_equal_scales)
        verdict = classify(spec_equal_scales)
        elapsed = time.perf_counter() - start
        ok = (
            spec_equal_scales.A == spec_equal_scales.B
            and c_ev.status == HOLDS
            and verdict.classification == LCM
            and elapsed < 1.0
        )
        _report(
            "4 (equal-scales classification)",
            ok,
            f"(c)={c_ev.status}, verdict={verdict.classification}, {elapsed:.2f}s",
        )


class TestCriterion05ClosedFormDensity:
    def test_unit_family_closed_form(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1905)
        worst = 0.0
        for _ in range(20):
            alpha = float(rng.uniform(0.0, 3.0))
            beta = float(rng.uniform(0.5, 3.0))
            spec = RatioSpec(A=(1.0,), a=(alpha,), B=(1.0,), b=(alpha + beta,))
            for x in np.arange(0.1, 0.95, 0.1):
                exact = x**alpha * (1.0 - x) ** (beta - 1.0) / spgamma(beta)
                got = fox_h(spec, float(x)).value
                worst = max(worst, abs(got - exact) / abs(exact))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 30.0
        _report("5 (closed-form density oracle)", ok, f"worst rel={worst:.2e}, {elapsed:.1f}s")


class TestCriterion06MellinIdentity:
    def test_mellin_both_specs(self, spec_mixed_scale, spec_equal_scales):
        start = time.perf_counter()
        worst = 0.0
        for spec in (spec_mixed_scale, spec_equal_scales):
            for s in (1.0, 2.0, 3.0):
                lhs, rhs = mellin_check(spec, s)
                worst = max(worst, abs(lhs - rhs) / rhs)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 120.0
        _report("6 (Mellin identity)", ok, f"worst rel={worst:.2e}, {elapsed:.1f}s")


class TestCriterion07CompactSupport:
    def test_density_vanishes_beyond_support(self, spec_mixed_scale, spec_equal_scales):
        worst = 0.0
        for spec in (spec_mixed_scale, spec_equal_scales):
            rho = derive(spec).rho
            for mult in (1.1, 2.0, 10.0):
                worst = max(worst, abs(fox_h(spec, mult * rho).value))
        ok = worst <= 1e-7
        _report("7 (compact support)", ok, f"worst |density|={worst:.2e}")


class TestCriterion08LaplaceReconstruction:
    def test_reconstruction_and_positivity(self, spec_mixed_scale, spec_equal_scales):
        cfg = ContourConfig()
        worst_res = 0.0
        worst_min = 0.0
        for spec in (spec_mixed_scale, spec_equal_scales):
            report = laplace_reconstruct(spec, (0.5, 1.0, 2.0, 4.0), cfg)
            worst_res = max(worst_res, report.max_residual)
            rho = derive(spec).rho
            vals = [fox_h(spec, frac * rho, cfg).value for frac in np.linspace(0.05, 0.95, 15)]
            worst_min = min(worst_min, min(vals))
        ok = worst_res <= 1e-6 and worst_min >= -1e-7
        _report(
            "8 (Laplace reconstruction)",
            ok,
            f"worst residual={worst_res:.2e}, min density sample={worst_min:.2e}",
        )


class TestCriterion09IntegralEquations:
    def test_meijer_closed_form_cases(self):
        worst = 0.0
        for av, bv in (((0.0,), (2.0,)), ((1.0,), (2.0,)), ((0.5,), (3.0,))):
            report = meijer_identity_residual(av, bv, (0.2, 0.5, 0.8))
            worst = max(worst, report.max_residual)
        ok = worst <= 1e-7
        _report("9a (unit-scaling integral equation)", ok, f"worst residual={worst:.2e}")

    def test_weighted_identity(self, spec_mixed_scale, spec_equal_scales):
        worst = 0.0
        for spec in (spec_mixed_scale, spec_equal_scales):
            rho = derive(spec).rho
            report = fox_identity_residual(spec, (rho / 4.0, rho / 2.0, 3.0 * rho / 4.0))
            worst = max(worst, report.max_residual)
        ok = worst <= 1e-5
        _report("9b (weighted integral equation)", ok, f"worst residual={worst:.2e}")

    def test_degenerate_case_exact(self, spec_inverse_x):
        report = fox_identity_residual(spec_inverse_x, (0.2, 0.5, 0.8))
        ok = report.max_residual <= 1e-10
        _report("9c (degenerate identity exact)", ok, f"residual={report.max_residual:.2e}")


class TestCriterion10PropertySuites:
    def test_property_bundle(self, spec_mixed_scale, spec_paired, spec_equal_scales):
        start = time.perf_counter()
        rng = np.random.default_rng(77)

        # Subset-parity factorization at 1e-11 for n <= 6.
        fact_ok = True
        for _ in range(25):
            n = int(rng.integers(1, 7))
            beta = rng.uniform(0.0, 2.0, size=n)
            alpha = beta + rng.uniform(0.0, 2.0, size=n)
            spec = build_unweighted(alpha, beta)
            for t in np.linspace(0.05, 0.95, 8):
                direct = float(power_sum_diff(spec.a, spec.b, float(t)))
                product = float(np.prod(t**beta - t**alpha))
                scale = float(
                    np.sum(t ** np.asarray(spec.a)) + np.sum(t ** np.asarray(spec.b))
                )
                if abs(direct - product) > 1e-11 * (1.0 + scale):
                    fact_ok = False

        # Sufficient-condition soundness, >= 200 generated specs each.
        sound_ok = True
        for gen, checker in (
            (gen_condition_a, check_sufficient_a),
            (gen_condition_b, check_sufficient_b),
            (gen_condition_c, check_sufficient_c),
        ):
            grng = np.random.default_rng(4242)
            holds = 0
            while holds < 200:
                spec = gen(grng)
                if checker(spec).status != HOLDS:
                    continue
                holds += 1
                if check_kernel_nonneg(spec, grid_size=96).status == FAILS:
                    sound_ok = False

        # Special-function invariants.
        spec_ok = True
        for x in np.geomspace(1e-2, 1e3, 25):
            if abs(digamma(x + 1.0).value - digamma(x).value - 1.0 / x) > 1e-12 * max(
                1.0, 1.0 / x
            ):
                spec_ok = False
        for x in (50.0, 100.0, 1e3, 1e6):
            if abs(digamma(x).value - math.log(x) + 0.5 / x) > 1.0 / x**2:
                spec_ok = False

        # Complete-monotonicity probe for every classified-LCM spec.
        probe_ok = True
        lcm_specs = [spec_mixed_scale, spec_paired, spec_equal_scales,
                     build_unweighted([2.0, 1.5], [1.0, 0.5])]
        for spec in lcm_specs:
            if classify(spec).classification == LCM:
                if not cm_probe(spec, x0=2.0, h=0.05, max_order=6).passed:
                    probe_ok = False

        # Monte-Carlo beta moments within 5 standard errors at 1e5 samples.
        mc = beta_product_moments(
            [2.0, 3.0], [1.0, 2.0], [1.5, 0.5], (1.5, 2.0, 3.0),
            n_samples=100_000, rng_seed=2024,
        )

        elapsed = time.perf_counter() - start
        ok = fact_ok and sound_ok and spec_ok and probe_ok and mc.passed and elapsed < 300.0
        _report(
            "10 (property suites)",
            ok,
            f"factorization={fact_ok}, soundness={sound_ok}, specfun={spec_ok}, "
            f"probe={probe_ok}, mc={mc.passed}, {elapsed:.0f}s",
        )


class TestCriterion11ConjectureExploration:
    def test_zero_count_survey(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5150)
        cfg = ContourConfig(quad_rel_tol=1e-6)
        flagged = 0
        completed = 0
        for _ in range(50):
            p = int(rng.integers(1, 4))
            A = tuple(rng.uniform(0.5, 2.5, size=p))
            a = tuple(rng.uniform(0.0, 2.0, size=p))
            # Mixed-sign shifts with positive total keep mu > 0 while
            # allowing kernels that change sign.
            delta = rng.uniform(-0.5, 1.5, size=p)
            delta += max(0.0, 0.25 - delta.sum()) / p
            b = tuple(float(ai + di) if ai + di > 0 else float(ai + abs(di)) for ai, di in zip(a, delta))
            spec = RatioSpec(A=A, a=a, B=A, b=b)
            if derive(spec).mu <= 0.0:
                continue
            report = count_zeros(spec, cfg, grid_size=64)
            completed += 1
            if report.conjecture_consistent is False:
                flagged += 1
        elapsed = time.perf_counter() - start
        ok = completed >= 40
        _report(
            "11 (conjecture exploration, report-only)",
            ok,
            f"{completed} surveyed, {flagged} flagged, {elapsed:.0f}s",
        )
