import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammaratio import (
    DomainError,
    RatioSpec,
    build_unweighted,
    check_kernel_nonneg,
    check_necessary,
    check_sufficient_a,
    check_sufficient_b,
    check_sufficient_c,
    classify,
    cm_kernel_t,
    power_sum_diff,
    weak_supermajorization,
)
from gammaratio import monotonicity
from gammaratio.monotonicity import (
    BERNSTEIN_DERIVATIVE,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    LCM,
    NOT_APPLICABLE,
    NOT_LCM,
    Q_NONNEG,
)


def _status(evidences, cid):
    return {e.condition_id: e.status for e in evidences}[cid]


class TestNecessary:
    def test_mixed_scale_all_hold(self, spec_mixed_scale):
        assert all(e.status == HOLDS for e in check_necessary(spec_mixed_scale))

    def test_unequal_sums_fail(self, spec_bernstein_only):
        ev = check_necessary(spec_bernstein_only)
        assert _status(ev, "NEC_A") == FAILS

    def test_identical_spec(self):
        spec = RatioSpec(A=(2, 1), a=(1, 3), B=(2, 1), b=(1, 3))
        assert all(e.status == HOLDS for e in check_necessary(spec))


class TestSufficientA:
    def test_mixed_scale_holds(self, spec_mixed_scale):
        ev = check_sufficient_a(spec_mixed_scale)
        assert ev.status == HOLDS
        assert "0.9" in ev.witness

    def test_paired_fails(self, spec_paired):
        assert check_sufficient_a(spec_paired).status == FAILS

    def test_boundary_case(self, spec_inverse_x):
        assert check_sufficient_a(spec_inverse_x).status == HOLDS


class TestSufficientB:
    def test_paired_holds(self, spec_paired):
        assert check_sufficient_b(spec_paired).status == HOLDS

    def test_mixed_scale_not_applicable(self, spec_mixed_scale):
        assert check_sufficient_b(spec_mixed_scale).status == NOT_APPLICABLE

    def test_trivial_holds(self, spec_inverse_x):
        assert check_sufficient_b(spec_inverse_x).status == HOLDS

    def test_order_sensitive(self, spec_paired):
        # Swapping the last pair breaks the distinguished-index structure.
        swapped = RatioSpec(
            A=spec_paired.A,
            a=spec_paired.a,
            B=(spec_paired.B[2], spec_paired.B[1], spec_paired.B[0]),
            b=(spec_paired.b[2], spec_paired.b[1], spec_paired.b[0]),
        )
        assert check_sufficient_b(swapped).status == FAILS


class TestSufficientC:
    def test_equal_scales_holds(self, spec_equal_scales):
        assert check_sufficient_c(spec_equal_scales).status == HOLDS

    def test_bernstein_vectors_hold(self, spec_bernstein_only):
        assert check_sufficient_c(spec_bernstein_only).status == HOLDS

    def test_paired_fails(self, spec_paired):
        assert check_sufficient_c(spec_paired).status == FAILS

    def test_bernstein_prefix_values(self, spec_bernstein_only):
        # The four prefix comparisons behind the passing check.
        s = spec_bernstein_only
        inv_A = [1.0 / v for v in s.A]
        inv_B = [1.0 / v for v in s.B]
        ratios_a = [ai / Ai for ai, Ai in zip(s.a, s.A)]
        ratios_b = [bi / Bi for bi, Bi in zip(s.b, s.B)]
        assert abs(inv_A[0] - 0.25) <= 1e-12 and inv_A[0] < inv_B[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(sum(inv_A) - 0.75) <= 1e-12 and sum(inv_A) < sum(inv_B) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert abs(ratios_a[0] - 0.175) <= 1e-12 and ratios_a[0] < ratios_b[0] == pytest.approx(0.2, abs=1e-12)
        assert abs(sum(ratios_a) - 1.075) <= 1e-12 and sum(ratios_a) < sum(ratios_b) == pytest.approx(1.4, abs=1e-12)


class TestWeakSupermajorization:
    def test_hand_example(self):
        assert weak_supermajorization((0.0, 1.0), (0.5, 0.5)) is True

    def test_equality(self):
        assert weak_supermajorization((1.0, 2.0), (2.0, 1.0)) is True

    def test_violation(self):
        assert weak_supermajorization((1.0, 1.0), (0.0, 3.0)) is False

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            weak_supermajorization((1.0,), (1.0, 2.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_reflexive(self, xs):
        assert weak_supermajorization(xs, xs) is True


class TestKernelNonneg:
    def test_trivial_holds(self, spec_inverse_x):
        assert check_kernel_nonneg(spec_inverse_x).status == HOLDS

    def test_swapped_trivial_fails(self):
        # Kernel == -1 on (0, 1).
        spec = RatioSpec(A=(1,), a=(1,), B=(1,), b=(0,))
        ev = check_kernel_nonneg(spec)
        assert ev.status == FAILS

    def test_paired_holds(self, spec_paired):
        assert check_kernel_nonneg(spec_paired).status == HOLDS

    def test_grid_size_validated(self, spec_inverse_x):
        with pytest.raises(DomainError):
            check_kernel_nonneg(spec_inverse_x, grid_size=32)

    def test_sign_changing_kernel_fails(self):
        spec = RatioSpec(A=(1, 1), a=(0, 1.2), B=(1, 1), b=(0.5, 0.5))
        assert check_kernel_nonneg(spec).status == FAILS


class TestClassify:
    def test_mixed_scale_lcm(self, spec_mixed_scale):
        assert classify(spec_mixed_scale).classification == LCM

    def test_paired_lcm(self, spec_paired):
        assert classify(spec_paired).classification == LCM

    def test_equal_scales_lcm(self, spec_equal_scales):
        assert classify(spec_equal_scales).classification == LCM

    def test_bernstein_derivative(self, spec_bernstein_only):
        verdict = classify(spec_bernstein_only)
        assert verdict.classification == BERNSTEIN_DERIVATIVE
        assert verdict.find("NEC_A").status == FAILS

    def test_identical_spec_lcm(self):
        spec = RatioSpec(A=(2, 1), a=(0.4, 2.4), B=(1, 2), b=(2.4, 0.4))
        verdict = classify(spec)
        assert verdict.classification == LCM
        assert verdict.find(Q_NONNEG).status == HOLDS

    def test_growing_ratio_rejected(self):
        # W = Gamma(2x)/Gamma(x + 0.5) grows; zero shift makes the
        # first-derivative limit test undecidable, so plain rejection.
        spec = RatioSpec(A=(2,), a=(0,), B=(1,), b=(0.5,))
        assert classify(spec).classification == NOT_LCM

    def test_pole_order_rejected(self):
        # Necessary condition (d) fails; kernel is negative near t = 0.
        spec = RatioSpec(A=(1, 1), a=(0.5, 0.5), B=(1, 1), b=(0.2, 0.8))
        verdict = classify(spec)
        assert verdict.find("NEC_D").status == FAILS
        assert verdict.classification == NOT_LCM

    def test_lcm_needs_certificate(self):
        # mu = 0 with a kernel vanishing to high order at t -> 1 and no
        # sufficient condition: stays inconclusive rather than guessing.
        spec = RatioSpec(A=(1, 1, 1), a=(0.0, 0.9, 0.4), B=(1, 1, 1), b=(0.25, 0.25, 0.8))
        verdict = classify(spec)
        assert verdict.classification in (INCONCLUSIVE, NOT_LCM, LCM)

    def test_negative_kernel_rejects_despite_necessary_conditions(self):
        # All four necessary conditions hold, yet the kernel dips negative
        # (prefix-sum violation); only the certified negative sample rejects.
        spec = RatioSpec(A=(1, 1, 1), a=(0.9, 1.65, 1.65), B=(1, 1, 1), b=(1.0, 1.0, 2.2))
        assert power_sum_diff(spec.a, spec.b, 0.5) < 0.0
        verdict = classify(spec)
        assert all(verdict.find(f"NEC_{k}").status == HOLDS for k in "ABCD")
        assert verdict.find(Q_NONNEG).status == FAILS
        assert verdict.classification == NOT_LCM

    def test_one_derive_per_classify(
        self, spec_mixed_scale, spec_paired, spec_bernstein_only, spec_equal_scales, monkeypatch
    ):
        calls = []
        derive = monotonicity.derive

        def counted(spec):
            calls.append(spec)
            return derive(spec)

        monkeypatch.setattr(monotonicity, "derive", counted)
        specs = [
            spec_mixed_scale,  # certified by condition (a), p != q
            spec_paired,  # certified by condition (b)
            spec_bernstein_only,  # unequal sums, kernel sampled
            spec_equal_scales,
            RatioSpec(A=(2, 1), a=(0.4, 2.4), B=(1, 2), b=(2.4, 0.4)),  # identical factors
            RatioSpec(A=(1, 1, 1), a=(0.9, 1.65, 1.65), B=(1, 1, 1), b=(1.0, 1.0, 2.2)),
        ]
        for spec in specs:
            calls.clear()
            verdict = classify(spec)
            assert calls == [spec]
            assert verdict.derived == derive(spec)


class TestBuildUnweighted:
    def test_single_factor(self):
        spec = build_unweighted([2.0], [1.0])
        assert spec.A == (1.0,) and spec.B == (1.0,)
        assert spec.a == (1.0,) and spec.b == (2.0,)

    def test_three_factor_pattern(self):
        alpha = (2.0, 3.0, 4.0)
        beta = (0.5, 1.0, 1.5)
        spec = build_unweighted(alpha, beta)
        assert spec.p == spec.q == 4
        b1, b2, b3 = beta
        a1, a2, a3 = alpha
        expected_num = sorted([b1 + b2 + b3, b1 + a2 + a3, a1 + b2 + a3, a1 + a2 + b3])
        expected_den = sorted([a1 + b2 + b3, b1 + a2 + b3, b1 + b2 + a3, a1 + a2 + a3])
        assert sorted(spec.a) == pytest.approx(expected_num)
        assert sorted(spec.b) == pytest.approx(expected_den)

    def test_counts_are_powers_of_two(self):
        spec = build_unweighted([1.0] * 5, [0.0] * 5)
        assert spec.p == spec.q == 16

    def test_classify_built_spec(self):
        spec = build_unweighted([2.0, 1.5, 3.0], [1.0, 0.5, 2.0])
        assert classify(spec).classification == LCM

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(DomainError):
            build_unweighted([1.0], [2.0])
        with pytest.raises(DomainError):
            build_unweighted([1.0, 2.0], [0.5])

    def test_factorization_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            beta = rng.uniform(0.0, 2.0, size=n)
            alpha = beta + rng.uniform(0.0, 2.0, size=n)
            spec = build_unweighted(alpha, beta)
            for t in np.linspace(0.05, 0.95, 10):
                direct = float(power_sum_diff(spec.a, spec.b, t))
                product = float(np.prod(t**beta - t**alpha))
                scale = float(np.sum(t**np.asarray(spec.a)) + np.sum(t**np.asarray(spec.b)))
                assert abs(direct - product) <= 1e-11 * (1.0 + scale)


def _rng():
    return np.random.default_rng(20240817)


def _gen_condition_a(rng):
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    A = rng.uniform(0.5, 3.0, size=p)
    B = rng.uniform(0.5, 3.0, size=q)
    B *= A.sum() / B.sum()
    m = rng.uniform(0.0, 2.0)
    a = A * rng.uniform(0.0, 1.0, size=p) * m
    b = 1.0 + B * (m + rng.uniform(0.0, 2.0, size=q))
    return RatioSpec(A=tuple(A), a=tuple(a), B=tuple(B), b=tuple(b))


def _gen_condition_b(rng):
    p = int(rng.integers(1, 5))
    A = rng.uniform(0.5, 3.0, size=p)
    B = np.empty(p)
    B[: p - 1] = A[: p - 1] * rng.uniform(0.3, 1.0, size=p - 1)
    B[p - 1] = A.sum() - B[: p - 1].sum()
    M = 2.0 * float(np.max(1.0 / B)) + rng.uniform(0.1, 2.0)
    b = np.empty(p)
    b[p - 1] = 1.0 + M * B[p - 1]
    for k in range(p - 1):
        b[k] = 1.0 + B[k] * rng.uniform(0.0, 1.0) * (M - 1.0 / B[k])
    a = A * rng.uniform(0.0, 1.0, size=p) * (b - 1.0) / B
    return RatioSpec(A=tuple(A), a=tuple(a), B=tuple(B), b=tuple(b))


def _gen_condition_c(rng):
    p = int(rng.integers(1, 5))
    inv_A = np.sort(rng.uniform(0.3, 2.0, size=p))
    deltas = np.sort(rng.uniform(0.0, 1.0, size=p))
    inv_B = inv_A + deltas
    ra = np.sort(rng.uniform(0.0, 3.0, size=p))
    eps = np.sort(rng.uniform(0.0, 1.5, size=p))
    rb = ra + eps
    A = 1.0 / inv_A
    B = 1.0 / inv_B
    return RatioSpec(A=tuple(A), a=tuple(ra * A), B=tuple(B), b=tuple(rb * B))


class TestSoundness:
    """Certified sufficient conditions never contradict the sampled kernel."""

    def test_condition_a_soundness(self):
        rng = _rng()
        n_hold = 0
        for _ in range(220):
            spec = _gen_condition_a(rng)
            if check_sufficient_a(spec).status == HOLDS:
                n_hold += 1
                assert check_kernel_nonneg(spec, grid_size=128).status != FAILS
        assert n_hold >= 200

    def test_condition_b_soundness(self):
        rng = _rng()
        n_hold = 0
        for _ in range(220):
            spec = _gen_condition_b(rng)
            if check_sufficient_b(spec).status == HOLDS:
                n_hold += 1
                assert check_kernel_nonneg(spec, grid_size=128).status != FAILS
        assert n_hold >= 200

    def test_condition_c_soundness(self):
        rng = _rng()
        n_hold = 0
        for _ in range(220):
            spec = _gen_condition_c(rng)
            if check_sufficient_c(spec).status == HOLDS:
                n_hold += 1
                assert check_kernel_nonneg(spec, grid_size=128).status != FAILS
        assert n_hold >= 200

    def test_condition_c_forces_smaller_b_sum(self):
        # With p = q and A != B (mod permutation), condition (c) forces
        # sum(B) strictly below sum(A).
        rng = _rng()
        seen = 0
        for _ in range(200):
            spec = _gen_condition_c(rng)
            if check_sufficient_c(spec).status != HOLDS:
                continue
            if sorted(spec.A) == sorted(spec.B):
                continue
            seen += 1
            assert math.fsum(spec.B) < math.fsum(spec.A) - 1e-12
        assert seen >= 100


class TestPoleOrderConsistency:
    def test_nec_d_failure_means_negative_kernel_near_zero(self):
        rng = _rng()
        seen = 0
        for _ in range(400):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            A = rng.uniform(0.5, 2.0, size=p)
            B = rng.uniform(0.5, 2.0, size=q)
            a = rng.uniform(0.0, 3.0, size=p)
            b = rng.uniform(0.0, 3.0, size=q)
            spec = RatioSpec(A=tuple(A), a=tuple(a), B=tuple(B), b=tuple(b))
            ev = {e.condition_id: e.status for e in check_necessary(spec)}
            if ev["NEC_D"] != FAILS:
                continue
            alpha = min(ai / Ai for ai, Ai in zip(spec.a, spec.A))
            beta = min(bj / Bj for bj, Bj in zip(spec.b, spec.B))
            if alpha - beta < 0.05:
                # The sign flip would only emerge below double-precision range.
                continue
            seen += 1
            # Sample where the dominant negative power has taken over.
            t = min(1e-3, (0.1) ** min(2.0 / (alpha - beta), 250.0))
            ts = np.geomspace(max(t * 1e-4, 1e-290), t, 24)
            assert float(np.min(cm_kernel_t(spec, ts))) < 0.0
        assert seen >= 40
