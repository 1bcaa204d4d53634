import dataclasses
import math
import pickle
import random

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
    UNDECIDED,
    ConditionEvidence,
    Verdict,
)
from gammaratio.ratio import derive
from oracles import equivalence_specs, gen_condition_a, gen_condition_b, gen_condition_c


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


def _survey_specs():
    """Seeded specs of the classify-survey strata: subset-parity up to n = 4, random
    specs with and without equal scale sums, and entries up to 1e3."""
    rng = random.Random(20261019)
    specs = []
    for _ in range(60):
        beta = [rng.uniform(0.0, 3.0) for _ in range(rng.randint(1, 4))]
        specs.append(build_unweighted([v + rng.uniform(0.05, 3.0) for v in beta], beta))
    for equal in (True, False) * 60:
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        A = [rng.uniform(0.2, 5.0) for _ in range(p)]
        if equal:
            weights = [rng.uniform(0.2, 1.0) for _ in range(q)]
            B = [math.fsum(A) * w / math.fsum(weights) for w in weights]
        else:
            B = [rng.uniform(0.2, 5.0) for _ in range(q)]
        specs.append(RatioSpec(A=A, a=[rng.uniform(0.0, 4.0) for _ in A], B=B, b=[rng.uniform(0.0, 4.0) for _ in B]))
    for _ in range(40):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        A, a, B, b = ([10.0 ** rng.uniform(-1.0, 3.0) for _ in range(n)] for n in (p, p, q, q))
        specs.append(RatioSpec(A=A, a=a, B=B, b=b))
    return specs


class TestSharedSummary:
    def test_classify_evidence_equals_public_checks(
        self, spec_mixed_scale, spec_paired, spec_bernstein_only, spec_equal_scales, spec_inverse_x
    ):
        # classify shares one factor summary between its checks; each public check
        # builds its own.  Their records must agree exactly, witness strings included.
        fixtures = [spec_mixed_scale, spec_paired, spec_bernstein_only, spec_equal_scales, spec_inverse_x]
        identical = RatioSpec(A=(2, 1), a=(0.4, 2.4), B=(1, 2), b=(2.4, 0.4))
        seen = set()
        for spec in _survey_specs() + fixtures + [identical]:
            evidence = classify(spec).evidence
            expected = check_necessary(spec)
            if monotonicity.identical_factor_multisets(spec):
                expected.append(check_kernel_nonneg(spec))
            else:
                sufficient = [check_sufficient_a(spec), check_sufficient_b(spec), check_sufficient_c(spec)]
                expected += sufficient
                if all(ev.status != HOLDS for ev in sufficient):
                    expected.append(check_kernel_nonneg(spec))
            assert evidence[: len(expected)] == tuple(expected), spec
            assert [ev.condition_id for ev in evidence[len(expected):]] in ([], ["BERNSTEIN_LIMIT"])
            seen.update((ev.condition_id, ev.status) for ev in evidence)
        # Every condition is reached, and each decides both ways somewhere.
        for cid in ("NEC_A", "NEC_B", "NEC_C", "NEC_D", "SUF_A", "SUF_C", Q_NONNEG):
            assert {(cid, HOLDS), (cid, FAILS)} <= seen, cid
        assert ("SUF_B", HOLDS) in seen and ("SUF_B", NOT_APPLICABLE) in seen

    @pytest.mark.parametrize(
        "b, sign, witness",
        [
            ((0.5, 0.8), 1, "t->0: tied exponents, multiplicities 2 > 1"),
            ((0.5 + 1e-13, 0.5), 0, "t->0: tied exponents and multiplicities (2)"),
            ((0.5, 0.5, 0.5), -1, "t->0: tied exponents, multiplicities 2 < 3"),
        ],
    )
    def test_zero_sign_counts_tied_factors(self, b, sign, witness):
        # The summary counts the factors within REL_TOL of the least a/A and b/B.
        spec = RatioSpec(A=(1.0, 1.0), a=(0.5, 0.5 + 1e-13), B=(1.0,) * len(b), b=b)
        got, template, values = monotonicity._endpoint_zero_sign(spec)
        assert (got, template.format(*values)) == (sign, witness)


# Specs for the kernel witnesses the seeded sets do not reach: tied exponents with
# multiplicities 2 > 1, 2 < 3 and 2 = 2, Taylor coefficients that vanish to order 11,
# an underflowing positive part, identical factors, and a zero shift.
_EDGE_SPECS = [
    RatioSpec(A=(1, 1), a=(0.5, 0.5 + 1e-13), B=(1, 1), b=(0.5, 0.8)),
    RatioSpec(A=(1, 1), a=(0.5, 0.5 + 1e-13), B=(1, 1, 1), b=(0.5, 0.5, 0.5)),
    RatioSpec(A=(1, 1), a=(0.5, 0.5), B=(1, 1), b=(0.5, 0.5 + 1e-13)),
    RatioSpec(A=(1, 1), a=(0.5 - 5e-11, 1.5), B=(1, 1), b=(0.5, 1.5 - 5e-11)),
    RatioSpec(A=(0.01,), a=(999.0,), B=(0.01,), b=(1000.0,)),
    RatioSpec(A=(2, 1), a=(0.4, 2.4), B=(1, 2), b=(2.4, 0.4)),
    RatioSpec(A=(1,), a=(0,), B=(1,), b=(1,)),
]


def _records(spec):
    """The records of classify and of every public check on spec, built afresh."""
    return [
        *classify(spec).evidence, *check_necessary(spec), check_sufficient_a(spec), check_sufficient_b(spec),
        check_sufficient_c(spec), check_kernel_nonneg(spec), monotonicity._bernstein_limit_evidence(spec),
    ]


def _eager(condition_id, status, witness=None, *values):
    """A record built from its finished witness, formatted where it is built."""
    return ConditionEvidence(condition_id, status, witness.format(*values) if values else witness)


class TestDeferredWitness:
    @pytest.fixture(scope="class")
    def specs(self):
        return _survey_specs() + equivalence_specs() + _EDGE_SPECS

    @pytest.fixture(scope="class")
    def finished(self, specs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monotonicity, "ConditionEvidence", _eager)
            return [ev for spec in specs for ev in _records(spec)]

    def test_sites_and_statuses_reached(self, specs, monkeypatch):
        sites = set()

        def recording(condition_id, status, witness=None, *values):
            sites.add((condition_id, witness))
            return ConditionEvidence(condition_id, status, witness, *values)

        monkeypatch.setattr(monotonicity, "ConditionEvidence", recording)
        seen = {(ev.condition_id, ev.status) for spec in specs for ev in _records(spec)}
        both = {HOLDS, FAILS}
        expected = {(cid, st) for cid in ("NEC_A", "NEC_B", "NEC_C", "NEC_D", "SUF_A") for st in both}
        expected |= {(cid, st) for cid in ("SUF_B", "SUF_C") for st in both | {NOT_APPLICABLE}}
        expected |= {(cid, st) for cid in (Q_NONNEG, "BERNSTEIN_LIMIT") for st in both | {UNDECIDED}}
        assert seen == expected
        # Every witness site: 4 necessary, 2 (a), 6 (b), 5 (c), 2 Bernstein, and 12 of the
        # kernel (its HOLDS in three endpoint forms; the identical-factors record is prebuilt).
        assert len(sites) == 31

    def test_deferred_text_equals_eager_text(self, specs, finished):
        deferred = [ev for spec in specs for ev in _records(spec)]
        assert any("_deferred" in vars(ev) for ev in deferred)
        assert all("_deferred" not in vars(ev) for ev in finished)
        assert [ev.witness for ev in deferred] == [ev.witness for ev in finished]

    @pytest.mark.parametrize("read", [
        lambda ev, other: ev == other and not ev != other,
        lambda ev, other: hash(ev) == hash(other),
        lambda ev, other: repr(ev) == repr(other),
        lambda ev, other: dataclasses.asdict(ev) == dataclasses.asdict(other),
        lambda ev, other: pickle.dumps(ev) == pickle.dumps(other),
        lambda ev, other: vars(pickle.loads(pickle.dumps(ev))) == vars(other),
        lambda ev, other: dataclasses.replace(ev) == other,
    ], ids=["eq", "hash", "repr", "asdict", "pickle", "pickle_round_trip", "replace"])
    def test_unread_record_behaves_as_finished(self, specs, finished, read):
        # Each deferred record is fresh: the operation is the first to read its witness.
        deferred = [ev for spec in specs for ev in _records(spec)]
        for ev, other in zip(deferred, finished):
            assert read(ev, other), (ev, other)
            assert vars(ev) == vars(other)

    def test_records_stay_frozen(self):
        ev = ConditionEvidence(Q_NONNEG, HOLDS, "t={!r}", 0.1)
        for name in ("condition_id", "status", "witness", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ev, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del ev.witness
        with pytest.raises(AttributeError):
            ev.other
        assert ev.witness == "t=0.1"
        spec = RatioSpec(A=(1,), a=(0,), B=(1,), b=(1,))
        verdict = classify(spec)
        for record, name in ((verdict, "classification"), (verdict.derived, "mu")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        assert pickle.loads(pickle.dumps(verdict)) == verdict
        assert dataclasses.replace(verdict) == verdict
        assert dataclasses.replace(verdict.derived, mu=1.0).mu == 1.0
        assert Verdict(verdict.classification, verdict.evidence, derived=derive(spec)) == verdict

    def test_classify_formats_no_witness_until_read(self):
        # A 16-factor subset-parity spec reaches the sampled kernel check.
        spec = build_unweighted([1.7, 2.9, 0.8, 3.3], [0.2, 1.1, 0.3, 2.0])
        evidence = classify(spec).evidence
        ids = ["NEC_A", "NEC_B", "NEC_C", "NEC_D", "SUF_A", "SUF_B", "SUF_C", Q_NONNEG]
        assert [ev.condition_id for ev in evidence] == ids
        assert all("witness" not in vars(ev) and "_deferred" in vars(ev) for ev in evidence)
        texts = [ev.witness for ev in evidence]
        assert all(vars(ev)["witness"] is text and "_deferred" not in vars(ev) for ev, text in zip(evidence, texts))
        assert evidence[-1].witness.startswith("min normalized interior sample")


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


class TestSoundness:
    """Certified sufficient conditions never contradict the sampled kernel."""

    def test_condition_a_soundness(self):
        rng = _rng()
        n_hold = 0
        for _ in range(220):
            spec = gen_condition_a(rng)
            if check_sufficient_a(spec).status == HOLDS:
                n_hold += 1
                assert check_kernel_nonneg(spec, grid_size=128).status != FAILS
        assert n_hold >= 200

    def test_condition_b_soundness(self):
        rng = _rng()
        n_hold = 0
        for _ in range(220):
            spec = gen_condition_b(rng)
            if check_sufficient_b(spec).status == HOLDS:
                n_hold += 1
                assert check_kernel_nonneg(spec, grid_size=128).status != FAILS
        assert n_hold >= 200

    def test_condition_c_soundness(self):
        rng = _rng()
        n_hold = 0
        for _ in range(220):
            spec = gen_condition_c(rng)
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
            spec = gen_condition_c(rng)
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
