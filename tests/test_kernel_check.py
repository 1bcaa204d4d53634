"""The sampled kernel check against its eager reference, and the work it does.

`check_kernel_nonneg` decides the t -> 0 sign first, builds the table of
t -> 1 Taylor coefficients only when that sign passes, and samples on a
grid built once per grid_size with the positive part computed once.  The
reference below is the plain form of the same check: both endpoint signs,
all twelve coefficients, and `cm_kernel_t / kernel_positive_part` on a
freshly built grid.  Their evidence must agree exactly.

The kernel takes one pass over all p + q factors, with one denominator
column per distinct scale; the per-side reference formulas further down
(numerator and denominator summed separately) must give the same bits.
"""

import math
import random
import re

import numpy as np
import pytest

from gammaratio import RatioSpec, build_unweighted, check_kernel_nonneg
from gammaratio import monotonicity, ratio
from gammaratio.monotonicity import _TAYLOR_TOL, FAILS, HOLDS, Q_NONNEG, UNDECIDED, ConditionEvidence
from gammaratio.ratio import REL_TOL, cm_kernel, cm_kernel_series, cm_kernel_t, kernel_positive_part
from oracles import equivalence_specs


def _reference_one_sign(spec):
    sum_A, sum_B = math.fsum(spec.A), math.fsum(spec.B)
    if abs(sum_A - sum_B) > REL_TOL * max(sum_A, sum_B):
        sum_diff = sum_A - sum_B
        return (1 if sum_diff > 0 else -1), f"t->1: kernel ~ {sum_diff!r}/u"
    for k, (coef, mag) in enumerate(cm_kernel_series(spec, 12)):
        if abs(coef) > _TAYLOR_TOL * mag:
            return (1 if coef > 0 else -1), f"t->1: first nonzero Taylor coefficient p_{k}={coef!r}"
    return 0, "t->1: Taylor coefficients vanish through order 11"


def _reference_check(spec, grid_size, refine_tol=1e-12):
    """Eager check: (evidence, whether the normalized minimum is NaN)."""
    if monotonicity.identical_factor_multisets(spec):
        return ConditionEvidence(
            Q_NONNEG, HOLDS, "numerator and denominator factors identical; kernel vanishes"
        ), False
    sign0, template, values = monotonicity._endpoint_zero_sign(spec)
    wit0 = template.format(*values)
    sign1, wit1 = _reference_one_sign(spec)
    if sign0 < 0:
        return ConditionEvidence(Q_NONNEG, FAILS, wit0), False
    if sign1 < 0:
        return ConditionEvidence(Q_NONNEG, FAILS, wit1), False

    uniform = np.arange(1, grid_size) / grid_size
    geo = np.geomspace(1e-6, 1.0 / grid_size, 64)
    grid = np.concatenate([uniform, geo, 1.0 - geo])
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = cm_kernel_t(spec, grid) / kernel_positive_part(spec, grid)
    nan_min = bool(np.isnan(np.min(normalized)))

    i_min = int(np.argmin(normalized))
    if normalized[i_min] < -10.0 * refine_tol:
        t_bad = float(grid[i_min])
        return ConditionEvidence(
            Q_NONNEG, FAILS, f"kernel({t_bad!r}) = {float(cm_kernel_t(spec, t_bad))!r} < 0"
        ), nan_min
    interior_min = float(np.min(normalized[: len(uniform)]))
    t_int = float(uniform[int(np.argmin(normalized[: len(uniform)]))])
    if interior_min >= refine_tol and sign0 > 0 and sign1 > 0:
        return ConditionEvidence(
            Q_NONNEG,
            HOLDS,
            f"min normalized interior sample {interior_min!r} at t={t_int!r}; {wit0}; {wit1}",
        ), nan_min
    reason = wit0 if sign0 == 0 else (wit1 if sign1 == 0 else f"margin {interior_min!r} at t={t_int!r}")
    return ConditionEvidence(Q_NONNEG, UNDECIDED, reason), nan_min


class TestEquivalence:
    @pytest.mark.parametrize("grid_size", [64, 128, 512])
    def test_evidence_matches_eager_reference(self, grid_size):
        checked = []
        for spec in equivalence_specs():
            for refine_tol in (1e-12, 1e-6):
                expected, nan_min = _reference_check(spec, grid_size, refine_tol)
                if nan_min:
                    continue
                got = check_kernel_nonneg(spec, grid_size=grid_size, refine_tol=refine_tol)
                assert got == expected, (spec, refine_tol)
                checked.append(got)
        assert len(checked) == 600
        # The set reaches every outcome, and its samples decide many specs.
        assert {FAILS, HOLDS, UNDECIDED} <= {ev.status for ev in checked}
        assert sum(ev.witness.startswith(("min normalized", "margin")) for ev in checked) >= 200
        assert any(ev.witness.startswith("kernel(") for ev in checked)

    def test_grid_is_shared_and_read_only(self):
        grid, logt, near_one = monotonicity._sample_grid(128)
        assert monotonicity._sample_grid(128)[0] is grid
        assert len(grid) == 127 + 2 * 64
        for arr in (grid, logt, near_one):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestUnderflow:
    def test_zero_over_zero_sample_is_undecided(self):
        # t^99900 underflows at every interior sample, so both sums read 0.
        spec = RatioSpec(A=(0.01,), a=(999.0,), B=(0.01,), b=(1000.0,))
        ev = check_kernel_nonneg(spec)
        assert ev.status == UNDECIDED
        assert "nan" not in ev.witness
        assert ev.witness == "positive part underflows to 0 at t=0.001953125; no sign can be read"

    def test_underflow_in_tail_only_still_certifies(self):
        # t^60 underflows at the geometric tail point t = 1e-6 but not at
        # t = 1/512; the t -> 0 sign is certified analytically.
        spec = RatioSpec(A=(1.0,), a=(60.0,), B=(1.0,), b=(61.0,))
        ev = check_kernel_nonneg(spec)
        assert ev.status == HOLDS
        assert ev.witness.startswith("min normalized interior sample")


@pytest.fixture
def table_calls(monkeypatch):
    calls = []
    helper = monotonicity._stirling_table

    def counting(spec, n):
        calls.append(n)
        return helper(spec, n)

    monkeypatch.setattr(monotonicity, "_stirling_table", counting)
    return calls


class TestWorkCount:
    def test_subset_parity_decides_at_p1(self, table_calls):
        spec = build_unweighted([2, 3], [1, 0.5])
        sign, template, values = monotonicity._endpoint_one_sign(spec)
        assert sign == 1
        assert "p_1=" in template.format(*values)
        assert table_calls == [11]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_terms_stop_at_first_decisive_order(self, table_calls, n):
        rng = random.Random(n)
        beta = [rng.uniform(0.0, 3.0) for _ in range(n)]
        spec = build_unweighted([v + rng.uniform(0.05, 3.0) for v in beta], beta)
        _, template, values = monotonicity._endpoint_one_sign(spec)
        order = int(re.search(r"p_(\d+)=", template.format(*values)).group(1))
        # The product of n factors (t^beta - t^alpha) vanishes to order n at t = 1.
        assert order == n - 1
        assert table_calls == [11]

    def test_unequal_sums_build_no_table(self, table_calls):
        spec = RatioSpec(A=(2.0,), a=(0.5,), B=(1.0,), b=(0.5,))
        sign, template, values = monotonicity._endpoint_one_sign(spec)
        assert sign == 1
        assert template.format(*values) == "t->1: kernel ~ 1.0/u"
        assert table_calls == []

    def test_negative_zero_sign_skips_taylor_terms(self, table_calls):
        # Equal scale sums, but the numerator's t^1 loses to the denominator's t^0.5.
        spec = RatioSpec(A=(1.0, 1.0), a=(1.0, 2.0), B=(1.0, 1.0), b=(0.5, 3.0))
        ev = check_kernel_nonneg(spec)
        assert ev.status == FAILS
        assert ev.witness.startswith("t->0")
        assert table_calls == []


# Per-side reference forms of the kernel: each side's factors in their own
# arrays, the denominators 1 - t^(1/scale) and the bounded parts evaluated per
# factor, and each side summed on its own.


def _side_power_sum(logt, scales, shifts):
    scales = np.asarray(scales)
    shifts = np.asarray(shifts)
    return (np.exp(logt * (shifts / scales)) / (-np.expm1(logt / scales))).sum(axis=1)


def _side_phi(t):
    small = t < 0.1
    ts = np.where(small, t, 0.0)
    series = 0.5 + ts * (1.0 / 12.0 + ts * ts * (-1.0 / 720.0 + ts * ts / 30240.0))
    td = np.where(small, 1.0, t)
    return np.where(small, series, 1.0 / (-np.expm1(-td)) - 1.0 / td)


def _side_cm_kernel(spec, u):
    uu = np.asarray(u, dtype=float)[:, None]
    A, a, B, b = (np.asarray(v) for v in (spec.A, spec.a, spec.B, spec.b))
    tA, tB = uu / A, uu / B
    singular = (
        math.fsum(spec.A) - math.fsum(spec.B)
        + (A * np.expm1(-a * tA)).sum(axis=1)
        - (B * np.expm1(-b * tB)).sum(axis=1)
    ) / uu[:, 0]
    bounded = (np.exp(-a * tA) * _side_phi(tA)).sum(axis=1) - (np.exp(-b * tB) * _side_phi(tB)).sum(axis=1)
    return singular + bounded


def _side_cm_kernel_t(spec, t):
    near = t >= ratio._KERNEL_T_SWITCH
    out = np.empty_like(t)
    out[near] = _side_cm_kernel(spec, -np.log(t[near]))
    logt = np.log(t[~near][:, None])
    out[~near] = _side_power_sum(logt, spec.A, spec.a) - _side_power_sum(logt, spec.B, spec.b)
    return out


def _wide_specs():
    """p, q up to 8, scales drawn partly from a few shared values so that the
    number of distinct scales runs from 1 to p + q."""
    rng = random.Random(20261019)
    specs = []
    for k in range(150):
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        # All scales from a shared pool, all drawn afresh, or a mixture.
        shared = (1.0, 0.6, 0.0)[k % 3]
        pool = [1.0, 2.0, 0.5, rng.uniform(0.05, 20.0)]
        A = [rng.choice(pool) if rng.random() < shared else rng.uniform(0.05, 20.0) for _ in range(p)]
        B = [rng.choice(pool) if rng.random() < shared else rng.uniform(0.05, 20.0) for _ in range(q)]
        a = [rng.uniform(0.0, 6.0) for _ in range(p)]
        b = [rng.uniform(0.0, 6.0) for _ in range(q)]
        specs.append(RatioSpec(A=A, a=a, B=B, b=b))
    specs.append(build_unweighted([1.5, 2.5, 3.5, 0.7], [0.2, 0.3, 1.0, 0.1]))
    return specs


T_SAMPLES = np.concatenate([
    np.geomspace(1e-8, 0.5, 40), 1.0 - np.geomspace(1e-9, 0.5, 40), np.linspace(0.01, 0.99, 99),
    monotonicity._sample_grid(512)[0],
])
U_SAMPLES = np.geomspace(1e-300, 1e3, 120)


class TestFusedKernel:
    def test_bitwise_equal_to_per_side_sums(self):
        for spec in equivalence_specs() + _wide_specs():
            assert cm_kernel(spec, U_SAMPLES).tobytes() == _side_cm_kernel(spec, U_SAMPLES).tobytes(), spec
            assert cm_kernel_t(spec, T_SAMPLES).tobytes() == _side_cm_kernel_t(spec, T_SAMPLES).tobytes(), spec
            positive = _side_power_sum(np.log(T_SAMPLES)[:, None], spec.A, spec.a)
            assert kernel_positive_part(spec, T_SAMPLES).tobytes() == positive.tobytes(), spec
            for t in (0.3, 0.95):
                assert cm_kernel_t(spec, t) == float(_side_cm_kernel_t(spec, np.array([t]))[0])
            assert cm_kernel(spec, 0.2) == float(_side_cm_kernel(spec, [0.2])[0])

    def test_wide_specs_reach_many_and_one_distinct_scales(self):
        counts = {(len(set(s.A + s.B)), s.p + s.q) for s in _wide_specs()}
        assert any(d == 1 and n > 8 for d, n in counts)
        assert any(d == n and n >= 8 for d, n in counts)
        assert any(1 < d < n for d, n in counts)


@pytest.fixture
def kernel_work(monkeypatch):
    """Per call: the distinct scales a kernel evaluation builds its columns from,
    the width of each _phi (the near-one denominators) and each validation."""
    work = {"distinct": [], "phi": [], "validated": 0}
    factors, phi, samples = ratio._factors, ratio._phi, ratio._samples

    def counting_factors(spec):
        f = factors(spec)
        work["distinct"].append(len(f.distinct))
        return f

    def counting_phi(t):
        work["phi"].append(t.shape[1])
        return phi(t)

    def counting_samples(*args):
        work["validated"] += 1
        return samples(*args)

    monkeypatch.setattr(ratio, "_factors", counting_factors)
    monkeypatch.setattr(monotonicity, "_factors", counting_factors)
    monkeypatch.setattr(ratio, "_phi", counting_phi)
    monkeypatch.setattr(ratio, "_samples", counting_samples)
    return work


class TestKernelWork:
    def test_unit_scales_evaluate_one_denominator_column(self, kernel_work):
        spec = build_unweighted([1.5, 2.5, 3.5, 0.7], [0.2, 0.3, 1.0, 0.1])
        assert spec.p + spec.q == 16
        ev = check_kernel_nonneg(spec)
        assert ev.witness.startswith("min normalized")
        assert kernel_work == {"distinct": [1], "phi": [1], "validated": 0}

    def test_distinct_scales_evaluate_every_column(self, kernel_work):
        spec = RatioSpec(A=(1.3, 2.2, 0.7), a=(0.5, 1.5, 2.0), B=(2.1, 1.9, 0.2), b=(1.0, 2.5, 0.9))
        ev = check_kernel_nonneg(spec)
        assert ev.witness.startswith(("min normalized", "margin", "kernel("))
        assert kernel_work == {"distinct": [6], "phi": [6], "validated": 0}

    def test_shared_scales_share_columns(self, kernel_work):
        spec = RatioSpec(A=(2.0, 1.0, 2.0), a=(0.5, 1.5, 2.0), B=(1.0, 4.0), b=(1.0, 2.5))
        check_kernel_nonneg(spec)
        assert kernel_work["distinct"] == [3]
        assert kernel_work["phi"] == [3]

    def test_public_kernels_validate_once(self, kernel_work):
        spec = RatioSpec(A=(1.3, 2.2, 0.7), a=(0.5, 1.5, 2.0), B=(2.1, 2.1), b=(1.0, 2.5))
        # Points on both sides of the switch to the u form.
        cm_kernel_t(spec, np.array([0.2, 0.5, 0.95, 0.999]))
        assert kernel_work["validated"] == 1
        cm_kernel(spec, np.array([0.01, 1.0]))
        kernel_positive_part(spec, 0.5)
        assert kernel_work["validated"] == 3
        assert kernel_work["distinct"] == [4, 4, 4]


def _spread(rng, shape):
    """Entries of mixed sign with magnitudes log-uniform over 1e-300 to 1e300, and some zeros of either sign."""
    a = 10.0 ** rng.uniform(-300.0, 300.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    a[rng.random(shape) < 0.05] = -0.0
    a[rng.random(shape) < 0.05] = 0.0
    return a


class TestRowSums:
    """ratio._row_sums against numpy's own sums of a C-ordered array, bit for bit."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_c_ordered(self, width):
        rng = np.random.default_rng(width)
        for rows in (1, 115, 639):
            # Spread magnitudes, and close ones, where the order of the additions shows.
            close = rng.standard_normal((rows, width + 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, width + 3))
            for a in (_spread(rng, (rows, width + 3)), close):
                for block in (a, np.stack([a, -a]), np.ascontiguousarray(a[:, :width])):
                    for lo in (0, 3) if block.shape[-1] > width else (0,):
                        expected = block[..., lo:lo + width].sum(axis=-1)
                        assert ratio._row_sums(block, lo, lo + width).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", range(1, 17))
    def test_other_layouts_sum_as_c_ordered(self, width):
        # A gathered array is F-ordered, and the kernels build theirs factor by factor
        # (a transposed view); the sums must still be those of the C-ordered copy.
        rng = np.random.default_rng(100 + width)
        columns = rng.standard_normal((639, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(639, 3))
        gathered = (columns * np.array([1.0, -3.0, 7.0]))[:, rng.integers(0, 3, size=width + 2)]
        assert gathered.flags.f_contiguous and not gathered.flags.c_contiguous
        layers = np.empty((2, width + 2, 115)).transpose(0, 2, 1)
        layers[...] = _spread(rng, (2, 115, width + 2))
        for a in (gathered, layers):
            for lo in (0, 2):
                hi = lo + width
                expected = np.ascontiguousarray(a)[..., lo:hi].sum(axis=-1)
                assert ratio._row_sums(a, lo, hi).tobytes() == expected.tobytes()

    def test_f_ordered_numpy_sum_differs_from_eight_columns(self):
        # Why an F-ordered block is copied: numpy sums it column by column, not pairwise.
        rng = np.random.default_rng(7)
        a = np.asfortranarray(rng.standard_normal((639, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(639, 8)))
        assert a.sum(axis=1).tobytes() != np.ascontiguousarray(a).sum(axis=1).tobytes()
        assert ratio._row_sums(a, 0, 8).tobytes() == np.ascontiguousarray(a).sum(axis=1).tobytes()


class TestRowSumsPairwise:
    """_row_sums from 8 to 127 columns of another layout adds whole columns in numpy's
    pairwise order; from 128 on it copies.  Both match the C-ordered sums bit for bit."""

    @pytest.mark.parametrize("width", [8, 9, 15, 16, 17, 23, 24, 39, 64, 100, 127, 128, 129, 200])
    def test_wide_blocks_sum_as_c_ordered(self, width):
        rng = np.random.default_rng(200 + width)
        # Spread magnitudes, and close ones, where the order of the additions shows.
        close = rng.standard_normal((639, width + 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(639, width + 2))
        layers = np.empty((2, width + 2, 115)).transpose(0, 2, 1)
        layers[...] = _spread(rng, (2, 115, width + 2))
        for a in (np.asfortranarray(close), np.asfortranarray(_spread(rng, (639, width + 2))), layers):
            for lo in (0, 2):
                hi = lo + width
                expected = np.ascontiguousarray(a)[..., lo:hi].sum(axis=-1)
                assert ratio._row_sums(a, lo, hi).tobytes() == expected.tobytes()
