"""Decision procedures for logarithmic complete monotonicity.

Given a :class:`~gammaratio.ratio.RatioSpec` this module evaluates the four
necessary conditions, three practical sufficient conditions for kernel
nonnegativity, a sampled kernel-nonnegativity check with a three-valued
outcome, and assembles everything into a classification verdict.  It also
provides the subset-parity constructor that builds provably monotone
unit-scaling ratios from factor exponent pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as sc

from .errors import DomainError
from .ratio import (
    REL_TOL,
    DerivedInvariants,
    RatioSpec,
    _sums_equal,
    cm_kernel_series,
    cm_kernel_t,
    derive,
    kernel_positive_part,
)

# Condition identifiers used in evidence records and reports.
NEC_A = "NEC_A"  # sum(A) = sum(B)
NEC_B = "NEC_B"  # rho <= 1
NEC_C = "NEC_C"  # mu >= 0
NEC_D = "NEC_D"  # min(a/A) <= min(b/B)
SUF_A = "SUF_A"
SUF_B = "SUF_B"
SUF_C = "SUF_C"
Q_NONNEG = "Q_NONNEG"
BERNSTEIN_LIMIT = "BERNSTEIN_LIMIT"

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"
UNDECIDED = "numerically_undecided"

LCM = "LCM"
BERNSTEIN_DERIVATIVE = "BERNSTEIN_DERIVATIVE"
NOT_LCM = "NOT_LCM"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_GRID_SIZE = 512
DEFAULT_REFINE_TOL = 1e-12
_GEOMETRIC_POINTS = 64
MAX_SUBSET_FACTORS = 12
_SERIES_TERMS = 12


@dataclass(frozen=True)
class ConditionEvidence:
    """Outcome of one condition check with a human-readable witness."""

    condition_id: str
    status: str
    witness: str | None = None


@dataclass(frozen=True)
class Verdict:
    classification: str
    evidence: tuple[ConditionEvidence, ...]
    derived: DerivedInvariants

    def find(self, condition_id: str) -> ConditionEvidence | None:
        for ev in self.evidence:
            if ev.condition_id == condition_id:
                return ev
        return None


def check_necessary(spec: RatioSpec) -> list[ConditionEvidence]:
    """The four necessary conditions for W to be l.c.m.

    (A) equal scale sums, (B) support radius rho <= 1, (C) decay exponent
    mu >= 0, (D) rightmost numerator pole not to the right of the rightmost
    denominator pole.  Ties are resolved at REL_TOL in favour of `holds`.
    """
    return _necessary(spec, derive(spec))


def _necessary(spec: RatioSpec, inv: DerivedInvariants) -> list[ConditionEvidence]:
    out = []

    ok = inv.sums_equal()
    out.append(
        ConditionEvidence(NEC_A, HOLDS if ok else FAILS, f"sum_A={inv.sum_A!r}, sum_B={inv.sum_B!r}")
    )

    ok = inv.rho_at_most_one()
    out.append(ConditionEvidence(NEC_B, HOLDS if ok else FAILS, f"rho={inv.rho!r}"))

    ok = inv.mu >= -REL_TOL
    out.append(ConditionEvidence(NEC_C, HOLDS if ok else FAILS, f"mu={inv.mu!r}"))

    min_a = min(ai / Ai for ai, Ai in zip(spec.a, spec.A))
    min_b = min(bj / Bj for bj, Bj in zip(spec.b, spec.B))
    ok = min_a <= min_b + REL_TOL
    out.append(
        ConditionEvidence(NEC_D, HOLDS if ok else FAILS, f"min(a/A)={min_a!r}, min(b/B)={min_b!r}")
    )
    return out


def check_sufficient_a(spec: RatioSpec) -> ConditionEvidence:
    """Sufficient condition (a): equal scale sums and a gap of one.

    Requires max(a_i/A_i) <= min((b_j - 1)/B_j) together with
    sum(A) = sum(B).
    """
    return _sufficient_a(spec, derive(spec))


def _sufficient_a(spec: RatioSpec, inv: DerivedInvariants) -> ConditionEvidence:
    if not inv.sums_equal():
        return ConditionEvidence(
            SUF_A, FAILS, f"sum_A={inv.sum_A!r} != sum_B={inv.sum_B!r}"
        )
    i_max = max(range(spec.p), key=lambda i: spec.a[i] / spec.A[i])
    j_min = min(range(spec.q), key=lambda j: (spec.b[j] - 1.0) / spec.B[j])
    lhs = spec.a[i_max] / spec.A[i_max]
    rhs = (spec.b[j_min] - 1.0) / spec.B[j_min]
    ok = lhs <= rhs + REL_TOL
    witness = f"max(a/A)={lhs!r} at i={i_max}, min((b-1)/B)={rhs!r} at j={j_min}"
    return ConditionEvidence(SUF_A, HOLDS if ok else FAILS, witness)


def check_sufficient_b(spec: RatioSpec) -> ConditionEvidence:
    """Sufficient condition (b); order-sensitive, index p is the last entry.

    Requires p = q, equal scale sums, A_i >= B_i for i < p,
    max_{k<p} b_k/B_k <= (b_p - 1)/B_p and a_i/A_i <= (b_i - 1)/B_i for all i.
    """
    return _sufficient_b(spec, derive(spec) if spec.p == spec.q else None)


def _sufficient_b(spec: RatioSpec, inv: DerivedInvariants | None) -> ConditionEvidence:
    if spec.p != spec.q:
        return ConditionEvidence(SUF_B, NOT_APPLICABLE, f"p={spec.p} != q={spec.q}")
    if not inv.sums_equal():
        return ConditionEvidence(
            SUF_B, FAILS, f"sum_A={inv.sum_A!r} != sum_B={inv.sum_B!r}"
        )
    p = spec.p
    for i in range(p - 1):
        if spec.A[i] < spec.B[i] - REL_TOL:
            return ConditionEvidence(SUF_B, FAILS, f"A[{i}]={spec.A[i]!r} < B[{i}]={spec.B[i]!r}")
    last = (spec.b[p - 1] - 1.0) / spec.B[p - 1]
    for k in range(p - 1):
        if spec.b[k] / spec.B[k] > last + REL_TOL:
            return ConditionEvidence(
                SUF_B, FAILS, f"b[{k}]/B[{k}]={spec.b[k] / spec.B[k]!r} > (b[p-1]-1)/B[p-1]={last!r}"
            )
    for i in range(p):
        bound = (spec.b[i] - 1.0) / spec.B[i]
        if spec.a[i] / spec.A[i] > bound + REL_TOL:
            return ConditionEvidence(
                SUF_B, FAILS, f"a[{i}]/A[{i}]={spec.a[i] / spec.A[i]!r} > (b[{i}]-1)/B[{i}]={bound!r}"
            )
    return ConditionEvidence(SUF_B, HOLDS, f"all {p} factor inequalities satisfied")


def _is_ascending(vals: Sequence[float]) -> int | None:
    """Index of the first descent, or None if ascending within tolerance."""
    for i in range(len(vals) - 1):
        if vals[i] > vals[i + 1] + REL_TOL * max(1.0, abs(vals[i])):
            return i
    return None


def check_sufficient_c(spec: RatioSpec) -> ConditionEvidence:
    """Sufficient condition (c): majorization form, vectors taken as given.

    Requires p = q, the four chains a_i/A_i, b_i/B_i, 1/A_i, 1/B_i ascending
    in the user-given order, and the prefix-sum dominations
    sum_{i<=k} a_i/A_i <= sum_{i<=k} b_i/B_i and
    sum_{i<=k} 1/A_i <= sum_{i<=k} 1/B_i for every k.
    """
    if spec.p != spec.q:
        return ConditionEvidence(SUF_C, NOT_APPLICABLE, f"p={spec.p} != q={spec.q}")
    p = spec.p
    chains = {
        "a/A": [ai / Ai for ai, Ai in zip(spec.a, spec.A)],
        "b/B": [bj / Bj for bj, Bj in zip(spec.b, spec.B)],
        "1/A": [1.0 / Ai for Ai in spec.A],
        "1/B": [1.0 / Bj for Bj in spec.B],
    }
    for name, vals in chains.items():
        idx = _is_ascending(vals)
        if idx is not None:
            return ConditionEvidence(
                SUF_C, FAILS, f"chain {name} not ascending at index {idx}: {vals[idx]!r} > {vals[idx + 1]!r}"
            )
    pref_a = pref_b = pref_ia = pref_ib = 0.0
    for k in range(p):
        pref_a += chains["a/A"][k]
        pref_b += chains["b/B"][k]
        if pref_a > pref_b + REL_TOL * max(1.0, pref_b):
            return ConditionEvidence(
                SUF_C, FAILS, f"prefix sum a/A up to k={k}: {pref_a!r} > {pref_b!r}"
            )
        pref_ia += chains["1/A"][k]
        pref_ib += chains["1/B"][k]
        if pref_ia > pref_ib + REL_TOL * max(1.0, pref_ib):
            return ConditionEvidence(
                SUF_C, FAILS, f"prefix sum 1/A up to k={k}: {pref_ia!r} > {pref_ib!r}"
            )
    return ConditionEvidence(SUF_C, HOLDS, f"all chains and {p} prefix sums satisfied")


def weak_supermajorization(x: Sequence[float], y: Sequence[float]) -> bool:
    """Whether y is weakly supermajorized by x.

    Both vectors are sorted ascending; the relation holds when every prefix
    sum of the sorted x is dominated by the corresponding prefix sum of the
    sorted y.
    """
    xv = [float(v) for v in x]
    yv = [float(v) for v in y]
    if len(xv) != len(yv):
        raise DomainError(f"weak_supermajorization: lengths {len(xv)} != {len(yv)}")
    xs = sorted(xv)
    ys = sorted(yv)
    px = py = 0.0
    for xi, yi in zip(xs, ys):
        px += xi
        py += yi
        if px > py + REL_TOL * max(1.0, abs(px), abs(py)):
            return False
    return True


def identical_factor_multisets(spec: RatioSpec) -> bool:
    """True when the numerator and denominator gamma factors coincide."""
    return sorted(zip(spec.A, spec.a)) == sorted(zip(spec.B, spec.b))


def _endpoint_zero_sign(spec: RatioSpec) -> tuple[int, str]:
    """Analytic sign of the kernel as t -> 0.

    The kernel behaves like m_a t^alpha* - m_b t^beta* with alpha*, beta*
    the smallest shift-to-scale ratios and m the multiplicities; a strict
    gap or a multiplicity imbalance decides the sign.  Returns (+1, 0, -1)
    and a witness; 0 means undecided.
    """
    ra = [ai / Ai for ai, Ai in zip(spec.a, spec.A)]
    rb = [bj / Bj for bj, Bj in zip(spec.b, spec.B)]
    alpha, beta = min(ra), min(rb)
    if alpha < beta - REL_TOL:
        return 1, f"t->0: kernel ~ t^{alpha!r} dominates t^{beta!r}"
    if alpha > beta + REL_TOL:
        return -1, f"t->0: kernel ~ -t^{beta!r} dominates t^{alpha!r}"
    m_a = sum(1 for r in ra if r <= alpha + REL_TOL)
    m_b = sum(1 for r in rb if r <= beta + REL_TOL)
    if m_a > m_b:
        return 1, f"t->0: tied exponents, multiplicities {m_a} > {m_b}"
    if m_a < m_b:
        return -1, f"t->0: tied exponents, multiplicities {m_a} < {m_b}"
    return 0, f"t->0: tied exponents and multiplicities ({m_a})"


def _endpoint_one_sign(spec: RatioSpec) -> tuple[int, str]:
    """Analytic sign of the kernel as t -> 1 (u -> 0 in the Laplace variable).

    Decided by the 1/u coefficient sum(A) - sum(B) if nonzero, otherwise by
    the first Taylor coefficient of the kernel distinguishable from zero.
    """
    sum_A, sum_B = math.fsum(spec.A), math.fsum(spec.B)
    if not _sums_equal(sum_A, sum_B):
        sum_diff = sum_A - sum_B
        return (1 if sum_diff > 0 else -1), f"t->1: kernel ~ {sum_diff!r}/u"
    for k, (coef, mag) in enumerate(cm_kernel_series(spec, _SERIES_TERMS)):
        if abs(coef) > 1e-10 * max(mag, 1e-300):
            sign = 1 if coef > 0 else -1
            return sign, f"t->1: first nonzero Taylor coefficient p_{k}={coef!r}"
    return 0, f"t->1: Taylor coefficients vanish through order {_SERIES_TERMS - 1}"


def check_kernel_nonneg(
    spec: RatioSpec,
    grid_size: int = DEFAULT_GRID_SIZE,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> ConditionEvidence:
    """Sampled nonnegativity of the multiplicative kernel on (0, 1).

    Interior samples are judged relative to the kernel's positive-part
    envelope (both constituent sums are positive and cancellation-free, so
    normalized signs are reliable): `fails` needs a normalized sample below
    -10*refine_tol, `holds` needs every interior sample at or above
    refine_tol.  Because the kernel can vanish to high order at both
    endpoints, the endpoint behaviour is certified analytically (power-law
    comparison at t -> 0, Taylor coefficients at t -> 1) rather than
    sampled; geometric tail samples still count toward `fails`.  Anything
    short of full certification is reported as numerically undecided.
    """
    if grid_size < 64:
        raise DomainError(f"check_kernel_nonneg: grid_size={grid_size} must be >= 64")
    if identical_factor_multisets(spec):
        return ConditionEvidence(
            Q_NONNEG, HOLDS, "numerator and denominator factors identical; kernel vanishes"
        )

    sign0, wit0 = _endpoint_zero_sign(spec)
    sign1, wit1 = _endpoint_one_sign(spec)
    if sign0 < 0:
        return ConditionEvidence(Q_NONNEG, FAILS, wit0)
    if sign1 < 0:
        return ConditionEvidence(Q_NONNEG, FAILS, wit1)

    uniform = np.arange(1, grid_size) / grid_size
    geo = np.geomspace(1e-6, 1.0 / grid_size, _GEOMETRIC_POINTS)
    tails = np.concatenate([geo, 1.0 - geo])
    grid = np.concatenate([uniform, tails])
    normalized = cm_kernel_t(spec, grid) / kernel_positive_part(spec, grid)

    i_min = int(np.argmin(normalized))
    if normalized[i_min] < -10.0 * refine_tol:
        t_bad = float(grid[i_min])
        return ConditionEvidence(
            Q_NONNEG, FAILS, f"kernel({t_bad!r}) = {float(cm_kernel_t(spec, t_bad))!r} < 0"
        )
    interior_min = float(np.min(normalized[: len(uniform)]))
    t_int = float(uniform[int(np.argmin(normalized[: len(uniform)]))])
    if interior_min >= refine_tol and sign0 > 0 and sign1 > 0:
        return ConditionEvidence(
            Q_NONNEG,
            HOLDS,
            f"min normalized interior sample {interior_min!r} at t={t_int!r}; {wit0}; {wit1}",
        )
    reason = wit0 if sign0 == 0 else (wit1 if sign1 == 0 else f"margin {interior_min!r} at t={t_int!r}")
    return ConditionEvidence(Q_NONNEG, UNDECIDED, reason)


def _bernstein_limit_evidence(spec: RatioSpec) -> ConditionEvidence:
    """Sign of the x -> 0 limit of (log W)'.

    The limit involves digamma at the raw shifts; when any shift is zero the
    digamma diverges and no sign can be assigned numerically.
    """
    if any(ai == 0.0 for ai in spec.a) or any(bj == 0.0 for bj in spec.b):
        return ConditionEvidence(
            BERNSTEIN_LIMIT, UNDECIDED, "zero shift present; digamma limit diverges"
        )
    limit = math.fsum(
        [Ai * sc.digamma(ai) for Ai, ai in zip(spec.A, spec.a)]
        + [-Bj * sc.digamma(bj) for Bj, bj in zip(spec.B, spec.b)]
    )
    ok = limit >= -REL_TOL * max(1.0, abs(limit))
    return ConditionEvidence(BERNSTEIN_LIMIT, HOLDS if ok else FAILS, f"limit={limit!r}")


def classify(
    spec: RatioSpec,
    grid_size: int = DEFAULT_GRID_SIZE,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> Verdict:
    """Full classification of a weighted gamma ratio.

    LCM requires all necessary conditions plus a certified nonnegative
    kernel (via a sufficient condition or sampling).  A necessary-condition
    failure rejects the ratio, but the first-log-derivative Bernstein test
    can still upgrade the verdict to BERNSTEIN_DERIVATIVE.  A sufficient
    check coming back undecided never rejects on its own; only a certified
    negative kernel sample or a failed necessary condition can.
    """
    inv = derive(spec)
    evidence: list[ConditionEvidence] = []

    if identical_factor_multisets(spec):
        evidence.extend(_necessary(spec, inv))
        evidence.append(
            ConditionEvidence(
                Q_NONNEG, HOLDS, "numerator and denominator factors identical; kernel vanishes"
            )
        )
        return Verdict(LCM, tuple(evidence), inv)

    necessary = _necessary(spec, inv)
    evidence.extend(necessary)
    sufficient = [_sufficient_a(spec, inv), _sufficient_b(spec, inv), check_sufficient_c(spec)]
    evidence.extend(sufficient)

    if any(ev.status == HOLDS for ev in sufficient):
        kernel_status = HOLDS
    else:
        kernel_ev = check_kernel_nonneg(spec, grid_size=grid_size, refine_tol=refine_tol)
        evidence.append(kernel_ev)
        kernel_status = kernel_ev.status

    if all(ev.status == HOLDS for ev in necessary):
        if kernel_status == HOLDS:
            return Verdict(LCM, tuple(evidence), inv)
        if kernel_status == FAILS:
            return Verdict(NOT_LCM, tuple(evidence), inv)
        return Verdict(INCONCLUSIVE, tuple(evidence), inv)

    # Rejected as l.c.m.; the first log-derivative may still be Bernstein.
    bern = _bernstein_limit_evidence(spec)
    evidence.append(bern)
    if kernel_status == HOLDS and bern.status == HOLDS:
        return Verdict(BERNSTEIN_DERIVATIVE, tuple(evidence), inv)
    return Verdict(NOT_LCM, tuple(evidence), inv)


def build_unweighted(alpha: Sequence[float], beta: Sequence[float]) -> RatioSpec:
    """Unit-scaling spec whose shifts enumerate subset sums by parity.

    Given exponent pairs alpha_i >= beta_i >= 0, every subset J of indices
    contributes the shift sum_{i in J} alpha_i + sum_{i not in J} beta_i;
    even-size subsets go to the numerator, odd-size ones to the denominator.
    The resulting ratio is logarithmically completely monotone because its
    unit-scaling decision function factors as prod_i (t^beta_i - t^alpha_i).
    """
    av = [float(v) for v in alpha]
    bv = [float(v) for v in beta]
    n = len(av)
    if n == 0 or n != len(bv):
        raise DomainError(f"build_unweighted: need equal nonzero lengths, got {n} and {len(bv)}")
    if n > MAX_SUBSET_FACTORS:
        raise DomainError(f"build_unweighted: n={n} exceeds supported bound {MAX_SUBSET_FACTORS}")
    for i, (ai, bi) in enumerate(zip(av, bv)):
        if bi < 0.0:
            raise DomainError(f"build_unweighted: beta[{i}]={bi} must be nonnegative")
        if ai < bi:
            raise DomainError(f"build_unweighted: alpha[{i}]={ai} < beta[{i}]={bi}")
    num_shifts = []
    den_shifts = []
    for mask in range(1 << n):
        shift = math.fsum(av[i] if mask & (1 << i) else bv[i] for i in range(n))
        if bin(mask).count("1") % 2 == 0:
            num_shifts.append(shift)
        else:
            den_shifts.append(shift)
    ones = (1.0,) * len(num_shifts)
    return RatioSpec(A=ones, a=tuple(num_shifts), B=ones, b=tuple(den_shifts))
