"""Decision procedures for logarithmic complete monotonicity.

Given a :class:`~gammaratio.ratio.RatioSpec` this module evaluates the four
necessary conditions, three practical sufficient conditions for kernel
nonnegativity, a sampled kernel-nonnegativity check with a three-valued
outcome, and assembles everything into a classification verdict.  It also
provides the subset-parity constructor that builds provably monotone
unit-scaling ratios from factor exponent pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .ratio import (
    _KERNEL_T_SWITCH,
    REL_TOL,
    DerivedInvariants,
    RatioSpec,
    _factors,
    _kernel_u,
    _power_terms,
    _row_sums,
    _stirling_table,
    derive,
)
from .specfun import _digamma

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
# k! p_k decides the t -> 1 sign above this fraction of its monomial magnitudes.
_TAYLOR_TOL = 1e-10


class _Witness:
    """The witness field of ConditionEvidence.  A deferred template is formatted on
    the first read and the text stored in the instance dict, which answers every
    later read: a descriptor without __set__ yields to the instance dict.  Read on
    the class it raises AttributeError, so the dataclass field has no default."""

    def __get__(self, obj, cls=None):
        if obj is None:
            raise AttributeError("witness")
        d = obj.__dict__
        deferred = d.get("_deferred")
        if deferred is not None:
            # A concurrent reader may format the same text too; the last store wins, unchanged.
            d["witness"] = deferred[0].format(*deferred[1])
            d.pop("_deferred", None)
        try:
            return d["witness"]
        except KeyError:
            raise AttributeError("witness") from None


@dataclass(frozen=True, init=False)
class ConditionEvidence:
    """Outcome of one condition check with a human-readable witness.

    ``ConditionEvidence(condition_id, status, witness=None)`` holds a finished
    witness.  Given values after it, the witness is a ``str.format`` template,
    formatted with them on the first read of ``.witness`` and kept: most callers
    read only the statuses, and formatting floats costs more than the check.
    Equality, hashing, repr, ``dataclasses.asdict`` and pickling read the
    witness, so they see the finished text either way.
    """

    condition_id: str
    status: str
    witness: str | None = _Witness()

    def __init__(self, condition_id: str, status: str, witness: str | None = None, *values) -> None:
        # Written to the instance dict: the frozen dataclass's own __init__ sets
        # each field through object.__setattr__, at several times the cost.
        d = self.__dict__
        d["condition_id"] = condition_id
        d["status"] = status
        if values:
            d["_deferred"] = witness, values
        else:
            d["witness"] = witness

    def __getstate__(self) -> dict:
        return {"condition_id": self.condition_id, "status": self.status, "witness": self.witness}


# The kernel evidence of a spec whose two factor multisets are identical.
_IDENTICAL = ConditionEvidence(Q_NONNEG, HOLDS, "numerator and denominator factors identical; kernel vanishes")


@dataclass(frozen=True, init=False)
class Verdict:
    classification: str
    evidence: tuple[ConditionEvidence, ...]
    derived: DerivedInvariants

    def __init__(self, classification: str, evidence: tuple[ConditionEvidence, ...],
                 derived: DerivedInvariants) -> None:
        d = self.__dict__
        d["classification"] = classification
        d["evidence"] = evidence
        d["derived"] = derived

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
    return _necessary(_summary(spec))


class _Summary(NamedTuple):
    """What the condition checks read of a spec's factors, built once per classify:
    derive's invariants and their equal-sum test, the ratios a/A, b/B and (b - 1)/B,
    the reciprocals 1/A and 1/B, the least a/A and b/B with how many factors come
    within REL_TOL of them, the first index of the greatest a/A and of the least
    (b - 1)/B, and whether the two factor multisets are identical.  Each float is
    the expression a check would evaluate on its own, so the evidence is the same
    whether a check reads a shared summary or builds one."""

    inv: DerivedInvariants
    sums_equal: bool
    ratio_a: list[float]
    ratio_b: list[float]
    ratio_b1: list[float]
    recip_A: list[float]
    recip_B: list[float]
    min_a: float
    min_b: float
    count_min_a: int
    count_min_b: int
    i_max_a: int
    j_min_b1: int
    identical: bool


def _summary(spec: RatioSpec) -> _Summary:
    inv = derive(spec)
    ratio_a = [ai / Ai for ai, Ai in zip(spec.a, spec.A)]
    ratio_b = [bj / Bj for bj, Bj in zip(spec.b, spec.B)]
    ratio_b1 = [(bj - 1.0) / Bj for bj, Bj in zip(spec.b, spec.B)]
    min_a, min_b = min(ratio_a), min(ratio_b)
    return _Summary(
        inv, inv.sums_equal(), ratio_a, ratio_b, ratio_b1,
        [1.0 / Ai for Ai in spec.A], [1.0 / Bj for Bj in spec.B], min_a, min_b,
        len([r for r in ratio_a if r <= min_a + REL_TOL]), len([r for r in ratio_b if r <= min_b + REL_TOL]),
        ratio_a.index(max(ratio_a)), ratio_b1.index(min(ratio_b1)),
        # fsum rounds the exact sum, so identical multisets have equal sums to the bit.
        inv.sum_A == inv.sum_B and identical_factor_multisets(spec),
    )


def _necessary(s: _Summary) -> list[ConditionEvidence]:
    inv = s.inv
    out = []

    ok = s.sums_equal
    out.append(ConditionEvidence(NEC_A, HOLDS if ok else FAILS, "sum_A={!r}, sum_B={!r}", inv.sum_A, inv.sum_B))

    ok = inv.rho_at_most_one()
    out.append(ConditionEvidence(NEC_B, HOLDS if ok else FAILS, "rho={!r}", inv.rho))

    ok = inv.mu >= -REL_TOL
    out.append(ConditionEvidence(NEC_C, HOLDS if ok else FAILS, "mu={!r}", inv.mu))

    min_a, min_b = s.min_a, s.min_b
    ok = min_a <= min_b + REL_TOL
    out.append(ConditionEvidence(NEC_D, HOLDS if ok else FAILS, "min(a/A)={!r}, min(b/B)={!r}", min_a, min_b))
    return out


def check_sufficient_a(spec: RatioSpec) -> ConditionEvidence:
    """Sufficient condition (a): equal scale sums and a gap of one.

    Requires max(a_i/A_i) <= min((b_j - 1)/B_j) together with
    sum(A) = sum(B).
    """
    return _sufficient_a(_summary(spec))


def _sufficient_a(s: _Summary) -> ConditionEvidence:
    if not s.sums_equal:
        return ConditionEvidence(SUF_A, FAILS, "sum_A={!r} != sum_B={!r}", s.inv.sum_A, s.inv.sum_B)
    i_max, j_min = s.i_max_a, s.j_min_b1
    lhs, rhs = s.ratio_a[i_max], s.ratio_b1[j_min]
    ok = lhs <= rhs + REL_TOL
    return ConditionEvidence(
        SUF_A, HOLDS if ok else FAILS, "max(a/A)={!r} at i={}, min((b-1)/B)={!r} at j={}", lhs, i_max, rhs, j_min
    )


def check_sufficient_b(spec: RatioSpec) -> ConditionEvidence:
    """Sufficient condition (b); order-sensitive, index p is the last entry.

    Requires p = q, equal scale sums, A_i >= B_i for i < p,
    max_{k<p} b_k/B_k <= (b_p - 1)/B_p and a_i/A_i <= (b_i - 1)/B_i for all i.
    """
    return _sufficient_b(spec, _summary(spec))


def _sufficient_b(spec: RatioSpec, s: _Summary) -> ConditionEvidence:
    if spec.p != spec.q:
        return ConditionEvidence(SUF_B, NOT_APPLICABLE, "p={} != q={}", spec.p, spec.q)
    if not s.sums_equal:
        return ConditionEvidence(SUF_B, FAILS, "sum_A={!r} != sum_B={!r}", s.inv.sum_A, s.inv.sum_B)
    p = spec.p
    for i in range(p - 1):
        if spec.A[i] < spec.B[i] - REL_TOL:
            return ConditionEvidence(SUF_B, FAILS, "A[{0}]={1!r} < B[{0}]={2!r}", i, spec.A[i], spec.B[i])
    ratio_a, ratio_b, ratio_b1 = s.ratio_a, s.ratio_b, s.ratio_b1
    last = ratio_b1[p - 1]
    for k in range(p - 1):
        if ratio_b[k] > last + REL_TOL:
            return ConditionEvidence(SUF_B, FAILS, "b[{0}]/B[{0}]={1!r} > (b[p-1]-1)/B[p-1]={2!r}", k, ratio_b[k], last)
    for i in range(p):
        if ratio_a[i] > ratio_b1[i] + REL_TOL:
            return ConditionEvidence(
                SUF_B, FAILS, "a[{0}]/A[{0}]={1!r} > (b[{0}]-1)/B[{0}]={2!r}", i, ratio_a[i], ratio_b1[i]
            )
    return ConditionEvidence(SUF_B, HOLDS, "all {} factor inequalities satisfied", p)


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
    return _sufficient_c(spec, _summary(spec))


def _sufficient_c(spec: RatioSpec, s: _Summary) -> ConditionEvidence:
    if spec.p != spec.q:
        return ConditionEvidence(SUF_C, NOT_APPLICABLE, "p={} != q={}", spec.p, spec.q)
    p = spec.p
    chains = (("a/A", s.ratio_a), ("b/B", s.ratio_b), ("1/A", s.recip_A), ("1/B", s.recip_B))
    for name, vals in chains:
        idx = _is_ascending(vals)
        if idx is not None:
            return ConditionEvidence(
                SUF_C, FAILS, "chain {} not ascending at index {}: {!r} > {!r}", name, idx, vals[idx], vals[idx + 1]
            )
    pref_a = pref_b = pref_ia = pref_ib = 0.0
    for k in range(p):
        pref_a += s.ratio_a[k]
        pref_b += s.ratio_b[k]
        if pref_a > pref_b + REL_TOL * max(1.0, pref_b):
            return ConditionEvidence(SUF_C, FAILS, "prefix sum a/A up to k={}: {!r} > {!r}", k, pref_a, pref_b)
        pref_ia += s.recip_A[k]
        pref_ib += s.recip_B[k]
        if pref_ia > pref_ib + REL_TOL * max(1.0, pref_ib):
            return ConditionEvidence(SUF_C, FAILS, "prefix sum 1/A up to k={}: {!r} > {!r}", k, pref_ia, pref_ib)
    return ConditionEvidence(SUF_C, HOLDS, "all chains and {} prefix sums satisfied", p)


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
    return spec.p == spec.q and sorted(zip(spec.A, spec.a)) == sorted(zip(spec.B, spec.b))


def _endpoint_zero_sign(spec: RatioSpec, s: _Summary | None = None) -> tuple[int, str, tuple]:
    """Analytic sign of the kernel as t -> 0.

    The kernel behaves like m_a t^alpha* - m_b t^beta* with alpha*, beta*
    the smallest shift-to-scale ratios and m the multiplicities; a strict
    gap or a multiplicity imbalance decides the sign.  Returns (+1, 0, -1),
    0 meaning undecided, and a witness as a str.format template and its values,
    as ConditionEvidence takes them.  s is the spec's summary, built here if not given.
    """
    s = _summary(spec) if s is None else s
    alpha, beta = s.min_a, s.min_b
    if alpha < beta - REL_TOL:
        return 1, "t->0: kernel ~ t^{!r} dominates t^{!r}", (alpha, beta)
    if alpha > beta + REL_TOL:
        return -1, "t->0: kernel ~ -t^{!r} dominates t^{!r}", (beta, alpha)
    m_a, m_b = s.count_min_a, s.count_min_b
    if m_a > m_b:
        return 1, "t->0: tied exponents, multiplicities {} > {}", (m_a, m_b)
    if m_a < m_b:
        return -1, "t->0: tied exponents, multiplicities {} < {}", (m_a, m_b)
    return 0, "t->0: tied exponents and multiplicities ({})", (m_a,)


def _endpoint_one_sign(spec: RatioSpec, s: _Summary | None = None) -> tuple[int, str, tuple]:
    """Analytic sign of the kernel as t -> 1 (u -> 0 in the Laplace variable).

    Decided by the 1/u coefficient sum(A) - sum(B) if nonzero, otherwise by
    the first Taylor coefficient p_k of the kernel distinguishable from zero.
    The coefficients come as one table of k! p_k, k < _SERIES_TERMS, built
    only for equal sums.  Returns the sign and a witness template and its
    values, as _endpoint_zero_sign.  s is the spec's summary, built here if not given.
    """
    s = _summary(spec) if s is None else s
    if not s.sums_equal:
        sum_diff = s.inv.sum_A - s.inv.sum_B
        return (1 if sum_diff > 0 else -1), "t->1: kernel ~ {!r}/u", (sum_diff,)
    md, magnitudes = _stirling_table(spec, _SERIES_TERMS - 1)
    for k, (coef, size) in enumerate(zip(md.tolist(), magnitudes.tolist())):
        if abs(coef) > _TAYLOR_TOL * size:
            sign = 1 if coef > 0 else -1
            return sign, "t->1: first nonzero Taylor coefficient p_{}={!r}", (k, coef / math.factorial(k))
    return 0, "t->1: Taylor coefficients vanish through order {}", (_SERIES_TERMS - 1,)


@functools.lru_cache(maxsize=8)
def _sample_grid(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only samples t of check_kernel_nonneg, their log t, and the t >= _KERNEL_T_SWITCH mask.

    The first grid_size - 1 points are the uniform interior grid k/grid_size;
    the geometric tails toward t = 0 and t = 1 follow.
    """
    uniform = np.arange(1, grid_size) / grid_size
    geo = np.geomspace(1e-6, 1.0 / grid_size, _GEOMETRIC_POINTS)
    grid = np.concatenate([uniform, geo, 1.0 - geo])
    logt = np.log(grid)
    near_one = grid >= _KERNEL_T_SWITCH
    for arr in (grid, logt, near_one):
        arr.flags.writeable = False
    return grid, logt, near_one


@functools.lru_cache(maxsize=8)
def _near_one_u(grid_size: int) -> np.ndarray:
    """Read-only u = -log t at the samples t >= _KERNEL_T_SWITCH of _sample_grid(grid_size)."""
    _, logt, near_one = _sample_grid(grid_size)
    u = -logt[near_one]
    u.flags.writeable = False
    return u


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
    short of full certification is reported as numerically undecided, and
    so is an interior sample where the positive part underflows to 0, since
    no sign can be read there.

    A negative t -> 0 sign fails before any t -> 1 work.  The grid is cached
    per grid_size, and the positive part is both the kernel's first sum and
    the envelope (point by point `cm_kernel_t` and `kernel_positive_part`).
    The samples take one pass over all p + q factors, with one denominator
    column per distinct scale, and are not validated again.
    """
    return _kernel_nonneg(spec, _summary(spec), grid_size, refine_tol)


def _kernel_nonneg(spec: RatioSpec, s: _Summary, grid_size: int, refine_tol: float) -> ConditionEvidence:
    if grid_size < 64:
        raise DomainError(f"check_kernel_nonneg: grid_size={grid_size} must be >= 64")
    if s.identical:
        return _IDENTICAL

    sign0, wit0, val0 = _endpoint_zero_sign(spec, s)
    if sign0 < 0:
        return ConditionEvidence(Q_NONNEG, FAILS, wit0, *val0)
    sign1, wit1, val1 = _endpoint_one_sign(spec, s)
    if sign1 < 0:
        return ConditionEvidence(Q_NONNEG, FAILS, wit1, *val1)

    grid, logt, near_one = _sample_grid(grid_size)
    f = _factors(spec)
    terms = _power_terms(f, logt)
    positive = _row_sums(terms, 0, spec.p)
    kernel = positive - _row_sums(terms, spec.p, len(f.scales))
    kernel[near_one] = _kernel_u(f, _near_one_u(grid_size))
    underflow = positive == 0.0
    # Where the positive part underflows there is no envelope: the sample reads 0,
    # so it can neither fail the check nor certify it.
    normalized = kernel / np.where(underflow, np.inf, positive)

    i_min = int(normalized.argmin())
    if normalized[i_min] < -10.0 * refine_tol:
        return ConditionEvidence(Q_NONNEG, FAILS, "kernel({!r}) = {!r} < 0", float(grid[i_min]), float(kernel[i_min]))
    n_interior = grid_size - 1
    if underflow[:n_interior].any():
        t_zero = float(grid[int(np.argmax(underflow))])
        return ConditionEvidence(
            Q_NONNEG, UNDECIDED, "positive part underflows to 0 at t={!r}; no sign can be read", t_zero
        )
    i_int = int(normalized[:n_interior].argmin())
    interior_min = float(normalized[i_int])
    t_int = float(grid[i_int])
    if interior_min >= refine_tol and sign0 > 0 and sign1 > 0:
        return ConditionEvidence(
            Q_NONNEG, HOLDS, "min normalized interior sample {!r} at t={!r}; " + wit0 + "; " + wit1,
            interior_min, t_int, *val0, *val1,
        )
    if sign0 == 0:
        return ConditionEvidence(Q_NONNEG, UNDECIDED, wit0, *val0)
    if sign1 == 0:
        return ConditionEvidence(Q_NONNEG, UNDECIDED, wit1, *val1)
    return ConditionEvidence(Q_NONNEG, UNDECIDED, "margin {!r} at t={!r}", interior_min, t_int)


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
        [Ai * _digamma(ai) for Ai, ai in zip(spec.A, spec.a)]
        + [-Bj * _digamma(bj) for Bj, bj in zip(spec.B, spec.b)]
    )
    ok = limit >= -REL_TOL * max(1.0, abs(limit))
    return ConditionEvidence(BERNSTEIN_LIMIT, HOLDS if ok else FAILS, "limit={!r}", limit)


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
    s = _summary(spec)
    inv = s.inv
    necessary = _necessary(s)
    if s.identical:
        return Verdict(LCM, (*necessary, _IDENTICAL), inv)

    evidence = list(necessary)
    sufficient = [_sufficient_a(s), _sufficient_b(spec, s), _sufficient_c(spec, s)]
    evidence.extend(sufficient)

    if any(ev.status == HOLDS for ev in sufficient):
        kernel_status = HOLDS
    else:
        kernel_ev = _kernel_nonneg(spec, s, grid_size, refine_tol)
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
