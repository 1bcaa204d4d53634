"""Seeded op streams for the four benchmark workloads.

A stream yields cycles: lists of ops with a fixed composition per workload
(the strata below), drawn fresh from one `random.Random` seeded by the
workload name and the seed.  The same seed gives the same ops; a fixed
composition keeps the cost of a cycle close between seeds, so that runs with
different seeds measure the same mix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import gammaratio as gr

# Copies of the tests/conftest.py fixture specs, as (A, a, B, b).
FIXTURES = {
    "spec_mixed_scale": ((2, 3, 1), (0.4, 2.4, 0.9), (1, 5), (2, 6)),
    "spec_paired": ((2, 3, 1.4), (0.8, 8, 2.3), (1, 2.4, 3), (1.5, 7.8, 11)),
    "spec_bernstein_only": ((4, 2), (0.7, 1.8), (3, 1), (0.6, 1.2)),
    "spec_equal_scales": ((3, 2.2, 1.4), (0.8, 1.8, 2.3), (3, 2.2, 1.4), (1.2, 1.7, 2.5)),
    "spec_inverse_x": ((1,), (0,), (1,), (1,)),
}

# Verdicts the acceptance suite pins for the fixtures.
FIXTURE_VERDICTS = {
    "spec_mixed_scale": "LCM",
    "spec_paired": "LCM",
    "spec_bernstein_only": "BERNSTEIN_DERIVATIVE",
    "spec_equal_scales": "LCM",
    "spec_inverse_x": "LCM",
}

WORKLOADS = ("classify-survey", "density-grid", "density-scatter", "identity-checks")

# Frequency bands of omega = log(rho/x) that select the three fox_h paths:
# plain adaptive head, cos/sin oscillatory head, and the shifted contour.
# The plain band starts at 0.01 because the oracle's series in x/rho takes
# seconds per point closer to rho.
OMEGA_BANDS = {"plain": (0.01, 0.05), "qawo": (0.05, 6.0), "shift": (6.0, 16.0)}


@dataclass(frozen=True)
class Op:
    """One timed unit of work.

    kind is "classify", "fox_h" or a CLI command; stratum names the part of
    the workload the op was drawn from; x is the fox_h point or the single
    CLI grid point (None for the default grid).
    """

    kind: str
    stratum: str
    spec: gr.RatioSpec
    x: float | None = None


def fixture(name: str) -> gr.RatioSpec:
    A, a, B, b = FIXTURES[name]
    return gr.RatioSpec(A=A, a=a, B=B, b=b)


def log_rho(spec: gr.RatioSpec) -> float:
    return math.fsum(A * math.log(A) for A in spec.A) - math.fsum(B * math.log(B) for B in spec.B)


def _split(rng: random.Random, total: float, parts: int) -> list[float]:
    w = [rng.uniform(0.2, 1.0) for _ in range(parts)]
    s = math.fsum(w)
    return [total * v / s for v in w]


def _int_split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]


def _with_mu(rng: random.Random, A, a, B, mu: float) -> gr.RatioSpec:
    """Spec with the given scales and numerator shifts whose decay exponent is mu."""
    target = mu + math.fsum(a) - 0.5 * (len(A) - len(B))
    return gr.RatioSpec(A=A, a=a, B=B, b=_split(rng, target, len(B)))


def _unit_spec(rng: random.Random, mu: float, p: int) -> gr.RatioSpec:
    ones = (1.0,) * p
    return _with_mu(rng, ones, [rng.uniform(0.0, 2.0) for _ in range(p)], ones, mu)


def _integer_spec(rng: random.Random, mu: float) -> gr.RatioSpec:
    """Equal integer scale sums of at most 6, so the oracle stays cheap."""
    total = rng.randint(2, 6)
    A = _int_split(rng, total, rng.randint(1, min(3, total)))
    B = _int_split(rng, total, rng.randint(1, min(3, total)))
    return _with_mu(rng, A, [rng.uniform(0.0, 3.0) for _ in A], B, mu)


def _classify_cycle(rng: random.Random, k: int) -> list[Op]:
    ops = []
    for _ in range(8):
        beta = [rng.uniform(0.0, 3.0) for _ in range(rng.randint(1, 4))]
        alpha = [v + rng.uniform(0.05, 3.0) for v in beta]
        ops.append(Op("classify", "unweighted", gr.build_unweighted(alpha, beta)))
    for equal in (True, False) * 6:
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        A = [rng.uniform(0.2, 5.0) for _ in range(p)]
        B = _split(rng, math.fsum(A), q) if equal else [rng.uniform(0.2, 5.0) for _ in range(q)]
        a = [rng.uniform(0.0, 4.0) for _ in range(p)]
        b = [rng.uniform(0.0, 4.0) for _ in range(q)]
        ops.append(Op("classify", "random-equal" if equal else "random", gr.RatioSpec(A=A, a=a, B=B, b=b)))
    for _ in range(3):
        # Entries up to the RatioSpec bound, log-uniform over [0.1, 1e3].
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        A, a, B, b = ([10.0 ** rng.uniform(-1.0, 3.0) for _ in range(n)] for n in (p, p, q, q))
        ops.append(Op("classify", "large", gr.RatioSpec(A=A, a=a, B=B, b=b)))
    name = sorted(FIXTURES)[k % len(FIXTURES)]
    ops.append(Op("classify", name, fixture(name)))
    return ops


def _grid_cycle(rng: random.Random, k: int) -> list[Op]:
    ops = [Op("eval-h", "spec_mixed_scale", fixture("spec_mixed_scale"))]
    ops += [Op("eval-h", "integer", _integer_spec(rng, rng.uniform(1.5, 3.0))) for _ in range(3)]
    return ops


def _scatter_cycle(rng: random.Random, k: int) -> list[Op]:
    ops = []
    for band, (lo, hi) in OMEGA_BANDS.items():
        for stratum in ("unit", "integer"):
            mu = rng.uniform(0.6, 4.0)
            spec = _unit_spec(rng, mu, rng.randint(1, 3)) if stratum == "unit" else _integer_spec(rng, mu)
            omega = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            ops.append(Op("fox_h", f"{band}/{stratum}", spec, math.exp(log_rho(spec) - omega)))
    return ops


def _identity_cycle(rng: random.Random, k: int) -> list[Op]:
    # One op on each fixture, both commands covered, and four seeded
    # one-factor unit-scaling specs.  Their mu lies in [3, 4], where an
    # identities op always takes 86 density points, so the cost of a cycle
    # varies little with the seed.  Sorted by cost the seeded ops sit in the
    # middle of a cycle (above the identities op on spec_mixed_scale, below
    # the verify-measure ops and spec_equal_scales), so the median op of a
    # run is one of them whatever the seed.
    mixed, paired = fixture("spec_mixed_scale"), fixture("spec_paired")
    equal, inverse = fixture("spec_equal_scales"), fixture("spec_inverse_x")
    ops = [
        Op("identities", "spec_mixed_scale", mixed, 0.5 * math.exp(log_rho(mixed))),
        Op("verify-measure", "spec_paired", paired, 2.0),
        Op("identities", "spec_equal_scales", equal, 0.5),
        Op("verify-measure", "spec_inverse_x", inverse, 2.0),
    ]
    for _ in range(4):
        ops.append(Op("identities", "unit", _unit_spec(rng, rng.uniform(3.0, 4.0), 1), rng.uniform(0.2, 0.8)))
    return ops


_CYCLES = {
    "classify-survey": _classify_cycle,
    "density-grid": _grid_cycle,
    "density-scatter": _scatter_cycle,
    "identity-checks": _identity_cycle,
}


def cycles(workload: str, seed: int):
    """Endless stream of op cycles for one workload; each cycle is shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    for k in itertools.count():
        ops = make(rng, k)
        rng.shuffle(ops)
        yield ops


def first_ops(workload: str, seed: int, n_cycles: int) -> list[Op]:
    return [op for cycle in itertools.islice(cycles(workload, seed), n_cycles) for op in cycle]
