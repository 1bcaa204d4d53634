"""The vectorized rules behind the outer quadratures, and the package's import footprint."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import beta as spbeta

import gammaratio
from gammaratio.quadrature import gauss_jacobi, quad


class TestAdaptiveGK21:
    def test_degree_29_exact_on_one_panel(self):
        # K21 integrates polynomials of degree 3 * 10 + 1 = 31 exactly; with
        # limit=1 the first panel's sum is the answer.
        rng = np.random.default_rng(20150127)
        for _ in range(5):
            p = np.polynomial.Polynomial(rng.normal(size=30))
            a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
            exact = p.integ()(b) - p.integ()(a)
            calls = []
            value, _ = quad(lambda x: calls.append(len(x)) or p(x), a, b, limit=1)
            assert calls == [21]
            size = (b - a) * np.abs(p(np.linspace(a, b, 201))).max()
            assert abs(value - exact) <= 1e-14 * size

    def test_reaches_tolerance_in_batches(self):
        # sqrt has an endpoint singularity; every round is one call of f.
        calls = []

        def f(x):
            calls.append(len(x))
            return np.sqrt(x)

        value, err = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-9, limit=100)
        assert abs(value - 2.0 / 3.0) <= err <= 1e-9
        assert all(n % 21 == 0 for n in calls)
        assert len(calls) < sum(calls) // 21

    def test_limit_returns_best_without_raising(self, recwarn):
        # 1/sqrt|x - 1/3| cannot meet 1e-14 within 5 panels: the best sum and
        # its estimate come back, and nothing is raised or warned.
        value, err = quad(lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
                          epsabs=1e-14, epsrel=1e-14, limit=5)
        exact = 2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))
        assert math.isfinite(value) and err > 1e-14
        assert abs(value - exact) <= 10.0 * err
        assert len(recwarn) == 0

    def test_scalar_valued_integrand(self):
        assert quad(lambda x: 2.5, 0.0, 2.0)[0] == pytest.approx(5.0, rel=1e-15)


class TestGaussJacobi:
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.7, 8.2])
    def test_beta_function_closed_form(self, beta):
        # int_0^1 w^beta (1 - w)^k dw = B(beta + 1, k + 1), exact for k <= 2n - 1.
        for n in (10, 20):
            nodes, weights = gauss_jacobi(beta, n)
            assert np.all((nodes > 0.0) & (nodes < 1.0))
            for k in (0, 3, 2 * n - 1):
                exact = spbeta(beta + 1.0, k + 1.0)
                assert weights @ (1.0 - nodes) ** k == pytest.approx(exact, rel=1e-12)


    def test_rules_cached_read_only(self):
        # One eigh per (beta, n): a repeated call returns the same read-only
        # arrays, bitwise equal to a fresh computation.
        nodes, weights = gauss_jacobi(1.7, 10)
        assert gauss_jacobi(1.7, 10)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        fresh_nodes, fresh_weights = gauss_jacobi.__wrapped__(1.7, 10)
        assert np.array_equal(nodes, fresh_nodes) and np.array_equal(weights, fresh_weights)


def test_import_leaves_out_integrate_and_linalg():
    code = (
        "import sys; import gammaratio, gammaratio.cli\n"
        "from gammaratio.foxh import DensityEvaluator\n"
        "spec = gammaratio.RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6))\n"
        "gammaratio.fox_h(spec, 0.01)\n"
        "DensityEvaluator(spec).edge_integral(lambda w: 1.0, 0.3)\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(gammaratio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == ""


def test_package_loads_no_scipy():
    # Start-up, a verdict, a series point (omega = log 2) and a contour point
    # (omega = 8) of the density, the gamma ratio and its derivatives, and
    # the Mellin check all run on the package's own special functions.
    code = (
        "import math, sys; import gammaratio, gammaratio.cli\n"
        "from gammaratio import specfun\n"
        "spec = gammaratio.RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6))\n"
        "gammaratio.classify(spec)\n"
        "rho = gammaratio.derive(spec).rho\n"
        "gammaratio.fox_h(spec, rho * math.exp(-math.log(2.0)))\n"
        "gammaratio.fox_h(spec, rho * math.exp(-8.0))\n"
        "gammaratio.gamma_ratio(spec, 1.3)\n"
        "gammaratio.log_ratio_derivative(spec, 1.3, order=2)\n"
        "specfun.polygamma(12, 0.5)\n"
        "gammaratio.mellin_check(spec, 2.0)\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(gammaratio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == ""
