"""Entropy, optimizer, and quadrature utilities."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import su2drift
from su2drift import numerics
from su2drift.numerics import (
    OptimizerConfig,
    nelder_mead_maximize,
    sphere_quadrature,
    von_neumann_entropy,
)


def test_entropy_known_values():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    rho = np.diag([0.25, 0.75])
    assert von_neumann_entropy(rho) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-12)


def test_entropy_rejects_invalid_input():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.5, 0.2]))  # trace != 1
    with pytest.raises(ValueError):
        von_neumann_entropy(np.full((2, 2), np.nan))  # non-finite


def test_validate_time():
    assert numerics.validate_time(0) == 0.0
    assert numerics.validate_time("0.25") == 0.25
    for t in (math.nan, math.inf, -math.inf, -1e-12):
        with pytest.raises(ValueError):
            numerics.validate_time(t)


def test_entropy_clamps_tiny_negatives():
    rho = np.diag([1.0 - 1e-13, 1e-13 / 2, 1e-13 / 2 - 1e-14, 1e-14])
    rho[0, 0] = 1.0 - np.sum(np.diag(rho)[1:])
    val = von_neumann_entropy(rho)
    assert 0.0 <= val < 1e-10


def test_nelder_mead_finds_quadratic_maximum():
    res = nelder_mead_maximize(
        lambda x: -((x[0] - 1.5) ** 2) - (x[1] + 0.5) ** 2,
        np.zeros(2),
        OptimizerConfig(restarts=4, seed=0),
    )
    assert res.converged
    assert res.fun == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(res.x, [1.5, -0.5], atol=1e-4)


def test_nelder_mead_escapes_local_maximum():
    # two bumps: restarts must find the taller one away from the start
    def f(x):
        return 1.0 * math.exp(-np.sum((x - 3.0) ** 2)) + 0.4 * math.exp(
            -np.sum(x**2)
        )

    res = nelder_mead_maximize(f, np.zeros(2), OptimizerConfig(restarts=24, seed=1))
    assert res.fun == pytest.approx(1.0, abs=1e-4)


def test_nelder_mead_deterministic():
    f = lambda x: -np.sum((x - 2.0) ** 4)
    a = nelder_mead_maximize(f, np.zeros(3), OptimizerConfig(restarts=6, seed=9))
    b = nelder_mead_maximize(f, np.zeros(3), OptimizerConfig(restarts=6, seed=9))
    assert np.array_equal(a.x, b.x) and a.fun == b.fun


def test_nelder_mead_nfev_counts_every_call():
    # one converging run and one cut by the evaluation budget
    for config in (
        OptimizerConfig(restarts=3, seed=2),
        OptimizerConfig(restarts=2, max_iters=20, seed=2),
    ):
        calls = []

        def f(x):
            calls.append(1)
            return -np.sum((x - 1.0) ** 2) - 10 * (x[1] - x[0] ** 2) ** 2

        res = nelder_mead_maximize(f, np.zeros(3), config)
        assert res.nfev == len(calls)
        assert res.nfev <= config.restarts * config.max_iters + 1


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    for iters in (0, -5):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=1, max_iters=iters)


def test_import_defers_scipy_optimize():
    # scipy.optimize loads on the first search, not with the package
    src = os.path.dirname(os.path.dirname(su2drift.__file__))
    code = "import sys, su2drift; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_sphere_quadrature_exact_rules():
    # average of cos^2(theta) over the sphere is 1/3
    val = sphere_quadrature(lambda th, ph: math.cos(th) ** 2, 16, 32)
    assert val == pytest.approx(1 / 3, abs=1e-12)
    # average of sin^2(theta) cos^2(phi) is 1/3
    val = sphere_quadrature(lambda th, ph: math.sin(th) ** 2 * math.cos(ph) ** 2, 16, 32)
    assert val == pytest.approx(1 / 3, abs=1e-12)
