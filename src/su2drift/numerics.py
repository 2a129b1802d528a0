"""Shared numerical utilities: input checks, entropies, optimization,
quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

#: Shared eigenvalue clamp used before entropies and PSD checks.
EIG_CLAMP = 1e-12
#: Tolerance of each density-matrix condition in validate_density.
DENSITY_TOL = 1e-10

#: Largest qubit count N of each operation.  "paths": coupling paths and
#: block-array layouts; "basis": dense coupled bases (2^N x 2^N);
#: "apply": every ChannelSpec, so channel_apply and monte_carlo_channel;
#: "choi": the full Choi matrix (4^N x 4^N).
N_CAPS = {"paths": 16, "basis": 10, "apply": 8, "choi": 5}


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 4000
    tolerance: float = 1e-9
    seed: int = 7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


def validate_time(t) -> float:
    """t as a float, once it is checked to be a finite, non-negative
    diffusion time."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"diffusion time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"diffusion time must be non-negative, got {t}")
    return t


def validate_n(N: int, op: str) -> int:
    """N once it is checked to lie in 1..N_CAPS[op]; checked before anything
    of size 2^N is allocated."""
    if not 1 <= N <= N_CAPS[op]:
        raise ValueError(f"N={N} out of range [1, {N_CAPS[op]}] for {op}")
    return N


def validate_density(rho: np.ndarray, dim: int) -> np.ndarray:
    """rho as a complex array, once it is checked to be a dim x dim density
    matrix: finite, Hermitian, unit trace and PSD, each to DENSITY_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.linalg.norm(rho - rho.conj().T) > DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho).real} deviates from 1")
    if np.linalg.eigvalsh(rho).min() < -DENSITY_TOL:
        raise ValueError("density matrix is not PSD")
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr(rho log2 rho) in bits of a density matrix, with tiny
    negatives clamped."""
    rho = np.asarray(rho, dtype=complex)
    return _entropy_fast(validate_density(rho, len(rho)))


def _entropy_fast(rho: np.ndarray) -> float:
    """Entropy without precondition checks, for optimizer hot paths: one
    LAPACK Hermitian eigensolve of the lower triangle, as eigvalsh does,
    without numpy's per-call wrapping."""
    evals, _, info = lapack.zheevd(rho, compute_v=0, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"Hermitian eigensolve failed (info {info})")
    return _entropy_bits(evals.tolist())


def _entropy_bits(evals) -> float:
    """-sum x log2 x in bits over a spectrum given as floats; eigenvalues
    <= EIG_CLAMP, tiny negatives included, contribute 0."""
    s = 0.0
    for x in evals:
        if x > EIG_CLAMP:
            s -= x * math.log2(x)
    return s


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    converged: bool
    restarts_used: int
    nfev: int  # objective evaluations, the initial f(x0) included


def nelder_mead_maximize(f, x0, config: OptimizerConfig = OptimizerConfig()) -> OptimizeResult:
    """Multi-start Nelder-Mead maximization; deterministic for a fixed config.

    Restart k perturbs x0 with seeded Gaussian noise of growing scale and
    polishes the running best; the best point across restarts wins.
    """
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(config.seed)
    best_x, best_f = x0, f(x0)
    nfev = 1
    converged = False
    for k in range(config.restarts):
        if k == 0:
            start = x0
        elif k % 2 == 1:
            start = best_x + rng.normal(scale=0.25 * (1 + k // 4), size=x0.shape)
        else:
            start = x0 + rng.normal(scale=0.5 * (1 + k // 4), size=x0.shape)
        res = optimize.minimize(
            lambda x: -f(x),
            start,
            method="Nelder-Mead",
            options={
                "xatol": config.tolerance,
                "fatol": config.tolerance,
                "maxiter": config.max_iters,
                "maxfev": config.max_iters,
            },
        )
        if -res.fun > best_f:
            best_f, best_x = -res.fun, res.x
        converged = converged or bool(res.success)
        nfev += res.nfev
    return OptimizeResult(best_x, best_f, converged, config.restarts, nfev)


def softmax(x) -> list:
    """Normalised exponentials of a sequence of floats, as a list."""
    top = max(x)
    z = [math.exp(v - top) for v in x]
    total = sum(z)
    return [v / total for v in z]


def sphere_quadrature(f, n_theta: int, n_phi: int) -> float:
    """Average of f(theta, phi) over the uniform sphere: Gauss-Legendre in
    cos(theta) with n_theta nodes times a trapezoid rule in phi with n_phi
    points."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    vals = np.array([[f(th, ph) for ph in phis] for th in np.arccos(nodes)])
    return float((weights @ vals.mean(axis=1)) / 2.0)
