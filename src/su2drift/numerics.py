"""Shared numerical utilities: input checks, entropies, the small-channel
layer, optimization, quadrature.

The small-channel layer is the one place that turns a channel, given as
(choi, d_in), into a Kraus set, a complement map or an anti-degrading map.
Its Choi matrix has the input index first, C[(k, i), (l, j)] = E(|k><l|)_ij,
and its maps act on the row-major vec, vec(E(rho)) = vec(rho) @ S."""

from __future__ import annotations

import math
import numbers
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
#: xatol and fatol of every Nelder-Mead run.
NM_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 4000
    seed: int = 7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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
    """N once it is checked to be an integer in 1..N_CAPS[op]; checked
    before anything of size 2^N is allocated."""
    if not isinstance(N, numbers.Integral) or isinstance(N, bool):
        raise ValueError(f"N must be an integer, got {N!r}")
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


def kraus_from_choi(choi: np.ndarray, d_in: int) -> np.ndarray:
    """Kraus set of a channel as one read-only (m, d_out, d_in) array, from
    the Hermitian eigendecomposition of its Choi matrix, cut at EIG_CLAMP."""
    evals, evecs = np.linalg.eigh(choi)
    keep = evals > EIG_CLAMP
    d_out = len(choi) // d_in
    ops = (np.sqrt(evals[keep]) * evecs[:, keep]).T.reshape(-1, d_in, d_out).transpose(0, 2, 1)
    ops.setflags(write=False)
    return ops


def complement_map(choi: np.ndarray, d_in: int) -> np.ndarray:
    """Read-only (d_in^2, m^2) row map X of the complement E^c(rho)_kl =
    Tr(E_k rho E_l^dag) over the Kraus set of kraus_from_choi:
    X[ab, km + l] = sum_i E_k[i, a] conj(E_l[i, b])."""
    ops = kraus_from_choi(choi, d_in)
    x = np.einsum("kia,lib->abkl", ops, ops.conj()).reshape(d_in**2, len(ops) ** 2)
    x.setflags(write=False)
    return x


@dataclass
class AntidegradingMap:
    ok: bool  # lambda_min >= 1e-10: a certificate that I_c <= 0 on every input
    lambda_min: float  # smallest eigenvalue of choi
    residual: float  # largest defect of the linear conditions A o E^c = E and A trace-preserving
    iterations: int
    choi: np.ndarray  # A's (m d_out) x (m d_out) Choi matrix, environment index first


def antidegrading_map(choi: np.ndarray, d_in: int) -> AntidegradingMap:
    """Search for a channel A with A o E^c = E, E the channel with Choi
    matrix choi and E^c its complement_map.  If one exists, E is
    anti-degradable: its quantum capacity is 0 and its coherent information
    is <= 0 on every input (Devetak and Shor, CMP 256, 287 (2005)).

    Both conditions on A, and trace preservation, are linear in A's Choi
    matrix C, so they form one affine set, projected onto through one pinv.
    Alternating that projection with a clip of C's eigenvalues to >= 1e-10
    ends when the affine-projected iterate has lambda_min >= 1e-10: C is
    then completely positive with margin, and meets the linear conditions to
    `residual`.  The iteration gives up after 20000 rounds.
    """
    floor, max_iters = 1e-10, 20000
    d = len(choi) // d_in
    s = choi.reshape(d_in, d, d_in, d).transpose(0, 2, 1, 3).reshape(d_in**2, d * d)
    sc = complement_map(choi, d_in)
    m = math.isqrt(sc.shape[1])
    sc = sc.reshape(d_in**2, m, m)
    eye_d, eye_m = np.eye(d), np.eye(m)
    # sum_kl sc[p, k, l] C[(k, i), (l, j)] = s[p, (i, j)], and Tr_out C = 1_m
    lin = np.vstack([
        np.einsum("pkl,ie,jf->pijkelf", sc, eye_d, eye_d).reshape(d_in**2 * d * d, -1),
        np.einsum("ak,bl,ef->abkelf", eye_m, eye_m, eye_d).reshape(m * m, -1),
    ])
    rhs = np.concatenate([s.ravel(), eye_m.ravel()])
    lin_pinv = np.linalg.pinv(lin)
    x = np.zeros(lin.shape[1], dtype=complex)
    for iterations in range(1, max_iters + 1):
        y = x - lin_pinv @ (lin @ x - rhs)
        evals, evecs = np.linalg.eigh(y.reshape(m * d, m * d))
        if evals[0] >= floor:
            break
        x = ((evecs * np.maximum(evals, floor)) @ evecs.conj().T).ravel()
    residual = float(np.abs(lin @ y - rhs).max())
    return AntidegradingMap(bool(evals[0] >= floor), float(evals[0]), residual, iterations,
                            y.reshape(m * d, m * d))


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
                "xatol": NM_TOL,
                "fatol": NM_TOL,
                "maxiter": config.max_iters,
                "maxfev": config.max_iters,
            },
        )
        if -res.fun > best_f:
            best_f, best_x = -res.fun, res.x
        converged = converged or bool(res.success)
        nfev += res.nfev
    return OptimizeResult(best_x, best_f, converged, config.restarts, nfev)


def sphere_quadrature(f, n_theta: int, n_phi: int) -> float:
    """Average of f(theta, phi) over the uniform sphere: Gauss-Legendre in
    cos(theta) with n_theta nodes times a trapezoid rule in phi with n_phi
    points."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    vals = np.array([[f(th, ph) for ph in phis] for th in np.arccos(nodes)])
    return float((weights @ vals.mean(axis=1)) / 2.0)
