"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every op input is a pure function of (seed, op index), so the sequence of
inputs does not depend on how fast the ops run.  A check runs outside the
timed region and returns None for a good output or a one-line reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import ndtr

from su2drift import channel, numerics, three_qubit
from su2drift.channel import ChannelSpec

#: Seed streams: measured ops and set-up (cold warm-up) ops never share inputs.
MEASURED, SETUP = 0, 1

TOL = 1e-10

# --- channel-large ------------------------------------------------------------

LARGE_N = 7
LARGE_TS = (0.25, 0.5, 1.0)


def random_density(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Full-rank random density matrix (normalised Wishart G G^dag)."""
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _collective_spin(n_qubits: int) -> list:
    """Total spin operators S_x, S_y, S_z = sum_i sigma_a^(i) / 2."""
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    out = []
    for p in paulis:
        total = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
        for i in range(n_qubits):
            total += np.kron(np.kron(np.eye(2**i), p), np.eye(2 ** (n_qubits - i - 1))) / 2
        out.append(total)
    return out


def check_channel_output(out: np.ndarray) -> str | None:
    """Hermitian, unit trace, PSD, and equal to its own twirl.

    An operator equals its twirl exactly when it commutes with the three
    collective spin generators, which this checks without the library.
    """
    n_qubits = out.shape[0].bit_length() - 1
    herm = np.abs(out - out.conj().T).max()
    if herm > TOL:
        return f"not Hermitian ({herm:.2e})"
    trace_err = abs(np.trace(out) - 1.0)
    if trace_err > TOL:
        return f"trace deviates from 1 by {trace_err:.2e}"
    low = np.linalg.eigvalsh(out).min()
    if low < -TOL:
        return f"not PSD (min eigenvalue {low:.2e})"
    for s in _collective_spin(n_qubits):
        comm = np.abs(out @ s - s @ out).max()
        if comm > TOL:
            return f"not twirl invariant (commutator {comm:.2e})"
    return None


def _large_input(seed: int, stream: int, k: int):
    rng = np.random.default_rng([seed, 1, stream, k])
    return random_density(rng, LARGE_N), LARGE_TS[k % len(LARGE_TS)]


def _large_op(inp):
    rho, t = inp
    return channel.channel_apply(rho, ChannelSpec(rho.shape[0].bit_length() - 1, t))


def _large_check(inp, out):
    return check_channel_output(out)


# --- choi-sweep --------------------------------------------------------------

CHOI_N = 5


def _choi_input(seed: int, stream: int, k: int):
    return float(np.random.default_rng([seed, 2, stream, k]).uniform(0.05, 1.5))


def _choi_op(t):
    return channel.choi_matrix(ChannelSpec(CHOI_N, t))


def check_choi(choi: np.ndarray) -> str | None:
    """Choi matrix PSD, and its partial trace over the output is the identity."""
    d = 2**CHOI_N
    herm = np.abs(choi - choi.conj().T).max()
    if herm > TOL:
        return f"not Hermitian ({herm:.2e})"
    try:  # succeeds exactly when no eigenvalue is below -1e-9
        np.linalg.cholesky(choi + 1e-9 * np.eye(d * d))
    except np.linalg.LinAlgError:
        return f"not PSD (min eigenvalue {np.linalg.eigvalsh(choi).min():.2e})"
    reduced = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
    err = np.abs(reduced - np.eye(d)).max()
    if err > TOL:
        return f"partial trace deviates from identity by {err:.2e}"
    return None


def _choi_check(t, out):
    return check_choi(out)


# --- mc-oracle ---------------------------------------------------------------

MC_NS = (2, 3, 4)
MC_T = 0.5
MC_SAMPLES = 20_000
#: Gate on max |z| over the d^2 distinct real entries of each Hermitian
#: output (upper-triangle real parts, strict-upper imaginary parts).  Each
#: |z| exceeds Z_GATE with probability 2(1 - Phi(6)) = 2.0e-9, so by the
#: union bound over the 16 + 64 + 256 = 336 entries of one op a correct
#: sampler fails an op with probability at most 6.6e-7, whatever the order
#: of its random draws.
Z_GATE = 6.0
MC_FALSE_ALARM_PER_OP = 2.0 * (1.0 - float(ndtr(Z_GATE))) * sum(4**n for n in MC_NS)


def _mc_input(seed: int, stream: int, k: int):
    rng = np.random.default_rng([seed, 3, stream, k])
    states = [random_density(rng, n) for n in MC_NS]
    return states, int(rng.integers(1, 2**31))


def _mc_op(inp):
    states, mc_seed = inp
    return [
        channel.monte_carlo_channel(rho, ChannelSpec(n, MC_T), MC_SAMPLES, mc_seed + n)
        for n, rho in zip(MC_NS, states)
    ]


def max_abs_z(result, reference: np.ndarray) -> float:
    """Largest |z| over the distinct real entries of a Hermitian estimate."""
    upper = np.triu_indices(reference.shape[0])
    strict = np.triu_indices(reference.shape[0], 1)
    z_re = (result.mean.real - reference.real)[upper] / result.stderr_re[upper]
    z_im = (result.mean.imag - reference.imag)[strict] / result.stderr_im[strict]
    return float(np.abs(np.concatenate((z_re, z_im))).max())


def _mc_check(inp, out):
    states, _ = inp
    for n, rho, result in zip(MC_NS, states, out):
        z = max_abs_z(result, channel.channel_apply(rho, ChannelSpec(n, MC_T)))
        if not z <= Z_GATE:
            return f"N={n}: max |z| = {z:.2f} exceeds {Z_GATE}"
    return None


# --- three-capacity ----------------------------------------------------------

#: Fixed objective-evaluation budget: a solve costs about the same at every t.
CAPACITY_CONFIG = numerics.OptimizerConfig(restarts=1, max_iters=500, seed=7)
#: One row below the coherent-information threshold (between t = 0.2 and 0.3)
#: and one above it, so every op does the same mix of converging and
#: budget-bound solves.
CAPACITY_T_RANGES = ((0.05, 0.2), (0.4, 1.5))


def _capacity_input(seed: int, stream: int, k: int):
    rng = np.random.default_rng([seed, 4, stream, k])
    return tuple(float(rng.uniform(lo, hi)) for lo, hi in CAPACITY_T_RANGES)


def _capacity_op(ts):
    return [
        (
            three_qubit.maximize_coherent_info(t, CAPACITY_CONFIG),
            three_qubit.maximize_holevo(t, config=CAPACITY_CONFIG),
        )
        for t in ts
    ]


def check_capacity_row(t: float, ci, hol) -> str | None:
    """Re-evaluate both reported optima through the validated public API."""
    tol = 1e-9
    family = three_qubit.coherent_information(np.diag([ci.epsilon, 1 - ci.epsilon, 0.0]), t)
    if abs(ci.value - max(family, ci.general_value)) > tol:
        return f"t={t:.4f}: coherent information {ci.value} != re-evaluated {family}"
    if not -tol <= ci.value <= 1 + tol:
        return f"t={t:.4f}: coherent information {ci.value} outside [0, 1]"
    chi = three_qubit.holevo_chi(hol.ensemble, t)
    if abs(chi - hol.family_capacity) > tol:
        return f"t={t:.4f}: Holevo chi {hol.family_capacity} != re-evaluated {chi}"
    if not max(chi, 0.0) - tol <= hol.capacity <= three_qubit.LOG2_3 + tol:
        return f"t={t:.4f}: capacity {hol.capacity} outside [max(chi, 0), log2 3]"
    return None


def _capacity_check(ts, out):
    for t, (ci, hol) in zip(ts, out):
        reason = check_capacity_row(t, ci, hol)
        if reason:
            return reason
    return None


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int, int, int], Any]  # (seed, stream, op index)
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], "str | None"]
    mc_samples_per_op: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("channel-large", _large_input, _large_op, _large_check),
        Workload("choi-sweep", _choi_input, _choi_op, _choi_check),
        Workload("mc-oracle", _mc_input, _mc_op, _mc_check, MC_SAMPLES * len(MC_NS)),
        Workload("three-capacity", _capacity_input, _capacity_op, _capacity_check),
    )
}
