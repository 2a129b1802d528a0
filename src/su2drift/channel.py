"""The correlated-rotation diffusion channel on N qubits.

The channel is the twirl followed by N-1 diffusion steps, step i acting on
the trailing qubit blocks of coupling convention i.  It runs on block
arrays (see coupling): the input is twirled into convention 1, each step
mixes the total-momentum axis elementwise with transfer amplitudes R(t),
read off a t-free kernel of 6j weights built once per (N, step), the
convention is raised between steps, and the convention-(N-1) result is
embedded as a dense matrix.  channel_apply validates its input; the
unchecked linear core _apply_linear also serves the Choi matrix and the
three-qubit bridge.  A Monte Carlo integrator over the same noise model
is an independent oracle: it draws independent samples, each a Markov chain
of rotations along the register, and conjugates them in cache-sized slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import coupling, numerics, su2
from .halfint import twice_labels
from .wigner import _sixj_t, triangle_ok

#: Samples whose group elements monte_carlo_channel draws per chunk, at
#: every N: a chunk holds only its N quaternions and 2x2 matrices per sample.
MC_CHUNK = 20000
#: Complex entries (1 MB) of one (slice, 2^N, 2^N) array conjugated by
#: monte_carlo_channel: a slice stays in cache at any sample count.
MC_SLICE_ENTRIES = 1 << 16
#: Added to each standard error in max_deviation_sigma, so an entry with
#: zero sample variance does not divide by zero.
STDERR_FLOOR = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """Qubit count and diffusion time of one channel instance; n is capped
    at numerics.N_CAPS["apply"]."""

    n: int
    t: float

    def __post_init__(self):
        numerics.validate_n(self.n, "apply")
        numerics.validate_time(self.t)


@lru_cache(maxsize=1 << 16)
def _r_weights(tJ_out, tj1p, tj2p, tJ_in, tj1, tj2) -> tuple:
    """t-free terms ((tj, w), ...) of R(t) = sum w exp(-j(j+1)t/2), j = tj/2,
    from twice-j labels; () on a triangle violation."""
    if not (triangle_ok(tj1, tj2, tJ_in) and triangle_ok(tj1p, tj2p, tJ_out)):
        return ()
    sign = -1.0 if ((tJ_out - tJ_in) // 2) % 2 else 1.0
    return tuple(
        (tj, sign * (tJ_out + 1) * (tj + 1)
         * _sixj_t(tj1, tJ_in, tj2, tj2p, tj, tj1p) * _sixj_t(tj1, tj1p, tj, tj2p, tj2, tJ_out))
        for tj in range(abs(tj2 - tj2p), tj2 + tj2p + 1, 2)
    )


def r_coefficient(tJ_out, tj1p, tj2p, tJ_in, tj1, tj2, t) -> float:
    """Transfer amplitude R(t) redistributing block-J weight under a step,
    from twice-j labels and a finite, non-negative time t.

    Finite character-weighted 6j sum over j in [|j2-j2'|, j2+j2'];
    triangle violations yield 0.
    """
    labels = twice_labels(tJ_out, tj1p, tj2p, tJ_in, tj1, tj2)
    t = numerics.validate_time(t)
    return float(sum(w * su2.heat_coefficient(tj, t) for tj, w in _r_weights(*labels)))


@lru_cache(maxsize=64)
def _step_kernel(N: int, i: int) -> np.ndarray:
    """Read-only t-free kernel K[L, J', J, a, a'] of the i-th diffusion step.

    R(t) from block J to J' for the paths a, a' is
    sum_L exp(-L(L+1)t/2) K[L, J', J, a, a']: the right totals of a and a'
    share parity, so every j of the 6j sum is an integer L <= N - i.
    """
    conv = coupling.convention(N, i)
    tjs, types = conv.tjs, conv.block_types
    kernel = np.zeros((N - i + 1, len(tjs), len(tjs), len(types), len(types)))
    for o, j, b, c in np.ndindex(kernel.shape[1:]):
        for tl, w in _r_weights(tjs[o], *types[c], tjs[j], *types[b]):
            kernel[tl // 2, o, j, b, c] = w
    kernel = kernel[..., conv.type_of[:, None], conv.type_of]
    kernel.setflags(write=False)
    return kernel


def apply_diffusion_step(blocks: np.ndarray, N: int, i: int, t: float) -> np.ndarray:
    """Apply the i-th diffusion step to a convention-i block array.

    Each P_J^{a,a'} maps to sum_{J'} R(t) P_{J'}^{a,a'}, where the block
    momenta entering R are the left and right totals of the paths a, a'.
    """
    kernel = _step_kernel(N, i)
    heat = [su2.heat_coefficient(2 * L, t) for L in range(len(kernel))]
    mix = np.tensordot(heat, kernel, 1)
    return np.einsum("ojab,...jab->...oab", mix, blocks)


def channel_on_blocks(blocks: np.ndarray, N: int, t: float) -> np.ndarray:
    """Diffusion steps 1..N-1 on a convention-1 block array.

    Step i runs in convention i, so the array is raised between steps and
    the result is in convention N-1.
    """
    blocks = apply_diffusion_step(blocks, N, 1, t)
    for i in range(2, N):
        blocks = apply_diffusion_step(coupling.raise_convention(blocks, N, i - 1), N, i, t)
    return blocks


def _apply_linear(rho: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """Channel action extended linearly to any operators; batched on leading axes."""
    N = spec.n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2**N, 2**N):
        raise ValueError(f"expected a {2**N}-dimensional matrix")
    if N == 1:
        return np.trace(rho, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) / 2.0
    blocks = channel_on_blocks(coupling._twirl_linear(rho, N), N, spec.t)
    return coupling.embed_blocks(blocks, N, N - 1)


def channel_apply(rho: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """Channel output for a density matrix input (dense mode).

    Rejects an input that is not a 2^N-dimensional density matrix.
    """
    return _apply_linear(numerics.validate_density(rho, 2**spec.n), spec)


def choi_matrix(spec: ChannelSpec) -> np.ndarray:
    """Choi matrix sum_{kl} |k><l| (x) E(|k><l|) on the 2^N input space,
    N <= numerics.N_CAPS["choi"]."""
    d = 2 ** numerics.validate_n(spec.n, "choi")
    out = np.zeros((d * d, d * d), dtype=complex)
    units = np.zeros((d, d, d), dtype=complex)
    for k in range(d):
        # one engine call per input row: units[l] = |k><l| for every l
        units[:] = 0.0
        units[:, k, :] = np.eye(d)
        outs = _apply_linear(units, spec)
        out[k * d:(k + 1) * d] = outs.transpose(1, 0, 2).reshape(d, d * d)
    return out


@dataclass
class MonteCarloResult:
    """Sample mean of the channel output with per-entry standard errors."""

    mean: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    samples: int

    def max_deviation_sigma(self, reference: np.ndarray) -> float:
        """Largest entrywise |mean - reference| in units of standard error."""
        dev_re = np.abs(self.mean.real - reference.real) / (self.stderr_re + STDERR_FLOOR)
        dev_im = np.abs(self.mean.imag - reference.imag) / (self.stderr_im + STDERR_FLOOR)
        return float(max(dev_re.max(), dev_im.max()))


def monte_carlo_channel(
    rho: np.ndarray,
    spec: ChannelSpec,
    samples: int,
    seed: int,
) -> MonteCarloResult:
    """Monte Carlo estimate of the channel output.

    Draws U_1 from Haar, then U_i = U'_i U_{i-1} with U'_i diffusion
    distributed, and averages the input conjugated in slices of about
    MC_SLICE_ENTRIES entries.  Deterministic for a fixed seed; standard
    errors come from running sums of x and x^2 over the float view of the
    outputs (real and imaginary parts interleaved), taken about the first
    sample so that near-constant entries do not cancel catastrophically.
    Rejects an input that is not a 2^N-dimensional density matrix.
    """
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    N, t = spec.n, spec.t
    d = 2**N
    rho = numerics.validate_density(rho, d)
    rng = np.random.default_rng(seed)
    shift = total = squares = None
    step = max(1, MC_SLICE_ENTRIES // d**2)
    done = 0
    while done < samples:
        b = min(MC_CHUNK, samples - done)
        q = su2.haar_quat(rng, b)
        quats = [q]
        for _ in range(1, N):
            if t > 0:
                q = su2.quat_mul(su2.heat_kernel_quat(t, rng, b), q)
            quats.append(q)
        mats = su2.quat_to_matrix(np.stack(quats, axis=1))
        for m in np.split(mats, range(step, b, step)):
            big = m[:, 0]
            for k in range(1, N):
                dim = 2 * big.shape[-1]
                big = (big[:, :, None, :, None] * m[:, k, None, :, None, :]).reshape(-1, dim, dim)
            x = (big @ rho @ big.conj().transpose(0, 2, 1)).view(float)
            if shift is None:
                shift = x[0].copy()
                total, squares = np.zeros_like(shift), np.zeros_like(shift)
            x -= shift
            total += x.sum(axis=0)
            squares += np.einsum("sij,sij->ij", x, x)
        done += b
    mean = total / samples
    var = np.maximum(squares - samples * mean**2, 0.0) / (samples - 1)
    stderr = np.sqrt(var / samples)
    return MonteCarloResult((mean + shift).view(complex), stderr[:, ::2], stderr[:, 1::2], samples)
