"""SU(2) as unit-quaternion arrays: Haar and heat-kernel sampling, the
heat-kernel density, characters and Wigner D-matrices.

A group element is a unit quaternion q = (w, x, y, z), and a batch of them
is a (..., 4) array; q stands for the matrix
U = w*I - i*(x*sx + y*sy + z*sz), so Tr U = 2w and the class angle
satisfies w = cos(xi/2).  quat_mul composes elements, quat_to_matrix gives
their 2x2 matrices, quat_to_adjoint their real 4x4 action on the Pauli
operators, and class angles are plain floats or float arrays.
The diffusion density at time t is expanded in characters over all irreps
j = 0, 1/2, 1, ... with coefficients exp(-j(j+1)t/2); the expansion is
truncated by a geometric tail bound.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import eval_chebyu

from . import numerics
from .halfint import twice_labels

TWO_PI = 2.0 * math.pi
#: Largest representable class angle below 2*pi (Tr U = -2 representative).
XI_MAX = np.nextafter(TWO_PI, 0.0)
#: Smallest supported diffusion time; below it the character sum needs
#: thousands of terms and the artifact's use cases do not reach it.
T_MIN = 1e-3
#: Bound on the truncated tail of the character sum of the density.
TRUNCATION_TOL = 1e-12
#: Points of the class-angle grid behind the heat-kernel sampler.
CDF_GRID_SIZE = 4096
#: Largest twice-j of wigner_d, whose construction is 2^(2j)-dimensional.
WIGNER_D_TJ_MAX = 16


class UnsupportedRegimeError(ValueError):
    """Raised for diffusion times below the supported minimum."""


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """2x2 SU(2) matrices from quaternions; batched over leading axes."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = w - 1j * z
    out[..., 0, 1] = -y - 1j * x
    out[..., 1, 0] = y - 1j * x
    out[..., 1, 1] = w + 1j * z
    return out


def quat_to_adjoint(q: np.ndarray) -> np.ndarray:
    """Real 4x4 adjoint matrices O = 1 (+) R of quaternions in the basis
    (I, X, Y, Z): U sigma_b U^H = sum_a O_ab sigma_a, with R the rotation of
    the Bloch vector.  Batched over leading axes; O(-q) = O(q)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    out = np.zeros(q.shape[:-1] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = ww + xx - yy - zz
    out[..., 2, 2] = ww - xx + yy - zz
    out[..., 3, 3] = ww - xx - yy + zz
    out[..., 1, 2] = 2.0 * (x * y - w * z)
    out[..., 2, 1] = 2.0 * (x * y + w * z)
    out[..., 1, 3] = 2.0 * (x * z + w * y)
    out[..., 3, 1] = 2.0 * (x * z - w * y)
    out[..., 2, 3] = 2.0 * (y * z - w * x)
    out[..., 3, 2] = 2.0 * (y * z + w * x)
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product a*b (matrix product of the SU(2) elements)."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, float), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def class_angle_of_quat(q: np.ndarray) -> np.ndarray:
    """Class angle xi in [0, 2*pi) of quaternions; batched over leading axes."""
    w = np.clip(np.asarray(q, float)[..., 0], -1.0, 1.0)
    xi = 2.0 * np.arccos(w)
    return np.minimum(xi, XI_MAX)


def _irrep_label(tj) -> int:
    """An irrep label: a twice-j integer that is not negative."""
    (tj,) = twice_labels(tj)
    if tj < 0:
        raise ValueError(f"irrep twice-j must not be negative, got {tj}")
    return tj


def character(tj, xi) -> float:
    """Character of the irrep j = tj/2 at class angle xi:
    sin((j+1/2)xi)/sin(xi/2).

    Evaluated as the Chebyshev polynomial U_{2j}(cos(xi/2)), which handles
    the removable singularities at xi = 0 and xi = 2*pi exactly.
    """
    return eval_chebyu(_irrep_label(tj), np.cos(np.asarray(xi) / 2.0))


def heat_coefficient(tj, t) -> float:
    """Character-expansion coefficient exp(-j(j+1)t/2) of the density,
    j = tj/2."""
    jv = _irrep_label(tj) / 2.0
    return math.exp(-0.5 * jv * (jv + 1.0) * float(t))


def truncation_tj_max(t: float) -> int:
    """Smallest twice-j whose geometric tail bound on the character sum is
    below TRUNCATION_TOL."""
    t = numerics.validate_time(t)
    if t == 0:
        raise ValueError("the character sum has no finite truncation at t = 0")
    tj = 0
    while True:
        j = tj / 2.0
        tail = (
            (2 * j + 3) ** 2
            * math.exp(-0.5 * (j + 1) * (j + 2) * t)
            / (1.0 - math.exp(-(j + 2) * t))
        )
        if tail < TRUNCATION_TOL:
            return tj
        tj += 1


def heat_kernel_density(t, xi):
    """Diffusion density p_t at a finite class angle xi, relative to Haar
    measure."""
    t = numerics.validate_time(t)
    if t < T_MIN:
        raise UnsupportedRegimeError(f"t={t} below supported minimum {T_MIN}")
    xi = np.asarray(xi, dtype=float)
    if not np.isfinite(xi).all():
        raise ValueError("class angle must be finite")
    x = np.cos(xi / 2.0)
    total = np.zeros_like(x)
    u_prev, u = np.zeros_like(x), np.ones_like(x)  # U_{-1}, U_0 of U_{n+1} = 2x U_n - U_{n-1}
    for tj in range(truncation_tj_max(t) + 1):
        total += (tj + 1) * heat_coefficient(tj, t) * u
        u_prev, u = u, 2.0 * x * u - u_prev
    return total if total.ndim else float(total)


def haar_class_density(xi) -> np.ndarray:
    """Weyl class-marginal of Haar measure: (1/pi) sin^2(xi/2) on [0, 2*pi)."""
    return np.sin(np.asarray(xi, dtype=float) / 2.0) ** 2 / math.pi


def haar_quat(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-distributed quaternions (uniform on the unit 3-sphere)."""
    shape = (4,) if n is None else (n, 4)
    g = rng.normal(size=shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


@lru_cache(maxsize=32)
def _class_cdf_grid(t: float):
    """Inverse-CDF table for the class-angle marginal of p_t."""
    xi = np.linspace(0.0, TWO_PI, CDF_GRID_SIZE)
    dens = haar_class_density(xi) * np.clip(heat_kernel_density(t, xi), 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xi))))
    cdf /= cdf[-1]
    return xi, cdf


def heat_kernel_quat(t, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Quaternions distributed with density p_t with respect to Haar.

    The class angle is drawn by inverse-CDF interpolation on a dense grid
    and the rotation axis uniformly on the sphere.
    """
    t = numerics.validate_time(t)
    if t < T_MIN:
        raise UnsupportedRegimeError(f"t={t} below supported minimum {T_MIN}")
    size = 1 if n is None else n
    grid, cdf = _class_cdf_grid(t)
    xi = np.interp(rng.random(size), cdf, grid)
    axis = rng.normal(size=(size, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    q = np.empty((size, 4))
    q[:, 0] = np.cos(xi / 2.0)
    q[:, 1:] = np.sin(xi / 2.0)[:, None] * axis
    return q[0] if n is None else q


@lru_cache(maxsize=32)
def _symmetric_isometry(n: int) -> np.ndarray:
    """Isometry from the spin-n/2 space into the symmetric n-qubit subspace.

    Columns are Dicke states ordered by m = j, j-1, ..., -j with qubit
    |0> carrying m = +1/2.
    """
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    dim = 2**n
    iso = np.zeros((dim, n + 1), dtype=complex)
    for idx in range(dim):
        ones = bin(idx).count("1")  # number of down spins
        iso[idx, ones] = 1.0
    counts = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    iso /= np.sqrt(counts)
    return iso


def wigner_d(tj, u: np.ndarray) -> np.ndarray:
    """Irrep matrix D^j(U), j = tj/2, of a 2x2 SU(2) matrix U, from the
    symmetrized tensor power of U.

    Rows/columns ordered by m = j, ..., -j.  Capped at
    tj <= WIGNER_D_TJ_MAX to keep the 2^tj-dimensional construction at
    desk scale.
    """
    tj = _irrep_label(tj)
    if tj > WIGNER_D_TJ_MAX:
        raise ValueError(f"twice-j {tj} above {WIGNER_D_TJ_MAX}")
    if tj == 0:
        return np.ones((1, 1), dtype=complex)
    mat = np.asarray(u, dtype=complex)
    n = tj
    iso = _symmetric_isometry(n)
    # Apply U to each qubit factor of the isometry columns in turn.
    acted = iso.reshape((2,) * n + (n + 1,))
    for axis in range(n):
        acted = np.moveaxis(
            np.tensordot(mat, acted, axes=([1], [axis])), 0, axis
        )
    acted = acted.reshape(2**n, n + 1)
    return iso.conj().T @ acted
