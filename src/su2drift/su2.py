"""SU(2) group elements, Haar and heat-kernel sampling, Wigner D-matrices.

Group elements are unit quaternions q = (w, x, y, z) identified with the
matrix U = w*I - i*(x*sx + y*sy + z*sz), so Tr U = 2w and the class angle
satisfies w = cos(xi/2).  The diffusion density at time t is expanded in
characters over all irreps j = 0, 1/2, 1, ... with coefficients
exp(-j(j+1)t/2); the expansion is truncated by a geometric tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_chebyu

from . import numerics
from .halfint import HalfInteger, twice

TWO_PI = 2.0 * math.pi
#: Largest representable class angle below 2*pi (Tr U = -2 representative).
XI_MAX = np.nextafter(TWO_PI, 0.0)
#: Smallest supported diffusion time; below it the character sum needs
#: thousands of terms and the artifact's use cases do not reach it.
T_MIN = 1e-3

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


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


@dataclass(frozen=True)
class SU2Element:
    """A group element held as a unit quaternion."""

    quat: tuple

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float)
        if q.shape != (4,):
            raise ValueError("quaternion must have 4 components")
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"quaternion norm {norm} deviates from 1")
        object.__setattr__(self, "quat", tuple(q))

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_matrix(cls, u: np.ndarray) -> "SU2Element":
        u = np.asarray(u, dtype=complex)
        w = 0.5 * (u[0, 0] + u[1, 1]).real
        z = -0.5 * (u[0, 0] - u[1, 1]).imag
        x = -0.5 * (u[0, 1] + u[1, 0]).imag
        y = -0.5 * (u[0, 1] - u[1, 0]).real
        q = np.array([w, x, y, z])
        return cls(tuple(q / np.linalg.norm(q)))

    @property
    def matrix(self) -> np.ndarray:
        return quat_to_matrix(np.asarray(self.quat))

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        q = quat_mul(np.asarray(self.quat), np.asarray(other.quat))
        return SU2Element(tuple(q / np.linalg.norm(q)))

    def dagger(self) -> "SU2Element":
        w, x, y, z = self.quat
        return SU2Element((w, -x, -y, -z))


@dataclass(frozen=True)
class ClassAngle:
    """Conjugation invariant xi in [0, 2*pi); eigenvalues exp(+-i xi/2)."""

    xi: float

    def __post_init__(self):
        if not 0.0 <= self.xi < TWO_PI:
            raise ValueError("class angle must lie in [0, 2*pi)")


def class_angle(u) -> ClassAngle:
    """Class angle of an SU2Element (or of raw quaternions, batched)."""
    if isinstance(u, SU2Element):
        return ClassAngle(float(class_angle_of_quat(np.asarray(u.quat))))
    return ClassAngle(float(class_angle_of_quat(np.asarray(u))))


def class_angle_of_quat(q: np.ndarray) -> np.ndarray:
    w = np.clip(np.asarray(q, float)[..., 0], -1.0, 1.0)
    xi = 2.0 * np.arccos(w)
    return np.minimum(xi, XI_MAX)


def character(j, xi) -> float:
    """Character of the irrep j at class angle xi: sin((j+1/2)xi)/sin(xi/2).

    Evaluated as the Chebyshev polynomial U_{2j}(cos(xi/2)), which handles
    the removable singularities at xi = 0 and xi = 2*pi exactly.
    """
    tj = twice(j)
    x = np.cos(np.asarray(_as_xi(xi)) / 2.0)
    return eval_chebyu(tj, x)


def _as_xi(xi):
    return xi.xi if isinstance(xi, ClassAngle) else xi


def heat_coefficient(j, t) -> float:
    """Character-expansion coefficient exp(-j(j+1)t/2) of the density."""
    jv = twice(j) / 2.0
    return math.exp(-0.5 * jv * (jv + 1.0) * float(t))


def truncation_j_max(t: float, tol: float = 1e-12) -> HalfInteger:
    """Smallest j whose geometric tail bound on the character sum is < tol."""
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
        if tail < tol:
            return HalfInteger(tj)
        tj += 1


def heat_kernel_density(t, xi, tol: float = 1e-12):
    """Diffusion density p_t at class angle xi, relative to Haar measure."""
    t = numerics.validate_time(t)
    if t < T_MIN:
        raise UnsupportedRegimeError(f"t={t} below supported minimum {T_MIN}")
    xi = np.asarray(_as_xi(xi), dtype=float)
    x = np.cos(xi / 2.0)
    tj_max = truncation_j_max(t, tol).twice
    total = np.zeros_like(x)
    for tj in range(tj_max, -1, -1):
        j = tj / 2.0
        total += (tj + 1) * heat_coefficient(HalfInteger(tj), t) * eval_chebyu(tj, x)
    return total if total.ndim else float(total)


def haar_class_density(xi) -> np.ndarray:
    """Weyl class-marginal of Haar measure: (1/pi) sin^2(xi/2) on [0, 2*pi)."""
    xi = np.asarray(_as_xi(xi), dtype=float)
    return np.sin(xi / 2.0) ** 2 / math.pi


def haar_quat(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-distributed quaternions (uniform on the unit 3-sphere)."""
    shape = (4,) if n is None else (n, 4)
    g = rng.normal(size=shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def haar_sample(rng: np.random.Generator) -> SU2Element:
    """A single Haar-distributed group element."""
    return SU2Element(tuple(haar_quat(rng)))


@lru_cache(maxsize=32)
def _class_cdf_grid(t: float, grid_size: int = 4096):
    """Inverse-CDF table for the class-angle marginal of p_t."""
    xi = np.linspace(0.0, TWO_PI, grid_size)
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


def heat_kernel_sample(t, rng: np.random.Generator) -> SU2Element:
    """A single sample from the diffusion density p_t."""
    return SU2Element(tuple(heat_kernel_quat(t, rng)))


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


def wigner_d(j, u, j_cap=HalfInteger(16)) -> np.ndarray:
    """Irrep matrix D^j(U) from the symmetrized tensor power of U.

    Rows/columns ordered by m = j, ..., -j.  Capped at j <= j_cap
    (default 8) to keep the 2^(2j)-dimensional construction at desk scale.
    """
    tj = twice(j)
    if tj > twice(j_cap):
        raise ValueError(f"j={tj / 2} exceeds cap {twice(j_cap) / 2}")
    if tj == 0:
        return np.ones((1, 1), dtype=complex)
    mat = u.matrix if isinstance(u, SU2Element) else np.asarray(u, dtype=complex)
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
