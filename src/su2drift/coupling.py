"""Spin-coupling paths, coupled bases, and twirled operators as block arrays.

Qubit 1 is the most significant tensor factor, and qubit |0> carries spin
projection +1/2.  A convention-k path couples spins 1..k ascending and
spins N..k+1 descending; the two blocks are combined last.  Multiplicity
bases are ordered by sorting paths lexicographically on their twice-j
sequences, left sequence first.

A twirled operator in convention k is one block array T[..., j, a, a'],
standing for sum_{J,a,a'} T[J,a,a'] P_J^{a,a'} with
P_J^{a,a'} = (1/(2J+1)) sum_M |J M a><J M a'|.  The axis j runs over
total_j_values(N); a and a' run over all convention-k paths, the same for
every J, and entries whose path cannot couple to J are zero.  Leading axes
are batch axes.  The twirl (into convention 1) and the embed are one
product each with the dense basis_matrix(N, k).  Raising the convention
from k to k+1 is T_J -> V_J T_J V_J^T, where the real orthogonal V_J holds
the overlaps of the two conventions' coupled states of J: recoupling
coefficients U, so the raise builds no dense basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .halfint import projection_valid, twice_labels
from .numerics import validate_n
from .wigner import clebsch_gordan, recoupling_u, triangle_ok


@dataclass(frozen=True, order=True)
class CouplingPath:
    """A branching-diagram path in convention k, stored as twice-j tuples.

    left = (2*j_1, 2*j_12, ..., 2*j_{1..k});
    right = (2*j_{k+1..N}, ..., 2*j_N).
    """

    k: int
    left: tuple
    right: tuple

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def t_left(self) -> int:
        """Twice the total angular momentum of the left block."""
        return self.left[-1]

    @property
    def t_right(self) -> int:
        """Twice the total angular momentum of the right block."""
        return self.right[0]

    def validate(self):
        if self.k != len(self.left) or self.k < 1 or len(self.right) < 1:
            raise ValueError(f"inconsistent convention k={self.k}")
        for seq in (self.left, self.right):
            if any(t < 0 for t in seq):
                raise ValueError("negative angular momentum in path")
        if self.left[0] != 1 or self.right[-1] != 1:
            raise ValueError("path must start and end at spin 1/2")
        for seq in (self.left, self.right):
            if any(abs(a - b) != 1 for a, b in zip(seq, seq[1:])):
                raise ValueError("consecutive path entries must differ by 1/2")


def _walks(length: int) -> list:
    """All twice-j walks of a given length starting and staying >= 0,
    beginning at 1 and stepping by +-1."""
    walks = [(1,)]
    for _ in range(length - 1):
        walks = [
            w + (nxt,)
            for w in walks
            for nxt in (w[-1] - 1, w[-1] + 1)
            if nxt >= 0
        ]
    return walks


def _all_paths(N: int, k: int) -> list:
    """Every convention-k path for N spins, sorted, whatever its total J."""
    return sorted(
        CouplingPath(k, left, tuple(reversed(right)))
        for left in _walks(k)
        for right in _walks(N - k)
    )


def enumerate_paths(N: int, tJ, k: int) -> list:
    """All convention-k paths for N spins terminating at total momentum
    J = tJ/2."""
    validate_n(N, "paths")
    if not 1 <= k <= N - 1:
        raise ValueError(f"k={k} out of range [1, {N - 1}]")
    (tJ,) = twice_labels(tJ)
    return [p for p in _all_paths(N, k) if triangle_ok(p.t_left, p.t_right, tJ)]


def multiplicity(N: int, tJ) -> int:
    """Dimension d_J of the multiplicity space (number of paths), J = tJ/2."""
    (tJ,) = twice_labels(tJ)
    if (N - tJ) % 2 or tJ > N or tJ < 0:
        return 0
    lo = (N - tJ) // 2
    return math.comb(N, lo) - (math.comb(N, lo - 1) if lo >= 1 else 0)


def total_j_values(N: int) -> list:
    """Twice-j values of the total angular momenta occurring for N spins."""
    return list(range(N % 2, N + 1, 2))


@lru_cache(maxsize=None)
def _cg_matrix(ta: int, tb: int, tc: int) -> np.ndarray:
    """Read-only ((ta+1)(tb+1)) x (tc+1) matrix of <a m_a; b m_b | c M>.

    Rows run over (m_a, m_b) with m_b fastest, columns over M; every
    projection runs from the top down.  So kron(A, B) @ C couples the
    columns of A (spin a) and B (spin b) to the states |c M>.
    """
    out = np.zeros(((ta + 1) * (tb + 1), tc + 1))
    pairs = itertools.product(range(ta, -ta - 1, -2), range(tb, -tb - 1, -2))
    for row, (tma, tmb) in enumerate(pairs):
        if abs(tma + tmb) <= tc:
            out[row, (tc - tma - tmb) // 2] = clebsch_gordan(ta, tma, tb, tmb, tc, tma + tmb)
    out.setflags(write=False)
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its any-rank bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


@lru_cache(maxsize=4096)
def _block_states(seq: tuple, new_first: bool) -> np.ndarray:
    """Read-only columns |j_block, m>, m from the top down, of a chain of
    spin-1/2 couplings, built from the cached chain one spin shorter.

    seq is the twice-j sequence of intermediate momenta (first entry 1).
    new_first selects whether each added spin is prepended (right blocks)
    or appended (left blocks).
    """
    if len(seq) == 1:
        mat = np.eye(2)
    elif new_first:
        mat = _kron(np.eye(2), _block_states(seq[:-1], True)) @ _cg_matrix(1, *seq[-2:])
    else:
        mat = _kron(_block_states(seq[:-1], False), np.eye(2)) @ _cg_matrix(seq[-2], 1, seq[-1])
    mat.setflags(write=False)
    return mat


def coupled_basis_states(N: int, tJ, path: CouplingPath) -> np.ndarray:
    """Matrix whose columns are |J, M, path> for M = J, J-1, ..., -J,
    J = tJ/2."""
    (tJ,) = twice_labels(tJ)
    path.validate()
    if path.n != N:
        raise ValueError("path length does not match N")
    validate_n(N, "basis")
    if not triangle_ok(path.t_left, path.t_right, tJ):
        raise ValueError("path blocks cannot couple to the requested J")
    # Right block is built by adding spins N, N-1, ... with the new spin as
    # the first factor, so its sequence runs from j_N inward.
    left = _block_states(path.left, False)
    right = _block_states(tuple(reversed(path.right)), True)
    cols = _kron(left, right) @ _cg_matrix(path.t_left, path.t_right, tJ)
    return cols.astype(complex)


def coupled_basis_vector(N: int, tJ, tM, path: CouplingPath) -> np.ndarray:
    """The state |J, M, path> as a dense 2^N vector, J = tJ/2, M = tM/2."""
    tJ, tM = twice_labels(tJ, tM)
    if not projection_valid(tJ, tM):
        raise ValueError("invalid projection M for J")
    cols = coupled_basis_states(N, tJ, path)
    return cols[:, (tJ - tM) // 2]


@lru_cache(maxsize=64)
def basis_matrix(N: int, k: int) -> np.ndarray:
    """Unitary whose columns are the coupled basis states |J, M, path>.

    Columns run over J ascending, then the convention-k paths of J in
    sorted order, then M = J, J-1, ..., -J.
    """
    conv = convention(N, k)
    return np.concatenate([coupled_basis_states(N, tj, conv.paths[a])
                           for tj, idx in zip(conv.tjs, conv.members) for a in idx], axis=1)


@dataclass(frozen=True)
class Convention:
    """Index layout of convention-k block arrays for N spins.

    paths lists every convention-k path (each pair of a left and a right
    walk) in sorted order; members[j] indexes the paths that couple to the
    total momentum tjs[j].  block_types lists the distinct (left total,
    right total) pairs and type_of maps each path to its pair.  columns[j]
    slices the columns of basis_matrix(N, k) that belong to tjs[j].
    """

    paths: tuple
    tjs: tuple
    members: tuple
    block_types: tuple
    type_of: np.ndarray
    columns: tuple


@lru_cache(maxsize=64)
def convention(N: int, k: int) -> Convention:
    """Layout of the convention-k block arrays."""
    validate_n(N, "paths")
    if not 1 <= k <= N - 1:
        raise ValueError(f"k={k} out of range [1, {N - 1}]")
    paths = tuple(_all_paths(N, k))
    tjs = tuple(total_j_values(N))
    members = tuple(
        np.array([a for a, p in enumerate(paths) if triangle_ok(p.t_left, p.t_right, tj)])
        for tj in tjs
    )
    block_types = tuple(sorted({(p.t_left, p.t_right) for p in paths}))
    type_of = np.array([block_types.index((p.t_left, p.t_right)) for p in paths])
    ends = list(itertools.accumulate(len(idx) * (tj + 1) for tj, idx in zip(tjs, members)))
    columns = tuple(slice(a, b) for a, b in zip([0] + ends, ends))
    return Convention(paths, tjs, members, block_types, type_of, columns)


@lru_cache(maxsize=64)
def _raise_matrix(N: int, k: int) -> np.ndarray:
    """Read-only V[j, b, a] = <J J b|J J a> of convention-(k+1) path b and
    convention-k path a.  The raise moves spin k+1 from the right block to
    the left one, so a meets only the paths b that extend its left walk by
    one step and drop the head of its right walk, each in one recoupling
    coefficient U, which is zero where a or b cannot couple to J."""
    lo, hi = convention(N, k), convention(N, k + 1)
    index = {p: b for b, p in enumerate(hi.paths)}
    v = np.zeros((len(lo.tjs), len(hi.paths), len(lo.paths)))
    for a, p in enumerate(lo.paths):
        for tl in range(abs(p.t_left - 1), p.t_left + 2, 2):
            b = index[CouplingPath(k + 1, p.left + (tl,), p.right[1:])]
            v[:, b, a] = [recoupling_u(p.t_left, 1, tj, p.right[1], tl, p.t_right) for tj in lo.tjs]
    v.setflags(write=False)
    return v


def raise_convention(blocks: np.ndarray, N: int, k: int) -> np.ndarray:
    """Re-express a convention-k block array in convention k+1: V_J T_J V_J^T."""
    if not 1 <= k <= N - 2:
        raise ValueError(f"cannot raise convention {k} for N={N}")
    v = _raise_matrix(N, k)
    return v @ blocks @ v.transpose(0, 2, 1)


def _twirl_linear(rho: np.ndarray, N: int) -> np.ndarray:
    """Convention-1 block array of the twirl of any linear operator(s).

    T[..., j, a, a'] = sum_M <J M a|rho|J M a'>; leading axes are batch axes.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2**N, 2**N):
        raise ValueError(f"expected a {2**N}-dimensional matrix")
    conv = convention(N, 1)
    basis = basis_matrix(N, 1)
    sigma = basis.conj().T @ rho @ basis
    batch = rho.shape[:-2]
    out = np.zeros(batch + (len(conv.tjs), len(conv.paths), len(conv.paths)), dtype=complex)
    for j, (tj, idx, cols) in enumerate(zip(conv.tjs, conv.members, conv.columns)):
        sub = sigma[..., cols, cols].reshape(batch + (len(idx), tj + 1, len(idx), tj + 1))
        out[..., j, idx[:, None], idx] = np.trace(sub, axis1=-3, axis2=-1)
    return out


def embed_blocks(blocks: np.ndarray, N: int, k: int) -> np.ndarray:
    """Dense operator sum_{J,a,a'} T[J,a,a'] P_J^{a,a'} of a convention-k block array.

    P_J^{a,a'} = (1/(2J+1)) sum_M |J M a><J M a'|; leading axes are batch axes.
    """
    conv = convention(N, k)
    batch = blocks.shape[:-3]
    sigma = np.zeros(batch + (2**N, 2**N), dtype=complex)
    for j, (tj, idx, cols) in enumerate(zip(conv.tjs, conv.members, conv.columns)):
        sub = np.einsum("...ab,mn->...ambn", blocks[..., j, idx[:, None], idx], np.eye(tj + 1))
        sigma[..., cols, cols] = sub.reshape(batch + (len(idx) * (tj + 1),) * 2) / (tj + 1)
    basis = basis_matrix(N, k)
    return basis @ sigma @ basis.conj().T
