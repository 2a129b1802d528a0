"""Coupling paths, coupled bases, twirl, block arrays, convention shifts."""

import math

import numpy as np
import pytest

from su2drift import coupling, su2, verify
from su2drift.coupling import (
    CouplingPath,
    _twirl_linear,
    convention,
    coupled_basis_states,
    coupled_basis_vector,
    embed_blocks,
    enumerate_paths,
    multiplicity,
    raise_convention,
    total_j_values,
)


def test_total_j_values():
    assert total_j_values(2) == [0, 2]
    assert total_j_values(3) == [1, 3]
    assert total_j_values(4) == [0, 2, 4]


def test_multiplicity_formula():
    assert multiplicity(2, 0) == 1
    assert multiplicity(3, 1) == 2
    assert multiplicity(4, 0) == 2
    assert multiplicity(4, 2) == 3
    assert multiplicity(8, 0) == 14


def test_enumerate_paths_counts_and_order():
    for n in (3, 4, 5, 6):
        for tj in total_j_values(n):
            for k in range(1, n):
                paths = enumerate_paths(n, tj, k)
                assert len(paths) == multiplicity(n, tj)
                assert paths == sorted(paths)
                for p in paths:
                    p.validate()
                    assert p.n == n and p.k == k


def test_path_validation_rejects_bad_steps():
    with pytest.raises(ValueError):
        CouplingPath(2, (1, 4), (1,)).validate()  # step of 3/2
    with pytest.raises(ValueError):
        CouplingPath(2, (2, 1), (1,)).validate()  # does not start at 1/2


def test_singlet_vector():
    path = enumerate_paths(2, 0, 1)[0]
    v = coupled_basis_vector(2, 0, 0, path)
    expect = np.zeros(4, complex)
    expect[1], expect[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert np.allclose(v, expect, atol=1e-14)


def test_triplet_top_is_all_up():
    path = enumerate_paths(2, 2, 1)[0]
    v = coupled_basis_vector(2, 2, 2, path)
    expect = np.zeros(4, complex)
    expect[0] = 1.0
    assert np.allclose(v, expect, atol=1e-14)


def test_coupled_states_collective_rotation_covariance():
    # a collective rotation acts within each (J, path) column space as D^J
    rng = np.random.default_rng(10)
    u = su2.quat_to_matrix(su2.haar_quat(rng))
    n = 3
    big = np.kron(np.kron(u, u), u)
    for tj in total_j_values(n):
        for path in enumerate_paths(n, tj, 1):
            cols = coupled_basis_states(n, tj, path)
            d = su2.wigner_d(tj, u)
            assert np.allclose(big @ cols, cols @ d, atol=1e-12)


def _projector(n, tj, a, b):
    """P_J^{a,b} in convention 1, embedded from a single-entry block array."""
    conv = convention(n, 1)
    j = conv.tjs.index(tj)
    idx = conv.members[j]
    blocks = np.zeros((len(conv.tjs), len(conv.paths), len(conv.paths)), complex)
    blocks[j, idx[a], idx[b]] = 1.0
    return embed_blocks(blocks, n, 1)


def test_embedded_projector_orthogonality():
    n = 3
    tj = 1
    p00 = _projector(n, tj, 0, 0)
    p01 = _projector(n, tj, 0, 1)
    p11 = _projector(n, tj, 1, 1)
    # normalized so that tr P = 1; products scale by 1/(2J+1)
    assert np.allclose(p00 @ p00, p00 / (tj + 1), atol=1e-13)
    assert np.allclose(p01 @ p01, 0.0, atol=1e-13)
    assert np.allclose(p01 @ p01.conj().T, p00 / (tj + 1), atol=1e-13)
    assert np.trace(p00) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(p11) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(p01) == pytest.approx(0.0, abs=1e-12)


def test_twirl_output_structure():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        rho = verify._random_density(rng, 2**n)
        blocks = _twirl_linear(rho, n)
        conv = convention(n, 1)
        assert blocks.shape == (len(conv.tjs), len(conv.paths), len(conv.paths))
        weights = np.einsum("jaa->j", blocks).real
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert weights.min() > -1e-12
        for j, (tj, idx) in enumerate(zip(conv.tjs, conv.members)):
            d = multiplicity(n, tj)
            member = blocks[j][np.ix_(idx, idx)]
            assert member.shape == (d, d)
            assert np.allclose(member, member.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(member).min() > -1e-10
            # paths that cannot couple to J carry no entries
            outside = blocks[j].copy()
            outside[np.ix_(idx, idx)] = 0.0
            assert not outside.any()


def test_twirl_matches_haar_average():
    rng = np.random.default_rng(12)
    n = 2
    rho = verify._random_density(rng, 4)
    acc = np.zeros((4, 4), complex)
    m = 40000
    q = su2.haar_quat(rng, m)
    mats = su2.quat_to_matrix(q)
    big = np.einsum("bij,bkl->bikjl", mats, mats).reshape(m, 4, 4)
    acc = np.einsum("bij,jk,blk->il", big, rho, big.conj()) / m
    assert np.abs(embed_blocks(_twirl_linear(rho, n), n, 1) - acc).max() < 5e-3


def test_block_weights_convention_independent():
    rng = np.random.default_rng(17)
    for n in (3, 4):
        rho = verify._random_density(rng, 2**n)
        blocks = _twirl_linear(rho, n)
        w1 = np.einsum("jaa->j", blocks).real
        w2 = np.einsum("jaa->j", raise_convention(blocks, n, 1)).real
        assert w1 == pytest.approx(w2, abs=1e-12)


def test_convention_shift_matches_dense():
    # raising keeps the operator, and each V_J is orthogonal on the members of J
    rng = np.random.default_rng(15)
    for n in (3, 4, 5):
        rho = verify._random_density(rng, 2**n)
        blocks = _twirl_linear(rho, n)
        dense0 = embed_blocks(blocks, n, 1)
        for k in range(1, n - 1):
            blocks = raise_convention(blocks, n, k)
            assert np.allclose(embed_blocks(blocks, n, k + 1), dense0, atol=1e-11)
            v = coupling._raise_matrix(n, k)
            for j, (a, b) in enumerate(zip(convention(n, k).members, convention(n, k + 1).members)):
                v_j = v[j][np.ix_(b, a)]
                assert np.abs(v_j.T @ v_j - np.eye(len(a))).max() <= 1e-13


def test_convention_shift_bounds():
    rng = np.random.default_rng(16)
    rho = verify._random_density(rng, 8)
    blocks = _twirl_linear(rho, 3)
    top = raise_convention(blocks, 3, 1)
    with pytest.raises(ValueError):
        raise_convention(top, 3, 2)
