"""Channel engine, transfer coefficients, Werner law, Choi, Monte Carlo."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from su2drift import channel, coupling, numerics, su2, three_qubit, verify
from su2drift.channel import (
    ChannelSpec,
    channel_apply,
    choi_matrix,
    monte_carlo_channel,
    r_coefficient,
)


def test_spec_validation():
    for n in (0, numerics.N_CAPS["apply"] + 1, 3.0, 2.5, True, "3"):
        with pytest.raises(ValueError):
            ChannelSpec(n, 1.0)
    assert ChannelSpec(np.int64(3), 1.0).n == 3
    with pytest.raises(ValueError):
        choi_matrix(ChannelSpec(numerics.N_CAPS["choi"] + 1, 1.0))
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            ChannelSpec(2, t)


def test_channel_apply_rejects_non_density():
    spec = ChannelSpec(2, 0.5)
    bad = [
        np.ones((4, 4)),  # trace 4
        np.eye(8) / 8,  # wrong dimension
        np.diag([1.5, -0.5, 0.0, 0.0]),  # not PSD
        np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) * 0.1,  # not Hermitian
        np.full((4, 4), np.nan),
    ]
    for rho in bad:
        with pytest.raises(ValueError):
            channel_apply(rho, spec)
        with pytest.raises(ValueError):
            monte_carlo_channel(rho, spec, 1000, seed=1)


def test_r_coefficient_identity_at_t0():
    # at t = 0 the step is the identity: R = delta_{J_out, J_in}
    for args in [(0, 1, 1, 0, 1, 1),
                 (2, 1, 1, 2, 1, 1),
                 (1, 1, 2, 1, 1, 2),
                 (3, 1, 2, 3, 1, 2)]:
        assert r_coefficient(*args, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert r_coefficient(2, 1, 1, 0, 1, 1, 0.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_r_coefficient_triangle_violation():
    assert r_coefficient(4, 1, 1, 0, 1, 1, 0.5) == 0.0


def test_r_coefficient_rejects_bad_time():
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            r_coefficient(2, 1, 1, 0, 1, 1, t)


def test_r_coefficient_row_normalization():
    # diagonal transfer weights out of any (J_in, j1, j2) sum to 1
    for (tj1, tj2, tJ_in) in [(1, 1, 0), (1, 1, 2), (1, 2, 1), (1, 2, 3), (2, 2, 2)]:
        for t in (0.0, 0.3, 2.0):
            total = sum(
                r_coefficient(tJ, tj1, tj2, tJ_in, tj1, tj2, t)
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_exact_weights():
    # single step on 2 qubits: singlet weight mixes with triplet via e^{-t}
    t = 0.8
    e = math.exp(-t)
    assert r_coefficient(0, 1, 1, 0, 1, 1, t) == pytest.approx(
        (1 + 3 * e) / 4, abs=1e-12
    )
    assert r_coefficient(2, 1, 1, 0, 1, 1, t) == pytest.approx(
        3 * (1 - e) / 4, abs=1e-12
    )
    assert r_coefficient(0, 1, 1, 2, 1, 1, t) == pytest.approx(
        (1 - e) / 4, abs=1e-12
    )
    assert r_coefficient(2, 1, 1, 2, 1, 1, t) == pytest.approx(
        (3 + e) / 4, abs=1e-12
    )


def test_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(21)
    for n in range(1, 8):
        rho = verify._random_density(rng, 2**n)
        out = channel_apply(rho, ChannelSpec(n, 0.7))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, out.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-12


def test_channel_at_t0_equals_twirl():
    rng = np.random.default_rng(22)
    for n in (2, 3, 4):
        rho = verify._random_density(rng, 2**n)
        out = channel_apply(rho, ChannelSpec(n, 0.0))
        tw = coupling.embed_blocks(coupling._twirl_linear(rho, n), n, 1)
        assert np.allclose(out, tw, atol=1e-12)


def test_channel_late_time_limit():
    # t -> infinity: block weights approach the Haar-average fixed point
    rng = np.random.default_rng(23)
    n = 3
    rho = verify._random_density(rng, 2**n)
    out = channel_apply(rho, ChannelSpec(n, 60.0))
    weights = np.einsum("jaa->j", coupling._twirl_linear(out, n)).real
    # fully decorrelated rotations depolarize every qubit: weights of I/2^N
    expect = [(tj + 1) * coupling.multiplicity(n, tj) / 2**n
              for tj in coupling.total_j_values(n)]
    assert weights == pytest.approx(expect, abs=1e-8)


def test_single_qubit_is_depolarizing():
    rng = np.random.default_rng(24)
    rho = verify._random_density(rng, 2)
    out = channel_apply(rho, ChannelSpec(1, 0.3))
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)


def test_choi_properties():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        for t in (0.0, 0.5):
            choi = choi_matrix(ChannelSpec(n, t))
            d = 2**n
            # contracting with a state reproduces the channel output
            rho = verify._random_density(rng, d)
            out = np.einsum("kl,krlc->rc", rho, choi.reshape(d, d, d, d))
            assert np.allclose(out, channel_apply(rho, ChannelSpec(n, t)), atol=1e-12)
            assert choi.shape == (d * d, d * d)
            assert np.allclose(choi, choi.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(choi).min() > -1e-10
            # partial trace over the output slot gives the identity
            pt = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
            assert np.allclose(pt, np.eye(d), atol=1e-11)


def test_choi_qutrit_mode():
    choi = three_qubit.qutrit_choi(0.4)
    assert choi.shape == (9, 9)
    assert np.allclose(choi, choi.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(choi).min() > -1e-10


def test_step_kernel_matches_r_coefficient():
    # R(t) read off the t-free step kernel is the paper's 6j sum itself
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        for i in range(1, n):
            conv = coupling.convention(n, i)
            kernel = channel._step_kernel(n, i)
            t = rng.uniform(0.0, 3.0)
            heat = [su2.heat_coefficient(2 * L, t) for L in range(len(kernel))]
            r = np.tensordot(heat, kernel, 1)
            types = [conv.block_types[c] for c in conv.type_of]
            for o, j in itertools.product(range(len(conv.tjs)), repeat=2):
                for a, b in itertools.product(range(len(types)), repeat=2):
                    expect = r_coefficient(conv.tjs[o], *types[b], conv.tjs[j], *types[a], t)
                    assert abs(r[o, j, a, b] - expect) <= 1e-15, (n, i, o, j, a, b)


def test_engine_tables_read_only():
    for n in (3, 5):
        for i in range(1, n):
            assert not channel._step_kernel(n, i).flags.writeable
        for k in range(1, n - 1):
            assert not coupling._raise_matrix(n, k).flags.writeable


def test_monte_carlo_deterministic():
    rng = np.random.default_rng(27)
    rho = verify._random_density(rng, 4)
    spec = ChannelSpec(2, 0.3)
    a = monte_carlo_channel(rho, spec, 5000, seed=1)
    b = monte_carlo_channel(rho, spec, 5000, seed=1)
    assert a.samples == b.samples == 5000
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr_re, b.stderr_re)


def _monte_carlo_by_whole_chunks(rho, N, t, samples, seed):
    """Reference for monte_carlo_channel: the same chunked draw stream, each
    chunk conjugated as one full Kronecker stack, and the chunks pooled by
    the between-chunk variance formula rather than by running sums."""
    rng = np.random.default_rng(seed)
    stats = []  # (count, mean, sum of squared deviations) per chunk and part
    done = 0
    while done < samples:
        b = min(channel.MC_CHUNK, samples - done)
        q = su2.haar_quat(rng, b)
        big = su2.quat_to_matrix(q)
        for _ in range(1, N):
            if t > 0:
                q = su2.quat_mul(su2.heat_kernel_quat(t, rng, b), q)
            dim = 2 * big.shape[-1]
            big = np.einsum("bij,bkl->bikjl", big, su2.quat_to_matrix(q)).reshape(b, dim, dim)
        outs = big @ rho @ big.conj().transpose(0, 2, 1)
        stats.append([(b, x.mean(axis=0), ((x - x.mean(axis=0)) ** 2).sum(axis=0))
                      for x in (outs.real, outs.imag)])
        done += b
    pooled = []
    for part in zip(*stats):
        mean = sum(n * m for n, m, _ in part) / samples
        m2 = sum(s2 + n * (m - mean) ** 2 for n, m, s2 in part)
        pooled.append((mean, np.sqrt(m2 / (samples - 1) / samples)))
    (mean_re, se_re), (mean_im, se_im) = pooled
    return mean_re + 1j * mean_im, se_re, se_im


def test_monte_carlo_slices_match_whole_chunks():
    # 45000 samples make chunks of 20000, 20000 and 5000; the slices must
    # reproduce the same draws and the same pooled mean and spread
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        rho = verify._random_density(rng, 2**n)
        got = monte_carlo_channel(rho, ChannelSpec(n, 0.5), 45000, seed=40 + n)
        mean, se_re, se_im = _monte_carlo_by_whole_chunks(rho, n, 0.5, 45000, 40 + n)
        assert np.abs(got.mean - mean).max() <= 1e-13, n
        for se_got, se_ref in ((got.stderr_re, se_re), (got.stderr_im, se_im)):
            assert np.abs(se_got - se_ref).max() <= 1e-13 * se_ref.max(), n
    # a near-mixed input: every entry barely moves, so unshifted sums of x
    # and x^2 would cancel catastrophically (they miss by ~1e-2 here)
    d = 16
    rho = (1 - 1e-6) * np.eye(d) / d + 1e-6 * verify._random_density(rng, d)
    got = monte_carlo_channel(rho, ChannelSpec(4, 0.5), 25000, seed=44)
    mean, se_re, se_im = _monte_carlo_by_whole_chunks(rho, 4, 0.5, 25000, 44)
    assert np.abs(got.mean - mean).max() <= 1e-15
    for se_got, se_ref in ((got.stderr_re, se_re), (got.stderr_im, se_im)):
        assert np.abs(se_got - se_ref).max() <= 1e-8 * se_ref.max()


def test_monte_carlo_maximally_mixed_input():
    # every sample conjugates 1/d to itself, so the spread is rounding only
    for n in (1, 2, 3, 4):
        d = 2**n
        mc = monte_carlo_channel(np.eye(d) / d, ChannelSpec(n, 0.5), 1000, seed=n)
        assert np.abs(mc.mean - np.eye(d) / d).max() <= 1e-15, n
        for se in (mc.stderr_re, mc.stderr_im):
            assert np.isfinite(se).all() and se.max() <= 1e-15, n


def test_monte_carlo_chunk_shrinks_with_register_size():
    # a chunk holds only its group elements, and the input is conjugated
    # in slices of about 1 MB, so the traced peak stays far below one
    # (20000, 2^N, 2^N) complex stack (82 MB at N = 4) at any register size
    for n, samples in ((6, 2500), (4, 20000)):
        d = 2**n
        tracemalloc.start()
        try:
            monte_carlo_channel(np.eye(d) / d, ChannelSpec(n, 0.5), samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, n


def test_monte_carlo_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        monte_carlo_channel(np.eye(4) / 4, ChannelSpec(2, 0.3), 10, seed=0)
