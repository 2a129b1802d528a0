"""Named invariant checks backing the `verify` CLI command.

Each engine invariant is written once, here.  The test suite runs every
quick check by name in test_verify, and each slow check from one
acceptance criterion; no test restates a check.  Each check returns
(ok, detail).  The quick subset excludes the large-sample Monte Carlo
gates, the optimizer endpoint checks and the anti-degradability
certificate's iterative solve; it keeps the Holevo certificate, whose
family searches take a fraction of a second.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy import sparse, stats
from scipy.sparse.linalg import expm_multiply

from . import channel, coupling, numerics, su2, three_qubit, wigner

_TJ_RANGE = range(0, 7)  # twice-j values 0 .. 3


def _random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def _complement(ops, rho):
    """E^c(rho)_kl = Tr(E_k rho E_l^dag) by explicit traces over a Kraus set."""
    return np.array([[np.trace(a @ rho @ b.conj().T) for b in ops] for a in ops])


def _twirled(rho, n):
    """Dense twirl of rho: its convention-1 block array, embedded."""
    return coupling.embed_blocks(coupling._twirl_linear(rho, n), n, 1)


#: Large-label inputs of the coefficient orthogonality checks: (tj1, tj2, tM)
#: for one fixed-M Clebsch-Gordan block each, and (t1, t2, t4, t5, t6, t6')
#: for one 6j overlap each.  Alternating Racah sums in floating point lose
#: 1e-11 to 1e-9 on these.
_CG_LARGE = ((60, 60, 0), (84, 84, 100), (84, 30, 6))
_SIXJ_LARGE = ((60, 60, 60, 60, 60, 64), (84, 84, 84, 84, 84, 84),
               (84, 84, 84, 84, 84, 80), (84, 70, 76, 66, 80, 74))


def _cg_block(tj1, tj2, tM):
    """Square matrix of <j1 m1; j2 M-m1 | J M> over rows m1 and columns J."""
    tm1s = [tm1 for tm1 in range(-tj1, tj1 + 1, 2) if abs(tM - tm1) <= tj2]
    tJs = [tJ for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2) if tJ >= abs(tM)]
    return np.array([[wigner.clebsch_gordan(tj1, tm1, tj2, tM - tm1, tJ, tM) for tJ in tJs]
                     for tm1 in tm1s])


def check_cg_orthogonality(ctx):
    small = (
        (tj1, tj2, tM)
        for tj1, tj2 in itertools.product(_TJ_RANGE, _TJ_RANGE)
        for tM in range(-tj1 - tj2, tj1 + tj2 + 1, 2)
    )
    worst = 0.0
    for labels in itertools.chain(small, _CG_LARGE):
        mat = _cg_block(*labels)
        worst = max(worst, np.abs(mat.T @ mat - np.eye(len(mat))).max())
    return worst < 1e-14, f"max orthogonality defect {worst:.2e}"


def _valid_sixj_args():
    for t1, t2, t3 in itertools.product(_TJ_RANGE, repeat=3):
        if not wigner.triangle_ok(t1, t2, t3):
            continue
        for t4, t5, t6 in itertools.product(_TJ_RANGE, repeat=3):
            if (
                wigner.triangle_ok(t1, t5, t6)
                and wigner.triangle_ok(t4, t2, t6)
                and wigner.triangle_ok(t4, t5, t3)
            ):
                yield (t1, t2, t3, t4, t5, t6)


def check_sixj_symmetry(ctx):
    worst = 0.0
    for args in _valid_sixj_args():
        t1, t2, t3, t4, t5, t6 = args
        ref = wigner._sixj_t(*args)
        variants = [
            (t2, t1, t3, t5, t4, t6),
            (t3, t2, t1, t6, t5, t4),
            (t1, t3, t2, t4, t6, t5),
            (t4, t5, t3, t1, t2, t6),  # swap upper/lower in columns 1,2
            (t1, t5, t6, t4, t2, t3),  # swap upper/lower in columns 2,3
            (t4, t2, t6, t1, t5, t3),  # swap upper/lower in columns 1,3
        ]
        for v in variants:
            worst = max(worst, abs(wigner._sixj_t(*v) - ref))
    return worst == 0.0, f"max symmetry defect {worst:.2e}"


def check_sixj_orthogonality(ctx):
    small = itertools.product(_TJ_RANGE, repeat=6)
    worst = 0.0
    for t1, t2, t4, t5, t6, t6p in itertools.chain(small, _SIXJ_LARGE):
        total = 0.0
        for t3 in range(abs(t1 - t2), t1 + t2 + 1, 2):
            total += (
                (t3 + 1)
                * (t6 + 1)
                * wigner._sixj_t(t1, t2, t3, t4, t5, t6)
                * wigner._sixj_t(t1, t2, t3, t4, t5, t6p)
            )
        expect = 1.0 if t6 == t6p else 0.0
        if t6 == t6p and not (
            wigner.triangle_ok(t1, t5, t6) and wigner.triangle_ok(t4, t2, t6)
        ):
            expect = 0.0
        worst = max(worst, abs(total - expect))
    return worst < 1e-14, f"max orthogonality defect {worst:.2e}"


def check_recoupling_unitarity(ctx):
    worst = 0.0
    for t1, t2, tJ, t3 in itertools.product(_TJ_RANGE, repeat=4):
        t12s = range(abs(t1 - t2), t1 + t2 + 1, 2)
        t23s = [
            t23
            for t23 in range(abs(t2 - t3), t2 + t3 + 1, 2)
            if wigner.triangle_ok(t1, t23, tJ)
        ]
        t12s = [t12 for t12 in t12s if wigner.triangle_ok(t12, t3, tJ)]
        if not t12s or not t23s:
            continue
        mat = np.array(
            [
                [
                    wigner.recoupling_u(t1, t2, tJ, t3, t12, t23)
                    for t23 in t23s
                ]
                for t12 in t12s
            ]
        )
        if len(t12s) == len(t23s):
            worst = max(worst, np.abs(mat @ mat.T - np.eye(len(t12s))).max())
    return worst < 1e-13, f"max unitarity defect {worst:.2e}"


def check_adjoint_representation(ctx):
    """The oracle for su2.quat_to_adjoint, on 200 seeded random pairs of
    quaternions, each to 1e-14: U sigma_b U^H = sum_a O_ab sigma_a with U
    from quat_to_matrix; O^T O = 1 and det O = +1; O(q1 q2) = O(q1) O(q2)
    through quat_mul; and O(-q) = O(q).  An adjoint with R transposed fails
    the first and the third."""
    rng = np.random.default_rng(ctx["seed"] + 17)
    q1, q2 = su2.haar_quat(rng, 200), su2.haar_quat(rng, 200)
    sigma = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    u, o = su2.quat_to_matrix(q1), su2.quat_to_adjoint(q1)
    d_conj = np.abs(u[:, None] @ sigma @ u[:, None].conj().swapaxes(-1, -2)
                    - np.einsum("nab,aij->nbij", o, sigma)).max()
    d_orth = max(np.abs(o.swapaxes(-1, -2) @ o - np.eye(4)).max(),
                 np.abs(np.linalg.det(o) - 1.0).max())
    d_hom = np.abs(su2.quat_to_adjoint(su2.quat_mul(q1, q2)) - o @ su2.quat_to_adjoint(q2)).max()
    d_sign = np.abs(su2.quat_to_adjoint(-q1) - o).max()
    ok = max(d_conj, d_orth, d_hom, d_sign) <= 1e-14
    return ok, (f"conjugation {d_conj:.1e}, orthogonality {d_orth:.1e}, "
                f"homomorphism {d_hom:.1e}, sign {d_sign:.1e}")


def check_kernel_normalization(ctx):
    worst = 0.0
    xi = np.linspace(0.0, su2.TWO_PI, 30001)
    for t in (0.1, 1.0, 10.0):
        dens = su2.haar_class_density(xi) * su2.heat_kernel_density(t, xi)
        total = np.trapezoid(dens, xi)
        worst = max(worst, abs(total - 1.0))
    return worst < 1e-8, f"max normalization defect {worst:.2e}"


def check_coefficient_semigroup(ctx):
    worst = 0.0
    for tj, (s, t) in itertools.product(range(0, 13), ((0.7, 1.6), (0.5, 0.5), (0.4, 1.1))):
        lhs = su2.heat_coefficient(tj, s) * su2.heat_coefficient(tj, t)
        worst = max(worst, abs(lhs - su2.heat_coefficient(tj, s + t)))
    return worst < 1e-15, f"max defect {worst:.2e}"


def check_kernel_positivity(ctx):
    xi = np.linspace(0.0, su2.TWO_PI, 4096)
    worst = 0.0
    for t in (1e-3, 0.01, 0.1, 1.0):
        worst = min(worst, float(np.min(su2.heat_kernel_density(t, xi))))
    return worst > -1e-9, f"min density {worst:.2e}"


def check_multiplicity_sum(ctx):
    n_max = numerics.N_CAPS["paths"]
    for n in range(1, n_max + 1):
        total = sum(
            (tj + 1) * coupling.multiplicity(n, tj)
            for tj in coupling.total_j_values(n)
        )
        if total != 2**n:
            return False, f"N={n}: {total} != {2**n}"
    return True, f"sum_J (2J+1) d_J = 2^N for N <= {n_max}"


def check_basis_unitarity(ctx):
    worst = 0.0
    for n in range(2, 7):
        for k in range(1, n):
            mat = coupling.basis_matrix(n, k)
            worst = max(worst, np.abs(mat.conj().T @ mat - np.eye(2**n)).max())
    return worst < 1e-12, f"max unitarity defect {worst:.2e}"


def check_twirl_projection(ctx):
    rng = np.random.default_rng(ctx["seed"])
    worst = 0.0
    for n in (2, 3, 4):
        blocks = coupling._twirl_linear(_random_density(rng, 2**n), n)
        again = coupling._twirl_linear(coupling.embed_blocks(blocks, n, 1), n)
        worst = max(worst, np.abs(again - blocks).max())
    return worst < 1e-12, f"max round-trip defect {worst:.2e}"


def check_twirl_rotation_invariance(ctx):
    rng = np.random.default_rng(ctx["seed"] + 1)
    worst = 0.0
    for n in (2, 3, 4):
        rho = _random_density(rng, 2**n)
        big = functools.reduce(np.kron, [su2.quat_to_matrix(su2.haar_quat(rng))] * n)
        rotated = big @ rho @ big.conj().T
        worst = max(worst, np.abs(_twirled(rho, n) - _twirled(rotated, n)).max())
    return worst < 1e-10, f"max invariance defect {worst:.2e}"


def check_channel_trace_hermiticity(ctx):
    rng = np.random.default_rng(ctx["seed"] + 2)
    worst_tr, worst_h = 0.0, 0.0
    for n in (2, 3, 4):
        for t in (0.0, 0.3, 2.0):
            rho = _random_density(rng, 2**n)
            out = channel.channel_apply(rho, channel.ChannelSpec(n, t))
            worst_tr = max(worst_tr, abs(np.trace(out).real - 1.0))
            worst_h = max(worst_h, np.abs(out - out.conj().T).max())
    ok = worst_tr < 1e-12 and worst_h < 1e-12
    return ok, f"trace defect {worst_tr:.2e}, hermiticity defect {worst_h:.2e}"


def check_channel_output_twirled(ctx):
    rng = np.random.default_rng(ctx["seed"] + 3)
    worst = 0.0
    for n in (2, 3):
        rho = _random_density(rng, 2**n)
        out = channel.channel_apply(rho, channel.ChannelSpec(n, 0.4))
        worst = max(worst, np.abs(_twirled(out, n) - out).max())
    return worst < 1e-10, f"max twirled-structure defect {worst:.2e}"


def check_channel_input_twirl_equivalence(ctx):
    rng = np.random.default_rng(ctx["seed"] + 4)
    worst = 0.0
    for n in (2, 3):
        rho = _random_density(rng, 2**n)
        spec = channel.ChannelSpec(n, 0.6)
        a = channel.channel_apply(rho, spec)
        b = channel.channel_apply(_twirled(rho, n), spec)
        worst = max(worst, np.abs(a - b).max())
    return worst < 1e-10, f"max equivalence defect {worst:.2e}"


def check_channel_covariance(ctx):
    rng = np.random.default_rng(ctx["seed"] + 5)
    worst = 0.0
    for n in (2, 3, 4):
        rho = _random_density(rng, 2**n)
        big = functools.reduce(np.kron, [su2.quat_to_matrix(su2.haar_quat(rng))] * n)
        spec = channel.ChannelSpec(n, 0.5)
        a = channel.channel_apply(big @ rho @ big.conj().T, spec)
        b = channel.channel_apply(rho, spec)
        worst = max(worst, np.abs(a - b).max())
    return worst < 1e-10, f"max covariance defect {worst:.2e}"


def check_block_weight_stochastic(ctx):
    worst = 0.0
    for n in (2, 3, 4):
        conv = coupling.convention(n, 1)
        units = [(j, a) for j, idx in enumerate(conv.members) for a in idx]
        blocks = np.zeros((len(units), len(conv.tjs), len(conv.paths), len(conv.paths)))
        for u, (j, a) in enumerate(units):
            blocks[u, j, a, a] = 1.0  # the input P_J^{a,a}
        for t in (0.2, 1.0):
            out = channel.channel_on_blocks(blocks, n, t)
            col = np.einsum("ujaa->u", out)
            worst = max(worst, np.abs(col - 1.0).max())
    return worst < 1e-10, f"max column-sum defect {worst:.2e}"


def check_channel_semigroup(ctx):
    """E_0.9(E_0.4(rho)) = E_1.3(rho), which holds because the twirl
    commutes with every diffusion step and the steps with each other."""
    rng = np.random.default_rng(ctx["seed"] + 6)
    worst = 0.0
    for n in range(2, 7):
        rho = _random_density(rng, 2**n)
        once = channel.channel_apply(rho, channel.ChannelSpec(n, 0.4))
        twice = channel.channel_apply(once, channel.ChannelSpec(n, 0.9))
        direct = channel.channel_apply(rho, channel.ChannelSpec(n, 1.3))
        worst = max(worst, np.abs(twice - direct).max())
    return worst < 1e-11, f"max semigroup defect {worst:.2e}"


def check_generator_oracle(ctx):
    """The engine against exp(-(80 C_1 + t sum_{i>=2} C_i)/2), applied with
    expm_multiply to the row-major vec(rho).  C_i = sum_a (K^a)^2 with
    K^a = S^a (x) 1 - 1 (x) (S^a)^T and S^a the total spin of qubits i..N,
    so C_i vec(X) = vec(sum_a [S^a, [S^a, X]]).  The damped C_1 stands for
    the twirl (error e^-80); no CG, 6j, coupled basis or sampler enters."""
    rng = np.random.default_rng(ctx["seed"] + 13)
    paulis = [np.array(p) / 2 for p in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]

    def casimir(n, i):
        eye, total = sparse.identity(2**n), 0
        for p in paulis:
            spin = sum(sparse.kron(sparse.kron(sparse.identity(2**q), p), sparse.identity(2 ** (n - q - 1)))
                       for q in range(i - 1, n))
            k = sparse.kron(spin, eye) - sparse.kron(eye, spin.T)
            total = total + k @ k
        return total

    worst = 0.0
    n_max = 5 if ctx.get("quick", True) else 6
    for n in range(2, n_max + 1):
        c1, rest = casimir(n, 1), sum(casimir(n, i) for i in range(2, n + 1))
        rho = _random_density(rng, 2**n)
        for t in (0.0, 0.3, 1.0):
            out = expm_multiply(-0.5 * (80.0 * c1 + t * rest), rho.ravel())
            ref = channel._apply_linear(rho, channel.ChannelSpec(n, t))
            worst = max(worst, np.abs(out.reshape(rho.shape) - ref).max())
    return worst < 1e-12, f"max defect {worst:.2e} at N = 2..{n_max}"


def check_werner_shrink(ctx):
    worst = 0.0
    singlet = coupling.enumerate_paths(2, 0, 1)[0]
    psi = coupling.coupled_basis_vector(2, 0, 0, singlet)
    proj = np.outer(psi, psi.conj())
    for t in (0.1, 0.5, 2.0):
        for p0 in (0.0, 0.2, 0.25, 0.3, 0.6, 0.7, 1.0):
            rho = p0 * proj + (1 - p0) * (np.eye(4) - proj) / 3.0
            out = channel.channel_apply(rho, channel.ChannelSpec(2, t))
            p0_out = float(np.real(psi.conj() @ out @ psi))
            c_in = (1.0 - 4.0 * p0) / 3.0
            c_out = (1.0 - 4.0 * p0_out) / 3.0
            worst = max(worst, abs(c_out - math.exp(-t) * c_in))
    return worst < 1e-10, f"max shrink-law defect {worst:.2e}"


def check_three_qubit_closed_forms(ctx):
    worst = 0.0
    rng = np.random.default_rng(ctx["seed"] + 7)
    for t in (0.0, 0.2, 1.0, 3.0):
        for _ in range(12):
            st = three_qubit.pure_qubit_state(
                rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            )
            d = three_qubit.qutrit_channel(st, t) - three_qubit.qutrit_channel_general(
                st, t
            )
            worst = max(worst, np.abs(d).max())
        d = three_qubit.qutrit_channel(
            three_qubit.SYMMETRIC_STATE, t
        ) - three_qubit.qutrit_channel_general(three_qubit.SYMMETRIC_STATE, t)
        worst = max(worst, np.abs(d).max())
    return worst < 1e-10, f"max closed-form defect {worst:.2e}"


def check_three_qubit_objectives(ctx):
    """The optimizer cores against references built from the public
    qutrit_channel and von_neumann_entropy.  Holevo ensembles mix pure
    qubit-block states, |2> and pure qutrit states with |2> coherence, which
    the channel erases; pure qubit-block inputs give rank-deficient outputs
    at t = 0.  _mirrored_pair_chi, under the same Holevo gate, meets both
    _chi_fast of the explicit three-member ensemble and the dense reference,
    at random (q, theta, phi) with q in {0, 1/2} and phi = pi/2 among them.
    Coherent information takes W by explicit traces over the Kraus set and a
    unitary remix of it (gauge invariance), on rank 1-3 inputs."""
    rng = np.random.default_rng(ctx["seed"] + 12)
    pair_rng = np.random.default_rng(ctx["seed"] + 18)
    tq, ent = three_qubit, numerics.von_neumann_entropy

    def dense_chi(w, states, t):
        avg = tq.qutrit_channel(sum(p * s for p, s in zip(w, states)), t)
        return ent(avg) - sum(p * ent(tq.qutrit_channel(s, t)) for p, s in zip(w, states))

    worst = np.zeros(3)  # channel maps, Holevo, coherent information
    for k, (t, rank) in enumerate(itertools.product((0.0, 0.05, 0.5, 2.0, 3.0), (1, 2, 3) * 4)):
        rho = _random_density(rng, 3)
        ref = tq.qutrit_channel(rho, t)
        out = np.reshape(rho, 9) @ tq._superoperator(t)
        *pops, re_b, im_b = tq._output_map(t)
        c = tq._coords(rho)
        mapped = [np.dot(row, c[:3]) for row in pops]  # output r00, r11, r22
        mapped.append(complex(np.dot(re_b, c[3:]), np.dot(im_b, c[3:])))  # output r01
        d_s = max(np.abs(out - ref.ravel()).max(),
                  np.abs(np.array(mapped) - ref.ravel()[[0, 4, 8, 1]]).max())
        angles = rng.uniform(0, math.pi, 4), rng.uniform(0, 2 * math.pi, 4)
        psi = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        states = [*tq.pure_qubit_state(*angles), tq.SYMMETRIC_STATE,
                  *(np.outer(v, v.conj()) for v in psi)]
        w = np.exp(rng.normal(size=len(states)))
        w /= w.sum()
        d_chi = abs(tq._chi_fast(w, [tq._coords(s) for s in states], t) - dense_chi(w, states, t))
        q = (0.0, 0.5, pair_rng.uniform(0, 0.5))[k % 3]
        theta = pair_rng.uniform(-math.pi, math.pi)
        phi = (pair_rng.uniform(0, 2 * math.pi), math.pi / 2)[k % 2]
        w, states = (q, q, 1 - 2 * q), [*tq.pure_qubit_state([theta, -theta], phi),
                                        tq.SYMMETRIC_STATE]
        out_map = tq._output_map(t)
        pair = tq._mirrored_pair_chi(q, theta, phi, out_map,
                                     tq._output_entropy(out_map, tq.SYMMETRIC_COORDS))
        d_chi = max(d_chi, abs(pair - tq._chi_fast(w, [tq._coords(s) for s in states], t)),
                    abs(pair - dense_chi(w, states, t)))
        x = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
        x[2] *= k % 2  # every other input on the qubit block
        rho = x @ x.conj().T / np.sum(np.abs(x) ** 2)
        ops = numerics.kraus_from_choi(tq.qutrit_choi(t), 3)
        z = rng.normal(size=(len(ops),) * 2) + 1j * rng.normal(size=(len(ops),) * 2)
        mixed = np.tensordot(np.linalg.qr(z)[0], ops, axes=1)
        d_ci = max(abs(tq._ci_fast(rho, t) - ent(tq.qutrit_channel(rho, t))
                       + ent(_complement(kraus, rho))) for kraus in (ops, mixed))
        worst = np.maximum(worst, [d_s, d_chi, d_ci])
    ok = bool(np.all(worst <= [1e-14, 1e-12, 1e-12]))
    return ok, "max defect: channel maps {:.1e}, Holevo {:.1e}, CI {:.1e}".format(*worst)


def check_holevo_upper_bound(ctx):
    """maximize_holevo's certificate: 0 <= gap <= 1e-6, under the default
    config and under one restart of 500 iterations at the times where a
    search from q = 1/4 stalled 0.006-0.45 bits short, and the bound
    _holevo_upper_bound against a dense oracle.  At the family optimum the
    largest divergence sits on the members themselves, so the oracle also
    runs at the same pair with weight 1/4 each, where the maximiser lies
    elsewhere on the phi = 0 meridian.  No pure qutrit state off that
    meridian, with weight w in (0, 1) on the qubit block, has a relative
    entropy D(E(psi) || E(rho_bar)) above the bound + 1e-12, D taken from
    qutrit_channel, von_neumann_entropy and an eigh-based log."""
    tq = three_qubit
    thetas = (np.arange(8) + 0.5) * math.pi / 8
    phis = (np.arange(16) + 0.5) * math.pi / 8
    single = numerics.OptimizerConfig(restarts=1, max_iters=500, seed=7)
    single_gaps = [tq.maximize_holevo(t, single).gap for t in (0.02, 0.0575, 0.0825, 0.185, 0.23)]
    gaps, worst_excess = [], -math.inf
    for t in (0.0, 0.1, 0.5, 1.5):
        r = tq.maximize_holevo(t)
        gaps.append(r.gap)
        for q in (r.q, 0.25):
            ens = tq._family_ensemble(q, r.theta)
            bound = tq._holevo_upper_bound(
                ens.weights, [tq._coords(s) for s in ens.states], t)
            avg = sum(w * s for w, s in zip(ens.weights, ens.states))
            evals, vecs = np.linalg.eigh(tq.qutrit_channel(avg, t))  # full rank here
            log_tau = (vecs * np.log2(evals)) @ vecs.conj().T
            for th, ph, w in itertools.product(thetas, phis, (0.5, 0.999)):
                psi = [math.sqrt(w) * math.cos(th / 2),
                       math.sqrt(w) * math.sin(th / 2) * complex(math.cos(ph), math.sin(ph)),
                       math.sqrt(1 - w)]
                out = tq.qutrit_channel(np.outer(psi, np.conj(psi)), t)
                d = -numerics.von_neumann_entropy(out) - np.trace(out @ log_tau).real
                worst_excess = max(worst_excess, d - bound)
    ok = 0.0 <= min(gaps + single_gaps) and max(gaps + single_gaps) <= 1e-6
    ok = ok and worst_excess <= 1e-12
    return ok, (f"gap {min(gaps):.1e} to {max(gaps):.1e}, one restart {min(single_gaps):.1e} "
                f"to {max(single_gaps):.1e}, max grid D - upper bound {worst_excess:.1e}")


def check_qutrit_not_degradable(ctx):
    """Witness that no degrading map D with D o E = E^c exists at t = 0.1
    and 1: the channel sends X = |0><2| to exactly 0, its complement (over
    numerics.kraus_from_choi) does not (spectral norm > 0.1), and a linear D
    must send 0 to 0.  So between t* and ANTIDEGRADABLE_FROM the
    single-letter coherent information is only a lower bound on Q."""
    x = np.zeros((3, 3), dtype=complex)
    x[0, 2] = 1.0
    erased, leaked = [], []
    for t in (0.1, 1.0):
        ops = numerics.kraus_from_choi(three_qubit.qutrit_choi(t), 3)
        erased.append(float(np.abs(x.ravel() @ three_qubit._superoperator(t)).max()))
        leaked.append(float(np.linalg.norm(_complement(ops, x), 2)))
    ok = max(erased) == 0.0 and min(leaked) > 0.1
    return ok, (f"max |E(X)| {max(erased):.1e}, "
                f"|E^c(X)| = {leaked[0]:.2f} (t=0.1), {leaked[1]:.2f} (t=1)")


def check_qutrit_ppt_time(ctx):
    """The partial transpose of the qutrit Choi matrix turns PSD at PPT_FROM
    = ln 3: its smallest eigenvalue is < -1e-4 just before, 0 to 1e-12 at,
    and > 1e-4 just after."""
    def lam_min(t):
        pt = three_qubit.qutrit_choi(t).reshape(3, 3, 3, 3).transpose(0, 3, 2, 1)
        return float(np.linalg.eigvalsh(pt.reshape(9, 9))[0])

    t0 = three_qubit.PPT_FROM
    before, at, after = lam_min(t0 - 1e-3), lam_min(t0), lam_min(t0 + 1e-3)
    ok = before < -1e-4 and at >= -1e-12 and after > 1e-4
    return ok, f"min PT eigenvalue {before:.1e}, {at:.1e}, {after:.1e} at ln 3 - 1e-3, +0, +1e-3"


def check_small_channel_layer(ctx):
    """numerics.kraus_from_choi and complement_map on random Stinespring
    channels rho -> Tr_env(V rho V^dag), V a QR isometry, at (d_in, d_out,
    m) = (2, 3, 4), (3, 2, 2) and (4, 4, 3), and on the qutrit at t = 0.1
    and 0.8.  The Kraus set is read-only and complete, sum K^dag K = 1, and
    reproduces the channel (Tr_env(V rho V^dag), or qutrit_channel).
    vec(rho) @ complement_map equals _complement over that set, and for V
    its spectrum equals that of Tr_out(V rho V^dag), which no Kraus gauge
    enters.  Every defect is <= 1e-12."""
    rng = np.random.default_rng(ctx["seed"] + 15)
    cases = [(three_qubit.qutrit_choi(t), 3, None, t) for t in (0.1, 0.8)]
    for d_in, d_out, m in ((2, 3, 4), (3, 2, 2), (4, 4, 3)):
        z = rng.normal(size=(d_out * m, d_in)) + 1j * rng.normal(size=(d_out * m, d_in))
        v = np.linalg.qr(z)[0].reshape(d_out, m, d_in)  # V[(i, e), a]: output i, environment e
        choi = np.einsum("iek,jel->kilj", v, v.conj()).reshape(d_in * d_out, -1)
        cases.append((choi, d_in, v, None))
    worst, shapes_ok = np.zeros(3), True  # Kraus set, complement map, spectrum
    for choi, d_in, v, t in cases:
        ops, x = numerics.kraus_from_choi(choi, d_in), numerics.complement_map(choi, d_in)
        m = len(ops)
        shapes_ok &= (ops.shape[1:] == (len(choi) // d_in, d_in) and x.shape == (d_in**2, m * m)
                      and not (ops.flags.writeable or x.flags.writeable))
        d_kraus = np.abs(np.einsum("kia,kib->ab", ops.conj(), ops) - np.eye(d_in)).max()
        for _ in range(5):
            rho = _random_density(rng, d_in)
            w = (rho.ravel() @ x).reshape(m, m)
            d_spec = 0.0
            if v is None:
                out = three_qubit.qutrit_channel(rho, t)
            else:
                joint = np.einsum("iea,ab,jfb->iejf", v, rho, v.conj())
                out = np.einsum("ieje->ij", joint)
                d_spec = np.abs(np.linalg.eigvalsh(w) - np.linalg.eigvalsh(
                    np.einsum("ieif->ef", joint))).max()
            d_kraus = max(d_kraus, np.abs(sum(k @ rho @ k.conj().T for k in ops) - out).max())
            worst = np.maximum(worst, [d_kraus, np.abs(w - _complement(ops, rho)).max(), d_spec])
    ok = shapes_ok and bool(np.all(worst <= 1e-12))
    return ok, ("max defect: Kraus set {:.1e}, complement map {:.1e}, spectrum {:.1e}; "
                "shapes and read-only flags {}".format(*worst, "ok" if shapes_ok else "WRONG"))


def check_fidelity_identity(ctx):
    rng = np.random.default_rng(ctx["seed"] + 8)
    worst = 0.0
    for _ in range(100):
        th, ph, t = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 3)
        worst = max(
            worst,
            abs(three_qubit.fidelity(th, ph, t) - three_qubit.fidelity_bloch(th, ph, t)),
        )
    return worst < 1e-12, f"max identity defect {worst:.2e}"


def check_exact_extremes(ctx):
    """The closed-form extremes.  At t in {0.1, 1} no weight triple on the
    simplex grid of step 1/100 gives either orthogonal pair a chi above
    orthogonal_benchmark + 1e-12.  fidelity at the angles of
    fidelity_extremes equals its values, and no random (theta, phi, t)
    leaves [worst, best], each to 1e-12."""
    tq = three_qubit
    grid = [(i / 100, j / 100, (100 - i - j) / 100) for i in range(101) for j in range(101 - i)]
    excess, d_at, outside = -math.inf, 0.0, -math.inf
    for t in (0.1, 1.0):
        for phi, value in zip((0.0, math.pi / 2), tq.orthogonal_benchmark(t)):
            members = [tq._pure_qubit_coords(th, phi) for th in (math.pi / 2, -math.pi / 2)]
            best = max(tq._chi_fast(w, [*members, tq.SYMMETRIC_COORDS], t) for w in grid)
            excess = max(excess, best - value)
    rng = np.random.default_rng(ctx["seed"] + 16)
    for th, ph, t in rng.uniform(0, 1, (200, 3)) * [math.pi, 2 * math.pi, 3]:
        (best, *best_at), (worst, *worst_at) = tq.fidelity_extremes(t)
        d_at = max(d_at, abs(tq.fidelity(*best_at, t) - best), abs(tq.fidelity(*worst_at, t) - worst))
        outside = max(outside, tq.fidelity(th, ph, t) - best, worst - tq.fidelity(th, ph, t))
    ok = excess <= 1e-12 and d_at <= 1e-12 and outside <= 1e-12
    return ok, (f"max grid chi - orthogonal benchmark {excess:.1e}; fidelity at the extreme "
                f"angles {d_at:.1e}, max draw outside [worst, best] {outside:.1e}")


def check_choi_psd(ctx):
    worst = 0.0
    for t in (0.0, 0.1, 1.0, 10.0):
        evals = np.linalg.eigvalsh(channel.choi_matrix(channel.ChannelSpec(3, t)))
        worst = min(worst, float(evals.min()))
    return worst > -1e-10, f"min Choi eigenvalue {worst:.2e}"


# ---- slow gates (excluded by --quick) -------------------------------------


def check_haar_class_ks(ctx):
    rng = np.random.default_rng(ctx["seed"] + 9)
    xi = su2.class_angle_of_quat(su2.haar_quat(rng, 100000))
    cdf = lambda x: (x - np.sin(x)) / (2 * np.pi)  # integral of sin^2(x/2)/pi
    stat = stats.kstest(xi, cdf)
    return stat.pvalue > 0.01, f"KS p={stat.pvalue:.4f}"


def check_kernel_semigroup_ks(ctx):
    rng = np.random.default_rng(ctx["seed"] + 10)
    n = 100000
    a = su2.heat_kernel_quat(0.5, rng, n)
    b = su2.heat_kernel_quat(0.5, rng, n)
    prod_xi = su2.class_angle_of_quat(su2.quat_mul(a, b))
    direct_xi = su2.class_angle_of_quat(su2.heat_kernel_quat(1.0, rng, n))
    stat = stats.ks_2samp(prod_xi, direct_xi)
    return stat.pvalue > 0.01, f"two-sample KS p={stat.pvalue:.4f}"


def check_mc_oracle(ctx):
    rng = np.random.default_rng(ctx["seed"] + 11)
    worst = 0.0
    for n in (2, 3):
        rho = _random_density(rng, 2**n)
        spec = channel.ChannelSpec(n, 0.5)
        ref = channel.channel_apply(rho, spec)
        mc = channel.monte_carlo_channel(rho, spec, 100000, seed=ctx["seed"] + n)
        worst = max(worst, mc.max_deviation_sigma(ref))
    return worst < 3.5, f"max deviation {worst:.2f} sigma"


def check_coherent_info_endpoints(ctx):
    r0 = three_qubit.maximize_coherent_info(0.0)
    ok0 = abs(r0.value - 1.0) < 1e-6 and abs(r0.epsilon - 0.5) < 1e-3
    r3 = three_qubit.maximize_coherent_info(0.3)
    ok3 = r3.value < 1e-8
    return ok0 and ok3, f"I_C(0)={r0.value:.8f}, I_C(0.3)={r3.value:.2e}"


def check_antidegradable_cut(ctx):
    """The proof of three_qubit.ANTIDEGRADABLE_FROM.  At the cut
    numerics.antidegrading_map succeeds with residual <= 1e-12 and
    lambda_min >= 1e-10; independently, A applied to W(rho), built by
    explicit traces over kraus_from_choi, reproduces qutrit_channel on 20
    random states to 1e-12, and A's trace-preservation defect is <= 1e-12.
    The qutrit semigroup S_t0 S_s = S_(t0+s), which carries the certificate
    to every later t, holds to 1e-14 for s in {0.01, 0.5, 1.1}."""
    tq, t0 = three_qubit, three_qubit.ANTIDEGRADABLE_FROM
    cert = numerics.antidegrading_map(tq.qutrit_choi(t0), 3)
    ops = numerics.kraus_from_choi(tq.qutrit_choi(t0), 3)
    m = len(ops)
    a_choi = cert.choi.reshape(m, 3, m, 3)
    rng = np.random.default_rng(ctx["seed"] + 14)
    d_map = 0.0
    for _ in range(20):
        rho = _random_density(rng, 3)
        out = np.einsum("kl,kilj->ij", _complement(ops, rho), a_choi)
        d_map = max(d_map, np.abs(out - tq.qutrit_channel(rho, t0)).max())
    d_tp = np.abs(np.einsum("kili->kl", a_choi) - np.eye(m)).max()
    d_semi = max(np.abs(tq._superoperator(t0) @ tq._superoperator(s)
                        - tq._superoperator(t0 + s)).max() for s in (0.01, 0.5, 1.1))
    ok = (cert.ok and cert.residual <= 1e-12 and cert.lambda_min >= 1e-10
          and d_map <= 1e-12 and d_tp <= 1e-12 and d_semi <= 1e-14)
    return ok, (f"t={t0}: lambda_min {cert.lambda_min:.2e}, residual {cert.residual:.1e} "
                f"after {cert.iterations} iterations; Kraus re-check {d_map:.1e}, "
                f"TP defect {d_tp:.1e}, semigroup defect {d_semi:.1e}")


def check_capacity_endpoint(ctx):
    r = three_qubit.maximize_holevo(0.0)
    ok = (
        abs(r.capacity - three_qubit.LOG2_3) < 1e-6
        and abs(r.q - 1.0 / 3.0) < 1e-3
        and abs(r.theta - math.pi / 2) < 1e-3
    )
    return ok, f"C(0)={r.capacity:.8f}, q={r.q:.5f}, theta={r.theta:.5f}"


CHECKS = [
    ("cg_orthogonality", True, check_cg_orthogonality),
    ("sixj_symmetry", True, check_sixj_symmetry),
    ("sixj_orthogonality", True, check_sixj_orthogonality),
    ("recoupling_unitarity", True, check_recoupling_unitarity),
    ("adjoint_representation", True, check_adjoint_representation),
    ("kernel_normalization", True, check_kernel_normalization),
    ("kernel_positivity", True, check_kernel_positivity),
    ("coefficient_semigroup", True, check_coefficient_semigroup),
    ("multiplicity_sum", True, check_multiplicity_sum),
    ("basis_unitarity", True, check_basis_unitarity),
    ("twirl_projection", True, check_twirl_projection),
    ("twirl_rotation_invariance", True, check_twirl_rotation_invariance),
    ("channel_trace_hermiticity", True, check_channel_trace_hermiticity),
    ("channel_output_twirled", True, check_channel_output_twirled),
    ("channel_input_twirl_equivalence", True, check_channel_input_twirl_equivalence),
    ("channel_covariance", True, check_channel_covariance),
    ("block_weight_stochastic", True, check_block_weight_stochastic),
    ("channel_semigroup", True, check_channel_semigroup),
    ("generator_oracle", True, check_generator_oracle),
    ("werner_shrink_law", True, check_werner_shrink),
    ("three_qubit_closed_forms", True, check_three_qubit_closed_forms),
    ("three_qubit_objectives", True, check_three_qubit_objectives),
    ("holevo_upper_bound", True, check_holevo_upper_bound),
    ("qutrit_not_degradable", True, check_qutrit_not_degradable),
    ("qutrit_ppt_time", True, check_qutrit_ppt_time),
    ("small_channel_layer", True, check_small_channel_layer),
    ("fidelity_identity", True, check_fidelity_identity),
    ("exact_extremes", True, check_exact_extremes),
    ("choi_psd", True, check_choi_psd),
    ("haar_class_ks", False, check_haar_class_ks),
    ("kernel_semigroup_ks", False, check_kernel_semigroup_ks),
    ("mc_oracle", False, check_mc_oracle),
    ("coherent_info_endpoints", False, check_coherent_info_endpoints),
    ("antidegradable_cut", False, check_antidegradable_cut),
    ("capacity_endpoint", False, check_capacity_endpoint),
]


def run_verify(quick: bool = False, seed: int = 12345) -> dict:
    """Run all (or the quick subset of) named checks; never aborts early."""
    ctx = {"seed": seed, "quick": quick}
    results = []
    for name, is_quick, fn in CHECKS:
        if quick and not is_quick:
            continue
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append({"check": name, "ok": bool(ok), "detail": detail})
    return {
        "seed": seed,
        "quick": quick,
        "passed": sum(r["ok"] for r in results),
        "failed": sum(not r["ok"] for r in results),
        "results": results,
    }
