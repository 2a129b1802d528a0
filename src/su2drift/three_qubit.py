"""Closed-form three-qubit analysis of the diffusion channel.

Three spins 1/2 give one j = 3/2 subspace and a doubly degenerate j = 1/2
subspace, so a twirled state is effectively a qutrit in the ordered basis
(|e1>, |e2>, |2>), where |e1> = (|0> + sqrt(3)|1>)/2 and
|e2> = (sqrt(3)|0> - |1>)/2 mix the multiplicity labels |0> (intermediate
j12 = 0) and |1> (j12 = 1), and |2> stands for the symmetric block.  The
channel preserves no coherence between the qubit subspace and |2>.

The channel reads five real numbers of its input, the coordinates
(r00, r11, r22, Re r01, Im r01), and maps them linearly to the output's
qubit block (a, d, b) and |2> weight, whose spectrum is in closed form.  The
objectives therefore run on Python floats: a cached per-t coefficient map
read off the superoperator, a few multiplies per state and math.log2.  The
entropy exchange S(E^c(rho)) (Schumacher, PRA 54, 2614 (1996)) is read off
vec(rho) by the small-channel layer's numerics.complement_map of qutrit_choi.
Each public quantity checks its input once and calls one unchecked core,
which the optimizers call directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channel, coupling, numerics

LOG2_3 = math.log2(3.0)

#: Multiplicity-label change of basis: columns are |e1>, |e2> in the
#: (|0>, |1>) basis; orthogonal and symmetric, so it is its own inverse.
E_BASIS = np.array([[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])


def pure_qubit_state(theta, phi) -> np.ndarray:
    """Pure state cos(t/2)|e1> + sin(t/2) e^{i phi}|e2> as a qutrit matrix;
    angle arrays broadcast to a (..., 3, 3) stack."""
    half = np.asarray(theta, dtype=float) / 2
    coherent = np.sin(half) * np.exp(1j * np.asarray(phi))
    psi = np.zeros(coherent.shape + (3,), dtype=complex)
    psi[..., 0] = np.cos(half)
    psi[..., 1] = coherent
    return psi[..., :, None] * psi[..., None, :].conj()


def _pure_qubit_coords(theta: float, phi: float) -> tuple:
    """Coordinates (r00, r11, r22, Re r01, Im r01) of pure_qubit_state."""
    z, half_sin = math.cos(theta), 0.5 * math.sin(theta)
    return (0.5 * (1.0 + z), 0.5 * (1.0 - z), 0.0, half_sin * math.cos(phi),
            -half_sin * math.sin(phi))


def _coords(rho) -> tuple:
    """The five real numbers of a Hermitian 3x3 input that the channel
    reads: (r00, r11, r22, Re r01, Im r01)."""
    r = np.asarray(rho).ravel().tolist()
    return (r[0].real, r[4].real, r[8].real, r[1].real, r[1].imag)


SYMMETRIC_STATE = np.diag([0.0, 0.0, 1.0]).astype(complex)
SYMMETRIC_COORDS = (0.0, 0.0, 1.0, 0.0, 0.0)


def _qutrit_channel_linear(rho: np.ndarray, t: float) -> np.ndarray:
    """Channel action extended linearly to arbitrary 3x3 inputs.

    Input coherences with |2> are erased; the qubit block follows the
    linear extension of the extreme-state closed forms and |2><2| feeds
    back into the whole qutrit.
    """
    et, e2t = math.exp(-t), math.exp(-2.0 * t)
    r00, r01 = rho[0, 0], rho[0, 1]
    r10, r11 = rho[1, 0], rho[1, 1]
    r22 = rho[2, 2]
    tr_qb = r00 + r11
    dz = r00 - r11
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = (tr_qb + e2t * (tr_qb + 2 * dz)) / 4 + r22 * (1 - e2t) / 4
    out[1, 1] = (3 * tr_qb + 8 * et * r11 - e2t * (tr_qb + 2 * dz)) / 12 + r22 * (
        3 - 4 * et + e2t
    ) / 12
    out[2, 2] = (3 * tr_qb - 4 * et * r11 - e2t * (tr_qb + 2 * dz)) / 6 + r22 * (
        3 + 2 * et + e2t
    ) / 6
    out[0, 1] = (et * (r01 + r10) + e2t * (r01 - r10)) / 2
    out[1, 0] = (et * (r10 + r01) + e2t * (r10 - r01)) / 2
    return out


def qutrit_channel(rho: np.ndarray, t: float) -> np.ndarray:
    """Closed-form three-qubit channel in the effective qutrit picture."""
    t = numerics.validate_time(t)
    return _qutrit_channel_linear(numerics.validate_density(rho, 3), t)


@lru_cache(maxsize=64)
def _superoperator(t: float) -> np.ndarray:
    """Read-only 9x9 row map S, vec(E(rho)) = vec(rho) @ S, as in numerics."""
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    s = np.stack([_qutrit_channel_linear(u, t) for u in units]).reshape(9, 9)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=64)
def qutrit_choi(t: float) -> np.ndarray:
    """9x9 Choi matrix of the effective qutrit channel."""
    out = _superoperator(t).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _output_map(t: float) -> tuple:
    """Coefficients of the channel on the coordinates of _coords, read off
    the superoperator as float rows: (a, d, |2> weight) from (r00, r11, r22),
    then (Re b, Im b) from (Re r01, Im r01), where [[a, b], [b*, d]] is the
    output's qubit block.  Populations and qubit coherence do not mix."""
    s = _superoperator(t)
    pops = s[np.ix_([0, 4, 8], [0, 4, 8])].real.T  # row: output, column: input
    coh = np.array([s[1, 1] + s[3, 1], 1j * (s[1, 1] - s[3, 1])])  # b of Re, Im r01 = 1
    return tuple(map(tuple, [*pops.tolist(), coh.real.tolist(), coh.imag.tolist()]))


def _output_entropy(out_map: tuple, coords) -> float:
    """Entropy in bits of the channel output of one input, from its
    coordinates: the qubit block's (a+d)/2 +- sqrt(((a-d)/2)^2 + |b|^2)
    plus the |2> weight."""
    (a0, a1, a2), (d0, d1, d2), (w0, w1, w2), (re_u, re_v), (im_u, im_v) = out_map
    r00, r11, r22, u, v = coords
    a = a0 * r00 + a1 * r11 + a2 * r22
    d = d0 * r00 + d1 * r11 + d2 * r22
    re, im = re_u * u + re_v * v, im_u * u + im_v * v
    mean, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), re, im)
    return numerics._entropy_bits((mean + r, mean - r, w0 * r00 + w1 * r11 + w2 * r22))


@lru_cache(maxsize=64)
def _exchange_map(t: float) -> np.ndarray:
    """Read-only (9, m^2) map X of the entropy exchange, vec(W) = vec(rho) @ X."""
    return numerics.complement_map(qutrit_choi(t), 3)


# --- bridge to the general channel machinery ------------------------------


def qutrit_to_dense(rho: np.ndarray) -> np.ndarray:
    """Embed a qutrit state as a dense twirled 8-dimensional matrix."""
    rho = np.asarray(rho, dtype=complex)
    # Convention-2 block array: J = 1/2, 3/2 by the paths j12 = 0, 1.
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = E_BASIS @ rho[:2, :2] @ E_BASIS  # multiplicity-label basis
    blocks[1, 1, 1] = rho[2, 2]
    return coupling.embed_blocks(blocks, 3, 2)


def dense_to_qutrit(rho: np.ndarray) -> np.ndarray:
    """Read a twirled 8-dimensional matrix back into the qutrit picture."""
    blocks = coupling._twirl_linear(rho, 3, 2)
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = E_BASIS @ blocks[0] @ E_BASIS
    out[2, 2] = blocks[1, 1, 1]
    return out


def qutrit_channel_general(rho: np.ndarray, t: float) -> np.ndarray:
    """Qutrit channel computed through the general N = 3 channel engine."""
    out = channel._apply_linear(qutrit_to_dense(rho), channel.ChannelSpec(3, t))
    return dense_to_qutrit(out)


# --- fidelity --------------------------------------------------------------


def effective_qubit_map(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Effective qubit channel: |2> leakage replaced by the maximally mixed
    state, leaving an anisotropic shrink plus a z-translation.  Returns
    (shrink, translation), acting as r_out = shrink @ r_in + translation."""
    et, e2t = math.exp(-t), math.exp(-2.0 * t)
    shrink = np.diag([et, e2t, (2 * e2t + et) / 3.0])
    translation = np.array([0.0, 0.0, (e2t - et) / 3.0])
    return shrink, translation


def fidelity(theta: float, phi: float, t: float) -> float:
    """Transmission fidelity of the Bloch-sphere state (theta, phi)."""
    et, e2t = math.exp(-t), math.exp(-2.0 * t)
    aniso = (
        4 * math.cos(theta)
        - 6 * math.cos(2 * phi) * math.sin(theta) ** 2
        + math.cos(2 * theta)
    )
    return (12 + 5 * et + 7 * e2t + (e2t - et) * aniso) / 24.0


def fidelity_bloch(theta: float, phi: float, t: float) -> float:
    """Fidelity via the affine map: (1 + r_in . r_out)/2."""
    r_in = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    shrink, translation = effective_qubit_map(t)
    return 0.5 * (1.0 + r_in @ (shrink @ r_in + translation))


def great_circle_fidelity(theta_c: float, phi_c: float, t: float) -> float:
    """Average fidelity over the great circle with normal (theta_c, phi_c)."""
    et, e2t = math.exp(-t), math.exp(-2.0 * t)
    return (
        6 * (e2t + et + 2)
        + (e2t - et) * (1 + 3 * math.cos(2 * phi_c)) * math.sin(theta_c) ** 2
    ) / 24.0


def fidelity_extremes(t: float) -> tuple:
    """Best and worst fidelity over the Bloch sphere, each as (f, theta, phi).

    With c = cos(theta), fidelity is (12 + 5e^-t + 7e^-2t + (e^-2t - e^-t) A)
    / 24, A = 4c + 2c^2 - 1 - 6 cos(2 phi) (1 - c^2).  As e^-2t <= e^-t, the
    best state minimises A (phi = 0, c = -1/4) and the worst maximises it
    (phi = pi/2, c = 1/2).
    """
    t = numerics.validate_time(t)
    et, e2t = math.exp(-t), math.exp(-2.0 * t)
    return (((24.0 + 25.0 * et - e2t) / 48.0, math.acos(-0.25), 0.0),
            ((12.0 - et + 13.0 * e2t) / 24.0, math.pi / 3, math.pi / 2))


def average_fidelity(t: float) -> float:
    """Fidelity averaged uniformly over the whole Bloch sphere."""
    return (9.0 + 4.0 * math.exp(-t) + 5.0 * math.exp(-2.0 * t)) / 18.0


# --- coherent information ---------------------------------------------------

#: Diffusion time from which the qutrit channel is anti-degradable, so its
#: quantum capacity is 0 and no input has positive coherent information.
#: The verify check antidegradable_cut proves it; one certificate covers
#: every t >= t0 = ANTIDEGRADABLE_FROM in three steps:
#:
#: - at t0, numerics.antidegrading_map finds a channel A with
#:   A o E^c_t0 = E_t0;
#: - the channel is a semigroup, E_t = E_{t-t0} o E_t0;
#: - the complement of that composition, with Kraus operators
#:   F_j E_k, gives E^c_t0 once the second environment j is traced out.
#:
#: So A' = E_{t-t0} o A o Tr_j satisfies A' o E^c_t = E_t; the complement
#: over any other Kraus set differs by an isometry of the environment.
ANTIDEGRADABLE_FROM = 0.40
#: Diffusion time ln 3 from which the partial transpose of the Choi matrix
#: is PSD (verify check qutrit_ppt_time): a PPT channel also has Q = 0.
PPT_FROM = math.log(3.0)


def coherent_information(rho: np.ndarray, t: float) -> float:
    """S(E(rho)) - S_env for one input state, in bits.

    The entropy exchange is the entropy of W_kl = Tr(E_k rho E_l^dag) over
    the Kraus set; the value is invariant under Kraus gauge changes.
    """
    t = numerics.validate_time(t)
    return _ci_fast(numerics.validate_density(rho, 3), t)


def _ci_fast(rho: np.ndarray, t: float) -> float:
    """Coherent information without validation, for optimizer hot paths;
    rho may be the 3x3 matrix or its row-major vec."""
    vec = rho.ravel()
    w = vec @ _exchange_map(t)
    m = math.isqrt(w.size)  # W is m x m, m the Kraus rank
    return _output_entropy(_output_map(t), _coords(vec)) - numerics._entropy_fast(w.reshape(m, m))


def _diagonal_family_state(eps: float) -> np.ndarray:
    return np.diag([eps, 1.0 - eps, 0.0]).astype(complex)


@dataclass
class CoherentInfoResult:
    value: float
    epsilon: float
    general_value: float
    upper_bound: float  # 0 where the channel is certified anti-degradable, else inf
    # The general search's flag, True where the certificate replaces the
    # search (t >= ANTIDEGRADABLE_FROM).  Between t* and that cut the
    # search's optimum, I_c = 0 on pure states, lies on the sphere that the
    # parametrisation p/(1+|p|) never reaches, so Nelder-Mead wanders a
    # plateau and this flag (and nfev) is still set by last-bit rounding.
    converged: bool
    nfev: int  # objective evaluations over both searches


def maximize_coherent_info(
    t: float, config: numerics.OptimizerConfig | None = None
) -> CoherentInfoResult:
    """Best single-letter coherent information over qubit-block inputs.

    Scans the diagonal family eps|e1><e1| + (1-eps)|e2><e2| by bounded
    scalar search, then confirms against a multi-start search over general
    qubit-block states; the symmetric block cannot contribute.  Never less
    than 0, which pure inputs attain.  From ANTIDEGRADABLE_FROM on, every
    input has I_c <= 0, so the value is 0 with upper_bound 0 and no general
    search runs.
    """
    from scipy import optimize

    t = numerics.validate_time(t)
    if config is None:
        config = numerics.OptimizerConfig(restarts=8, seed=11)
    res = optimize.minimize_scalar(
        lambda e: -_ci_fast(_diagonal_family_state(e), t),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    eps, family_val = float(res.x), float(-res.fun)
    if t >= ANTIDEGRADABLE_FROM:
        return CoherentInfoResult(0.0, eps, 0.0, 0.0, True, res.nfev)

    def objective(p):
        px, py, pz = p.tolist()
        scale = 1.0 + math.sqrt(px * px + py * py + pz * pz)  # open unit ball
        x, y, z = px / scale, py / scale, pz / scale
        r01 = 0.5 * complex(x, -y)
        return _ci_fast(np.array([0.5 * (1 + z), r01, 0, r01.conjugate(), 0.5 * (1 - z),
                                  0, 0, 0, 0]), t)

    general = numerics.nelder_mead_maximize(objective, np.zeros(3), config)
    best = max(family_val, general.fun, 0.0)
    return CoherentInfoResult(best, eps, max(general.fun, 0.0), math.inf, general.converged,
                              res.nfev + general.nfev)


def coherent_info_threshold() -> float:
    """Diffusion time t* where the best coherent information reaches 0.

    The diagonal family's optimum eps stays inside (0, 1) at t*, so
    (eps, t*) solves f = 0 and df/deps = 0, f(eps, t) the family value.
    Newton's method on that pair, with central differences of step 1e-5,
    runs from (0.64, 0.28) until its step falls below 1e-12; one general
    search at t* then confirms that no qubit-block input does better.
    """
    h = 1e-5

    def f(eps, t):
        return _ci_fast(_diagonal_family_state(eps), t)

    def f_eps(eps, t):
        return (f(eps + h, t) - f(eps - h, t)) / (2 * h)

    eps, t = 0.64, 0.28
    for _ in range(30):
        jac = [[f_eps(eps, t), (f(eps, t + h) - f(eps, t - h)) / (2 * h)],
               [(f(eps + h, t) - 2 * f(eps, t) + f(eps - h, t)) / h**2,
                (f_eps(eps, t + h) - f_eps(eps, t - h)) / (2 * h)]]
        d_eps, d_t = np.linalg.solve(jac, [f(eps, t), jac[0][0]]).tolist()
        eps, t = eps - d_eps, t - d_t
        if max(abs(d_eps), abs(d_t)) < 1e-12:
            break
    else:
        raise RuntimeError("threshold Newton solve did not converge in 30 steps")
    check = maximize_coherent_info(t)
    if check.general_value > 1e-9:
        raise RuntimeError(
            f"general search beats the family at t* = {t}: {check.general_value:.3e} bits"
        )
    return t


# --- classical capacity -----------------------------------------------------


@dataclass
class Ensemble:
    """Weighted pure qutrit states."""

    weights: list
    states: list

    def validate(self):
        if len(self.weights) != len(self.states):
            raise ValueError("ensemble needs one weight per state")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ValueError("ensemble weights must sum to 1")
        if any(w < 0 for w in self.weights):
            raise ValueError("ensemble weights must be non-negative")
        for s in self.states:
            if np.linalg.eigvalsh(numerics.validate_density(s, 3))[-1] < 1.0 - 1e-10:
                raise ValueError("ensemble states must be pure")


def holevo_chi(ensemble: Ensemble, t: float) -> float:
    """Holevo quantity of an ensemble through the channel, in bits."""
    t = numerics.validate_time(t)
    ensemble.validate()
    return _chi_fast(ensemble.weights, [_coords(s) for s in ensemble.states], t)


def _chi_fast(weights, coords, t: float) -> float:
    """Holevo quantity without validation, for optimizer hot paths: each
    member given by its _coords, their average by linearity."""
    out_map = _output_map(t)
    members = sum(w * _output_entropy(out_map, c) for w, c in zip(weights, coords))
    avg = [sum(map(operator.mul, weights, column)) for column in zip(*coords)]
    return _output_entropy(out_map, avg) - members


def _holevo_upper_bound(weights, coords, t: float) -> float:
    """Divergence radius U = max over pure psi of D(E(psi) || tau) in bits,
    tau = E(rho_bar) for the ensemble average rho_bar, which must carry no
    qubit coherence (Re r01 = Im r01 = 0, as the mirrored pair's +-theta
    members give exactly).

    U bounds the Holevo capacity from above for any rho_bar (Schumacher and
    Westmoreland, PRA 63, 022308 (2001)): chi = sum p_i D(E(psi_i) ||
    E(rho_ens)) <= sum p_i D(E(psi_i) || sigma) for every sigma.  Three steps
    make the maximization one-dimensional:

    - Convexity: D(E(psi) || tau) = -S(E(psi)) - Tr E(psi) log tau is convex
      in psi's block-diagonal part, the only part E reads, so the maximum
      sits at an extreme point: a pure qubit-block state or |2>.
    - One meridian: tau is diagonal, so the cross term depends on the
      populations, hence on z alone.  The output coherence is
      |b|^2 = e^{-2t} (x/2)^2 + e^{-4t} (y/2)^2, so at fixed z, -S is
      largest at y = 0.
    - Symmetry: theta -> -theta gives the same value, so theta in [0, pi].

    So U = max(D(|2>), max over theta in [0, pi] of D(pure_qubit(theta, 0))),
    taken on a 65-point grid and polished by bounded Brent search in the
    cells around the best point.  The members' own divergences join the max,
    so that U >= chi also holds in floats.  Where tau has a zero population
    and the output has weight, U is +inf.
    """
    from scipy import optimize

    out_map = _output_map(t)
    avg = [sum(map(operator.mul, weights, column)) for column in zip(*coords)]
    pops = out_map[:3]  # rows: a, d and the |2> weight, from (r00, r11, r22)
    log_tau = [math.log2(x) if x > 0 else -math.inf
               for x in (sum(map(operator.mul, row, avg[:3])) for row in pops)]

    def divergence(c):
        cross = 0.0
        for row, log_x in zip(pops, log_tau):
            p = sum(map(operator.mul, row, c[:3]))
            if p > 0:
                cross -= p * log_x
        return cross - _output_entropy(out_map, c)

    def meridian(theta):
        return divergence(_pure_qubit_coords(theta, 0.0))

    grid = [math.pi * k / 64 for k in range(65)]
    values = [meridian(th) for th in grid]
    k = values.index(max(values))
    polish = optimize.minimize_scalar(
        lambda th: -meridian(th),
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 64)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return max(values[k], -polish.fun, divergence(SYMMETRIC_COORDS),
               *map(divergence, coords))


def _family_ensemble(q: float, theta: float) -> Ensemble:
    """The mirrored-pair ensemble: two qubit-block states at +-theta/2 from
    |e1> in the phi = 0 plane with weight q each, plus |2>."""
    pair = pure_qubit_state(np.array([theta, -theta]), 0.0)
    return Ensemble([q, q, 1.0 - 2.0 * q], [*pair, SYMMETRIC_STATE])


@dataclass
class HolevoResult:
    capacity: float
    ensemble: Ensemble
    q: float
    theta: float
    family_capacity: float  # the family optimum, equal to capacity
    upper_bound: float  # divergence radius at the family average, >= C_chi
    nfev: int  # objective evaluations of the family search

    @property
    def gap(self) -> float:
        """Duality gap: the Holevo capacity lies in [capacity, upper_bound]."""
        return self.upper_bound - self.capacity


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def maximize_holevo(
    t: float, config: numerics.OptimizerConfig | None = None
) -> HolevoResult:
    """Holevo capacity from the mirrored-pair family (q, theta), certified
    by an upper bound.

    The family is optimized directly; _holevo_upper_bound at its average
    then brackets the capacity over all ensembles as [capacity,
    upper_bound], with no search outside the family.
    """
    t = numerics.validate_time(t)
    if config is None:
        config = numerics.OptimizerConfig(restarts=16, max_iters=2500, seed=5)

    def family_obj(p):
        x, theta = p.tolist()
        q = 0.5 * _sigmoid(x)
        pair = _pure_qubit_coords(theta, 0.0), _pure_qubit_coords(-theta, 0.0)
        return _chi_fast((q, q, 1.0 - 2.0 * q), (*pair, SYMMETRIC_COORDS), t)

    fam = numerics.nelder_mead_maximize(family_obj, np.array([0.0, math.pi / 2]), config)
    q = 0.5 * _sigmoid(fam.x[0])
    theta = _normalize_theta(fam.x[1])
    members = _pure_qubit_coords(theta, 0.0), _pure_qubit_coords(-theta, 0.0), SYMMETRIC_COORDS
    bound = _holevo_upper_bound((q, q, 1.0 - 2.0 * q), members, t)
    return HolevoResult(
        fam.fun, _family_ensemble(q, theta), q, theta, fam.fun, bound, fam.nfev
    )


def _normalize_theta(theta: float) -> float:
    """Fold an unconstrained angle into [0, pi] using the family symmetry
    theta -> -theta (state swap) and 2*pi periodicity."""
    return abs(math.remainder(theta, 2.0 * math.pi))


def orthogonal_benchmark(t: float) -> tuple:
    """Holevo capacities of the best orthogonal pair (|e1> +- |e2>)/sqrt2,
    on the weakly shrunk x axis, and the worst, (|e1> +- i|e2>)/sqrt2 on the
    strongly shrunk y axis, each with |2> and optimal weights.

    The outputs depend on the qubit coherence only through |b|, so x -> -x
    (y -> -y) swaps the pair's states and leaves chi unchanged; chi is
    concave in the weights, so equal pair weights (q, q, 1 - 2q) are exact,
    and each pair is one bounded Brent solve over q in [0, 1/2].
    """
    from scipy import optimize

    t = numerics.validate_time(t)
    values = []
    for phi in (0.0, math.pi / 2):
        members = (*(_pure_qubit_coords(th, phi) for th in (math.pi / 2, -math.pi / 2)),
                   SYMMETRIC_COORDS)
        res = optimize.minimize_scalar(lambda q: -_chi_fast((q, q, 1.0 - 2.0 * q), members, t),
                                       bounds=(0.0, 0.5), method="bounded",
                                       options={"xatol": 1e-10})
        values.append(float(-res.fun))
    return tuple(values)


# --- weak-diffusion reference curves ---------------------------------------


def coherent_info_weak(t: float) -> float:
    """Small-t expansion of the best coherent information (t log t terms)."""
    return 1.0 - (t / 3.0) * (8.0 - LOG2_3 + 2.0 / math.log(2) - 2.0 * math.log2(t))


def capacity_weak(t: float) -> float:
    """Small-t expansion of the classical capacity."""
    return LOG2_3 + (t / 9.0) * (
        1.0 - (14.0 + 11.0 * math.log(3)) / (2.0 * math.log(2)) + 7.0 * math.log2(t)
    )
