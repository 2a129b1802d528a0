"""Effective qutrit channel, fidelities, coherent information, capacity."""

import math

import numpy as np
import pytest

from su2drift import numerics, three_qubit as tq


def test_pure_qubit_state_is_normalized():
    rho = tq.pure_qubit_state(0.7, 1.3)
    assert rho.shape == (3, 3)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).max() == pytest.approx(1.0, abs=1e-13)
    assert rho[2, 2] == 0.0


def test_pure_qubit_state_broadcasts_over_angle_arrays():
    rng = np.random.default_rng(35)
    for shape in ((4,), (2, 3)):
        theta = rng.uniform(-4, 4, shape)
        phi = rng.uniform(-4, 4, shape)
        batch = tq.pure_qubit_state(theta, phi)
        assert batch.shape == shape + (3, 3)
        for idx in np.ndindex(shape):
            single = tq.pure_qubit_state(float(theta[idx]), float(phi[idx]))
            assert np.abs(batch[idx] - single).max() <= 1e-15
    # a scalar call is the outer product of the state vector, as a (3, 3)
    rho = tq.pure_qubit_state(0.7, 1.3)
    psi = np.array([math.cos(0.35), math.sin(0.35) * np.exp(1.3j), 0.0])
    assert rho.shape == (3, 3) and rho.dtype == complex
    assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-15
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)


def test_e_basis_self_inverse():
    assert np.allclose(tq.E_BASIS @ tq.E_BASIS, np.eye(2), atol=1e-15)


def test_channel_erases_symmetric_coherences():
    rho = np.full((3, 3), 1 / 3, dtype=complex)
    out = tq.qutrit_channel(rho, 0.5)
    assert abs(out[0, 2]) < 1e-14
    assert abs(out[1, 2]) < 1e-14
    assert abs(out[0, 1]) > 1e-3


def test_dense_qutrit_bridge_roundtrip():
    # the bridge covers the invariant sector: qubit block plus symmetric
    # weight; coherences into the symmetric block are not representable
    rng = np.random.default_rng(31)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    rho[0:2, 2] = 0.0
    rho[2, 0:2] = 0.0
    back = tq.dense_to_qutrit(tq.qutrit_to_dense(rho))
    assert np.abs(back - rho).max() < 1e-12


def test_bloch_map_shrink_factors():
    t = 0.9
    shrink, translation = tq.effective_qubit_map(t)
    et, e2t = math.exp(-t), math.exp(-2 * t)
    assert np.allclose(np.diag(shrink), [et, e2t, (2 * e2t + et) / 3], atol=1e-13)
    assert translation[2] == pytest.approx((e2t - et) / 3, abs=1e-13)
    # the map is a contraction toward a point on the z axis
    assert np.abs(shrink).max() < 1.0


def test_fidelity_at_t0_is_one():
    for th, ph in [(0.3, 0.0), (1.2, 2.0), (2.9, 4.0)]:
        assert tq.fidelity(th, ph, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_average_fidelity_monotone_decreasing():
    ts = np.linspace(0.0, 3.0, 40)
    vals = [tq.average_fidelity(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.0, abs=1e-13)
    # infinite-time floor of the average fidelity
    assert tq.average_fidelity(80.0) == pytest.approx(0.5, abs=1e-10)


def test_great_circle_fidelity_optimum():
    t = 0.7
    best = tq.great_circle_fidelity(math.pi / 2, math.pi / 2, t)
    et, e2t = math.exp(-t), math.exp(-2 * t)
    assert best == pytest.approx((3 + 2 * et + e2t) / 6, abs=1e-13)
    for th_c in (0.3, 1.0, 1.5):
        for ph_c in (0.0, 1.0, 2.5):
            assert tq.great_circle_fidelity(th_c, ph_c, t) <= best + 1e-12


def test_holevo_chi_basics():
    ens = tq._family_ensemble(1 / 3, math.pi / 2)
    ens.validate()
    assert tq.holevo_chi(ens, 0.0) == pytest.approx(math.log2(3), abs=1e-10)
    assert tq.holevo_chi(ens, 0.5) < math.log2(3)
    s = tq.pure_qubit_state(0.7, 0.2)
    for bad in (
        tq.Ensemble([1.5, -0.5], [s, s]),  # negative weight
        tq.Ensemble([0.5, 0.6], [s, s]),  # weights do not sum to 1
        tq.Ensemble([math.nan, 1.0], [s, s]),  # non-finite weight
        tq.Ensemble([0.5, 0.5], [s, np.eye(3) / 3]),  # mixed state
        tq.Ensemble([1.0], [s, s]),  # one weight for two states
    ):
        with pytest.raises(ValueError):
            tq.holevo_chi(bad, 0.5)


def test_three_qubit_rejects_bad_time():
    rho = np.eye(3) / 3
    ens = tq._family_ensemble(1 / 3, math.pi / 2)
    for t in (math.nan, math.inf, -0.1):
        for call in (
            lambda: tq.qutrit_channel(rho, t),
            lambda: tq.coherent_information(rho, t),
            lambda: tq.holevo_chi(ens, t),
            lambda: tq.maximize_coherent_info(t),
            lambda: tq.maximize_holevo(t),
            lambda: tq.orthogonal_benchmark(t),
            lambda: tq.fidelity_extremes(t),
        ):
            with pytest.raises(ValueError):
                call()


def test_coherent_info_certificate_replaces_search():
    # under the benchmark's config: from the anti-degradable cut on, the
    # value is 0 by certificate after the family scan alone; just below the
    # cut the general search still runs
    config = numerics.OptimizerConfig(restarts=1, max_iters=500, seed=7)
    for t in (tq.ANTIDEGRADABLE_FROM, 0.8, 1.5):
        r = tq.maximize_coherent_info(t, config)
        assert r.value == 0.0 and r.general_value == 0.0 and r.upper_bound == 0.0
        assert r.converged and r.nfev < 60
    below = tq.maximize_coherent_info(0.39, config)
    assert below.upper_bound == math.inf and below.nfev > 200


@pytest.mark.parametrize("t", [1e-4, 1e-3])
def test_weak_diffusion_expansions_match_optimizers(t):
    # capacity_weak and coherent_info_weak agree with the optimizers to the
    # order of the first neglected term, t^2 ln^2 t
    tol = (t * math.log(t)) ** 2
    capacity = tq.maximize_holevo(t).capacity
    assert abs(tq.capacity_weak(t) - capacity) < tol
    assert abs(tq.coherent_info_weak(t) - tq.maximize_coherent_info(t).value) < tol
