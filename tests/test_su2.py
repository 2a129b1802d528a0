"""Group elements, characters, heat-kernel density and sampling, irreps."""

import math

import numpy as np
import pytest
from scipy import stats

from su2drift import su2


def test_quaternion_matrix_roundtrip():
    rng = np.random.default_rng(1)
    q = su2.haar_quat(rng, 50)
    mats = su2.quat_to_matrix(q)
    # unitary, det 1
    prods = mats @ mats.conj().transpose(0, 2, 1)
    assert np.allclose(prods, np.eye(2), atol=1e-14)
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    assert np.allclose(dets, 1.0, atol=1e-14)


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(2)
    a, b = su2.haar_quat(rng, 20), su2.haar_quat(rng, 20)
    lhs = su2.quat_to_matrix(su2.quat_mul(a, b))
    rhs = su2.quat_to_matrix(a) @ su2.quat_to_matrix(b)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_su2_element_api():
    # a group element is a unit quaternion; q times its conjugate is 1
    rng = np.random.default_rng(3)
    q = su2.haar_quat(rng)
    q_bar = q * np.array([1.0, -1.0, -1.0, -1.0])
    assert np.allclose(su2.quat_to_matrix(su2.quat_mul(q, q_bar)), np.eye(2), atol=1e-14)
    assert su2.class_angle_of_quat(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_class_angle_range_and_trace():
    rng = np.random.default_rng(4)
    q = su2.haar_quat(rng)
    xi = su2.class_angle_of_quat(q)
    assert 0.0 <= xi < 2 * math.pi
    assert np.trace(su2.quat_to_matrix(q)).real == pytest.approx(
        2 * math.cos(xi / 2), abs=1e-12
    )
    minus_one = np.array([-1.0, 0.0, 0.0, 0.0])
    assert su2.class_angle_of_quat(minus_one) == pytest.approx(2 * math.pi, abs=1e-9)


def test_character_values():
    # chi_j(0) = 2j+1; chi_{1/2}(xi) = 2 cos(xi/2)
    for tj in range(0, 8):
        assert su2.character(tj, 0.0) == pytest.approx(tj + 1, abs=1e-12)
    for xi in (0.3, 1.0, 3.0, 6.0):
        assert su2.character(1, xi) == pytest.approx(2 * math.cos(xi / 2), abs=1e-12)
        assert su2.character(2, xi) == pytest.approx(
            math.sin(1.5 * xi) / math.sin(0.5 * xi), abs=1e-10
        )


def test_character_orthogonality():
    xi = np.linspace(0.0, 2 * np.pi, 40001)
    w = su2.haar_class_density(xi)
    for tja in range(0, 5):
        for tjb in range(0, 5):
            val = np.trapezoid(
                w * su2.character(tja, xi) * su2.character(tjb, xi), xi
            )
            assert val == pytest.approx(1.0 if tja == tjb else 0.0, abs=1e-7)


def test_kernel_density_matches_character_sum():
    # the Chebyshev recurrence reorders the sum of the characters, so the
    # two agree to rounding relative to the density's peak
    xi = np.linspace(0.0, 2 * np.pi, 513)
    for t in (1e-3, 0.01, 0.1, 0.5, 1.0, 10.0):
        ref = sum(
            (tj + 1) * su2.heat_coefficient(tj, t) * su2.character(tj, xi)
            for tj in range(su2.truncation_tj_max(t), -1, -1)
        )
        got = su2.heat_kernel_density(t, xi)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), t


def test_kernel_limits():
    xi = np.linspace(0.0, 2 * np.pi, 101)
    # late times approach the flat (Haar) density 1
    assert np.allclose(su2.heat_kernel_density(50.0, xi), 1.0, atol=1e-8)
    # early times concentrate near the identity
    small = su2.heat_kernel_density(1e-2, np.array([0.05, 3.0]))
    assert small[0] > 100 * abs(small[1])


def test_kernel_rejects_tiny_time():
    with pytest.raises(su2.UnsupportedRegimeError):
        su2.heat_kernel_density(1e-5, 0.3)
    rng = np.random.default_rng(0)
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            su2.heat_kernel_density(t, 0.3)
        with pytest.raises(ValueError):
            su2.heat_kernel_quat(t, rng, 4)
    for t in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError):
            su2.truncation_tj_max(t)
    for xi in (math.nan, math.inf, [0.3, math.nan]):
        with pytest.raises(ValueError):
            su2.heat_kernel_density(0.5, xi)


def test_truncation_bound_is_sufficient():
    for t in (1e-3, 0.1, 1.0):
        tail_j = su2.truncation_tj_max(t) / 2 + 0.5
        tail = (2 * tail_j + 1) ** 2 * math.exp(-tail_j * (tail_j + 1) * t / 2)
        assert tail < 1e-10


def test_heat_kernel_sampling_matches_density():
    rng = np.random.default_rng(6)
    t = 0.7
    xi = su2.class_angle_of_quat(su2.heat_kernel_quat(t, rng, 50000))
    grid = np.linspace(0.0, 2 * np.pi, 4097)
    pdf = su2.haar_class_density(grid) * su2.heat_kernel_density(t, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    stat = stats.kstest(xi, lambda x: np.interp(x, grid, cdf))
    assert stat.pvalue > 0.01


def test_sampling_deterministic_for_seed():
    a = su2.heat_kernel_quat(0.5, np.random.default_rng(42), 10)
    b = su2.heat_kernel_quat(0.5, np.random.default_rng(42), 10)
    assert np.array_equal(a, b)


def test_wigner_d_fundamental_and_homomorphism():
    rng = np.random.default_rng(8)
    q, p = su2.haar_quat(rng), su2.haar_quat(rng)
    u, v = su2.quat_to_matrix(q), su2.quat_to_matrix(p)
    uv = su2.quat_to_matrix(su2.quat_mul(q, p))
    assert np.allclose(su2.wigner_d(1, u), u, atol=1e-13)
    for tj in (2, 3, 4):
        du = su2.wigner_d(tj, u)
        dv = su2.wigner_d(tj, v)
        duv = su2.wigner_d(tj, uv)
        assert np.allclose(du @ dv, duv, atol=1e-12)
        assert np.allclose(du @ du.conj().T, np.eye(tj + 1), atol=1e-12)


def test_wigner_d_character_consistency():
    rng = np.random.default_rng(9)
    q = su2.haar_quat(rng)
    xi = su2.class_angle_of_quat(q)
    for tj in (1, 2, 5):
        tr = np.trace(su2.wigner_d(tj, su2.quat_to_matrix(q)))
        assert tr.real == pytest.approx(su2.character(tj, xi), abs=1e-11)
        assert abs(tr.imag) < 1e-11
