"""Coupling-coefficient tests against an independent symbolic oracle."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from sympy import Rational, S
from sympy.physics.quantum.cg import CG
from sympy.physics.wigner import wigner_6j as sympy_6j

from su2drift import su2
from su2drift.channel import r_coefficient
from su2drift.coupling import (
    coupled_basis_states,
    coupled_basis_vector,
    enumerate_paths,
    multiplicity,
)
from su2drift.halfint import projection_valid
from su2drift.wigner import (
    MAX_TJ,
    clebsch_gordan,
    recoupling_u,
    selection_ok_cg,
    triangle_ok,
    wigner_6j,
)

_PATH = enumerate_paths(3, 1, 1)[0]
#: Each public function that takes spin labels, as (call, valid twice-j labels).
LABELLED = {
    "selection_ok_cg": (selection_ok_cg, (1, 1, 1, -1, 0, 0)),
    "clebsch_gordan": (clebsch_gordan, (1, 1, 1, -1, 0, 0)),
    "wigner_6j": (wigner_6j, (1, 1, 2, 1, 1, 2)),
    "recoupling_u": (recoupling_u, (1, 1, 1, 1, 0, 2)),
    "character": (lambda tj: su2.character(tj, 0.3), (2,)),
    "heat_coefficient": (lambda tj: su2.heat_coefficient(tj, 0.5), (2,)),
    "wigner_d": (lambda tj: su2.wigner_d(tj, np.eye(2)), (2,)),
    "enumerate_paths": (lambda tJ: enumerate_paths(3, tJ, 1), (1,)),
    "multiplicity": (lambda tJ: multiplicity(4, tJ), (2,)),
    "coupled_basis_states": (lambda tJ: coupled_basis_states(3, tJ, _PATH), (1,)),
    "coupled_basis_vector": (
        lambda tJ, tM: coupled_basis_vector(3, tJ, tM, _PATH), (1, -1)
    ),
    "r_coefficient": (lambda *ts: r_coefficient(*ts, 0.5), (2, 1, 1, 0, 1, 1)),
}


def test_labels_are_twice_j_integers():
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    for name, (call, labels) in LABELLED.items():
        expect = call(*labels)
        got = call(*(np.int64(x) for x in labels))
        same = np.array_equal(got, expect) if isinstance(expect, np.ndarray) else got == expect
        assert same, name
        for pos, bad in itertools.product(range(len(labels)), (0.5, 2.0, 0.3, True)):
            bent = labels[:pos] + (bad,) + labels[pos + 1:]
            with pytest.raises(ValueError, match="twice-j integers"):
                call(*bent)
    # an irrep label is not a projection: it may not be negative
    for name, bad in (("character", -3), ("heat_coefficient", -1), ("wigner_d", -2)):
        with pytest.raises(ValueError, match="negative"):
            LABELLED[name][0](bad)


def test_projection_validity():
    assert projection_valid(3, 1)
    assert not projection_valid(3, 2)  # parity mismatch
    assert not projection_valid(1, 3)  # |m| > j


def test_triangle_rule():
    assert triangle_ok(1, 1, 2)
    assert triangle_ok(1, 1, 0)
    assert not triangle_ok(1, 1, 1)  # parity
    assert not triangle_ok(0, 1, 3)


def test_cg_against_symbolic_oracle():
    for tj1, tj2 in itertools.product(range(0, 5), repeat=2):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    tM = tm1 + tm2
                    if abs(tM) > tJ:
                        continue
                    got = clebsch_gordan(tj1, tm1, tj2, tm2, tJ, tM)
                    ref = float(
                        CG(
                            Rational(tj1, 2), Rational(tm1, 2),
                            Rational(tj2, 2), Rational(tm2, 2),
                            Rational(tJ, 2), Rational(tM, 2),
                        ).doit()
                    )
                    assert got == pytest.approx(ref, abs=1e-13)


def test_cg_selection_rules_zero():
    assert clebsch_gordan(1, 1, 1, 1, 0, 0) == 0.0
    assert clebsch_gordan(2, 0, 2, 0, 1, 0) == 0.0
    assert not selection_ok_cg(1, 1, 1, 1, 0, 2)
    assert selection_ok_cg(1, 1, 1, -1, 0, 0)


def test_cg_known_values():
    s = clebsch_gordan(1, 1, 1, -1, 0, 0)
    assert s == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    t = clebsch_gordan(1, 1, 1, -1, 2, 0)
    assert t == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert clebsch_gordan(1, -1, 1, 1, 0, 0) == pytest.approx(
        -1 / math.sqrt(2), abs=1e-15
    )


def test_sixj_against_symbolic_oracle():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(400):
        ts = rng.integers(0, 7, size=6)
        t1, t2, t3, t4, t5, t6 = (int(x) for x in ts)
        got = wigner_6j(t1, t2, t3, t4, t5, t6)
        try:
            ref = float(
                sympy_6j(*(Rational(x, 2) for x in (t1, t2, t3, t4, t5, t6)))
            )
        except ValueError:
            ref = 0.0
        assert got == pytest.approx(ref, abs=1e-13)
        checked += 1
    assert checked == 400


def test_sixj_large_arguments():
    got = wigner_6j(16, 16, 16, 16, 16, 16)
    ref = float(sympy_6j(*(S(8),) * 6))
    assert got == pytest.approx(ref, abs=1e-13)


def test_large_labels_against_symbolic_oracle():
    # alternating Racah sums in floating point lose every digit of the CG here
    ref_cg = float(CG(Rational(169, 2), Rational(1, 2), Rational(169, 2), Rational(-1, 2),
                      84, 0).doit())
    assert clebsch_gordan(169, 1, 169, -1, 168, 0) == pytest.approx(ref_cg, rel=1e-14)
    ref_6j = float(sympy_6j(*(S(63),) * 6))
    assert wigner_6j(*(126,) * 6) == pytest.approx(ref_6j, rel=1e-14)


def test_exact_zero_and_tiny_coefficients():
    # a 6j symbol that vanishes without a selection rule is exactly 0
    assert wigner_6j(2, 3, 3, 7, 6, 6) == 0.0
    # <j j; j -j | 2j 0> = (2j)! / sqrt((4j)!) at the largest j the cap allows,
    # about 1.9e-150, whose square underflows a double
    tj = MAX_TJ // 2
    with localcontext() as ctx:
        ctx.prec = 40
        ref = Decimal(math.factorial(tj)) / Decimal(math.factorial(2 * tj)).sqrt()
    assert clebsch_gordan(tj, tj, tj, -tj, 2 * tj, 0) == pytest.approx(float(ref), rel=1e-14)


def test_labels_beyond_cost_cap_rejected():
    # one cap serves every coefficient: labels at MAX_TJ evaluate (closed
    # forms with one Racah term), one more raises a ValueError naming it
    top = MAX_TJ
    assert clebsch_gordan(top, top, top, -top, 0, 0) == pytest.approx(1 / math.sqrt(top + 1),
                                                                    rel=1e-15)
    assert wigner_6j(top, top, 0, top, top, 0) == pytest.approx(1 / (top + 1), rel=1e-15)
    assert recoupling_u(top, top, top, 0, top, top) == pytest.approx(1.0, rel=1e-15)
    for call, labels in (
        (wigner_6j, (top + 1,) * 6),
        (recoupling_u, (top + 1,) * 6),
        (clebsch_gordan, (top + 1, 1, top + 1, -1, 0, 0)),
    ):
        with pytest.raises(ValueError, match=f"above MAX_TJ = {MAX_TJ}"):
            call(*labels)


def test_recoupling_u_resolves_basis_change():
    # U must equal the overlap of the two coupled three-spin bases.
    from su2drift.coupling import CouplingPath, coupled_basis_vector

    t1 = t2 = t3 = 1
    tJ = 1
    for t12 in (0, 2):
        for t23 in (0, 2):
            a = CouplingPath(2, (1, t12), (1,))
            b = CouplingPath(1, (1,), (t23, 1))
            va = coupled_basis_vector(3, tJ, tJ, a)
            vb = coupled_basis_vector(3, tJ, tJ, b)
            u = recoupling_u(t1, t2, tJ, t3, t12, t23)
            assert np.vdot(vb, va) == pytest.approx(u, abs=1e-13)
