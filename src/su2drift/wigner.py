"""Clebsch-Gordan, Wigner 6j and three-spin recoupling coefficients.

Every label is a twice-j integer (j = 1/2 is 1).  All coefficients use the
Condon-Shortley phase convention and are evaluated in double precision
through Racah's single-sum formulas with a precomputed log-factorial table
and compensated summation.  Selection-rule violations return 0.0 rather
than raising, so callers may sum freely over index ranges; labels beyond
the table (MAX_TJ_CG, MAX_TJ_SIXJ) raise ValueError.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .halfint import projection_valid, twice_labels

# Covers every factorial argument appearing in Racah sums up to N = 16
# spins (arguments bounded by 4*N + 4).
_TABLE_SIZE = 256
_LOG_FACT = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, _TABLE_SIZE)))))
#: Largest twice-j labels whose Racah sums stay inside the table: the largest
#: factorial argument is (tj1 + tj2 + tJ)/2 + 1 for a Clebsch-Gordan
#: coefficient and at most 2 max(tj) + 1 for a 6j symbol.
MAX_TJ_CG, MAX_TJ_SIXJ = 2 * (_TABLE_SIZE - 2) // 3, (_TABLE_SIZE - 2) // 2


def _check_table(limit: int, *tjs: int):
    """Raise before any table lookup if a twice-j label exceeds limit."""
    if max(tjs) > limit:
        raise ValueError(f"twice-j labels above {limit} exceed the log-factorial table, "
                         f"got {max(tjs)}")


def _lf(n: int) -> float:
    """log(n!) from the table; n must be a non-negative int within range."""
    return _LOG_FACT[n]


def triangle_ok(ta: int, tb: int, tc: int) -> bool:
    """Triangle rule on twice-j integers: |a-b| <= c <= a+b, integer sum."""
    return (
        abs(ta - tb) <= tc <= ta + tb
        and (ta + tb + tc) % 2 == 0
        and ta >= 0
        and tb >= 0
        and tc >= 0
    )


def _delta_log(ta: int, tb: int, tc: int) -> float:
    """log of the triangle coefficient Delta(a,b,c)."""
    return 0.5 * (
        _lf((ta + tb - tc) // 2)
        + _lf((ta - tb + tc) // 2)
        + _lf((-ta + tb + tc) // 2)
        - _lf((ta + tb + tc) // 2 + 1)
    )


def selection_ok_cg(tj1, tm1, tj2, tm2, tJ, tM) -> bool:
    """True when the Clebsch-Gordan selection rules allow a nonzero value."""
    tj1, tm1, tj2, tm2, tJ, tM = twice_labels(tj1, tm1, tj2, tm2, tJ, tM)
    return (
        projection_valid(tj1, tm1)
        and projection_valid(tj2, tm2)
        and projection_valid(tJ, tM)
        and tm1 + tm2 == tM
        and triangle_ok(tj1, tj2, tJ)
    )


def clebsch_gordan(tj1, tm1, tj2, tm2, tJ, tM) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention, from twice-j
    labels."""
    tj1, tm1, tj2, tm2, tJ, tM = twice_labels(tj1, tm1, tj2, tm2, tJ, tM)
    _check_table(MAX_TJ_CG, tj1, tj2, tJ)
    if not (
        projection_valid(tj1, tm1)
        and projection_valid(tj2, tm2)
        and projection_valid(tJ, tM)
    ):
        return 0.0
    if tm1 + tm2 != tM or not triangle_ok(tj1, tj2, tJ):
        return 0.0

    log_pre = (
        math.log(tJ + 1)
        + 2.0 * _delta_log(tj1, tj2, tJ)
        + _lf((tj1 + tm1) // 2)
        + _lf((tj1 - tm1) // 2)
        + _lf((tj2 + tm2) // 2)
        + _lf((tj2 - tm2) // 2)
        + _lf((tJ + tM) // 2)
        + _lf((tJ - tM) // 2)
    )

    # Racah sum over k; all factorial arguments below are integers.
    k_min = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tm2 - tJ) // 2)
    k_max = min(
        (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    )
    terms = []
    for k in range(k_min, k_max + 1):
        log_den = (
            _lf(k)
            + _lf((tj1 + tj2 - tJ) // 2 - k)
            + _lf((tj1 - tm1) // 2 - k)
            + _lf((tj2 + tm2) // 2 - k)
            + _lf((tJ - tj2 + tm1) // 2 + k)
            + _lf((tJ - tj1 - tm2) // 2 + k)
        )
        sign = -1.0 if k % 2 else 1.0
        terms.append(sign * math.exp(0.5 * log_pre - log_den))
    return math.fsum(terms)


@lru_cache(maxsize=1 << 16)
def _sixj_t(t1: int, t2: int, t3: int, t4: int, t5: int, t6: int) -> float:
    """6j symbol of unchecked twice-j ints; 0 on any triad violation."""
    triads = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
    if not all(triangle_ok(*tr) for tr in triads):
        return 0.0

    log_delta = sum(_delta_log(*tr) for tr in triads)
    s1 = (t1 + t2 + t3) // 2
    s2 = (t1 + t5 + t6) // 2
    s3 = (t4 + t2 + t6) // 2
    s4 = (t4 + t5 + t3) // 2
    q1 = (t1 + t2 + t4 + t5) // 2
    q2 = (t2 + t3 + t5 + t6) // 2
    q3 = (t3 + t1 + t6 + t4) // 2

    terms = []
    for z in range(max(s1, s2, s3, s4), min(q1, q2, q3) + 1):
        log_num = _lf(z + 1)
        log_den = (
            _lf(z - s1)
            + _lf(z - s2)
            + _lf(z - s3)
            + _lf(z - s4)
            + _lf(q1 - z)
            + _lf(q2 - z)
            + _lf(q3 - z)
        )
        sign = -1.0 if z % 2 else 1.0
        terms.append(sign * math.exp(log_delta + log_num - log_den))
    return math.fsum(terms)


def wigner_6j(tj1, tj2, tj3, tj4, tj5, tj6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} of twice-j labels; 0 on any
    triad violation."""
    labels = twice_labels(tj1, tj2, tj3, tj4, tj5, tj6)
    _check_table(MAX_TJ_SIXJ, *labels)
    return _sixj_t(*labels)


def recoupling_u(tj1, tj2, tJ, tj3, tj12, tj23) -> float:
    """U(j1,j2,J,j3;j12,j23) mapping (j1,(j2 j3)j23)J to ((j1 j2)j12,j3)J,
    from twice-j labels.

    Equals sqrt((2j12+1)(2j23+1)) (-1)^(j1+j2+J+j3) {j1 j2 j12; j3 J j23};
    the exponent is an integer whenever the triads are valid.
    """
    t1, t2, tJ, t3, t12, t23 = twice_labels(tj1, tj2, tJ, tj3, tj12, tj23)
    _check_table(MAX_TJ_SIXJ, t1, t2, tJ, t3, t12, t23)
    if not (
        triangle_ok(t1, t2, t12)
        and triangle_ok(t12, t3, tJ)
        and triangle_ok(t2, t3, t23)
        and triangle_ok(t1, t23, tJ)
    ):
        return 0.0
    sixj = _sixj_t(t1, t2, t12, t3, tJ, t23)
    phase_twice = t1 + t2 + tJ + t3
    sign = -1.0 if (phase_twice // 2) % 2 else 1.0
    return math.sqrt((t12 + 1) * (t23 + 1)) * sign * sixj

