"""Clebsch-Gordan, Wigner 6j and three-spin recoupling coefficients.

Every label is a twice-j integer (j = 1/2 is 1).  All coefficients use the
Condon-Shortley phase convention and are evaluated exactly: Racah's single
sum is one Python integer over a common denominator, its squared prefactor
a ratio of factorials, and the result is rounded to double precision once.
Selection-rule violations return 0.0 rather than raising, so callers may
sum freely over index ranges.  The exact sums cost more as the labels grow,
so a label above MAX_TJ raises ValueError.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .halfint import projection_valid, twice_labels

#: Largest twice-j label any coefficient accepts, a cap on cost alone: the
#: costliest call at the cap, wigner_6j(*(MAX_TJ,) * 6), takes 0.2-0.3 s
#: (clebsch_gordan at the cap 0.05-0.07 s) on a 2-core Intel Xeon host.
MAX_TJ = 1000

_fact = math.factorial


def _check_cap(*tjs: int):
    """Raise if a checked twice-j label exceeds MAX_TJ."""
    if max(tjs) > MAX_TJ:
        raise ValueError(f"twice-j labels above MAX_TJ = {MAX_TJ} cost too much to "
                         f"evaluate, got {max(tjs)}")


def _alternating_sum(lo, hi, rising, falling, weight=None) -> tuple:
    """Exact integers (s, c) with s / c the sum over k = lo..hi of
    (-1)^k w(k) / (prod_r (k + r)! prod_f (f - k)!), where w is weight or 1.

    c is the product of each factorial at its largest argument, so every
    term is an integer multiple of 1 / c: a product of math.perm ratios.
    """
    c = 1
    for r in rising:
        c *= _fact(hi + r)
    for f in falling:
        c *= _fact(f - lo)
    s = 0
    for k in range(lo, hi + 1):
        term = weight(k) if weight else 1
        for r in rising:
            term *= math.perm(hi + r, hi - k)
        for f in falling:
            term *= math.perm(f - lo, k - lo)
        s += -term if k % 2 else term
    return s, c


def _signed_root(s: int, num: int, den: int) -> float:
    """sign(s) sqrt(num s^2 / den) from exact integers, rounded once.

    Neither s nor the square is ever a float: float(s) overflows, and the
    square of a coefficient near 1e-180 underflows, at large labels.
    """
    if s == 0:
        return 0.0
    num *= s * s
    # scale by 4^e so that the integer root carries at least 64 bits
    e = (den.bit_length() - num.bit_length()) // 2 + 66
    q = (num << 2 * e) // den if e >= 0 else num // (den << -2 * e)
    root = math.ldexp(math.isqrt(q), -e)
    return root if s > 0 else -root


def triangle_ok(ta: int, tb: int, tc: int) -> bool:
    """Triangle rule on twice-j integers: |a-b| <= c <= a+b, integer sum."""
    return (
        abs(ta - tb) <= tc <= ta + tb
        and (ta + tb + tc) % 2 == 0
        and ta >= 0
        and tb >= 0
        and tc >= 0
    )


def _delta_sq(ta: int, tb: int, tc: int) -> tuple:
    """Triangle coefficient Delta(a,b,c)^2 as (numerator, denominator)."""
    s = (ta + tb + tc) // 2
    return _fact(s - tc) * _fact(s - tb) * _fact(s - ta), _fact(s + 1)


def _selection_ok(tj1, tm1, tj2, tm2, tJ, tM) -> bool:
    """Clebsch-Gordan selection rules on unchecked twice-j ints."""
    return (
        projection_valid(tj1, tm1)
        and projection_valid(tj2, tm2)
        and projection_valid(tJ, tM)
        and tm1 + tm2 == tM
        and triangle_ok(tj1, tj2, tJ)
    )


def selection_ok_cg(tj1, tm1, tj2, tm2, tJ, tM) -> bool:
    """True when the Clebsch-Gordan selection rules allow a nonzero value."""
    return _selection_ok(*twice_labels(tj1, tm1, tj2, tm2, tJ, tM))


def clebsch_gordan(tj1, tm1, tj2, tm2, tJ, tM) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention, from twice-j
    labels."""
    tj1, tm1, tj2, tm2, tJ, tM = labels = twice_labels(tj1, tm1, tj2, tm2, tJ, tM)
    _check_cap(tj1, tj2, tJ)
    if not _selection_ok(*labels):
        return 0.0
    num, den = _delta_sq(tj1, tj2, tJ)
    num *= tJ + 1
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        num *= _fact((tj + tm) // 2) * _fact((tj - tm) // 2)
    # Racah's sum over k; all factorial arguments are integers
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    s, common = _alternating_sum(max(0, -d, -e), min(a, b, c), (0, d, e), (a, b, c))
    return _signed_root(s, num, den * common * common)


@lru_cache(maxsize=1 << 16)
def _sixj_t(t1: int, t2: int, t3: int, t4: int, t5: int, t6: int) -> float:
    """6j symbol of unchecked twice-j ints; 0 on any triad violation."""
    triads = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
    if not all(triangle_ok(*tr) for tr in triads):
        return 0.0
    num = den = 1
    for tr in triads:
        n, d = _delta_sq(*tr)
        num, den = num * n, den * d
    s1, s2, s3, s4 = (sum(tr) // 2 for tr in triads)
    q1, q2, q3 = (t1 + t2 + t4 + t5) // 2, (t2 + t3 + t5 + t6) // 2, (t3 + t1 + t6 + t4) // 2
    # (z+1)! / (z-s1)! is the integer weight perm(z+1, s1+1)
    s, common = _alternating_sum(
        max(s1, s2, s3, s4), min(q1, q2, q3), (-s2, -s3, -s4), (q1, q2, q3),
        lambda z: math.perm(z + 1, s1 + 1),
    )
    return _signed_root(s, num, den * common * common)


def wigner_6j(tj1, tj2, tj3, tj4, tj5, tj6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} of twice-j labels; 0 on any
    triad violation."""
    labels = twice_labels(tj1, tj2, tj3, tj4, tj5, tj6)
    _check_cap(*labels)
    return _sixj_t(*labels)


def recoupling_u(tj1, tj2, tJ, tj3, tj12, tj23) -> float:
    """U(j1,j2,J,j3;j12,j23) mapping (j1,(j2 j3)j23)J to ((j1 j2)j12,j3)J,
    from twice-j labels.

    Equals sqrt((2j12+1)(2j23+1)) (-1)^(j1+j2+J+j3) {j1 j2 j12; j3 J j23};
    the 6j symbol is 0 unless its four triads hold, and then the exponent
    is an integer.
    """
    t1, t2, tJ, t3, t12, t23 = labels = twice_labels(tj1, tj2, tJ, tj3, tj12, tj23)
    _check_cap(*labels)
    sixj = _sixj_t(t1, t2, t12, t3, tJ, t23)
    if sixj == 0.0:
        return 0.0
    sign = -1.0 if ((t1 + t2 + tJ + t3) // 2) % 2 else 1.0
    return math.sqrt((t12 + 1) * (t23 + 1)) * sign * sixj
