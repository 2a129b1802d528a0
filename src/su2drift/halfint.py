"""Angular-momentum labels as twice-j integers: j = 1/2 is 1, j = 1 is 2.

twice_labels is the one check at the public boundary; the core takes the
plain ints it returns.
"""

from __future__ import annotations

import numbers


def twice_labels(*values) -> tuple:
    """The labels as ints, once each is checked to be a twice-j integer."""
    for v in values:
        if not isinstance(v, numbers.Integral) or isinstance(v, bool):
            raise ValueError(f"angular-momentum labels are twice-j integers, got {v!r}")
    return tuple(int(v) for v in values)


def projection_valid(tj: int, tm: int) -> bool:
    """|m| <= j with m and j of the same integer/half-integer kind."""
    return abs(tm) <= tj and (tj - tm) % 2 == 0
