"""Every quick verify check, one test each: the checks are the one home of
the engine invariants, and the other tests call them rather than copy them."""

import pytest

from su2drift import verify

from conftest import VERIFY_SEED

QUICK = [(name, fn) for name, quick, fn in verify.CHECKS if quick]


@pytest.mark.parametrize("fn", [fn for _, fn in QUICK], ids=[name for name, _ in QUICK])
def test_quick_check(fn):
    ok, detail = fn({"seed": VERIFY_SEED})
    assert ok, detail
