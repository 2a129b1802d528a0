"""Every quick verify check, one test each: the checks are the one home of
the engine invariants, and the other tests call them rather than copy them."""

import re
from pathlib import Path

import pytest

from su2drift import verify

from conftest import VERIFY_SEED

QUICK = [(name, fn) for name, quick, fn in verify.CHECKS if quick]


@pytest.mark.parametrize("fn", [fn for _, fn in QUICK], ids=[name for name, _ in QUICK])
def test_quick_check(fn):
    ok, detail = fn({"seed": VERIFY_SEED})
    assert ok, detail


def test_each_check_named_once_and_each_slow_check_run_by_one_criterion():
    names = [name for name, _, _ in verify.CHECKS]
    assert len(names) == len(set(names))
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    for name, quick, fn in verify.CHECKS:
        if not quick:
            calls = re.findall(rf"\bverify\.{fn.__name__}\(", acceptance)
            assert len(calls) == 1, f"{name}: {len(calls)} calls in test_acceptance.py"
