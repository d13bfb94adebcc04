"""Acceptance suite: one test per criterion, one pass/fail line each."""

import time

import pytest

from heislat import acceptance


@pytest.mark.parametrize(
    "name,check", acceptance.CRITERIA, ids=[name for name, _ in acceptance.CRITERIA]
)
def test_criterion(name, check, capsys):
    start = time.perf_counter()
    passed, detail = check()
    seconds = time.perf_counter() - start
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'}  criterion {name}: {detail}  ({seconds:.1f} s)")
    assert passed, f"criterion {name}: {detail}"
