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


def test_verdict_lists_every_row_after_a_failure():
    rows = [("first", 2.0, False, 1.0), ("second", 0.5, True, 1.0), ("third", 3, False, 0)]
    passed, detail = acceptance._verdict(*rows)
    assert not passed
    assert detail == "FAIL first 2 vs 1; second 0.5 vs 1; FAIL third 3 vs 0"
    assert acceptance._verdict(("only", 0.5, True, 1.0)) == (True, "only 0.5 vs 1")
    # passed is the AND of the rows: a failing last row fails a passing first one
    assert acceptance._verdict(*rows[1:2], *rows[:1])[0] is False


def test_strict_bound_fails_at_equality():
    assert acceptance._below("x", 0.05, 0.05)[2] is False
    assert acceptance._at_most("x", 0.05, 0.05)[2] is True
    assert acceptance._verdict(acceptance._below("KS", 0.02, 0.02)) == (False, "FAIL KS 0.02 vs 0.02")


def test_family_names_every_failing_row():
    rows = [("a", 0.5, True, 1.0), ("b", 2.0, False, 1.0), ("c", 1.5, False, 1.0)]
    assert acceptance._family("gap", rows) == ("gap (failing b, c)", 2.0, False, 1.0)
    assert acceptance._family("gap", rows[:1]) == ("gap (worst a)", 0.5, True, 1.0)
