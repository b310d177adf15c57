"""Checks shared by every test module."""

import sys

import pytest


@pytest.fixture(autouse=True)
def int_digit_limit_is_restored():
    """Fail a test that leaves the interpreter's int digit limit changed:
    the limit is process-wide, so a leak would change later tests."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    yield
    after = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before)  # so one leak fails one test
    assert after == before, "int digit limit leaked"
