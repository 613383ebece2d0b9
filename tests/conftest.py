"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def long_digits():
    """A 5000-digit decimal, longer than int() reads under the interpreter's
    default digit limit (4300); skips where the limit is off or higher."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 5000:
        pytest.skip("int() reads 5000 digits here")
    return "1" * 5000
