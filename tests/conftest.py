"""Shared hypothesis settings and test isolation.

Examples are drawn deterministically, so the suite gives the same verdict
on every run, and no example fails for being slow: several properties
run whole skein recursions.  Each test sets its own ``max_examples``.

Each test starts with empty ``alexander`` and ``hfk`` tables, so a result
computed by an earlier test never answers a call that a test has patched
to fail, and a test that counts table entries starts from none.
"""

import pytest
from hypothesis import settings

from braidhfk import alexander, hfk

settings.register_profile("braidhfk", derandomize=True, deadline=None)
settings.load_profile("braidhfk")


@pytest.fixture(autouse=True)
def _empty_tables():
    alexander.clear_caches()
    hfk.clear_caches()
