"""Shared hypothesis settings.

Examples are drawn deterministically, so the suite gives the same verdict
on every run, and no example fails for being slow: several properties
run whole skein recursions.  Each test sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("braidhfk", derandomize=True, deadline=None)
settings.load_profile("braidhfk")
