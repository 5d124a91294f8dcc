"""Test-wide Hypothesis settings.

The default profile derandomizes every property test, so each run checks
the same examples: a property that fails, fails every time, and a noisy
host cannot make a test flake through a deadline.  Per-test @settings
still apply on top of it.
"""

from hypothesis import settings

settings.register_profile("biasedcube", derandomize=True, deadline=None)
settings.load_profile("biasedcube")
