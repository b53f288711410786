"""Hypothesis profiles for the suite.

Tier-1 runs Hypothesis's default profile.  ``deep`` is the long run of
the DP differentials: ``pytest --hypothesis-profile=deep <files>``.
A test that should scale with it takes its example budget from the
profile rather than from ``@settings(max_examples=...)``.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
