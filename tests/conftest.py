"""Shared pytest setup: one derandomized hypothesis profile.

Property tests draw their examples from a fixed seed with a fixed
example count and no deadline, so every run of the suite checks the
same cases and a slow machine does not turn into a failure.
"""

from hypothesis import settings

settings.register_profile(
    "normsim", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("normsim")
