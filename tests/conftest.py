"""Shared pytest configuration.

Property tests run under a fixed hypothesis profile: derandomized, so
every run draws the same examples, with a bounded example count and no
per-example deadline, so the suite stays deterministic and its time
bounded.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")
