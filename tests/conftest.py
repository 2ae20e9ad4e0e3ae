"""Test configuration: property tests run derandomized and without a
per-example deadline, so Tier-1 stays deterministic on loaded hosts."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
