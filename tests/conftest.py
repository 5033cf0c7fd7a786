"""Test-suite settings: hypothesis runs a fixed, derandomized example
budget, so every property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("sievelab", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("sievelab")
