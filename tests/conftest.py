"""Test-suite settings: hypothesis runs a fixed, derandomized example
budget, so every property test draws the same examples on every run.
GeneratorDraws is the numpy reference the search-stream tests import."""

from hypothesis import settings

settings.register_profile("sievelab", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("sievelab")


class GeneratorDraws:
    """A search stream's draws read straight off a numpy Generator: the
    reference that rng.SearchStream replays value for value."""

    def __init__(self, rng):
        self.generator = rng

    def below(self, n):
        return int(self.generator.integers(0, n))

    def uniform(self):
        return float(self.generator.random())
