"""Test-suite configuration.

Hypothesis runs derandomized, so every run of the suite draws the same
examples and a differential test cannot pass or fail by chance.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
