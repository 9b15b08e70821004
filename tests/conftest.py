"""Hypothesis profiles for the test suite.

`pytest --hypothesis-profile=ci` derandomizes every property test: each
draws the same examples on every run, so a failure seen in CI reproduces
locally with the same command.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
