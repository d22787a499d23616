"""Shared test settings."""

from hypothesis import settings

# property tests draw the same examples on every run, and a slow shared
# host must not fail them on per-example timing
settings.register_profile("repelflow", derandomize=True, deadline=None)
# fresh random examples on each run: pytest --hypothesis-profile=random
settings.register_profile("random", derandomize=False, deadline=None)
settings.load_profile("repelflow")
