"""Shared test settings: every hypothesis test is seeded and untimed."""

from hypothesis import settings

settings.register_profile("linksig", derandomize=True, deadline=None)
settings.load_profile("linksig")
