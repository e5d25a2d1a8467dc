"""Shared test settings.

Property tests run under one hypothesis profile with no deadline and a
derandomized search, so they can fail neither on wall-clock time nor on a
new random draw.
"""

from hypothesis import settings

settings.register_profile("adiaframe", deadline=None, derandomize=True)
settings.load_profile("adiaframe")
