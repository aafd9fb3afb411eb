"""Hypothesis profiles. Both derandomize, so a run draws the same examples every time.

``tier1`` (the default) keeps the differential CA tests to 12 examples each;
``deep`` (``pytest --hypothesis-profile=deep``) runs 200.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=12)
settings.register_profile("deep", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("tier1")
