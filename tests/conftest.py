"""Hypothesis settings for the whole suite.

Draws are derandomized so that two runs of the suite, for example on two
commits being compared, see the same examples; no example database is
written. Each test sets its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None, database=None)
settings.load_profile("suite")
