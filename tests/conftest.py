"""One hypothesis profile for the suite: derandomized and without an
example database, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("globwork", derandomize=True, database=None, deadline=None)
settings.load_profile("globwork")
