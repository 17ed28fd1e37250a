"""Settings shared by the test modules: hypothesis draws the same examples on
every run, so a failure seen once comes back on the next run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
