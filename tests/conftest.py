"""Settings shared by the test modules: hypothesis draws the same examples on
every run, so a failure seen once comes back on the next run; and each test
starts with no chain skeleton kept, so a test that patches a builder's walk
is never served a skeleton an earlier test walked."""

import pytest
from hypothesis import settings

from jugglemc.combinatorics import _shape_cached

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def cold_skeletons():
    _shape_cached.cache_clear()
    yield
    _shape_cached.cache_clear()
