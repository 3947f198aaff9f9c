"""Session settings for the property tests.

Hypothesis runs derandomized (examples depend only on the test, so a run is
reproducible and there is no example database) and without a per-example
deadline, so a slow or busy host cannot make a test flaky.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:          # the property tests skip themselves then
    settings = None

if settings is not None:
    settings.register_profile("srlab", derandomize=True, deadline=None)
    settings.load_profile("srlab")


@pytest.fixture
def fresh_builtin_scenes():
    """Start from an empty shipped-scene memo, so the test's first load validates in full."""
    from srlab import scenes

    scenes._validated_builtin.cache_clear()
