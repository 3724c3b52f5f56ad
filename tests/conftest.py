import numpy as np
import pytest

from tagrec import embedding


@pytest.fixture(autouse=True)
def _fresh_serving_state():
    """Each test starts with no shared embedding, so no test sees what
    an earlier one loaded."""
    embedding._SHARED_VOCABS.clear()
    embedding._SHARED_VECTORS.clear()
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
