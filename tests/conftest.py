import random

import pytest

from forminv import MapF, MSeries, PolyMap
from forminv_testing import mono


@pytest.fixture
def catalan_map():
    """F = z - z^2; its inverse has Catalan coefficients."""
    return MapF(PolyMap([mono(1, (2,))]))


@pytest.fixture
def shear_map():
    """H = (z2^2, 0): JH.H = 0, so the inverse is exactly z + H."""
    return MapF(PolyMap([mono(2, (0, 2)), MSeries.zero(2)]))


@pytest.fixture
def rng():
    return random.Random(987123)
