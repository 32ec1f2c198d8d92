import numpy as np
import pytest
from hypothesis import settings

from hardylab import CircleGrid, signal_from_values

# A failing property prints the @reproduce_failure blob that replays it. The
# profile builds on the one in force, so examples stay random locally and
# hypothesis's own "ci" profile (derandomized) still applies on CI.
settings.register_profile("hardylab", print_blob=True)
settings.load_profile("hardylab")

FULL_SIZE = 2 ** 14


@pytest.fixture(scope="session")
def grid() -> CircleGrid:
    """The production-resolution grid shared by the expensive tests."""
    return CircleGrid(FULL_SIZE)


@pytest.fixture(scope="session")
def small_grid() -> CircleGrid:
    return CircleGrid(512)


def make_signal(grid: CircleGrid, fn):
    return signal_from_values(grid, np.asarray(fn(grid.nodes), dtype=complex))
