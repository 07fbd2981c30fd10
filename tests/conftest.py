import signal

import numpy as np
import pytest

# 9x12 binary 2-disjunct base code (classical textbook design)
BASE_9x12 = np.array([
    [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1],
    [0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
])

# 7x8 binary 2-separable base code
BASE_7x8 = np.array([
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

# the 9x24 two-block concatenation of BASE_9x12 at scales 2 and 6
GOLDEN_9x24 = np.hstack([2 * BASE_9x12, 6 * BASE_9x12])

# the 7x16 two-block concatenation of BASE_7x8 at scales 2 and 6
GOLDEN_7x16 = np.hstack([2 * BASE_7x8, 6 * BASE_7x8])

# printed 7x26 recursive code (before threshold scaling), kappa=3, two bit
# columns per block; blocks ordered {1},{2},{3},{1,2},{1,3},{2,3},{1,2,3}
GOLDEN_LINDSTROM_7x26 = np.array([
    [4, 2, 1, 0, 0, 0, 0, 0, 0, 4, 2, 1, 1, 4, 2, 1, 0, 0, 0, 0, 0, 4, 2, 1, 1, 1],
    [0, 0, 0, 4, 2, 1, 0, 0, 0, 4, 2, 1, 0, 0, 0, 0, 0, 4, 2, 1, 1, 4, 2, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 4, 2, 1, 0, 0, 0, 0, 4, 2, 1, 1, 4, 2, 1, 0, 4, 2, 1, 0, 0],
    [4, 2, 1, 4, 2, 1, 0, 0, 0, 0, 0, 0, 0, 4, 2, 1, 0, 4, 2, 1, 1, 0, 0, 0, 0, 0],
    [4, 2, 1, 0, 0, 0, 4, 2, 1, 4, 2, 1, 1, 0, 0, 0, 0, 4, 2, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 4, 2, 1, 4, 2, 1, 4, 2, 1, 0, 4, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [4, 2, 1, 4, 2, 1, 4, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2, 1, 0, 0],
])

# last block of the matrix above
GOLDEN_LINDSTROM_BLOCK7 = np.array([
    [4, 2, 1, 1, 1],
    [4, 2, 1, 1, 0],
    [4, 2, 1, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [4, 2, 1, 0, 0],
])

# gate-set overrides reproducing the printed matrix: block {1,3} thins
# through {3}, block {1,2,3} through {1,2} then {1}
GOLDEN_LINDSTROM_CHAINS = {5: [{3}], 7: [{1, 2}, {1}]}


@pytest.fixture
def base_9x12():
    return BASE_9x12.copy()


@pytest.fixture
def base_7x8():
    return BASE_7x8.copy()


@pytest.fixture
def at_once():
    """Fail the test once it has run 10 s of wall clock, the bound a refusal
    must keep: SIGALRM stops a request that hangs at its next Python step.
    pytest's Failed is no Exception, so no handler in the program takes it."""
    def expire(signum, frame):
        pytest.fail("ran past the 10 s bound of a request refused at once")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
