"""Deterministic seeding helpers.

All randomness flows through numpy Generators created from explicit seeds;
there is no global RNG state anywhere in the package. Derived seeds hash the
master seed together with context labels, so independent streams (per sweep
point, per trial) can be reproduced in isolation.

numpy.random and hashlib are looked up only when a seed is used, so that a
command that draws nothing does not load them.
"""

from numbers import Integral

import numpy as np

from .errors import BadRange


def derive_seed(master: int, *context) -> int:
    """Stable 64-bit seed from a master seed and arbitrary context labels."""
    import hashlib

    h = hashlib.sha256(repr(int(master)).encode())
    for part in context:
        if isinstance(part, Integral) and not isinstance(part, bool):
            part = int(part)  # repr(np.int64(5)) is 'np.int64(5)' under numpy 2
        h.update(b"|")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(seed):
    """Generator from a non-negative integer seed; existing Generators pass
    through unchanged. Any other seed raises BadRange."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise BadRange(f"seed must be a non-negative integer or a Generator, got {seed!r}")
    return np.random.default_rng(int(seed))
