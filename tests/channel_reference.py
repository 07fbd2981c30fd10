"""The dense channel matrix as it stood before the channel became one
banded likelihood, kept verbatim for tests only.

model.likelihood must reproduce its entries bit for bit, with a zero row
for the sentinel bucket Q, and the reference decoders still read it.
"""

import numpy as np

from sqgt.errors import BadRange
from sqgt.model import NoiseModel


def channel_matrix(Q: int, noise: NoiseModel) -> np.ndarray:
    """Transition matrix P with P[y, z] = probability of observing z given y."""
    if Q < 2:
        raise BadRange(f"output alphabet must have Q >= 2, got {Q}")
    P = np.zeros((Q, Q))
    for y in range(Q):
        up = noise.gamma_p if y < Q - 1 else 0.0
        down = noise.gamma_n if y > 0 else 0.0
        P[y, y] = 1.0 - up - down
        if y < Q - 1:
            P[y, y + 1] = up
        if y > 0:
            P[y, y - 1] = down
    return P
