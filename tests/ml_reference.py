"""The exhaustive ML decoder as it stood before it shared the verifiers'
subset enumeration and syndrome table.

Kept verbatim, for tests only: decode_ml must return the same set, or
raise the same error class with the same message.
"""

from math import comb, inf

import numpy as np

from sqgt.errors import ExplosionGuard, NoConsistentSet
from sqgt.model import (
    CodeParams,
    NoiseModel,
    check_matrix,
    quantize_sums,
    validate_params,
)

from channel_reference import channel_matrix
from verify_reference import colex_combinations


def reference_decode_ml(
    C,
    params: CodeParams,
    z,
    noise: NoiseModel = NoiseModel(),
    budget: int = 2_000_000,
) -> tuple[int, ...]:
    """Exhaustive maximum-likelihood decoder over all sets of size l..u.

    Serves as the oracle the efficient decoders are compared against. Ties
    break toward the set appearing first in the canonical order (sizes
    ascending, colexicographic within one size).
    """
    validate_params(params)
    C = check_matrix(C, params.q)
    z = np.asarray(z, dtype=np.int64)
    m, n = C.shape
    total = sum(comb(n, s) for s in range(params.l, params.u + 1))
    if total > budget:
        raise ExplosionGuard(f"{total} candidate sets exceed budget {budget}")
    eta = np.asarray(params.eta, dtype=np.int64)
    with np.errstate(divide="ignore"):
        logP = np.log(channel_matrix(params.Q, noise))
    best: tuple[int, ...] | None = None
    best_ll = -inf
    for size in range(params.l, params.u + 1):
        for subset in colex_combinations(n, size):
            y = quantize_sums(C[:, list(subset)].sum(axis=1), eta)
            ll = float(logP[y, z].sum())
            if ll > best_ll:
                best_ll = ll
                best = subset
    if best is None or best_ll == -inf:
        raise NoConsistentSet("no candidate set has positive likelihood")
    return tuple(i + 1 for i in best)
