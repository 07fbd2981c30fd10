"""The recursive block construction as it stood with frozenset row labels,
kept verbatim for tests only.

Rows were labeled by frozensets of 1-based elements, every row parity was a
set intersection, and the default gate chain dropped the largest element at
each step. The bit-mask construction must reproduce its matrices exactly,
so tests compare them with np.array_equal.
"""

import numpy as np

from sqgt.construct import _floor_log2_ratio, _step_levels
from sqgt.errors import BadKappa, BadRange
from sqgt.verify import _colex_array


def ordered_subsets(kappa: int) -> list[frozenset[int]]:
    """Nonempty subsets of {1..kappa} ordered by size, then colexicographically."""
    return [
        frozenset(int(x) + 1 for x in row)
        for size in range(1, kappa + 1)
        for row in _colex_array(kappa, size)
    ]


def _default_chain(subset: frozenset[int]) -> list[frozenset[int]]:
    chain = []
    cur = sorted(subset)
    while len(cur) > 1:
        cur = cur[:-1]  # drop the largest element
        chain.append(frozenset(cur))
    return chain


def reference_lindstrom(
    kappa: int,
    q: int,
    eta_step: int,
    n: int | None = None,
    chains: dict[int, list] | None = None,
) -> np.ndarray:
    """Scaled matrix of the recursive code, built as before. There is no
    cell cap: keep kappa small.
    """
    if kappa < 1:
        raise BadKappa(f"need kappa >= 1, got {kappa}")
    q2 = _floor_log2_ratio(_step_levels(q, eta_step), 1)
    m = 2**kappa - 1
    subsets = ordered_subsets(kappa)

    blocks = []
    for i, S in enumerate(subsets, start=1):
        if chains and i in chains:
            chain = [frozenset(int(x) for x in T) for T in chains[i]]
            expected = [len(S) - k for k in range(1, len(S))]
            if [len(T) for T in chain] != expected:
                raise BadRange(
                    f"chain for block {i} must have set sizes {expected}"
                )
            prev = S
            for T in chain:
                if not T < prev:
                    raise BadRange(f"chain sets for block {i} must strictly nest")
                prev = T
        else:
            chain = _default_chain(S)
        width = q2 + len(S)
        B = np.zeros((m, width), dtype=np.int64)
        odd = np.array([len(S & Sj) % 2 == 1 for Sj in subsets])
        for k in range(1, q2 + 2):
            B[odd, k - 1] = 2 ** (q2 - k + 1)
        for k in range(q2 + 2, width + 1):
            T = chain[k - (q2 + 2)]
            gate = np.array([len(Sj & T) % 2 == 1 for Sj in subsets])
            B[:, k - 1] = ((B[:, k - 2] > 0) & gate).astype(np.int64)
        blocks.append(B)

    full = np.hstack(blocks)
    total = full.shape[1]
    if n is None:
        n = total
    if not 1 <= n <= total:
        raise BadRange(f"n must lie in 1..{total}, got {n}")
    return eta_step * full[:, :n]
