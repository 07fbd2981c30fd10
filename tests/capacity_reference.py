"""The capacity grid search as it stood before the grid and refine points
went through one scan, on the rate objective as it stood before it was
evaluated at the full split only: the minimum over every split; and the
scalar mutual information it calls, as it stood before one array evaluator
took the entropies of the search, mutual_information and output_pmf.

Kept verbatim, for tests only, except that the search now refuses a
one-region quantizer (Q < 2) as capacity_search does: capacity_search must
return the same distribution, quantizer and bits, or raise the same error
class with the same message, after the same number of rate_objective calls;
and mutual_information and output_pmf must return the same bits.
"""

from itertools import combinations, product
from math import comb, inf

import numpy as np

from sqgt.capacity import Quantizer, _convolve_power, check_distribution, sum_pmf
from sqgt.errors import BadPartition, BadRange, BudgetExceeded
from sqgt.model import _check_integer


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _bucket(pmf: np.ndarray, quant: Quantizer, shift: int = 0) -> np.ndarray:
    """Quantizer-region masses of pmf placed at offset `shift`."""
    out = np.zeros(quant.Q)
    for r, reg in enumerate(quant.regions()):
        lo = max(reg.start - shift, 0)
        hi = max(reg.stop - shift, 0)
        out[r] = pmf[lo:hi].sum()
    return out


def output_pmf(pt, d: int, quant: Quantizer) -> np.ndarray:
    """Distribution of the quantized test result for d defectives."""
    s = sum_pmf(pt, d)
    if quant.top != len(s) - 1:
        raise BadPartition(
            f"quantizer covers 0..{quant.top} but sums reach {len(s) - 1}"
        )
    return _bucket(s, quant)


def mutual_information(pt, d: int, i: int, quant: Quantizer) -> float:
    """Information one side of an i / d-i defective split shares with the
    other side plus the test result, in the noiseless channel.

    Computed exactly by conditioning on the known side's sum: the result is
    the mean entropy of the quantized (i-sum + b) distribution over b. For
    i = d this is the entropy of the output distribution.
    """
    pt = check_distribution(pt)
    for name, value in (("d", d), ("i", i)):
        _check_integer(name, value)
    if not 1 <= i <= d:
        raise BadPartition(f"split size must lie in 1..{d}, got {i}")
    if quant.top != (len(pt) - 1) * d:
        raise BadPartition(
            f"quantizer covers 0..{quant.top}, expected 0..{(len(pt) - 1) * d}"
        )
    p_open = _convolve_power(pt, i)
    p_known = _convolve_power(pt, d - i)
    total = 0.0
    for b, pb in enumerate(p_known):
        if pb > 0:
            total += pb * _entropy(_bucket(p_open, quant, shift=b))
    return total


def rate_objective(pt, d: int, quant: Quantizer) -> float:
    """Minimum over split sizes i of mutual_information / i.

    By the chain inequality the minimum sits at i = d, but every split is
    evaluated anyway; the value is the per-defective information rate whose
    supremum over (pt, quantizer) is the channel capacity.
    """
    return min(mutual_information(pt, d, i, quant) / i for i in range(1, d + 1))


def _simplex_grid(q: int, resolution: int):
    """Integer compositions of `resolution` into q parts, lexicographic."""

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for v in range(remaining + 1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)

    yield from rec((), resolution, q)


def reference_capacity_search(
    d: int,
    q: int,
    Q: int,
    grid_step: float = 0.01,
    budget: int = 10_000_000,
    refine: bool = True,
) -> tuple[tuple[float, ...], Quantizer, float]:
    """Grid-maximize the rate objective over input distributions and all
    contiguous Q-region quantizers of the sum range.

    Returns (distribution, quantizer, bits); a lower bound on the capacity
    by construction. Ties break toward the lexicographically smallest grid
    point and then the first quantizer in boundary order. The budget bounds
    the objective evaluations: every quantizer at every grid point and,
    with refine, at the 21^(q-1) refine points around the best one.
    """
    if d < 1 or q < 2 or Q < 2:
        raise BadRange(f"need d >= 1, q >= 2, Q >= 2, got {d}, {q}, {Q}")
    top = (q - 1) * d
    if Q > top + 1:
        raise BadPartition(f"cannot split 0..{top} into {Q} nonempty regions")
    resolution = round(1.0 / grid_step) if grid_step > 0 and 1.0 / grid_step < inf else 0
    if resolution < 1:
        raise BadRange(f"grid_step must be positive with round(1/grid_step) >= 1, got {grid_step}")
    quantizers = [
        Quantizer((0,) + cuts + (top + 1,))
        for cuts in combinations(range(1, top + 1), Q - 1)
    ]
    fine = 10
    n_grid = comb(resolution + q - 1, q - 1)
    n_points = n_grid + ((2 * fine + 1) ** (q - 1) if refine else 0)
    if n_points * len(quantizers) > budget:
        raise BudgetExceeded(
            f"{n_points} grid and refine points x {len(quantizers)} quantizers "
            f"exceed budget {budget}"
        )

    def eval_point(weights, scale) -> tuple[float, Quantizer, tuple[float, ...]]:
        pt = tuple(wi / scale for wi in weights)
        best_v, best_q = -1.0, None
        for quant in quantizers:
            v = rate_objective(pt, d, quant)
            if v > best_v:
                best_v, best_q = v, quant
        return best_v, best_q, pt

    best_v, best_q, best_pt = -1.0, None, None
    best_w = None
    for weights in _simplex_grid(q, resolution):
        v, quant, pt = eval_point(weights, resolution)
        if v > best_v:
            best_v, best_q, best_pt, best_w = v, quant, pt, weights

    if refine and best_w is not None:
        offsets = range(-fine, fine + 1)
        base = tuple(w * fine for w in best_w)
        for deltas in product(offsets, repeat=q - 1):
            w = list(base)
            for j, dj in enumerate(deltas):
                w[j] += dj
            w[-1] = resolution * fine - sum(w[:-1])
            if any(x < 0 for x in w):
                continue
            v, quant, pt = eval_point(w, resolution * fine)
            if v > best_v:
                best_v, best_q, best_pt = v, quant, pt
    return best_pt, best_q, best_v
