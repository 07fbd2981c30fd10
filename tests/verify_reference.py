"""The SQ-disjunct and SQ-separable verifiers as they stood before row
compression and the multi-index pair scan.

Kept verbatim, for tests only: the current verifiers must give the same
verdict and the same canonical Witness string, or raise the same error
class, so every test that compares the two compares str(Witness).
"""

from math import comb

import numpy as np

from sqgt.errors import BadRange, ExplosionGuard, TooFewColumns
from sqgt.model import CodeParams, check_matrix, quantize_sums, validate_params
from sqgt.verify import DEFAULT_BUDGET, Witness


def colex_combinations(n: int, k: int):
    """Yield k-subsets of range(n) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in colex_combinations(top, k - 1):
            yield rest + (top,)


def _subset_chunks(n: int, k: int, chunk: int):
    buf = []
    for c in colex_combinations(n, k):
        buf.append(c)
        if len(buf) == chunk:
            yield np.array(buf, dtype=np.int64)
            buf = []
    if buf:
        yield np.array(buf, dtype=np.int64)


def reference_is_sq_disjunct(C, params: CodeParams, budget: int = DEFAULT_BUDGET) -> Witness | None:
    """Check the SQ-disjunct property of C at the bracket parameters.

    For every (d+1)-subset of columns and every pivot column inside it, at
    least 2e+1 coordinates must have the pivot's single-column syndrome
    strictly above the syndrome of the other d columns. Witness rows are
    automatically distinct across pivots of one subset, so only the counts
    are checked here.
    """
    validate_params(params)
    if params.l != 1:
        raise BadRange("SQ-disjunct codes cover defective ranges (1:d); need l == 1")
    C = check_matrix(C, params.q)
    d, e = params.u, params.e
    m, n = C.shape
    if n <= d:
        raise TooFewColumns(f"need n > d, got n={n}, d={d}")
    if 2 * e + 1 > m:
        return Witness("sq-disjunct", (), f"needs {2 * e + 1} witness rows but m={m}")
    if comb(n, d + 1) > budget:
        raise ExplosionGuard(f"C({n},{d + 1}) subsets exceed budget {budget}")

    eta = np.asarray(params.eta, dtype=np.int64)
    single = quantize_sums(C, eta)  # (m, n) syndromes of single columns
    chunk = max(1, (1 << 22) // (m * (d + 1)))
    for subs in _subset_chunks(n, d + 1, chunk):
        cols = C[:, subs]  # (m, B, d+1)
        total = cols.sum(axis=2)
        ok = np.empty((subs.shape[0], d + 1), dtype=bool)
        for p in range(d + 1):
            rest = quantize_sums(total - cols[:, :, p], eta)
            counts = (single[:, subs[:, p]] > rest).sum(axis=0)
            ok[:, p] = counts >= 2 * e + 1
        bad = ~ok.all(axis=1)
        if bad.any():
            b = int(np.argmax(bad))
            p = int(np.argmax(~ok[b]))
            subset = subs[b]
            pivot = int(subset[p])
            rest = quantize_sums(
                C[:, subset].sum(axis=1) - C[:, pivot], eta
            )
            count = int((single[:, pivot] > rest).sum())
            return Witness(
                "sq-disjunct",
                (tuple(int(i) + 1 for i in subset), (pivot + 1,)),
                f"column {pivot + 1} beats the other {d} on {count} coordinates, "
                f"needs {2 * e + 1}",
            )
    return None

def _admissible_sets(n: int, lo: int, hi: int, budget: int) -> list[tuple[int, ...]]:
    total = sum(comb(n, s) for s in range(lo, hi + 1))
    if total > budget:
        raise ExplosionGuard(f"{total} candidate sets exceed budget {budget}")
    sets: list[tuple[int, ...]] = []
    for size in range(lo, hi + 1):
        sets.extend(colex_combinations(n, size))
    return sets


def _syndrome_table(C: np.ndarray, sets, eta) -> np.ndarray:
    """Row i holds the syndrome of sets[i]; grouped per set size for speed."""
    m = C.shape[0]
    out = np.empty((len(sets), m), dtype=np.int64)
    start = 0
    while start < len(sets):
        size = len(sets[start])
        stop = start
        while stop < len(sets) and len(sets[stop]) == size:
            stop += 1
        idx = np.array(sets[start:stop], dtype=np.int64)
        sums = C[:, idx].sum(axis=2) if size else np.zeros((m, stop - start), dtype=np.int64)
        out[start:stop] = quantize_sums(sums, eta).T
        start = stop
    return out


def _first_close_pair(syn: np.ndarray, e: int, pair_budget: int):
    """First pair (i < j) of rows differing in fewer than 2e+1 coordinates.

    Pairs are scanned in colex order on (j, i), matching the canonical set
    order, so the scan finds the canonical first violation.
    """
    N = syn.shape[0]
    if e == 0:
        seen: dict[bytes, int] = {}
        for j in range(N):
            key = syn[j].tobytes()
            if key in seen:
                return seen[key], j, 0
            seen[key] = j
        return None
    if N * (N - 1) // 2 > pair_budget:
        raise ExplosionGuard(f"{N * (N - 1) // 2} set pairs exceed budget {pair_budget}")
    for j in range(1, N):
        diff = (syn[:j] != syn[j]).sum(axis=1)
        bad = diff < 2 * e + 1
        if bad.any():
            i = int(np.argmax(bad))
            return i, j, int(diff[i])
    return None


def reference_is_sq_separable(C, params: CodeParams, budget: int = DEFAULT_BUDGET) -> Witness | None:
    """Check the SQ-separable property of C at the bracket parameters.

    Every pair of distinct subject sets with sizes in l..u must produce
    syndromes differing in at least 2e+1 coordinates.
    """
    validate_params(params)
    C = check_matrix(C, params.q)
    m, n = C.shape
    if params.u > n:
        raise TooFewColumns(f"need n >= u, got n={n}, u={params.u}")
    if 2 * params.e + 1 > m:
        return Witness("sq-separable", (), f"needs {2 * params.e + 1} witness rows but m={m}")
    sets = _admissible_sets(n, params.l, params.u, budget)
    syn = _syndrome_table(C, sets, np.asarray(params.eta, dtype=np.int64))
    hit = _first_close_pair(syn, params.e, budget)
    if hit is None:
        return None
    i, j, dist = hit
    return Witness(
        "sq-separable",
        (tuple(x + 1 for x in sets[i]), tuple(x + 1 for x in sets[j])),
        f"syndromes differ in {dist} coordinates, need {2 * params.e + 1}",
    )
