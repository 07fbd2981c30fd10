"""Brute-force verifiers for every code property the constructions claim.

Each checker either returns None (the property holds) or a Witness naming a
concrete violating configuration. Enumeration runs in a fixed canonical
order (subset sizes ascending, subsets of equal size in colexicographic
order, pivots by position), so the returned witness is deterministic: it is
always the first violation in that order.

These are exponential oracles by design; a configurable budget keeps them at
desk scale. Three exact reductions keep the work down without changing any
verdict or witness:

- A syndrome coordinate depends only on its test's row, so the SQ-disjunct
  and SQ-separable checks run on the distinct rows of C and weight every
  coordinate count by how often its row occurs. The 2e+1 > m test and the
  counts a witness reports still refer to all m rows. Rows are told apart,
  here and in the pair scan, by one exact int64 code each (_row_codes).
- For e > 0 the SQ-separable pair scan is a multi-index search
  (Norouzi, Punjani & Fleet, CVPR 2012): the distinct rows are cut into
  2e+1 blocks, two syndromes at distance at most 2e agree on at least one
  whole block, so only pairs that share a bucket on some block are
  compared.
- The SQ-disjunct check pairs a pivot p with the rest T = S - {p} of its
  (d+1)-set S, so it runs over the d-sets T in colex order, quantizes the
  sum of each T once (not once for each of the n-d sets S that contain
  it) and counts every column outside T at once, level by level: p wins
  a row exactly when T's value there lies below p's level v, so the
  counts are the sum over the levels v of the float64 products
  [rest < v] @ G_v, where G_v holds each row's weight for the columns at
  level v. That is one BLAS product per level that single columns take
  (the lowest excepted), exact below 2^53 rows. The first violation is
  still the colex-first S at its first pivot: every S with top element t
  splits into a pivot and a d-set with top at most t, so once the d-sets
  reach a top above the best S's top, every S up to that top has been
  seen and the scan stops.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BadRange, ExplosionGuard, NotBinary, TooFewColumns
from .model import DEFAULT_BUDGET, CodeParams, check_matrix, quantize_sums

__all__ = [
    "Witness",
    "DEFAULT_BUDGET",
    "is_sq_disjunct",
    "is_sq_separable",
    "is_binary_disjunct_cgt",
    "is_binary_separable_cgt",
    "is_binary_separable_qgt",
]

_DISJUNCT_CELLS = 1 << 18  # per chunk: each d-set's d gathered columns and n counts


@dataclass(frozen=True)
class Witness:
    """A concrete refutation of a code property.

    kind names the property that failed; sets holds one or two offending
    subject-index sets (1-based); detail spells out the violated count.
    """

    kind: str
    sets: tuple[tuple[int, ...], ...]
    detail: str

    def __str__(self) -> str:
        shown = " vs ".join("{" + ",".join(map(str, s)) + "}" for s in self.sets)
        return f"{self.kind}: {shown}: {self.detail}" if shown else f"{self.kind}: {self.detail}"


def _colex_array(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n), k <= n, in colexicographic order, one per
    row.

    The k-subsets of range(t) are the first C(t, k) of them, so level k
    stacks, for each top element t, the first C(t, k-1) rows of level k-1
    beside t.
    """
    out = np.zeros((1, 0), dtype=np.int64)
    for level in range(1, k + 1):
        tops = range(level - 1, n - k + level)
        sizes = [comb(t, level - 1) for t in tops]
        out = np.column_stack((
            np.concatenate([out[:s] for s in sizes]),
            np.repeat(np.array(tops, dtype=np.int64), sizes),
        ))
    return out


def _subset_chunks(n: int, k: int, chunk: int):
    """Yield the k-subsets of range(n), 1 <= k <= n, in colex order, at
    most chunk per array.

    Row r has the top element t with C(t, k) <= r < C(t+1, k), below it the
    (k-1)-subset at row r - C(t, k), so only the (k-1)-subsets of
    range(n-1) are held in memory.
    """
    rest = _colex_array(n - 1, k - 1)
    first = np.array([comb(t, k) for t in range(n + 1)], dtype=np.int64)
    for start in range(0, comb(n, k), chunk):
        r = np.arange(start, min(start + chunk, comb(n, k)), dtype=np.int64)
        top = np.searchsorted(first, r, side="right") - 1
        yield np.column_stack((rest[r - first[top]], top))


def _within(count: np.ndarray) -> np.ndarray:
    """0..c-1 for each c in count, one run after another."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _row_codes(A: np.ndarray) -> np.ndarray:
    """One int64 per row of a nonnegative integer array, equal exactly for
    equal rows and ordered as the rows are lexicographically: runs of
    columns are folded in as base max+1 digits, one integer product per run
    below 2^62, and the codes are ranked when the next column would not fit
    (each column's values first, if even ranked codes leave no room)."""
    N, M = A.shape
    codes = np.zeros(N, dtype=np.int64)
    base = int(A.max(initial=0)) + 1
    if base * N > (1 << 62):
        A = np.column_stack([np.unique(a, return_inverse=True)[1].ravel() for a in A.T])
        base = int(A.max()) + 1
    span, j = 1, 0  # codes lie in range(span); columns before j are folded in
    while j < M:
        if span * base > (1 << 62):
            codes = np.unique(codes, return_inverse=True)[1].ravel()
            span = int(codes.max()) + 1
        w = 1
        while j + w < M and span * base ** (w + 1) <= (1 << 62):
            w += 1
        codes = codes * base**w + A[:, j : j + w] @ (base ** np.arange(w - 1, -1, -1))
        span, j = span * base**w, j + w
    return codes


def _distinct_rows(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of C, transposed, and how often each occurs.

    Returns (cols, weight): cols[j] holds column j on the distinct rows,
    and distinct row k stands for weight[k] rows of C. A syndrome
    coordinate depends only on its test's row, so every count over
    coordinates is a count over distinct rows weighted by weight. Rows are
    compared by their int64 codes, so the distinct rows come in
    lexicographic order, each taken at its first occurrence.
    """
    _, first, counts = np.unique(_row_codes(C), return_index=True, return_counts=True)
    return np.ascontiguousarray(C[first].T), counts.astype(np.int64)


def is_sq_disjunct(C, params: CodeParams, budget: int = DEFAULT_BUDGET) -> Witness | None:
    """Check the SQ-disjunct property of C at the bracket parameters.

    For every (d+1)-subset S of columns and every pivot column p inside
    it, at least 2e+1 coordinates must have the pivot's single-column
    syndrome strictly above the syndrome of the other d columns. Witness
    rows are automatically distinct across pivots of one subset, so only
    the counts are checked here.

    The scan runs over the d-sets T = S - {p} in colex order and counts
    every pivot outside T at once: a pivot at level v wins the rows where
    T's quantized sum is below v, so each level that single columns take
    adds one float64 product of T's rows below v with the row weights of
    the columns at v. A rest-sum is never below the lowest level, which
    adds nothing. Each chunk holds (chunk, rows) arrays for one level at a
    time; the per-level weights, (levels, rows, n), are built once. The
    witness is the colex-first violating S, at its first violating pivot;
    every S whose top element is at most t comes from d-sets whose top is
    at most t, so the scan stops once a d-set's top passes the best S's.
    """
    if params.l != 1:
        raise BadRange("SQ-disjunct codes cover defective ranges (1:d); need l == 1")
    C = check_matrix(C, params.q)
    d, e = params.u, params.e
    m, n = C.shape
    if n <= d:
        raise TooFewColumns(f"need n > d, got n={n}, d={d}")
    if 2 * e + 1 > m:
        return Witness("sq-disjunct", (), f"needs {2 * e + 1} witness rows but m={m}")
    _check_set_budget(n, d + 1, d + 1, budget)

    eta = np.asarray(params.eta, dtype=np.int64)
    cols, weight = _distinct_rows(C)
    single = quantize_sums(cols, eta)  # syndromes of single columns
    # wins[i][k, p] is row k's weight where column p sits at levels[i]; a
    # rest-sum is at least each of its columns' levels, so no pivot beats
    # it at the lowest one
    levels = np.unique(single)[1:]
    wins = (single.T == levels[:, None, None]) * weight[:, None].astype(np.float64)
    chunk = max(1, _DISJUNCT_CELLS // (d * cols.shape[1] + n))
    best = None  # (S top-down, pivot, count) of the first violation so far
    for T in _subset_chunks(n, d, chunk):
        if best is not None and T[0, -1] > best[0][0]:
            break
        rest = quantize_sums(cols[T].sum(axis=1), eta)  # syndromes of the d-sets
        counts = np.zeros((T.shape[0], n))  # (B, n): pivot p against T
        for level, G in zip(levels, wins):
            counts += (rest < level) @ G
        bad = counts < 2 * e + 1
        bad[np.arange(T.shape[0])[:, None], T] = False  # p inside T is no pivot
        b, p = np.nonzero(bad)
        if b.size:
            S = np.sort(np.column_stack((T[b], p)), axis=1)
            k = np.lexsort((p, *S.T))[0]  # colex on S, then pivot
            found = (tuple(int(i) for i in S[k, ::-1]), int(p[k]), int(counts[b[k], p[k]]))
            best = found if best is None else min(best, found)
    if best is None:
        return None
    top_down, pivot, count = best
    return Witness(
        "sq-disjunct",
        (tuple(i + 1 for i in reversed(top_down)), (pivot + 1,)),
        f"column {pivot + 1} beats the other {d} on {count} coordinates, needs {2 * e + 1}",
    )


def _check_set_budget(n: int, lo: int, hi: int, budget: int) -> None:
    """Raise ExplosionGuard when range(n) has more than budget subsets
    with sizes lo..hi. The count stops at 2^c > budget (c >= 64), which
    C(n, s) >= C(n, c) reaches for c <= s <= n - c, so C(n, c) stands in."""
    total, c = 0, max(int(budget).bit_length(), 64)
    for s in range(lo, min(hi, n) + 1):
        total += comb(n, min(s, n - s, c))
        if total >= 2**c:
            raise ExplosionGuard(f"at least 2^{c} candidate sets exceed budget {budget}")
    if total > budget:
        raise ExplosionGuard(f"{total} candidate sets exceed budget {budget}")


def _set_at(sets: list[np.ndarray], i: int) -> tuple[int, ...]:
    """Set number i (0-based) of the concatenated table, as 1-based subjects."""
    for arr in sets:
        if i < arr.shape[0]:
            return tuple(int(x) + 1 for x in arr[i])
        i -= arr.shape[0]
    raise IndexError(i)


def _syndrome_table(cols: np.ndarray, sets: list[np.ndarray], eta) -> np.ndarray:
    """Row i holds the syndrome of set number i; cols[j] is column j."""
    return np.concatenate([quantize_sums(cols[idx].sum(axis=1), eta) for idx in sets])


def _bucket_scan(syn: np.ndarray, coords: np.ndarray):
    """Bucket the table rows by their codes on the given coordinates.

    Returns (order, lo, count): order lists the row numbers sorted by bucket
    and, within a bucket, ascending; the rows i < j sharing j's bucket are
    order[lo[j] : lo[j] + count[j]].
    """
    N = syn.shape[0]
    bucket = _row_codes(syn[:, coords])
    order = np.argsort(bucket, kind="stable")
    at = np.arange(N)
    pos = np.empty(N, dtype=np.int64)
    pos[order] = at
    ordered = bucket[order]
    opens = np.ones(N, dtype=bool)
    opens[1:] = ordered[1:] != ordered[:-1]
    group_start = np.maximum.accumulate(np.where(opens, at, 0))
    lo = group_start[pos]
    return order, lo, pos - lo


def _first_close_pair(syn: np.ndarray, weight: np.ndarray, e: int, pair_budget: int):
    """First pair (i < j) of table rows whose syndromes differ in fewer than
    2e+1 coordinates, coordinate k counting weight[k] times.

    Pairs are ordered colex on (j, i), matching the canonical set order.
    For e > 0 this is a multi-index search: the coordinates are cut into
    2e+1 blocks, and a pair within distance 2e differs on at most 2e of
    them, so it agrees on at least one whole block. Only pairs that share a
    bucket on some block are compared, in ascending j, chunk by chunk; the
    first chunk holding a close pair holds the canonical one. With fewer
    coordinates than blocks no block has to agree, and every pair is
    compared.
    """
    N, M = syn.shape
    if e == 0:
        _, first, inverse = np.unique(_row_codes(syn), return_index=True, return_inverse=True)
        earlier = first[inverse.ravel()]
        j = np.flatnonzero(earlier < np.arange(N))
        return (int(earlier[j[0]]), int(j[0]), 0) if j.size else None
    if N * (N - 1) // 2 > pair_budget:
        raise ExplosionGuard(f"{N * (N - 1) // 2} set pairs exceed budget {pair_budget}")
    need = 2 * e + 1
    if M >= need:
        blocks = np.array_split(np.arange(M), need)
    else:
        blocks = [np.arange(0)]
    scans = [_bucket_scan(syn, coords) for coords in blocks]
    cum = np.cumsum(sum(count for _, _, count in scans))
    cap = max(1, (1 << 20) // M)  # candidate pairs per chunk
    j0 = 1
    while j0 < N:
        j1 = int(np.searchsorted(cum, cum[j0 - 1] + cap, side="right"))
        j1 = min(max(j1, j0 + 1), N)
        I, J = [], []
        for order, lo, count in scans:
            c = count[j0:j1]
            if c.any():
                I.append(order[np.repeat(lo[j0:j1], c) + _within(c)])
                J.append(np.repeat(np.arange(j0, j1), c))
        if I:
            I, J = np.concatenate(I), np.concatenate(J)
            dist = (syn[I] != syn[J]) @ weight
            close = np.flatnonzero(dist < need)
            if close.size:
                k = close[np.lexsort((I[close], J[close]))[0]]
                return int(I[k]), int(J[k]), int(dist[k])
        j0 = j1
    return None


def is_sq_separable(C, params: CodeParams, budget: int = DEFAULT_BUDGET) -> Witness | None:
    """Check the SQ-separable property of C at the bracket parameters.

    Every pair of distinct subject sets with sizes in l..u must produce
    syndromes differing in at least 2e+1 coordinates.
    """
    C = check_matrix(C, params.q)
    m, n = C.shape
    if params.u > n:
        raise TooFewColumns(f"need n >= u, got n={n}, u={params.u}")
    if 2 * params.e + 1 > m:
        return Witness("sq-separable", (), f"needs {2 * params.e + 1} witness rows but m={m}")
    _check_set_budget(n, params.l, params.u, budget)
    sets = [_colex_array(n, size) for size in range(params.l, params.u + 1)]
    cols, weight = _distinct_rows(C)
    syn = _syndrome_table(cols, sets, np.asarray(params.eta, dtype=np.int64))
    hit = _first_close_pair(syn, weight, params.e, budget)
    if hit is None:
        return None
    i, j, dist = hit
    return Witness(
        "sq-separable",
        (_set_at(sets, i), _set_at(sets, j)),
        f"syndromes differ in {dist} coordinates, need {2 * params.e + 1}",
    )


def _as_binary(C) -> np.ndarray:
    C = check_matrix(C)
    if C.max() > 1:
        raise NotBinary("matrix must be binary")
    return C


def _binary_reduction_params(d: int, e: int, adder: bool, l: int = 1) -> CodeParams:
    if adder:
        # identity thresholds: bucket(s) == s, so SQ-sum is the arithmetic sum
        return CodeParams.equidistant(2, 1, l, d, e)
    # single threshold at 1: bucket(s) == (s >= 1), so SQ-sum is the Boolean OR
    return CodeParams(q=2, Q=2, eta=(0, 1, d + 1), l=l, u=d, e=e)


def is_binary_disjunct_cgt(C, d: int, e: int = 0, budget: int = DEFAULT_BUDGET) -> Witness | None:
    """Classical binary d-disjunct check: 2e+1 private rows per pivot column."""
    C = _as_binary(C)
    return is_sq_disjunct(C, _binary_reduction_params(d, e, adder=False), budget)


def is_binary_separable_cgt(
    C, d: int, e: int = 0, budget: int = DEFAULT_BUDGET, min_size: int = 1
) -> Witness | None:
    """Classical binary d-separable check with Boolean-OR syndromes."""
    C = _as_binary(C)
    return is_sq_separable(C, _binary_reduction_params(d, e, adder=False, l=min_size), budget)


def is_binary_separable_qgt(
    C, d: int, e: int = 0, budget: int = DEFAULT_BUDGET, min_size: int = 1
) -> Witness | None:
    """Binary d-separable check with arithmetic-sum syndromes.

    min_size restricts the admissible set sizes to min_size..d; the default
    1 matches the classical definition, while exact-size codes (for example
    the number-theoretic ones) are checked with min_size=d.
    """
    C = _as_binary(C)
    return is_sq_separable(C, _binary_reduction_params(d, e, adder=True, l=min_size), budget)
