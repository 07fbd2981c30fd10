"""Decoders: counting, block-concatenation, recursive elimination, exact ML,
and loopy belief propagation.

Decoders return tuples of 1-based subject indices in increasing order. The
BP decoder returns per-subject marginals instead; pair it with one of the
two selection rules to obtain a defective set.
"""

from dataclasses import dataclass
from math import inf
from numbers import Integral

import numpy as np

from .errors import (
    BadD,
    BadRange,
    InconsistentSpec,
    NoConsistentSet,
    NonBinaryResidue,
    NumericalUnderflow,
)
from .model import (
    MAX_CELLS,
    CodeParams,
    NoiseModel,
    _check_integer,
    _check_real,
    _integers,
    check_matrix,
    likelihood,
    quantize_sums,
    syndrome,
)
from .verify import _check_set_budget, _subset_chunks, _syndrome_table, _within

__all__ = [
    "decode_disjunct",
    "decode_concat",
    "decode_lindstrom",
    "block_equation",
    "decode_ml",
    "Marginals",
    "BpConfig",
    "bp_decode",
    "bp_decode_batch",
    "select_threshold",
    "select_topd",
]

_MSG_FLOOR = 1e-300
_VAR_FLOOR = 1e-12  # keeps variable messages interior so loopy over-confidence
                    # cannot zero out a factor's entire sum distribution


def _check_results(Z, m: int, Q: int | None, batch: bool = False) -> np.ndarray:
    """Z as int64 after checking that it holds the integer results of m
    tests, one row per trial when batch is set, each in 0..Q-1 unless Q is
    None; BadRange otherwise."""
    Z = _integers(Z, "results")
    if Z.ndim != 1 + batch or Z.shape[-1] != m:
        want = f"(trials, m={m})" if batch else f"(m={m},)"
        raise BadRange(f"results must have shape {want}, got {Z.shape}")
    if Q is not None and Z.size and (Z.min() < 0 or Z.max() > Q - 1):
        raise BadRange(f"results must lie in 0..{Q - 1}")
    return Z


def decode_disjunct(C, params: CodeParams, z) -> tuple[int, ...]:
    """Counting decoder for SQ-disjunct codes; exact when z carries at most
    e substitution errors. Subject i is declared defective iff its
    single-column syndrome exceeds z on at most e coordinates."""
    C = check_matrix(C, params.q)
    z = _check_results(z, C.shape[0], params.Q)
    single = quantize_sums(C, np.asarray(params.eta, dtype=np.int64))
    exceed = (single > z[:, None]).sum(axis=0)
    return tuple(int(i) + 1 for i in np.nonzero(exceed <= params.e)[0])


def decode_concat(C, params: CodeParams, z) -> tuple[int, ...]:
    """Two-step decoder for concatenated scaled-block codes.

    The block scales, and InconsistentSpec unless C is such a code, come
    from construct.concat_spec under the code's own bracket. Step 1 peels
    the syndrome into per-block syndromes by repeated divide-and-floor
    against the block scale ratios; step 2 runs the disjunct counting
    decoder inside every block. Corrects up to e errors per block. Each
    block's answer is encoded again; NoConsistentSet is raised when it
    holds more than d subjects or its syndrome misses the block syndrome in
    more than e coordinates, which happens when the base is only separable,
    not disjunct.
    """
    from .construct import concat_spec

    C = check_matrix(C, params.q)
    scales = concat_spec(C, params).scales
    m, n = C.shape
    nb = n // len(scales)
    z = _check_results(z, m, params.Q)
    found: list[int] = []
    y = z.copy()
    for j in range(len(scales), 0, -1):
        f = scales[j - 1] // scales[0]  # 1 + d + ... + d^(j-1)
        yj = f * (y // f)
        y = y - yj
        block = C[:, (j - 1) * nb : j * nb]
        local = decode_disjunct(block, params, yj)
        if len(local) > params.u:
            raise NoConsistentSet(
                f"block {j} decodes to {len(local)} subjects, more than d={params.u}"
            )
        encoded = syndrome(block, local, params.eta)
        misses = int((encoded != yj).sum())
        if misses > params.e:
            raise NoConsistentSet(
                f"block {j} decodes to a set whose syndrome misses the block "
                f"syndrome in {misses} coordinates, more than e={params.e}"
            )
        found.extend((j - 1) * nb + i for i in local)
    return tuple(sorted(found))


def block_equation(labels: np.ndarray, q2: int, block: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Elimination equation of one block of a recursive code, whose block
    and row labels are labels = ordered_subsets(kappa) and whose blocks
    have q2 bit columns beyond the first.

    Returns (odd_rows, even_rows, coefficients): 1-based row indices whose
    results are added and subtracted, and the power-of-two coefficients the
    combination leaves on the block's columns, one per column of the full
    block; a truncated block keeps the leading ones.
    """
    for name, value in (("q2", q2), ("block", block)):
        _check_integer(name, value)
    if not 1 <= block <= len(labels):
        raise BadRange(f"block must lie in 1..{len(labels)}, got {block}")
    from .construct import _parity

    S = int(labels[block - 1])
    rows = np.nonzero((labels & S) == labels)[0]  # labeled by subsets of S
    odd = _parity(labels[rows]) == 1
    full = q2 + S.bit_count()
    coeffs = tuple(2 ** (full - k) for k in range(1, full + 1))
    return tuple((rows[odd] + 1).tolist()), tuple((rows[~odd] + 1).tolist()), coeffs


def decode_lindstrom(C, params: CodeParams, z) -> tuple[int, ...]:
    """Recursive elimination decoder; exact for any defective count 0..n.

    The block structure is read off C under the code's own bracket: kappa
    from m = 2^kappa - 1, the bit-column count q2 from q and the threshold
    step, and the block column ranges from n, since truncation drops
    columns from the right. InconsistentSpec is raised when C cannot be
    such a code, or when a block's columns break the construction rules.

    Processes blocks from the last to the first on the residual results
    r = z - C w of the subjects decoded so far. For each block it combines
    the rows labeled by odd and even subsets of the block label and reads
    the block's indicator bits off the binary representation of the sum.
    The results are summed as Python integers, so the remainder is exact
    for any integer results; C w, at most a row sum of C, stays in int64.
    """
    from .construct import _floor_log2_ratio, _step_levels, ordered_subsets

    C = check_matrix(C, params.q)
    step = params.step
    m, n = C.shape
    kappa = m.bit_length()
    if m != 2**kappa - 1:
        raise InconsistentSpec(f"m={m} is not 2^kappa - 1 for any kappa")
    if np.any(C % step):
        raise InconsistentSpec("entries are not multiples of the threshold step")
    q2 = _floor_log2_ratio(_step_levels(params.q, step), 1)
    labels = ordered_subsets(kappa)
    widths = [q2 + S.bit_count() for S in labels.tolist()]
    if n > sum(widths):
        raise InconsistentSpec(f"n={n} exceeds the construction size {sum(widths)}")
    C = C // step
    # shape only: the elimination refuses results outside 0..Q-1 with
    # NonBinaryResidue
    z = _check_results(z, m, None).astype(object)
    cw = np.zeros(m, dtype=np.int64)
    w = np.zeros(n, dtype=np.int64)
    start = sum(widths)
    for i in range(len(labels), 0, -1):
        start -= widths[i - 1]
        if start >= n:  # truncated away
            continue
        sl = slice(start, min(start + widths[i - 1], n))
        odd, even, coeffs = block_equation(labels, q2, i)
        odd, even = [j - 1 for j in odd], [j - 1 for j in even]
        coeffs = coeffs[: sl.stop - start]
        vec = C[odd, sl].sum(axis=0) - C[even, sl].sum(axis=0)
        if tuple(int(c) for c in vec) != coeffs:
            raise InconsistentSpec(
                f"block {i} columns do not match the construction rules"
            )
        rhs = int(z[odd].sum() - z[even].sum()) - int(cw[odd].sum() - cw[even].sum())
        if rhs < 0:
            raise NonBinaryResidue(f"block {i} leaves a negative remainder {rhs}")
        for offset, c in enumerate(coeffs):
            if rhs >= c:
                w[start + offset] = 1
                rhs -= c
        if rhs != 0:
            raise NonBinaryResidue(f"block {i} leaves remainder {rhs} after all bits")
        cw += C[:, sl] @ w[sl]
    return tuple(int(i) + 1 for i in np.nonzero(w)[0])


def decode_ml(
    C,
    params: CodeParams,
    z,
    noise: NoiseModel = NoiseModel(),
    budget: int = 2_000_000,
) -> tuple[int, ...]:
    """Exhaustive maximum-likelihood decoder over all sets of size l..u.

    Serves as the oracle the efficient decoders are compared against. Ties
    break toward the set appearing first in the canonical order (sizes
    ascending, colexicographic within one size). The sets are enumerated
    and encoded as in the SQ-separable verifier, one chunk at a time. A
    test's logs are read on y = z-2..z+2; a y further off reads an end, -inf.
    """
    C = check_matrix(C, params.q)
    m, n = C.shape
    z = _check_results(z, m, params.Q)
    _check_set_budget(n, params.l, params.u, budget)
    eta = np.asarray(params.eta, dtype=np.int64)
    with np.errstate(divide="ignore"):
        window = np.log(likelihood(z[:, None] + np.arange(-2, 3), z[:, None], params.Q, noise))
    lo = 5 * np.arange(m)  # the flat index of each test's log P(z | z - 2)
    cols = np.ascontiguousarray(C.T)
    best: np.ndarray | None = None
    best_ll = -inf
    for size in range(params.l, min(params.u, n) + 1):
        for subs in _subset_chunks(n, size, max(1, (1 << 20) // (m * size))):
            # each row of the (sets, m) gather is contiguous, so it sums in
            # the same order as the 1-D sum of one set's log-likelihoods
            at = _syndrome_table(cols, [subs], eta)
            at += lo - z + 2
            ll = window.take(np.clip(at, lo, lo + 4, out=at)).sum(axis=1)
            k = int(np.argmax(ll))
            if ll[k] > best_ll:
                best_ll = ll[k]
                best = subs[k]
    if best is None or best_ll == -inf:
        raise NoConsistentSet("no candidate set has positive likelihood")
    return tuple(int(i) + 1 for i in best)


# ---------------------------------------------------------------------------
# belief propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BpConfig:
    """Knobs for the loopy sum-product decoder.

    max_iters is the flooding-schedule iteration count; damping mixes the
    previous factor messages into the new ones; prior overrides the default
    per-subject defect probability d/n; tol, when set, stops early once the
    largest message change drops below it.
    """

    max_iters: int = 20
    damping: float = 0.0
    prior: float | None = None
    tol: float | None = None

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, Integral) or self.max_iters < 1:
            raise BadRange(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        _check_real("damping", self.damping)
        for name in ("prior", "tol"):  # None leaves them unset
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name))
        if not 0.0 <= self.damping < 1.0:
            raise BadRange(f"damping must lie in [0, 1), got {self.damping}")
        if self.prior is not None and not 0.0 < self.prior < 1.0:
            raise BadRange(f"prior must lie in (0, 1), got {self.prior}")
        if self.tol is not None and not 0.0 < self.tol < inf:
            raise BadRange(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True, eq=False)
class Marginals:
    """Per-subject posterior defect probabilities and the iterations used."""

    p1: np.ndarray
    iterations: int


_CELLS = 1 << 14  # P rows x trials of one block; larger blocks fall out of cache


@dataclass(frozen=True, eq=False)
class _Block:
    """Consecutive tests' neighbor chains on their gcd-reduced partial-sum
    lattices, laid out side by side, and the factor sums that read them.

    Lattice point j of a test stands for the partial sum g*j, where g is
    the gcd of the test's coefficients and 8, and R is its largest lattice
    point plus one. The test's prefix and back arrays for its neighbor a
    are rows base + a*R .. base + a*R + R - 1 of the block's P and B. Each
    forward and each backward step holds one neighbor of every test that
    has one at that step; a step's rows, and the edges those rows take
    their variable message from, are slices or ints where one test runs
    the step and index arrays otherwise. The factor sums (see _sum_plan)
    give the msg0 of every edge in `edges`, then the msg1 of each; every
    block takes each of their steps, however many of its terms are zero.
    """

    rows: int
    starts: slice | np.ndarray  # each test's P[0][0], set to 1
    last: slice | np.ndarray  # each test's B[k-1], where weight goes
    weight: np.ndarray  # likelihood of each lattice point per trial, test-major
    forward: tuple[tuple, ...]  # (src, dst, dst + c, edge) per step
    backward: tuple[tuple, ...]  # (src, src + c, dst, edge) per step
    edges: slice  # the block's edges
    gather: tuple[np.ndarray, np.ndarray]  # rows of P and of B, one per product
    lanes: tuple[int, ...]  # accumulators that stride-8 block i adds into
    lane_rows: np.ndarray  # accumulator of each (lane, leaf), lane-major
    width: int  # lanes per leaf: 8 // the block's smallest g, 1 if no lane keeps a block
    tails: tuple[int, ...]  # leaves that tail column j adds into
    splits: tuple[tuple[np.ndarray, np.ndarray], ...]  # node pairs added, per depth, deepest first
    roots: np.ndarray  # the node of each message


def _sum_plan(msgs: np.ndarray):
    """Lay out the sums of P[p + j] * B[b + j] over the first r points of
    each row (p, b, r, e, g) of msgs, on the lattice of multiples of g, so
    that they add in numpy's float64 order, gathering only the first e
    products: the others are zero.

    numpy sums a contiguous row of n = g*(r-1) + 1 entries (zeros between
    the lattice points) as follows: fewer than 8 entries in sequence from
    0; up to 128 with eight stride-8 accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the n % 8 tail in sequence;
    more than 128 by splitting at h = n//2 rounded down to a multiple of 8
    and adding the two halves' sums. Zeros add exactly, so an accumulator,
    a tail or a split node that is left a zero term sums the same; only the
    accumulators at multiples of g, and in them only the products below e,
    are kept. The rows split one depth at a time: a part of at most 128
    entries is a leaf, a larger one makes the parts (p, b, h, e, g) and
    (p + h/g, b + h/g, n - h, e - h/g, g) of the next depth. A leaf has
    width = 8 // step lanes, step being the smallest g of msgs: lane l is
    the accumulator at entry l*step, and keeps no block where g does not
    divide l*step. The lanes are sorted by the blocks they keep, most
    first, so that block i adds into a prefix of them; the gather lists
    block 0 of each lane, then block 1, and so on. The leaves are sorted by
    the tail columns they keep, so that tail column j adds into a prefix of
    them; the gather goes on with tail column 0 of each, then column 1, and
    so on. A lane that keeps no block reads the zero row after the gather,
    so a leaf that lies wholly at or beyond e sums to 0; where no lane of
    any leaf keeps a block, width is 1, one such lane a leaf, which sums to
    the same +0.0. The split parents are summed deepest first, after the
    leaves, and roots gives the node of each message, in order.
    """
    p, b, r, e, g = msgs.T
    parts = [np.stack((p, b, g * (r - 1) + 1, e, g), axis=1)]  # (p, b, n, e, g) of each depth's parts
    levels = []  # the split parents of each depth and their (left, right) children
    while (big := np.flatnonzero(parts[-1][:, 2] > 128)).size:
        part = parts[-1][big]
        h = part[:, 2] // 2 // 8 * 8  # a multiple of 8, so of g
        move = h // part[:, 4]
        part = np.concatenate((part, part + np.stack((move, move, -h, -move, 0 * h), axis=1)))
        part[: len(big), 2] = h
        made = sum(map(len, parts))  # node i is the i-th part made
        levels.append((made - len(parts[-1]) + big, made + np.arange(len(part)).reshape(2, -1)))
        parts.append(part)
    nodes = np.concatenate(parts)
    leaf_id = np.flatnonzero(nodes[:, 2] <= 128)
    p, b, n, e, g = nodes[leaf_id].T
    step = int(g.min())
    width = 8 // step
    full = n // 8 * (8 // g)  # lattice points in whole blocks
    head = np.clip(e, 0, full)  # of those, the ones kept
    tail = np.clip(e - full, 0, (n - 1) // g + 1 - full)
    # lane l of a leaf keeps the entries l*step, l*step + 8, ... below head*g, if g divides them
    leaf = np.repeat(np.arange(len(p)), width)
    entry = np.tile(np.arange(0, 8, step), len(p))
    count = np.where(entry % g[leaf], 0, (head[leaf] * g[leaf] - entry + 7) // 8)
    by_count = np.argsort(-count, kind="stable")
    block, i = np.nonzero(np.arange(count.max())[:, None] < count[by_count])
    kept_lane = by_count[i]
    by_tail = np.argsort(-tail, kind="stable")
    column, i = np.nonzero(np.arange(tail.max())[:, None] < tail[by_tail])
    # the leaf of each product, and its lattice point within the leaf
    kept = np.concatenate((leaf[kept_lane], by_tail[i]))
    at = np.concatenate(((8 * block + entry[kept_lane]) // g[leaf[kept_lane]], full[by_tail[i]] + column))
    # the row of each accumulator, (lane, leaf) with the leaves in tail order
    acc = np.empty(len(count), dtype=np.int64)
    acc[by_count] = np.arange(len(count))
    acc[count == 0] = len(kept)
    lane_rows = acc.reshape(len(p), width)[by_tail].T
    if not len(block):  # every lane reads the zero row: keep one a leaf
        lane_rows, width = lane_rows[:1], 1
    # node ids: leaves first, in tail order, then the split parents, deepest first
    ids = np.argsort(np.concatenate((leaf_id[by_tail], *(x for x, _ in levels[::-1]))))
    return (
        (p[kept] + at, b[kept] + at),
        tuple(np.bincount(block, minlength=1).tolist()),
        lane_rows.ravel(),
        width,
        tuple(np.bincount(column).tolist()),
        tuple((ids[left], ids[right]) for _, (left, right) in levels[::-1]),
        ids[: len(msgs)],
    )


def _index(rows: np.ndarray) -> slice | np.ndarray:
    """Increasing rows, as a slice when they are contiguous."""
    if len(rows) and rows[-1] - rows[0] + 1 == len(rows):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _steps(block, step, first, count, shifts, edge, blocks: int) -> list[tuple[tuple, ...]]:
    """The steps of every block, in step order, from records of rows
    first..first+count-1 that take their variable message from one edge.

    A step is its rows, those rows moved by each of the record's shifts,
    and the edge of each row. Where one record makes up the step, these
    are slices and an int; otherwise index arrays, records in order.
    """
    out: list[list[tuple]] = [[] for _ in range(blocks)]
    order = np.lexsort((step, block))
    block, step, first, count, edge = (x[order] for x in (block, step, first, count, edge))
    shifts = [s[order] for s in shifts]
    ends = (np.flatnonzero(np.diff(block) | np.diff(step)) + 1).tolist()
    if len(order):
        ends.append(len(order))
    for i, j in zip([0, *ends], ends):
        if j - i == 1:
            f, n = int(first[i]), int(count[i])
            moved = (slice(f + int(s[i]), f + int(s[i]) + n) for s in shifts)
            out[block[i]].append((slice(f, f + n), *moved, int(edge[i])))
            continue
        rec = np.repeat(np.arange(i, j), count[i:j])
        rows = first[rec] + _within(count[i:j])
        out[block[i]].append((_index(rows), *(_index(rows + s[rec]) for s in shifts), edge[rec]))
    return [tuple(steps) for steps in out]


def _blocks(C: np.ndarray, Z: np.ndarray, Q: int, noise: NoiseModel, eta: np.ndarray) -> list[_Block]:
    """The tests with a neighbor, in order, cut into blocks of at most
    _CELLS P cells each; a test larger than that makes a block alone.
    BadRange, before any allocation, for more than MAX_CELLS P rows a trial."""
    T = Z.shape[0]
    efac, evar = np.nonzero(C > 0)
    if not len(efac):
        return []
    tests, lo, k = np.unique(efac, return_index=True, return_counts=True)
    fac = np.repeat(np.arange(len(tests)), k)  # test of each edge
    a = _within(k)  # neighbor of each edge within its test
    g = np.gcd(np.gcd.reduceat(C[efac, evar], lo), 8)
    c = C[efac, evar] // g[fac]
    top = np.cumsum(c) - c
    top -= top[lo][fac]  # largest lattice point of the neighbors before
    R = np.add.reduceat(c, lo) + 1
    size = k * R
    if size.sum() > MAX_CELLS:
        raise BadRange(f"BP needs {size.sum()} dynamic-programme rows per trial, more than {MAX_CELLS}")
    # the lattice points of every test in turn and their buckets, Q at the
    # sentinel; each block reads their likelihood per trial on its own rows
    pt = np.repeat(np.arange(len(tests)), R)
    point = _within(R)
    buckets = np.searchsorted(eta, g[pt] * point, side="right") - 1

    cuts, cells = [0], 0
    for i, s in enumerate((size * T).tolist()):
        if cells and cells + s > _CELLS:
            cuts.append(i)
            cells = 0
        cells += s
    cuts.append(len(tests))
    blk = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))  # block of each test
    base = np.cumsum(size) - size
    base -= base[cuts[:-1]][blk]  # row of each test's P[0] in its block
    Re = R[fac]
    first = base[fac] + a * Re  # row 0 of each edge's P[a] and B[a]
    fw = np.flatnonzero(a < k[fac] - 1)  # edges whose P[a] gives P[a+1]
    bw = np.flatnonzero(a > 0)  # edges whose B[a] gives B[a-1]
    nb = len(cuts) - 1
    forward = _steps(blk[fac[fw]], a[fw], first[fw], top[fw] + 1, (Re[fw], Re[fw] + c[fw]), fw, nb)
    backward = _steps(blk[fac[bw]], k[fac[bw]] - 1 - a[bw], first[bw], top[bw] + 1, (c[bw], -Re[bw]), bw, nb)
    last = (base + (k - 1) * R)[pt] + point
    # msg0 of neighbor a sums P[a, j] * B[a, j] over all R points, msg1
    # sums P[a, j] * B[a, j + c_a] over the first R - c_a; P[a] is zero
    # beyond top[a], so both keep top[a] + 1 products
    msg0 = np.stack((first, first, Re, top + 1, g[fac]), axis=1)
    msg1 = msg0 + np.outer(c, [0, 1, -1, 0, 0])
    out = []
    for b, (f0, f1) in enumerate(zip(cuts, cuts[1:])):
        rows = int(base[f1 - 1] + size[f1 - 1])
        e0, e1 = int(lo[f0]), int(lo[f1 - 1] + k[f1 - 1])
        p0, p1 = pt.searchsorted(f0), pt.searchsorted(f1)
        out.append(_Block(rows, _index(base[f0:f1]), _index(last[p0:p1]),
                          likelihood(buckets[p0:p1, None], Z.T[tests[pt[p0:p1]]], Q, noise),
                          forward[b], backward[b], slice(e0, e1),
                          *_sum_plan(np.concatenate((msg0[e0:e1], msg1[e0:e1])))))
    return out


def _var_levels(evar: np.ndarray, n: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The edges in the order the variable sums add them, and where each
    variable's sum goes.

    Variables are sorted by degree, most first (stable), and each sum adds
    its variable's edges in edge order: level j holds the j-th edge of the
    first widths[j] variables, so each level adds into a prefix of the
    sums. Returns (edges, widths, place), place[v] being the sum of v.
    """
    degree = np.bincount(evar, minlength=n)
    place = np.empty(n, dtype=np.int64)
    place[np.argsort(-degree, kind="stable")] = np.arange(n)
    level = np.empty(len(evar), dtype=np.int64)
    level[np.argsort(evar, kind="stable")] = _within(degree)
    return np.lexsort((place[evar], level)), np.bincount(level).tolist(), place


def _block_update(blk: _Block, V: np.ndarray, F_new: np.ndarray) -> None:
    """Write the messages of every test in one block into F_new."""
    T = V.shape[2]
    v0, v1 = V
    # forward-backward over the neighbor chains: P[a] is the partial-sum
    # distribution of neighbors < a, B[a] the expected likelihood over
    # neighbors > a as a function of the partial sum. P[a] is zero beyond
    # top[a] and B[a] is only read up to top[a+1], so both are computed
    # that far, and the sums read no further: P's other rows stay zero,
    # and B's are never set. A step on slices writes in place; one on
    # index arrays cannot.
    P = np.zeros((blk.rows, T))
    P[blk.starts] = 1.0
    for src, dst, shifted, e in blk.forward:
        prev = P[src]
        if type(dst) is slice:
            np.multiply(prev, v0[e], out=P[dst])
        else:
            P[dst] = prev * v0[e]
        P[shifted] += prev * v1[e]
    B = np.empty((blk.rows, T))
    B[blk.last] = blk.weight
    for src, shifted, dst, e in blk.backward:
        if type(dst) is slice:
            np.multiply(B[src], v0[e], out=B[dst])
            B[dst] += B[shifted] * v1[e]
        else:
            B[dst] = B[src] * v0[e] + B[shifted] * v1[e]
    # the products, then a zero row for the lanes that keep no block
    # (the rows are in range; under mode="raise" take would copy twice)
    cells = len(blk.gather[0])
    Y = np.empty((cells + 1, T))
    P.take(blk.gather[0], axis=0, out=Y[:cells], mode="clip")
    Y[:cells] *= B.take(blk.gather[1], axis=0)
    Y[cells] = 0.0
    # stride-8 accumulators: block 0 starts them, block i adds into the
    # first lanes[i], then ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    at = blk.lanes[0]
    for count in blk.lanes[1:]:
        Y[:count] += Y[at : at + count]
        at += count
    lanes = Y.take(blk.lane_rows, axis=0).reshape(blk.width, -1, T)
    while len(lanes) > 1:
        lanes = lanes[0::2] + lanes[1::2]
    sums = lanes[0]
    # then the tails in sequence, column j into the first tails[j] leaves
    for count in blk.tails:
        sums[:count] += Y[at : at + count]
        at += count
    for left, right in blk.splits:
        sums = np.concatenate((sums, sums[left] + sums[right]))
    F_new[:, blk.edges] = sums[blk.roots].reshape(2, -1, T)


def bp_decode_batch(
    C,
    params: CodeParams,
    Z,
    noise: NoiseModel = NoiseModel(),
    d: int | None = None,
    cfg: BpConfig = BpConfig(),
) -> Marginals:
    """Sum-product decoding of many result vectors against one code.

    Z has one row per trial. Tests are factor nodes and subjects variable
    nodes; a factor's likelihood depends on the weighted sum of its
    neighbors' indicators, so its outgoing messages are computed by exact
    dynamic programming over that partial-sum distribution rather than by
    enumerating neighbor configurations. Messages are renormalized every
    update; variable-side products run in log domain.

    The layout is sum-major: messages are (2, edges, trials) and a factor's
    dynamic-programming arrays are (neighbors, R, trials), so every numpy
    call runs over all trials at once. Factors also run in blocks: the
    arrays of consecutive factors lie side by side, up to a cap of _CELLS
    rows x trials per block; each forward or backward step, and each add
    of the message sums, covers every factor of a block in one numpy call.
    A single trial puts the whole code in one block; hundreds give about
    one factor per block, which keeps the arrays in cache. Partial sums
    live on the lattice of multiples of g' = gcd(the factor's coefficients,
    8), R = S/g' + 1 points for a coefficient sum S; the others are
    unreachable. Both sums gather only what can be nonzero: a message of
    neighbor a adds top[a] + 1 products, top[a] being the largest lattice
    point of the neighbors before a, and a variable adds the logs of its
    own edges. The marginals are bit-identical to those of the earlier
    trial-major kernel, which summed each message as one contiguous row of
    S + 1 entries: the factor sums reproduce numpy's order of additions for
    such a row, leaving out only zero terms, and the variable sums add in
    edge order, because a pinned sweep flips a top-d pick under any other
    order.

    Returns Marginals with p1 of shape (trials, n).
    """
    C = check_matrix(C, params.q)
    m, n = C.shape
    Z = _check_results(Z, m, params.Q, batch=True)
    T = Z.shape[0]
    if d is None:
        d = params.u
    p_prior = cfg.prior if cfg.prior is not None else d / n
    if not 0.0 < p_prior < 1.0:
        raise BadRange(f"defect prior must lie in (0, 1), got {p_prior}")
    if T == 0:
        return Marginals(p1=np.empty((0, n)), iterations=0)
    log_prior = np.log(np.array([1.0 - p_prior, p_prior]))[:, None, None]

    blocks = _blocks(C, Z, params.Q, noise, np.asarray(params.eta, dtype=np.int64))
    evar = np.nonzero(C > 0)[1]  # variable of each edge, factor-major
    E = len(evar)
    levels, widths, place = _var_levels(evar, n)
    sum_of_edge = place[evar]

    V = np.full((2, E, T), 0.5)
    F = np.full((2, E, T), 0.5)
    logF = np.empty((2, E, T))
    SV = np.zeros((2, n, T))  # sums of incoming logs per variable, by place
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        F_new = np.empty_like(F)
        for blk in blocks:
            _block_update(blk, V, F_new)
        norm = F_new[0] + F_new[1]
        if np.any(norm == 0.0):
            raise NumericalUnderflow("a factor message lost all probability mass")
        F_new /= norm
        if cfg.damping:
            F *= cfg.damping
            F_new *= 1.0 - cfg.damping
            F_new += F
        F = F_new

        np.log(np.maximum(F, _MSG_FLOOR, out=logF), out=logF)
        # level by level into prefixes of the sums, so that each variable
        # adds its logs in edge order; a variable of degree 0 keeps 0
        L = logF[:, levels]
        at = widths[0] if widths else 0
        SV[:, :at] = L[:, :at]
        for width in widths[1:]:
            SV[:, :width] += L[:, at : at + width]
            at += width
        V_new = SV[:, sum_of_edge]
        V_new += log_prior
        V_new -= logF
        V_new -= np.maximum(V_new[0], V_new[1])
        np.exp(V_new, out=V_new)
        V_new /= V_new[0] + V_new[1]
        np.clip(V_new, _VAR_FLOOR, None, out=V_new)
        V_new /= V_new[0] + V_new[1]
        if cfg.tol is not None:
            V -= V_new
            delta = np.abs(V, out=V).max() if E else 0.0
        V = V_new
        if cfg.tol is not None and delta < cfg.tol:
            break

    marg_log = log_prior + SV[:, place]
    marg_log -= np.maximum(marg_log[0], marg_log[1])
    marg = np.exp(marg_log)
    marg /= marg[0] + marg[1]
    return Marginals(p1=marg[1].T.copy(), iterations=iterations)


def bp_decode(
    C,
    params: CodeParams,
    z,
    noise: NoiseModel = NoiseModel(),
    d: int | None = None,
    cfg: BpConfig = BpConfig(),
) -> Marginals:
    """Sum-product decoding of a single result vector; see bp_decode_batch."""
    C = check_matrix(C, params.q)
    z = _check_results(z, C.shape[0], params.Q)
    out = bp_decode_batch(C, params, z[None], noise, d=d, cfg=cfg)
    return Marginals(p1=out.p1[0], iterations=out.iterations)


def select_threshold(marginals: Marginals) -> tuple[int, ...]:
    """Subjects whose posterior defect probability strictly exceeds 1/2."""
    return tuple(int(i) + 1 for i in np.nonzero(marginals.p1 > 0.5)[0])


def select_topd(marginals: Marginals, d: int) -> tuple[int, ...]:
    """The d subjects with the largest marginals; ties go to smaller indices."""
    _check_integer("d", d)
    n = marginals.p1.shape[0]
    if not 0 <= d <= n:
        raise BadD(f"d must lie in 0..{n}, got {d}")
    order = np.argsort(-marginals.p1, kind="stable")
    return tuple(sorted(int(i) + 1 for i in order[:d]))
