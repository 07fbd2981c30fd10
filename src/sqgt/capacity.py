"""Mutual-information machinery for the quantized-adder testing channel.

Computes output distributions of the noiseless channel by convolution,
the per-split mutual informations, the rate objective (the entropy of the
quantized d-fold sum over d, which is the minimum over splits of the
per-split rate), grid search over input distributions and quantizers of at
least two regions, and the achievability and converse test-count bounds,
which use every split. All entropies are in bits; 0*log(0) is 0.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, islice, product
from math import comb, inf, log2

import numpy as np

from .errors import BadDistribution, BadEta, BadPartition, BadRange, BudgetExceeded, Overflow
from .model import _check_integer, _check_real

__all__ = [
    "Quantizer",
    "check_distribution",
    "sum_pmf",
    "output_pmf",
    "mutual_information",
    "mutual_information_bruteforce",
    "rate_objective",
    "capacity_search",
    "sufficient_tests",
    "necessary_tests",
    "td_rate_denominator",
]


@dataclass(frozen=True)
class Quantizer:
    """Partition of the sum range 0..top into contiguous nonempty regions.

    edges holds the Q+1 region boundaries: region r covers
    edges[r] .. edges[r+1]-1, with edges[0] == 0 and edges[-1] == top+1.
    """

    edges: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) < 2 or self.edges[0] != 0:
            raise BadPartition(f"edges must start at 0, got {self.edges}")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise BadPartition(f"edges must strictly increase, got {self.edges}")

    @property
    def Q(self) -> int:
        return len(self.edges) - 1

    @property
    def top(self) -> int:
        return self.edges[-1] - 1

    @classmethod
    def identity(cls, top: int) -> "Quantizer":
        return cls(tuple(range(top + 2)))

    def regions(self) -> list[range]:
        return [range(a, b) for a, b in zip(self.edges, self.edges[1:])]

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, r)) + "}" for r in self.regions())


def check_distribution(pt) -> np.ndarray:
    """Coerce to a 1-D probability vector; tolerance 1e-12 on the total."""
    arr = np.asarray(pt, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise BadDistribution(f"expected a 1-D distribution, got shape {arr.shape}")
    if arr.min() < 0 or abs(arr.sum() - 1.0) > 1e-12:
        raise BadDistribution(f"probabilities must be nonnegative and sum to 1")
    return arr


def _convolve_power(pt: np.ndarray, k: int) -> np.ndarray:
    out = np.array([1.0])
    for _ in range(k):
        out = np.convolve(out, pt)
    return out


def sum_pmf(pt, d: int) -> np.ndarray:
    """Distribution of the sum of d i.i.d. sample amounts (d-fold convolution)."""
    _check_integer("d", d)
    if d < 1:
        raise BadRange(f"need d >= 1, got {d}")
    return _convolve_power(check_distribution(pt), d)


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


def mutual_information_bruteforce(pt, d: int, i: int, quant: Quantizer) -> float:
    """Same quantity by direct summation over the joint distribution of
    (open symbols, known symbols, result); the independent cross-check."""
    pt = check_distribution(pt)
    if not 1 <= i <= d:
        raise BadPartition(f"split size must lie in 1..{d}, got {i}")
    q = len(pt)
    edges = np.asarray(quant.edges)
    joint: dict[tuple, float] = {}
    p1_m: dict[tuple, float] = {}
    p2z_m: dict[tuple, float] = {}
    for t1 in product(range(q), repeat=i):
        w1 = float(np.prod([pt[s] for s in t1]))
        if w1 == 0.0:
            continue
        for t2 in product(range(q), repeat=d - i):
            w2 = float(np.prod([pt[s] for s in t2]))
            if w2 == 0.0:
                continue
            z = int(np.searchsorted(edges, sum(t1) + sum(t2), side="right") - 1)
            p = w1 * w2
            joint[(t1, t2, z)] = joint.get((t1, t2, z), 0.0) + p
            p1_m[t1] = p1_m.get(t1, 0.0) + p
            p2z_m[(t2, z)] = p2z_m.get((t2, z), 0.0) + p
    return sum(
        p * log2(p / (p1_m[t1] * p2z_m[(t2, z)]))
        for (t1, t2, z), p in joint.items()
    )


def rate_objective(pt, d: int, quant: Quantizer) -> float:
    """Per-defective information rate mutual_information(pt, d, d, quant) / d,
    the entropy of the quantized d-fold sum over d; its supremum over
    (pt, quantizer) is the channel capacity.

    The paper's objective is the minimum over split sizes i of
    mutual_information / i. With independent inputs the increments of
    I_i = mutual_information(pt, d, i, quant) do not decrease in i (the
    chain rule and Han's inequality), so I_i / i does not increase and the
    minimum sits at i = d.
    """
    return mutual_information(pt, d, d, quant) / d


def _compositions(total: int, parts: int):
    """Integer compositions of total into parts parts, lexicographic: the
    running sums of a composition are a sorted choice of its cut points."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _objective_table(points, d: int, edges: np.ndarray) -> np.ndarray:
    """rate_objective(pt, d, quant) for every point (row) and quantizer
    (column; one row of edges each), bit for bit: the same d-fold
    convolution, and every sum that mutual_information takes through numpy
    (region masses, entropy terms) taken by numpy over the rows of a
    C-contiguous array, which it adds in the order it adds a 1-D slice."""
    sums = np.array([_convolve_power(np.asarray(pt, dtype=float), d) for pt in points])
    n = sums.shape[1]
    # the slice sums[:, lo:hi] of every (quantizer, region), coded lo * (n + 1) + hi
    code = edges[:, :-1] * (n + 1) + edges[:, 1:]
    used = np.flatnonzero(np.bincount(code.ravel(), minlength=(n + 1) ** 2))
    starts, stops = np.divmod(used, n + 1)
    mass = np.zeros((len(sums), (n + 1) ** 2))
    for width in np.unique(stops - starts):
        same = stops - starts == width
        # the gather comes back strided, and numpy sums a strided axis in another order
        slices = np.ascontiguousarray(sums[:, starts[same, None] + np.arange(width)])
        mass[:, used[same]] = slices.sum(axis=2)
    positive = mass > 0
    terms = np.zeros_like(mass)
    terms[positive] = mass[positive] * np.log2(mass[positive])
    # entropy of each (point, quantizer): its positive terms in region order,
    # added in sequence as numpy adds fewer than 8 entries
    total = np.zeros((len(sums), len(code)))
    for r in range(code.shape[1]):
        total += terms[:, code[:, r]]
    if code.shape[1] >= 8:
        count = positive[:, code].sum(axis=2)
        for c in np.unique(count[count >= 8]):
            p, k = np.nonzero(count == c)
            cells = code[k]
            compact = terms[p[:, None], cells][positive[p[:, None], cells]].reshape(len(p), c)
            total[p, k] = compact.sum(axis=1)
    # mutual_information's 0.0 + 1.0 * entropy at the full split (a zero
    # entropy comes out +0.0), over d
    return (0.0 - total) / d


_CELLS = 1 << 20


def _scan(best, points, scale: int, d: int, quantizers):
    """First strict maximum of the rate objective over (point, quantizer)
    pairs in row-major order, starting from best; each point is integer
    weights over scale. best and the result are (bits, quantizer,
    distribution, weights).

    The pairs go to _objective_table in blocks of about _CELLS floats
    (points x quantizers x regions, plus each point's slice masses):
    whole points while they fit, else one point's quantizers in slices.
    np.argmax is the first maximum of a block, kept only if it beats the
    best of the blocks before it.
    """
    top, Q = quantizers[0].top, quantizers[0].Q
    per_point = Q * len(quantizers) + (top + 2) ** 2
    n_points = max(1, _CELLS // per_point)
    n_quants = len(quantizers) if n_points > 1 else max(1, _CELLS // Q)
    edges = np.array([quant.edges for quant in quantizers])
    points = iter(points)
    while block := list(islice(points, n_points)):
        pts = [tuple(w / scale for w in weights) for weights in block]
        for k0 in range(0, len(quantizers), n_quants):
            table = _objective_table(pts, d, edges[k0:k0 + n_quants])
            at = int(np.argmax(table))
            if table.flat[at] > best[0]:
                p, k = divmod(at, table.shape[1])
                best = (table.flat[at], quantizers[k0 + k], pts[p], block[p])
    return best


def capacity_search(
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
    by construction. The result is the first strict maximum over the grid
    points in lexicographic order and then, with refine, over the 21^(q-1)
    refine points around the best grid point (offsets -10..10 at a ten
    times finer step, lexicographic), with the quantizers of each point in
    boundary order. The budget bounds the objective evaluations: every
    quantizer at every grid and refine point. Q must be at least 2: a
    one-region quantizer carries no information.
    """
    for name, value in (("d", d), ("q", q), ("Q", Q)):
        _check_integer(name, value)
    if d < 1 or q < 2 or Q < 2:
        raise BadRange(f"need d >= 1, q >= 2, Q >= 2, got {d}, {q}, {Q}")
    top = (q - 1) * d
    if Q > top + 1:
        raise BadPartition(f"cannot split 0..{top} into {Q} nonempty regions")
    _check_real("grid_step", grid_step)
    resolution = round(1.0 / grid_step) if grid_step > 0 and 1.0 / grid_step < inf else 0
    if resolution < 1:
        raise BadRange(f"grid_step must be positive with round(1/grid_step) >= 1, got {grid_step}")
    # a binomial's smaller index or an exponent capped at c leaves a count
    # exact below 2^c and at least 2^c, more than budget, otherwise
    fine, c = 10, max(int(budget).bit_length(), 64)
    n_grid = comb(resolution + q - 1, min(q - 1, resolution, c))
    n_points = n_grid + ((2 * fine + 1) ** min(q - 1, c) if refine else 0)
    n_quants = comb(top, min(Q - 1, top - Q + 1, c))
    if n_points * n_quants > budget:
        points, quants = (x if x < 2**c else f"at least 2^{c}" for x in (n_points, n_quants))
        raise BudgetExceeded(
            f"{points} grid and refine points x {quants} quantizers "
            f"exceed budget {budget}"
        )
    quantizers = [
        Quantizer((0,) + cuts + (top + 1,))
        for cuts in combinations(range(1, top + 1), Q - 1)
    ]
    best = _scan((-1.0, None, None, None), _compositions(resolution, q), resolution, d, quantizers)
    if refine:
        scale = resolution * fine
        heads = product(*(range(fine * w - fine, fine * w + fine + 1) for w in best[3][:-1]))
        points = ((*h, scale - sum(h)) for h in heads)
        best = _scan(best, (w for w in points if min(w) >= 0), scale, d, quantizers)
    bits, quant, pt, _ = best
    return pt, quant, bits


def _bound(n: int, d: int, pt, quant: Quantizer, numerator) -> float:
    for name, value in (("n", n), ("d", d)):
        _check_integer(name, value)
    if n < d or d < 1:
        raise BadRange(f"need n >= d >= 1, got n={n}, d={d}")
    worst = 0.0
    for i in range(1, d + 1):
        num = numerator(i)
        if num == 0.0:
            continue
        info = mutual_information(pt, d, i, quant)
        worst = max(worst, num / info if info > 0 else inf)
    return worst


def sufficient_tests(n: int, d: int, pt, quant: Quantizer) -> float:
    """Test count above which random designs succeed with vanishing error."""
    return _bound(n, d, pt, quant, lambda i: log2(comb(n - d, i) * comb(d, i)) if comb(n - d, i) * comb(d, i) > 1 else 0.0)


def necessary_tests(n: int, d: int, pt, quant: Quantizer) -> float:
    """Test count below which every design has error bounded away from zero."""
    return _bound(n, d, pt, quant, lambda i: log2(comb(n - d + i, i)) if comb(n - d + i, i) > 1 else 0.0)


def td_rate_denominator(d: int, eta_t: int) -> float:
    """Rate denominator of probabilistically built single-threshold codes;
    increasing in the threshold, so the smallest threshold wins."""
    for name, value in (("d", d), ("eta_t", eta_t)):
        _check_integer(name, value)
    if not 2 <= eta_t <= d:
        raise BadEta(f"need 2 <= eta_t <= d, got eta_t={eta_t}, d={d}")
    try:
        value = (d // eta_t).bit_length() * (d - 1) / (eta_t - 1) * float(8 * eta_t) ** eta_t
    except OverflowError:
        value = inf
    if value == inf:
        raise Overflow(f"rate denominator overflows at d={d}, eta_t={eta_t}")
    return value
