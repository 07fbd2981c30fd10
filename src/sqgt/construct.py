"""Code constructions for the quantized-adder testing model.

Each constructor returns a test matrix together with the bracket parameters
it claims (so the verify module can certify the claim); concat_disjunct
returns them inside its ConcatSpec. Scaling constructions accept arbitrary
thresholds; the concatenation, number-theoretic, and recursive constructions
assume the equidistant model and take a scalar threshold step.

The decoders of the concatenated and recursive codes take the code and its
bracket, like every other decoder, and read the block structure off the
scaled matrix under that bracket, so a code read back from a file decodes
exactly like the code just built. concat_spec is the one reader of the
concatenation's block scales. concat_separable is an alias of
concat_disjunct: the concatenation does not depend on the base's property.

Probabilistic constructors take an explicit seed and an optional row-count
override or multiplier; their row-count formulas use natural logarithms and
only guarantee the claimed property asymptotically.
"""

from dataclasses import dataclass
from math import ceil, comb, factorial, inf, isfinite, log

import numpy as np

from .errors import (
    AlphabetTooSmall,
    BadDistribution,
    BadKappa,
    BadRange,
    BadThreshold,
    InconsistentSpec,
    NotPrime,
    Overflow,
)
from .model import MAX_CELLS, CodeParams, _check_integer, _check_real, _check_thresholds, _equidistant_Q, check_matrix
from .rng import make_rng

__all__ = [
    "ConcatSpec",
    "concat_spec",
    "scale_disjunct",
    "scale_separable",
    "row_success_prob",
    "optimize_p0",
    "ratio_vs_single_level",
    "ratio_vs_single_level_limit",
    "random_disjunct",
    "reduce_alphabet",
    "concat_disjunct",
    "concat_separable",
    "bose_chowla",
    "sidon_set_exhaustive",
    "smallest_prime_at_least",
    "bose_chowla_code",
    "binary_row_success_bound",
    "random_binary_separable",
    "lindstrom",
    "ordered_subsets",
]


# ---------------------------------------------------------------------------
# scaling constructions (arbitrary thresholds)
# ---------------------------------------------------------------------------

def _step_levels(q: int, eta_step: int) -> int:
    """How many nonzero multiples of the threshold step lie in 0..q-1;
    BadRange for a size that is not an integer or a step below 1,
    AlphabetTooSmall when there are none."""
    for name, value in (("q", q), ("eta step", eta_step)):
        _check_integer(name, value)
    if eta_step < 1:
        raise BadRange(f"eta step must be >= 1, got {eta_step}")
    levels = (q - 1) // eta_step
    if levels < 1:
        raise AlphabetTooSmall(f"need q-1 >= eta_step, got q-1={q - 1}, step={eta_step}")
    return levels


MAX_FIELD = 2**20  # L^d cap of bose_chowla, whose field walk is linear in L^d


def _rows_per_block(rows, n: int, blocks: int = 1) -> int:
    """Rows per block, rounded up and at least one, of `blocks` blocks that
    hold `rows` rows in all; rows may be a formula's float, inf included.
    BadRange when the blocks would pass MAX_CELLS cells of n columns."""
    if not rows <= MAX_CELLS // (blocks * n) * blocks:
        raise BadRange(f"{rows:.6g} rows x n={n} columns exceed {MAX_CELLS} matrix cells")
    return -(-max(blocks, ceil(rows)) // blocks)


def _check_rows(m: int | None, m_multiplier: float, delta: float) -> None:
    """Refuse an explicit row count that is not an integer >= 1, a
    multiplier that is not a positive finite number and a delta that is not
    a finite number >= 0."""
    if m is not None:
        _check_integer("m", m)
        if m < 1:
            raise BadRange(f"m must be >= 1, got {m}")
    _check_real("m_multiplier", m_multiplier)
    _check_real("delta", delta)
    if not 0 < m_multiplier < inf:
        raise BadRange(f"m_multiplier must be positive and finite, got {m_multiplier}")
    if not 0 <= delta < inf:
        raise BadRange(f"delta must be finite and >= 0, got {delta}")


def scale_separable(base, d: int, e: int, q: int, eta, base_kind: str = "cgt") -> tuple[np.ndarray, CodeParams]:
    """Scale a binary d-separable code by q-1; the result is SQ-separable.

    base_kind is "cgt" (Boolean-sum separable base, arbitrary thresholds) or
    "qgt" (arithmetic-sum separable base, which requires the equidistant
    model with q-1 a multiple of the step).
    """
    eta = tuple(eta)
    if base_kind not in ("cgt", "qgt"):
        raise BadRange(f"base_kind must be 'cgt' or 'qgt', got {base_kind!r}")
    base = check_matrix(base, 2)
    if len(eta) > 1 and q - 1 < eta[1]:  # CodeParams refuses fewer thresholds
        raise AlphabetTooSmall(f"need q-1 >= eta_1, got q-1={q - 1}, eta_1={eta[1]}")
    params = CodeParams(q=q, Q=len(eta) - 1, eta=eta, l=1, u=d, e=e)
    if base_kind == "qgt" and (q - 1) % (step := params.step):
        raise AlphabetTooSmall(f"q-1={q - 1} must be a multiple of the step {step} for a qgt base")
    return (q - 1) * base, params


def scale_disjunct(base, d: int, e: int, q: int, eta) -> tuple[np.ndarray, CodeParams]:
    """Scale a binary d-disjunct code by q-1; the result is SQ-disjunct.

    The computation is scale_separable's with a "cgt" base."""
    return scale_separable(base, d, e, q, eta, base_kind="cgt")


# ---------------------------------------------------------------------------
# random multi-level construction and its row-success analysis
# ---------------------------------------------------------------------------

def row_success_prob(d: int, levels: int, p0: float) -> float:
    """Probability that one random row isolates a fixed pivot column.

    Entries are 0 with probability p0 and each of `levels` nonzero values
    with probability (1-p0)/levels; success means the pivot entry strictly
    exceeds the sum of d other entries in the row.
    """
    for name, value in (("d", d), ("levels", levels)):
        _check_integer(name, value)
    _check_real("p0", p0)
    if d < 1 or levels < 1:
        raise BadRange(f"need d >= 1 and levels >= 1, got d={d}, levels={levels}")
    if not 0.0 < p0 < 1.0:
        raise BadDistribution(f"p0 must lie in (0, 1), got {p0}")
    head = (1 - p0) * p0**d
    # comb(levels, d - k + 1) is 0 below k = d + 1 - levels, where the power
    # alone could overflow; skipping those zero terms leaves the sum's bits
    try:
        tail = sum(
            comb(d, k) * (p0 * levels / (1 - p0)) ** k * comb(levels, d - k + 1)
            for k in range(max(0, d + 1 - levels), d)
        )
        prob = head + (1 - p0) ** (d + 1) * levels ** -(d + 1) * tail
    except OverflowError:
        prob = inf
    if not isfinite(prob):
        raise Overflow(f"row success probability overflows at d={d}, levels={levels}, p0={p0}")
    return prob


def optimize_p0(d: int, levels: int, step: float = 1e-3) -> tuple[float, float]:
    """Grid-maximize row_success_prob over p0; returns (p0, probability)."""
    _check_real("step", step)
    if not 0.0 < step < 1.0:
        raise BadRange(f"step must lie in (0, 1), got {step}")
    grid = np.arange(step, 1.0, step)
    vals = [row_success_prob(d, levels, p) for p in grid]
    i = int(np.argmax(vals))
    best_p, best_v = float(grid[i]), vals[i]
    fine = np.arange(max(step / 10, best_p - step), min(1.0 - step / 10, best_p + step), step / 10)
    for p in fine:
        v = row_success_prob(d, levels, float(p))
        if v > best_v:
            best_p, best_v = float(p), v
    return best_p, best_v


def ratio_vs_single_level(d: int, levels: int) -> float:
    """Asymptotic test-count ratio (single level over `levels` levels) at p0 = d/(d+1)."""
    for name, value in (("d", d), ("levels", levels)):
        _check_integer(name, value)
    if d < 1 or levels < 1:
        raise BadRange(f"need d >= 1 and levels >= 1, got d={d}, levels={levels}")
    return 1.0 + sum(
        comb(d, j) * comb(levels, j + 1) / (levels ** (j + 1) * d**j)
        for j in range(1, min(levels - 1, d) + 1)
    )


def ratio_vs_single_level_limit(levels: int) -> float:
    """Large-d limit of ratio_vs_single_level, in exact integer quotients."""
    _check_integer("levels", levels)
    if levels < 1:
        raise BadRange(f"need levels >= 1, got {levels}")
    total = 1.0
    # the term of j is at most 1 / (j! (j-1)!), which from j = 103 on is
    # below 2^-1076 and rounds to 0.0: left out, the sum keeps its bits
    for j in range(min(levels, 102), 1, -1):
        total += comb(levels, j) / (levels**j * factorial(j - 1))
    return total


def random_disjunct(
    n: int,
    d: int,
    levels: int,
    eta_step: int,
    e: int = 0,
    p0: float | None = None,
    delta: float = 1.0,
    seed: int = 0,
    q: int | None = None,
    m: int | None = None,
    m_multiplier: float = 1.0,
) -> tuple[np.ndarray, CodeParams]:
    """I.i.d. code over {0, step, ..., levels*step}, claimed SQ-disjunct (1:d).

    The row count follows the union-bound formulas (natural log) unless m is
    given explicitly; m_multiplier adds finite-size headroom on top.
    """
    for name, value in (("n", n), ("d", d), ("levels", levels), ("eta step", eta_step)):  # CodeParams checks q
        _check_integer(name, value)
    if n <= d or d < 1:
        raise BadRange(f"need n > d >= 1, got n={n}, d={d}")
    _check_rows(m, m_multiplier, delta)
    if levels < 1:
        raise BadRange(f"need at least one nonzero level, got {levels}")
    if q is None:
        q = levels * eta_step + 1
    if levels * eta_step > q - 1:
        raise AlphabetTooSmall(
            f"largest level {levels * eta_step} exceeds q-1={q - 1}"
        )
    if p0 is None:
        p0 = d / (d + 1)
    _check_real("p0", p0)
    if not 0 < p0 < 1:
        raise BadDistribution(f"p0 must lie in (0, 1), got {p0}")
    if m is None:
        pi = row_success_prob(d, levels, p0)
        if e > 0:
            rows = (2 * (d + 1) / pi + delta) * log(n / d) + 4 * e / pi
        else:
            rows = ((d + 1) / pi + delta) * log(n / d)
        m = rows * m_multiplier
    params = CodeParams.equidistant(q, eta_step, 1, d, e)
    m = _rows_per_block(m, n)
    rng = make_rng(seed)
    symbols = rng.choice(levels + 1, size=(m, n), p=[p0] + [(1 - p0) / levels] * levels)
    C = symbols.astype(np.int64) * eta_step
    return C, params


def reduce_alphabet(C, eta_step: int) -> np.ndarray:
    """Round entries down to multiples of the step; preserves disjunctness."""
    _check_integer("eta step", eta_step)
    if eta_step < 1:
        raise BadRange(f"eta step must be >= 1, got {eta_step}")
    C = check_matrix(C)
    return (C // eta_step) * eta_step


# ---------------------------------------------------------------------------
# concatenation of scaled binary blocks (equidistant thresholds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConcatSpec:
    """Metadata for a code built as [s_1*B, ..., s_K*B]; d and e are params.u, params.e."""

    scales: tuple[int, ...]
    params: CodeParams


def _concat_multipliers(d: int, levels: int):
    """The block multipliers 1 + d + ... + d^(j-1) up to levels, for d >= 1;
    at d = 1 the range 1..levels, whose length is known before it is built."""
    if d == 1:
        return range(1, levels + 1)
    multipliers = []
    g = 1  # 1 + d + ... + d^(j-1)
    while g <= levels:
        multipliers.append(g)
        g = g * d + 1
    return multipliers


def concat_spec(C, params: CodeParams) -> ConcatSpec:
    """Block structure of a scaled-block concatenation, read off its matrix.

    The scales step * (1 + d + ... + d^(j-1)) up to q-1, at d = 1 every
    multiple of the step, follow from the bracket's q, d = u and step.
    InconsistentSpec is raised unless C is exactly [s_1*B, ..., s_K*B] for
    a binary B, the first block divided by its scale.
    """
    C = check_matrix(C, params.q)
    step = params.step
    scales = tuple(step * g for g in _concat_multipliers(params.u, _step_levels(params.q, step)))
    m, n = C.shape
    if n % len(scales):
        raise InconsistentSpec(f"n={n} is not divisible by the {len(scales)} blocks")
    base = C[:, : n // len(scales)] // scales[0]
    if base.max() > 1 or not np.array_equal(C.reshape(m, len(scales), -1), _scaled_blocks(base, scales)):
        raise InconsistentSpec("code is not a scaled-block concatenation for these parameters")
    return ConcatSpec(scales=scales, params=params)


def _scaled_blocks(base: np.ndarray, scales: tuple[int, ...]) -> np.ndarray:
    """The blocks s_j * base side by side, as an (m, K, nb) array."""
    return base[:, None] * np.array(scales)[:, None]


def concat_disjunct(base, d: int, e: int, q: int, eta_step: int) -> tuple[np.ndarray, ConcatSpec]:
    """Concatenate scaled copies of a binary d-disjunct code.

    Block j is scaled by eta*(d^j - 1)/(d - 1); the result is SQ-separable
    for 1..d defectives and decodes block by block with the disjunct
    counting decoder. BadRange is raised for a Q above the bracket's cap,
    and then for a code of more than MAX_CELLS cells, before the bracket's
    thresholds or any block scale is built.
    """
    base = check_matrix(base, 2)
    _check_integer("d", d)
    if d < 1:
        raise BadRange(f"need d >= 1, got {d}")
    levels = _step_levels(q, eta_step)  # its AlphabetTooSmall comes before any BadRange
    _equidistant_Q(q, eta_step, d)
    multipliers = _concat_multipliers(d, levels)
    if base.size * len(multipliers) > MAX_CELLS:
        raise BadRange(f"{len(multipliers)} blocks x {base.size} base cells exceed {MAX_CELLS} matrix cells")
    params = CodeParams.equidistant(q, eta_step, 1, d, e)
    scales = tuple(eta_step * g for g in multipliers)
    return _scaled_blocks(base, scales).reshape(len(base), -1), ConcatSpec(scales=scales, params=params)


# The same concatenation applied to a binary d-separable base code.
concat_separable = concat_disjunct


# ---------------------------------------------------------------------------
# number-theoretic construction (distinct d-sums via finite-field logs)
# ---------------------------------------------------------------------------

def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    """The lowest `width` base-`base` digits of value, least significant first."""
    out = []
    for _ in range(width):
        value, digit = divmod(value, base)
        out.append(digit)
    return tuple(out)


def _prime_factors(x: int) -> list[int]:
    """The distinct prime factors of x, increasing; x is prime iff this is [x]."""
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


def smallest_prime_at_least(n: int) -> int:
    _check_integer("n", n)
    p = max(2, n)
    while _prime_factors(p) != [p]:
        p += 1
    return p


def _poly_mul_mod(a, b, f, L):
    d = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % L
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] = (prod[i - d + j] - c * f[j]) % L
    prod = prod[:d] + [0] * (d - len(prod))
    return tuple(prod[:d])


def _poly_pow_mod(base, exp, f, L):
    result = _digits(1, L, len(f) - 1)
    cur = tuple(base)
    while exp:
        if exp & 1:
            result = _poly_mul_mod(result, cur, f, L)
        cur = _poly_mul_mod(cur, cur, f, L)
        exp >>= 1
    return result


def _find_irreducible(L, d):
    """The first monic irreducible x^d + ... over GF(L) whose low-order
    coefficients are the base-L digits of 1, 2, ... with a nonzero constant.
    f is reducible iff a monic g of degree 1..d//2 divides it, that is iff
    the remainder f mod g = _poly_mul_mod(f, (1,), g, L) is all zero."""
    for code in range(1, L**d):
        low = _digits(code, L, d)
        if low[0] == 0:
            continue
        f = low + (1,)
        divisors = (
            _digits(c, L, k) + (1,) for k in range(1, d // 2 + 1) for c in range(L**k)
        )
        if all(any(_poly_mul_mod(f, (1,), g, L)) for g in divisors):
            return f
    raise NotPrime(f"no irreducible polynomial of degree {d} found over GF({L})")


def bose_chowla(L: int, d: int) -> tuple[int, ...]:
    """L nonzero integers below L^d whose d-element multiset sums are
    pairwise distinct modulo L^d - 1.

    Realized through discrete logarithms in GF(L^d): with a primitive
    element t, the logs of t+a over all a in GF(L) have the property. L must
    be prime. The field is GF(L)[x] modulo _find_irreducible(L, d), and t is
    its first primitive element in the same digit order, starting at x.
    """
    for name, value in (("L", L), ("d", d)):
        _check_integer(name, value)
    if d < 2:
        raise BadRange(f"need d >= 2, got {d}")
    if _prime_factors(L) != [L]:
        raise NotPrime(f"{L} is not prime")
    if d >= 63 or L**d - 1 > 2**62:  # L >= 2, so L^d - 1 > 2^62 from d = 63
        raise Overflow(f"L^d = {L}^{d} exceeds the safe integer range")
    if L**d > MAX_FIELD:
        raise Overflow(f"L^d = {L}^{d} = {L**d} exceeds the field walk cap {MAX_FIELD}")
    f = _find_irreducible(L, d)
    order = L**d - 1
    prime_parts = _prime_factors(order)
    one = _digits(1, L, d)
    for code in range(L, L**d):  # skip constants, start at x
        theta = _digits(code, L, d)
        if all(_poly_pow_mod(theta, order // p, f, L) != one for p in prime_parts):
            break
    else:
        raise NotPrime(f"no primitive element found in GF({L}^{d})")

    # walk powers of theta; collect exponents of elements theta + a, a in GF(L)
    targets = {}
    for a in range(L):
        shifted = (theta[0] + a) % L
        targets[(shifted,) + theta[1:]] = a
    logs = []
    power = theta
    for i in range(1, order + 1):
        if power in targets:
            logs.append(i)
            if len(logs) == L:
                break
        power = _poly_mul_mod(power, theta, f, L)
    if len(logs) != L:
        raise NotPrime(f"discrete-log walk failed in GF({L}^{d})")
    return tuple(sorted(logs))


def sidon_set_exhaustive(L: int, d: int) -> tuple[int, ...]:
    """Backtracking fallback oracle for small L: the lexicographically first
    L-element subset of 1..L^d-1 with distinct d-element multiset sums
    modulo L^d - 1."""
    from itertools import combinations_with_replacement

    for name, value in (("L", L), ("d", d)):
        _check_integer(name, value)
    if L > 16:
        raise BadRange(f"exhaustive search is desk-scale only (L <= 16), got {L}")
    mod = L**d - 1

    def sums_ok(chosen):
        seen = set()
        for combo in combinations_with_replacement(chosen, d):
            s = sum(combo) % mod
            if s in seen:
                return False
            seen.add(s)
        return True

    def extend(chosen, start):
        if len(chosen) == L:
            return chosen
        for x in range(start, L**d):
            cand = chosen + [x]
            if sums_ok(cand):
                hit = extend(cand, x + 1)
                if hit:
                    return hit
        return None

    found = extend([], 1)
    if found is None:
        raise BadRange(f"no Sidon-type set of size {L} found for d={d}")
    return tuple(found)


def bose_chowla_code(n: int, d: int, q: int, eta_step: int) -> tuple[np.ndarray, CodeParams]:
    """Code whose columns are scaled base-q' digit vectors of a distinct
    d-sum integer set; claimed SQ-separable for exactly d defectives."""
    for name, value in (("n", n), ("d", d)):
        _check_integer(name, value)
    if n < 2:
        raise BadRange(f"need n >= 2, got {n}")
    q_prime = _step_levels(q, eta_step) + 1
    L = smallest_prime_at_least(n)
    integers = bose_chowla(L, d)[:n]
    m = 0
    reach = 1
    while reach < L**d:
        reach *= q_prime
        m += 1
    C = np.column_stack([_digits(val, q_prime, m) for val in integers])
    params = CodeParams.equidistant(q, eta_step, d, d, 0)
    return eta_step * C, params


# ---------------------------------------------------------------------------
# random binary construction for lower-bounded defective counts
# ---------------------------------------------------------------------------

def _floor_log2_ratio(a: int, b: int) -> int:
    """Largest k >= 0 with b * 2^k <= a (requires a >= b >= 1)."""
    if b < 1 or a < b:
        raise BadRange(f"need a >= b >= 1, got a={a}, b={b}")
    return (a // b).bit_length() - 1  # b * 2^k <= a iff 2^k <= a // b


def binary_row_success_bound(d: int, eta, alpha: int) -> float:
    """Lower bound on the per-row success probability of the stacked binary
    construction; depends on the first alpha thresholds."""
    eta = tuple(eta)
    for name, value in (("d", d), ("alpha", alpha)):
        _check_integer(name, value)
    if not 1 <= alpha < len(eta):
        raise BadRange(f"alpha must index a threshold, got {alpha}")
    _check_thresholds(eta)
    if eta[1] < 2:
        raise BadThreshold(f"the bound needs eta_1 >= 2, got {eta[1]}")
    if d < 2 or eta[alpha] > d:
        raise BadRange(f"need 2 <= eta_alpha <= d, got eta_alpha={eta[alpha]}, d={d}")
    mu = (1 - 1 / eta[alpha]) / 8
    return 0.5 * sum(
        (mu / (eta[b] - 1)) ** eta[b] * (eta[b] - 1) / (d - 1)
        for b in range(1, alpha + 1)
    )


def random_binary_separable(
    n: int,
    d: int,
    eta,
    alpha: int,
    e: int = 0,
    delta: float = 1.0,
    seed: int = 0,
    m: int | None = None,
    m_multiplier: float = 1.0,
) -> tuple[np.ndarray, CodeParams]:
    """Stacked Bernoulli binary code, claimed SQ-separable for eta_alpha..d
    defectives. Block i of the stack has density 1 / (2^(i+2) * eta_alpha)."""
    eta = tuple(eta)
    _check_integer("n", n)
    if d > n // 2:
        raise BadRange(f"construction assumes d <= n/2, got d={d}, n={n}")
    _check_rows(m, m_multiplier, delta)
    rho = binary_row_success_bound(d, eta, alpha)
    r = _floor_log2_ratio(d, eta[alpha]) + 1
    densities = [1.0 / (2 ** (i + 2) * eta[alpha]) for i in range(1, r + 1)]
    if m is None:
        if e > 0:
            rows = r * ((4 * d / rho + delta) * log(n / d) + 4 * e / rho)
        else:
            rows = r * (2 * d / rho + delta) * log(n / d)
        m = rows * m_multiplier
    params = CodeParams(q=2, Q=len(eta) - 1, eta=eta, l=eta[alpha], u=d, e=e)
    per_block = _rows_per_block(m, n, blocks=r)
    rng = make_rng(seed)
    blocks = [
        (rng.random((per_block, n)) < p).astype(np.int64) for p in densities
    ]
    C = np.vstack(blocks)
    return C, params


# ---------------------------------------------------------------------------
# recursive construction for arbitrary defective counts
# ---------------------------------------------------------------------------

def ordered_subsets(kappa: int) -> np.ndarray:
    """Nonempty subsets of {1..kappa} as int64 bit masks (element x is bit
    x-1), ordered by size, then by value: among sets of one size that is
    colexicographic order."""
    _check_integer("kappa", kappa)
    return np.array(sorted(range(1, 2**kappa), key=lambda S: (S.bit_count(), S)), dtype=np.int64)


def _parity(masks: np.ndarray) -> np.ndarray:
    """1 where a mask has an odd number of set bits, else 0."""
    for shift in (32, 16, 8, 4, 2, 1):
        masks = masks ^ (masks >> shift)
    return masks & 1


def lindstrom(
    kappa: int,
    q: int,
    eta_step: int,
    n: int | None = None,
    chains: dict[int, list] | None = None,
) -> tuple[np.ndarray, CodeParams]:
    """Recursive block code identifying any number of defectives up to n.

    One block and one row per nonempty subset of {1..kappa}, labeled by bit
    mask in ordered_subsets order: the first q2+1 columns of block i carry
    the value 2^(q2-k+1) on rows whose label has odd overlap with the block
    label, and each later column thins the previous one through a shrinking
    gate set. chains optionally overrides the gate sets for selected blocks
    (1-based block index to list of element iterables); the default drops
    the largest element at each step. Truncation to n columns drops from
    the right. The full code is built first, so BadKappa is raised before
    any block when it would exceed MAX_CELLS cells.
    """
    _check_integer("kappa", kappa)
    if n is not None:
        _check_integer("n", n)
    if kappa < 1:
        raise BadKappa(f"need kappa >= 1, got {kappa}")
    q2 = _floor_log2_ratio(_step_levels(q, eta_step), 1)
    # the full code has m = 2^kappa - 1 rows and m*q2 + kappa*2^(kappa-1)
    # columns (q2 + |S| per block S). The count grows with kappa, and m
    # alone passes the cap at k, so a larger kappa is counted as k and
    # 2^kappa is never formed.
    k = min(kappa, MAX_CELLS.bit_length() + 1)
    if (2**k - 1) * ((2**k - 1) * q2 + k * 2 ** (k - 1)) > MAX_CELLS:
        raise BadKappa(f"kappa={kappa} builds more than {MAX_CELLS} matrix cells")
    labels = ordered_subsets(kappa)

    blocks = []
    for i, S in enumerate(labels.tolist(), start=1):
        size = S.bit_count()
        gates, T = [S], S
        if chains and i in chains:
            given = [frozenset(int(x) for x in elements) for elements in chains[i]]
            expected = [size - k for k in range(1, size)]
            if [len(elements) for elements in given] != expected:
                raise BadRange(f"chain for block {i} must have set sizes {expected}")
            for elements in given:  # the sizes fall, so nesting is containment
                if not all(1 <= x <= kappa and (T >> (x - 1)) & 1 for x in elements):
                    raise BadRange(f"chain sets for block {i} must strictly nest")
                T = sum(1 << (x - 1) for x in elements)
                gates.append(T)
        else:  # clear the top bit of the previous set
            while T & (T - 1):  # more than one element
                T ^= 1 << (T.bit_length() - 1)
                gates.append(T)
        # row r of gated column j: odd overlap of label r with each of gates[:j+1]
        gated = np.bitwise_and.accumulate(_parity(labels[:, None] & gates), axis=1)
        blocks.append(np.hstack((gated[:, :1] << np.arange(q2, 0, -1), gated)))

    full = np.hstack(blocks)
    total = full.shape[1]
    if n is None:
        n = total
    if not 1 <= n <= total:
        raise BadRange(f"n must lie in 1..{total}, got {n}")
    C = eta_step * full[:, :n]
    return C, CodeParams.equidistant(q, eta_step, 1, n, 0)
