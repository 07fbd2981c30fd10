"""Two earlier belief-propagation kernels, kept verbatim for tests only.

reference_bp_decode_batch is the trial-major loop that stood before the
sum-major kernel; factor_bp_decode_batch is the sum-major kernel as it
stood before factors ran in blocks, one factor at a time (fast at many
trials, unlike the trial-major loop). The current kernel must reproduce
their marginals bit for bit, so every test that compares them uses
np.array_equal, not a tolerance. exhaustive_posterior is the exact
posterior that BP must reach on the trees random_tree draws.
"""

from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from sqgt.decode import BpConfig, Marginals, _check_results
from sqgt.errors import BadRange, NumericalUnderflow
from sqgt.model import CodeParams, NoiseModel, check_matrix, validate_params

from channel_reference import channel_matrix

_MSG_FLOOR = 1e-300
_VAR_FLOOR = 1e-12


def _conv_forward(dist: np.ndarray, v0: np.ndarray, v1: np.ndarray, c: int) -> np.ndarray:
    """Distribution of (partial sum + c * w) for one more neighbor."""
    out = dist * v0[:, None]
    if c:
        out[:, c:] += dist[:, :-c] * v1[:, None]
    else:
        out += dist * v1[:, None]
    return out


def _value_backward(val: np.ndarray, v0: np.ndarray, v1: np.ndarray, c: int) -> np.ndarray:
    """Expected downstream weight after absorbing one more neighbor."""
    out = val * v0[:, None]
    if c:
        out[:, : val.shape[1] - c] += val[:, c:] * v1[:, None]
    else:
        out += val * v1[:, None]
    return out


def reference_bp_decode_batch(
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

    Returns Marginals with p1 of shape (trials, n).
    """
    validate_params(params)
    C = check_matrix(C, params.q)
    Z = np.asarray(Z, dtype=np.int64)
    if Z.ndim != 2 or Z.shape[1] != C.shape[0]:
        raise BadRange(f"Z must be (trials, m={C.shape[0]}), got {Z.shape}")
    if Z.size and (Z.min() < 0 or Z.max() > params.Q - 1):
        raise BadRange(f"results must lie in 0..{params.Q - 1}")
    m, n = C.shape
    T = Z.shape[0]
    if d is None:
        d = params.u
    p_prior = cfg.prior if cfg.prior is not None else d / n
    if not 0.0 < p_prior < 1.0:
        raise BadRange(f"defect prior must lie in (0, 1), got {p_prior}")
    log_prior = np.log(np.array([1.0 - p_prior, p_prior]))

    trans = channel_matrix(params.Q, noise)  # [y, z]
    eta = np.asarray(params.eta, dtype=np.int64)

    nbr = [np.nonzero(C[t] > 0)[0] for t in range(m)]
    coeffs = [C[t, nbr[t]] for t in range(m)]
    efac = np.concatenate([np.full(len(nbr[t]), t) for t in range(m)]) if m else np.empty(0, int)
    evar = np.concatenate(nbr) if m else np.empty(0, dtype=np.int64)
    E = len(evar)
    starts = np.zeros(m + 1, dtype=np.int64)
    for t in range(m):
        starts[t + 1] = starts[t] + len(nbr[t])

    # per-factor likelihood of each reachable partial sum, fixed across iterations
    weights = []
    for t in range(m):
        S = int(coeffs[t].sum())
        buckets = np.searchsorted(eta, np.arange(S + 1), side="right") - 1
        valid = np.arange(S + 1) < eta[-1]
        w = np.zeros((T, S + 1))
        w[:, valid] = trans[buckets[valid]][:, Z[:, t]].T
        weights.append(w)

    V = np.full((T, E, 2), 0.5)
    F = np.full((T, E, 2), 0.5)
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        F_new = np.empty_like(F)
        for t in range(m):
            lo, hi = int(starts[t]), int(starts[t + 1])
            k = hi - lo
            if k == 0:
                continue
            ct = coeffs[t]
            w = weights[t]
            S = w.shape[1] - 1
            Vt = V[:, lo:hi, :]
            # forward-backward over the neighbor chain: prefix[a] is the
            # partial-sum distribution of neighbors < a, back[a] the expected
            # likelihood over neighbors > a as a function of the partial sum
            prefix = np.zeros((T, S + 1))
            prefix[:, 0] = 1.0
            prefixes = [prefix]
            for b in range(k - 1):
                prefixes.append(
                    _conv_forward(prefixes[-1], Vt[:, b, 0], Vt[:, b, 1], int(ct[b]))
                )
            back = w
            backs = [back]
            for b in range(k - 1, 0, -1):
                backs.append(_value_backward(backs[-1], Vt[:, b, 0], Vt[:, b, 1], int(ct[b])))
            backs.reverse()
            for a in range(k):
                combined = prefixes[a] * backs[a]
                ca = int(ct[a])
                msg0 = combined.sum(axis=1)
                msg1 = (prefixes[a][:, : S + 1 - ca] * backs[a][:, ca:]).sum(axis=1)
                F_new[:, lo + a, 0] = msg0
                F_new[:, lo + a, 1] = msg1
        norm = F_new.sum(axis=2)
        if np.any(norm == 0.0):
            raise NumericalUnderflow("a factor message lost all probability mass")
        F_new /= norm[:, :, None]
        F = cfg.damping * F + (1.0 - cfg.damping) * F_new if cfg.damping else F_new

        logF = np.log(np.maximum(F, _MSG_FLOOR))
        acc = np.zeros((n, T, 2))
        np.add.at(acc, evar, logF.transpose(1, 0, 2))
        SV = acc.transpose(1, 0, 2)  # (T, n, 2) sums of incoming logs per variable
        V_log = log_prior + SV[:, evar, :] - logF
        V_log -= V_log.max(axis=2, keepdims=True)
        V_new = np.exp(V_log)
        V_new /= V_new.sum(axis=2, keepdims=True)
        np.clip(V_new, _VAR_FLOOR, None, out=V_new)
        V_new /= V_new.sum(axis=2, keepdims=True)
        delta = np.abs(V_new - V).max() if E else 0.0
        V = V_new
        if cfg.tol is not None and delta < cfg.tol:
            break

    logF = np.log(np.maximum(F, _MSG_FLOOR))
    acc = np.zeros((n, T, 2))
    np.add.at(acc, evar, logF.transpose(1, 0, 2))
    marg_log = log_prior + acc.transpose(1, 0, 2)
    marg_log -= marg_log.max(axis=2, keepdims=True)
    marg = np.exp(marg_log)
    marg /= marg.sum(axis=2, keepdims=True)
    return Marginals(p1=marg[:, :, 1], iterations=iterations)


# ---------------------------------------------------------------------------
# the sum-major kernel, one factor at a time
# ---------------------------------------------------------------------------

def _sum_plan(rows: list[tuple[int, int, int]], g: int, sentinel: int):
    """Lay out the sums of P[p + j] * B[b + j] over the first r lattice
    points of each row (p, b, r) so that they add in numpy's float64 order.

    numpy sums a contiguous row of n = g*(r-1) + 1 entries (zeros between
    the lattice points) as follows: fewer than 8 entries in sequence; up to
    128 with eight stride-8 accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the n % 8 tail in sequence;
    more than 128 by splitting at n//2 rounded down to a multiple of 8 and
    adding the two halves' sums. Zeros add exactly, so each leaf of at most
    128 entries becomes one gather row: its full blocks (only the lanes at
    multiples of g), zero blocks up to the longest leaf's count, a slot for
    the combined accumulators, then its tail. A leaf of fewer than 8
    entries is all tail after a zero accumulator.
    """
    tree: list[list] = [[]]  # tree[h]: nodes of height h; leaves (p, b, n) at 0

    def split(p, b, n):
        if n <= 128:
            tree[0].append((p, b, n))
            return 0, len(tree[0]) - 1
        h = n // 2
        h -= h % 8
        left = split(p, b, h)
        right = split(p + h // g, b + h // g, n - h)
        height = 1 + max(left[0], right[0])
        if height == len(tree):
            tree.append([])
        tree[height].append((left, right))
        return height, len(tree[height]) - 1

    roots = [split(p, b, g * (r - 1) + 1) for p, b, r in rows]
    p, b, n = np.array(tree[0]).T
    width = 8 // g
    points = (n - 1) // g + 1
    full = n // 8 * width
    blocks = int(n.max()) // 8
    slot = blocks * width
    j = np.arange(points.max())
    leaf, j = np.nonzero(j < points[:, None])
    at = np.where(j < full[leaf], j, j - full[leaf] + slot + 1)
    gp = np.full((len(p), slot + 1 + int((points - full).max())), sentinel)
    gb = gp.copy()
    gp[leaf, at] = p[leaf] + j
    gb[leaf, at] = b[leaf] + j
    # node ids: leaves first, then the nodes of each height in turn
    start = np.cumsum([0] + [len(level) for level in tree]).tolist()

    def node(ref):
        return start[ref[0]] + ref[1]

    splits = tuple(
        (np.array([node(x) for x, _ in level]), np.array([node(y) for _, y in level]))
        for level in tree[1:]
    )
    return (gp, gb), blocks, width, splits, np.array([node(r) for r in roots]) if splits else None


@dataclass(frozen=True, eq=False)
class _Factor:
    """One test's neighbor chain on its gcd-reduced partial-sum lattice.

    Lattice point j stands for the partial sum g*j, where g is the gcd of
    the test's coefficients and 8. The factor's 2k messages are sums of
    products of its prefix and back arrays; `gather` lays those products out
    so that a few reductions add every message in numpy's order (see
    _sum_plan).
    """

    lo: int  # edges lo..lo+k-1 belong to this factor, in neighbor order
    coeffs: tuple[int, ...]  # neighbor coefficients divided by g
    top: tuple[int, ...]  # top[a]: largest lattice point of the neighbors < a
    weight: np.ndarray  # (R, T) likelihood of each lattice point per trial
    gather: tuple[np.ndarray, np.ndarray]  # (leaves, slots) rows of P and of B
    blocks: int  # stride-8 blocks of the longest leaf
    width: int  # lattice points per block, 8 // g
    splits: tuple[tuple[np.ndarray, np.ndarray], ...]  # node pairs added, per tree level
    roots: np.ndarray | None  # the node of each message, when some row was split


def _factors(C: np.ndarray, Z: np.ndarray, trans: np.ndarray, eta: np.ndarray) -> list[_Factor]:
    factors = []
    lo = 0
    for t in range(C.shape[0]):
        c = C[t][C[t] > 0]
        if not c.size:
            continue
        k = c.size
        g = int(np.gcd(np.gcd.reduce(c), 8))
        coeffs = [int(x) // g for x in c]
        R = sum(coeffs) + 1
        sums = g * np.arange(R)
        valid = sums < eta[-1]
        weight = np.zeros((R, Z.shape[0]))
        buckets = np.searchsorted(eta, sums[valid], side="right") - 1
        weight[valid] = trans[buckets][:, Z[:, t]]
        # msg0 of neighbor a sums P[a, j] * B[a, j] over all R points,
        # msg1 sums P[a, j] * B[a, j + c_a] over the first R - c_a
        rows = [(a * R, a * R, R) for a in range(k)]
        rows += [(a * R, a * R + ca, R - ca) for a, ca in enumerate(coeffs)]
        top = tuple(accumulate(coeffs, initial=0))
        factors.append(_Factor(lo, tuple(coeffs), top, weight, *_sum_plan(rows, g, k * R)))
        lo += k
    return factors


def _factor_update(f: _Factor, V: np.ndarray, F_new: np.ndarray) -> None:
    """Write the 2k messages of one factor into F_new[:, lo:lo+k]."""
    k = len(f.coeffs)
    R, T = f.weight.shape
    hi = f.lo + k
    v0, v1 = V[0, f.lo : hi], V[1, f.lo : hi]
    # forward-backward over the neighbor chain: P[a] (rows a*R .. a*R+R-1)
    # is the partial-sum distribution of neighbors < a, B[a] the expected
    # likelihood over neighbors > a as a function of the partial sum. P[a]
    # is zero beyond top[a] and B[a] is only read up to top[a+1], so both
    # are computed that far. Row k*R stays zero: gather's padding.
    P = np.zeros((k * R + 1, T))
    P[0] = 1.0
    for b in range(k - 1):
        c, h, p = f.coeffs[b], f.top[b] + 1, b * R
        np.multiply(P[p : p + h], v0[b], out=P[p + R : p + R + h])
        P[p + R + c : p + R + c + h] += P[p : p + h] * v1[b]
    B = np.zeros((k * R + 1, T))
    B[(k - 1) * R : k * R] = f.weight
    for b in range(k - 1, 0, -1):
        c, h, p = f.coeffs[b], f.top[b] + 1, b * R
        np.multiply(B[p : p + h], v0[b], out=B[p - R : p - R + h])
        B[p - R : p - R + h] += B[p + c : p + c + h] * v1[b]
    Y = P.take(f.gather[0], axis=0)
    Y *= B.take(f.gather[1], axis=0)
    slot = f.blocks * f.width
    if f.blocks:
        # stride-8 accumulators, then ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        # over the lanes kept
        lanes = np.add.reduce(Y[:, :slot].reshape(len(Y), f.blocks, f.width, T), axis=1)
        while lanes.shape[1] > 1:
            lanes = lanes[:, 0::2] + lanes[:, 1::2]
        Y[:, slot] = lanes[:, 0]
    sums = np.add.reduce(Y[:, slot:], axis=1)
    for left, right in f.splits:
        sums = np.concatenate((sums, sums[left] + sums[right]))
    if f.roots is not None:
        sums = sums[f.roots]
    F_new[:, f.lo : hi] = sums.reshape(2, k, T)


def factor_bp_decode_batch(
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
    call runs over all trials at once. Partial sums live on the lattice of
    multiples of g' = gcd(the factor's coefficients, 8), R = S/g' + 1 points
    for a coefficient sum S; the others are unreachable. The marginals are
    bit-identical to those of the earlier trial-major kernel, which summed
    each message as one contiguous row of S + 1 entries: the factor sums
    reproduce numpy's order of additions for such a row, and the variable
    sums add in edge order, because a pinned sweep flips a top-d pick under
    any other order.

    Returns Marginals with p1 of shape (trials, n).
    """
    validate_params(params)
    C = check_matrix(C, params.q)
    m, n = C.shape
    Z = _check_results(Z, m, params.Q, batch=True)
    trials = Z.shape[0]
    if d is None:
        d = params.u
    p_prior = cfg.prior if cfg.prior is not None else d / n
    if not 0.0 < p_prior < 1.0:
        raise BadRange(f"defect prior must lie in (0, 1), got {p_prior}")
    if trials == 0:
        return Marginals(p1=np.empty((0, n)), iterations=0)
    if trials == 1:
        # numpy adds along an outer axis in sequence only while the trial
        # axis inside it is longer than 1; with one trial it would sum the
        # message rows pairwise instead
        Z = np.repeat(Z, 2, axis=0)
    T = Z.shape[0]
    log_prior = np.log(np.array([1.0 - p_prior, p_prior]))[:, None, None]

    factors = _factors(C, Z, channel_matrix(params.Q, noise), np.asarray(params.eta, dtype=np.int64))
    evar = np.nonzero(C > 0)[1]  # variable of each edge, factor-major
    E = len(evar)
    # slots[j, v] is the j-th edge of variable v in edge order, or the
    # sentinel E whose log message is zero
    degree = np.bincount(evar, minlength=n)
    slots = np.full((int(degree.max(initial=0)), n), E)
    order = np.argsort(evar, kind="stable")
    slots[np.arange(E) - np.repeat(np.cumsum(degree) - degree, degree), evar[order]] = order

    V = np.full((2, E, T), 0.5)
    F = np.full((2, E, T), 0.5)
    logF = np.zeros((2, E + 1, T))
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        F_new = np.empty_like(F)
        for f in factors:
            _factor_update(f, V, F_new)
        norm = F_new[0] + F_new[1]
        if np.any(norm == 0.0):
            raise NumericalUnderflow("a factor message lost all probability mass")
        F_new /= norm
        if cfg.damping:
            F *= cfg.damping
            F_new *= 1.0 - cfg.damping
            F_new += F
        F = F_new

        np.log(np.maximum(F, _MSG_FLOOR, out=logF[:, :E]), out=logF[:, :E])
        SV = logF[:, slots].sum(axis=1)  # (2, n, T) sums of incoming logs per variable
        V_new = SV[:, evar]
        V_new += log_prior
        V_new -= logF[:, :E]
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

    marg_log = log_prior + SV
    marg_log -= np.maximum(marg_log[0], marg_log[1])
    marg = np.exp(marg_log)
    marg /= marg[0] + marg[1]
    return Marginals(p1=marg[1, :, :trials].T.copy(), iterations=iterations)


def exhaustive_posterior(C, params: CodeParams, z, noise: NoiseModel, prior: float) -> np.ndarray:
    """Exact per-subject posterior P(w_i = 1 | z) by summing over all 2^n
    defective patterns, each with an independent prior; the oracle BP must
    match on trees."""
    m, n = C.shape
    T = channel_matrix(params.Q, noise)
    eta = np.asarray(params.eta)
    p1 = np.zeros(n)
    tot = 0.0
    for bits in product([0, 1], repeat=n):
        w = np.array(bits)
        sums = C @ w
        if sums.size and sums.max() >= params.eta[-1]:
            continue
        y = np.searchsorted(eta, sums, side="right") - 1
        like = float(np.prod(T[y, z]))
        pw = float(np.prod(np.where(w, prior, 1 - prior)))
        tot += like * pw
        p1 += like * pw * w
    return p1 / tot


def random_tree(rng, n_max: int, q: int) -> np.ndarray:
    """A random code whose factor graph is a tree: about n_max subjects,
    each new one joining one existing test, with entries in 1..q-1."""
    factors = [[0]]
    n = 1
    while n < n_max:
        if rng.random() < 0.4:
            factors.append([int(rng.integers(n))])
        else:
            v = n
            n += 1
            factors[int(rng.integers(len(factors)))].append(v)
    C = np.zeros((len(factors), n), dtype=int)
    for t, vs in enumerate(factors):
        for v in vs:
            C[t, v] = int(rng.integers(1, q))
    return C
