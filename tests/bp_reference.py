"""The belief-propagation loop as it stood before the sum-major kernel.

Kept verbatim, for tests only: the current kernel must reproduce its
marginals bit for bit, so every test that compares the two uses
np.array_equal, not a tolerance.
"""

import numpy as np

from sqgt.decode import BpConfig, Marginals
from sqgt.errors import BadRange, NumericalUnderflow
from sqgt.model import CodeParams, NoiseModel, channel_matrix, check_matrix, validate_params

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
