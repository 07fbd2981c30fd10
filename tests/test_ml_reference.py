"""decode_ml against the per-set loop it replaced: the same set, or the
same error class with the same message."""

from math import comb

import numpy as np
import pytest

import sqgt.decode
from sqgt.decode import decode_ml
from sqgt.errors import BadThreshold
from sqgt.model import CodeParams, NoiseModel, apply_noise, syndrome
from sqgt.rng import make_rng

from ml_reference import reference_decode_ml

GRID = 1200


def _outcome(decode, C, params, z, noise, budget):
    try:
        return decode(C, params, z, noise, budget)
    except Exception as exc:  # the error class and message are the outcome
        return type(exc).__name__, str(exc)


def _case(seed: int):
    """A random code with bracket parameters, noise and a syndrome.

    Repeated columns tie two sets; u and l may exceed n; the thresholds are
    equidistant or arbitrary; some cases are noiseless, so most sets have
    likelihood zero; the budget is small, exactly the set count, or ample.
    """
    rng = make_rng(seed)
    q = int(rng.integers(2, 6))
    n = int(rng.integers(1, 8))
    m = int(rng.integers(1, 7))
    u = int(rng.integers(1, n + 3))
    l = int(rng.integers(1, u + 1))
    C = rng.integers(0, q, size=(m, n))
    if seed % 4 == 0 and n > 1:
        C[:, -1] = C[:, 0]  # the two columns tie every set holding one of them
    top = (q - 1) * u
    if seed % 3:
        step = int(rng.integers(1, 4))
        Q = max(2, top // step + 1)
        eta = tuple(r * step for r in range(Q + 1))
    else:
        cuts = np.sort(rng.choice(np.arange(1, top + 1), size=int(rng.integers(1, min(top, 4) + 1)),
                                  replace=False))
        eta = (0, *map(int, cuts), top + int(rng.integers(1, 3)))
        Q = len(eta) - 1
    params = CodeParams(q, Q, eta, l, u, int(rng.integers(0, 2)))
    if seed % 5 == 0:
        noise = NoiseModel()
    else:
        gp, gn = rng.uniform(0, 0.3, size=2)
        noise = NoiseModel(float(gp), float(gn))
    planted = rng.choice(n, size=min(n, int(rng.integers(0, u + 1))), replace=False) + 1
    z = syndrome(C, planted, eta)
    if seed % 2:
        z = apply_noise(z, Q, NoiseModel(0.2, 0.2), rng)
    sets = sum(comb(n, s) for s in range(l, u + 1))
    budget = {0: sets - 1, 1: sets}.get(seed % 7, 2_000_000)
    return C, params, z, noise, budget


@pytest.mark.parametrize("seed", range(GRID))
def test_matches_reference(seed):
    C, params, z, noise, budget = _case(seed)
    assert _outcome(decode_ml, C, params, z, noise, budget) == _outcome(
        reference_decode_ml, C, params, z, noise, budget
    )


def test_grid_covers_the_edge_cases():
    cases = [_case(seed) for seed in range(GRID)]
    n = [C.shape[1] for C, *_ in cases]
    assert any(p.u > k for k, (_, p, *_) in zip(n, cases))
    assert any(p.l > k for k, (_, p, *_) in zip(n, cases))
    assert any(C.shape[1] > 1 and np.array_equal(C[:, 0], C[:, -1]) for C, *_ in cases)
    with pytest.raises(BadThreshold):  # some bracket has no equidistant step
        for _, p, *_ in cases:
            p.step
    outcomes = [_outcome(decode_ml, *case) for case in cases]
    kinds = {o[0] if isinstance(o[0], str) else "set" for o in outcomes}
    assert kinds == {"set", "ExplosionGuard", "NoConsistentSet"}
    # a budget equal to the set count is enough
    exact = [o for o, (C, p, *_, b) in zip(outcomes, cases)
             if b == sum(comb(C.shape[1], s) for s in range(p.l, p.u + 1))]
    assert exact and not any(o[0] == "ExplosionGuard" for o in exact)
    # with two equal columns, the set holding the first one wins the tie
    assert any(
        1 in o and C.shape[1] not in o
        for o, (C, *_) in zip(outcomes, cases)
        if C.shape[1] > 1 and np.array_equal(C[:, 0], C[:, -1]) and not isinstance(o[0], str)
    )


def test_sets_spanning_chunks(monkeypatch):
    # 4 099 rows make each chunk hold about 128 pairs, so the 190 pairs of
    # 20 columns span two chunks; subject 18 repeats subject 16, so the
    # planted pair {3, 16} (first chunk) ties with {3, 18} (second chunk),
    # and the 4 099-term sums exercise numpy's blocked pairwise addition
    rng = make_rng(29)
    C = rng.integers(0, 3, size=(4099, 20))
    C[:, 17] = C[:, 15]
    params = CodeParams.equidistant(3, 1, 1, 3)
    noise = NoiseModel(0.1, 0.1)
    z = apply_noise(syndrome(C, [3, 16], params.eta), params.Q, noise, rng)
    chunks = []

    def counted(n, k, chunk):
        for subs in chunk_source(n, k, chunk):
            chunks.append(k)
            yield subs

    chunk_source = sqgt.decode._subset_chunks
    monkeypatch.setattr(sqgt.decode, "_subset_chunks", counted)
    got = decode_ml(C, params, z, noise)
    assert got == reference_decode_ml(C, params, z, noise) == (3, 16)
    assert chunks.count(2) >= 2 and chunks.count(3) >= 2
