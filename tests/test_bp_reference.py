"""The BP kernel against the trial-major loop it replaced, bit for bit."""

import numpy as np
import pytest

from sqgt.decode import BpConfig, bp_decode, bp_decode_batch
from sqgt.errors import SqgtError
from sqgt.model import CodeParams, NoiseModel, apply_noise, syndrome
from sqgt.rng import make_rng

from bp_reference import reference_bp_decode_batch

GCDS = (1, 2, 3, 4, 6, 8, 10)
TRIALS = (1, 3, 400)


def _case(seed: int, gcd: int, trials: int):
    """A random code whose nonzero entries are multiples of gcd, with
    degree-1 and all-zero rows, and syndromes of planted sets."""
    rng = make_rng(seed)
    n = int(rng.integers(5, 13))
    m = int(rng.integers(4, 9))
    # up to n - 1 defectives, so that the results, and with them the
    # messages' mass, reach the high partial sums: the tails of the sums
    # and, in long rows, the halves beyond 128 entries
    d = int(rng.integers(1, n))
    # every third case has factor sums above 128
    low, high = (64 // gcd, 160 // gcd) if seed % 3 == 0 else (1, int(rng.integers(1, 5)))
    C = np.zeros((m, n), dtype=np.int64)
    for t in range(m):
        kind = rng.random()
        if kind < 0.15:
            continue  # all-zero row
        k = 1 if kind < 0.35 else int(rng.integers(2, min(n, 6) + 1))
        cols = rng.choice(n, k, replace=False)
        C[t, cols] = gcd * rng.integers(low, high + 1, size=k)
    q = int(C.max()) + 1 if C.any() else 2
    # wide quantizer steps leave many partial sums with comparable mass, so
    # that the order of additions shows in the last bits
    params = CodeParams.equidistant(q, int(rng.integers(1, 8 * gcd * high + 1)), 1, d)
    noise = NoiseModel(0.04, 0.04) if seed % 2 else NoiseModel()
    Z = np.empty((trials, m), dtype=np.int64)
    for row in range(trials):
        planted = sorted(int(x) + 1 for x in rng.choice(n, d, replace=False))
        Z[row] = apply_noise(syndrome(C, planted, params.eta), params.Q, noise, rng)
    return C, params, Z, noise, d


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SqgtError as exc:
        return type(exc)


def test_kernel_matches_reference_bit_for_bit():
    decoded = early = long_rows = 0
    cases = [(g, trials, damping) for g in GCDS for trials in TRIALS for damping in (0.0, 0.5)]
    for seed, (g, trials, damping) in enumerate(cases):
        C, params, Z, noise, d = _case(seed, g, trials)
        cfg = BpConfig(max_iters=8, damping=damping, tol=0.05 if seed % 4 == 1 else None)
        want = _run(reference_bp_decode_batch, C, params, Z, noise, d=d, cfg=cfg)
        got = _run(bp_decode_batch, C, params, Z, noise, d=d, cfg=cfg)
        long_rows += int(C.sum(axis=1).max() > 128)
        if isinstance(want, type):
            assert got is want, (seed, g, trials)
            continue
        assert np.array_equal(got.p1, want.p1), (seed, g, trials)
        assert got.iterations == want.iterations, (seed, g, trials)
        decoded += 1
        early += got.iterations < cfg.max_iters
    assert decoded >= 0.75 * len(cases)
    assert early >= 1 and long_rows >= 5


@pytest.mark.parametrize("n", [15, 23, 31])
def test_single_trial_with_mass_in_the_sum_tails(n):
    # the msg1 sums of row 0 have n entries, so seven of them follow the
    # stride-8 accumulators; with a prior of 1/2 and quantizer buckets eight
    # sums wide, all of them carry comparable mass
    C = np.ones((3, n), dtype=np.int64)
    C[1, ::2] = 0
    C[2, 1::3] = 0
    params = CodeParams.equidistant(2, 8, 1, n - 1)
    noise = NoiseModel(0.1, 0.1)
    cfg = BpConfig(max_iters=3, prior=0.5)
    want = reference_bp_decode_batch(C, params, np.array([[1, 0, 1]]), noise, cfg=cfg)
    assert np.array_equal(bp_decode(C, params, np.array([1, 0, 1]), noise, cfg=cfg).p1, want.p1[0])
