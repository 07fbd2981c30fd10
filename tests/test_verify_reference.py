"""The verifiers against the brute-force loops they replaced: same verdict,
same canonical witness string, or the same error class. A case whose
bracket CodeParams refuses ends in that error before either verifier runs."""

import numpy as np
import pytest

from sqgt.model import CodeParams
from sqgt.rng import make_rng
from sqgt.verify import is_sq_disjunct, is_sq_separable

from verify_reference import reference_is_sq_disjunct, reference_is_sq_separable

PAIRS = (
    (is_sq_separable, reference_is_sq_separable),
    (is_sq_disjunct, reference_is_sq_disjunct),
)


def _outcome(check, C, bracket, budget):
    try:
        return str(check(C, CodeParams(**bracket), budget))
    except Exception as exc:  # the error class is part of the outcome
        return type(exc).__name__


def _case(seed: int):
    """A random code, often with repeated rows and sometimes with fewer
    distinct rows than 2e+1, and the fields of a bracket around it."""
    rng = make_rng(seed)
    q = int(rng.integers(2, 6))
    n = int(rng.integers(2, 9))
    u = int(rng.integers(1, min(n, 3) + 1))
    l = int(rng.integers(0, u + 1))  # CodeParams refuses l = 0 with BadRange
    e = int(rng.integers(0, 3))
    distinct = int(rng.integers(1, 7))
    C = rng.integers(0, q, size=(distinct, n))
    if seed % 3:
        # repeat the rows, so that a weighted count differs from a plain one
        C = C[rng.integers(0, distinct, size=int(rng.integers(distinct, 6 * distinct + 1)))]
    if seed % 5 == 0:
        C[:, -1] = C[:, 0]  # a repeated column forces a witness
    step = int(rng.integers(1, 4))
    Q = max(2, (q - 1) * u // step + 1)
    bracket = dict(q=q, Q=Q, eta=tuple(r * step for r in range(Q + 1)), l=l, u=u, e=e)
    budget = 40 if seed % 7 == 0 else 10_000_000
    return C, bracket, budget


@pytest.mark.parametrize("seed", range(240))
def test_matches_reference(seed):
    C, bracket, budget = _case(seed)
    for check, reference in PAIRS:
        assert _outcome(check, C, bracket, budget) == _outcome(reference, C, bracket, budget)


def test_grid_covers_the_edge_cases():
    cases = [_case(seed) for seed in range(240)]
    distinct = [len(np.unique(C, axis=0)) for C, _, _ in cases]
    assert any(d < C.shape[0] for d, (C, _, _) in zip(distinct, cases))
    assert any(d < 2 * p["e"] + 1 <= C.shape[0] for d, (C, p, _) in zip(distinct, cases))
    assert {p["e"] for _, p, _ in cases} == {0, 1, 2}
    assert {p["q"] for _, p, _ in cases} == {2, 3, 4, 5}
    assert any(p["l"] == 0 for _, p, _ in cases)
    outcomes = {_outcome(is_sq_separable, C, p, b).split(":")[0] for C, p, b in cases}
    assert {"None", "sq-separable", "BadRange", "ExplosionGuard"} <= outcomes


@pytest.mark.parametrize("late_duplicate", [False, True])
def test_pair_scan_over_many_chunks(late_duplicate):
    # three distinct rows, one of them constant: every pair of the 2 000
    # singletons shares the constant block's bucket, so the candidate pairs
    # span several chunks; a duplicated last column is found in the last one
    rng = make_rng(17)
    n = 2000
    vals = rng.permutation(60 * 60)[:n]
    C = np.vstack([np.full((1, n), 7), vals // 60, vals % 60] * 4)
    if late_duplicate:
        C[:, -1] = C[:, 1234]
    params = CodeParams.equidistant(60, 1, 1, 1, e=1)
    got = is_sq_separable(C, params)
    assert str(got) == str(reference_is_sq_separable(C, params))
    assert (got is not None) == late_duplicate
