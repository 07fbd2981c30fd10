"""The verifiers against the brute-force loops they replaced: same verdict,
same canonical witness string, or the same error class. A case whose
bracket CodeParams refuses ends in that error before either verifier runs."""

import tracemalloc

import numpy as np
import pytest

from sqgt import verify
from sqgt.construct import random_disjunct
from sqgt.model import CodeParams, quantize_sums
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


REPEATS = ("none", "first", "mid", "last")


def _disjunct_case(n: int, d: int, e: int, repeat: str):
    """A random code with one column copied onto the next first in the
    scan, mid-scan or last, built to be SQ-disjunct at (d, e); with no copy
    it is built for e = 0, so that e = 1 finds near misses."""
    seed = 1000 * n + 100 * d + 10 * e + REPEATS.index(repeat)
    C, p = random_disjunct(n, d, 2, 1, e=0 if repeat == "none" else e, seed=seed)
    at = {"first": 0, "mid": n // 2 - 1, "last": n - 2}
    if repeat in at:
        C[:, at[repeat] + 1] = C[:, at[repeat]]
    return C, dict(q=p.q, Q=p.Q, eta=p.eta, l=1, u=d, e=e), seed


@pytest.mark.parametrize("repeat", REPEATS)
@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [10, 13, 16, 20])
def test_disjunct_matches_reference_over_small_chunks(monkeypatch, n, d, e, repeat):
    C, bracket, seed = _disjunct_case(n, d, e, repeat)
    want = _outcome(reference_is_sq_disjunct, C, bracket, 10_000_000)
    # chunks of 1 to 4 d-sets, so that violations fall on both sides of
    # chunk boundaries
    per_set = n * len(np.unique(C, axis=0))
    monkeypatch.setattr(verify, "_DISJUNCT_CELLS", (seed % 4 + 1) * per_set)
    assert _outcome(is_sq_disjunct, C, bracket, 10_000_000) == want


def test_disjunct_grid_covers_passes_and_witnesses():
    details, pivots = set(), set()
    for n in (10, 13, 16, 20):
        for d in (1, 2, 3, 4):
            for e in (0, 1):
                for repeat in REPEATS:
                    C, bracket, _ = _disjunct_case(n, d, e, repeat)
                    w = reference_is_sq_disjunct(C, CodeParams(**bracket))
                    details.add("PASS" if w is None else w.detail.split(" on ")[1])
                    if w is not None and repeat != "none":
                        # the copied column is the pivot, at the copy's place
                        copied = {"first": 1, "mid": n // 2, "last": n - 1}[repeat]
                        if w.sets[1] == (copied,) and copied + 1 in w.sets[0]:
                            pivots.add(repeat)
    assert "PASS" in details
    assert {"0 coordinates, needs 1", "0 coordinates, needs 3"} <= details
    # a near miss: a pivot that wins, but on too few coordinates
    assert {"1 coordinates, needs 3", "2 coordinates, needs 3"} & details
    assert pivots == {"first", "mid", "last"}


def test_disjunct_scan_stops_after_the_witness_top(monkeypatch):
    # columns 1 and 2 are equal, so {1,2,3} with pivot 1 is the first
    # violation; every 3-set with top 3 comes from the 2-sets up to {2,3}
    C, p = random_disjunct(12, 2, 2, 1, seed=5)
    C[:, 1] = C[:, 0]
    yielded = []
    chunks = verify._subset_chunks

    def counting(n, k, chunk):
        for T in chunks(n, k, chunk):
            yielded.append(T.tolist())
            yield T

    monkeypatch.setattr(verify, "_DISJUNCT_CELLS", 1)
    monkeypatch.setattr(verify, "_subset_chunks", counting)
    w = is_sq_disjunct(C, p)
    assert str(w) == str(reference_is_sq_disjunct(C, p))
    assert w.sets == ((1, 2, 3), (1,))
    # the three 2-sets with top at most 3, then the one chunk whose first
    # 2-set {1,4} ends the scan
    assert yielded == [[[0, 1]], [[0, 2]], [[1, 2]], [[0, 3]]]


MULTILEVEL = [(q, step) for q in (5, 9, 17, 33) for step in (1, 2, 3)]


def _multilevel_case(q: int, step: int, repeat: str, e: int):
    """A code over q symbols built SQ-disjunct at d = 2, e = 0 for threshold
    step `step`, half its rows repeated so that weights reach 2, and one
    column copied onto the next as in _disjunct_case."""
    n, d = 12, 2
    seed = 100 * q + 10 * step + REPEATS.index(repeat)
    C, p = random_disjunct(n, d, (q - 1) // step, step, q=q, seed=seed)
    C = np.vstack([C, C[: C.shape[0] // 2]])
    at = {"first": 0, "mid": n // 2 - 1, "last": n - 2}
    if repeat in at:
        C[:, at[repeat] + 1] = C[:, at[repeat]]
    return C, dict(q=p.q, Q=p.Q, eta=p.eta, l=1, u=d, e=e), seed


def _small_chunks(monkeypatch, C, d, seed):
    # chunks of 1 to 4 d-sets: each d-set counts d gathered columns on the
    # distinct rows and n counts
    per_set = d * len(np.unique(C, axis=0)) + C.shape[1]
    monkeypatch.setattr(verify, "_DISJUNCT_CELLS", (seed % 4 + 1) * per_set)


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("repeat", REPEATS)
@pytest.mark.parametrize("q, step", MULTILEVEL)
def test_disjunct_matches_reference_on_multilevel_alphabets(monkeypatch, q, step, repeat, e):
    C, bracket, seed = _multilevel_case(q, step, repeat, e)
    want = _outcome(reference_is_sq_disjunct, C, bracket, 10_000_000)
    _small_chunks(monkeypatch, C, bracket["u"], seed)
    assert _outcome(is_sq_disjunct, C, bracket, 10_000_000) == want


def test_multilevel_grid_covers_passes_zeros_and_near_misses():
    details, weights = set(), set()
    for q, step in MULTILEVEL:
        for repeat in REPEATS:
            for e in (0, 1):
                C, bracket, _ = _multilevel_case(q, step, repeat, e)
                w = reference_is_sq_disjunct(C, CodeParams(**bracket))
                details.add("PASS" if w is None else w.detail.split(" on ")[1])
                weights.add(int(np.unique(C, axis=0, return_counts=True)[1].max()))
    assert {"PASS", "0 coordinates, needs 1", "0 coordinates, needs 3"} <= details
    assert {"1 coordinates, needs 3", "2 coordinates, needs 3"} <= details
    assert min(weights) >= 2  # every code repeats a row


@pytest.mark.parametrize("q, step", [(2, 1), (5, 1), (33, 1), (33, 3)])
def test_all_zero_code_has_no_level_and_no_win(monkeypatch, q, step):
    # every single column sits at level 0, so no level adds a product and
    # the first 3-set's first pivot beats the others on no coordinate
    C = np.zeros((7, 9), dtype=np.int64)
    p = CodeParams.equidistant(q, step, 1, 2)
    bracket = dict(q=p.q, Q=p.Q, eta=p.eta, l=1, u=2, e=0)
    _small_chunks(monkeypatch, C, 2, q)
    got = _outcome(is_sq_disjunct, C, bracket, 10_000_000)
    assert got == _outcome(reference_is_sq_disjunct, C, bracket, 10_000_000)
    assert got == "sq-disjunct: {1,2,3} vs {1}: column 1 beats the other 2 on 0 coordinates, needs 1"


def test_disjunct_counts_stay_exact_with_large_weights(monkeypatch):
    # weights of 2^33 and 2^34 make every winning count a multiple of 2^33,
    # far above any 2e+1, so the witness is a pivot with no win, and its
    # count must be the int64 count of the same rest-sum, single column and
    # weights
    distinct = verify._distinct_rows
    seen = {}

    def scaled(C):
        cols, weight = distinct(C)
        seen["cols"], seen["weight"] = cols, weight << 33
        return cols, seen["weight"]

    monkeypatch.setattr(verify, "_distinct_rows", scaled)
    C, bracket, _ = _multilevel_case(17, 1, "mid", 1)
    params = CodeParams(**bracket)
    w = is_sq_disjunct(C, params)
    assert int(seen["weight"].max()) == 2 << 33
    S, (pivot,) = w.sets
    cols, weight, eta = seen["cols"], seen["weight"], np.asarray(params.eta)
    rest = quantize_sums(cols[[j - 1 for j in S if j != pivot]].sum(axis=0), eta)
    single = quantize_sums(cols[pivot - 1], eta)
    count = int((single > rest).astype(np.int64) @ weight)
    assert w.detail == f"column {pivot} beats the other 2 on {count} coordinates, needs 3"
    # a near miss without the scaling passes with it
    C, bracket, _ = _multilevel_case(17, 1, "none", 1)
    assert is_sq_disjunct(C, CodeParams(**bracket)) is None


def test_disjunct_memory_keeps_levels_out_of_the_chunk(monkeypatch):
    # 32 levels: the per-level weights, (levels, rows, n) floats, are built
    # once, and each chunk holds (chunk, rows) arrays for one level at a
    # time; a (chunk, levels x rows) float one-hot alone would pass the bound
    cells = 1 << 14
    monkeypatch.setattr(verify, "_DISJUNCT_CELLS", cells)
    C, p = random_disjunct(30, 2, 32, 1, q=33, seed=3)
    rows = len(np.unique(C, axis=0))
    levels = len(np.unique(quantize_sums(C, np.asarray(p.eta)))) - 1
    tracemalloc.start()
    try:
        w = is_sq_disjunct(C, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(w) == str(reference_is_sq_disjunct(C, p))
    assert levels == 32
    assert peak < 8 * (levels * rows * C.shape[1] + 4 * cells), peak


WIDE = [(q, step) for q in (257, 1025) for step in (1, 64, 256)]


def _wide_case(q: int, step: int, seed: int):
    """A code over q >= 257 symbols with repeated rows, its entries drawn
    from values on both sides of 256, so that its distinct rows sort
    differently as integers than as little-endian bytes."""
    rng = make_rng(1000 * q + 10 * step + seed)
    values = np.array(sorted({0, 1, 2, 255, 256, q // 2, q - 1}))
    n = int(rng.integers(4, 8))
    distinct = values[rng.integers(0, values.size, size=(int(rng.integers(2, 7)), n))]
    C = distinct[rng.integers(0, distinct.shape[0], size=int(rng.integers(3, 16)))]
    if seed % 3 == 0:
        C[:, -1] = C[:, 1]  # a repeated column forces a witness
    return C


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("q, step", WIDE)
def test_matches_reference_with_entries_past_a_byte(q, step, seed):
    C = _wide_case(q, step, seed)
    for e in (0, 1):
        p = CodeParams.equidistant(q, step, 1, 2, e)
        bracket = dict(q=p.q, Q=p.Q, eta=p.eta, l=1, u=2, e=e)
        for check, reference in PAIRS:
            assert _outcome(check, C, bracket, 10_000_000) == _outcome(reference, C, bracket, 10_000_000)


def test_wide_grid_reorders_rows_and_covers_passes_and_witnesses():
    reordered, outcomes = 0, set()
    for q, step in WIDE:
        for seed in range(6):
            C = _wide_case(q, step, seed)
            rows = verify._distinct_rows(C)[0].T.tolist()
            by_bytes = sorted(rows, key=lambda r: np.asarray(r, dtype="<i8").tobytes())
            reordered += rows != by_bytes
            for e in (0, 1):
                for check in (reference_is_sq_separable, reference_is_sq_disjunct):
                    w = check(C, CodeParams.equidistant(q, step, 1, 2, e))
                    outcomes.add("PASS" if w is None else w.kind)
    assert reordered >= len(WIDE)
    assert outcomes == {"PASS", "sq-separable", "sq-disjunct"}


def test_first_duplicate_is_its_first_and_second_occurrence():
    # singleton syndromes P T X T P T: the pair P at 1 and 5 opens first,
    # but the first row that repeats an earlier one is the triple's second
    # T, at 4, so the witness is {2} vs {4}, not {1} vs {5} or {4} vs {6}
    P, T, X = [0, 300, 2], [300, 0, 2], [0, 0, 0]
    C = np.array([P, T, X, T, P, T]).T
    params = CodeParams.equidistant(301, 1, 1, 1)
    syn = quantize_sums(C.T, np.asarray(params.eta))
    assert verify._first_close_pair(syn, np.ones(3, dtype=np.int64), 0, 10**6) == (1, 3, 0)
    w = is_sq_separable(C, params)
    assert str(w) == str(reference_is_sq_separable(C, params))
    assert w.sets == ((2,), (4,))
