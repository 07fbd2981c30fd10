"""The block kernel against the one-test-at-a-time kernel it replaced, bit
for bit, over block layouts from one block per code to one test per block.

bp_decode_batch cuts its tests into blocks of at most decode._CELLS
P cells (rows x trials), so the trial count picks the layout: the whole
code at one or two trials, several tests per block in between, about one
test per block at 400 trials.
"""

import tracemalloc

import numpy as np
import pytest

import sqgt.decode as decode
from sqgt.construct import random_disjunct
from sqgt.decode import BpConfig, bp_decode, bp_decode_batch
from sqgt.model import CodeParams, NoiseModel, apply_noise, syndrome
from sqgt.rng import derive_seed, make_rng
from sqgt.simulate import SweepConfig, _build_code

from bp_reference import factor_bp_decode_batch, reference_bp_decode_batch

NOISE = NoiseModel(0.04, 0.04)
CFG = BpConfig(max_iters=3, damping=0.5)
SWEEP = SweepConfig(
    n=100, d=15, m=50, eta_step=2, q_values=(2, 5, 11), gammas=((0.04, 0.04),),
    trials=1, iterations=1, methods=("top-d",), seed=101,
)
# several tests per block: a test of these codes has 4..434 rows
MIDDLE = decode._CELLS // 1024


def _code(name):
    if name == "g8":
        # entries 8..64 in steps of 8, so that the long factor sums add eight
        # or more stride-8 lanes of one lattice point each; the first three
        # rows, divided by 8, add tails of up to seven entries. Quantizer
        # steps of three lattice points spread the mass over many sums.
        rng = make_rng(3)
        C = np.zeros((30, 100), dtype=np.int64)
        for t in range(30):
            cols = rng.choice(100, 5, replace=False)
            C[t, cols] = 8 * rng.integers(1, 9, size=5)
        C[:3] //= 8
        return C, CodeParams.equidistant(65, 24, 1, 15)
    if name == "oneshot":
        return random_disjunct(100, 15, 3, 2, q=7, m=50, seed=derive_seed(101, "oneshot-code"))
    return _build_code(SWEEP, int(name[1:]))


def _results(C, params, trials, seed=5, d=15):
    rng = make_rng(seed)
    Z = np.empty((trials, C.shape[0]), dtype=np.int64)
    for row in range(trials):
        planted = sorted(int(x) + 1 for x in rng.choice(C.shape[1], d, replace=False))
        Z[row] = apply_noise(syndrome(C, planted, params.eta), params.Q, NOISE, rng)
    return Z


def _layout(C, params, Z):
    """Tests per block, as bp_decode_batch cuts them for these results."""
    blocks = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
    return [np.arange(blk.rows)[blk.starts].size for blk in blocks]


@pytest.mark.parametrize("name", ["q2", "q5", "q11", "oneshot", "g8"])
@pytest.mark.parametrize("trials", [1, 2, MIDDLE, 400])
def test_blocks_match_one_test_at_a_time(name, trials):
    C, params = _code(name)
    Z = _results(C, params, trials)
    layout = _layout(C, params, Z)
    tests = int(C.any(axis=1).sum())
    assert sum(layout) == tests
    if trials <= 2:
        assert layout == [tests]
    elif trials == MIDDLE:
        assert 1 < len(layout) < tests and max(layout) > 1
    else:
        assert len(layout) > 0.9 * tests
    want = factor_bp_decode_batch(C, params, Z, NOISE, d=15, cfg=CFG)
    got = bp_decode_batch(C, params, Z, NOISE, d=15, cfg=CFG)
    assert np.array_equal(got.p1, want.p1)
    assert got.iterations == want.iterations


def test_single_decode_matches_one_test_at_a_time():
    C, params = _code("oneshot")
    cfg = BpConfig(max_iters=20, damping=0.5)
    for seed in range(2):
        z = _results(C, params, 1, seed=seed)
        want = factor_bp_decode_batch(C, params, z, NOISE, d=15, cfg=cfg)
        assert np.array_equal(bp_decode(C, params, z[0], NOISE, d=15, cfg=cfg).p1, want.p1[0])


def test_block_boundary_between_tests(monkeypatch):
    C, params = random_disjunct(12, 2, 3, 2, q=7, m=10, seed=3)
    Z = _results(C, params, 2, d=2)
    rows = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))[0].rows
    # about a third of the code per block
    monkeypatch.setattr(decode, "_CELLS", rows * 2 // 3)
    layout = _layout(C, params, Z)
    assert len(layout) >= 3 and max(layout) > 1
    got = bp_decode_batch(C, params, Z, NOISE, d=2, cfg=CFG)
    for reference in (factor_bp_decode_batch, reference_bp_decode_batch):
        assert np.array_equal(got.p1, reference(C, params, Z, NOISE, d=2, cfg=CFG).p1)


def _degenerate(kind):
    if kind == "no-edges":
        return np.zeros((4, 6), dtype=np.int64)
    if kind == "zero-rows":
        C = np.zeros((7, 6), dtype=np.int64)
        C[[0, 3, 6]] = [[1, 2, 0, 1, 0, 0], [0, 1, 1, 0, 2, 0], [2, 0, 0, 0, 1, 1]]
        C[5, 4] = 2  # a test with one neighbor
        return C
    if kind == "gcds":
        # one block holding every g = 1, 2, 4, 8 (10 and 6 reduce to 2)
        return np.array([
            [1, 3, 0, 2, 0, 0],
            [0, 2, 6, 0, 4, 0],
            [4, 0, 4, 0, 0, 12],
            [8, 0, 0, 16, 8, 0],
            [0, 10, 0, 0, 6, 0],
        ])
    if kind == "deep-sums":
        # sums of more than 512 entries (541 for msg0 of both long rows),
        # split at depths 0, 1 and 2, next to short ones of the same g;
        # msg1 of the 270 adds 271 entries, a root whose halves are a leaf
        # and a split, so depth and height order differ across trees
        return np.array([
            [1, 3, 0, 2, 0, 0],
            [200, 0, 180, 160, 0, 0],
            [0, 1, 270, 0, 269, 0],
            [4, 0, 0, 8, 12, 0],
            [0, 0, 2, 0, 5, 7],
        ])
    # sums of more than 128 and more than 256 entries next to short ones of
    # the same g, so split trees of heights 0, 1 and 2 sit side by side
    return np.array([
        [1, 3, 0, 2, 0, 0],
        [60, 0, 50, 0, 40, 0],
        [0, 100, 100, 90, 0, 0],
        [0, 2, 0, 0, 4, 2],
        [5, 0, 0, 7, 0, 120],
    ])


@pytest.mark.parametrize("kind", ["no-edges", "zero-rows", "gcds", "long-sums", "deep-sums"])
@pytest.mark.parametrize("trials", [1, 3])
def test_degenerate_layouts_in_one_block(kind, trials):
    C = _degenerate(kind)
    q = int(C.max()) + 1 if C.any() else 2
    params = CodeParams.equidistant(q, 3, 1, 2)
    Z = _results(C, params, trials, seed=trials, d=2)
    layout = _layout(C, params, Z)
    assert layout == ([int(C.any(axis=1).sum())] if C.any() else [])
    if kind == "zero-rows":
        # every sum has fewer than 8 entries, so no lane keeps a stride-8
        # block: one lane a leaf, reading the zero row
        [blk] = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
        assert blk.width == 1
    if kind == "gcds":
        [blk] = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
        assert blk.width == 8
    if kind == "long-sums":
        [blk] = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
        assert len(blk.splits) == 2
    if kind == "deep-sums":
        [blk] = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
        assert len(blk.splits) >= 3
    cfg = BpConfig(max_iters=4, prior=0.3)
    got = bp_decode_batch(C, params, Z, NOISE, cfg=cfg)
    for reference in (factor_bp_decode_batch, reference_bp_decode_batch):
        assert np.array_equal(got.p1, reference(C, params, Z, NOISE, cfg=cfg).p1), reference


def _messages(C):
    """(g, r, e) of the msg0 and the msg1 of every edge: its lattice gcd,
    its lattice points, and the top[a] + 1 of them whose products can be
    nonzero, as P[a] is zero beyond top[a]."""
    for row in C:
        c = row[row > 0]
        if c.size:
            g = int(np.gcd(np.gcd.reduce(c), 8))
            c = c // g
            R = int(c.sum()) + 1
            for top, ca in zip(np.cumsum(c) - c, c):
                yield from ((g, R, top + 1), (g, R - ca, top + 1))


@pytest.mark.parametrize("name", ["q2", "q5", "q11", "oneshot", "g8"])
@pytest.mark.parametrize("trials", [1, 400])
def test_sums_gather_no_known_zero(name, trials):
    C, params = _code(name)
    Z = _results(C, params, trials)
    blocks = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
    cells = sum(blk.gather[0].size for blk in blocks)
    assert cells == sum(blk.gather[1].size for blk in blocks)
    messages = list(_messages(C))
    assert cells == sum(e for _, _, e in messages)
    # the variable sums read each edge once: level j adds one edge of each
    # of the first widths[j] sums
    evar = np.nonzero(C > 0)[1]
    levels, widths, place = decode._var_levels(evar, C.shape[1])
    assert sorted(levels.tolist()) == list(range(len(evar)))
    at = 0
    for width in widths:
        assert np.array_equal(place[evar[levels[at : at + width]]], np.arange(width))
        at += width
    assert at == len(evar)
    # numpy splits a sum of more than 128 entries at half, rounded down to
    # a multiple of 8; g8 has such splits with the right half wholly beyond
    # the extent, whose leaves gather nothing
    beyond = 0
    for g, r, e in messages:
        n = g * (r - 1) + 1
        beyond += n > 128 and e <= (n // 2 - n // 2 % 8) // g
    assert (beyond > 0) == (name == "g8")
    # a block's lanes follow its smallest gcd; the layouts the benchmark
    # runs (400 trials, and the oneshot code at one) hold one gcd a block,
    # so each block sums on the lanes of that gcd alone. A block whose sums
    # all have fewer than 8 entries keeps no stride-8 block, and has one
    # lane a leaf; msg0 of a test adds S + 1 entries, S its coefficient sum
    tests = [row[row > 0] for row in C if row.any()]
    gcds = [int(np.gcd(np.gcd.reduce(c), 8)) for c in tests]
    cuts = np.cumsum([0, *_layout(C, params, Z)])
    held = [set(gcds[i:j]) for i, j in zip(cuts, cuts[1:])]
    keeps = [any(c.sum() >= 7 for c in tests[i:j]) for i, j in zip(cuts, cuts[1:])]
    widths = [blk.width for blk in blocks]
    assert widths == [8 // min(g) if k else 1 for g, k in zip(held, keeps)]
    assert (max(map(len, held)) > 1) == (trials == 1 and name in ("q5", "q11", "g8"))
    if (name, trials) == ("q2", 400):
        assert widths.count(1) == 25


@pytest.mark.parametrize("name", ["q2", "q11", "oneshot", "g8"])
@pytest.mark.parametrize("trials", [1, MIDDLE, 400])
def test_rows_are_those_the_sums_read(name, trials):
    # P[a] holds top[a] + 1 rows and B[a] top[a+1] + 1, one test after
    # another, top[a] being the largest lattice point of the neighbors
    # before a; the forward and backward steps read and write no others
    C, params = _code(name)
    Z = _results(C, params, trials)
    blocks = decode._blocks(C, Z, params.Q, NOISE, np.asarray(params.eta))
    p_rows, b_rows = [], []
    for row in C:
        c = row[row > 0]
        if c.size:
            c = c // int(np.gcd(np.gcd.reduce(c), 8))
            top = np.concatenate(([0], np.cumsum(c)))
            p_rows.append(int((top[:-1] + 1).sum()))
            b_rows.append(int((top[1:] + 1).sum()))
    cuts = np.cumsum([0, *_layout(C, params, Z)])
    assert [blk.rows for blk in blocks] == [sum(p_rows[i:j]) for i, j in zip(cuts, cuts[1:])]
    assert [blk.b_rows for blk in blocks] == [sum(b_rows[i:j]) for i, j in zip(cuts, cuts[1:])]

    def last(rows):
        return rows.stop - 1 if type(rows) is slice else int(rows.max(initial=-1))

    for blk in blocks:
        p_read = [blk.starts, blk.zeros, blk.gather[0], *(r for step in blk.forward for r in step[:3])]
        b_read = [blk.last, blk.gather[1], *(r for step in blk.backward for r in step[:3])]
        assert max(map(last, p_read)) == blk.rows - 1
        assert max(map(last, b_read)) == blk.b_rows - 1


def test_decode_at_400_trials_holds_what_it_reads():
    # k x R rows of P and B per test, P kept while B was gathered, and
    # fresh (2, edges, trials) arrays every iteration took this decode to
    # 19.3 MB traced; four message buffers and the ragged rows take 15.6,
    # and the bound lies between the two
    C, params = _code("q11")
    Z = _results(C, params, 400)
    tracemalloc.start()
    try:
        bp_decode_batch(C, params, Z, NOISE, d=15, cfg=BpConfig(max_iters=2, damping=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17.5e6
