"""The array evaluator behind capacity_search against the scalar path.

Every cell of _objective_table must equal rate_objective bit for bit; and
_scan, which reads the table block by block, must keep the same first
strict maximum as a scan calling rate_objective pair by pair. The search
must also stay within its block cap in memory, and the capacity tables
must print the same bytes as before the array evaluator and the full-split
objective.
"""

import runpy
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sqgt.capacity
from sqgt.capacity import (Quantizer, _compositions, _objective_table, _scan, capacity_search,
                           rate_objective)
from sqgt.rng import make_rng

ROOT = Path(__file__).resolve().parent.parent

# (d, q, Q, grid resolution; not a power of 2, so sums round): regions of
# 8+ and 17+ entries (3,5,2) (1,9,2) (4,5,2) (3,7,2); wider than 128
# entries, where numpy sums in halves, (2,70,2) (1,200,3); Q >= 8 (2,5,8)
# (2,6,9) (3,4,8); Q = 1 (2,3,1) (1,2,1)
SHAPES = [
    (1, 2, 1, 7), (2, 3, 1, 5), (2, 3, 3, 10), (3, 3, 3, 7), (2, 4, 2, 5),
    (3, 5, 2, 3), (1, 9, 2, 3), (4, 5, 2, 3), (3, 7, 2, 3),
    (2, 70, 2, 1), (1, 200, 3, 1),
    (2, 5, 8, 3), (2, 6, 9, 3), (3, 4, 8, 3),
]
MAX_QUANTIZERS = 40


def _quantizers(d, q, Q):
    top = (q - 1) * d
    return [Quantizer((0,) + cuts + (top + 1,)) for cuts in combinations(range(1, top + 1), Q - 1)]


def _edges(quantizers):
    return np.array([quant.edges for quant in quantizers])


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_every_cell_equals_the_scalar_path(shape):
    d, q, Q, resolution = shape
    rng = make_rng(sum(shape))
    quants = _quantizers(d, q, Q)
    if len(quants) > MAX_QUANTIZERS:
        keep = sorted(rng.choice(len(quants), MAX_QUANTIZERS, replace=False).tolist())
        quants = [quants[k] for k in keep]
    # the grid holds points with zero entries, so some sums have mass 0
    points = [tuple(w / resolution for w in c) for c in _compositions(resolution, q)]
    points += [tuple(rng.dirichlet(np.full(q, a))) for a in (0.2, 0.5, 1.0, 2.0, 5.0)]
    assert any(0.0 in pt for pt in points)
    got = [[float(v).hex() for v in row] for row in _objective_table(points, d, _edges(quants))]
    want = [[float(rate_objective(pt, d, quant)).hex() for quant in quants] for pt in points]
    assert got == want


def _scalar_scan(best, points, scale, d, quantizers):
    """_scan as it stood before the array evaluator: one rate_objective call
    per (point, quantizer) pair, first strict maximum in row-major order."""
    for weights in points:
        pt = tuple(w / scale for w in weights)
        for quant in quantizers:
            v = rate_objective(pt, d, quant)
            if v > best[0]:
                best = (v, quant, pt, weights)
    return best


# 1 cell: one quantizer per block; 60: a few quantizers of one point;
# 2_000: several whole points per block. q = 2, Q = 1 ties every pair at 0.
@pytest.mark.parametrize("cells", [1, 60, 2_000, sqgt.capacity._CELLS])
@pytest.mark.parametrize("case", [(2, 2, 1, 6), (2, 3, 3, 6), (3, 3, 2, 5), (1, 9, 2, 2)],
                         ids=lambda c: "-".join(map(str, c)))
def test_blocks_keep_the_first_strict_maximum(monkeypatch, cells, case):
    d, q, Q, resolution = case
    monkeypatch.setattr(sqgt.capacity, "_CELLS", cells)
    quants = _quantizers(d, q, Q)
    for start in ((-1.0, None, None, None), (0.0, None, None, None)):
        got = _scan(start, _compositions(resolution, q), resolution, d, quants)
        want = _scalar_scan(start, _compositions(resolution, q), resolution, d, quants)
        assert (float(got[0]).hex(), *got[1:]) == (float(want[0]).hex(), *want[1:])


def test_memory_stays_within_the_block_cap():
    # 45 points x 11 440 quantizers x 8 regions: one block peaks at about
    # 15.5 MB traced, blocks of 11 points (about 2^20 floats) at under 9 MB
    tracemalloc.start()
    try:
        pt, quant, bits = capacity_search(2, 9, 8, grid_step=0.5, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
    assert (pt, str(quant), bits) == (
        (0.0,) * 7 + (0.5, 0.5), "{0}{1}{2}{3}{4}{5,6,7,8,9,10,11,12,13,14}{15}{16}", 0.75)


def test_capacity_table_matches_golden(monkeypatch, capsys):
    main = runpy.run_path(str(ROOT / "scripts" / "capacity_table.py"))["main"]
    for q, Q, dmax, step in [(3, 3, 6, "0.02"), (4, 4, 4, "0.05")]:
        golden = ROOT / "tests" / "data" / f"capacity_table_q{q}_Q{Q}_dmax{dmax}_step{step}.txt"
        monkeypatch.setattr("sys.argv", ["capacity_table.py", "--q", str(q), "--Q", str(Q),
                                         "--dmax", str(dmax), "--grid-step", step])
        assert main() == 0
        assert capsys.readouterr().out.encode() == golden.read_bytes(), golden.name
