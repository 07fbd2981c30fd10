"""The array evaluator behind capacity_search, mutual_information and
output_pmf against the scalar path kept in capacity_reference.

Every cell of _objective_table must equal the scalar full-split rate bit
for bit, and so must mutual_information at every split and output_pmf;
_scan, which reads the table block by block, must keep the same first
strict maximum as a scan calling the scalar path pair by pair. The search
and a wide mutual information must also stay within their block caps in
memory, and the capacity tables must print the same bytes as before the
array evaluator and the full-split objective.
"""

import os
import runpy
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sqgt.capacity
from sqgt.capacity import (Quantizer, _compositions, _objective_table, _scan, capacity_search,
                           mutual_information, output_pmf)
from sqgt.rng import make_rng

import capacity_reference

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


def _scalar_rate(pt, d, quant):
    """The scalar full-split rate: mutual_information(pt, d, d, quant) / d."""
    return capacity_reference.mutual_information(pt, d, d, quant) / d


def _shape_cases(shape):
    """A sample of at most MAX_QUANTIZERS of the shape's quantizers, and the
    grid points plus five random points."""
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
    return quants, points


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_every_cell_equals_the_scalar_path(shape):
    d = shape[0]
    quants, points = _shape_cases(shape)
    got = [[float(v).hex() for v in row] for row in _objective_table(points, d, _edges(quants))]
    want = [[float(_scalar_rate(pt, d, quant)).hex() for quant in quants] for pt in points]
    assert got == want


def _reaches_past_both_ends(d, q, i, quant):
    """Whether, for some known sum b, a region shifted b to the left lies
    wholly before p_open and another wholly after it."""
    n = (q - 1) * i + 1
    shifts = range((q - 1) * (d - i) + 1)
    return (any(quant.edges[1] - b <= 0 for b in shifts)
            and any(quant.edges[-2] - b >= n for b in shifts))


# (d, q, edges) with one-entry regions at both ends: at some split i < d
# a shifted region falls off each end of the pmf
OFF_THE_ENDS = [(3, 3, tuple(range(8))), (4, 2, (0, 1, 2, 3, 4, 5)), (3, 4, (0, 1, 5, 8, 9, 10)),
                (5, 3, (0, 1, 9, 10, 11))]


@pytest.mark.parametrize("case", [pytest.param(s, id="-".join(map(str, s))) for s in SHAPES]
                         + [pytest.param(c, id=f"off-the-ends-{k}") for k, c in enumerate(OFF_THE_ENDS)])
def test_every_split_and_output_pmf_equal_the_scalar_path(case):
    if len(case) == 3:
        d, q, edges = case
        quants, points = [Quantizer(edges)], [tuple(w / 4 for w in c) for c in _compositions(4, q)]
        assert any(_reaches_past_both_ends(d, q, i, quants[0]) for i in range(1, d))
    else:
        d, q = case[:2]
        quants, points = _shape_cases(case)
        points = points[:: max(1, len(points) // 12)]  # every split costs d scalar calls
    for pt in points:
        for quant in quants:
            got = [float(mutual_information(pt, d, i, quant)).hex() for i in range(1, d + 1)]
            want = [float(capacity_reference.mutual_information(pt, d, i, quant)).hex()
                    for i in range(1, d + 1)]
            assert got == want, (pt, quant)
            assert np.array_equal(output_pmf(pt, d, quant),
                                  capacity_reference.output_pmf(pt, d, quant)), (pt, quant)


@pytest.mark.parametrize("i", [5, 10])
def test_wide_mutual_information_stays_within_the_block_cap(i):
    # the sums reach 0..10 000: masses indexed by every (lo, hi) pair would
    # take about 800 MB, and all 5 001 shifts of i = 5 at once about 200 MB
    pt, d = np.full(1001, 1 / 1001), 10
    quant = Quantizer((0, 3000, 7000, 10001))
    want = capacity_reference.mutual_information(pt, d, i, quant)
    tracemalloc.start()
    try:
        got = mutual_information(pt, d, i, quant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert float(got).hex() == float(want).hex()


def _scalar_scan(best, points, scale, d, quantizers):
    """_scan as it stood before the array evaluator: one scalar rate per
    (point, quantizer) pair, first strict maximum in row-major order, with
    the index of the winning quantizer."""
    for weights in points:
        pt = tuple(w / scale for w in weights)
        for k, quant in enumerate(quantizers):
            v = _scalar_rate(pt, d, quant)
            if v > best[0]:
                best = (v, k, pt, weights)
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
        got = _scan(start, _compositions(resolution, q), resolution, d, _edges(quants))
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


@pytest.mark.parametrize("argv", [["--Q", "1"], ["--grid-step", "0"], ["--dmax", "0"]])
def test_capacity_table_refuses_bad_input_without_a_traceback(argv):
    script = ROOT / "scripts" / "capacity_table.py"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(script), "--dmax", "1", *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("BadRange: ")
    assert "Traceback" not in out.stderr
