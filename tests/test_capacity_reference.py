"""capacity_search against the two hand-written scans it replaced: the same
distribution, quantizer and bits, or the same error class with the same
message, after evaluating the same number of (distribution, quantizer)
pairs: the (point, quantizer) cells of _objective_table's tables against
the reference's rate_objective calls. The reference's rate_objective is the
minimum over every split, so every result also pins the full-split
objective against it; Q = 1 pins the refusal of a one-region quantizer.

The reference's rate_objective values are computed once per (distribution,
d, quantizer) and shared between cases; each call is still counted.
"""

from itertools import product

import pytest

import capacity_reference
import sqgt.capacity
from sqgt.capacity import _compositions, _objective_table, capacity_search

from capacity_reference import reference_capacity_search, rate_objective

BUDGETS = (10_000_000, 200)
GRID = list(product((1, 2, 3), (2, 3), (1, 2, 3, 4), (1.5, 1.0, 0.5, 0.25, 0.2), (True, False), BUDGETS))
_VALUES = {}


def _outcome(search, module, monkeypatch, d, q, Q, step, refine, budget):
    """(result or error, pairs evaluated), counted through the module global
    the search looks up: _objective_table in sqgt.capacity, rate_objective
    in the reference."""
    evaluated = [0]

    def counted_table(points, d, edges):
        evaluated[0] += len(points) * len(edges)
        return _objective_table(points, d, edges)

    def counted_objective(*args):
        evaluated[0] += 1
        if args not in _VALUES:
            _VALUES[args] = rate_objective(*args)
        return _VALUES[args]

    with monkeypatch.context() as patch:
        if module is sqgt.capacity:
            patch.setattr(module, "_objective_table", counted_table)
        else:
            patch.setattr(module, "rate_objective", counted_objective)
        try:
            pt, quant, bits = search(d, q, Q, grid_step=step, budget=budget, refine=refine)
            result = pt, str(quant), bits
        except Exception as exc:  # the error class and message are the outcome
            result = type(exc).__name__, str(exc)
    return result, evaluated[0]


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_matches_reference(monkeypatch, case):
    got = _outcome(capacity_search, sqgt.capacity, monkeypatch, *case)
    want = _outcome(reference_capacity_search, capacity_reference, monkeypatch, *case)
    assert got == want


def test_grid_covers_the_edge_cases(monkeypatch):
    outcomes = {case: _outcome(capacity_search, sqgt.capacity, monkeypatch, *case)[0]
                for case in GRID}
    kinds = {o[0] for o in outcomes.values() if isinstance(o[0], str)}
    assert kinds == {"BudgetExceeded", "BadPartition", "BadRange"}
    # Q = 1 is refused, whatever the other arguments
    assert all(o[0] == "BadRange" for (_, _, Q, *_), o in outcomes.items() if Q == 1)
    # a refine point beats the best grid point
    assert any(
        not isinstance(o[0], str) and o[2] > outcomes[(*case[:4], False, case[5])][2]
        for case, o in outcomes.items() if case[4]
    )


@pytest.mark.parametrize("parts", range(1, 5))
@pytest.mark.parametrize("total", range(7))
def test_compositions_are_lexicographic(total, parts):
    want = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
    assert list(_compositions(total, parts)) == want
