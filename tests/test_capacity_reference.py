"""capacity_search against the two hand-written scans it replaced: the same
distribution, quantizer and bits, or the same error class with the same
message, after the same number of rate_objective calls.

Both searches call rate_objective with the same arguments, so its values
are computed once per (distribution, d, quantizer) and shared; each call
is still counted.
"""

from itertools import product

import pytest

import capacity_reference
import sqgt.capacity
from sqgt.capacity import _compositions, capacity_search, rate_objective

from capacity_reference import reference_capacity_search

BUDGETS = (10_000_000, 200)
GRID = list(product((1, 2, 3), (2, 3), (1, 2, 3), (1.5, 1.0, 0.5, 0.25, 0.2), (True, False), BUDGETS))
_VALUES = {}


def _outcome(search, module, monkeypatch, d, q, Q, step, refine, budget):
    """(result or error, rate_objective calls), counted through the module
    global the search looks up."""
    calls = []

    def counted(*args):
        calls.append(args)
        if args not in _VALUES:
            _VALUES[args] = rate_objective(*args)
        return _VALUES[args]

    with monkeypatch.context() as patch:
        patch.setattr(module, "rate_objective", counted)
        try:
            pt, quant, bits = search(d, q, Q, grid_step=step, budget=budget, refine=refine)
            result = pt, str(quant), bits
        except Exception as exc:  # the error class and message are the outcome
            result = type(exc).__name__, str(exc)
    return result, len(calls)


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_matches_reference(monkeypatch, case):
    got = _outcome(capacity_search, sqgt.capacity, monkeypatch, *case)
    want = _outcome(reference_capacity_search, capacity_reference, monkeypatch, *case)
    assert got == want


def test_grid_covers_the_edge_cases(monkeypatch):
    outcomes = {case: _outcome(capacity_search, sqgt.capacity, monkeypatch, *case)[0]
                for case in GRID}
    kinds = {o[0] for o in outcomes.values() if isinstance(o[0], str)}
    assert kinds == {"BudgetExceeded", "BadPartition"}
    # q = 2, Q = 1: every pair ties at 0 bits, so the first grid point wins
    ties = [o for (_, q, Q, *_), o in outcomes.items()
            if q == 2 and Q == 1 and not isinstance(o[0], str)]
    assert ties and all(o[0] == (0.0, 1.0) and o[2] == 0.0 for o in ties)
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
