"""The recursive code against the frozenset construction it replaced, and
its decoder on sets of every size.

Only kappa = 3 has a printed golden matrix, so these pins are what catches a
wrong code at kappa >= 4.
"""

import numpy as np
import pytest

from sqgt.construct import lindstrom
from sqgt.decode import decode_lindstrom
from sqgt.errors import SqgtError
from sqgt.model import syndrome
from sqgt.rng import make_rng

from conftest import GOLDEN_LINDSTROM_CHAINS
from lindstrom_reference import reference_lindstrom

PAIRS = ((2, 1), (3, 1), (5, 2), (9, 2), (17, 3))  # (q, threshold step)


def _outcome(build):
    try:
        return build()
    except SqgtError as err:
        return type(err), str(err)


def _decodes_sampled_sets(C, params, seed):
    """Two sampled sets decode exactly; every decode checks each block's
    column range against its elimination equation."""
    rng = make_rng(seed)
    n = C.shape[1]
    for _ in range(2):
        planted = tuple(sorted(int(i) + 1 for i in rng.choice(n, int(rng.integers(n + 1)), replace=False)))
        assert decode_lindstrom(C, params, syndrome(C, planted, params.eta)) == planted


@pytest.mark.parametrize("kappa", range(1, 8))
@pytest.mark.parametrize("q, step", PAIRS)
def test_matrix_and_widths_match_reference(kappa, q, step):
    C_ref, widths_ref = reference_lindstrom(kappa, q, step)
    total = C_ref.shape[1]
    for n in sorted({1, 2, total // 3, total // 2, total - 1, total} & set(range(1, total + 1))):
        C, params = lindstrom(kappa, q, step, n=n)
        expected, _ = reference_lindstrom(kappa, q, step, n=n)
        assert np.array_equal(C, expected)
        assert C.dtype == expected.dtype
        _decodes_sampled_sets(C, params, seed=kappa * 1000 + n)


@pytest.mark.parametrize("kappa, q, step, chains", [
    (3, 9, 2, GOLDEN_LINDSTROM_CHAINS),
    (3, 5, 1, {4: [{2}], 6: [{3}], 7: [{2, 3}, {3}]}),
    (4, 9, 2, {11: [{2, 3}, {3}], 15: [{2, 3, 4}, {2, 4}, {4}]}),
    (5, 3, 1, {26: [{2, 3, 4}, {3, 4}, {4}], 31: [{2, 3, 4, 5}, {3, 4, 5}, {3, 5}, {5}]}),
    (6, 17, 3, {63: [[1, 3, 4, 5, 6], [1, 4, 5, 6], [1, 4, 6], [1, 6], [6]]}),
])
def test_given_chains_match_reference(kappa, q, step, chains):
    C, params = lindstrom(kappa, q, step, chains=chains)
    expected, _ = reference_lindstrom(kappa, q, step, chains=chains)
    assert np.array_equal(C, expected)
    _decodes_sampled_sets(C, params, seed=kappa)
    assert not np.array_equal(C, lindstrom(kappa, q, step)[0])


@pytest.mark.parametrize("chains", [
    {7: [{1, 2, 3}, {1}]},  # wrong sizes
    {7: [{1, 2}]},
    {7: [{1, 4}, {1}]},  # an element outside 1..kappa
    {7: [{0, 1}, {1}]},
    {7: [{-1, 1}, {1}]},
    {7: [{1, 10**30}, {1}]},
    {7: [{1, 2}, {0}]},
    {7: [{1, 2}, {-5}]},
    {7: [{1, 2}, {3}]},  # not nested
    {6: [{4}]},
    {5: [{2}]},
    {1: [{1}]},
    {7: [[1, 1, 2], [2]]},  # element iterables: duplicates, integral
    {7: [[1.5, 2], [1]]},  # values and strings of digits as before
    {7: ["23", "3"]},
    {8: [{1}], 0: [{1}]},  # no such block: ignored
])
@pytest.mark.parametrize("kappa", [3, 4])
def test_chain_outcomes_match_reference(kappa, chains):
    """The same matrix or the same BadRange, class and message, as before."""
    got = _outcome(lambda: lindstrom(kappa, 9, 2, chains=chains)[0])
    expected = _outcome(lambda: reference_lindstrom(kappa, 9, 2, chains=chains)[0])
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("kappa", range(1, 7))
@pytest.mark.parametrize("q, step", [(2, 1), (9, 2)])
def test_decode_recovers_every_size(kappa, q, step):
    """One sampled set of every size 0..n decodes exactly."""
    C, params = lindstrom(kappa, q, step)
    n = C.shape[1]
    rng = make_rng(kappa * 100 + q)
    for size in range(n + 1):
        planted = tuple(sorted(int(i) + 1 for i in rng.choice(n, size, replace=False)))
        assert decode_lindstrom(C, params, syndrome(C, planted, params.eta)) == planted
