"""The number-theoretic construction against the block it replaced: the same
field polynomial, Bose-Chowla set, prime and code matrix, or the same error
class with the same message.

The Bose-Chowla grid covers every L from -2 to 59 plus three larger primes
with d from 0 to 5 while L^d stays small enough for the discrete-log walk,
and a few cases that stop at the prime and overflow checks. It reaches
degree 4 and 5 fields whose first root-free polynomial is reducible, so a
search that only tests for roots gives a different field there.
"""

import pytest

import nt_reference
from sqgt import construct

LIMIT = 101**2
BOSE_CHOWLA = [
    (L, d)
    for L in [*range(-2, 60), 97, 101, 2147483647]
    for d in range(6)
    if abs(L) ** d <= LIMIT
] + [(4, 40), (2, 63), (2147483647, 3)]
IRREDUCIBLE = [(2, 16), (3, 10), (5, 6), (7, 5), (2, 13), (3, 8), (11, 4)]
CODES = [
    (n, d, q, step)
    for n in range(2, 14)
    for d in (2, 3)
    for q, step in ((7, 2), (13, 3), (5, 1), (3, 1), (2, 1))
]
ROOT_FREE_REDUCIBLE = [(3, 4), (5, 4), (7, 4), (2, 5)]


def _run(module, name, *args):
    """What module.name(*args) returns, or its error class and message."""
    try:
        out = getattr(module, name)(*args)
    except Exception as exc:  # the error class and message are the outcome
        return type(exc).__name__, str(exc)
    if name == "bose_chowla_code":
        C, params = out
        return C.tolist(), C.dtype, C.flags.c_contiguous, params
    return out


def _outcome(name, *args):
    return _run(construct, name, *args), _run(nt_reference, name, *args)


@pytest.mark.parametrize("L,d", BOSE_CHOWLA)
def test_bose_chowla(L, d):
    got, want = _outcome("bose_chowla", L, d)
    assert got == want


@pytest.mark.parametrize("L,d", IRREDUCIBLE)
def test_find_irreducible(L, d):
    got, want = _outcome("_find_irreducible", L, d)
    assert got == want


def test_smallest_prime_at_least():
    for n in range(-3, 200):
        got, want = _outcome("smallest_prime_at_least", n)
        assert got == want


@pytest.mark.parametrize("n,d,q,step", CODES)
def test_bose_chowla_code(n, d, q, step):
    got, want = _outcome("bose_chowla_code", n, d, q, step)
    assert got == want


@pytest.mark.parametrize("L,d", ROOT_FREE_REDUCIBLE)
def test_first_root_free_polynomial_is_reducible(L, d):
    # every irreducible polynomial of degree >= 2 is root-free, so the first
    # root-free one in scan order is reducible exactly when it is not the
    # first irreducible one
    assert (L, d) in BOSE_CHOWLA
    scan = (
        tuple(code // L**i % L for i in range(d)) + (1,) for code in range(1, L**d)
    )
    root_free = next(
        f for f in scan
        if all(sum(c * a**i for i, c in enumerate(f)) % L for a in range(L))
    )
    assert root_free != construct._find_irreducible(L, d)


def test_grid_reaches_every_error():
    outcomes = [_run(construct, "bose_chowla", L, d) for L, d in BOSE_CHOWLA]
    kinds = {o[0] for o in outcomes if isinstance(o[0], str)}
    assert kinds == {"BadRange", "NotPrime", "Overflow"}
