"""Verifier tests, including an independently coded slow oracle the fast
enumeration is cross-checked against."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sqgt.errors import ExplosionGuard, NotBinary, TooFewColumns
from sqgt.model import CodeParams, sq_sum
from sqgt.verify import (
    Witness,
    _colex_array,
    _row_codes,
    _subset_chunks,
    is_binary_disjunct_cgt,
    is_binary_separable_cgt,
    is_binary_separable_qgt,
    is_sq_disjunct,
    is_sq_separable,
)

from conftest import BASE_7x8, BASE_9x12
from verify_reference import colex_combinations


def slow_sq_disjunct(C, params):
    """Independent brute-force oracle: plain loops, no vectorization."""
    C = np.asarray(C)
    m, n = C.shape
    d, e = params.u, params.e
    for subset in combinations(range(n), d + 1):
        for pivot in subset:
            rest = [j for j in subset if j != pivot]
            own = sq_sum([C[:, pivot]], params.eta)
            other = sq_sum([C[:, j] for j in rest], params.eta)
            count = sum(1 for k in range(m) if own[k] > other[k])
            if count < 2 * e + 1:
                return False
    return True


class TestSqDisjunct:
    def test_scaled_base_passes(self, base_9x12):
        C = 2 * base_9x12
        params = CodeParams(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=1, u=2, e=0)
        assert is_sq_disjunct(C, params) is None

    def test_duplicate_columns_witnessed(self):
        C = np.array([[2, 2], [0, 0], [2, 2]])
        params = CodeParams.equidistant(3, 2, 1, 1)
        w = is_sq_disjunct(C, params)
        assert isinstance(w, Witness)

    def test_agrees_with_independent_oracle(self):
        rng = np.random.default_rng(7)
        params = CodeParams.equidistant(3, 1, 1, 2)
        for _ in range(12):
            C = rng.integers(0, 3, size=(5, 8))
            fast = is_sq_disjunct(C, params) is None
            assert fast == slow_sq_disjunct(C, params)

    def test_binary_matrix_with_high_threshold_fails(self):
        # no binary code can be SQ-disjunct once the first threshold is 2
        rng = np.random.default_rng(3)
        C = rng.integers(0, 2, size=(8, 6))
        params = CodeParams(q=2, Q=2, eta=(0, 2, 5), l=1, u=2, e=0)
        assert isinstance(is_sq_disjunct(C, params), Witness)

    def test_too_few_columns(self):
        params = CodeParams.equidistant(3, 1, 1, 3)
        with pytest.raises(TooFewColumns):
            is_sq_disjunct(np.eye(3, dtype=int), params)

    def test_error_budget_vs_rows(self):
        params = CodeParams.equidistant(3, 1, 1, 1, e=2)
        w = is_sq_disjunct(np.eye(2, 3, dtype=int) * 2, params)
        assert isinstance(w, Witness) and "rows" in w.detail

    def test_budget_guard(self):
        params = CodeParams.equidistant(3, 1, 1, 3)
        with pytest.raises(ExplosionGuard):
            is_sq_disjunct(np.ones((4, 30), dtype=int), params, budget=10)

    def test_witness_is_deterministic(self):
        C = np.array([[1, 1, 1], [1, 1, 1]])
        params = CodeParams.equidistant(2, 1, 1, 1)
        w1 = is_sq_disjunct(C, params)
        w2 = is_sq_disjunct(C, params)
        assert w1.sets == w2.sets == ((1, 2), (1,))

    def test_monotone_in_d_and_e(self, base_9x12):
        C = 4 * base_9x12
        for d, e in ((2, 0), (1, 0)):
            params = CodeParams.equidistant(5, 2, 1, d, e)
            assert is_sq_disjunct(C, params) is None


class TestSqSeparable:
    def test_disjunct_implies_separable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            C = rng.integers(0, 4, size=(6, 7))
            pd = CodeParams.equidistant(4, 1, 1, 2)
            if is_sq_disjunct(C, pd) is None:
                assert is_sq_separable(C, pd) is None

    def test_golden_9x24(self, base_9x12):
        C = np.hstack([2 * base_9x12, 6 * base_9x12])
        assert is_sq_separable(C, CodeParams.equidistant(7, 2, 1, 2)) is None

    def test_golden_7x16(self, base_7x8):
        C = np.hstack([2 * base_7x8, 6 * base_7x8])
        assert is_sq_separable(C, CodeParams.equidistant(7, 2, 1, 2)) is None

    def test_low_threshold_necessary_condition(self):
        # l*(q-1) < eta_1 forces identical all-zero syndromes
        rng = np.random.default_rng(5)
        C = rng.integers(0, 2, size=(6, 6))
        params = CodeParams(q=2, Q=2, eta=(0, 3, 7), l=1, u=2, e=0)
        w = is_sq_separable(C, params)
        assert isinstance(w, Witness)

    def test_explosion_guard(self):
        params = CodeParams.equidistant(3, 1, 1, 4)
        with pytest.raises(ExplosionGuard):
            is_sq_separable(np.ones((3, 40), dtype=int), params, budget=100)

    def test_error_distance_counted(self, base_9x12):
        # tripling rows turns an e=0 code into an e=1 code
        C = np.repeat(2 * base_9x12, 3, axis=0)
        params = CodeParams.equidistant(3, 2, 1, 2, e=1)
        assert is_sq_separable(C, params) is None
        # columns at syndrome distance 1 pass e=0 but are witnessed at e=1
        close = np.array([[2, 2], [2, 0], [0, 0]])
        assert is_sq_separable(close, CodeParams.equidistant(3, 2, 1, 1, e=0)) is None
        w = is_sq_separable(close, CodeParams.equidistant(3, 2, 1, 1, e=1))
        assert isinstance(w, Witness) and "differ in 1" in w.detail


class TestBinaryVerifiers:
    def test_base_9x12_is_2_disjunct(self, base_9x12):
        assert is_binary_disjunct_cgt(base_9x12, 2, 0) is None

    def test_identity_is_fully_disjunct(self):
        n = 6
        assert is_binary_disjunct_cgt(np.eye(n, dtype=int), n - 1, 0) is None

    def test_duplicated_column_fails(self):
        C = np.ones((3, 2), dtype=int)
        assert isinstance(is_binary_disjunct_cgt(C, 1, 0), Witness)

    def test_base_7x8_is_2_separable(self, base_7x8):
        assert is_binary_separable_cgt(base_7x8, 2, 0) is None

    def test_disjunct_implies_separable_cgt(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            C = rng.integers(0, 2, size=(7, 7))
            if is_binary_disjunct_cgt(C, 2, 0) is None:
                assert is_binary_separable_cgt(C, 2, 0) is None

    def test_equal_columns_fail_cgt(self):
        C = np.array([[1, 1], [0, 0], [1, 1]])
        assert isinstance(is_binary_separable_cgt(C, 1, 0), Witness)

    def test_qgt_two_singletons(self):
        C = np.array([[1, 0], [0, 1]])
        assert is_binary_separable_qgt(C, 2, 0) is None

    def test_qgt_duplicate_fails(self):
        C = np.array([[1, 1], [1, 1]])
        assert isinstance(is_binary_separable_qgt(C, 1, 0), Witness)

    def test_min_size_restricts_set_sizes(self):
        # column 3 is both the OR and the sum of columns 1 and 2
        C = np.array([[1, 0, 1], [0, 1, 1]])
        assert is_binary_separable_cgt(C, 2).sets == ((3,), (1, 2))
        assert is_binary_separable_cgt(C, 2, min_size=2).sets == ((1, 2), (1, 3))
        assert is_binary_separable_qgt(C, 2).sets == ((3,), (1, 2))
        assert is_binary_separable_qgt(C, 2, min_size=2) is None

    def test_not_binary(self):
        with pytest.raises(NotBinary):
            is_binary_disjunct_cgt(np.full((2, 3), 2), 1, 0)


def test_colex_order():
    got = [tuple(row) for row in _colex_array(4, 2).tolist()]
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_subset_chunks_match_generator(chunk):
    for n in range(1, 10):
        for k in range(1, n + 1):
            parts = list(_subset_chunks(n, k, chunk))
            assert all(1 <= len(p) <= chunk for p in parts)
            got = [tuple(row) for p in parts for row in p.tolist()]
            assert got == list(colex_combinations(n, k))


def _assert_codes_match_rows(A):
    codes = _row_codes(A)
    rows = [tuple(r) for r in A.tolist()]
    assert codes.dtype == np.int64 and codes.shape == (len(rows),)
    assert (codes[:, None] == codes[None, :]).tolist() == [[r == s for s in rows] for r in rows]
    assert np.argsort(codes, kind="stable").tolist() == sorted(range(len(rows)), key=rows.__getitem__)


@st.composite
def _repeating_rows(draw):
    """A nonnegative int64 array with 0-12 rows, often repeated, and 0-48
    columns, its entries drawn from a few values up to 1, 255, 256, 2^20 or
    2^62."""
    top = draw(st.sampled_from([1, 255, 256, 1 << 20, 1 << 62]))
    values = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 48)))
    distinct = draw(hnp.arrays(np.int64, shape, elements=st.sampled_from(values)))
    return distinct[draw(st.lists(st.integers(0, shape[0] - 1), max_size=12))]


@settings(max_examples=300, deadline=None)
@given(_repeating_rows())
def test_row_codes_are_equal_for_equal_rows_and_sort_lexicographically(A):
    _assert_codes_match_rows(A)


@pytest.mark.parametrize("top, cols", [(1 << 62, 3), ((1 << 63) - 1, 2), (1 << 20, 45), (1, 130)])
def test_row_codes_stay_exact_where_the_columns_outgrow_62_bits(top, cols):
    # 45 columns at base 2^20 + 1 and 130 at base 2 fold in over several
    # runs with the codes ranked between them, and entries up to 2^62 or
    # 2^63 - 1 have their values ranked first; rows that differ only in the last column
    # or two must still get codes of their own
    rng = np.random.default_rng(cols)
    A = rng.integers(0, top, size=(5, cols), endpoint=True)
    A = np.vstack([A, A[[0, 0, 1]]])
    A[6, -1] ^= 1  # row 6 differs from row 0 in the last column only
    _assert_codes_match_rows(A)
    assert len(set(_row_codes(A).tolist())) == len({tuple(r) for r in A.tolist()}) == 6


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0)])
def test_row_codes_of_empty_arrays(shape):
    # no columns: every row is the empty row, so all codes are equal
    assert _row_codes(np.zeros(shape, dtype=np.int64)).tolist() == [0] * shape[0]
