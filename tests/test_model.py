import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgt.errors import (
    BadRange,
    BadThreshold,
    LengthMismatch,
    SentinelTooSmall,
    SumOutOfRange,
    ThresholdNotIncreasing,
)
from sqgt.model import (
    NOISELESS,
    CodeParams,
    NoiseModel,
    apply_noise,
    check_matrix,
    includes,
    likelihood,
    quantize_sums,
    sq_sum,
    syndrome,
    validate_params,
)

from channel_reference import channel_matrix


class TestValidateParams:
    def test_reference_params_ok(self):
        validate_params(CodeParams(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=1, u=3, e=0))

    def test_duplicate_threshold(self):
        with pytest.raises(ThresholdNotIncreasing):
            validate_params(CodeParams(q=3, Q=4, eta=(0, 2, 2, 5, 7), l=1, u=3))

    def test_sentinel_too_small(self):
        # (q-1)*u = 6 >= 5
        with pytest.raises(SentinelTooSmall):
            validate_params(CodeParams(q=3, Q=2, eta=(0, 2, 5), l=1, u=3))

    def test_bad_range(self):
        with pytest.raises(BadRange):
            validate_params(CodeParams(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=2, u=1))

    def test_nonzero_first_threshold(self):
        with pytest.raises(ThresholdNotIncreasing):
            validate_params(CodeParams(q=3, Q=4, eta=(1, 2, 3, 5, 7), l=1, u=3))

    def test_small_alphabets_rejected(self):
        with pytest.raises(BadRange):
            validate_params(CodeParams(q=1, Q=4, eta=(0, 2, 3, 5, 7), l=1, u=1))

    @pytest.mark.parametrize("fields, error", [
        (dict(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=2, u=1), BadRange),
        (dict(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=1, u=3, e=-1), BadRange),
        (dict(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=0, u=3), BadRange),
        (dict(q=3, Q=4, eta=(0, 2, 3, 5), l=1, u=3), ThresholdNotIncreasing),
        (dict(q=3, Q=2, eta=(0, 2, 5), l=1, u=3), SentinelTooSmall),
    ])
    def test_refused_as_it_is_built(self, fields, error):
        with pytest.raises(error):
            CodeParams(**fields)

    @pytest.mark.parametrize("l, u, e", [(3, 2, 0), (1, 2, -1), (0, 2, 0)])
    def test_equidistant_builder_refuses_a_bad_range(self, l, u, e):
        with pytest.raises(BadRange):
            CodeParams.equidistant(5, 1, l, u, e)

    @pytest.mark.parametrize("fields, name", [
        # format_matrix wrote q=3.5, which parse_matrix refuses
        (dict(q=3.5, Q=3, eta=(0, 1, 2, 3)), "q"),
        (dict(q=3, Q=3.0, eta=(0, 1, 3, 4)), "Q"),
        # decode_disjunct read this bracket as (0, 1, 3, 4)
        (dict(q=3, Q=3, eta=(0, 1.5, 3, 4)), "eta_1"),
        (dict(q=3, Q=3, eta=(0.0, 1, 3, 4)), "eta_0"),
        (dict(q=3, Q=3, eta=(False, 1, 3, 4)), "eta_0"),
        (dict(q=3, Q=3, eta=(0, 1, 3, np.float64(4))), "eta_3"),
        (dict(q=3, Q=3, eta=(0, 1, 3, 4), l=True), "l"),
        (dict(q=3, Q=3, eta=(0, 1, 3, 4), u=1.0), "u"),
        (dict(q=3, Q=3, eta=(0, 1, 3, 4), e="0"), "e"),
    ])
    def test_non_integer_fields_refused(self, fields, name):
        with pytest.raises(BadRange, match=f"^{name} must be an integer, got "):
            CodeParams(**fields)

    def test_numpy_integer_fields_pass(self):
        p = CodeParams(np.int64(3), np.int32(3), tuple(np.array([0, 1, 3, 4])),
                       np.int8(1), np.uint16(1), np.int64(0))
        assert str(p) == "[3;3;(0,1,3,4);(1:1);0]"

    def test_equidistant_flag(self):
        assert CodeParams.equidistant(7, 2, 1, 2).step == 2
        with pytest.raises(BadThreshold, match="eta_2=3, step 2 needs 4"):
            CodeParams(q=3, Q=4, eta=(0, 2, 3, 5, 7), l=1, u=3).step

    def test_equidistant_builder_sentinel(self):
        p = CodeParams.equidistant(7, 2, 1, 2)
        validate_params(p)
        assert p.Q == 7 and p.eta[-1] == 14


class TestCheckMatrix:
    def test_integral_floats_pass(self):
        C = check_matrix([[1.0, 0.0], [2.0, 3.0]], 4)
        assert C.dtype == np.int64 and C.tolist() == [[1, 0], [2, 3]]

    @pytest.mark.parametrize("C", [
        [[0.5, 1]], [[1.0, -0.5]], [[np.nan, 1]], [[np.inf, 0]], [[1e300, 0]],
        [[1, 2], [3]], [["a", 1]], [[1j, 0]], [[None, 1]],
        # numpy parses digit strings as numbers
        [["1", "2"]], [[b"1", b"0"]], np.array([[1, "2"]], dtype=object),
        np.array([[1, b"0"]], dtype=object), np.array([[np.str_("1"), 0]], dtype=object),
    ])
    def test_non_integers_refused(self, C):
        with pytest.raises(BadRange):
            check_matrix(C)


class TestIntegersPastInt64:
    """numpy types [2^63] as uint64, [2^63, 1] as float64 and [2^70] as
    object; each entry is named as the integer it is, never wrapped to
    -2^63 or printed as 9.223372036854776e+18."""

    @staticmethod
    def _outside(what, value):
        return f"^{re.escape(f'{what} must be integers in -2^63..2^63-1, got {value}')}$"

    @pytest.mark.parametrize("subjects, named", [
        ([2**63], 2**63),
        ([2**63, 1], 2**63),
        ([1, 2**64 - 1], 2**64 - 1),
        ([2**63 - 1, 2**63], 2**63),  # both make the float 2^63
        ([2**70], 2**70),
        ([-(2**63) - 1, 1], -(2**63) - 1),
        (np.array([2**63], dtype=np.uint64), 2**63),
        ([1e19], 1e19),
    ])
    def test_subject_indices(self, subjects, named):
        with pytest.raises(BadRange, match=self._outside("subject indices", named)):
            syndrome([[1, 2, 4]], subjects, tuple(range(9)))

    def test_matrix_entries_and_syndrome_values(self):
        with pytest.raises(BadRange, match=self._outside("matrix entries", 2**64)):
            check_matrix([[1, 2**64]])
        with pytest.raises(BadRange, match=self._outside("syndrome values", 2**64 - 1)):
            apply_noise([2**64 - 1, 0], 3, NOISELESS, 0)

    def test_integers_inside_int64_are_read_exactly(self):
        # a float64 cast rounded 2^62 + 1 to 2^62
        big = 2**62 + 1
        for C in ([[big, 1.0]], np.array([[big, 1]], dtype=object), np.array([[2**63 - 1]], dtype=np.uint64)):
            got = check_matrix(C)
            assert got.dtype == np.int64 and got.tolist() == np.asarray(C, dtype=object).tolist()


class TestSqSum:
    def test_threshold_lookup(self):
        # sums (4, 3) against thresholds [0,2,3,5,7]
        out = sq_sum([(2, 1), (2, 2)], (0, 2, 3, 5, 7))
        assert out.tolist() == [2, 2]

    def test_empty_set_is_zero(self):
        assert sq_sum([], (0, 2, 3, 5, 7), m=4).tolist() == [0, 0, 0, 0]

    def test_empty_set_needs_length(self):
        with pytest.raises(LengthMismatch):
            sq_sum([], (0, 2, 3, 5, 7))

    def test_equidistant_floor(self):
        out = sq_sum([(2,), (3,)], (0, 2, 4, 6))
        assert out.tolist() == [5 // 2]

    def test_sum_out_of_range(self):
        with pytest.raises(SumOutOfRange):
            sq_sum([(4,), (4,)], (0, 2, 4, 6))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sq_sum([(1, 2), (1,)], (0, 1, 9))

    def test_sums_past_int64_are_out_of_range(self):
        # no bracket bounds these sums: 4 x 2^62 wrapped to 0, bucket 0
        with pytest.raises(SumOutOfRange, match=f"^coordinate sum {2**64} reached sentinel 2$"):
            sq_sum([[2**62]] * 4, (0, 1, 2))
        with pytest.raises(SumOutOfRange, match=f"^coordinate sum {2**63} reached sentinel 2$"):
            syndrome([[2**62, 2**62]], [1, 2], (0, 1, 2))
        # columns that each stay inside int64 sum exactly
        sentinel = 2**63 - 1
        assert syndrome([[2**62, 0], [0, 2**62]], [1, 2], (0, 1, sentinel)).tolist() == [1, 1]
        assert sq_sum([[2**62, 3], [2**62 - 2, 4]], (0, 7, sentinel)).tolist() == [1, 1]

    def test_negative_codeword_refused(self):
        # the sum -4 took the bucket -1
        with pytest.raises(BadRange, match="^codeword entries must be nonnegative$"):
            sq_sum([[-5, 1], [0, 0]], (0, 2, 4))

    def test_non_integer_codewords_refused(self):
        assert sq_sum([[1.0], [0.0]], (0, 1, 3)).tolist() == [1]
        with pytest.raises(BadRange, match="codeword entries must be integers, got 0.5"):
            sq_sum([[0.5], [0.6]], (0, 1, 3))
        with pytest.raises(BadRange, match="^codeword entries must be integers$"):
            sq_sum([["1"], ["0"]], (0, 1, 3))

    def test_syndrome_refuses_a_non_integer_matrix(self):
        assert syndrome([[1.0, 1.0]], [1, 2], (0, 1, 3)).tolist() == [1]
        with pytest.raises(BadRange, match="matrix entries must be integers, got 0.5"):
            syndrome([[0.5, 1.7]], [1, 2], (0, 1, 3))

    @pytest.mark.parametrize("subjects", [
        [1.5], [2, 2.5], [True], [np.True_, 2], np.array([True]), [[1, 2]], ["3"], [b"3"],
    ])
    def test_syndrome_refuses_non_integer_subjects(self, subjects):
        # a cast would take 1.5 and True for subject 1
        with pytest.raises(BadRange, match="subject indices must be"):
            syndrome([[1, 2, 4]], subjects, tuple(range(9)))

    def test_syndrome_takes_integral_subjects(self):
        assert syndrome([[1, 2, 4]], [3.0, np.int64(1), 3], tuple(range(9))).tolist() == [5]

    @given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=5), st.integers(1, 3))
    def test_equidistant_matches_floor_formula(self, vecs, step):
        Q = (3 * len(vecs)) // step + 1
        eta = tuple(r * step for r in range(Q + 1))
        out = sq_sum(vecs, eta)
        assert out.tolist() == (np.sum(vecs, axis=0) // step).tolist()

    @given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=4))
    def test_monotone_under_extension(self, vecs):
        eta = tuple(range(3 * 5 + 2))
        partial = sq_sum(vecs[:-1], eta, m=3)
        full = sq_sum(vecs, eta)
        assert includes(partial, full)

    def test_cgt_reduction_is_boolean_or(self):
        rng = np.random.default_rng(0)
        C = rng.integers(0, 2, size=(6, 10))
        eta = (0, 1, 11)
        for _ in range(20):
            subjects = [int(i) + 1 for i in rng.choice(10, rng.integers(0, 5), replace=False)]
            got = syndrome(C, subjects, eta)
            want = np.zeros(6, dtype=int) if not subjects else np.bitwise_or.reduce(C[:, [s - 1 for s in subjects]], axis=1)
            assert got.tolist() == want.tolist()

    def test_qgt_reduction_is_arithmetic_sum(self):
        rng = np.random.default_rng(1)
        C = rng.integers(0, 3, size=(5, 8))
        d = 3
        eta = tuple(range(d * 2 + 2))
        for _ in range(20):
            subjects = [int(i) + 1 for i in rng.choice(8, d, replace=False)]
            got = syndrome(C, subjects, eta)
            assert got.tolist() == C[:, [s - 1 for s in subjects]].sum(axis=1).tolist()


class TestQuantizeSums:
    """The table lookup against one binary search per element."""

    ETA = (0, 2, 3, 5, 7)

    @staticmethod
    def _search(sums, eta):
        return np.searchsorted(np.asarray(eta), np.asarray(sums, dtype=np.int64), side="right") - 1

    @pytest.mark.parametrize("sums", [
        [],
        np.zeros((0, 3), dtype=int),
        [-3, 0, 1, 2, 6],  # negative sums
        [0, 1, 2, 3, 4, 5, 6],  # max == size - 1: the lookup path
        [0, 1, 2, 3, 4, 5, 6, 6, 6, 6, 6, 6, 6],
        [1, 2, 3, 4, 5, 6],  # max == size: the search path
        [[6, 0, 1], [2, 5, 3]],
        5,  # a 0-d sum
    ])
    def test_matches_searchsorted(self, sums):
        got = quantize_sums(sums, self.ETA)
        want = self._search(sums, self.ETA)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("sums", [[7, 0, 1, 2, 3, 4, 5, 6, 8, 9], [9, 7], [-1, 7, 30]])
    def test_above_sentinel_unchecked(self, sums):
        with pytest.raises(SumOutOfRange):
            quantize_sums(sums, self.ETA)

    @pytest.mark.parametrize("sums, top", [
        ([2**63], 2**63),  # a bare OverflowError from the int64 cast
        ([1, 2**64], 2**64),
        (np.array([0, 2**63], dtype=np.uint64), 2**63),
        ([1e19], 1e19),
    ])
    def test_sums_past_int64_reach_the_sentinel(self, sums, top):
        with pytest.raises(SumOutOfRange, match=f"^{re.escape(f'coordinate sum {top} reached sentinel 7')}$"):
            quantize_sums(sums, self.ETA)

    @pytest.mark.parametrize("sums", [[1.7], [0, 2.5], [float("nan")], [-(2**64)], ["1"], [b"1"]])
    def test_sums_that_are_not_int64_integers_refused(self, sums):
        # 1.7 was truncated to the bucket of 1
        with pytest.raises(BadRange, match="^sums must be integers"):
            quantize_sums(sums, self.ETA)

    def test_integral_floats_pass(self):
        assert quantize_sums([1.0, 6.0], self.ETA).tolist() == [0, 3]

    def test_random_against_searchsorted(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            eta = np.cumsum(rng.integers(1, 5, size=int(rng.integers(2, 8))))
            eta = (0, *eta.tolist())
            sums = rng.integers(-2, eta[-1], size=tuple(rng.integers(0, 6, size=2)))
            assert np.array_equal(quantize_sums(sums, eta), self._search(sums, eta))


class TestIncludes:
    def test_reflexive(self):
        assert includes((0, 1, 2), (0, 1, 2))

    def test_incomparable(self):
        assert not includes((1, 0), (0, 1))
        assert not includes((0, 1), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            includes((1,), (1, 2))

    @given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=2, max_size=4))
    def test_subset_implies_inclusion(self, vecs):
        eta = tuple(range(3 * 5 + 2))
        assert includes(sq_sum(vecs[:1], eta), sq_sum(vecs, eta))

    @given(
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
    )
    def test_partial_order(self, a, inc1, inc2):
        b = [x + y for x, y in zip(a, inc1)]
        c = [x + y for x, y in zip(b, inc2)]
        assert includes(a, b) and includes(b, c) and includes(a, c)
        if includes(b, a):
            assert b == list(a)


class TestApplyNoise:
    def test_noiseless_identity(self):
        y = np.array([0, 1, 2, 3])
        assert apply_noise(y, 4, NOISELESS, 0).tolist() == y.tolist()

    def test_zero_never_moves_down(self):
        y = np.zeros(1000, dtype=int)
        out = apply_noise(y, 4, NoiseModel(gamma_p=0.0, gamma_n=1.0), 1)
        assert not out.any()

    def test_stays_in_range(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=2000)
        out = apply_noise(y, 4, NoiseModel(0.4, 0.5), 3)
        assert out.min() >= 0 and out.max() <= 3

    def test_non_integer_syndrome_refused(self):
        assert apply_noise([1.0, 2.0], 3, NOISELESS, 0).tolist() == [1, 2]
        for y in ([0.9, 1.2], [1, float("nan")], ["1"], [b"1", b"0"]):
            with pytest.raises(BadRange, match="syndrome values must be integers"):
                apply_noise(y, 3, NOISELESS, 0)

    def test_deterministic_per_seed(self):
        y = np.arange(5) % 3
        a = apply_noise(y, 3, NoiseModel(0.2, 0.3), 42)
        b = apply_noise(y, 3, NoiseModel(0.2, 0.3), 42)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(BadRange, match="seed must be a non-negative integer"):
            apply_noise(np.arange(5) % 3, 3, NoiseModel(0.2, 0.3), seed)

    def test_numpy_integer_and_generator_seeds(self):
        y = np.arange(5) % 3
        a = apply_noise(y, 3, NoiseModel(0.2, 0.3), 42)
        assert apply_noise(y, 3, NoiseModel(0.2, 0.3), np.int64(42)).tolist() == a.tolist()
        rng = np.random.default_rng(42)
        assert apply_noise(y, 3, NoiseModel(0.2, 0.3), rng).tolist() == a.tolist()

    @settings(deadline=None)
    @given(st.floats(0.05, 0.4), st.floats(0.05, 0.4))
    def test_invalid_model_rejected(self, gp, gn):
        with pytest.raises(BadRange):
            NoiseModel(gamma_p=0.7 + gp, gamma_n=0.7 + gn)

    @pytest.mark.parametrize("rates", [
        (float("nan"), 0.0), (0.0, float("nan")), (float("nan"), float("nan")),
    ])
    def test_nan_rate_rejected(self, rates):
        with pytest.raises(BadRange):
            NoiseModel(*rates)

    def test_negative_stay_probability_rejected(self):
        # the rates sum to 1 after rounding, but the stay probability of an
        # interior result, 1 - gamma_p - gamma_n, is -1.1e-16
        with pytest.raises(BadRange, match=r"gamma_p \+ gamma_n <= 1, got \(0.13436424411240122, 0.8656357558875989\)"):
            NoiseModel(0.13436424411240122, 0.8656357558875989)

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_complementary_rates_accepted(self, g):
        noise = NoiseModel(g, 1.0 - g)
        assert likelihood(np.arange(4)[:, None], np.arange(4), 4, noise).min() >= 0.0

    def test_empirical_rates_match(self):
        # interior value: transition frequencies within 3 sigma over 1e5 draws
        gp, gn = 0.07, 0.11
        N = 100_000
        y = np.ones(N, dtype=int)
        out = apply_noise(y, 3, NoiseModel(gp, gn), 2024)
        for rate, count in ((gp, (out == 2).sum()), (gn, (out == 0).sum())):
            sigma = (N * rate * (1 - rate)) ** 0.5
            assert abs(count - N * rate) < 3 * sigma

    @pytest.mark.parametrize("rates", [(0.07, 0.11), (0.25, 0.75)])
    def test_frequencies_match_the_likelihood(self, rates):
        # every result of Q = 5, boundaries included, over 1e5 draws each:
        # within 4 sigma of its likelihood row, and never where that is 0
        Q, N = 5, 100_000
        noise = NoiseModel(*rates)
        for y in range(Q):
            out = apply_noise(np.full(N, y), Q, noise, 2024 + y)
            p = likelihood(y, np.arange(Q), Q, noise)
            counts = np.bincount(out, minlength=Q)
            assert np.all(counts[p == 0.0] == 0), y
            sigma = np.sqrt(N * p * (1 - p))
            assert np.all(np.abs(counts - N * p) <= 4 * sigma), (y, counts)


class TestLikelihood:
    RATES = [(0.0, 0.0), (0.04, 0.04), (0.07, 0.11), (0.3, 0.1), (0.25, 0.75),
             (0.13436424411240122, 1.0 - 0.13436424411240122), (1.0, 0.0), (0.0, 1.0)]

    @pytest.mark.parametrize("rates", RATES)
    def test_matches_the_dense_matrix_bit_for_bit(self, rates):
        # y = -2..Q+1, the rows ML's window reads: the dense matrix between
        # zero rows, for y < 0 and for the sentinel bucket Q and above
        noise = NoiseModel(*rates)
        for Q in range(2, 41):
            want = np.zeros((Q + 4, Q))
            want[2 : Q + 2] = channel_matrix(Q, noise)
            got = likelihood(np.arange(-2, Q + 2)[:, None], np.arange(Q), Q, noise)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), Q

    def test_rows_are_distributions(self):
        noise = NoiseModel(0.1, 0.2)
        P = likelihood(np.arange(5)[:, None], np.arange(5), 5, noise)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert P[0, 0] == pytest.approx(0.9)  # boundary keeps 1 - gamma_p
        assert P[4, 4] == pytest.approx(0.8)  # boundary keeps 1 - gamma_n
        assert P[2, 2] == pytest.approx(0.7)
        assert not likelihood([[-1], [5]], np.arange(5), 5, noise).any()

    def test_broadcasts(self):
        noise = NoiseModel(0.1, 0.2)
        assert likelihood(1, 2, 3, noise) == 0.1
        assert likelihood([[0], [1], [2]], [[0, 1, 2, 2]], 3, noise).shape == (3, 4)
        assert likelihood(np.arange(3), 1, 3, noise).tolist() == [0.1, 1.0 - 0.1 - 0.2, 0.2]
