import pathlib
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, log, prod

import numpy as np
import pytest

import sqgt.construct as construct
from sqgt.construct import (
    binary_row_success_bound,
    bose_chowla,
    bose_chowla_code,
    concat_disjunct,
    concat_separable,
    concat_spec,
    lindstrom,
    optimize_p0,
    ordered_subsets,
    random_binary_separable,
    random_disjunct,
    ratio_vs_single_level,
    ratio_vs_single_level_limit,
    reduce_alphabet,
    row_success_prob,
    scale_disjunct,
    scale_separable,
    sidon_set_exhaustive,
    smallest_prime_at_least,
)
from sqgt.errors import (
    AlphabetTooSmall,
    BadDistribution,
    BadKappa,
    BadRange,
    BadThreshold,
    InconsistentSpec,
    NotPrime,
    Overflow,
    SqgtError,
    ThresholdNotIncreasing,
)
from sqgt.decode import decode_concat, decode_lindstrom
from sqgt.fileio import format_matrix, parse_matrix, read_matrix
from sqgt.model import MAX_Q, CodeParams, syndrome
from sqgt.rng import make_rng
from sqgt.verify import is_sq_disjunct, is_sq_separable

from conftest import (
    GOLDEN_9x24,
    GOLDEN_7x16,
    GOLDEN_LINDSTROM_7x26,
    GOLDEN_LINDSTROM_BLOCK7,
    GOLDEN_LINDSTROM_CHAINS,
)


class TestScaleConstructions:
    def test_scale_disjunct_entries_and_property(self, base_9x12):
        C, params = scale_disjunct(base_9x12, d=2, e=0, q=3, eta=(0, 2, 3, 5, 7))
        assert set(np.unique(C)) == {0, 2}
        assert is_sq_disjunct(C, params) is None

    def test_boundary_alphabet_accepted(self, base_9x12):
        scale_disjunct(base_9x12, d=2, e=0, q=3, eta=(0, 2, 7))

    def test_alphabet_too_small(self, base_9x12):
        with pytest.raises(AlphabetTooSmall):
            scale_disjunct(base_9x12, d=2, e=0, q=2, eta=(0, 2, 3))

    def test_scale_separable(self, base_7x8):
        C, params = scale_separable(base_7x8, d=2, e=0, q=3, eta=(0, 2, 5))
        assert is_sq_separable(C, params) is None

    def test_scale_separable_qgt_needs_multiple(self, base_7x8):
        with pytest.raises(AlphabetTooSmall):
            scale_separable(base_7x8, 2, 0, q=4, eta=(0, 2, 4, 6, 8), base_kind="qgt")
        scale_separable(base_7x8, 2, 0, q=3, eta=(0, 2, 4, 6), base_kind="qgt")
        with pytest.raises(BadThreshold, match="eta_2=3, step 2 needs 4"):
            scale_separable(base_7x8, 2, 0, q=3, eta=(0, 2, 3, 6), base_kind="qgt")


class TestRowSuccessProb:
    def test_known_values(self):
        assert row_success_prob(1, 1, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert row_success_prob(1, 2, 0.5) == pytest.approx(5 / 16, abs=1e-15)

    def test_enumeration_oracle(self):
        # exact enumeration over all (d+1)-tuples of level values
        for d, levels, p0 in ((2, 2, 0.6), (3, 2, 0.75), (2, 3, 0.5)):
            probs = [p0] + [(1 - p0) / levels] * levels
            total = 0.0
            for tup in np.ndindex(*([levels + 1] * (d + 1))):
                if tup[0] > sum(tup[1:]):
                    total += np.prod([probs[v] for v in tup])
            assert row_success_prob(d, levels, p0) == pytest.approx(total, abs=1e-12)

    def test_ratio_identity(self):
        # closed-form ratio equals the two-probability computation at p0=d/(d+1)
        for d in range(1, 7):
            for levels in range(1, 7):
                p0 = d / (d + 1)
                lhs = row_success_prob(d, levels, p0) / row_success_prob(d, 1, p0)
                assert lhs == pytest.approx(ratio_vs_single_level(d, levels), abs=1e-12)

    def test_gamma_increment_identity(self):
        d, levels = 2, 2
        p0 = d / (d + 1)
        gamma = row_success_prob(d, levels, p0) - row_success_prob(d, 1, p0)
        direct = sum(
            comb(d, k) * comb(levels, d - k + 1) * (levels * d) ** k
            for k in range(d)
        ) / (levels ** (d + 1) * (d + 1) ** (d + 1))
        assert gamma == pytest.approx(direct, abs=1e-15)

    def test_optimizer_beats_default(self):
        for d, levels in ((1, 2), (2, 3)):
            p0, val = optimize_p0(d, levels, step=1e-2)
            assert 0 < p0 < 1
            assert val >= row_success_prob(d, levels, d / (d + 1)) - 1e-12

    def test_skips_only_zero_terms(self):
        # the sum starts at k = d + 1 - levels, below which every term is
        # 0; the result keeps the bits of the full sum over k < d
        def full_sum(d, levels, p0):
            head = (1 - p0) * p0**d
            tail = sum(
                comb(d, k) * (p0 * levels / (1 - p0)) ** k * comb(levels, d - k + 1)
                for k in range(d)
            )
            return head + (1 - p0) ** (d + 1) * levels ** -(d + 1) * tail

        for d in range(1, 30):
            for levels in range(1, 9):
                for p0 in (0.05, 0.5, 0.77, d / (d + 1), 0.99):
                    expected = full_sum(d, levels, p0).hex()
                    assert row_success_prob(d, levels, p0).hex() == expected, (d, levels, p0)

    def test_large_d_few_levels_is_finite(self):
        # the full sum raised OverflowError here, on terms that are all 0
        head = (1 / 201) * (200 / 201) ** 200
        assert row_success_prob(200, 1, 200 / 201) == pytest.approx(head, rel=1e-12)

    @pytest.mark.parametrize("d,levels,p0", [(200, 200, 200 / 201), (2000, 3, 0.5)])
    def test_overflow_is_typed(self, d, levels, p0):
        with pytest.raises(Overflow, match="row success probability overflows"):
            row_success_prob(d, levels, p0)

    def test_large_d_limit(self):
        for levels in (2, 3, 4):
            finite = ratio_vs_single_level(200, levels)
            limit = ratio_vs_single_level_limit(levels)
            assert abs(finite - limit) / limit < 0.01

    def test_limit_keeps_the_float_factorial_bits(self):
        # the sum as it was written with a float (j-1)!, which overflows
        # from levels = 144 on
        def float_factorial_sum(levels):
            total = 1.0
            for k in range(levels - 1):
                j = levels - k
                total += comb(levels, k) / (levels**j * prod(range(2, j), start=1.0))
            return total

        for levels in range(1, 144):
            assert ratio_vs_single_level_limit(levels).hex() == float_factorial_sum(levels).hex(), levels

    @pytest.mark.parametrize("levels", [144, 400])
    def test_limit_past_the_float_factorial(self, levels):
        exact = 1 + sum(
            Fraction(comb(levels, k), levels ** (levels - k) * factorial(levels - k - 1))
            for k in range(levels - 1)
        )
        assert ratio_vs_single_level_limit(levels) == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_limit_time_does_not_grow_with_levels(self):
        # the terms past j! (j-1)! > 2^1076 round to 0.0 and are left out
        start = time.perf_counter()
        assert 1.5 < ratio_vs_single_level_limit(10**6) < 1.6
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("step", [0.0, 2.0, -0.1, float("nan")])
    def test_optimizer_refuses_a_bad_step(self, step):
        # ZeroDivisionError at 0 and an empty grid's ValueError otherwise, before
        with pytest.raises(BadRange, match="^step must lie in"):
            optimize_p0(2, 2, step)


class TestRandomDisjunct:
    def test_levels_past_the_alphabet_are_refused(self):
        with pytest.raises(AlphabetTooSmall, match="^largest level 6 exceeds q-1=4$"):
            random_disjunct(10, 2, 3, 2, q=5)

    def test_row_count_formula(self):
        C, params = random_disjunct(32, 1, 1, 1, e=0, delta=1.0, seed=0)
        pi = row_success_prob(1, 1, 0.5)
        assert C.shape[0] == int(np.ceil((2 / pi + 1.0) * log(32)))
        assert set(np.unique(C)) <= {0, 1}

    def test_error_term_row_count(self):
        C, _ = random_disjunct(32, 1, 1, 1, e=2, delta=1.0, seed=0)
        pi = 0.25
        assert C.shape[0] == int(np.ceil((4 / pi + 1.0) * log(32) + 8 / pi))

    def test_bad_distribution(self):
        for p0 in (0.0, 1.0, 1.5, -0.2, float("nan")):
            with pytest.raises(BadDistribution):
                random_disjunct(16, 2, 2, 1, p0=p0, seed=0)

    def test_level_probability_follows_p0(self):
        # every nonzero level gets (1 - p0) / levels; there is no second
        # parameter for it
        with pytest.raises(TypeError):
            random_disjunct(16, 2, 2, 1, p0=0.5, p1=0.25, seed=0)

    def test_explicit_m_skips_the_row_formula(self):
        # only the formula row count reads the success probability, which
        # overflows at these parameters
        with pytest.raises(Overflow):
            random_disjunct(400, 200, 200, 1, seed=0)
        C, params = random_disjunct(400, 200, 200, 1, seed=0, m=3)
        assert C.shape == (3, 400) and params.q == 201

    @pytest.mark.parametrize("rows", [
        {"m": -3}, {"m": 0}, {"m_multiplier": -1.0}, {"m_multiplier": 0.0},
        {"m_multiplier": float("nan")}, {"m_multiplier": float("inf")},
    ])
    @pytest.mark.parametrize("build", [
        lambda **rows: random_disjunct(12, 2, 2, 2, seed=0, **rows),
        lambda **rows: random_binary_separable(12, 3, (0, 2, 4, 5), 1, seed=0, **rows),
    ])
    def test_bad_row_count(self, build, rows):
        with pytest.raises(BadRange):
            build(**rows)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -100.0, -1e-9])
    @pytest.mark.parametrize("build", [
        lambda delta: random_disjunct(12, 2, 2, 2, seed=0, delta=delta),
        lambda delta: random_binary_separable(12, 3, (0, 2, 4, 5), 1, seed=0, delta=delta),
    ])
    def test_bad_delta(self, build, delta):
        with pytest.raises(BadRange, match="delta"):
            build(delta)

    def test_deterministic_per_seed(self):
        A, _ = random_disjunct(10, 2, 2, 2, seed=9, m=30)
        B, _ = random_disjunct(10, 2, 2, 2, seed=9, m=30)
        assert np.array_equal(A, B)

    def test_small_instance_often_disjunct(self):
        hits = 0
        for seed in range(50):
            C, params = random_disjunct(10, 2, 2, 1, seed=seed, m=60)
            if is_sq_disjunct(C, params) is None:
                hits += 1
        assert hits > 25


@pytest.mark.parametrize("build", [
    lambda: random_disjunct(20, 2, 2, 1, seed=-5),
    lambda: random_binary_separable(12, 3, (0, 2, 4, 5), 1, seed=-5),
])
def test_negative_seed_refused(build):
    with pytest.raises(BadRange, match="seed must be a non-negative integer"):
        build()


class TestReduceAlphabet:
    def test_direct_map(self):
        C = np.arange(7).reshape(1, 7)
        assert reduce_alphabet(C, 2).tolist() == [[0, 0, 2, 2, 4, 4, 6]]

    def test_fixed_point(self):
        C = np.array([[0, 2, 4], [6, 0, 2]])
        assert np.array_equal(reduce_alphabet(C, 2), C)

    def test_preserves_disjunctness(self):
        # random {0,3}-valued codes checked at step 2: reduction rounds the
        # entries down to {0,2} and must keep the property
        params = CodeParams.equidistant(4, 2, 1, 2)
        kept = 0
        for seed in range(25):
            C, _ = random_disjunct(8, 2, 1, 3, seed=seed, m=45)
            if is_sq_disjunct(C, params) is None:
                kept += 1
                red = reduce_alphabet(C, 2)
                assert set(np.unique(red)) <= {0, 2}
                assert is_sq_disjunct(red, params) is None
        assert kept >= 20


class TestConcat:
    def test_golden_blocks(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=7, eta_step=2)
        assert spec.scales == (2, 6)
        assert np.array_equal(C, GOLDEN_9x24)

    def test_single_block_reduces_to_scaling(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=3, eta_step=2)
        assert spec.scales == (2,)
        assert np.array_equal(C, 2 * base_9x12)

    def test_block_separation(self, base_9x12):
        _, spec = concat_disjunct(base_9x12, d=2, e=0, q=7, eta_step=2)
        scales = spec.scales
        assert all(a < b for a, b in zip(scales, scales[1:]))
        # smallest entry of the last block dominates d times the earlier max
        assert scales[-1] > spec.params.u * scales[-2] * int(base_9x12.max())

    def test_alphabet_too_small(self, base_9x12):
        with pytest.raises(AlphabetTooSmall):
            concat_disjunct(base_9x12, d=2, e=0, q=2, eta_step=2)

    def test_d1_policy_uses_all_multiples(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=1, e=0, q=7, eta_step=2)
        assert spec.scales == (2, 4, 6)
        assert C.shape == (9, 36)

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("q", range(2, 14))
    def test_d1_scales_are_every_multiple(self, base_9x12, q, step):
        if q - 1 < step:
            with pytest.raises(AlphabetTooSmall):
                concat_disjunct(base_9x12, 1, 0, q, step)
            with pytest.raises(AlphabetTooSmall):
                concat_spec(np.zeros((9, 12), dtype=np.int64), CodeParams.equidistant(q, step, 1, 1))
        else:
            C, spec = concat_disjunct(base_9x12, 1, 0, q, step)
            assert spec.scales == tuple(range(step, q, step))
            assert concat_spec(C, spec.params).scales == spec.scales

    def test_golden_separable(self, base_7x8):
        C, spec = concat_separable(base_7x8, d=2, e=0, q=7, eta_step=2)
        assert np.array_equal(C, GOLDEN_7x16)
        assert is_sq_separable(C, spec.params) is None

    def test_max_entry_within_alphabet(self, base_9x12):
        for q in (3, 5, 7, 13):
            C, spec = concat_disjunct(base_9x12, d=2, e=0, q=q, eta_step=2)
            assert C.max() <= q - 1


class TestBoseChowla:
    @pytest.mark.parametrize("L,d", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)])
    def test_distinct_multiset_sums(self, L, d):
        values = bose_chowla(L, d)
        assert len(values) == L and all(0 < v < L**d for v in values)
        sums = [sum(c) % (L**d - 1) for c in combinations_with_replacement(values, d)]
        assert len(sums) == len(set(sums))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            bose_chowla(4, 2)

    def test_overflow(self):
        with pytest.raises(Overflow):
            bose_chowla(2147483647, 3)

    @pytest.mark.parametrize("L,d", [(2, 63), (13, 10**7)])
    def test_overflow_without_the_power(self, L, d):
        # L^d - 1 > 2^62 for every L >= 2 once d >= 63; 13^(10^7) took
        # seconds to form
        with pytest.raises(Overflow, match=rf"^L\^d = {L}\^{d} exceeds the safe integer range$"):
            bose_chowla(L, d)

    def test_exhaustive_fallback_agrees_on_property(self):
        for L, d in ((3, 2), (5, 2)):
            values = sidon_set_exhaustive(L, d)
            assert len(values) == L
            sums = [sum(c) % (L**d - 1) for c in combinations_with_replacement(values, d)]
            assert len(sums) == len(set(sums))

    def test_smallest_prime(self):
        assert smallest_prime_at_least(3) == 3
        assert smallest_prime_at_least(8) == 11
        assert smallest_prime_at_least(14) == 17


class TestBoseChowlaCode:
    def test_exact_d_separable(self):
        C, params = bose_chowla_code(3, 2, q=3, eta_step=1)
        assert (params.l, params.u) == (2, 2)
        assert is_sq_separable(C, params) is None

    def test_digit_round_trip(self):
        n, d, q, step = 5, 2, 3, 1
        C, _ = bose_chowla_code(n, d, q, step)
        q_prime = (q - 1) // step + 1
        L = smallest_prime_at_least(n)
        expected = bose_chowla(L, d)[:n]
        powers = q_prime ** np.arange(C.shape[0])
        recon = (C // step).T @ powers
        assert recon.tolist() == list(expected)

    def test_row_count(self):
        C, _ = bose_chowla_code(5, 2, q=3, eta_step=1)
        assert C.shape[0] == 3  # ceil(2 * log_3 5)

    @pytest.mark.parametrize("step", [0, -1])
    def test_bad_step(self, step):
        with pytest.raises(BadRange):
            bose_chowla_code(5, 2, q=3, eta_step=step)


class TestBinaryRowSuccessBound:
    def test_known_value(self):
        # d=3, first threshold 2, alpha=1: mu=1/16, bound = 1/1024
        assert binary_row_success_bound(3, (0, 2, 4, 5), 1) == pytest.approx(1 / 1024)

    def test_grows_with_alpha(self):
        eta = (0, 2, 3, 4, 9)
        vals = [binary_row_success_bound(4, eta, a) for a in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_dual_implementation(self):
        eta = (0, 2, 4, 6, 13)
        d, alpha = 6, 3
        mu = (1 - 1 / eta[alpha]) / 8.0
        manual = 0.5 * sum(
            (mu / (eta[b] - 1)) ** eta[b] * (eta[b] - 1) / (d - 1)
            for b in range(1, alpha + 1)
        )
        assert binary_row_success_bound(d, eta, alpha) == pytest.approx(manual, abs=1e-15)

    def test_threshold_guard(self):
        with pytest.raises(BadThreshold):
            binary_row_success_bound(3, (0, 1, 4), 1)

    @pytest.mark.parametrize("eta", [(0, 2, 0, 5), (0, 2, -4, 5), (1, 2, 3, 5)])
    def test_thresholds_must_increase(self, eta):
        with pytest.raises(ThresholdNotIncreasing):
            binary_row_success_bound(3, eta, 2)


class TestRandomBinarySeparable:
    def test_block_layout(self):
        C, params = random_binary_separable(64, 4, (0, 2, 5), 1, seed=0, m=8)
        # d=4, eta_alpha=2: two stacked blocks at densities 1/16, 1/32
        assert C.shape[0] == 8
        assert params.l == 2 and params.u == 4

    def test_single_block_when_threshold_hits_d(self):
        _, params = random_binary_separable(64, 2, (0, 2, 3), 1, seed=0, m=5)
        # r = floor(log2(d / eta_alpha)) + 1 = 1
        from sqgt.construct import _floor_log2_ratio

        assert _floor_log2_ratio(2, 2) + 1 == 1

    @pytest.mark.parametrize("eta", [(0, 2, 0, 5), (0, 2, -4, 5)])
    def test_thresholds_must_increase(self, eta):
        with pytest.raises(ThresholdNotIncreasing):
            random_binary_separable(12, 3, eta, 2, m=4)

    def test_floor_log2_ratio(self):
        from sqgt.construct import _floor_log2_ratio

        for a in range(1, 300):
            for b in range(1, a + 1):
                k = _floor_log2_ratio(a, b)
                assert b * 2**k <= a < b * 2 ** (k + 1)
        for a, b in [(1, 2), (3, 0)]:
            with pytest.raises(BadRange):
                _floor_log2_ratio(a, b)

    def test_tiny_instance_often_separable(self):
        # oversized row count makes the desk-scale success rate high
        hits = 0
        for seed in range(50):
            C, params = random_binary_separable(
                12, 3, (0, 2, 4, 5), 1, seed=seed, m_multiplier=4.0
            )
            if is_sq_separable(C, params) is None:
                hits += 1
        assert hits >= 15

    def test_d_not_small_rejected(self):
        with pytest.raises(BadRange):
            random_binary_separable(10, 6, (0, 2, 7), 1, seed=0)


class TestLindstrom:
    def test_golden_block(self):
        C, params = lindstrom(3, 9, 2, chains=GOLDEN_LINDSTROM_CHAINS)
        # q2 = 2 bit columns in each of the 7 blocks, so block 7 ({1,2,3}) is the last 5
        assert C.shape[1] == 7 * 2 + 3 * 2**2
        block = C[:, 21:26] // params.step
        assert np.array_equal(block, GOLDEN_LINDSTROM_BLOCK7)

    def test_golden_full_matrix(self):
        C, params = lindstrom(3, 9, 2, chains=GOLDEN_LINDSTROM_CHAINS)
        assert params == CodeParams.equidistant(9, 2, 1, 26, 0)
        assert np.array_equal(C, 2 * GOLDEN_LINDSTROM_7x26)

    def test_labels_are_bit_masks(self):
        # element x is bit x-1: {1},{2},{3},{1,2},{1,3},{2,3},{1,2,3}
        assert ordered_subsets(3).tolist() == [1, 2, 4, 3, 5, 6, 7]
        for kappa in range(1, 9):
            masks = ordered_subsets(kappa)
            assert masks.dtype == np.int64
            assert masks.tolist() == sorted(range(1, 2**kappa), key=lambda S: (bin(S).count("1"), S))
        # the rows carry those labels: block 1 ({1}) marks the rows whose label holds 1
        C, _ = lindstrom(3, 9, 2)
        assert (C[:, 0] > 0).tolist() == [bool(S & 1) for S in [1, 2, 4, 3, 5, 6, 7]]

    def test_sizes_without_bit_columns(self):
        C, params = lindstrom(2, 3, 2)
        assert C.max() == params.step  # q2 = 0: no column carries a power of two above 1
        assert C.shape == (3, 4)

    def test_size_formula(self):
        for kappa, q, step in ((2, 3, 2), (3, 9, 2), (4, 5, 1)):
            C, _ = lindstrom(kappa, q, step)
            q2 = ((q - 1) // step).bit_length() - 1
            assert C.shape == (2**kappa - 1, kappa * 2 ** (kappa - 1) + q2 * (2**kappa - 1))

    def test_truncation(self):
        C_full, _ = lindstrom(3, 9, 2)
        C_cut, params = lindstrom(3, 9, 2, n=20)
        assert np.array_equal(C_cut, C_full[:, :20])
        assert C_cut.shape[1] == params.u == 20

    def test_entries_within_alphabet(self):
        C, _ = lindstrom(3, 9, 2)
        assert C.max() <= 8

    def test_bad_kappa(self):
        with pytest.raises(BadKappa):
            lindstrom(0, 3, 2)

    def test_cell_cap(self, monkeypatch):
        # refused before any block is built, so kappa = 40 returns at once
        for kappa, q in ((11, 2), (40, 3), (10**9, 3)):
            with pytest.raises(BadKappa, match=f"kappa={kappa} builds more than"):
                lindstrom(kappa, q, 1)
        # the cap is on the full code's cells, 7 x 26 here, whatever n is
        monkeypatch.setattr(construct, "MAX_CELLS", 7 * 26)
        assert lindstrom(3, 9, 2)[0].shape == (7, 26)
        monkeypatch.setattr(construct, "MAX_CELLS", 7 * 26 - 1)
        with pytest.raises(BadKappa):
            lindstrom(3, 9, 2, n=5)

    @pytest.mark.parametrize("step", [0, -1])
    def test_bad_step(self, step):
        with pytest.raises(BadRange):
            lindstrom(2, 3, step)

    def test_small_lindstrom_separable(self):
        C, params = lindstrom(2, 3, 2)
        assert is_sq_separable(C, params) is None

    def test_chain_shape_validated(self):
        with pytest.raises(BadRange):
            lindstrom(3, 9, 2, chains={7: [{1, 2, 3}, {1}]})


DATA = pathlib.Path(__file__).parent / "data"


def _outcome(decode, C, params, z):
    try:
        return decode(C, params, z)
    except SqgtError as err:
        return type(err), str(err)


class TestSpecBuilders:
    @pytest.mark.parametrize("case", [
        *(("concat", base, d, q, step)
          for base in ("base_2disjunct_9x12.sqgt", "base_2separable_7x8.sqgt")
          for d in (1, 2, 3)
          for q, step in ((7, 2), (13, 3))),
        ("lindstrom", 1, 3, 2, None, None),
        ("lindstrom", 2, 3, 2, None, None),
        ("lindstrom", 2, 9, 2, 5, None),
        ("lindstrom", 3, 9, 2, None, GOLDEN_LINDSTROM_CHAINS),
        ("lindstrom", 3, 9, 2, 19, None),
        ("lindstrom", 4, 5, 1, None, None),
        ("lindstrom", 4, 9, 2, 40, None),
    ])
    def test_builder_round_trip(self, case):
        """The constructor's code, as written to and read back from a file,
        decodes like the code just built, through (C2, params2, z); a
        concatenation reads back the constructor's block scales."""
        if case[0] == "concat":
            _, name, d, q, step = case
            C, spec = concat_disjunct(read_matrix(DATA / name)[0], d, 0, q, step)
            p, decode, sizes = spec.params, decode_concat, range(1, d + 1)
        else:
            _, kappa, q, step, n, chains = case
            C, p = lindstrom(kappa, q, step, n=n, chains=chains)
            decode, sizes = decode_lindstrom, range(C.shape[1] + 1)
        C2, q2, Q2, eta2 = parse_matrix(format_matrix(C, p.q, p.Q, p.eta))
        p2 = CodeParams(q2, Q2, eta2, p.l, p.u, p.e)
        assert np.array_equal(C2, C) and p2 == p
        if case[0] == "concat":
            assert concat_spec(C2, p2).scales == spec.scales
        rng = make_rng(5)
        for size in sizes:
            for _ in range(4):
                planted = sorted(int(x) + 1 for x in rng.choice(C.shape[1], size, replace=False))
                z = syndrome(C, planted, p.eta)
                assert _outcome(decode, C2, p2, z) == _outcome(decode, C, p, z)

    @pytest.mark.parametrize("build,error,match", [
        # one threshold off the step
        (lambda: decode_lindstrom(lindstrom(3, 9, 2)[0], CodeParams(9, 29, (0, 2, 5) + tuple(range(6, 60, 2))),
                                  [0] * 7),
         BadThreshold, "eta_2=5"),
        (lambda: concat_spec(GOLDEN_9x24, CodeParams(7, 7, (0, 2, 4, 6, 8, 10, 12, 13), u=2)),
         BadThreshold, "eta_7=13"),
        # wrong d: three blocks do not divide n=16, do not rebuild the matrix,
        # or leave one block with a non-binary base
        (lambda: concat_spec(GOLDEN_7x16, CodeParams(7, 7, tuple(range(0, 16, 2)))),
         InconsistentSpec, "divisible"),
        (lambda: concat_spec(GOLDEN_9x24, CodeParams(7, 7, tuple(range(0, 16, 2)))),
         InconsistentSpec, "concatenation"),
        (lambda: concat_spec(GOLDEN_9x24, CodeParams.equidistant(7, 2, 1, 3)),
         InconsistentSpec, "concatenation"),
        # m not of the form 2^kappa - 1, n beyond the construction size
        (lambda: decode_lindstrom(2 * GOLDEN_LINDSTROM_7x26[:6], CodeParams(9, 27, tuple(range(0, 2 * 28, 2))),
                                  [0] * 6),
         InconsistentSpec, "m=6"),
        (lambda: decode_lindstrom(np.hstack([2 * GOLDEN_LINDSTROM_7x26] * 2),
                                  CodeParams(9, 53, tuple(range(0, 2 * 54, 2))), [0] * 7),
         InconsistentSpec, "n=52"),
    ])
    def test_builder_rejects(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_builders_keep_the_bracket(self, monkeypatch):
        """concat_spec and both structure decoders keep the bracket they are
        given, here with a larger Q and e than the constructor's, and build
        no bracket of their own."""
        concat = CodeParams(7, 9, tuple(range(0, 20, 2)), u=2, e=1)
        recursive = CodeParams(9, 30, tuple(range(0, 62, 2)), u=3)

        def refuse(*args, **kwargs):
            raise AssertionError("a decoder built a bracket")

        monkeypatch.setattr(CodeParams, "equidistant", refuse)
        assert concat_spec(GOLDEN_9x24, concat).params is concat
        # Q = 9 lets the result 8 through, and e = 1 forgives the coordinate it misses
        assert decode_concat(GOLDEN_9x24, concat, [3, 0, 1, 8, 0, 0, 0, 3, 1]) == (2, 20)
        C = 2 * GOLDEN_LINDSTROM_7x26
        z = syndrome(C, [1, 9, 22, 26], recursive.eta)
        assert decode_lindstrom(C, recursive, z) == (1, 9, 22, 26)


class TestRefusedBeforeWork:
    """Each refusal here comes before any row is sampled or any field
    element is walked."""

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("a refused code sampled its rows")

        monkeypatch.setattr(construct, "make_rng", refuse)

    @pytest.mark.parametrize("build", [
        lambda: random_disjunct(20, 2, 2, 1, e=-1),
        lambda: random_disjunct(20, 2, 2, 1, e=-1, m=5),
        lambda: random_binary_separable(12, 3, (0, 2, 4, 5), 1, e=-1),
        lambda: concat_disjunct(GOLDEN_9x24[:, :12] // 2, 2, -2, 7, 2),
        lambda: concat_spec(GOLDEN_9x24, CodeParams.equidistant(7, 2, 1, 2, -1)),
        lambda: scale_disjunct(GOLDEN_9x24[:, :12] // 2, 2, -1, 3, (0, 2, 3, 5, 7)),
    ])
    def test_negative_error_budget(self, no_sampling, build):
        with pytest.raises(BadRange, match="error budget must be >= 0"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: random_disjunct(400, 200, 1, 1),  # 75 934 x 400 by the formula
        lambda: random_disjunct(20, 2, 2, 1, m_multiplier=1e308),  # an infinite row count
        lambda: random_disjunct(10, 2, 2, 1, m=10**6 + 1),
        lambda: random_binary_separable(1000, 100, (0, 2, 3, 101), 1),  # 140 056 134 x 1 000
        lambda: random_binary_separable(12, 3, (0, 2, 4, 5), 1, m_multiplier=1e308),
    ])
    def test_cell_cap(self, no_sampling, build):
        with pytest.raises(BadRange, match=f"exceed {construct.MAX_CELLS} matrix cells"):
            build()

    def test_cell_cap_counts_the_rows_sampled(self, monkeypatch):
        # the formula's 27.7 rows round up to 28 at n = 10
        m = random_disjunct(10, 2, 2, 1)[0].shape[0]
        monkeypatch.setattr(construct, "MAX_CELLS", 10 * m)
        assert random_disjunct(10, 2, 2, 1)[0].shape == (m, 10)
        assert random_disjunct(10, 2, 2, 1, m=m)[0].shape == (m, 10)
        monkeypatch.setattr(construct, "MAX_CELLS", 10 * m - 1)
        for rows in ({}, {"m": m}):
            with pytest.raises(BadRange):
                random_disjunct(10, 2, 2, 1, **rows)
        # two blocks of ceil(m / 2) rows: m = 7 samples 8 rows, 512 cells at n = 64
        monkeypatch.setattr(construct, "MAX_CELLS", 512)
        assert random_binary_separable(64, 4, (0, 2, 5), 1, m=7)[0].shape == (8, 64)
        monkeypatch.setattr(construct, "MAX_CELLS", 511)
        with pytest.raises(BadRange):
            random_binary_separable(64, 4, (0, 2, 5), 1, m=7)

    def test_equidistant_output_alphabet_cap(self, no_sampling):
        # a 5 x 20 code at q = 4 000 001, whose bracket alone took 1.3 s and 300 MB
        with pytest.raises(BadRange, match=f"Q=8000001 exceeds the output alphabet cap {MAX_Q}"):
            random_disjunct(20, 2, 4_000_000, 1, m=5)

    @pytest.fixture
    def no_blocks(self, monkeypatch):
        def refuse(base, scales):
            raise AssertionError("a refused concatenation built its blocks")

        monkeypatch.setattr(construct, "_scaled_blocks", refuse)

    @pytest.mark.parametrize("q, match", [
        (10**6, f"999999 blocks x 108 base cells exceed {construct.MAX_CELLS} matrix cells"),
        (MAX_Q + 2, "exceeds the output alphabet cap"),  # refused before the scales
    ])
    def test_concat_caps(self, no_blocks, base_9x12, q, match):
        with pytest.raises(BadRange, match=match):
            concat_disjunct(base_9x12, 1, 0, q, 1)

    def test_concat_cell_cap_comes_before_the_bracket(self, monkeypatch, no_blocks, base_9x12):
        # the 10^6-threshold bracket and the 999 999 scales are never built
        def refuse(*args, **kwargs):
            raise AssertionError("a refused concatenation built its bracket")

        monkeypatch.setattr(CodeParams, "equidistant", refuse)
        with pytest.raises(BadRange, match=f"^999999 blocks x 108 base cells exceed {construct.MAX_CELLS} matrix cells$"):
            concat_disjunct(base_9x12, 1, 0, 10**6, 1)

    def test_concat_cell_cap_counts_every_block(self, monkeypatch, base_9x12):
        monkeypatch.setattr(construct, "MAX_CELLS", 3 * base_9x12.size)
        assert concat_disjunct(base_9x12, 1, 0, 7, 2)[0].shape == (9, 36)
        monkeypatch.setattr(construct, "MAX_CELLS", 3 * base_9x12.size - 1)
        with pytest.raises(BadRange, match="3 blocks"):
            concat_disjunct(base_9x12, 1, 0, 7, 2)

    @pytest.mark.parametrize("args, error, match", [
        ((0, -1, 1, 1), BadRange, "need d >= 1"),
        ((2, -1, 2, 2), AlphabetTooSmall, "q-1=1"),
        ((2, 0, 1, 1), AlphabetTooSmall, "q-1=0"),
        ((2, -1, 7, 0), BadRange, "eta step"),
        ((2, -1, 7, 2), BadRange, "error budget"),
    ])
    def test_concat_checks_its_scales_before_its_bracket(self, no_blocks, base_9x12, args, error, match):
        with pytest.raises(error, match=match):
            concat_disjunct(base_9x12, *args)

    def test_field_cap(self, monkeypatch):
        with pytest.raises(Overflow, match=r"L\^d = 101\^5 = 10510100501 exceeds the field walk cap"):
            bose_chowla(101, 5)
        with pytest.raises(Overflow):
            bose_chowla_code(100, 5, 3, 1)
        monkeypatch.setattr(construct, "MAX_FIELD", 9)
        assert len(bose_chowla(3, 2)) == 3
        monkeypatch.setattr(construct, "MAX_FIELD", 8)
        with pytest.raises(Overflow):
            bose_chowla(3, 2)
