from itertools import combinations
from math import comb, log2

import numpy as np
import pytest

import sqgt.capacity
from sqgt.capacity import (
    Quantizer,
    capacity_search,
    mutual_information,
    mutual_information_bruteforce,
    necessary_tests,
    output_pmf,
    rate_objective,
    sufficient_tests,
    sum_pmf,
    td_rate_denominator,
)
from sqgt.construct import binary_row_success_bound
from sqgt.errors import BadEta, BadPartition, BadRange, BudgetExceeded, Overflow
from sqgt.rng import make_rng

TABLE_PT = (0.33, 0.34, 0.33)
TABLE_QUANT = Quantizer((0, 2, 3, 5))  # regions {0,1} {2} {3,4}


def random_simplex(rng, q):
    x = rng.random(q)
    return x / x.sum()


class TestSumPmf:
    def test_point_mass(self):
        assert sum_pmf((1.0, 0.0), 5).tolist() == [1.0] + [0.0] * 5

    def test_binary_is_binomial(self):
        assert np.allclose(sum_pmf((0.5, 0.5), 2), [0.25, 0.5, 0.25])

    def test_uniform_ternary(self):
        assert np.allclose(sum_pmf((1 / 3,) * 3, 2), np.array([1, 2, 3, 2, 1]) / 9)


class TestOutputPmf:
    def test_identity_quantizer(self):
        pt = (0.2, 0.5, 0.3)
        s = sum_pmf(pt, 2)
        assert np.allclose(output_pmf(pt, 2, Quantizer.identity(4)), s)

    def test_table_row_bucketing(self):
        s = sum_pmf(TABLE_PT, 2)
        got = output_pmf(TABLE_PT, 2, TABLE_QUANT)
        assert np.allclose(got, [s[0] + s[1], s[2], s[3] + s[4]])

    def test_single_region_entropy_zero(self):
        out = output_pmf(TABLE_PT, 2, Quantizer((0, 5)))
        assert np.allclose(out, [1.0])

    def test_region_mismatch(self):
        with pytest.raises(BadPartition):
            output_pmf(TABLE_PT, 3, TABLE_QUANT)


class TestMutualInformation:
    def test_single_bit_channel(self):
        assert mutual_information((0.5, 0.5), 1, 1, Quantizer((0, 1, 2))) == pytest.approx(1.0)

    def test_degenerate_input(self):
        for i in (1, 2):
            assert mutual_information((1.0, 0.0), 2, i, Quantizer((0, 1, 3))) == 0.0

    def test_full_split_is_output_entropy(self):
        rng = make_rng(0)
        for _ in range(15):
            pt = random_simplex(rng, 3)
            d = int(rng.integers(1, 4))
            cuts = sorted(rng.choice(np.arange(1, 2 * d + 1), 2, replace=False).tolist())
            quant = Quantizer((0, *cuts, 2 * d + 1))
            out = output_pmf(pt, d, quant)
            ent = -sum(p * log2(p) for p in out if p > 0)
            assert mutual_information(pt, d, d, quant) == pytest.approx(ent, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = make_rng(1)
        for _ in range(10):
            pt = random_simplex(rng, 3)
            d = int(rng.integers(1, 4))
            i = int(rng.integers(1, d + 1))
            cuts = sorted(rng.choice(np.arange(1, 2 * d + 1), 2, replace=False).tolist())
            quant = Quantizer((0, *cuts, 2 * d + 1))
            fast = mutual_information(pt, d, i, quant)
            slow = mutual_information_bruteforce(pt, d, i, quant)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_bad_split(self):
        with pytest.raises(BadPartition):
            mutual_information(TABLE_PT, 2, 3, TABLE_QUANT)


class TestRateObjective:
    def test_d1(self):
        quant = Quantizer((0, 1, 3))
        pt = (0.4, 0.3, 0.3)
        assert rate_objective(pt, 1, Quantizer((0, 1, 3))) == pytest.approx(
            mutual_information(pt, 1, 1, quant)
        )

    def test_minimum_at_full_split(self):
        rng = make_rng(2)
        for _ in range(15):
            pt = random_simplex(rng, 3)
            d = int(rng.integers(2, 4))
            cuts = sorted(rng.choice(np.arange(1, 2 * d + 1), 2, replace=False).tolist())
            quant = Quantizer((0, *cuts, 2 * d + 1))
            ratios = [mutual_information(pt, d, i, quant) / i for i in range(1, d + 1)]
            assert rate_objective(pt, d, quant) == pytest.approx(ratios[-1], abs=1e-12)
            assert min(ratios) == pytest.approx(ratios[-1], abs=1e-12)

    def test_table_row_value(self):
        alpha = rate_objective(TABLE_PT, 2, TABLE_QUANT)
        assert alpha == pytest.approx(mutual_information(TABLE_PT, 2, 2, TABLE_QUANT) / 2)


class TestCapacitySearch:
    def test_beats_table_row(self):
        _, _, best = capacity_search(2, 3, 3, grid_step=0.05, refine=False)
        table = rate_objective(TABLE_PT, 2, TABLE_QUANT)
        assert best >= table - 0.05  # coarse grid sanity; acceptance runs 0.01

    def test_identity_quantizer_regime(self):
        # Q covering every sum leaves exactly one quantizer: the identity
        pt, quant, best = capacity_search(2, 3, 5, grid_step=0.1, refine=False)
        assert quant.edges == tuple(range(6))
        direct = max(
            rate_objective((a / 10, b / 10, (10 - a - b) / 10), 2, Quantizer.identity(4))
            for a in range(11)
            for b in range(11 - a)
        )
        assert best == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("Q", [1, 0, -1])
    def test_single_region_refused(self, Q):
        # one region carries no information; its computed objective would be
        # rounding noise
        with pytest.raises(BadRange, match=f"Q >= 2, got 2, 3, {Q}"):
            capacity_search(2, 3, Q, grid_step=0.25, refine=False)

    def test_monotone_in_regions(self):
        values = [
            capacity_search(2, 3, Q, grid_step=0.1, refine=False)[2] for Q in (2, 3, 4)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            capacity_search(2, 3, 3, grid_step=0.001, budget=100)

    def test_budget_is_checked_before_the_quantizers_are_built(self, monkeypatch):
        # the candidates are rows of one edges array, drawn from combinations;
        # only the winner becomes a Quantizer
        built, drawn = [], []

        class CountedQuantizer(Quantizer):
            def __post_init__(self):
                built.append(self.edges)
                super().__post_init__()

        def counted_combinations(*args):
            drawn.append(args)
            return combinations(*args)

        monkeypatch.setattr(sqgt.capacity, "Quantizer", CountedQuantizer)
        monkeypatch.setattr(sqgt.capacity, "combinations", counted_combinations)
        pt, quant, _ = capacity_search(2, 3, 3, grid_step=0.5, refine=False)
        assert (len(drawn), built) == (1, [quant.edges])
        built.clear()
        drawn.clear()
        # 447 grid and refine points x C(60, 3) quantizers
        with pytest.raises(BudgetExceeded, match="^447 grid and refine points x 34220 quantizers "
                                                 "exceed budget 10000000$"):
            capacity_search(30, 3, 4, grid_step=0.5)
        assert built == drawn == []

    @pytest.mark.parametrize("step", [0.0, 2.0, 5.0, -0.1, float("nan"), float("inf"), 5e-324])
    def test_bad_grid_step(self, step):
        with pytest.raises(BadRange):
            capacity_search(2, 3, 3, grid_step=step)

    def test_one_grid_step(self):
        # round(1/1.5) == 1: the grid holds only the corners of the simplex
        pt, _, _ = capacity_search(2, 3, 3, grid_step=1.5, refine=False)
        assert pt == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("q", [3254, 10**9])
    def test_budget_refuses_without_the_full_count(self, q):
        # 21^(q-1) refine points: from q = 3 254 the count has more than
        # 4 300 digits, too many to format; each count stops at 2^64
        with pytest.raises(BudgetExceeded, match=rf"^at least 2\^64 grid and refine points x {q - 1} "
                                                 "quantizers exceed budget 10000000$"):
            capacity_search(1, q, 2, grid_step=0.5)

    def test_budget_counts_refine(self):
        # 66 grid points x 6 quantizers fit in 1000; the 441 refine points do not
        capacity_search(2, 3, 3, grid_step=0.1, budget=1000, refine=False)
        with pytest.raises(BudgetExceeded):
            capacity_search(2, 3, 3, grid_step=0.1, budget=1000)


class TestAnalyticAnchors:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 10])
    def test_binary_output_gives_one_bit_per_test(self, d):
        # two regions: at most one bit per test, shared by d defectives
        _, _, bits = capacity_search(d, 2, 2, grid_step=0.01)
        assert abs(bits - 1 / d) < 1e-6

    @pytest.mark.parametrize("d, rounded", [(1, 1.0), (2, 0.75), (3, 0.603759), (4, 0.507660)])
    def test_binary_adder_gives_binomial_entropy(self, d, rounded):
        # every sum its own region: the uniform input maximizes the entropy
        # of Bin(d, 1/2) (Shepp & Olkin)
        pt, quant, bits = capacity_search(d, 2, d + 1, grid_step=0.01)
        entropy = -sum(comb(d, k) / 2**d * log2(comb(d, k) / 2**d) for k in range(d + 1))
        assert pt == (0.5, 0.5) and quant == Quantizer.identity(d)
        assert abs(bits - entropy / d) < 1e-12
        assert abs(bits - rounded) < 1e-6


class TestBounds:
    def test_trivial_case(self):
        assert sufficient_tests(2, 1, (0.5, 0.5), Quantizer((0, 1, 2))) == 0.0

    def test_monotone_in_n(self):
        quant = TABLE_QUANT
        vals = [sufficient_tests(n, 2, TABLE_PT, quant) for n in (5, 10, 40, 160)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_finite_positive_at_table_row(self):
        suff = sufficient_tests(100, 2, TABLE_PT, TABLE_QUANT)
        nec = necessary_tests(100, 2, TABLE_PT, TABLE_QUANT)
        assert 0 < nec < float("inf") and 0 < suff < float("inf")

    def test_necessary_at_n_equals_d(self):
        assert necessary_tests(2, 2, TABLE_PT, TABLE_QUANT) == 0.0

    def test_necessary_below_sufficient_small_n(self):
        # moderate n/d keeps the size-i neighborhood counts of the
        # achievability side dominant
        rng = make_rng(3)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 2, 4 * d + 4))
            pt = random_simplex(rng, 3)
            cuts = sorted(rng.choice(np.arange(1, 2 * d + 1), 2, replace=False).tolist())
            quant = Quantizer((0, *cuts, 2 * d + 1))
            nec = necessary_tests(n, d, pt, quant)
            suf = sufficient_tests(n, d, pt, quant)
            if suf == float("inf"):
                continue
            assert nec <= suf + 1e-9

    def test_necessary_close_to_sufficient_large_n(self):
        # for large n the two bounds may cross by at most a small slack
        rng = make_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(50, 5000))
            pt = random_simplex(rng, 3)
            cuts = sorted(rng.choice(np.arange(1, 2 * d + 1), 2, replace=False).tolist())
            quant = Quantizer((0, *cuts, 2 * d + 1))
            nec = necessary_tests(n, d, pt, quant)
            suf = sufficient_tests(n, d, pt, quant)
            if suf == float("inf"):
                continue
            assert nec <= suf + d * log2(d + 1) + 1

    def test_growth_rate(self):
        quant = TABLE_QUANT
        alpha = rate_objective(TABLE_PT, 2, quant)
        ns = [2**k for k in range(6, 13)]
        vals = [necessary_tests(n, 2, TABLE_PT, quant) for n in ns]
        slope = np.polyfit([log2(n) for n in ns], vals, 1)[0]
        assert abs(slope - 1 / alpha) / (1 / alpha) < 0.10


class TestTdRate:
    def test_known_value(self):
        assert td_rate_denominator(4, 2) == pytest.approx(1536.0)

    def test_monotone_in_threshold(self):
        for d in range(3, 51):
            vals = [td_rate_denominator(d, eta) for eta in range(2, d + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_dual_expression(self):
        d, eta = 3, 2
        mu = (1 - 1 / eta) / 8
        k = 0
        while eta * 2 ** (k + 1) <= d:
            k += 1
        other = (k + 1) / ((mu / (eta - 1)) ** eta * (eta - 1) / (d - 1))
        assert td_rate_denominator(d, eta) == pytest.approx(other, rel=1e-12)

    def test_overflow_is_typed(self):
        # (8 * eta_t)^eta_t passes the float range; OverflowError before
        with pytest.raises(Overflow, match="^rate denominator overflows at d=400, eta_t=200$"):
            td_rate_denominator(400, 200)

    def test_bad_eta(self):
        with pytest.raises(BadEta):
            td_rate_denominator(4, 1)
        with pytest.raises(BadEta):
            td_rate_denominator(4, 5)

    def test_rate_ratio_exceeds_three(self):
        # d = eta_alpha = 4 * eta_1 on the equidistant ladder: the stacked
        # binary construction beats the best single-threshold rate by > 3x
        d = 8
        eta = (0, 2, 4, 6, 8, 17)
        alpha = 4
        r_multi = 0
        while eta[1] * 2 ** (r_multi + 1) <= d:
            r_multi += 1
        r_single = 0
        while eta[alpha] * 2 ** (r_single + 1) <= d:
            r_single += 1
        log_ratio = (r_multi + 1) / (r_single + 1)
        rho_multi = binary_row_success_bound(d, eta, alpha)
        rho_single = binary_row_success_bound(d, (0, eta[1], 17), 1)
        assert log_ratio * (rho_multi / rho_single) > 3.0
