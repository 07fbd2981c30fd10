"""Acceptance suite: one test per release criterion, each at its stated
numeric tolerance, printing a PASS line when it completes. Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import pathlib
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
import scipy.stats

from sqgt.capacity import Quantizer, capacity_search, mutual_information, \
    mutual_information_bruteforce, rate_objective, td_rate_denominator
from sqgt.construct import (
    bose_chowla,
    bose_chowla_code,
    concat_disjunct,
    concat_separable,
    lindstrom,
    ordered_subsets,
    random_binary_separable,
    random_disjunct,
    ratio_vs_single_level,
    row_success_prob,
    scale_disjunct,
    scale_separable,
)
from sqgt.decode import BpConfig, block_equation, bp_decode, decode_concat, decode_lindstrom
from sqgt.errors import AlphabetTooSmall
from sqgt.model import NOISELESS, CodeParams, NoiseModel, apply_noise, quantize_sums, syndrome
from sqgt.rng import make_rng
from sqgt.simulate import SweepConfig, rows_to_csv, run_simulation
from sqgt.verify import Witness, is_sq_disjunct, is_sq_separable

from bp_reference import exhaustive_posterior, random_tree
from conftest import (
    BASE_9x12,
    GOLDEN_9x24,
    GOLDEN_LINDSTROM_7x26,
    GOLDEN_LINDSTROM_BLOCK7,
    GOLDEN_LINDSTROM_CHAINS,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_criterion_01_concat_worked_example():
    """Printed two-block code, its syndrome for subjects {2, 20}, and the
    peeling decoder's output, all exact."""
    C, spec = concat_disjunct(BASE_9x12, d=2, e=0, q=7, eta_step=2)
    assert np.array_equal(C, GOLDEN_9x24)
    y = syndrome(C, [2, 20], spec.params.eta)
    assert y.tolist() == [3, 0, 1, 4, 0, 0, 0, 3, 1]
    assert decode_concat(C, spec.params, y) == (2, 20)
    print("\nACCEPTANCE 1 PASS: concat construction worked example exact")


def test_criterion_02_recursive_worked_example():
    """Printed recursive code for kappa=3 with the published gate chains,
    including the final block's elimination equation."""
    C, params = lindstrom(3, 9, 2, chains=GOLDEN_LINDSTROM_CHAINS)
    assert np.array_equal(C[:, 21:26] // params.step, GOLDEN_LINDSTROM_BLOCK7)
    assert np.array_equal(C // params.step, GOLDEN_LINDSTROM_7x26)
    odd, even, coeffs = block_equation(ordered_subsets(3), 2, 7)
    assert coeffs == (16, 8, 4, 2, 1)
    assert odd == (1, 2, 3, 7) and even == (4, 5, 6)
    # block 7 is the code's last, one column per coefficient: columns 22..26
    assert C.shape[1] - len(coeffs) == 21
    print("ACCEPTANCE 2 PASS: recursive construction worked example exact")


def test_criterion_03_recursive_exhaustive_inversion():
    C, params = lindstrom(2, 3, 2)
    # q2 = 0 (no column above the step) and n = 4
    assert C.max() == params.step and C.shape[1] == 4
    for bits in itertools.product([0, 1], repeat=4):
        z = quantize_sums(C @ np.array(bits), params.eta)
        assert decode_lindstrom(C, params, z) == tuple(i + 1 for i in range(4) if bits[i])
    print("ACCEPTANCE 3 PASS: all 16 defective patterns invert exactly")


def test_criterion_04_row_success_identities():
    # closed-form ratio identity, 1e-12
    for d in range(1, 7):
        for levels in range(1, 7):
            p0 = d / (d + 1)
            lhs = row_success_prob(d, levels, p0) / row_success_prob(d, 1, p0)
            assert abs(lhs - ratio_vs_single_level(d, levels)) < 1e-12
    # Monte Carlo of the row-success event, 1e6 trials, 3 sigma
    N = 1_000_000
    for d, levels in ((1, 2), (2, 2), (3, 2)):
        p0 = d / (d + 1)
        pi = row_success_prob(d, levels, p0)
        rng = make_rng(2_000 + d)
        probs = [p0] + [(1 - p0) / levels] * levels
        draws = rng.choice(levels + 1, size=(N, d + 1), p=probs)
        hits = (draws[:, 0] > draws[:, 1:].sum(axis=1)).mean()
        sigma = (pi * (1 - pi) / N) ** 0.5
        assert abs(hits - pi) < 3 * sigma, (d, levels, hits, pi)
    print("ACCEPTANCE 4 PASS: success-probability identities and Monte Carlo")


def test_criterion_05_construction_verifier_closure():
    tripled = np.repeat(BASE_9x12, 3, axis=0)  # e=1 variant of the base

    # scaling constructions, e in {0, 1}
    for base, e in ((BASE_9x12, 0), (tripled, 1)):
        C, params = scale_disjunct(base, d=2, e=e, q=3, eta=(0, 2, 7))
        assert is_sq_disjunct(C, params) is None
        C, params = scale_separable(base, d=2, e=e, q=3, eta=(0, 2, 7))
        assert is_sq_separable(C, params) is None

    # random multi-level construction
    for e, seed in ((0, 3), (1, 0)):
        C, params = random_disjunct(10, 2, 2, 1, e=e, seed=seed, m_multiplier=1.5)
        assert is_sq_disjunct(C, params) is None, (e, seed)

    # concatenations
    for base, e in ((BASE_9x12, 0), (tripled, 1)):
        C, spec = concat_disjunct(base, d=2, e=e, q=7, eta_step=2)
        assert is_sq_separable(C, spec.params) is None
    C, spec = concat_separable(np.repeat(BASE_9x12, 1, axis=0), d=2, e=0, q=7, eta_step=2)
    assert is_sq_separable(C, spec.params) is None

    # number-theoretic construction (exact-size claim)
    C, params = bose_chowla_code(5, 2, q=3, eta_step=1)
    assert is_sq_separable(C, params) is None

    # stacked binary construction at the formula row count
    for e, seed in ((0, 0), (1, 0)):
        C, params = random_binary_separable(12, 3, (0, 2, 4, 5), 1, e=e, seed=seed)
        assert is_sq_separable(C, params) is None, (e, seed)

    # recursive construction, including every defective count
    for kappa, q in ((2, 3), (3, 3)):
        C, params = lindstrom(kappa, q, 2)
        assert is_sq_separable(C, params) is None

    # necessary conditions: scaling below the first threshold must fail
    with pytest.raises(AlphabetTooSmall):
        scale_disjunct(BASE_9x12, d=2, e=0, q=2, eta=(0, 2, 5))
    with pytest.raises(AlphabetTooSmall):
        scale_separable(BASE_9x12, d=2, e=0, q=2, eta=(0, 2, 5))
    forced = CodeParams(q=2, Q=2, eta=(0, 2, 5), l=1, u=2, e=0)
    assert isinstance(is_sq_disjunct(BASE_9x12, forced), Witness)
    print("ACCEPTANCE 5 PASS: desk-scale construction/verifier closure")


def test_criterion_06_bp_exact_on_trees():
    rng = make_rng(60_616)
    worst = 0.0
    for trial in range(50):
        n_max = int(rng.integers(4, 13))
        C = random_tree(rng, n_max, 4)
        m, n = C.shape
        params = CodeParams.equidistant(4, 2, 1, n)
        noise = NoiseModel(0.04, 0.04) if trial % 2 else NOISELESS
        prior = float(rng.uniform(0.1, 0.5))
        w = (rng.random(n) < prior).astype(int)
        y = quantize_sums(C @ w, params.eta)
        z = apply_noise(y, params.Q, noise, rng)
        marg = bp_decode(
            C, params, z, noise, cfg=BpConfig(max_iters=2 * (m + n), prior=prior)
        )
        exact = exhaustive_posterior(C, params, z, noise, prior)
        worst = max(worst, float(np.abs(marg.p1 - exact).max()))
    assert worst < 1e-9, worst
    print(f"ACCEPTANCE 6 PASS: BP exact on 50 trees (worst gap {worst:.2e})")


def test_criterion_07_capacity_reference_point():
    pt = (0.33, 0.34, 0.33)
    quant = Quantizer((0, 2, 3, 5))  # regions {0,1} {2} {3,4}
    # two independent code paths agree to 1e-12
    ratios_fast = [mutual_information(pt, 2, i, quant) / i for i in (1, 2)]
    ratios_slow = [mutual_information_bruteforce(pt, 2, i, quant) / i for i in (1, 2)]
    for a, b in zip(ratios_fast, ratios_slow):
        assert abs(a - b) < 1e-12
    alpha_ref = min(ratios_fast)
    assert alpha_ref == rate_objective(pt, 2, quant)

    _, _, best = capacity_search(2, 3, 3, grid_step=0.01, refine=True)
    assert best >= alpha_ref - 1e-6

    # chain inequality on the full 0.05 simplex grid for d <= 4
    grid = [
        (a / 20, b / 20, (20 - a - b) / 20)
        for a in range(21)
        for b in range(21 - a)
    ]
    for d in range(1, 5):
        top = 2 * d
        quants = [
            Quantizer((0, c1, c2, top + 1))
            for c1 in range(1, top)
            for c2 in range(c1 + 1, top + 1)
        ]
        for p in grid:
            for qz in quants:
                ratios = [mutual_information(p, d, i, qz) / i for i in range(1, d + 1)]
                assert all(x >= y - 1e-12 for x, y in zip(ratios, ratios[1:])), (p, d)
    print(f"ACCEPTANCE 7 PASS: capacity point alpha={alpha_ref:.12f}, search >= it")


def test_criterion_08_td_rate_monotonicity():
    for d in range(3, 51):
        for eta in range(2, d):
            assert td_rate_denominator(d, eta + 1) >= td_rate_denominator(d, eta)
    print("ACCEPTANCE 8 PASS: single-threshold rate denominator monotone")


def test_criterion_09_paper_shaped_sweep():
    """Ten master seeds of the n=100, d=15, m=50 sweep over q=2..11 with 400
    trials and 20 BP iterations. The published curves are not numerically
    readable, so the substituted checks are: deterministic output, error
    rate trending down in q (signed-rank at 5% over the per-seed slopes),
    and noiseless never beating noisy at any q on seed average. The first
    seed's CSV is pinned byte for byte."""
    seeds = list(range(101, 111))
    q_values = tuple(range(2, 12))
    gammas = ((0.0, 0.0), (0.04, 0.04))

    def cfg_for(seed, qs=q_values):
        return SweepConfig(
            n=100, d=15, m=50, eta_step=2, q_values=qs, gammas=gammas,
            trials=400, iterations=20, methods=("top-d",), seed=seed, damping=0.5,
        )

    # determinism: one repeated point gives byte-identical CSV
    once = rows_to_csv(run_simulation(cfg_for(101, qs=(5,))))
    again = rows_to_csv(run_simulation(cfg_for(101, qs=(5,))))
    assert once == again

    table = {}  # (seed, q, noisy) -> P_e
    for seed in seeds:
        rows = run_simulation(cfg_for(seed))
        if seed == 101:
            # the first seed's rows, byte for byte
            assert rows_to_csv(rows) == (DATA / "sweep_criterion9_seed101.csv").read_text()
        for row in rows:
            table[(seed, row.q, row.gamma_p > 0)] = row.p_e

    for noisy in (False, True):
        slopes = [
            (table[(s, q_values[-1], noisy)] - table[(s, q_values[0], noisy)])
            / (len(q_values) - 1)
            for s in seeds
        ]
        stat = scipy.stats.wilcoxon(slopes, alternative="less")
        assert stat.pvalue < 0.05, (noisy, slopes, stat.pvalue)

    for q in q_values:
        clean = np.mean([table[(s, q, False)] for s in seeds])
        noisy = np.mean([table[(s, q, True)] for s in seeds])
        assert clean <= noisy + 1e-12, (q, clean, noisy)
    print("ACCEPTANCE 9 PASS: sweep deterministic, decreasing in q, noise hurts")


def test_criterion_10_distinct_sums_exhaustive():
    for L in (2, 3, 5, 7, 11, 13):
        for d in (2, 3):
            values = bose_chowla(L, d)
            assert len(values) == L
            assert all(0 < v < L**d for v in values)
            sums = [
                sum(c) % (L**d - 1)
                for c in combinations_with_replacement(values, d)
            ]
            assert len(sums) == len(set(sums)), (L, d)
    print("ACCEPTANCE 10 PASS: distinct multiset sums for all (L, d) pairs")
