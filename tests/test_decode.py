import itertools
import tracemalloc

import numpy as np
import pytest

import sqgt.decode as decode
from sqgt.construct import (
    bose_chowla_code,
    concat_disjunct,
    concat_separable,
    lindstrom,
    ordered_subsets,
    random_disjunct,
    scale_disjunct,
)
from sqgt.decode import (
    BpConfig,
    Marginals,
    block_equation,
    bp_decode,
    bp_decode_batch,
    decode_concat,
    decode_disjunct,
    decode_lindstrom,
    decode_ml,
    select_threshold,
    select_topd,
)
from sqgt.errors import (
    BadD,
    BadRange,
    ExplosionGuard,
    InconsistentSpec,
    NoConsistentSet,
    NonBinaryResidue,
    ThresholdNotIncreasing,
)
from sqgt.model import (
    NOISELESS,
    CodeParams,
    NoiseModel,
    apply_noise,
    quantize_sums,
    syndrome,
)
from sqgt.rng import derive_seed, make_rng

from bp_reference import exhaustive_posterior, random_tree
from conftest import BASE_7x8, BASE_9x12, GOLDEN_LINDSTROM_CHAINS


class TestDecodeDisjunct:
    def test_block_counting_example(self, base_9x12):
        # second block of the 9x24 concatenation against its peeled syndrome
        C2 = 6 * base_9x12
        params = CodeParams.equidistant(7, 2, 1, 2)
        y2 = np.array([3, 0, 3, 3, 0, 0, 0, 3, 0])
        assert decode_disjunct(C2, params, y2) == (8,)

    def test_all_zero_syndrome(self, base_9x12):
        params = CodeParams.equidistant(3, 2, 1, 2)
        assert decode_disjunct(2 * base_9x12, params, np.zeros(9, dtype=int)) == ()

    def test_planted_recovery_with_errors(self, base_9x12):
        # row-tripled scaled base corrects one substitution anywhere
        base = np.repeat(base_9x12, 3, axis=0)
        C, params = scale_disjunct(base, d=2, e=1, q=3, eta=(0, 2, 5))
        rng = make_rng(23)
        for _ in range(200):
            planted = sorted(int(x) + 1 for x in rng.choice(12, 2, replace=False))
            y = syndrome(C, planted, params.eta)
            k = int(rng.integers(0, C.shape[0]))
            z = y.copy()
            z[k] = min(max(z[k] + (1 if rng.random() < 0.5 else -1), 0), params.Q - 1)
            assert decode_disjunct(C, params, z) == tuple(planted)

    @pytest.mark.parametrize("eta", [(0, 2, 2, 5), (0, 3, 1, 9), (1, 2, 3, 5)])
    def test_thresholds_must_increase(self, base_9x12, eta):
        with pytest.raises(ThresholdNotIncreasing):
            params = CodeParams(q=3, Q=3, eta=eta, l=1, u=2)
            decode_disjunct(2 * base_9x12, params, np.zeros(9, dtype=int))


class TestDecodeConcat:
    def test_golden_example(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=7, eta_step=2)
        y = syndrome(C, [2, 20], spec.params.eta)
        assert y.tolist() == [3, 0, 1, 4, 0, 0, 0, 3, 1]
        assert decode_concat(C, spec.params, y) == (2, 20)

    def test_peeling_intermediates(self, base_9x12):
        # the divide-and-floor chain on the worked syndrome; the peeled
        # block-2 part equals the syndrome of codeword 20 alone
        y = np.array([3, 0, 1, 4, 0, 0, 0, 3, 1])
        y2 = 3 * (y // 3)
        y1 = y - y2
        assert y2.tolist() == [3, 0, 0, 3, 0, 0, 0, 3, 0]
        assert y1.tolist() == [0, 0, 1, 1, 0, 0, 0, 0, 1]

    def test_single_block_matches_disjunct(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=3, eta_step=2)
        params = spec.params
        for subjects in ([1], [3, 7], [2, 11]):
            y = syndrome(C, subjects, params.eta)
            assert decode_concat(C, params, y) == decode_disjunct(C, params, y)

    def test_exactness_on_random_sets(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=7, eta_step=2)
        rng = make_rng(5)
        for _ in range(200):
            size = int(rng.integers(0, 3))
            planted = sorted(int(x) + 1 for x in rng.choice(24, size, replace=False))
            y = syndrome(C, planted, spec.params.eta)
            assert decode_concat(C, spec.params, y) == tuple(planted)

    def test_block_syndrome_decomposition(self, base_9x12):
        # the peeled y_j must equal the true syndrome of the defectives
        # falling inside block j, for random noiseless sets
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=7, eta_step=2)
        eta = spec.params.eta
        rng = make_rng(31)
        for _ in range(200):
            size = int(rng.integers(0, 3))
            planted = sorted(int(x) + 1 for x in rng.choice(24, size, replace=False))
            y = syndrome(C, planted, eta).astype(np.int64)
            for j in range(len(spec.scales), 0, -1):
                f = (spec.params.u**j - 1) // (spec.params.u - 1)
                yj = f * (y // f)
                y = y - yj
                block = C[:, (j - 1) * 12 : j * 12]
                local = [s - (j - 1) * 12 for s in planted if (j - 1) * 12 < s <= j * 12]
                assert yj.tolist() == syndrome(block, local, eta).tolist()

    def test_matches_ml_on_noiseless_instances(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=2, e=0, q=7, eta_step=2)
        ml_params = CodeParams(
            spec.params.q, spec.params.Q, spec.params.eta, 1, 2, 0
        )
        rng = make_rng(41)
        for _ in range(100):
            size = int(rng.integers(1, 3))
            planted = sorted(int(x) + 1 for x in rng.choice(24, size, replace=False))
            y = syndrome(C, planted, spec.params.eta)
            assert decode_concat(C, spec.params, y) == decode_ml(C, ml_params, y) == tuple(planted)

    def test_d1_column_matching(self, base_9x12):
        C, spec = concat_disjunct(base_9x12, d=1, e=0, q=7, eta_step=2)
        for subject in (1, 13, 30):
            y = syndrome(C, [subject], spec.params.eta)
            assert decode_concat(C, spec.params, y) == (subject,)
        assert decode_concat(C, spec.params, np.zeros(9, dtype=int)) == ()

    @pytest.mark.usefixtures("at_once")
    def test_d1_code_of_30000_blocks_builds_and_decodes_at_once(self, base_9x12):
        # stacking per-block copies held 4.3 times the matrix, and decoding
        # every scaled block converted the 30 001 thresholds once per block
        tracemalloc.start()
        try:
            C, spec = concat_disjunct(base_9x12, 1, 0, 30_001, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.shape == (9, 12 * 30_000)
        assert peak < 1.5 * C.nbytes
        subject = C.shape[1] - 7
        y = syndrome(C, [subject], spec.params.eta)
        assert decode_concat(C, spec.params, y) == (subject,)

    def test_d1_refuses_a_syndrome_no_subject_explains(self, base_9x12):
        # no single subject explains this syndrome: block 3's answer does not
        # re-encode to the block syndrome
        C, spec = concat_disjunct(base_9x12, d=1, e=0, q=7, eta_step=2)
        with pytest.raises(NoConsistentSet):
            decode_concat(C, spec.params, [3, 0, 0, 0, 3, 0, 0, 0, 0])
        ml_params = CodeParams(spec.params.q, spec.params.Q, spec.params.eta, 1, 1, 0)
        with pytest.raises(NoConsistentSet):
            decode_ml(C, ml_params, [3, 0, 0, 0, 3, 0, 0, 0, 0])


    @pytest.mark.parametrize("q,step", [(7, 2), (13, 3), (5, 1)])
    @pytest.mark.parametrize("disjunct_base", [True, False])
    def test_every_small_set_right_or_refused(self, q, step, disjunct_base):
        # the counting decoder is exact only on a disjunct base; on a merely
        # separable one some blocks decode to a set that does not re-encode
        base = BASE_9x12 if disjunct_base else BASE_7x8
        C, spec = concat_separable(base, d=2, e=0, q=q, eta_step=step)
        n = C.shape[1]
        refused = 0
        for size in range(3):
            for planted in itertools.combinations(range(1, n + 1), size):
                y = syndrome(C, planted, spec.params.eta)
                try:
                    assert decode_concat(C, spec.params, y) == planted
                except NoConsistentSet:
                    refused += 1
        assert (refused == 0) == disjunct_base


    def test_block_answer_must_reencode(self):
        # column 2 lies under column 1, so the counting decoder answers
        # {1, 2} for subject 1 alone: no more than d subjects, but a
        # syndrome that misses the block's
        base = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]])
        C, spec = concat_separable(base, d=2, e=0, q=7, eta_step=2)
        y = syndrome(C, [1], spec.params.eta)
        with pytest.raises(NoConsistentSet, match="misses"):
            decode_concat(C, spec.params, y)


class TestDecodeLindstrom:
    def test_block_equation_golden(self):
        odd, even, coeffs = block_equation(ordered_subsets(3), 2, 7)
        assert odd == (1, 2, 3, 7)
        assert even == (4, 5, 6)
        assert coeffs == (16, 8, 4, 2, 1)
        # block 7 is the last of lindstrom(3, 9, 2), one column per coefficient
        C, params = lindstrom(3, 9, 2, chains=GOLDEN_LINDSTROM_CHAINS)
        assert C.shape[1] - len(coeffs) == 21
        odd, even = [j - 1 for j in odd], [j - 1 for j in even]
        combined = C[odd, 21:26].sum(axis=0) - C[even, 21:26].sum(axis=0)
        assert (combined // params.step).tolist() == list(coeffs)

    def test_exhaustive_kappa2(self):
        C, params = lindstrom(2, 3, 2)
        for bits in itertools.product([0, 1], repeat=4):
            w = np.array(bits)
            z = quantize_sums(C @ w, params.eta)
            assert decode_lindstrom(C, params, z) == tuple(
                i + 1 for i in range(4) if bits[i]
            )

    def test_injective_map_kappa2(self):
        C, _ = lindstrom(2, 3, 2)
        seen = set()
        for bits in itertools.product([0, 1], repeat=4):
            z = tuple((C @ np.array(bits)).tolist())
            assert z not in seen
            seen.add(z)

    def test_all_defective(self):
        C, params = lindstrom(3, 9, 2, chains=GOLDEN_LINDSTROM_CHAINS)
        z = quantize_sums(C @ np.ones(26, dtype=int), params.eta)
        assert decode_lindstrom(C, params, z) == tuple(range(1, 27))

    def test_empty_set(self):
        C, params = lindstrom(3, 9, 2)
        assert decode_lindstrom(C, params, np.zeros(7, dtype=int)) == ()

    def test_random_sets_and_truncation(self):
        rng = make_rng(9)
        for n in (26, 19, 11):
            C, params = lindstrom(3, 9, 2, n=n)
            for _ in range(50):
                w = (rng.random(n) < 0.5).astype(int)
                z = quantize_sums(C @ w, params.eta)
                assert decode_lindstrom(C, params, z) == tuple(
                    int(i) + 1 for i in np.nonzero(w)[0]
                )

    def test_entries_off_the_step_are_refused(self):
        C, params = lindstrom(3, 9, 2)
        C[0, np.argmin(C[0])] = 1
        with pytest.raises(InconsistentSpec, match="^entries are not multiples of the threshold step$"):
            decode_lindstrom(C, params, np.zeros(7, dtype=int))

    def test_block_columns_off_the_rules_are_refused(self):
        C, params = lindstrom(3, 9, 2)
        C[:, -1] = 0
        with pytest.raises(InconsistentSpec, match="^block 7 columns do not match the construction rules$"):
            decode_lindstrom(C, params, np.zeros(7, dtype=int))

    def test_negative_remainder_is_refused(self):
        # block 7 subtracts rows 4, 5, 6
        C, params = lindstrom(3, 9, 2)
        with pytest.raises(NonBinaryResidue, match="^block 7 leaves a negative remainder -3$"):
            decode_lindstrom(C, params, [0, 0, 0, 1, 1, 1, 0])

    def test_corrupted_syndrome_raises(self):
        C, params = lindstrom(2, 3, 2)
        z = quantize_sums(C @ np.array([1, 0, 0, 1]), params.eta)
        z[0] += 37
        with pytest.raises(NonBinaryResidue):
            decode_lindstrom(C, params, z)

    def test_extreme_results_give_the_exact_remainder(self):
        # block 7 adds rows 1, 2, 3, 7 and subtracts rows 4, 5, 6, so its
        # combination is 7 * 2^63 - 4; int64 sums would wrap it
        C, params = lindstrom(3, 9, 1)
        top, low = 2**63 - 1, -(2**63)
        z = [top, top, top, low, low, low, top]
        remainder = 4 * top - 3 * low - sum(block_equation(ordered_subsets(3), 3, 7)[2])
        assert remainder == 64563604257983430589
        with pytest.raises(
            NonBinaryResidue, match=f"^block 7 leaves remainder {remainder} after all bits$"
        ):
            decode_lindstrom(C, params, z)


def _decoder(name):
    """(decode, C, params) for one decoder on a small code."""
    if name == "concat":
        C, spec = concat_disjunct(BASE_9x12, 2, 0, 7, 2)
        params = spec.params
    elif name == "lindstrom":
        C, params = lindstrom(2, 3, 1)
    else:
        C, params = BASE_9x12, CodeParams.equidistant(2, 1, 1, 2)
    decode = {
        "disjunct": decode_disjunct,
        "concat": decode_concat,
        "lindstrom": decode_lindstrom,
        "ml": decode_ml,
        "bp": lambda C, p, z: select_topd(bp_decode(C, p, z), 1),
    }[name]
    return (lambda z: decode(C, params, z)), C, params


@pytest.mark.parametrize("name", ["disjunct", "concat", "lindstrom", "ml", "bp"])
def test_every_decoder_checks_results(name):
    decode, C, params = _decoder(name)
    z = syndrome(C, [1], params.eta)
    assert decode(z) == (1,)
    bad = [z[1:], np.append(z, 0), z[None, :]]
    if name != "lindstrom":
        # the recursive decoder reports a result above Q-1 as
        # NonBinaryResidue (test_corrupted_syndrome_raises)
        bad += [np.full(len(z), params.Q), np.full(len(z), -1)]
    for z in bad:
        with pytest.raises(BadRange):
            decode(z)


@pytest.mark.parametrize("name", ["disjunct", "concat", "lindstrom", "ml", "bp"])
def test_every_decoder_refuses_non_integer_results(name):
    decode, C, params = _decoder(name)
    z = syndrome(C, [1], params.eta)
    assert decode(z.astype(float)) == (1,)  # integral floats are integers
    assert decode(z.tolist()) == (1,)
    for value in (0.9, z[1] + 0.2, float("nan"), float("inf")):
        bad = z.astype(float)
        bad[1] = value
        with pytest.raises(BadRange):
            decode(bad)
    with pytest.raises(BadRange):
        decode(list(z[:-1]) + [None])


def test_bp_decode_names_the_single_vector_shape():
    params = CodeParams.equidistant(2, 1, 1, 2)
    for z in (3, [[0] * 9]):
        with pytest.raises(BadRange, match=r"results must have shape \(m=9,\), got"):
            bp_decode(BASE_9x12, params, z)


@pytest.mark.parametrize("decode", [decode_disjunct, decode_ml, bp_decode])
def test_non_integer_matrix_refused(decode):
    params = CodeParams.equidistant(2, 1, 1, 2)
    z = syndrome(BASE_9x12, [1], params.eta)
    for value in (0.5, float("nan")):
        C = BASE_9x12.astype(float)
        C[0, 0] = value
        with pytest.raises(BadRange):
            decode(C, params, z)


class TestDecodeMl:
    def test_noiseless_unique_recovery(self, base_7x8):
        C, params = bose_chowla_code(6, 2, q=3, eta_step=1)
        rng = make_rng(3)
        for _ in range(30):
            planted = sorted(int(x) + 1 for x in rng.choice(6, 2, replace=False))
            y = syndrome(C, planted, params.eta)
            assert decode_ml(C, params, y) == tuple(planted)

    def test_inconsistent_noiseless_syndrome(self):
        C = np.array([[1, 1], [1, 1]])
        params = CodeParams(q=2, Q=3, eta=(0, 1, 2, 3), l=1, u=2, e=0)
        with pytest.raises(NoConsistentSet):
            decode_ml(C, params, np.array([0, 2]))

    def test_budget(self):
        C = np.ones((2, 30), dtype=int)
        params = CodeParams.equidistant(2, 1, 1, 5)
        with pytest.raises(ExplosionGuard):
            decode_ml(C, params, np.zeros(2, dtype=int), budget=100)

    def test_ml_beats_bp_on_average(self):
        # paired noisy instances; exact-set recovery rates
        noise = NoiseModel(0.08, 0.08)
        ml_hits = bp_hits = 0
        for trial in range(100):
            seed = derive_seed(77, "mlbp", trial)
            C, params = random_disjunct(8, 2, 2, 1, seed=seed, m=10)
            rng = make_rng(seed + 1)
            planted = sorted(int(x) + 1 for x in rng.choice(8, 2, replace=False))
            y = syndrome(C, planted, params.eta)
            z = apply_noise(y, params.Q, noise, rng)
            exact = CodeParams(params.q, params.Q, params.eta, 2, 2, 0)
            ml = decode_ml(C, exact, z, noise)
            marg = bp_decode(C, params, z, noise, d=2)
            bp = select_topd(marg, 2)
            ml_hits += ml == tuple(planted)
            bp_hits += bp == tuple(planted)
        assert ml_hits >= bp_hits


class TestBp:
    def test_single_variable_certain(self):
        C = np.array([[1]])
        params = CodeParams(q=2, Q=2, eta=(0, 1, 2), l=1, u=1, e=0)
        marg = bp_decode(C, params, np.array([1]), NOISELESS, cfg=BpConfig(prior=0.5))
        assert marg.p1[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d, prior", [(0, "0.0"), (12, "1.0")])
    def test_prior_of_no_or_every_subject_is_refused(self, base_9x12, d, prior):
        params = CodeParams.equidistant(2, 1, 1, 2)
        with pytest.raises(BadRange, match=f"^defect prior must lie in \\(0, 1\\), got {prior}$"):
            bp_decode(base_9x12, params, np.zeros(9, dtype=int), d=d)

    def test_tree_exactness(self):
        rng = make_rng(1234)
        for trial in range(10):
            C = random_tree(rng, 10, 4)
            m, n = C.shape
            params = CodeParams.equidistant(4, 2, 1, n)
            noise = NoiseModel(0.04, 0.04) if trial % 2 else NOISELESS
            w = (rng.random(n) < 0.3).astype(int)
            y = quantize_sums(C @ w, params.eta)
            z = apply_noise(y, params.Q, noise, rng)
            marg = bp_decode(
                C, params, z, noise, cfg=BpConfig(max_iters=2 * (m + n), prior=0.3)
            )
            exact = exhaustive_posterior(C, params, z, noise, 0.3)
            assert np.abs(marg.p1 - exact).max() < 1e-9

    def test_marginals_in_range(self):
        C, params = random_disjunct(16, 3, 2, 2, seed=2, m=14)
        rng = make_rng(8)
        planted = sorted(int(x) + 1 for x in rng.choice(16, 3, replace=False))
        z = syndrome(C, planted, params.eta)
        marg = bp_decode(C, params, z, NOISELESS, d=3)
        assert marg.p1.min() >= 0 and marg.p1.max() <= 1
        assert marg.iterations == 20

    def test_batch_matches_single(self):
        C, params = random_disjunct(12, 2, 2, 2, seed=5, m=10)
        noise = NoiseModel(0.05, 0.05)
        Z = []
        for t in range(3):
            rng = make_rng(t)
            subj = sorted(int(x) + 1 for x in rng.choice(12, 2, replace=False))
            Z.append(apply_noise(syndrome(C, subj, params.eta), params.Q, noise, rng))
        batch = bp_decode_batch(C, params, np.array(Z), noise, d=2)
        for t in range(3):
            single = bp_decode(C, params, Z[t], noise, d=2)
            assert np.array_equal(single.p1, batch.p1[t])

    def test_rows_per_trial_are_capped(self, monkeypatch):
        # the dynamic programme holds k * R rows per trial for each test:
        # 2 * 4 for the first row (partial sums 0..3), 2 * 3 for the second
        C = np.array([[1, 2, 0], [0, 1, 1], [0, 0, 0]])
        params = CodeParams.equidistant(3, 1, 1, 2)
        monkeypatch.setattr(decode, "MAX_CELLS", 14)
        bp_decode(C, params, [1, 1, 0], d=2)
        monkeypatch.setattr(decode, "MAX_CELLS", 13)
        with pytest.raises(BadRange, match="^BP needs 14 dynamic-programme rows per trial, more than 13$"):
            bp_decode(C, params, [1, 1, 0], d=2)

    def test_recursive_codes_past_the_row_cap_are_refused(self):
        # 46.5 M rows per trial at kappa 8, about 1.2 GB for one syndrome
        C, params = lindstrom(8, 3, 1)
        z = syndrome(C, [1, 2, 3, 100, 640, 1279], params.eta)
        with pytest.raises(BadRange, match="^BP needs 46507116 dynamic-programme rows per trial"):
            bp_decode(C, params, z, d=6)

    def test_zero_trials(self):
        C, params = random_disjunct(10, 2, 1, 2, seed=0, m=12)
        marg = bp_decode_batch(C, params, np.empty((0, 12), dtype=int), NOISELESS, d=2)
        assert marg.p1.shape == (0, 10) and marg.iterations == 0

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_bad_tol(self, tol):
        # an infinite tol would stop every decode after one iteration
        with pytest.raises(BadRange, match="tol must be positive and finite"):
            BpConfig(tol=tol)

    @pytest.mark.parametrize("max_iters", [2.5, True, "3", 0])
    def test_bad_max_iters(self, max_iters):
        with pytest.raises(BadRange):
            BpConfig(max_iters=max_iters)

    def test_deterministic(self):
        C, params = random_disjunct(10, 2, 1, 2, seed=0, m=12)
        z = syndrome(C, [1, 5], params.eta)
        a = bp_decode(C, params, z, NOISELESS, d=2)
        b = bp_decode(C, params, z, NOISELESS, d=2)
        assert np.array_equal(a.p1, b.p1)


class TestSelection:
    def test_threshold_empty(self):
        assert select_threshold(Marginals(np.zeros(4), 1)) == ()

    def test_threshold_strict(self):
        marg = Marginals(np.array([0.5, 0.500001, 0.49]), 1)
        assert select_threshold(marg) == (2,)

    def test_threshold_monotone(self):
        rng = make_rng(4)
        p = rng.random(8)
        base = set(select_threshold(Marginals(p, 1)))
        p2 = p.copy()
        p2[3] = min(1.0, p2[3] + 0.5)
        assert base - {4} <= set(select_threshold(Marginals(p2, 1)))

    def test_topd_all(self):
        marg = Marginals(np.array([0.1, 0.9, 0.4]), 1)
        assert select_topd(marg, 3) == (1, 2, 3)

    def test_topd_matches_sort_oracle(self):
        rng = make_rng(6)
        for _ in range(20):
            p = rng.random(9)
            d = int(rng.integers(1, 9))
            got = select_topd(Marginals(p, 1), d)
            want = tuple(sorted(int(i) + 1 for i in np.argsort(-p)[:d]))
            assert got == want

    def test_topd_tie_smallest_index(self):
        marg = Marginals(np.array([0.3, 0.7, 0.7, 0.7]), 1)
        assert select_topd(marg, 2) == (2, 3)

    def test_topd_bad_d(self):
        with pytest.raises(BadD):
            select_topd(Marginals(np.zeros(3), 1), 4)
