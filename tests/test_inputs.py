"""Property tests of the input surface: every input ends in output or in a
typed refusal, never in another exception.

The library entry points may raise SqgtError only; the command line must
return 0 or 1, or 2 after a SqgtError or OSError. Every test is
derandomized, so the suite stays deterministic, and draws small sizes, so
that it stays fast.
"""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgt.capacity import (Quantizer, capacity_search, check_distribution, mutual_information,
                           mutual_information_bruteforce, necessary_tests, sufficient_tests, sum_pmf,
                           td_rate_denominator)
from sqgt.cli import CONSTRUCT_METHODS, DECODE_ALGORITHMS, VERIFY_PROPERTIES, main
from sqgt.construct import (bose_chowla, bose_chowla_code, concat_disjunct, lindstrom, optimize_p0,
                            ordered_subsets, random_binary_separable, random_disjunct, ratio_vs_single_level,
                            ratio_vs_single_level_limit, reduce_alphabet, row_success_prob, scale_disjunct,
                            sidon_set_exhaustive, smallest_prime_at_least)
from sqgt.decode import (BpConfig, Marginals, block_equation, bp_decode, bp_decode_batch, select_threshold,
                         select_topd)
from sqgt.errors import BadDistribution, BadPartition, BadRange, SqgtError
from sqgt.fileio import format_matrix, parse_matrix, write_matrix
from sqgt.model import CodeParams, NoiseModel, sq_sum, syndrome
from sqgt.simulate import parse_config
from sqgt.verify import is_binary_separable_qgt

from conftest import BASE_9x12

DATA = pathlib.Path(__file__).parent / "data"
CODES = [str(DATA / name) for name in
         ("base_2disjunct_9x12.sqgt", "base_2separable_7x8.sqgt", "golden_9x24.sqgt")]

MANY = settings(derandomize=True, max_examples=200, deadline=None)
SOME = settings(MANY, max_examples=100)
CLI = settings(MANY, max_examples=40)

# integers as the command line and the files spell them, some beyond int64
BAD = st.sampled_from(["9" * 20, "-" + "9" * 20, "x", "1.5", "", "-1", "99"])
INT = st.one_of(st.integers(-2, 12), BAD)
INTS = st.lists(INT, max_size=10).map(lambda v: ",".join(map(str, v)))
FLOAT = st.sampled_from(["0", "0.04", "0.5", "1", "1.5", "-0.1", "1e308", "nan", "inf"])


@st.composite
def matrix_texts(draw):
    """A valid matrix file with one number in it swapped for a bad token,
    or cut short, or both, or neither."""
    q, Q, m, n = (draw(st.integers(lo, 3)) for lo in (2, 2, 1, 1))
    C = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    text = format_matrix(C, q, Q, tuple(3 * r for r in range(Q + 1)))
    numbers = list(re.finditer(r"\d+", text))[1:]  # not the format version
    change = draw(st.sampled_from(["swap", "swap", "swap", "cut", "swap and cut", "none"]))
    if "swap" in change:
        hit = numbers[draw(st.integers(0, len(numbers) - 1))]
        text = text[: hit.start()] + draw(BAD) + text[hit.end():]
    if "cut" in change:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def config_texts(draw):
    keys = ["n", "d", "m", "eta", "q", "trials", "iterations", "seed", "gammas", "methods",
            "bp_tol", "damping", "junk"]
    lines = []
    for key in draw(st.lists(st.sampled_from(keys), max_size=14)):
        value = draw(st.one_of(INT.map(str), FLOAT, st.sampled_from(
            ["0:0", "0.1:0.2,0:0", "0.6:0.6", "a:b", "top-d", "top-d,threshold", "bogus", "2,3"])))
        lines.append(draw(st.sampled_from([f"{key}={value}", f"{key} = {value} # note", key])))
    return "\n".join(lines)


@MANY
@given(matrix_texts())
def test_parse_matrix(text):
    # a matrix that parses also encodes: its entries and thresholds fit int64
    try:
        C, _, _, eta = parse_matrix(text)
        syndrome(C, [1], eta)
    except SqgtError:
        pass


@SOME
@given(st.text(max_size=60))
def test_parse_matrix_arbitrary_text(text):
    try:
        parse_matrix(text)
    except SqgtError:
        pass


@SOME
@given(config_texts())
def test_parse_config(text):
    try:
        parse_config(text)
    except SqgtError:
        pass


@MANY
@given(st.integers(-1, 5), st.integers(-1, 5), st.lists(st.integers(-2, 12), max_size=7),
       st.integers(-1, 4), st.integers(-1, 4), st.integers(-2, 2))
def test_code_params(q, Q, eta, l, u, e):
    try:
        p = CodeParams(q=q, Q=Q, eta=tuple(eta), l=l, u=u, e=e)
    except SqgtError:
        return
    assert p.q >= 2 and p.Q >= 2 and len(p.eta) == p.Q + 1 and 0 <= p.e and 1 <= p.l <= p.u


# a float where a size belongs: range(), bit_length() and indexing would
# refuse it with a bare TypeError or AttributeError, so each entry point
# checks its sizes first
FLOAT_SIZES = {
    "equidistant-q": lambda: CodeParams.equidistant(7.0, 2, 1, 2),
    "equidistant-step": lambda: CodeParams.equidistant(7, 2.0, 1, 2),
    "equidistant-u": lambda: CodeParams.equidistant(7, 2, 1, 2.0),
    "concat-d": lambda: concat_disjunct(BASE_9x12, 2.0, 0, 7, 2),
    "concat-step": lambda: concat_disjunct(BASE_9x12, 2, 0, 7, 2.0),
    "bin-sep-qgt-d": lambda: is_binary_separable_qgt(BASE_9x12, 2.0),
    "random-disjunct-levels": lambda: random_disjunct(10, 2, 2.0, 1),
    "random-disjunct-n": lambda: random_disjunct(10.0, 2, 2, 1),
    "random-disjunct-m": lambda: random_disjunct(10, 2, 2, 1, m=5.0),
    "bose-chowla-n": lambda: bose_chowla_code(5.0, 2, 3, 1),
    "bose-chowla-d": lambda: bose_chowla_code(5, 2.0, 3, 1),
    "capacity-d": lambda: capacity_search(2.0, 3, 3),
    "capacity-Q": lambda: capacity_search(2, 3, 3.0),
    "select-topd-d": lambda: select_topd(Marginals(p1=np.array([0.2, 0.9]), iterations=1), 1.0),
    "lindstrom-step": lambda: lindstrom(3, 9, 2.0),
    "lindstrom-kappa": lambda: lindstrom(3.0, 9, 2),
    "random-binary-d": lambda: random_binary_separable(12, 3.0, (0, 2, 4, 5), 1),
    "random-binary-alpha": lambda: random_binary_separable(12, 3, (0, 2, 4, 5), 1.0),
    "td-rate-d": lambda: td_rate_denominator(3.0, 2),
    "scale-disjunct-q": lambda: scale_disjunct(BASE_9x12, 2, 0, 3.0, (0, 2, 3, 5, 7)),
    "reduce-alphabet-step": lambda: reduce_alphabet(BASE_9x12, 2.0),
    "smallest-prime-n": lambda: smallest_prime_at_least(7.0),
    "row-success-d": lambda: row_success_prob(2.0, 3, 0.5),
    "row-success-levels": lambda: row_success_prob(2, 3.0, 0.5),
    "optimize-p0-d": lambda: optimize_p0(2.0, 3),
    "optimize-p0-levels": lambda: optimize_p0(2, 3.0),
    "ratio-d": lambda: ratio_vs_single_level(2.0, 3),
    "ratio-levels": lambda: ratio_vs_single_level(2, 3.0),
    "ratio-limit-levels": lambda: ratio_vs_single_level_limit(3.0),
    "sum-pmf-d": lambda: sum_pmf((0.5, 0.5), 2.0),
    "mutual-information-d": lambda: mutual_information((0.5, 0.5), 2.0, 1, Quantizer.identity(2)),
    "mutual-information-i": lambda: mutual_information((0.5, 0.5), 2, 1.0, Quantizer.identity(2)),
    "mi-bruteforce-d": lambda: mutual_information_bruteforce((0.5, 0.5), 2.0, 1, Quantizer.identity(2)),
    "mi-bruteforce-i": lambda: mutual_information_bruteforce((0.5, 0.5), 2, 1.0, Quantizer.identity(2)),
    "sufficient-tests-n": lambda: sufficient_tests(10.0, 2, (0.5, 0.5), Quantizer.identity(2)),
    "sufficient-tests-d": lambda: sufficient_tests(10, 2.0, (0.5, 0.5), Quantizer.identity(2)),
    "necessary-tests-n": lambda: necessary_tests(10.0, 2, (0.5, 0.5), Quantizer.identity(2)),
    "necessary-tests-d": lambda: necessary_tests(10, 2.0, (0.5, 0.5), Quantizer.identity(2)),
    "bose-chowla-field-L": lambda: bose_chowla(5.0, 2),
    "bose-chowla-field-d": lambda: bose_chowla(5, 2.0),
    "sidon-L": lambda: sidon_set_exhaustive(3.0, 2),
    "sidon-d": lambda: sidon_set_exhaustive(3, 2.0),
    "ordered-subsets-kappa": lambda: ordered_subsets(3.0),
    "sq-sum-m": lambda: sq_sum([], (0, 1, 2), m=3.0),
    "block-equation-q2": lambda: block_equation(ordered_subsets(3), 2.0, 7),
    "block-equation-block": lambda: block_equation(ordered_subsets(3), 2, 7.0),
    "bp-decode-d": lambda: bp_decode(BASE_9x12, CodeParams.equidistant(2, 1, 1, 2), [0] * 9, d=2.0),
    "bp-decode-batch-d": lambda: bp_decode_batch(BASE_9x12, CodeParams.equidistant(2, 1, 1, 2), [[0] * 9], d=2.0),
}


@pytest.mark.parametrize("call", FLOAT_SIZES.values(), ids=FLOAT_SIZES.keys())
def test_a_float_size_is_refused_by_name(call):
    with pytest.raises(BadRange, match=r"^[\w ]+ must be an integer, got \d+\.0$"):
        call()


# a bool is an Integral, so BP took d=True as a prior of 1/n
BOOL_SIZES = {
    "bp-decode-d": lambda: bp_decode(BASE_9x12, CodeParams.equidistant(2, 1, 1, 2), [0] * 9, d=True),
    "bp-decode-batch-d": lambda: bp_decode_batch(BASE_9x12, CodeParams.equidistant(2, 1, 1, 2), [[0] * 9], d=False),
}


@pytest.mark.parametrize("call", BOOL_SIZES.values(), ids=BOOL_SIZES.keys())
def test_a_bool_size_is_refused_by_name(call):
    with pytest.raises(BadRange, match=r"^d must be an integer, got (True|False)$"):
        call()


# bp_decode_batch returns marginals of shape (trials, n): the threshold rule
# read the trial of each pick as a subject, and top-d ended in a TypeError
BATCH_MARGINALS = {
    "select-threshold": lambda: select_threshold(Marginals(p1=np.full((2, 3), 0.9), iterations=1)),
    "select-topd": lambda: select_topd(Marginals(p1=np.full((2, 3), 0.9), iterations=1), 1),
}


@pytest.mark.parametrize("call", BATCH_MARGINALS.values(), ids=BATCH_MARGINALS.keys())
def test_batch_marginals_are_refused_by_the_selection_rules(call):
    with pytest.raises(BadRange, match=r"^marginals must have shape \(n,\), one per subject, got \(2, 3\)$"):
        call()


# text or None where a rate belongs would reach a comparison and end in a
# bare TypeError, so each is refused by name first
TEXT_RATES = {
    "noise-gamma-p": lambda: NoiseModel("0.1", 0),
    "noise-gamma-n": lambda: NoiseModel(0, None),
    "bp-damping": lambda: BpConfig(damping="0.5"),
    "bp-prior": lambda: BpConfig(prior="0.5"),
    "bp-tol": lambda: BpConfig(tol="0.5"),
    "random-disjunct-p0": lambda: random_disjunct(10, 2, 2, 1, p0="0.5"),
    "random-disjunct-delta": lambda: random_disjunct(10, 2, 2, 1, delta="1"),
    "random-binary-m-multiplier": lambda: random_binary_separable(12, 3, (0, 2, 4, 5), 1, m_multiplier=None),
    "row-success-p0": lambda: row_success_prob(2, 3, "0.5"),
    "optimize-p0-step": lambda: optimize_p0(2, 3, "0.1"),
    "capacity-grid-step": lambda: capacity_search(2, 3, 3, grid_step="0.1"),
}


@pytest.mark.parametrize("call", TEXT_RATES.values(), ids=TEXT_RATES.keys())
def test_text_or_none_for_a_rate_is_refused_by_name(call):
    with pytest.raises(BadRange, match=r"^\w+ must be a real number, got (None|'[\d.]+')$"):
        call()


# a bool is an Integral, so it passed as a rate of 0 or 1
BOOL_RATES = {
    "noise-gamma-p": lambda: NoiseModel(True, False),
    "bp-damping": lambda: BpConfig(damping=False),
    "bp-tol": lambda: BpConfig(tol=True),
    "capacity-grid-step": lambda: capacity_search(2, 3, 3, grid_step=True),
}


@pytest.mark.parametrize("call", BOOL_RATES.values(), ids=BOOL_RATES.keys())
def test_a_bool_for_a_rate_is_refused_by_name(call):
    with pytest.raises(BadRange, match=r"^\w+ must be a real number, got (True|False)$"):
        call()


# a NaN entry passed and made every information NaN; text, or a fractional
# or text edge, ended in a bare ValueError or TypeError
BAD_CAPACITY_INPUTS = {
    "nan-distribution": (BadDistribution, lambda: check_distribution([float("nan"), 1.0])),
    "text-distribution": (BadDistribution, lambda: check_distribution(["a", "b"])),
    "fractional-edge": (BadPartition, lambda: Quantizer((0, 1.5, 3))),
    "text-edge": (BadPartition, lambda: Quantizer((0, "a"))),
    "bool-edge": (BadPartition, lambda: Quantizer((0, True))),
}


@pytest.mark.parametrize("error, call", BAD_CAPACITY_INPUTS.values(), ids=BAD_CAPACITY_INPUTS.keys())
def test_bad_capacity_inputs_are_refused(error, call):
    with pytest.raises(error):
        call()


@pytest.fixture(scope="module")
def codes(tmp_path_factory):
    """The data files, a recursive code and a path that does not exist."""
    tmp = tmp_path_factory.mktemp("codes")
    C, params = lindstrom(3, 5, 1)
    write_matrix(tmp / "lindstrom.sqgt", C, params.q, params.Q, params.eta)
    return CODES + [str(tmp / "lindstrom.sqgt"), str(tmp / "missing.sqgt")], tmp


def _options(draw, options: dict) -> list[str]:
    """Each option set, or left out, at random; --option=value keeps a
    value that starts with a minus sign from reading as an option."""
    return [f"{option}={draw(values)}" for option, values in options.items()
            if draw(st.booleans())]


def _exits_cleanly(argv):
    assert main(argv) in (0, 1, 2), argv


@CLI
@given(st.data())
def test_construct_argv(codes, data):
    files, tmp = codes
    argv = ["construct", "--method", data.draw(st.sampled_from(CONSTRUCT_METHODS)),
            "--out", str(tmp / "out.sqgt")]
    argv += _options(data.draw, {
        "--base": st.sampled_from(files),
        "--n": st.integers(-1, 8),
        "--d": st.integers(-1, 3),
        "--e": st.integers(-2, 2),
        "--q": st.integers(0, 9),
        "--eta": st.integers(-1, 3),
        "--thresholds": st.lists(st.integers(-1, 9), max_size=6).map(
            lambda v: ",".join(map(str, v))),
        "--levels": st.integers(0, 4),
        "--alpha": st.integers(0, 3),
        "--kappa": st.integers(0, 3),
        "--p0": FLOAT,
        "--delta": FLOAT,
        "--m": st.integers(-1, 30),
        "--m-multiplier": FLOAT,
        "--base-kind": st.sampled_from(["cgt", "qgt"]),
        "--seed": st.integers(-3, 3),
    })
    _exits_cleanly(argv)


@CLI
@given(st.data())
def test_verify_argv(codes, data):
    files, _ = codes
    argv = ["verify", "--code", data.draw(st.sampled_from(files)),
            "--property", data.draw(st.sampled_from(VERIFY_PROPERTIES)),
            f"--d={data.draw(st.integers(-1, 3))}"]
    argv += _options(data.draw, {
        "--e": st.integers(-1, 2),
        "--l": st.integers(-1, 3),
        "--budget": st.integers(-1, 1000),
    })
    _exits_cleanly(argv)


@CLI
@given(st.data())
def test_encode_argv(codes, data):
    files, _ = codes
    argv = ["encode", "--code", data.draw(st.sampled_from(files))]
    argv += _options(data.draw, {
        "--defectives": INTS,
        "--gamma-p": FLOAT,
        "--gamma-n": FLOAT,
        "--seed": st.integers(-3, 3),
    })
    _exits_cleanly(argv)


@CLI
@given(st.data())
def test_decode_argv(codes, data):
    files, _ = codes
    argv = ["decode", "--code", data.draw(st.sampled_from(files)),
            f"--syndrome={data.draw(INTS)}",
            "--algorithm", data.draw(st.sampled_from(DECODE_ALGORITHMS))]
    argv += _options(data.draw, {
        "--d": st.integers(-1, 3),
        "--e": st.integers(-1, 2),
        "--l": st.integers(-1, 3),
        "--gamma-p": FLOAT,
        "--gamma-n": FLOAT,
        "--iterations": st.integers(-1, 3),
        "--damping": FLOAT,
        "--bp-tol": FLOAT,
        "--select": st.sampled_from(["top-d", "threshold"]),
    })
    _exits_cleanly(argv)


@CLI
@given(st.data())
def test_commands_on_matrix_files(codes, data):
    _, tmp = codes
    path = tmp / "drawn.sqgt"
    path.write_text(data.draw(matrix_texts()))
    command = data.draw(st.sampled_from([
        ["encode", "--defectives=1,2"],
        ["verify", "--property=sq-separable", "--d=2"],
        ["decode", "--syndrome=0,1,2", "--algorithm=disjunct", "--d=2"],
    ]))
    _exits_cleanly([command[0], "--code", str(path), *command[1:]])
