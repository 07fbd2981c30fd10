"""Property tests of the input surface: every input ends in output or in a
typed refusal, never in another exception.

The library entry points may raise SqgtError only; the command line must
return 0 or 1, or 2 after a SqgtError or OSError. Every test is
derandomized, so the suite stays deterministic, and draws small sizes, so
that it stays fast.
"""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgt.cli import CONSTRUCT_METHODS, DECODE_ALGORITHMS, VERIFY_PROPERTIES, main
from sqgt.construct import lindstrom
from sqgt.errors import SqgtError
from sqgt.fileio import format_matrix, parse_matrix, write_matrix
from sqgt.model import CodeParams, syndrome
from sqgt.simulate import parse_config

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


@pytest.fixture(scope="module")
def codes(tmp_path_factory):
    """The data files, a recursive code and a path that does not exist."""
    tmp = tmp_path_factory.mktemp("codes")
    C, spec = lindstrom(3, 5, 1)
    write_matrix(tmp / "lindstrom.sqgt", C, spec.params.q, spec.params.Q, spec.params.eta)
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
