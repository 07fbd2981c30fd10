import pathlib

import numpy as np
import pytest

from sqgt.errors import BadRange, ParseError, ThresholdNotIncreasing
from sqgt.fileio import format_matrix, parse_matrix, read_matrix, write_matrix

from conftest import BASE_9x12, GOLDEN_9x24

DATA = pathlib.Path(__file__).parent / "data"


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    C = rng.integers(0, 5, size=(4, 7))
    path = tmp_path / "code.sqgt"
    write_matrix(path, C, 5, 3, (0, 2, 4, 21))
    C2, q, Q, eta = read_matrix(path)
    assert np.array_equal(C, C2) and (q, Q, eta) == (5, 3, (0, 2, 4, 21))


def test_golden_fixture_parses_to_printed_values():
    C, q, Q, eta = read_matrix(DATA / "golden_9x24.sqgt")
    assert np.array_equal(C, GOLDEN_9x24)
    assert (q, eta[1]) == (7, 2)


def test_base_fixture_matches_literal():
    C, *_ = read_matrix(DATA / "base_2disjunct_9x12.sqgt")
    assert np.array_equal(C, BASE_9x12)


def test_truncated_file_names_missing_row():
    text = format_matrix(GOLDEN_9x24, 7, 7, tuple(range(0, 15, 2)))
    clipped = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ParseError, match="missing row 9 of 9"):
        parse_matrix(clipped)


def test_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("NOT-A-CODE\n")


def test_short_row_column_report():
    text = "SQGT-CODE v1\nq=2 Q=2 m=1 n=3\neta=0,1,4\n1 0\n"
    with pytest.raises(ParseError, match="has 2 entries, expected 3"):
        parse_matrix(text)


def test_bad_threshold_count():
    text = "SQGT-CODE v1\nq=2 Q=2 m=1 n=1\neta=0,1\n1\n"
    with pytest.raises(ParseError, match="expected 3 thresholds"):
        parse_matrix(text)


@pytest.mark.parametrize("eta", ["0,3,1,9", "0,3,3,9", "1,3,5,9"])
def test_thresholds_must_start_at_zero_and_increase(eta):
    text = f"SQGT-CODE v1\nq=3 Q=3 m=1 n=2\neta={eta}\n1 2\n"
    with pytest.raises(ThresholdNotIncreasing):
        parse_matrix(text)


@pytest.mark.parametrize("shape", ["m=0 n=1", "m=1 n=0"])
def test_empty_matrix(shape):
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix(f"SQGT-CODE v1\nq=2 Q=2 {shape}\neta=0,1,4\n\n")


def test_entry_out_of_alphabet():
    text = "SQGT-CODE v1\nq=2 Q=2 m=1 n=1\neta=0,1,4\n3\n"
    with pytest.raises(ParseError, match="0..1"):
        parse_matrix(text)


@pytest.mark.parametrize("params", ["q=2 Q=1 m=1 n=2\neta=0,5", "q=1 Q=2 m=1 n=2\neta=0,1,2"])
def test_alphabets_below_two(params):
    with pytest.raises(BadRange, match="alphabet sizes must be >= 2"):
        parse_matrix(f"SQGT-CODE v1\n{params}\n0 0\n")


@pytest.mark.parametrize("Q, eta, error", [
    (3, (0, 1), ParseError),
    (2, (0, 3, 1), ThresholdNotIncreasing),
    (2, (1, 2, 3), ThresholdNotIncreasing),
    (1, (0, 5), BadRange),
    (2, (0, 1, 2**63), BadRange),
])
def test_writing_refuses_each_header_that_reading_refuses(tmp_path, Q, eta, error):
    with pytest.raises(error):
        parse_matrix(f"SQGT-CODE v1\nq=3 Q={Q} m=1 n=2\neta={','.join(map(str, eta))}\n1 2\n")
    path = tmp_path / "code.sqgt"
    with pytest.raises(error):
        write_matrix(path, [[1, 2]], 3, Q, eta)
    assert not path.exists()


@pytest.mark.parametrize("q, Q, eta", [(3, 2, (0, 1, 2.5)), (3, 2, (0, 1.0, 3)), (3.0, 2, (0, 1, 3))])
def test_writing_refuses_a_size_or_threshold_that_is_no_integer(q, Q, eta):
    # int() would write 2.5 as 2, a file that reads back as another bracket
    with pytest.raises(BadRange, match="must be an integer, got"):
        format_matrix([[1, 2]], q, Q, eta)
