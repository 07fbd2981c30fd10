"""Text formats: the versioned matrix file and the sweep-result CSV.

Matrix files are line oriented and diff-friendly:

    SQGT-CODE v1
    q=<int> Q=<int> m=<int> n=<int>
    eta=<comma-separated Q+1 ints>
    <m lines of n space-separated ints>

Reading and writing run the same header checks: alphabet sizes q or Q
below 2 are refused with BadRange, a threshold count other than Q + 1 with
ParseError, and thresholds that do not start at 0 and strictly increase
with ThresholdNotIncreasing, as validate_params does. So every file that
write_matrix writes, read_matrix reads back as written.
"""

import numpy as np

from .errors import ParseError
from .model import _check_alphabets, _check_integer, _check_thresholds, check_matrix

__all__ = ["MAGIC", "CSV_HEADER", "write_matrix", "read_matrix", "format_matrix", "parse_matrix"]

MAGIC = "SQGT-CODE v1"
CSV_HEADER = "seed,n,m,d,q,eta,gamma_p,gamma_n,trials,iters,method,P_e,P_FN,P_FP"


def _check_header(q: int, Q: int, eta: tuple) -> None:
    """The checks of a file's parameter and threshold lines."""
    for name, value in (("q", q), ("Q", Q)):
        _check_integer(name, value)
    _check_alphabets(q, Q)
    if len(eta) != Q + 1:
        raise ParseError(f"line 3: expected {Q + 1} thresholds, got {len(eta)}")
    _check_thresholds(eta)


def format_matrix(C, q: int, Q: int, eta) -> str:
    eta = tuple(eta)
    _check_header(q, Q, eta)
    C = check_matrix(C, q)
    m, n = C.shape
    lines = [
        MAGIC,
        f"q={q} Q={Q} m={m} n={n}",
        "eta=" + ",".join(map(str, eta)),
    ]
    lines.extend(" ".join(str(int(v)) for v in row) for row in C)
    return "\n".join(lines) + "\n"


def write_matrix(path, C, q: int, Q: int, eta) -> None:
    """Write the matrix file; a refused matrix or header leaves path as it was."""
    text = format_matrix(C, q, Q, eta)
    with open(path, "w") as fh:
        fh.write(text)


def parse_matrix(text: str) -> tuple[np.ndarray, int, int, tuple[int, ...]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"line 1: expected header {MAGIC!r}")
    if len(lines) < 2:
        raise ParseError("line 2: missing parameter line")
    fields = {}
    for col, token in enumerate(lines[1].split(), start=1):
        if "=" not in token:
            raise ParseError(f"line 2, field {col}: expected key=value, got {token!r}")
        key, _, val = token.partition("=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise ParseError(f"line 2, field {col}: bad integer {val!r}") from None
    missing = {"q", "Q", "m", "n"} - fields.keys()
    if missing:
        raise ParseError(f"line 2: missing keys {sorted(missing)}")
    q, Q, m, n = fields["q"], fields["Q"], fields["m"], fields["n"]
    if m < 1 or n < 1:
        raise ParseError(f"line 2: need m, n >= 1, got m={m}, n={n}")
    if len(lines) < 3 or not lines[2].startswith("eta="):
        raise ParseError("line 3: expected eta=<comma-separated ints>")
    try:
        eta = tuple(int(x) for x in lines[2][4:].split(","))
    except ValueError:
        raise ParseError("line 3: bad integer in threshold list") from None
    _check_header(q, Q, eta)
    rows = []
    for i in range(m):
        lineno = 4 + i
        if lineno > len(lines) or not lines[lineno - 1].strip():
            raise ParseError(f"line {lineno}: missing row {i + 1} of {m}")
        parts = lines[lineno - 1].split()
        if len(parts) != n:
            raise ParseError(f"line {lineno}: row {i + 1} has {len(parts)} entries, expected {n}")
        try:
            rows.append(np.array([int(x) for x in parts], dtype=np.int64))
        except (ValueError, OverflowError):  # not an integer, or beyond int64
            raise ParseError(f"line {lineno}: bad integer in row {i + 1}") from None
    C = np.array(rows)
    if C.min() < 0 or C.max() > q - 1:
        raise ParseError(f"matrix entries must lie in 0..{q - 1}")
    return C, q, Q, eta


def read_matrix(path) -> tuple[np.ndarray, int, int, tuple[int, ...]]:
    with open(path) as fh:
        return parse_matrix(fh.read())
