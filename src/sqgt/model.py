"""Core domain types and the quantized-adder test channel.

A test matrix is a plain integer ndarray of shape (m, n) with entries in
0..q-1; a syndrome is a length-m integer vector over 0..Q-1. Subjects are
numbered 1..n in every public interface (column j of the matrix belongs to
subject j+1); 0-based indices appear only inside implementation code.

All operations here are pure functions of their inputs. Stochastic ones take
an explicit seed and are bit-reproducible.
"""

import operator
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import (
    BadRange,
    BadThreshold,
    LengthMismatch,
    SentinelTooSmall,
    SumOutOfRange,
    ThresholdNotIncreasing,
)
from .rng import make_rng

__all__ = [
    "CodeParams",
    "NoiseModel",
    "NOISELESS",
    "validate_params",
    "check_matrix",
    "quantize_sums",
    "sq_sum",
    "syndrome",
    "includes",
    "apply_noise",
    "likelihood",
]


DEFAULT_BUDGET = 10_000_000  # sets or pairs a brute-force verifier may enumerate
MAX_Q = 2**20  # Q cap of CodeParams.equidistant, which builds Q + 1 thresholds
MAX_CELLS = 10**7  # cap of a code's m x n (kappa <= 10 at q <= 17) and of BP's rows per trial


@dataclass(frozen=True)
class CodeParams:
    """Bracket parameters [q; Q; eta; (l:u); e] governing a code.

    q is the test-matrix alphabet size (entries in 0..q-1), Q the output
    alphabet size, eta the Q+1 thresholds eta_0..eta_Q including the
    sentinel, l..u the range of defective counts the code must resolve, and
    e the number of correctable errors in the result vector. A bracket is
    checked when it is built: validate_params raises on an invalid one.
    """

    q: int
    Q: int
    eta: tuple[int, ...]
    l: int = 1
    u: int = 1
    e: int = 0

    def __post_init__(self):
        validate_params(self)

    @classmethod
    def equidistant(cls, q: int, eta_step: int, l: int, u: int, e: int = 0) -> "CodeParams":
        """Uniform-quantizer parameters with the smallest valid sentinel;
        BadRange for a Q above MAX_Q, before its thresholds are built."""
        Q = _equidistant_Q(q, eta_step, u)
        return cls(q=q, Q=Q, eta=tuple(r * eta_step for r in range(Q + 1)), l=l, u=u, e=e)

    @property
    def step(self) -> int:
        """eta_1 of equidistant thresholds eta_r = r*eta_1; BadThreshold
        names the first threshold off that step."""
        step = self.eta[1]
        for r, t in enumerate(self.eta):
            if t != r * step:
                raise BadThreshold(f"thresholds are not equidistant: eta_{r}={t}, step {step} needs {r * step}")
        return step

    def __str__(self) -> str:
        eta = ",".join(str(t) for t in self.eta)
        return f"[{self.q};{self.Q};({eta});({self.l}:{self.u});{self.e}]"


def _equidistant_Q(q: int, eta_step: int, u: int) -> int:
    """Q of the equidistant bracket at (q, eta_step, u); BadRange for a
    size that is not an integer, a step below 1 or a Q above MAX_Q."""
    for name, value in (("q", q), ("eta step", eta_step), ("u", u)):
        _check_integer(name, value)
    if eta_step < 1:
        raise BadRange(f"eta step must be >= 1, got {eta_step}")
    Q = max(2, (q - 1) * u // eta_step + 1)
    if Q > MAX_Q:
        raise BadRange(f"Q={Q} exceeds the output alphabet cap {MAX_Q}")
    return Q


def _check_integer(name: str, value) -> None:
    """Raise BadRange unless value is an integer other than a bool; numpy
    integers pass."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise BadRange(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Raise BadRange unless value is a real number, so that text or None
    never reaches a range comparison."""
    if not isinstance(value, Real):
        raise BadRange(f"{name} must be a real number, got {value!r}")


def _check_thresholds(eta) -> None:
    """Raise ThresholdNotIncreasing unless eta starts at 0 and strictly
    increases, and BadRange unless its entries are integers that fit in
    int64."""
    _check_integer("eta_0", eta[0])
    if eta[0] != 0:
        raise ThresholdNotIncreasing(f"eta_0 must be 0, got {eta[0]}")
    for r in range(len(eta) - 1):
        if type(eta[r + 1]) is not int:  # a plain int needs no call, which costs more than the loop
            _check_integer(f"eta_{r + 1}", eta[r + 1])
        if eta[r + 1] <= eta[r]:
            raise ThresholdNotIncreasing(
                f"thresholds must strictly increase, "
                f"eta_{r}={eta[r]} vs eta_{r + 1}={eta[r + 1]}"
            )
    if eta[-1] >= 2**63:
        raise BadRange(f"thresholds must lie below 2^63, got eta_{len(eta) - 1}={eta[-1]}")


def _check_alphabets(q: int, Q: int) -> None:
    """Raise BadRange unless both alphabet sizes are at least 2."""
    if q < 2 or Q < 2:
        raise BadRange(f"alphabet sizes must be >= 2, got q={q}, Q={Q}")


def validate_params(p: CodeParams) -> None:
    """Raise unless every CodeParams invariant holds."""
    for name in ("q", "Q", "l", "u", "e"):
        _check_integer(name, getattr(p, name))
    _check_alphabets(p.q, p.Q)
    if p.e < 0:
        raise BadRange(f"error budget must be >= 0, got e={p.e}")
    if not (1 <= p.l <= p.u):
        raise BadRange(f"need 1 <= l <= u, got l={p.l}, u={p.u}")
    if len(p.eta) != p.Q + 1:
        raise ThresholdNotIncreasing(
            f"expected {p.Q + 1} thresholds for Q={p.Q}, got {len(p.eta)}"
        )
    _check_thresholds(p.eta)
    if p.eta[-1] <= (p.q - 1) * p.u:
        raise SentinelTooSmall(
            f"sentinel eta_Q={p.eta[-1]} must exceed (q-1)*u={(p.q - 1) * p.u}"
        )


@dataclass(frozen=True)
class NoiseModel:
    """Substitution noise on test results: +1 w.p. gamma_p, -1 w.p. gamma_n.

    Boundary values saturate: 0 never moves down and Q-1 never moves up, so
    a result at 0 stays with probability 1 - gamma_p and a result at Q-1
    stays with probability 1 - gamma_n.
    """

    gamma_p: float = 0.0
    gamma_n: float = 0.0

    def __post_init__(self):
        for name in ("gamma_p", "gamma_n"):
            _check_real(name, getattr(self, name))
        # NaN fails every comparison; the stay probability is checked as computed
        if not (self.gamma_p >= 0 and self.gamma_n >= 0 and 1.0 - self.gamma_p - self.gamma_n >= 0):
            raise BadRange(
                f"need gamma_p, gamma_n >= 0 and gamma_p + gamma_n <= 1, "
                f"got ({self.gamma_p}, {self.gamma_n})"
            )


NOISELESS = NoiseModel(0.0, 0.0)


def _integers(x, what: str, past=None) -> np.ndarray:
    """x as an int64 array. An entry that is not an integer, or lies
    outside int64, raises BadRange naming it exactly, where a cast would
    truncate, round or wrap it; integral floats such as 1.0 pass. An entry
    above int64 raises past(entry) instead, when past is given."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind in "bi" or arr.dtype.kind == "u" and int(arr.max(initial=0)) < 2**63:
            return arr.astype(np.int64)
        if arr.dtype.kind in "cSU":
            raise TypeError  # a cast would drop the imaginary part, or parse text as a number
        f = arr.astype(np.float64)
    except (TypeError, ValueError):
        raise BadRange(f"{what} must be integers") from None
    # below 2^53 a float is exact, whatever numpy typed as float
    if arr.dtype.kind not in "uO" and (np.isfinite(f) & (f == np.trunc(f)) & (np.abs(f) < 2.0**53)).all():
        return f.astype(np.int64)
    # uint64 past int64, Python ints that numpy made float or object, or an
    # entry that is no integer: read each int as it is, each other entry as
    # the float it makes
    out = []
    for v, fv in zip(np.asarray(x, dtype=object).ravel().tolist(), f.ravel().tolist()):
        try:
            v = operator.index(v)
        except TypeError:
            if isinstance(v, (str, bytes)):
                raise BadRange(f"{what} must be integers, got {v!r}") from None
            if not fv.is_integer():
                raise BadRange(f"{what} must be integers, got {fv}") from None
            v = fv
        if v >= 2**63 and past is not None:
            raise past(v)
        if not -(2**63) <= v < 2**63:
            raise BadRange(f"{what} must be integers in -2^63..2^63-1, got {v}")
        out.append(v)
    return np.array(out, dtype=np.int64).reshape(arr.shape)


def check_matrix(C, q: int | None = None) -> np.ndarray:
    """Coerce to an (m, n) int64 matrix, checking the entry range."""
    arr = _integers(C, "matrix entries")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise BadRange(f"expected a 2-D matrix with m, n >= 1, got shape {arr.shape}")
    if arr.min() < 0:
        raise BadRange("matrix entries must be nonnegative")
    if q is not None and arr.max() > q - 1:
        raise BadRange(f"matrix entries must be < q={q}, found {arr.max()}")
    return arr


def quantize_sums(sums, eta) -> np.ndarray:
    """Map integer sums to threshold buckets: r such that eta_r <= s < eta_{r+1}.

    A sum at or above the sentinel, one past int64 included, raises
    SumOutOfRange, signalling a violated sentinel assumption; a sum that is
    not an integer raises BadRange. An int64 array is read in place. When
    every sum lies in 0..sums.size-1, the buckets of 0..max are computed
    once and looked up, which gives the same result as the binary search
    per element.
    """
    eta_arr = np.asarray(eta, dtype=np.int64)

    def reached(top: int) -> SumOutOfRange:
        return SumOutOfRange(f"coordinate sum {top} reached sentinel {int(eta_arr[-1])}")

    arr = np.asarray(sums)
    sums = arr if arr.dtype == np.int64 else _integers(sums, "sums", past=reached)
    if sums.size:
        top = int(sums.max())
        if top >= eta_arr[-1]:
            raise reached(top)
        if top < sums.size and sums.min() >= 0:
            lut = np.searchsorted(eta_arr, np.arange(top + 1), side="right") - 1
            return lut[sums]
    return np.searchsorted(eta_arr, sums, side="right") - 1


def _quantize_columns(X: np.ndarray, eta) -> np.ndarray:
    """quantize_sums of the column sums of the nonnegative int64 matrix X, which
    no bracket bounds: if max * rows reaches 2^63, a sum past int64 raises."""
    if int(X.max(initial=0)) * len(X) >= 2**63 and (top := max(X.astype(object).sum(axis=0))) >= 2**63:
        raise SumOutOfRange(f"coordinate sum {top} reached sentinel {int(np.asarray(eta)[-1])}")
    return quantize_sums(X.sum(axis=0), eta)


def sq_sum(vectors, eta, m: int | None = None) -> np.ndarray:
    """SQ-sum of a collection of codewords: quantized coordinate-wise sum.

    vectors is an iterable of equal-length integer vectors (possibly empty;
    pass m to fix the length in that case). Coordinate k of the result is
    the bucket r with eta_r <= sum_j x_j(k) < eta_{r+1}. For equidistant
    thresholds this equals floor(sum / eta_step). A negative entry raises
    BadRange.
    """
    if m is not None:
        _check_integer("m", m)
    vecs = [_integers(v, "codeword entries") for v in vectors]
    if not vecs:
        if m is None:
            raise LengthMismatch("empty codeword set needs an explicit length m")
        return np.zeros(m, dtype=np.int64)
    lengths = {v.shape[-1] for v in vecs}
    if len(lengths) != 1 or any(v.ndim != 1 for v in vecs):
        raise LengthMismatch(f"codewords must be 1-D and equal length, got {lengths}")
    if m is not None and vecs[0].shape[0] != m:
        raise LengthMismatch(f"codewords have length {vecs[0].shape[0]}, expected {m}")
    X = np.array(vecs)
    if (X < 0).any():
        raise BadRange("codeword entries must be nonnegative")
    return _quantize_columns(X, eta)


def syndrome(C, subjects, eta) -> np.ndarray:
    """Syndrome of a set of subjects (1-based indices) under matrix C. An
    index that is not an integer, or is a boolean, raises BadRange."""
    C = check_matrix(C)
    subjects = list(subjects)
    if any(isinstance(s, (bool, np.bool_)) for s in subjects):
        raise BadRange("subject indices must be integers, not booleans")
    idx = _integers(subjects, "subject indices")
    if idx.ndim != 1:
        raise BadRange(f"subject indices must be a flat list, got shape {idx.shape}")
    idx = sorted(set(idx.tolist()))
    if idx and (idx[0] < 1 or idx[-1] > C.shape[1]):
        raise BadRange(f"subject indices must lie in 1..{C.shape[1]}, got {idx}")
    if not idx:
        return np.zeros(C.shape[0], dtype=np.int64)
    return _quantize_columns(C[:, [i - 1 for i in idx]].T, eta)


def includes(a, b) -> bool:
    """Coordinate-wise inclusion: True iff a(i) <= b(i) for all i."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise LengthMismatch(f"syndromes differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b))


def apply_noise(y, Q: int, noise: NoiseModel, seed) -> np.ndarray:
    """Pass a syndrome through the substitution channel; reproducible per seed.

    Each coordinate moves independently: +1 with probability gamma_p, -1
    with probability gamma_n, except that 0 never moves down and Q-1 never
    moves up. The output always stays inside 0..Q-1.
    """
    y = _integers(y, "syndrome values")
    if y.size and (y.min() < 0 or y.max() > Q - 1):
        raise BadRange(f"syndrome values must lie in 0..{Q - 1}")
    u = make_rng(seed).random(y.shape)
    up = (u < noise.gamma_p) & (y < Q - 1)
    down = (u >= noise.gamma_p) & (u < noise.gamma_p + noise.gamma_n) & (y > 0)
    return y + up.astype(np.int64) - down.astype(np.int64)


def likelihood(y, z, Q: int, noise: NoiseModel) -> np.ndarray:
    """P(z | y) of the channel (see NoiseModel) for broadcast integer arrays
    y and z; 0 for any y outside 0..Q-1, such as the sentinel bucket Q."""
    y = np.asarray(y)
    up = np.where(y < Q - 1, noise.gamma_p, 0.0)
    down = np.where(y > 0, noise.gamma_n, 0.0)
    # each y's row by the step z - y = -2..2, read at its flat index
    band = np.stack((0 * up, down, 1.0 - up - down, up, 0 * up), axis=-1)
    band[(y < 0) | (y > Q - 1)] = 0.0
    step = np.asarray(np.subtract(z, y))
    np.clip(step, -2, 2, out=step)
    step += 5 * np.arange(y.size).reshape(y.shape) + 2
    return band.take(step)
