"""Exception types shared across the package.

Everything raised on purpose by library code derives from SqgtError, so the
command line front end can print the error name and exit nonzero.
"""


class SqgtError(Exception):
    """Base class for all errors raised by this package."""


# parameter validation

class ThresholdNotIncreasing(SqgtError):
    """Thresholds must start at zero and strictly increase."""


class SentinelTooSmall(SqgtError):
    """The top threshold must exceed the largest reachable test sum."""


class BadRange(SqgtError):
    """An argument is outside its documented range."""


# channel / syndrome operations

class SumOutOfRange(SqgtError):
    """A coordinate sum reached the sentinel threshold."""


class LengthMismatch(SqgtError):
    """Vectors that must have equal length do not."""


# verifiers

class TooFewColumns(SqgtError):
    """The matrix has too few columns for the requested property."""


class NotBinary(SqgtError):
    """A binary matrix was required."""


class ExplosionGuard(SqgtError):
    """Brute-force enumeration would exceed the configured budget."""


# constructions

class AlphabetTooSmall(SqgtError):
    """The available alphabet cannot reach the first threshold."""


class BadDistribution(SqgtError):
    """Entry probabilities do not form a distribution."""


class NotPrime(SqgtError):
    """A prime modulus was required."""


class Overflow(SqgtError):
    """Requested parameters exceed the safe integer range."""


class BadThreshold(SqgtError):
    """A threshold value is unusable for this formula."""


class BadKappa(SqgtError):
    """The branching parameter of the recursive construction is invalid."""


# decoders

class InconsistentSpec(SqgtError):
    """Construction metadata does not match the given code or syndrome."""


class NonBinaryResidue(SqgtError):
    """An elimination step produced a value with no binary representation."""


class NoConsistentSet(SqgtError):
    """No candidate defective set explains the observed results."""


class NumericalUnderflow(SqgtError):
    """Message normalization failed; all mass underflowed to zero."""


class BadD(SqgtError):
    """Requested defective count is out of range."""


# capacity

class BadPartition(SqgtError):
    """A defective-set split size is out of range."""


class BudgetExceeded(SqgtError):
    """The search grid exceeds the configured evaluation budget."""


class BadEta(SqgtError):
    """Threshold argument outside the valid range for this rate formula."""


# cli / io

class ParseError(SqgtError):
    """A matrix or config file is malformed."""


class ConfigError(SqgtError):
    """A simulation configuration is invalid."""
