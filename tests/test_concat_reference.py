"""The broadcast concatenation and the decoder on its binary base against
the per-block build and decoder they replaced.

Every outcome is compared: the matrix bytes, the scales and the bracket of
a build, the decoded set of every set of at most two subjects and of two
one-coordinate perturbations of its syndrome, and the structure reading of
a corrupted and a truncated code, or else the error class and message.
"""

import numpy as np
import pytest

import concat_reference as ref
from sqgt.construct import concat_disjunct, concat_spec
from sqgt.decode import decode_concat
from sqgt.errors import SqgtError

from conftest import BASE_7x8, BASE_9x12

PAIRS = ((2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 2), (7, 3), (9, 2), (10, 3))  # (q, threshold step)


def _outcome(call):
    try:
        return call()
    except SqgtError as err:
        return type(err), str(err)


def _build(concat, base, d, e, q, step):
    C, spec = concat(base, d, e, q, step)
    return C.dtype, C.shape, C.tobytes(), spec.scales, str(spec.params)


def _results(C, params):
    """The results of every set of at most two subjects, each followed by
    the same results one up and one down in a coordinate of its own. A sum
    that reaches the sentinel, two subjects at d = 1, saturates at Q - 1."""
    m, n = C.shape
    sets = [()] + [(i,) for i in range(n)] + [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    for k, planted in enumerate(sets):
        z = np.minimum(C[:, list(planted)].sum(axis=1) // params.step, params.Q - 1)
        yield z
        for shift in (1, -1):
            w = z.copy()
            w[(k + (shift > 0)) % m] += shift
            yield w


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("q, step", PAIRS)
@pytest.mark.parametrize("base", [BASE_9x12, BASE_7x8], ids=["disjunct-9x12", "separable-7x8"])
def test_matches_the_per_block_reference(base, q, step, d, e):
    built = _outcome(lambda: _build(concat_disjunct, base, d, e, q, step))
    assert built == _outcome(lambda: _build(ref.concat_disjunct, base, d, e, q, step))
    if isinstance(built[0], type):
        return
    C, spec = concat_disjunct(base, d, e, q, step)
    params = spec.params
    for z in _results(C, params):
        assert _outcome(lambda: decode_concat(C, params, z)) == _outcome(lambda: ref.decode_concat(C, params, z))
    corrupted = C.copy()
    corrupted[-1, -1] = step - corrupted[-1, -1]
    for bad in (corrupted, C[:, :-1]):
        z = np.zeros(len(bad), dtype=np.int64)
        assert _outcome(lambda: concat_spec(bad, params).scales) == _outcome(lambda: ref.concat_spec(bad, params).scales)
        assert _outcome(lambda: decode_concat(bad, params, z)) == _outcome(lambda: ref.decode_concat(bad, params, z))
