"""The scaled-block concatenation as it stood with per-block np.hstack
builds and a decoder that ran the counting decoder and the syndrome on
every scaled block, kept verbatim for tests only.

The broadcast build and the decoder on the binary base must reproduce its
matrices, scales, brackets, decoded sets and refusals exactly.
"""

import numpy as np

from sqgt.construct import ConcatSpec, _concat_multipliers, _step_levels
from sqgt.decode import _check_results, decode_disjunct
from sqgt.errors import BadRange, InconsistentSpec, NoConsistentSet
from sqgt.model import MAX_CELLS, CodeParams, _check_integer, _equidistant_Q, check_matrix, syndrome


def _concat_scales(d: int, q: int, eta_step: int) -> tuple[int, ...]:
    """Block scales eta_step * (1 + d + ... + d^(j-1)) up to q-1, for d >= 1;
    at d = 1 that is every multiple of the step."""
    return tuple(eta_step * g for g in _concat_multipliers(d, _step_levels(q, eta_step)))


def concat_spec(C, params: CodeParams) -> ConcatSpec:
    """Block structure of a scaled-block concatenation, read off its matrix.

    The scales follow from the bracket's q, d = u and threshold step.
    InconsistentSpec is raised unless C is exactly [s_1*B, ..., s_K*B] for
    a binary B, the first block divided by its scale.
    """
    C = check_matrix(C, params.q)
    scales = _concat_scales(params.u, params.q, params.step)
    if C.shape[1] % len(scales):
        raise InconsistentSpec(f"n={C.shape[1]} is not divisible by the {len(scales)} blocks")
    base = C[:, : C.shape[1] // len(scales)] // scales[0]
    if base.max() > 1 or not np.array_equal(np.hstack([s * base for s in scales]), C):
        raise InconsistentSpec("code is not a scaled-block concatenation for these parameters")
    return ConcatSpec(scales=scales, params=params)


def concat_disjunct(base, d: int, e: int, q: int, eta_step: int) -> tuple[np.ndarray, ConcatSpec]:
    """Concatenate scaled copies of a binary d-disjunct code.

    Block j is scaled by eta*(d^j - 1)/(d - 1); the result is SQ-separable
    for 1..d defectives and decodes block by block with the disjunct
    counting decoder. BadRange is raised for a Q above the bracket's cap,
    and then for a code of more than MAX_CELLS cells, before the bracket's
    thresholds or any block scale is built.
    """
    base = check_matrix(base, 2)
    _check_integer("d", d)
    if d < 1:
        raise BadRange(f"need d >= 1, got {d}")
    levels = _step_levels(q, eta_step)  # its AlphabetTooSmall comes before any BadRange
    _equidistant_Q(q, eta_step, d)
    multipliers = _concat_multipliers(d, levels)
    if base.size * len(multipliers) > MAX_CELLS:
        raise BadRange(f"{len(multipliers)} blocks x {base.size} base cells exceed {MAX_CELLS} matrix cells")
    params = CodeParams.equidistant(q, eta_step, 1, d, e)
    C = np.hstack([eta_step * g * base for g in multipliers])
    return C, concat_spec(C, params)


def decode_concat(C, params: CodeParams, z) -> tuple[int, ...]:
    """Two-step decoder for concatenated scaled-block codes.

    The block scales, and InconsistentSpec unless C is such a code, come
    from construct.concat_spec under the code's own bracket. Step 1 peels
    the syndrome into per-block syndromes by repeated divide-and-floor
    against the block scale ratios; step 2 runs the disjunct counting
    decoder inside every block. Corrects up to e errors per block. Each
    block's answer is encoded again; NoConsistentSet is raised when it
    holds more than d subjects or its syndrome misses the block syndrome in
    more than e coordinates, which happens when the base is only separable,
    not disjunct.
    """
    C = check_matrix(C, params.q)
    scales = concat_spec(C, params).scales
    m, n = C.shape
    nb = n // len(scales)
    z = _check_results(z, m, params.Q)
    found: list[int] = []
    y = z.copy()
    for j in range(len(scales), 0, -1):
        f = scales[j - 1] // scales[0]  # 1 + d + ... + d^(j-1)
        yj = f * (y // f)
        y = y - yj
        block = C[:, (j - 1) * nb : j * nb]
        local = decode_disjunct(block, params, yj)
        if len(local) > params.u:
            raise NoConsistentSet(
                f"block {j} decodes to {len(local)} subjects, more than d={params.u}"
            )
        encoded = syndrome(block, local, params.eta)
        misses = int((encoded != yj).sum())
        if misses > params.e:
            raise NoConsistentSet(
                f"block {j} decodes to a set whose syndrome misses the block "
                f"syndrome in {misses} coordinates, more than e={params.e}"
            )
        found.extend((j - 1) * nb + i for i in local)
    return tuple(sorted(found))
