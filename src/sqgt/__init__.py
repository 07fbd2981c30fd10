"""Semi-quantitative group testing: codes, verifiers, decoders, capacity."""

from .errors import SqgtError
from .model import (
    NOISELESS,
    CodeParams,
    NoiseModel,
    apply_noise,
    channel_matrix,
    check_matrix,
    includes,
    quantize_sums,
    sq_sum,
    syndrome,
    validate_params,
)
from .verify import (
    Witness,
    is_binary_disjunct_cgt,
    is_binary_separable_cgt,
    is_binary_separable_qgt,
    is_sq_disjunct,
    is_sq_separable,
)
from .construct import (
    ConcatSpec,
    LindstromSpec,
    binary_row_success_bound,
    bose_chowla,
    bose_chowla_code,
    concat_disjunct,
    concat_separable,
    concat_spec,
    lindstrom,
    lindstrom_spec,
    optimize_p0,
    random_binary_separable,
    random_disjunct,
    ratio_vs_single_level,
    ratio_vs_single_level_limit,
    reduce_alphabet,
    row_success_prob,
    scale_disjunct,
    scale_separable,
    sidon_set_exhaustive,
)
from .decode import (
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
from .capacity import (
    Quantizer,
    capacity_search,
    mutual_information,
    mutual_information_bruteforce,
    necessary_tests,
    output_pmf,
    rate_objective,
    sufficient_tests,
    sum_pmf,
    td_rate_denominator,
)
from .simulate import SimulationRow, SweepConfig, parse_config, rows_to_csv, run_simulation
from .fileio import read_matrix, write_matrix

__version__ = "0.1.0"
