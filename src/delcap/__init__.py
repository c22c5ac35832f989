"""Maximum-likelihood upper bounds on capacities of deletion-type channels.

The package has one module per concern: exact bit-sequence handling
(``bitseq``), deletion-pattern counting (``patcount``), exhaustive search
for the most deletion-compatible inputs (``mdm``), duplication sums
(``dupsum``), closed-form and numeric channel bounds (``bounds``), and an
alternating-maximization baseline (``baa``).  ``cli`` wires them into the
``delcap`` command.
"""

from .baa import (
    BaaReport,
    ChannelMatrix,
    baa_capacity,
    build_channel_matrix,
    dobrushin_sandwich,
    kkt_residual,
)
from .bitseq import (
    BinarySequence,
    CapExceededError,
    all_sequences,
    runs,
)
from .bounds import (
    DegenerateOutputError,
    PSI_CONSTANT,
    bdc_dup_bound_n,
    bdc_ml_bound_n,
    bec_bound,
    bec_finite_n_check,
    bsc_bound,
    bsc_finite_n_check,
    explicit_approx,
    psi,
    reference_golden_bound,
    typical_output_length,
)
from .dupsum import DupApproach, dup_sum
from .mdm import (
    MdmResult,
    MdmTable,
    canonical_form,
    dup_estimate,
    duplication_ratio,
    flip_sequence,
    is_alternating,
    mdm_table,
    min_duplication_ratio,
    stirling_lower_bound,
    sum_max_counts,
)
from .patcount import (
    count_deletion_patterns,
    count_deletion_patterns_oracle,
    counts_for_all_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "BaaReport",
    "BinarySequence",
    "CapExceededError",
    "ChannelMatrix",
    "DegenerateOutputError",
    "DupApproach",
    "MdmResult",
    "MdmTable",
    "PSI_CONSTANT",
    "all_sequences",
    "baa_capacity",
    "bdc_dup_bound_n",
    "bdc_ml_bound_n",
    "bec_bound",
    "bec_finite_n_check",
    "bsc_bound",
    "bsc_finite_n_check",
    "build_channel_matrix",
    "canonical_form",
    "count_deletion_patterns",
    "count_deletion_patterns_oracle",
    "counts_for_all_inputs",
    "dobrushin_sandwich",
    "dup_estimate",
    "dup_sum",
    "duplication_ratio",
    "explicit_approx",
    "flip_sequence",
    "is_alternating",
    "kkt_residual",
    "mdm_table",
    "min_duplication_ratio",
    "psi",
    "reference_golden_bound",
    "runs",
    "stirling_lower_bound",
    "sum_max_counts",
    "typical_output_length",
]
