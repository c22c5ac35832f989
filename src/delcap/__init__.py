"""Maximum-likelihood upper bounds on capacities of deletion-type channels.

The package has one module per concern: exact bit-sequence handling
(``bitseq``), deletion-pattern counting (``patcount``), exhaustive search
for the most deletion-compatible inputs (``mdm``), closed-form and numeric
channel bounds (``bounds``), and an alternating-maximization baseline
(``baa``).  ``cli`` wires them into the ``delcap`` command.
"""

from .baa import (
    BaaReport,
    ChannelMatrix,
    baa_capacity,
    baa_iterate,
    build_channel_matrix,
    dobrushin_sandwich,
    kkt_residual,
)
from .bitseq import (
    BinarySequence,
    CapExceededError,
    RunLengthProfile,
    all_sequences,
    canonical_form,
    complement,
    reverse,
    run_length_profile,
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
from .mdm import (
    DupApproach,
    MdmResult,
    MdmTable,
    approximate_dup_sequence,
    build_dup_sequence,
    dup_count_formula,
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
    "RunLengthProfile",
    "all_sequences",
    "approximate_dup_sequence",
    "baa_capacity",
    "baa_iterate",
    "bdc_dup_bound_n",
    "bdc_ml_bound_n",
    "bec_bound",
    "bec_finite_n_check",
    "bsc_bound",
    "bsc_finite_n_check",
    "build_channel_matrix",
    "build_dup_sequence",
    "canonical_form",
    "complement",
    "count_deletion_patterns",
    "count_deletion_patterns_oracle",
    "counts_for_all_inputs",
    "dobrushin_sandwich",
    "dup_count_formula",
    "duplication_ratio",
    "explicit_approx",
    "flip_sequence",
    "is_alternating",
    "kkt_residual",
    "mdm_table",
    "min_duplication_ratio",
    "psi",
    "reference_golden_bound",
    "reverse",
    "run_length_profile",
    "runs",
    "stirling_lower_bound",
    "sum_max_counts",
    "typical_output_length",
]
