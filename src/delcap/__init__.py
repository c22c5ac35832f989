"""Maximum-likelihood upper bounds on capacities of deletion-type channels.

The package has one module per concern: exact bit-sequence handling
(``bitseq``), deletion-pattern counting (``patcount``), exhaustive search
for the most deletion-compatible inputs (``mdm``), duplication sums
(``dupsum``), closed-form and numeric channel bounds (``bounds``), and an
alternating-maximization baseline (``baa``).  ``cli`` wires them into the
``delcap`` command.

Every public name is re-exported here but imported on first use (PEP 562),
so ``import delcap`` loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

# each exported name -> the module that defines it
_EXPORTS = {
    "BaaReport": "baa",
    "ChannelMatrix": "baa",
    "baa_capacity": "baa",
    "build_channel_matrix": "baa",
    "dobrushin_sandwich": "baa",
    "kkt_residual": "baa",
    "BinarySequence": "bitseq",
    "CapExceededError": "bitseq",
    "all_sequences": "bitseq",
    "runs": "bitseq",
    "DegenerateOutputError": "bounds",
    "PSI_CONSTANT": "bounds",
    "bdc_dup_bound_n": "bounds",
    "bdc_ml_bound_n": "bounds",
    "bec_bound": "bounds",
    "bec_finite_n_check": "bounds",
    "bsc_bound": "bounds",
    "bsc_finite_n_check": "bounds",
    "explicit_approx": "bounds",
    "psi": "bounds",
    "reference_golden_bound": "bounds",
    "typical_output_length": "bounds",
    "DupApproach": "dupsum",
    "dup_sum": "dupsum",
    "MdmResult": "mdm",
    "MdmTable": "mdm",
    "canonical_form": "mdm",
    "dup_estimate": "mdm",
    "duplication_ratio": "mdm",
    "flip_sequence": "mdm",
    "is_alternating": "mdm",
    "mdm_table": "mdm",
    "min_duplication_ratio": "mdm",
    "stirling_lower_bound": "mdm",
    "sum_max_counts": "mdm",
    "count_deletion_patterns": "patcount",
    "count_deletion_patterns_oracle": "patcount",
    "counts_for_all_inputs": "patcount",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import an exported name's module on first access and keep the value
    here, so later lookups skip this hook; a module name of the table
    resolves to that submodule."""
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
