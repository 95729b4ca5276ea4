"""Exact combinatorics of long-cycle factorizations: counting families,
star thorn trees, the map-to-tree bijection, and symmetric-function
identity checks.

The public names below resolve on first access (PEP 562), so importing
the package loads none of its modules until one of their names is used.
"""

from importlib import import_module

_EXPORTS = {
    "partition": ("Partition", "SetPartition", "partitions_of",
                  "permutations_in", "set_partitions_of_type"),
    "perm": ("Permutation", "canonical_long_cycle", "compose"),
    "counting": ("CountTable", "check_lift_recurrence", "count_A",
                 "count_Bprime", "count_C", "count_D", "count_ST", "solve_B",
                 "stirling1_row", "stirling1_unsigned", "verify_zagier"),
    "structures": ("BlackPartitionedStarMap", "LabeledThornTree",
                   "PermutedThornTree", "StarThornTree", "all_permuted_trees",
                   "all_star_maps", "all_star_thorn_trees", "deserialize",
                   "drop", "lift", "serialize"),
    "bijection": ("AuxGraph", "Classification", "InverseOutcome", "aux_graph",
                  "classify", "contract", "expand", "proportion_stats", "psi",
                  "psi_inverse", "psi_label"),
    "oracle": ("BudgetExceeded", "enumerate_A", "enumerate_B",
               "enumerate_Bprime", "enumerate_CD", "enumerate_ST",
               "reformulation_probability"),
    "symfun": ("SymPoly", "delta", "elementary_in_p", "m_to_p", "p_to_m",
               "verify_C2A", "verify_D2B", "verify_reduction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module behind a public name (or a submodule) on first use."""
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
