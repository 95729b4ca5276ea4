"""Exact combinatorics of long-cycle factorizations: counting families,
star thorn trees, the map-to-tree bijection, and symmetric-function
identity checks."""

from .partition import (
    Partition,
    SetPartition,
    partitions_of,
    permutations_in,
    set_partitions_of_type,
)
from .perm import (
    Permutation,
    canonical_long_cycle,
    compose,
)
from .counting import (
    CountTable,
    check_lift_recurrence,
    count_A,
    count_Bprime,
    count_C,
    count_D,
    count_ST,
    solve_B,
    stirling1_row,
    stirling1_unsigned,
    verify_zagier,
)
from .structures import (
    BlackPartitionedStarMap,
    LabeledThornTree,
    PermutedThornTree,
    StarThornTree,
    all_permuted_trees,
    all_star_maps,
    all_star_thorn_trees,
    deserialize,
    drop,
    lift,
    serialize,
)
from .bijection import (
    AuxGraph,
    Classification,
    InverseOutcome,
    aux_graph,
    classify,
    contract,
    expand,
    proportion_stats,
    psi,
    psi_inverse,
    psi_label,
)
from .oracle import (
    BudgetExceeded,
    enumerate_A,
    enumerate_B,
    enumerate_Bprime,
    enumerate_CD,
    enumerate_ST,
    reformulation_probability,
)
from .symfun import (
    SymPoly,
    delta,
    elementary_in_p,
    m_to_p,
    p_to_m,
    verify_C2A,
    verify_D2B,
    verify_reduction,
)

__version__ = "0.1.0"
