"""gapforge: a finite-scale laboratory for almost-inclusion gap diagrams,
two forcing-style posets, generic-filter simulation, and chain-condition
experiments."""

from .errors import (
    GapforgeError,
    HypothesisFailure,
    IndexMismatch,
    InvalidBit,
    InvariantViolation,
    RequirementFailure,
    SearchTooLarge,
    TableTooShort,
    UnknownDelta,
    UnknownIndex,
)
from .gaps import (
    GapFragment,
    almost_subset,
    bits,
    c_hausdorff_check,
    excess,
    excess_matrix_csv,
    members,
    special_gap_check,
    uniform_interpolation,
)
from .ordinals import (
    Ladder,
    Ordinal,
    SPartition,
)
from .pcc import (
    CompatMatrix,
    PccInstance,
    build_compat_matrix,
    find_compatible_pair,
    generate_pcc_instance,
    max_order_rectangle,
    pcc_ab_profiles,
    verify_rectangle,
)
from .poset_p import (
    PCondition,
    p_compatible_oracle,
    p_extend,
    p_join,
    p_join_from_core,
    p_leq,
    p_restrict,
)
from .poset_q import (
    QCondition,
    QContext,
    ladder_blocked,
    q_compatible,
    q_leq,
)
from .simulate import (
    Selection,
    build_filter,
    check_tower_coherence,
    default_index_blocks,
    default_partition,
    forge,
    pipeline,
)

__version__ = "0.1.0"
