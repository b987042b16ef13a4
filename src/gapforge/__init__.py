"""gapforge: a finite-scale laboratory for almost-inclusion gap diagrams,
two forcing-style posets, generic-filter simulation, and chain-condition
experiments."""

from .errors import (
    AgreementFailure,
    GapforgeError,
    HeightMismatch,
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
    CHWitness,
    GapFragment,
    almost_subset,
    c_hausdorff_check,
    excess,
    excess_matrix_csv,
    full_inclusion_union,
    members,
    special_gap_check,
    uniform_interpolation,
)
from .ordinals import (
    Ladder,
    Ordinal,
    SPartition,
    fin,
    two_sided,
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
    bits,
    delta_system_refine,
    p_compatible_oracle,
    p_extend,
    p_join,
    p_join_from_core,
    p_leq,
    p_restrict,
    p_union_agreeing,
)
from .poset_q import (
    QCondition,
    QContext,
    ladder_blocked,
    q_compatible,
    q_leq,
    q_restrict,
    separated_pair_check,
)
from .simulate import (
    DenseRequirement,
    SimRun,
    build_filter,
    check_tower_coherence,
    default_index_blocks,
    default_partition,
    extract_gap_fragment,
    p_standard_schedule,
    pipeline,
    q_standard_schedule,
)

__version__ = "0.1.0"
