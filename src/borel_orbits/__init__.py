"""Borel-orbit combinatorics in abelian ideals of simple Lie algebras.

The public surface re-exports the main operations; see README.md for a
walk-through and demos/ for narrative examples.
"""

from .root_system import (
    RootSystem,
    SimpleType,
    build_root_system,
    dominance_leq,
    is_root,
    max_elements,
    min_elements,
    strongly_orthogonal,
)
from .weyl import (
    Involution,
    WeylElement,
    absolute_length,
    bruhat_leq,
    identity,
    length,
    longest_element,
    reflect,
    reflection,
    sigma_of_orth_set,
)
from .ideals import (
    abelian_nilradicals,
    enumerate_abelian_ideals,
    ideal_from_shape,
    ideal_generated,
    is_abelian,
    is_ideal,
    maximal_abelian_ideals,
)
from .orbits import (
    DimEstimate,
    OrbitRecord,
    borel_index,
    c_count,
    d_count,
    dim_estimate_report,
    kostant_cascade,
    krull_dims,
    label_counts,
    lower_canonical,
    orbit_dims,
    orbit_record,
    pyasetskii_dual,
    pyasetskii_map,
    pyasetskii_report,
    rectangle_count,
    residual_set,
    shift_down,
    shift_up,
    strongly_orth_subsets,
    upper_canonical,
)
from .chevalley import (
    StructureTable,
    ad_exp_action,
    bracket,
    build_structure_table,
    coad_exp_action,
)
from .normal_form import (
    ReductionTranscript,
    orbit_of_vector,
    reduce_in_dual,
    reduce_in_ideal,
    replay,
)
from .anr import (
    ConjectureReport,
    CountTable,
    anr_nodes,
    anr_statistic,
    conjecture_check,
    maximal_ideal_report,
    symmetry_bijection,
    w0l_action,
)

__all__ = [name for name in dir() if not name.startswith("_")]
