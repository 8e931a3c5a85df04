"""Immediate snapshot protocol complexes.

Construction of the protocol complex of a round counter via the
witness-structure calculus, its canonical stratification, and exhaustive
desk-scale verification of its combinatorial structure: purity,
pseudomanifoldness, strong connectivity, counting recursions,
collapsibility, and mod-2 homology.
"""

from .rounds import Analysis, RoundCounter, chi_pair
from .witness import (
    Classification,
    TraceForm,
    WitnessTable,
    canonical_form,
    classify,
    classify_trace,
    complete,
    from_trace,
    ghost,
    ghost_one,
    indexes_simplex,
    stabilize,
    to_trace,
    trace_form,
)
from .complexes import (
    Complex,
    boundary_subcomplex,
    build,
    chromatic_check,
    complex_to_dot,
    complex_to_json,
    cone_check,
    delta_v,
    enumerate_top,
    path_profile,
    structural_checks,
)
from .decomposition import (
    StratumId,
    all_stratum_ids,
    containment_anomalies,
    gamma,
    membership,
    rho,
    rho_sa,
    strata_partition,
    stratum,
    verify_diagrams,
    verify_incidence,
    verify_stratum_iso,
)
from .topology import (
    BettiProfile,
    CollapseSequence,
    CollapseStep,
    collapse_pair,
    collapse_to_point,
    homology_gf2,
    validate_collapse,
)
from .counting import f_dim1, f_top, series_check

__all__ = [name for name in dir() if not name.startswith("_")]
