"""Toolkit for dense PG(n-1,2)-free simple binary matroids.

Point-set geometry over GF(2)^r, exact Fourier-analytic triangle counting,
cone constructions, and searches for dense triangle-free flats, with a CLI
and desk-scale exhaustive verification sweeps.
"""

__version__ = "0.1.0"
FORMAT_VERSION = 1

from .errors import (
    ConfigError,
    GeometryError,
    HypothesisError,
    InternalInconsistencyError,
    PgfreeError,
    PointSetParseError,
    RankCapError,
    ResourceCapError,
)
from .geometry import (
    Flat,
    closure,
    dot,
    flat_points,
    hyperplane_of,
    rank_of,
)
from .pointset import RANK_CAP, PointSet
from .matroid import (
    AnalysisReport,
    FreenessWitness,
    check_corollary_1_3,
    critical_number,
    is_pg_free,
    lift_flat,
    matroid_rank,
    restrict_to_flat,
    triangle_count_naive,
)
from .spectral import (
    ClaimQuantities,
    Spectrum,
    UniformityReport,
    claim_quantities,
    counting_bound_check,
    triangle_count_spectral,
    uniformity,
    walsh_hadamard,
)
from .search import (
    DescentStep,
    DescentTrace,
    ReconcileReport,
    StructureResult,
    cone,
    find_pg_free_hyperplane,
    find_triangle_free_flat,
    hyperplane_intersection,
    reconcile_hyperplane,
)
from .constructions import (
    GraphSpec,
    affine_set,
    bose_burton,
    complete_graph,
    direct_sum,
    graphic_representation,
    m_k5,
)
from .verify import (
    ALL_CHECKS,
    SweepConfig,
    SweepOutcome,
    analyze,
    extremal_records_csv,
    run_sweep,
    sample_pointset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
