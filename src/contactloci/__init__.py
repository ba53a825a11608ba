"""Contact loci of hypersurface singularities from log resolution data.

The package assembles the first page of the spectral sequence computing
the compactly supported cohomology of m-th contact loci, starting from
the combinatorics of an m-separating log resolution, and validates the
results against two independent oracles: A'Campo Lefschetz numbers and
brute-force jet counts over small prime fields.
"""

from .covers import CoverHomology, cover_betti, covers_for
from .curves import (
    ResolutionLog,
    as_plane_curve,
    point_configuration,
    resolve_plane_curve,
    resolve_univariate,
)
from .errors import (
    ContactLociError,
    DomainError,
    InconsistentConfigurationError,
    MissingCoverDataError,
    NotMSeparatingError,
    NotNegativeDefiniteError,
    ResourceLimitError,
    UnsupportedDimensionError,
    ValidationFailedError,
)
from .jets import (
    ChiFit,
    CountReport,
    FibrationReport,
    contact_count,
    interpolate_chi,
    naive_contact_count,
    stratified_count,
    sum_strata,
    verify_chart_fibration,
)
from .lefschetz import (
    EulerCrossCheck,
    ZetaFactorization,
    cross_check_euler,
    lefschetz_number,
    zeta_factorization,
)
from .model import (
    Divisor,
    IntersectionCell,
    SncConfiguration,
    ValidationIssue,
    euler_open_stratum,
    validate_configuration,
)
from .polys import SparsePolynomial, parse_polynomial
from .separation import (
    SubdivisionRecord,
    is_m_separating,
    pair_multiplicities,
    separate,
)
from .spectral import (
    ContributingSet,
    E1Page,
    HcReport,
    contributing_set,
    degeneration_analysis,
    e1_page,
    fiber_dimension,
    mclean_relabel,
    milnor_betti_power,
    multiplicity_case_prediction,
    render_page_table,
    stabilization_level,
    stratum_dimension,
)
from .weights import (
    WeightVector,
    intersection_matrix,
    is_negative_definite,
    solve_weights,
    validate_weights,
)

__version__ = "0.1.0"
