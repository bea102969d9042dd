"""Spectral toolkit for generalized p-Laplacians on signed graphs."""

from .graph import (
    BalanceResult,
    BalanceState,
    GraphError,
    ParseError,
    SignedGraph,
    balance_state,
    components,
    cycle_surplus,
    induced_subgraph,
    parse_function,
    parse_graph,
    serialize_function,
    serialize_graph,
    switch,
    with_degree_measure,
)
from .operators import (
    EigenPair,
    ResidualCertificate,
    apply_p_laplacian,
    check_certificates_1lap,
    check_eigenpair,
    check_eigenpair_1lap,
    eigen_residual,
    one_lap_lambda_range,
    phi_p,
    rayleigh,
)
from .spectra import (
    ExtremalResult,
    OneLapEigenSet,
    OneLapPair,
    SpectrumP2,
    extremal_p,
    one_lap_enumerate,
    smallest_positive_1lap,
    spectrum_p2,
    upper_bound_lambda_k,
)
from .nodal import (
    NodalSummary,
    SpectrumContext,
    bound_report,
    dual_counts,
    nodal_quantities,
    strong_domains,
    weak_domains,
)
from .cheeger import (
    CheegerResult,
    DEFAULT_CAPS,
    beta,
    cheeger_k,
    check_theorem41,
    frustration_index,
)
from .transforms import (
    SurgeryResult,
    interlacing_check_p2,
    remove_edge,
    remove_node,
)
from .harness import (
    ALL_CHECKS,
    SuiteConfig,
    SuiteReport,
    example_3_1_check,
    import_symmetric_matrix,
    random_signed_graph,
    run_suite,
)

__version__ = "0.1.0"
