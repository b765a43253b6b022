"""freeclt: densities and limit-theorem diagnostics for free convolution powers.

The package computes the density of the normalized free convolution power
of a standardized (mean zero, variance one, bounded support) probability
measure along two independent routes — a complex-subordination fixed point
and a real flow parametrization — and provides the convergence functionals
(sup and L^p distances to the semicircle law, free entropy, free Fisher
information, log-Sobolev gap) used to watch the free central limit theorem
happen at numerical precision.
"""

from .errors import (
    CompanionRecoveryError,
    ConsistencyError,
    DegenerateMeasureError,
    DivergenceError,
    DomainError,
    FixedPointError,
    FreecltError,
    InvalidArgumentError,
    InvalidSpecError,
    InversionError,
    QuadratureError,
)
from .measures import (
    ArcsineFamily,
    Atom,
    DensityTable,
    Measure,
    SemicircleFamily,
    UniformFamily,
    build_table,
    dilate,
    fit_edge_order,
    make_measure,
    measure_from_json,
    standardize,
    translate,
)
from .transforms import (
    InversionResult,
    cauchy,
    cauchy_derivative,
    companion_measure,
    find_support_interval,
    semicircle_cauchy,
    sqrt_upper,
    stieltjes_invert,
)
from .flow import (
    FlowCurve,
    FlowKernel,
    flow_curve,
    flow_map,
    flow_psi,
    flow_region,
    flow_v,
    region_integral,
)
from .pipeline import (
    CltDensity,
    SubordinationResult,
    atoms_of_power,
    clt_cauchy,
    clt_density_flow,
    clt_density_subordination,
    cross_check,
    default_grid,
    range_containment_check,
    subordination_omega,
    support_check,
    tail_bound_check,
)
from .functionals import (
    CHI_SEMICIRCLE,
    TOL_CHI,
    TOL_GAP,
    ConvergenceReport,
    ExtendedReal,
    convergence_report,
    free_entropy,
    free_fisher,
    log_sobolev_gap,
    lp_distance,
    report_row,
    sup_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FreecltError",
    "InvalidSpecError",
    "InvalidArgumentError",
    "DegenerateMeasureError",
    "DivergenceError",
    "DomainError",
    "QuadratureError",
    "InversionError",
    "CompanionRecoveryError",
    "ConsistencyError",
    "FixedPointError",
    # measures
    "Atom",
    "DensityTable",
    "Measure",
    "SemicircleFamily",
    "ArcsineFamily",
    "UniformFamily",
    "build_table",
    "fit_edge_order",
    "make_measure",
    "measure_from_json",
    "translate",
    "dilate",
    "standardize",
    # transforms
    "sqrt_upper",
    "semicircle_cauchy",
    "cauchy",
    "cauchy_derivative",
    "InversionResult",
    "stieltjes_invert",
    "find_support_interval",
    "companion_measure",
    # flow
    "FlowKernel",
    "FlowCurve",
    "flow_v",
    "flow_psi",
    "flow_map",
    "flow_region",
    "flow_curve",
    "region_integral",
    # pipeline
    "default_grid",
    "atoms_of_power",
    "CltDensity",
    "SubordinationResult",
    "clt_density_flow",
    "clt_density_subordination",
    "clt_cauchy",
    "subordination_omega",
    "cross_check",
    "tail_bound_check",
    "support_check",
    "range_containment_check",
    # functionals
    "CHI_SEMICIRCLE",
    "TOL_CHI",
    "TOL_GAP",
    "ExtendedReal",
    "ConvergenceReport",
    "sup_distance",
    "lp_distance",
    "free_entropy",
    "free_fisher",
    "log_sobolev_gap",
    "convergence_report",
    "report_row",
]
