"""hardylab: a numerical laboratory for bounded analytic functions on the disc.

Boundary data lives on a uniform grid over the unit circle.  From there the
package synthesizes outer functions from log-modulus data, splits bounded
functions into inner and outer factors, estimates essential zero sets,
measures Toeplitz/Szego density profiles, and builds certified bounded
approximate units for the closed ideals those zero sets cut out.

The names below are the documented API (README, "Python API"); every other
helper stays importable from its own module.
"""

from .catalog import catalog_names, example_boundary, get_example
from .errors import (
    HardyLabError,
    HypothesisFailed,
    NormExceeded,
    NotAnalytic,
    NotCertified,
    NotInZinfty,
    NotOuter,
    PointOnBoundary,
    RangeMiss,
    SingularPoint,
    StrategyInapplicable,
    UnboundedLogData,
    UnknownExample,
    ZeroFunction,
)
from .factorization import (
    FactorizationResult,
    OuterFn,
    blaschke,
    inner_outer,
    is_inner,
    is_outer,
    singular_inner,
    synth_outer,
)
from .grid import (
    BoundarySignal,
    CircleGrid,
    constant_signal,
    signal_from_csv,
    signal_from_values,
    signal_to_csv,
)
from .hardy import AnalyticRep
from .ideals import (
    Certificate,
    CombinedUnit,
    IdealSpec,
    PeakStage,
    UnitStage,
    analytic_prime_check,
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    ideal,
    membership,
)
from .reproduce import bundle_names, run_bundle
from .serialize import certificate_report, dumps
from .toeplitz import adjoint_kernel_dim, density_profile, szego_distance
from .zerosets import (
    ExtensionResult,
    ZeroSetEstimate,
    ZinftyReport,
    continuous_extension,
    essential_zero_set,
    in_disc_algebra,
    zinfty_report,
)

__version__ = "0.1.0"

__all__ = [
    # grids and signals
    "CircleGrid",
    "BoundarySignal",
    "signal_from_values",
    "constant_signal",
    "signal_from_csv",
    "signal_to_csv",
    # function types and factorisation
    "AnalyticRep",
    "OuterFn",
    "FactorizationResult",
    "synth_outer",
    "inner_outer",
    "is_outer",
    "is_inner",
    "blaschke",
    "singular_inner",
    # zero sets
    "essential_zero_set",
    "continuous_extension",
    "zinfty_report",
    "in_disc_algebra",
    "ZeroSetEstimate",
    "ExtensionResult",
    "ZinftyReport",
    # ideals and approximate units
    "ideal",
    "certify_mideal",
    "approx_unit_sublevel",
    "approx_unit_peak",
    "membership",
    "analytic_prime_check",
    "Certificate",
    "IdealSpec",
    "UnitStage",
    "PeakStage",
    "CombinedUnit",
    # density, catalog and bundles
    "density_profile",
    "szego_distance",
    "adjoint_kernel_dim",
    "example_boundary",
    "get_example",
    "catalog_names",
    "run_bundle",
    "bundle_names",
    # reports
    "certificate_report",
    "dumps",
    # errors
    "HardyLabError",
    "HypothesisFailed",
    "NormExceeded",
    "NotAnalytic",
    "NotCertified",
    "NotInZinfty",
    "NotOuter",
    "PointOnBoundary",
    "RangeMiss",
    "SingularPoint",
    "StrategyInapplicable",
    "UnboundedLogData",
    "UnknownExample",
    "ZeroFunction",
]
