"""photonstat: photon-number statistics of Gaussian and deformed-oscillator
states, block-partition Shannon information, and quadrature uncertainty
violation diagnostics."""

from .errors import (
    ClassificationError,
    DivergentSeriesError,
    DomainError,
    InvalidSpecError,
    NormalizationError,
    ParityError,
    PhotonStatError,
    PoleError,
    RangeOverflowError,
    SingularDenominatorError,
)
from .gaussian_state import (
    OneModeGaussianState,
    RMatrix,
    UncertaintyVerdict,
    XYTState,
    from_tau,
    p0,
    r_matrix,
    uncertainty_check,
)
from .specfun import (
    LogSigned,
    assoc_legendre,
    gauss_2f1_terminating,
    hermite,
    hermite_2d,
    laguerre_half,
    log_factorial,
)
from .photon_dist import (
    Classification,
    DeformationKind,
    DeformationSpec,
    LegendreParams,
    PhotonDistribution,
    TwoModeJointDistribution,
    deformed_distribution,
    deformed_pn,
    distribution_from_values,
    mean_photon_xyt,
    pn_centered_xyt,
    pn_hermite,
    pn_laguerre,
    pn_violation,
    two_mode_joint,
    two_mode_joint_distribution,
    two_mode_p2k,
    two_mode_p2k_distribution,
    two_mode_p2k_sequence,
)
from .entropy import (
    ComplexEntropyReport,
    EntropyReport,
    PartitionScheme,
    block_entropies,
    complex_information,
    hermite_inequality_margin,
    information,
    joint_entropy_report,
    laguerre_inequality_margin,
    poisson_parity_information,
    subadditivity_check,
)
from .oracle import (
    OracleVerdict,
    oracle_poisson_blocks,
    oracle_squeezed_vacuum,
    oracle_thermal,
    run_suite,
    suite_passed,
)

__version__ = "0.1.0"
