"""Linear networks of discrete states coupled to continua: exact multiport
scattering, closed-form transmission/reflection, photo-detection figures
of merit, and perfect-transmission parameter design."""

from .closedform import (
    WallisEulerCoeffs,
    critical_coupling,
    hybrid_R_critical_unbalanced,
    hybrid_R_homogeneous,
    parallel_R_general_N2,
    parallel_R_homogeneous,
    parallel_R_unbalanced,
    series_R,
    simple_T,
    simple_group_delay,
)
from .cli import RunConfig, parse_network_document, parse_network_file
from .design import (
    DesignProblem,
    DesignResult,
    apply_parameters,
    critical_series_params,
    detuned_pair,
    tune,
)
from .errors import (
    AsymmetricCoupling,
    BalancedDecaysUnsupported,
    LengthMismatch,
    NegativeRadicand,
    NegativeRate,
    NonzeroSelfCoupling,
    NoPort,
    NotNormalized,
    ParseError,
    QnetError,
    SingularSystem,
    UnresolvablePhaseJump,
    ValidationError,
)
from .metrics import (
    MetricsReport,
    TimeTrace,
    Wavepacket,
    bandwidth_grid,
    click_curve,
    click_probability,
    compute_report,
    dispersion,
    find_reflection_zeros,
    find_unity_peaks,
    group_delay,
    propagate_wavepacket,
    spectral_bandwidth,
    total_phase_change,
    transmitted_fraction,
    unwrap_phase,
)
from .netcore import (
    DegenerateResonanceWarning,
    HybridSpec,
    NetworkSpec,
    SweepGrid,
    build_parallel,
    build_series,
    hybrid_critical_unbalanced,
    hybrid_homogeneous,
    lower_hybrid,
    validate,
)
from .scatter import (
    ScatteringResponse,
    port_coupling_matrix,
    smatrix,
    sweep,
    unitarity_defect,
)

__version__ = "0.1.0"
