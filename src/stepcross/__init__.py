"""Step hyperbolic cross approximation for periodic functions whose mixed
smoothness is measured by a power-log majorant."""

from .errors import (
    CapacityError,
    ParameterError,
    QuadratureAccuracyError,
    UnsupportedRegimeError,
)
from .majorant import (
    MajorantAuditReport,
    MajorantParams,
    log2_omega_dyadic,
    log2_weight,
    omega_dyadic,
    omega_eval,
    verify_majorant_axioms,
)
from .indexsets import (
    IndexFamily,
    SpectrumSet,
    TailSumResult,
    chi,
    in_cross,
    q_set,
    q_size,
    rho,
    size_prediction,
    tail_sum,
    theta,
    theta_prime,
    theta_sum,
)
from .trigpoly import (
    NikolskiiResult,
    QuadratureSpec,
    TrigPolynomial,
    lp_norm,
    nikolskii_check,
    pow2ceil,
    random_in_spectrum,
)
from .kernels import (
    band_apply,
    band_kernel,
    band_multiplier,
    fejer,
    fejer_coefficient,
    k_packet,
    ks_vector,
    vallee_poussin,
    vp_coefficient,
)
from .besov import (
    BesovParams,
    besov_norm,
    besov_norm_blocks,
    besov_norm_vp,
    dyadic_blocks,
    normalize_to_ball,
)
from .extremal import (
    PacketLayout,
    WitnessConfig,
    g1_single_mode,
    g2_shell_modes,
    g3_shell_normalized,
    g4_packet_cloud,
    g5_packet_normalized,
    g6_packet_stack,
    g6_peak_value,
    g7_stack_normalized,
    packet_layout,
)
from .approx import (
    ExperimentRecord,
    RateFit,
    RateRegime,
    approx_error,
    classify_regime,
    fit_rate,
    project_q,
    rate_experiment,
    theoretical_rate,
)
from .polyio import (
    dumps_polynomial,
    loads_polynomial,
    read_polynomial,
    write_polynomial,
)
from .verify import (
    SECTION_NAMES,
    SectionResult,
    format_report,
    run_section,
    run_verification,
)

__version__ = "0.1.0"
