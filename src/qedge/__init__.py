"""Success probabilities for 1D quantum edge detection.

Locating the boundary between two uniform pure-state domains in a string of N
qudits reduces, after a projective first measurement, to pure-state
discrimination on small Gram-matrix blocks.  This package builds those blocks
in closed form, solves the per-block discrimination problem exactly (SDP with
dual certificates) or via the square-root measurement, and evaluates the
long-string limits through Pade-accelerated series and special-function
integrals.
"""

__version__ = "0.1.0"

from .combinatorics import (
    CapacityError,
    IrrepBlock,
    SchurVector,
    StringParams,
    cg_coefficient,
    hypothesis_range,
    irrep_dim,
    omega_vector,
    overlap_closed,
    overlap_oracle,
    priors,
    sym_dim,
)
from .gram import (
    KnownBlock,
    SemiseparableGram,
    build_gram_known,
    build_gram_unknown,
    rescale_gram,
    tridiag_inverse_reference,
)
from .linalg import NotPsdError, SdpSolution, psd_sqrt, solve_discrimination_sdp
from .discrimination import (
    CurvePoint,
    DiscriminationResult,
    ScenarioSpec,
    optimal_block,
    scenario_blocks,
    srm_block,
    srm_blocks,
    success_curve,
    total_success,
)
from .asymptotics import (
    CoefficientEstimate,
    DegeneratePadeError,
    LimitEstimate,
    NotTabulatedError,
    PadeApproximant,
    RationalCoefficientTable,
    coefficient_table,
    dawson,
    elliptic_k,
    estimate_low_order_coeffs,
    large_d_limit,
    p0_known,
    p0_via_integral,
    p0_via_primitive,
    pade,
)

__all__ = [name for name in dir() if not name.startswith("_")]
