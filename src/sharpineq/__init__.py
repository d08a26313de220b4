"""Numerical verification of sharp uncertainty-type inequalities.

Minkowski norm duality on flat n-space, radial quadrature with Monte Carlo
cross-checks, sharp-constant and extremal-family certificates for the
interpolation, Heisenberg-Pauli-Weyl and Hardy inequalities, and their
curvature-improved counterparts on the Poincare ball.
"""

from .norms import (
    Covector,
    DualityCertificate,
    MinkowskiNorm,
    NormError,
    ball_volume_constant,
    bh_density,
    dual_norm_value,
    legendre_map,
    norm_value,
    uniformity_constant,
    unit_ball_volume,
)
from .quadrature import (
    DecayClass,
    IntegralResult,
    QuadratureError,
    QuadratureSpec,
    RadialProfile,
    fd_derivative,
    flat_radial_volume_integral,
    gauss_kronrod_batch,
    hyperbolic_gaussian_masses,
    hyperbolic_gaussian_moments,
    hyperbolic_radial_volume_integral,
    monte_carlo_integral,
    radial_integral,
)
from .flat import (
    AdmissibilityError,
    ExponentTriple,
    InequalityReport,
    RadialFunction,
    TestFunction,
    check_p_ode,
    check_pqr_identity,
    double_hardy_report,
    extremal_profile,
    gaussian_T,
    gaussian_moment_identity,
    hardy_report,
    hardy_sharpness_sweep,
    hpw_report,
    interpolation_report,
    kernel_g,
    kernel_h,
    pqr,
    smoothstep_cutoff,
)
from .hyperbolic import (
    RadialHypFunction,
    ct,
    curvature_defect,
    hardy_hyperbolic_report,
    hpw_constant_bounds,
    hpw_hyperbolic_report,
    hyp_ball_volume,
    hyp_distance,
    hyp_volume_ratio_check,
    ko_alpha_scan,
    laplace_comparison_check,
    modified_hpw_report,
    radial_laplacian,
)

__version__ = "0.1.0"
