"""Determinantal point processes: reduced Palm distributions, couplings of
a DPP with its Palm process, and the repulsiveness measures they induce."""

from .analysis import (
    CouplingValidation,
    GridModel,
    MomentResult,
    RadialProfile,
    ginibre_moment,
    grid_discretize,
    jinc_moment_closed,
    mc_validate_coupling,
    moment_quadrature,
    radial_profile,
)
from .errors import ParseError, SizeGuardError, TheoremViolationError, ValidationError
from .finite_dpp import (
    CouplingTable,
    DilationPair,
    FiniteDpp,
    SubsetLaw,
    couple,
    coupling_feasible,
    dilate,
    p_u_finite,
    palm_eigenvector,
    palm_matrix,
    sample_coupled_many,
    sample_indicators,
    sample_removals,
    subset_law,
    validate,
    xi_law,
)
from .kernel_core import (
    GridFactor,
    GroundSpace,
    Kernel,
    RepulsivenessReport,
    palm_kernel,
    profile_coordinates,
    radial_integral,
    repulsiveness_p,
    sphere_surface_measure,
)
from .model_zoo import (
    GinibreParams,
    SphereModel,
    SpherePResult,
    finite_kernel,
    ginibre_kernel,
    jinc_kernel,
    multiquadric,
    sphere_kernel,
    sphere_model,
    sphere_multiplicity,
    sphere_p,
    thin_rescale,
)
from .numerics import (
    HermitianEig,
    QuadratureError,
    QuadratureSpec,
    RadialIntegral,
    Tail,
    hermitian_eig,
    integrate_radial,
)

__version__ = "0.1.0"
