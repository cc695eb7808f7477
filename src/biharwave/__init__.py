"""Forward fields and nonradiating-source certification for the fourth-order
(squared-Laplacian) wave equation in two and three dimensions."""

__version__ = "0.1.0"

from .context import WaveContext
from .fields import (
    BoundaryTrace,
    FieldSample,
    boundary_trace,
    eval_field,
    eval_field_batch,
    far_field,
)
from .kernels import green_biharmonic
from .quadrature import (
    AngularRule,
    RadialRule,
    angular_rule,
    boundary_grid,
    product_grid,
    radial_rule,
)
from .sources import (
    DegenerateSourceError,
    ModalCoefficients,
    ModalProfiles,
    SourceField,
    SupportViolationError,
    gaussian_source,
    make_2d_bessel_nonradiating,
    make_3d_bessel_nonradiating,
    make_bump_nonradiating,
    modal_coefficients,
    project_modes,
    source_from_config,
)
from .spectral import (
    InconsistencyError,
    NonradiatingVerdict,
    VerdictConfig,
    direction_grid,
    fourier_on_circle,
    fourier_transform_quadrature,
    laplace_on_circle,
    laplace_transform_quadrature,
    nullspace_residual,
    u_hat_from_trace,
    v_check_from_trace,
    verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
