"""Elastic vector polynomials and boundary least-squares solvers.

Builds the complete systems of polynomial equilibrium fields of linear
elastostatics, fits boundary data of the third (normal displacement +
tangential traction) and fourth (tangential displacement + normal traction)
problems over them on analytic closed surfaces, and ships the identity checks
and degree studies that make the geometry-dependent completeness behaviour of
these systems observable.
"""

from .basis import BasisElement, ElasticBasis, Material, elastic_basis, lambda_coeff, solid_harmonics
from .geometry import (
    Ellipsoid,
    Sphere,
    StarShaped,
    SurfaceQuadrature,
    classify_symmetry,
    make_quadrature,
    radial_function,
    tangential_rotation_fields,
)
from .harness import (
    BasisElementSource,
    CsvSource,
    KelvinSource,
    RotationSource,
    StudyConfig,
    StudyReport,
    StudyRow,
    betti_check,
    kelvin_data,
    probe_points,
    run_study,
    somigliana_check,
)
from .operators import (
    KelvinField,
    RigidDisplacement,
    kelvin_gradient,
    kelvin_matrix,
    kelvin_traction,
    lame_apply,
    traction,
)
from .polyalg import Poly3, VecPoly3, batch_eval
from .solver import (
    BoundaryData,
    FitResult,
    compatibility_defect,
    evaluate_solution,
    fit,
    fit_degrees,
    trace_III,
    trace_IV,
)

__version__ = "0.1.0"

__all__ = [
    "BasisElement", "ElasticBasis", "Material", "elastic_basis", "lambda_coeff", "solid_harmonics",
    "Ellipsoid", "Sphere", "StarShaped", "SurfaceQuadrature",
    "classify_symmetry", "make_quadrature", "radial_function", "tangential_rotation_fields",
    "BasisElementSource", "CsvSource", "KelvinSource", "RotationSource",
    "StudyConfig", "StudyReport", "StudyRow",
    "betti_check", "kelvin_data", "probe_points", "run_study", "somigliana_check",
    "KelvinField", "RigidDisplacement",
    "kelvin_gradient", "kelvin_matrix", "kelvin_traction", "lame_apply", "traction",
    "Poly3", "VecPoly3", "batch_eval",
    "BoundaryData", "FitResult",
    "compatibility_defect", "evaluate_solution", "fit", "fit_degrees", "trace_III", "trace_IV",
]
