"""Manufactured solutions, reciprocity/representation checks, degree studies.

The study driver sweeps basis degrees against fixed boundary data and records
weighted-L2 and uniform-norm residuals, rank diagnostics, compatibility
defects against the tangential rigid rotations, and interior probe errors
when an exact solution is available.  Kelvin point-source fields with the
pole outside the body are the stock manufactured solutions: they satisfy the
equilibrium equations inside, so their traces are always compatible and the
residual columns exhibit the completeness (or incompleteness) the geometry
dictates.  Every data source yields one `BoundaryData` of the configured
problem; the tangential rotation fields of the surface are computed once per
study, for rotation data and for the problem-III defect columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ElasticBasis, Material, elastic_basis
from .geometry import (
    SurfaceQuadrature,
    SurfaceSpec,
    Sphere,
    Ellipsoid,
    classify_symmetry,
    make_quadrature,
    radial_function,
    tangential_rotation_fields,
)
from .ioutil import fmt17
from .operators import (
    KelvinField,
    KelvinParams,
    kelvin_matrix,
    kelvin_traction,
)
from .solver import (
    PROBLEM_III,
    BoundaryData,
    check_problem,
    check_scalar_weight,
    compatibility_defect,
    field_data,
    field_samples,
    field_values,
    fit_degrees,
    max_misfit,
)

PROBE_SEED = 715
N_PROBES = 20
PROBE_DEPTH = 0.5


# -- manufactured data ------------------------------------------------------------


def kelvin_data(
    material: Material,
    quad: SurfaceQuadrature,
    y0,
    row: int,
    problem: str,
) -> tuple[BoundaryData, KelvinField]:
    """Boundary data of the Kelvin row field with pole y0 outside the surface.

    Returns the data of the requested problem together with the field
    itself, which doubles as the closed-form interior evaluator.
    """
    y0 = np.asarray(y0, dtype=float)
    center = np.asarray(quad.spec.center, dtype=float)
    rel = y0 - center
    dist = float(np.linalg.norm(rel))
    if dist == 0.0:
        raise ValueError("Kelvin pole coincides with the surface center (inside the body)")
    r_surface = float(radial_function(quad.spec, rel / dist)[0])
    if dist <= r_surface:
        raise ValueError(
            f"Kelvin pole must lie strictly outside the surface: |y0 - center| = {dist:.6g} "
            f"<= surface radius {r_surface:.6g} in that direction"
        )
    fld = KelvinField(KelvinParams(material), tuple(y0), row)
    return field_data(problem, material, fld, quad), fld


# -- identity checks --------------------------------------------------------------


def betti_check(material: Material, u, v, quad: SurfaceQuadrature) -> float:
    """|oint (u . Tv - v . Tu) dsigma| for two equilibrium fields.

    Both volume terms of the reciprocity identity vanish for equilibrium
    fields, so the result is pure quadrature error.
    """
    return reciprocity_defect(quad, *field_samples(material, u, quad), *field_samples(material, v, quad))


def reciprocity_defect(quad: SurfaceQuadrature, uu, tu, vv, tv) -> float:
    """`betti_check` on displacement and traction samples (N, 3) of u and v."""
    return float(abs(quad.weights @ (np.einsum("ni,ni->n", uu, tv) - np.einsum("ni,ni->n", vv, tu))))


def somigliana_check(
    material: Material, w, quad: SurfaceQuadrature, x, expect: str
) -> np.ndarray:
    """Deviation of the boundary representation integral from its exact value.

    Evaluates oint [w . T_y K_i(x - y) - K_i(x - y) . Tw] dsigma_y and
    subtracts w(x) for expect="interior" or 0 for expect="exterior".  Points
    closer to the surface than three quadrature spacings are rejected; the
    near-singular regime is out of scope.
    """
    if expect not in ("interior", "exterior"):
        raise ValueError(f"expect must be 'interior' or 'exterior', got {expect!r}")
    x = np.asarray(x, dtype=float)
    spacing = np.sqrt(quad.area / quad.n_samples)
    min_dist = float(np.min(np.linalg.norm(quad.points - x, axis=1)))
    if min_dist < 3.0 * spacing:
        raise ValueError(
            f"evaluation point is {min_dist:.3g} from the surface samples, closer than "
            f"3 quadrature spacings ({3.0 * spacing:.3g}); near-singular quadrature unsupported"
        )
    params = KelvinParams(material)
    uu, tu = field_samples(material, w, quad)
    kernel = kelvin_traction(params, x, quad.points, quad.normals)     # (N, i, j)
    gamma = kelvin_matrix(params, x[None, :] - quad.points)            # (N, i, j)
    integral = np.einsum("n,nij,nj->i", quad.weights, kernel, uu) - np.einsum(
        "n,nij,nj->i", quad.weights, gamma, tu
    )
    target = np.asarray(w.eval(x), dtype=float) if expect == "interior" else np.zeros(3)
    return integral - target


# -- studies ----------------------------------------------------------------------


@dataclass(frozen=True)
class KelvinSource:
    y0: tuple[float, float, float]
    row: int = 1


@dataclass(frozen=True)
class BasisElementSource:
    index: int


@dataclass(frozen=True)
class RotationSource:
    """Pure tangential-rotation data: the incompleteness probe for problem III."""

    index: int = 0


@dataclass(frozen=True)
class CsvSource:
    path: str


DataSource = KelvinSource | BasisElementSource | RotationSource | CsvSource


@dataclass(frozen=True)
class StudyConfig:
    material: Material
    surface: SurfaceSpec
    problem: str
    degrees: tuple[int, ...]
    source: DataSource
    n_theta: int = 32
    n_phi: int = 64
    svd_tol: float = 1e-12
    scalar_weight: float = 1.0

    def __post_init__(self):
        check_problem(self.problem)
        if not self.degrees:
            raise ValueError("at least one degree is required")
        if min(self.degrees) < 0:
            raise ValueError(f"degrees must be non-negative, got {list(self.degrees)}")
        if len(set(self.degrees)) != len(self.degrees):
            raise ValueError(f"degrees must not repeat, got {list(self.degrees)}")
        check_scalar_weight(self.scalar_weight)


@dataclass(frozen=True)
class StudyRow:
    degree: int
    residual_l2: float
    residual_max: float
    data_norm: float
    kept_rank: int
    defects: tuple[float, float, float]
    probe_err_max: float


@dataclass(frozen=True)
class StudyReport:
    config: StudyConfig
    rows: tuple[StudyRow, ...]
    metadata: dict = field(repr=False)
    quadrature: SurfaceQuadrature = field(repr=False, compare=False)

    def to_csv(self) -> str:
        lines = ["K,residual_l2,residual_max,data_norm,kept_rank,defect_1,defect_2,defect_3,probe_err_max"]
        for r in self.rows:
            lines.append(
                ",".join(
                    [str(r.degree)]
                    + [fmt17(v) for v in (r.residual_l2, r.residual_max, r.data_norm)]
                    + [str(r.kept_rank)]
                    + [fmt17(v) for v in (*r.defects, r.probe_err_max)]
                )
            )
        return "\n".join(lines) + "\n"

    def metadata_json(self) -> str:
        from .ioutil import json_dumps

        return json_dumps(self.metadata) + "\n"


def _surface_dict(spec: SurfaceSpec) -> dict:
    if isinstance(spec, Sphere):
        return {"kind": "sphere", "center": list(spec.center), "radius": spec.radius}
    if isinstance(spec, Ellipsoid):
        return {"kind": "ellipsoid", "center": list(spec.center), "semi_axes": list(spec.semi_axes)}
    return {
        "kind": "star",
        "center": list(spec.center),
        "coeffs": [[k, s, c] for k, s, c in spec.coeffs],
        "axis": list(spec.axis) if spec.axis is not None else None,
    }


def _source_dict(source: DataSource) -> dict:
    if isinstance(source, KelvinSource):
        return {"source": "kelvin", "y0": list(source.y0), "row": source.row}
    if isinstance(source, BasisElementSource):
        return {"source": "basis_element", "index": source.index}
    if isinstance(source, RotationSource):
        return {"source": "rotation", "index": source.index}
    return {"source": "csv", "path": source.path}


def config_metadata(config: StudyConfig) -> dict:
    return {
        "material": {"lambda": config.material.lam, "mu": config.material.mu},
        "surface": _surface_dict(config.surface),
        "problem": config.problem,
        "degrees": list(config.degrees),
        "quadrature": {"n_theta": config.n_theta, "n_phi": config.n_phi},
        "data": _source_dict(config.source),
        "svd_tol": config.svd_tol,
        "scalar_weight": config.scalar_weight,
        "probes": {"count": N_PROBES, "depth": PROBE_DEPTH, "seed": PROBE_SEED},
    }


def probe_points(spec: SurfaceSpec) -> np.ndarray:
    """Fixed interior probes at 50% radial depth (deterministic seed)."""
    rng = np.random.default_rng(PROBE_SEED)
    dirs = rng.normal(size=(N_PROBES, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = radial_function(spec, dirs)
    return np.asarray(spec.center, dtype=float) + PROBE_DEPTH * r[:, None] * dirs


def _read_csv_source(path: str, problem: str, n_samples: int):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.replace(",", " ").split()
            if not fields or not _is_float(fields[0]):
                continue  # blank, comment or header line
            rows.append([float(v) for v in fields])
    table = np.asarray(rows, dtype=float)
    if table.shape != (n_samples, 4):
        raise ValueError(
            f"data CSV must have {n_samples} rows of 4 columns "
            f"({'phi Phi_x Phi_y Phi_z' if problem == PROBLEM_III else 'Psi_x Psi_y Psi_z psi'}), "
            f"got shape {table.shape}"
        )
    if problem == PROBLEM_III:
        return BoundaryData(problem, table[:, 0], table[:, 1:4])
    return BoundaryData(problem, table[:, 3], table[:, 0:3])


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_data(config: StudyConfig, quad: SurfaceQuadrature, basis: ElasticBasis, rotations: list):
    """Boundary data for the study, plus an exact evaluator when one exists.
    Rotation data is taken from `rotations`, the surface's tangential
    rotation fields."""
    source, problem = config.source, config.problem
    if isinstance(source, KelvinSource):
        return kelvin_data(config.material, quad, source.y0, source.row, problem)
    if isinstance(source, BasisElementSource):
        if not (0 <= source.index < len(basis)):
            raise ValueError(f"basis element index {source.index} out of range 0..{len(basis) - 1}")
        fld = basis.elements[source.index].field
        return field_data(problem, config.material, fld, quad), fld
    if isinstance(source, RotationSource):
        if not rotations:
            raise ValueError("rotation data source requires a sphere or axisymmetric surface")
        if not (0 <= source.index < len(rotations)):
            raise ValueError(f"rotation index {source.index} out of range 0..{len(rotations) - 1}")
        return BoundaryData(problem, np.zeros(quad.n_samples), rotations[source.index]), None
    if isinstance(source, CsvSource):
        return _read_csv_source(source.path, problem, quad.n_samples), None
    raise TypeError(f"unsupported data source {type(source).__name__}")


def prepare(config: StudyConfig):
    """Quadrature, basis through max(degrees), boundary data, exact evaluator
    (or None) and, for problem III, the tangential rotation fields of the
    configured surface.  The rotation fields are computed once, and only for
    problem III or rotation data."""
    quad = make_quadrature(config.surface, config.n_theta, config.n_phi)
    basis = elastic_basis(config.material, max(config.degrees))
    rotations = []
    if config.problem == PROBLEM_III or isinstance(config.source, RotationSource):
        rotations = tangential_rotation_fields(classify_symmetry(config.surface), quad)
    data, exact = build_data(config, quad, basis, rotations)
    return quad, basis, data, exact, rotations if config.problem == PROBLEM_III else []


def run_study(config: StudyConfig) -> StudyReport:
    """Sweep basis degrees against fixed data; one report row per degree.  The
    traces, their factorization and the probe values are computed once.  The
    defect columns are those of problem III; `prepare` gives no rotation
    fields for problem IV."""
    quad, basis, data, exact, gammas = prepare(config)
    results = fit_degrees(data, basis, quad, config.degrees, svd_tol=config.svd_tol,
                          scalar_weight=config.scalar_weight)

    found = compatibility_defect(data, gammas, quad)
    defects = tuple(found + [float("nan")] * (3 - len(found)))

    if exact is not None:
        probes = probe_points(config.surface)
        exact_at_probes = exact.eval(probes)
        den = float(np.max(np.linalg.norm(exact_at_probes, axis=1)))
        probe_values = field_values(basis, probes)

    rows: list[StudyRow] = []
    for degree, result in zip(config.degrees, results):
        probe_err = float("nan")
        if exact is not None:
            fitted = probe_values[:, :, : len(result.coefficients)] @ result.coefficients
            num = float(np.max(np.linalg.norm(fitted - exact_at_probes, axis=1)))
            probe_err = num / den if den > 0.0 else num

        residual_max = max_misfit(result.scalar_misfit, result.vector_misfit, config.scalar_weight)
        rows.append(StudyRow(
            degree=degree, residual_l2=result.residual_norm, residual_max=residual_max, data_norm=result.data_norm,
            kept_rank=result.kept_rank, defects=defects, probe_err_max=probe_err,
        ))
    return StudyReport(config=config, rows=tuple(rows), metadata=config_metadata(config), quadrature=quad)
