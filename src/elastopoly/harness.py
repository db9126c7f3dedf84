"""Manufactured solutions, reciprocity/representation checks, degree studies.

The study driver sweeps basis degrees against fixed boundary data and records
weighted-L2 and uniform-norm residuals, rank diagnostics, compatibility
defects against the tangential rigid rotations, and interior probe errors
when an exact solution is available.  Kelvin point-source fields with the
pole outside the body are the stock manufactured solutions: they satisfy the
equilibrium equations inside, so their traces are always compatible and the
residual columns exhibit the completeness (or incompleteness) the geometry
dictates.  Every data source yields one `BoundaryData` of the configured
problem.  The tangential rotation fields belong to the study's quadrature,
which computes them once for rotation data, the fits and the defect columns;
`solver` decides where they apply (problem III only).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .basis import ElasticBasis, Material, elastic_basis
from .geometry import Ellipsoid, Sphere, StarShaped, SurfaceQuadrature, SurfaceSpec, make_quadrature, radial_function
from .ioutil import csv_text, json_dumps
from .operators import KelvinField, kelvin_matrix, kelvin_traction, traction_of_stress
from .polyalg import _check_integer, eval_blocks
from .solver import (
    PROBLEM_III,
    BoundaryData,
    check_problem,
    check_scalar_weight,
    check_svd_tol,
    compatibility_defect,
    evaluate_solution,
    field_data,
    field_samples,
    fit_degrees,
    max_misfit,
)

PROBE_SEED = 715
N_PROBES = 20
PROBE_DEPTH = 0.5
# The probe directions, unnormalized: np.random.default_rng(PROBE_SEED).normal(size=(N_PROBES, 3))
# written out as round-trip floats, so a study imports no RNG and its probes
# do not follow numpy's generator stream.
PROBE_DIRECTIONS = (
    (-0.22832266075610697, -0.4453456412939974, 0.1182070197951212),
    (-0.8239062197576767, 0.24431997423185675, -0.704980730426958),
    (-0.9254356715999021, -2.0129004668325754, -1.079863114839994),
    (0.7462481448730208, 2.3814698646617836, 1.008569242315039),
    (1.0291630936116043, -1.2250029698341331, 0.08972661661274824),
    (0.08015671385620489, -0.13054976127769077, 1.189808450367467),
    (-0.3044100819695626, -1.1572633235791936, -2.215885755616498),
    (0.9967552013980882, -0.1528049650883345, -1.0292101298512635),
    (0.517644705765067, -1.0823420028044426, -0.427630252423818),
    (1.5228140113339113, -0.9956279619001065, -0.501996412808922),
    (0.6621388990404232, -1.1323285352192356, 0.24799828816380454),
    (-1.0200227887538917, -0.7612909709573344, 0.09690122155612939),
    (1.621516943533767, -0.04820551926494124, -0.44868512063367355),
    (-0.48238870233848025, -0.1282554175799269, -0.7261284373188605),
    (-0.7189222128989425, 0.38412357029039945, -1.008331054243784),
    (-0.4245760780046797, -0.9599660015077516, -0.0869471034098924),
    (-0.2412742243747706, 0.2710211025105559, -0.9846079719992423),
    (-0.9575346564330384, 1.054085791128169, 1.413036894305932),
    (1.9308245657111465, 0.1979237603745998, -0.885189320670484),
    (0.11899287326168177, 0.3503979963983911, 1.037251560938361),
)


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
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"Kelvin pole y0 must be finite, got {y0.tolist()}")
    rel = y0 - np.asarray(quad.spec.center, dtype=float)
    dist = float(np.linalg.norm(rel))
    if dist == 0.0:
        raise ValueError("Kelvin pole coincides with the surface center (inside the body)")
    r_surface = float(radial_function(quad.spec, rel / dist))
    if dist <= r_surface:
        raise ValueError(
            f"Kelvin pole must lie strictly outside the surface: |y0 - center| = {dist:.6g} "
            f"<= surface radius {r_surface:.6g} in that direction"
        )
    fld = KelvinField(material, tuple(y0), row)
    return field_data(problem, material, fld, quad), fld


# -- identity checks --------------------------------------------------------------


def betti_check(material: Material, u, v, quad: SurfaceQuadrature) -> float:
    """|oint (u . Tv - v . Tu) dsigma| for two equilibrium fields.

    Both volume terms of the reciprocity identity vanish for equilibrium
    fields, so the result is pure quadrature error.
    """
    return float(abs(reciprocity(quad, *field_samples(material, u, quad), *field_samples(material, v, quad))))


def reciprocity(quad: SurfaceQuadrature, u, t, v, tv) -> np.ndarray:
    """oint (u . t_v - v . t_u) dsigma of displacement and traction samples
    (N, 3) of u, and (..., N, 3) of v: leading axes of v are fields, one
    integral each."""
    return (np.einsum("...i,...i->...", u, tv) - np.einsum("...i,...i->...", v, t)) @ quad.weights


def _clear_of_surface(quad: SurfaceQuadrature, x) -> np.ndarray:
    """x as a finite float point, refused closer to the surface samples than
    three quadrature spacings: the near-singular regime is out of scope."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"evaluation point must be finite, got {x.tolist()}")
    spacing = np.sqrt(quad.area / quad.n_samples)
    min_dist = float(np.min(np.linalg.norm(quad.points - x, axis=1)))
    if min_dist < 3.0 * spacing:
        raise ValueError(
            f"evaluation point is {min_dist:.3g} from the surface samples, closer than "
            f"3 quadrature spacings ({3.0 * spacing:.3g}); near-singular quadrature unsupported"
        )
    return x


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
    x = _clear_of_surface(quad, x)
    # the row fields K_i(x - y) and their tractions at y, as (i, N, j)
    kelvin = [np.moveaxis(k, 1, 0) for k in (kelvin_matrix(material, x - quad.points),
                                              kelvin_traction(material, x, quad.points, quad.normals))]
    integral = reciprocity(quad, *field_samples(material, w, quad), *kelvin)
    target = np.asarray(w.eval(x), dtype=float) if expect == "interior" else np.zeros(3)
    return integral - target


def reciprocity_matrix(basis: ElasticBasis, columns, quad: SurfaceQuadrature, poles=()):
    """A[f, g] = oint u_f . t_g dsigma and the squared norms oint |u_f|^2 dsigma
    of the fields f: the basis elements at `columns` (repeats allowed), then
    the three Kelvin row fields K_i(x - y) of each pole x.  So
    A[f, g] - A[g, f] is the reciprocity integral `reciprocity` of u_f and u_g.
    Also returns the elements' values at the poles (P, len(columns), 3).

    One `eval_blocks` pass samples only the rows of the chosen elements, their
    values and stresses, one chunk of CHUNK_POINTS points at a time.  Per
    chunk, one traction contraction (`traction_of_stress`) serves every
    element and one call of each Kelvin kernel every pole, and the products
    are summed into A as one matrix product, so no field is held at every
    sample.  Poles that are not finite, or closer to the surface than three
    quadrature spacings, are refused.
    """
    columns = basis.positions(columns)
    poles = np.array([_clear_of_surface(quad, x) for x in np.reshape(poles, (-1, 3))]).reshape(-1, 3)
    layout, targets = basis.pick(columns)
    order = np.concatenate(targets)  # the positions in `columns` of the layout's elements
    n_basis, n_fields = len(columns), len(columns) + 3 * len(poles)
    material = basis.material
    matrix, sq_norms = np.zeros((n_fields, n_fields)), np.zeros(n_fields)
    for rows, products in eval_blocks(layout, quad.points):
        points, normals, m = quad.points[rows], quad.normals[rows], rows.stop - rows.start
        u, t = np.empty((2, n_fields, m, 3))
        values, stress, at = np.empty((3, n_basis, m)), np.empty((6, n_basis, m)), 0
        for e in map(len, targets):  # filled one product at a time: each degree's values, then its stresses
            values[:, at:at + e], stress[:, at:at + e] = next(products), next(products)
            at += e
        u[order], t[order] = values.transpose(1, 2, 0), traction_of_stress(stress, normals)
        # field n_basis + 3p + i is K_i(x_p - y): the kernels (P, m, i, j) as (3P, m, j)
        x = poles[:, None]
        u[n_basis:] = kelvin_matrix(material, x - points).transpose(0, 2, 1, 3).reshape(-1, m, 3)
        t[n_basis:] = kelvin_traction(material, x, points, normals).transpose(0, 2, 1, 3).reshape(-1, m, 3)
        weighted = (u * quad.weights[rows, None]).reshape(n_fields, -1)
        matrix += weighted @ t.reshape(n_fields, -1).T
        sq_norms += np.einsum("fi,fi->f", weighted, u.reshape(n_fields, -1))
        del u, t, weighted, products  # freed before the next chunk's tables
    at_poles = np.empty((len(poles), n_basis, 3))
    for rows, products in eval_blocks(layout[::2], poles):
        for values, mine in zip(products, targets):
            at_poles[rows, mine] = values.T
    return matrix, sq_norms, at_poles


# -- studies ----------------------------------------------------------------------


@dataclass(frozen=True)
class KelvinSource:
    y0: tuple[float, float, float]
    row: int = 1

    def __post_init__(self):
        object.__setattr__(self, "row", _check_integer(self.row, "row"))


@dataclass(frozen=True)
class BasisElementSource:
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _check_integer(self.index, "basis element index"))


@dataclass(frozen=True)
class RotationSource:
    """Pure tangential-rotation data: the incompleteness probe for problem III."""

    index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "index", _check_integer(self.index, "rotation index"))


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
        object.__setattr__(self, "degrees", tuple(_check_integer(k, "degrees") for k in self.degrees))
        if min(self.degrees) < 0:
            raise ValueError(f"degrees must be non-negative, got {list(self.degrees)}")
        if len(set(self.degrees)) != len(self.degrees):
            raise ValueError(f"degrees must not repeat, got {list(self.degrees)}")
        check_svd_tol(self.svd_tol)
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
        """One line per row: its fields in order, the defects spread over three columns."""
        return csv_text("K,residual_l2,residual_max,data_norm,kept_rank,defect_1,defect_2,defect_3,probe_err_max",
                        np.array([np.hstack(astuple(r)) for r in self.rows]))

    def metadata_json(self) -> str:
        return json_dumps(self.metadata) + "\n"


# Each surface kind and data source by its config name, under the key that
# names it in its config section; the CLI reads and study.json records each
# one as this name plus the dataclass fields.
KINDS = {
    "surface": ("kind", {"sphere": Sphere, "ellipsoid": Ellipsoid, "star": StarShaped}),
    "data": ("source", {"kelvin": KelvinSource, "basis_element": BasisElementSource,
                        "rotation": RotationSource, "csv": CsvSource}),
}


def _kind_dict(section: str, spec) -> dict:
    key, kinds = KINDS[section]
    name = next(name for name, cls in kinds.items() if isinstance(spec, cls))
    return {key: name, **{f.name: getattr(spec, f.name) for f in fields(spec)}}


def config_metadata(config: StudyConfig) -> dict:
    return {
        "material": {"lambda": config.material.lam, "mu": config.material.mu},
        "surface": _kind_dict("surface", config.surface),
        "problem": config.problem,
        "degrees": list(config.degrees),
        "quadrature": {"n_theta": config.n_theta, "n_phi": config.n_phi},
        "data": _kind_dict("data", config.source),
        "svd_tol": config.svd_tol,
        "scalar_weight": config.scalar_weight,
        "probes": {"count": N_PROBES, "depth": PROBE_DEPTH, "seed": PROBE_SEED},
    }


def probe_points(spec: SurfaceSpec) -> np.ndarray:
    """Fixed interior probes at 50% radial depth along `PROBE_DIRECTIONS`."""
    dirs = np.array(PROBE_DIRECTIONS)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = radial_function(spec, dirs)
    return np.asarray(spec.center, dtype=float) + PROBE_DEPTH * r[:, None] * dirs


def _read_csv_source(path: str, problem: str, n_samples: int):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.replace(",", " ").split()
            if not fields or not _is_float(fields[0]):
                continue  # blank, comment or header line
            if len(fields) != 4:
                raise ValueError(f"data CSV {path}, line {lineno}: expected 4 numbers, got {len(fields)}")
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:  # names the bad field
                raise ValueError(f"data CSV {path}, line {lineno}: {exc}") from None
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


def build_data(config: StudyConfig, quad: SurfaceQuadrature, basis: ElasticBasis):
    """Boundary data for the study, plus an exact evaluator when one exists.
    Rotation data is one of the quadrature's tangential rotation fields."""
    source, problem = config.source, config.problem
    if isinstance(source, KelvinSource):
        return kelvin_data(config.material, quad, source.y0, source.row, problem)
    if isinstance(source, BasisElementSource):
        if not (0 <= source.index < len(basis)):
            raise ValueError(f"basis element index {source.index} out of range 0..{len(basis) - 1}")
        fld = basis.element(source.index).field
        return field_data(problem, config.material, fld, quad), fld
    if isinstance(source, RotationSource):
        rotations = quad.rotation_fields
        if not rotations:
            raise ValueError("rotation data source requires a sphere or axisymmetric surface")
        if not (0 <= source.index < len(rotations)):
            raise ValueError(f"rotation index {source.index} out of range 0..{len(rotations) - 1}")
        return BoundaryData(problem, np.zeros(quad.n_samples), rotations[source.index]), None
    if isinstance(source, CsvSource):
        return _read_csv_source(source.path, problem, quad.n_samples), None
    raise TypeError(f"unsupported data source {type(source).__name__}")


def prepare(config: StudyConfig):
    """Quadrature, basis through max(degrees), boundary data and exact
    evaluator (or None) of the configured study."""
    quad = make_quadrature(config.surface, config.n_theta, config.n_phi)
    basis = elastic_basis(config.material, max(config.degrees))
    return quad, basis, *build_data(config, quad, basis)


def run_study(config: StudyConfig) -> StudyReport:
    """Sweep basis degrees against fixed data; one report row per degree.  The
    traces and their factorization are computed once; each degree's probe
    values come from its fitted field.  The defect columns are those of
    problem III, `nan` for problem IV."""
    quad, basis, data, exact = prepare(config)
    results = fit_degrees(data, basis, quad, config.degrees, svd_tol=config.svd_tol,
                          scalar_weight=config.scalar_weight)

    found = compatibility_defect(data, quad)
    defects = tuple(found + [float("nan")] * (3 - len(found)))

    if exact is not None:
        probes = probe_points(config.surface)
        exact_at_probes = exact.eval(probes)
        den = float(np.max(np.linalg.norm(exact_at_probes, axis=1)))

    rows: list[StudyRow] = []
    for degree, result in zip(config.degrees, results):
        probe_err = float("nan")
        if exact is not None:
            fitted, _ = evaluate_solution(result, basis, probes)
            num = float(np.max(np.linalg.norm(fitted - exact_at_probes, axis=1)))
            probe_err = num / den if den > 0.0 else num

        residual_max = max_misfit(result.scalar_misfit, result.vector_misfit, config.scalar_weight)
        rows.append(StudyRow(
            degree=degree, residual_l2=result.residual_norm, residual_max=residual_max, data_norm=result.data_norm,
            kept_rank=result.kept_rank, defects=defects, probe_err_max=probe_err,
        ))
    return StudyReport(config=config, rows=tuple(rows), metadata=config_metadata(config), quadrature=quad)
