"""Boundary least-squares solver for the third and fourth problems.

The trace map sends each basis element to its boundary data pair — (normal
displacement, tangential traction) for problem III, (tangential displacement,
normal traction) for problem IV — sampled on a surface quadrature.  Fitting
minimizes the weighted-L2 misfit over basis coefficients with per-column
normalization and a truncated SVD, the standard regularization for the
exponentially ill-conditioned collocation matrices these bases produce.

Data of either problem is one `BoundaryData(problem, scalar, vector)`:
`split_trace` alone says which parts of (u, Tu) make up the scalar and the
tangential vector, and a fit reads the problem from its data.  Messages keep
the paper's names, phi/Phi for problem III and psi/Psi for problem IV.

The basis is ordered by degree and the scaling is per column, so the scaled
degree-k matrix is a column prefix of the degree-K one.  A degree sweep
therefore assembles the traces once, at K, and takes one Householder QR of
[A | b] (R only, Q never formed); each degree then needs just the truncated
SVD of the leading n x n block of R, n = 3(k+1)^2, whose last column holds
Q^T b.  Truncation only affects the solution below the cutoff; the reported
residual is always the directly recomputed misfit ||A c - b||.

The traces are assembled from the basis in chunks of CHUNK_POINTS samples.
Per chunk it is evaluated one degree block at a time, the degree-k elements
being columns 3k^2 .. 3(k+1)^2 (`basis.degree_columns`); degree-k values and
degree-(k-1) gradients touch only their own monomials.  Each block is
contracted to tractions, split into the III/IV data and written straight into
one row-stacked trace matrix T.  The weighted, column-scaled [A | b] is
written into a second array as the QR input.  The peak footprint is about
four (4N, E + 1) float arrays, during the QR: T, the QR input, the copy
`np.linalg.qr` takes of it and LAPACK's column-major working copy.  A single
polynomial, rigid or Kelvin field is sampled by `field_samples` instead and
split by the same `split_trace`; `field_data` makes that its `BoundaryData`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Material, ElasticBasis, degree_columns
from .geometry import SurfaceQuadrature
from .ioutil import fmt17
from .operators import KelvinField, RigidDisplacement, traction, traction_of_gradient
from .polyalg import CoefficientBlocks, VecPoly3

TANGENCY_TOL = 1e-8  # relative to max |data|, floored at 1
CHUNK_POINTS = 256  # samples per chunk of the trace assembly and field evaluation

PROBLEM_III = "III"
PROBLEM_IV = "IV"


# The paper's names of each problem's scalar and tangential-vector data.
_DATA_NAMES = {PROBLEM_III: ("phi", "Phi"), PROBLEM_IV: ("psi", "Psi")}


def check_problem(problem: str) -> None:
    if problem not in _DATA_NAMES:
        raise ValueError(f"problem must be 'III' or 'IV', got {problem!r}")


@dataclass(frozen=True)
class BoundaryData:
    """Boundary data of one problem: the scalar (N,) and tangential vector
    (N, 3) targets, phi = u . nu and Phi = tangential Tu for problem III,
    psi = Tu . nu and Psi = tangential u for problem IV."""

    problem: str
    scalar: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        check_problem(self.problem)
        object.__setattr__(self, "scalar", np.asarray(self.scalar, dtype=float))
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))
        scalar_name, vector_name = _DATA_NAMES[self.problem]
        if self.scalar.ndim != 1 or self.vector.shape != (self.scalar.size, 3):
            raise ValueError(f"{scalar_name} must be (N,) and {vector_name} (N, 3)")
        for name, arr in ((scalar_name, self.scalar), (vector_name, self.vector)):
            bad = np.count_nonzero(~np.isfinite(arr))
            if bad:
                raise ValueError(f"boundary data {name} has {bad} non-finite (nan or inf) values")

    @property
    def n_samples(self) -> int:
        return self.scalar.size


@dataclass(frozen=True)
class FitResult:
    """Coefficients and diagnostics of one boundary least-squares solve."""

    problem: str
    coefficients: np.ndarray = field(repr=False)
    residual_norm: float
    data_norm: float
    kept_rank: int
    singular_values: np.ndarray = field(repr=False)
    svd_tol: float
    rotation_components: np.ndarray | None = field(default=None, repr=False)
    scalar_misfit: np.ndarray | None = field(default=None, repr=False)
    vector_misfit: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {
            "problem": self.problem,
            "residual_norm": float(self.residual_norm),
            "data_norm": float(self.data_norm),
            "kept_rank": int(self.kept_rank),
            "svd_tol": float(self.svd_tol),
            "coefficients": [float(c) for c in self.coefficients],
            "singular_values": [float(s) for s in self.singular_values],
        }
        if self.rotation_components is not None:
            out["rotation_components"] = [float(c) for c in self.rotation_components]
        return out


# -- trace assembly ---------------------------------------------------------------


def _eval_chunks(basis: ElasticBasis, points: np.ndarray, degree: int, gradients: bool = True):
    """Evaluate the basis elements through `degree`, one point chunk and one
    degree block at a time.

    Yields (point rows, degree-k columns, values (3, e, n), gradients
    (3, 3, e, n) or None) with values[j] = v_j and gradients[a, j] =
    d v_j / d x_a, each component a contiguous (e, n) block.  The
    coefficients are laid out once; a degree-k block multiplies only the
    degree-k monomials for the values and the degree-(k-1) ones for the
    gradients.
    """
    blocks = [degree_columns(k) for k in range(degree + 1)]
    groups = []
    for cols in blocks:
        fields = [el.field for el in basis.elements[cols]]
        groups.append([v[j] for j in range(3) for v in fields])
        if gradients:
            jacobians = [v.jacobian() for v in fields]
            groups.append([jac[i] for i in range(9) for jac in jacobians])
    coefficients = CoefficientBlocks(groups)
    for start in range(0, len(points), CHUNK_POINTS):
        rows = slice(start, min(start + CHUNK_POINTS, len(points)))
        out = iter(coefficients.eval(points[rows]))
        n = rows.stop - rows.start
        for cols in blocks:
            e = cols.stop - cols.start
            values = next(out).reshape(3, e, n)
            grads = next(out).reshape(3, 3, e, n) if gradients else None
            yield rows, cols, values, grads


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def split_trace(problem: str, u: np.ndarray, t: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar and vector boundary data of displacements u and tractions t (..., 3).

    Problem III: (u . nu, t - (t . nu) nu); problem IV: (t . nu, u - (u . nu) nu).
    The vector part is tangential by construction.  Normals broadcast against
    the samples' leading axes.
    """
    check_problem(problem)
    scalar, full = (_dot(u, normals), t) if problem == PROBLEM_III else (_dot(t, normals), u)
    normal_part, vector = _dot(full, normals), np.empty_like(full)  # keeps the memory layout of full
    for b in range(3):
        vector[..., b] = full[..., b] - normal_part * normals[..., b]
    return scalar, vector


def assemble_traces(
    problem: str,
    basis: ElasticBasis,
    quad: SurfaceQuadrature,
    rotation_fields: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-stacked trace matrix T (4N, E) of the basis and its weighted
    displacement projections (len(rotation_fields), E) on the rotation fields.

    Row n of T holds the scalar traces at sample n, row N + 3n + j the j-th
    component of the tangential vector traces.  The basis is evaluated in
    chunks of CHUNK_POINTS samples, one degree block at a time, and each
    block's traces are written straight into T.
    """
    n_samples, rotations = quad.n_samples, list(rotation_fields or ())
    traces = np.empty((4 * n_samples, len(basis)))
    vector_rows = traces[n_samples:].reshape(n_samples, 3, len(basis))
    projections = np.zeros((len(rotations), len(basis)))
    for rows, cols, values, grads in _eval_chunks(basis, quad.points, basis.max_degree):
        # (e, n, 3) views: the normals broadcast over the fields, the point axis runs innermost
        nu = quad.normals[rows]
        t = traction_of_gradient(basis.material, grads.transpose(2, 3, 0, 1), nu)
        scalar, vector = split_trace(problem, values.transpose(1, 2, 0), t, nu)
        traces[rows, cols] = scalar.T
        vector_rows[rows, :, cols] = vector.transpose(1, 2, 0)
        if rotations:
            weighted = np.stack([quad.weights[rows, None] * g[rows] for g in rotations])
            projections[:, cols] += np.einsum("gnj,jen->ge", weighted, values)
    return traces, projections


def field_samples(material: Material, obj, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Displacement and traction samples (N, 3) of one polynomial, rigid or Kelvin field."""
    if isinstance(obj, RigidDisplacement):
        obj = obj.as_vecpoly()
    if isinstance(obj, VecPoly3):
        return obj.eval(quad.points), traction(material, obj, quad.points, quad.normals)
    if isinstance(obj, KelvinField):
        if obj.params.material != material:
            raise ValueError("Kelvin field material differs from the check material")
        return obj.eval(quad.points), obj.traction(quad.points, quad.normals)
    raise TypeError(f"unsupported field type {type(obj).__name__}")


def field_data(problem: str, material: Material, obj, quad: SurfaceQuadrature) -> BoundaryData:
    """The problem's boundary data of one polynomial, rigid or Kelvin field."""
    return BoundaryData(problem, *split_trace(problem, *field_samples(material, obj, quad), quad.normals))


def trace_III(material: Material, p, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(u . nu, Tu - (Tu . nu) nu) samples of one field; the vector part is
    exactly tangential by construction."""
    return split_trace(PROBLEM_III, *field_samples(material, p, quad), quad.normals)


def trace_IV(material: Material, p, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(u - (u . nu) nu, Tu . nu) samples of one field."""
    scalar, vector = split_trace(PROBLEM_IV, *field_samples(material, p, quad), quad.normals)
    return vector, scalar


# -- fitting ----------------------------------------------------------------------


def check_scalar_weight(scalar_weight: float) -> None:
    if not (np.isfinite(scalar_weight) and scalar_weight >= 0.0):
        raise ValueError(f"scalar_weight must be a finite number >= 0, got {scalar_weight}")


def check_tangential(vector: np.ndarray, quad: SurfaceQuadrature, what: str) -> None:
    """Reject data violating the necessary condition F . nu = 0 on the surface."""
    defect = np.abs(np.einsum("ni,ni->n", vector, quad.normals))
    scale = max(1.0, float(np.max(np.abs(vector), initial=0.0)))
    worst = float(np.max(defect, initial=0.0))
    if worst > TANGENCY_TOL * scale:
        raise ValueError(
            f"{what} is not tangential: max |F . nu| = {worst:.3e} exceeds "
            f"{TANGENCY_TOL:g} * scale; a solution requires F . nu = 0 on the surface "
            "(pass project_tangential=True to project explicitly)"
        )


def fit_degrees(
    data: BoundaryData,
    basis: ElasticBasis,
    quad: SurfaceQuadrature,
    degrees: tuple[int, ...],
    svd_tol: float = 1e-12,
    scalar_weight: float = 1.0,
    project_tangential: bool = False,
    rotation_fields: list[np.ndarray] | None = None,
) -> list[FitResult]:
    """Weighted least-squares fits of the boundary data over the basis traces
    of data.problem through each of `degrees`, in the order given.

    Each fit minimizes sum_n w_n (scalar_weight * |scalar misfit|^2 +
    |vector misfit|^2) over the 3(k+1)^2 elements of degree <= k.  Columns
    are scaled to unit weighted norm, then singular values below
    svd_tol * sigma_max are discarded (minimum-norm solution).  If
    `rotation_fields` are passed (problem III on a symmetric surface), the
    weighted components of the fitted displacement along them are reported,
    making the arbitrary rigid part of the solution visible.  The traces are
    assembled and factored once, at basis.max_degree; the per-sample misfits
    against the data as given are kept on each result.
    """
    if data.n_samples != quad.n_samples:
        raise ValueError(f"data has {data.n_samples} samples but quadrature has {quad.n_samples}")
    if not (0.0 < svd_tol < 1.0):
        raise ValueError(f"svd_tol must be in (0, 1), got {svd_tol}")
    check_scalar_weight(scalar_weight)
    if not degrees or not all(0 <= k <= basis.max_degree for k in degrees):
        raise ValueError(f"degrees must lie in 0..{basis.max_degree}, got {list(degrees)}")

    vec_data = data.vector
    if project_tangential:
        v_n = np.einsum("ni,ni->n", vec_data, quad.normals)
        vec_data = vec_data - v_n[:, None] * quad.normals
    else:
        check_tangential(vec_data, quad, _DATA_NAMES[data.problem][1])

    traces, rotations = assemble_traces(data.problem, basis, quad, rotation_fields)
    n_samples, n_fields = quad.n_samples, len(basis)
    sw = np.sqrt(quad.weights)
    row_weights = np.concatenate([np.sqrt(scalar_weight) * sw, np.repeat(sw, 3)])
    b = np.concatenate([np.sqrt(scalar_weight) * sw * data.scalar, (sw[:, None] * vec_data).reshape(-1)])
    data_norm = float(np.linalg.norm(b))

    # The QR input [A / scales | b], A the weighted traces, written in place.
    ab = np.empty((4 * n_samples, n_fields + 1))
    a = np.multiply(row_weights[:, None], traces, out=ab[:, :n_fields])
    col_norms = np.linalg.norm(a, axis=0)
    scales = np.where(col_norms > 0.0, col_norms, 1.0)
    a /= scales
    ab[:, -1] = b
    # Elements are ordered by degree, so every degree's scaled matrix is a column
    # prefix: A[:, :n] / scales[:n] = Q_n R[:n, :n] and Q_n^T b = R[:n, -1].
    r = np.linalg.qr(ab, mode="r")
    del ab, a

    results = []
    for degree in degrees:
        n = degree_columns(degree).stop
        u_svd, sigma, vt = np.linalg.svd(r[:n, :n], full_matrices=False)
        keep = (sigma > 0.0) & (sigma >= svd_tol * np.max(sigma, initial=0.0))
        inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
        coeffs = (vt.T @ (inv * (u_svd.T @ r[:n, -1]))) / scales[:n]
        fitted = traces[:, :n] @ coeffs
        scalar_misfit, vector_misfit = pointwise_misfit(data, fitted)
        results.append(FitResult(
            problem=data.problem, coefficients=coeffs, residual_norm=float(np.linalg.norm(row_weights * fitted - b)),
            data_norm=data_norm, kept_rank=int(np.count_nonzero(keep)), singular_values=sigma, svd_tol=svd_tol,
            rotation_components=rotations[:, :n] @ coeffs if rotation_fields else None,
            scalar_misfit=scalar_misfit, vector_misfit=vector_misfit,
        ))
    return results


def fit(data: BoundaryData, basis: ElasticBasis, quad: SurfaceQuadrature, **options) -> FitResult:
    """The fit over the whole basis: `fit_degrees` at basis.max_degree alone,
    taking the same keyword options."""
    return fit_degrees(data, basis, quad, (basis.max_degree,), **options)[0]


def pointwise_misfit(data: BoundaryData, fitted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample scalar (N,) and vector (N, 3) misfits of fitted trace rows
    (4N,), laid out as the rows of `assemble_traces`, against the data as
    given (never projected)."""
    n = data.n_samples
    return fitted[:n] - data.scalar, fitted[n:].reshape(n, 3) - data.vector


def max_misfit(ds: np.ndarray, dv: np.ndarray, scalar_weight: float = 1.0) -> float:
    """Uniform-norm residual: largest pointwise misfit magnitude over samples."""
    point = np.sqrt(scalar_weight * ds**2 + np.einsum("ni,ni->n", dv, dv))
    return float(np.max(point, initial=0.0))


def compatibility_defect(data: BoundaryData, gammas: list[np.ndarray], quad: SurfaceQuadrature) -> list[float]:
    """Weighted inner products of the tangential datum with each tangential
    rigid rotation; for problem III (traction datum Phi) all must vanish for
    solvability."""
    return [float(quad.inner(data.vector, g)) for g in gammas]


def field_values(basis: ElasticBasis, points) -> np.ndarray:
    """Displacements (M, 3, E) of every basis element at the points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((len(pts), 3, len(basis)))
    for rows, cols, values, _ in _eval_chunks(basis, pts, basis.max_degree, gradients=False):
        out[rows, :, cols] = values.transpose(2, 0, 1)
    return out


def evaluate_solution(
    result: FitResult, basis: ElasticBasis, points
) -> tuple[np.ndarray, np.ndarray]:
    """Displacements (M, 3) and stress tensors (M, 3, 3) of the fitted field.

    The stress is lam (div u) I + mu (grad u + grad u^T), symmetric by
    construction; contracting with a surface normal reproduces the traction
    of the fitted field.  Only the degree prefix the coefficients cover is
    evaluated (3(k+1)^2 elements for a fit through degree k), one chunk of
    CHUNK_POINTS points at a time, and contracted with the coefficients at
    once, so the working set is 12 * CHUNK_POINTS * len(basis) floats
    whatever M is.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c = result.coefficients
    degree = basis.prefix_degree(len(c))
    disp, g = np.zeros((len(pts), 3)), np.zeros((len(pts), 3, 3))
    for rows, cols, values, grads in _eval_chunks(basis, pts, degree):
        disp[rows] += (c[cols] @ values).T
        g[rows] += (c[cols] @ grads).transpose(2, 0, 1)
    # Row k is the traction sigma e_k on the plane with normal e_k; sigma is symmetric.
    stress = traction_of_gradient(basis.material, g[:, None, :, :], np.eye(3))
    return disp, stress


def fit_result_json(result: FitResult) -> str:
    from .ioutil import json_dumps

    return json_dumps(result.to_dict()) + "\n"


def misfit_csv(result: FitResult, quad: SurfaceQuadrature) -> str:
    lines = ["x,y,z,w,scalar_misfit,vec_misfit_x,vec_misfit_y,vec_misfit_z"]
    for p, w, s, v in zip(quad.points, quad.weights, result.scalar_misfit, result.vector_misfit):
        lines.append(",".join(fmt17(val) for val in (*p, w, s, *v)))
    return "\n".join(lines) + "\n"
