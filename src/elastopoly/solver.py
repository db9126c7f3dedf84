"""Boundary least-squares solver for the third and fourth problems.

The trace map sends each basis element to its boundary data pair — (normal
displacement, tangential traction) for problem III, (tangential displacement,
normal traction) for problem IV — sampled on a surface quadrature.  Fitting
minimizes the weighted-L2 misfit over basis coefficients with per-column
normalization and a truncated SVD, the standard regularization for the
exponentially ill-conditioned collocation matrices these bases produce.
Truncation only affects the solution below the cutoff; the reported residual
is always the directly recomputed misfit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Material, ElasticBasis
from .geometry import SurfaceQuadrature
from .ioutil import fmt17
from .operators import traction_of_gradient
from .polyalg import VecPoly3, batch_eval

TANGENCY_TOL = 1e-8  # relative to max |data|, floored at 1

PROBLEM_III = "III"
PROBLEM_IV = "IV"


def _check_finite(**arrays: np.ndarray) -> None:
    for name, arr in arrays.items():
        bad = np.count_nonzero(~np.isfinite(arr))
        if bad:
            raise ValueError(f"boundary data {name} has {bad} non-finite (nan or inf) values")


@dataclass(frozen=True)
class BoundaryDataIII:
    """Normal displacement target phi and tangential traction target Phi."""

    phi: np.ndarray
    Phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "Phi", np.asarray(self.Phi, dtype=float))
        if self.phi.ndim != 1 or self.Phi.shape != (self.phi.size, 3):
            raise ValueError("phi must be (N,) and Phi (N, 3)")
        _check_finite(phi=self.phi, Phi=self.Phi)

    @property
    def n_samples(self) -> int:
        return self.phi.size

    @property
    def scalar(self) -> np.ndarray:
        return self.phi

    @property
    def vector(self) -> np.ndarray:
        return self.Phi


@dataclass(frozen=True)
class BoundaryDataIV:
    """Tangential displacement target Psi and normal traction target psi."""

    Psi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Psi", np.asarray(self.Psi, dtype=float))
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        if self.psi.ndim != 1 or self.Psi.shape != (self.psi.size, 3):
            raise ValueError("psi must be (N,) and Psi (N, 3)")
        _check_finite(Psi=self.Psi, psi=self.psi)

    @property
    def n_samples(self) -> int:
        return self.psi.size

    @property
    def scalar(self) -> np.ndarray:
        return self.psi

    @property
    def vector(self) -> np.ndarray:
        return self.Psi


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


def _eval_values_and_gradients(fields: list[VecPoly3], points) -> tuple[np.ndarray, np.ndarray]:
    """Values (N, E, 3) and gradients (N, E, 3, 3) with grad[..., a, j] = d v_j / d x_a."""
    polys = []
    for v in fields:
        polys.extend(v.components)
        polys.extend(v.jacobian())
    table = batch_eval(polys, points)
    n_pts, n_fields = table.shape[0], len(fields)
    table = table.reshape(n_pts, n_fields, 12)
    return table[:, :, :3], table[:, :, 3:].reshape(n_pts, n_fields, 3, 3)


def split_trace(problem: str, u: np.ndarray, t: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar and vector boundary data of displacements u and tractions t (..., 3).

    Problem III: (u . nu, t - (t . nu) nu); problem IV: (t . nu, u - (u . nu) nu).
    The vector part is tangential by construction.  Normals broadcast against
    the samples' leading axes.
    """
    if problem == PROBLEM_III:
        scalar, full = np.einsum("...j,...j->...", u, normals), t
    elif problem == PROBLEM_IV:
        scalar, full = np.einsum("...j,...j->...", t, normals), u
    else:
        raise ValueError(f"problem must be 'III' or 'IV', got {problem!r}")
    return scalar, full - np.einsum("...j,...j->...", full, normals)[..., None] * normals


def boundary_data(problem: str, scalar: np.ndarray, vector: np.ndarray) -> BoundaryDataIII | BoundaryDataIV:
    """The data pair of the problem from its scalar and vector parts."""
    if problem == PROBLEM_III:
        return BoundaryDataIII(phi=scalar, Phi=vector)
    if problem == PROBLEM_IV:
        return BoundaryDataIV(Psi=vector, psi=scalar)
    raise ValueError(f"problem must be 'III' or 'IV', got {problem!r}")


def assemble_traces(
    problem: str, material: Material, fields: list[VecPoly3], quad: SurfaceQuadrature
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (N, E, 3) of the fields and their scalar (N, E) and tangential-vector
    (N, E, 3) trace blocks."""
    values, grads = _eval_values_and_gradients(fields, quad.points)
    nu = quad.normals[:, None, :]
    return (values, *split_trace(problem, values, traction_of_gradient(material, grads, nu), nu))


def trace_III(material: Material, p: VecPoly3, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(u . nu, Tu - (Tu . nu) nu) samples of one field; the vector part is
    exactly tangential by construction."""
    _, scalar, vector = assemble_traces(PROBLEM_III, material, [p], quad)
    return scalar[:, 0], vector[:, 0, :]


def trace_IV(material: Material, p: VecPoly3, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(u - (u . nu) nu, Tu . nu) samples of one field."""
    _, scalar, vector = assemble_traces(PROBLEM_IV, material, [p], quad)
    return vector[:, 0, :], scalar[:, 0]


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


def fit(
    problem: str,
    data: BoundaryDataIII | BoundaryDataIV,
    basis: ElasticBasis,
    quad: SurfaceQuadrature,
    svd_tol: float = 1e-12,
    scalar_weight: float = 1.0,
    project_tangential: bool = False,
    rotation_fields: list[np.ndarray] | None = None,
) -> FitResult:
    """Weighted least-squares fit of the boundary data over the basis traces.

    Minimizes sum_n w_n (scalar_weight * |scalar misfit|^2 + |vector misfit|^2).
    Columns are scaled to unit weighted norm, then singular values below
    svd_tol * sigma_max are discarded (minimum-norm solution).  If
    `rotation_fields` are passed (problem III on a symmetric surface), the
    weighted components of the fitted displacement along them are reported,
    making the arbitrary rigid part of the solution visible.  The traces are
    assembled once; the per-sample misfits against the data as given are
    kept on the result.
    """
    expected = BoundaryDataIII if problem == PROBLEM_III else BoundaryDataIV
    if problem not in (PROBLEM_III, PROBLEM_IV):
        raise ValueError(f"problem must be 'III' or 'IV', got {problem!r}")
    if not isinstance(data, expected):
        raise TypeError(f"problem {problem} needs {expected.__name__}, got {type(data).__name__}")
    if data.n_samples != quad.n_samples:
        raise ValueError(f"data has {data.n_samples} samples but quadrature has {quad.n_samples}")
    if not (0.0 < svd_tol < 1.0):
        raise ValueError(f"svd_tol must be in (0, 1), got {svd_tol}")
    check_scalar_weight(scalar_weight)

    vec_data = data.vector
    if project_tangential:
        v_n = np.einsum("ni,ni->n", vec_data, quad.normals)
        vec_data = vec_data - v_n[:, None] * quad.normals
    else:
        check_tangential(vec_data, quad, "Phi" if problem == PROBLEM_III else "Psi")

    values, scalar, vector = assemble_traces(problem, basis.material, basis.fields(), quad)
    # Project onto the rotations now so the (N, E, 3) values are not held through the SVD.
    rotations = [quad.weights @ np.einsum("nej,nj->ne", values, g) for g in rotation_fields or ()]
    del values
    sw = np.sqrt(quad.weights)
    rows_scalar = np.sqrt(scalar_weight) * sw[:, None] * scalar
    rows_vector = (sw[:, None, None] * vector).transpose(0, 2, 1).reshape(-1, len(basis))
    a = np.vstack([rows_scalar, rows_vector])
    b = np.concatenate([
        np.sqrt(scalar_weight) * sw * data.scalar,
        (sw[:, None] * vec_data).reshape(-1),
    ])

    col_norms = np.linalg.norm(a, axis=0)
    scales = np.where(col_norms > 0.0, col_norms, 1.0)
    u_svd, sigma, vt = np.linalg.svd(a / scales, full_matrices=False)
    if sigma.size and sigma[0] > 0.0:
        keep = sigma >= svd_tol * sigma[0]
    else:
        keep = np.zeros(sigma.shape, dtype=bool)
    inv = np.zeros_like(sigma)
    inv[keep] = 1.0 / sigma[keep]
    coeffs = (vt.T @ (inv * (u_svd.T @ b))) / scales

    residual = float(np.linalg.norm(a @ coeffs - b))
    data_norm = float(np.linalg.norm(b))
    scalar_misfit, vector_misfit = pointwise_misfit(data, scalar, vector, coeffs)

    return FitResult(
        problem=problem,
        coefficients=coeffs,
        residual_norm=residual,
        data_norm=data_norm,
        kept_rank=int(np.count_nonzero(keep)),
        singular_values=sigma,
        svd_tol=svd_tol,
        rotation_components=np.array(rotations) @ coeffs if rotations else None,
        scalar_misfit=scalar_misfit,
        vector_misfit=vector_misfit,
    )


def pointwise_misfit(
    data: BoundaryDataIII | BoundaryDataIV, scalar: np.ndarray, vector: np.ndarray, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample scalar (N,) and vector (N, 3) misfits of the coefficients
    over the trace blocks, against the data as given (never projected)."""
    ds = scalar @ coefficients - data.scalar
    dv = np.einsum("nej,e->nj", vector, coefficients) - data.vector
    return ds, dv


def max_misfit(ds: np.ndarray, dv: np.ndarray, scalar_weight: float = 1.0) -> float:
    """Uniform-norm residual: largest pointwise misfit magnitude over samples."""
    point = np.sqrt(scalar_weight * ds**2 + np.einsum("ni,ni->n", dv, dv))
    return float(np.max(point, initial=0.0))


def compatibility_defect(
    data: BoundaryDataIII, gammas: list[np.ndarray], quad: SurfaceQuadrature
) -> list[float]:
    """Weighted inner products of the tangential traction datum with each
    tangential rigid rotation; all must vanish for solvability."""
    return [float(quad.inner(data.Phi, g)) for g in gammas]


def evaluate_solution(
    result: FitResult, basis: ElasticBasis, points
) -> tuple[np.ndarray, np.ndarray]:
    """Displacements (M, 3) and stress tensors (M, 3, 3) of the fitted field.

    The stress is lam (div u) I + mu (grad u + grad u^T), symmetric by
    construction; contracting with a surface normal reproduces the traction
    of the fitted field.  Evaluates every basis field at the points, which
    takes 12 * M * len(basis) floats.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values, grads = _eval_values_and_gradients(basis.fields(), pts)
    c = result.coefficients
    disp = np.einsum("mej,e->mj", values, c)
    g = np.einsum("meaj,e->maj", grads, c)
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
