"""The degree sweep (one assembly, one QR of [A | b], a per-degree SVD of the
R prefix) against the direct fit it replaced, written out here as the
reference: per degree, assemble the degree-k traces and take the truncated
SVD of the whole weighted, column-scaled matrix."""

import dataclasses

import numpy as np
import pytest

from elastopoly import (
    Ellipsoid,
    KelvinSource,
    Material,
    RotationSource,
    Sphere,
    StudyConfig,
    elastic_basis,
    fit,
    fit_degrees,
    kelvin_data,
    make_quadrature,
    run_study,
)
from elastopoly.geometry import classify_symmetry, tangential_rotation_fields
from elastopoly.solver import BoundaryData, assemble_traces, field_values, max_misfit

M = Material(1.3, 0.8)
DEGREES = tuple(range(9))
SURFACES = {
    "sphere": Sphere(),
    "spheroid": Ellipsoid(semi_axes=(1.0, 1.0, 1.5)),
    "triaxial": Ellipsoid(semi_axes=(1.0, 1.3, 1.7)),
}
POLES = {"sphere": (0.4, -0.3, 3.0), "spheroid": (0.4, -0.3, 4.5), "triaxial": (0.4, -0.3, 5.1)}


def direct_fit(problem, data, quad, degree, gammas, svd_tol=1e-12):
    """Kept rank, residual, max misfit and rotation components of the tall-SVD fit."""
    basis = elastic_basis(M, degree)
    traces, _ = assemble_traces(problem, basis, quad)
    n = quad.n_samples
    scalar, vector = traces[:n], traces[n:].reshape(n, 3, -1).transpose(0, 2, 1)
    sw = np.sqrt(quad.weights)
    a = np.vstack([sw[:, None] * scalar, (sw[:, None, None] * vector).transpose(0, 2, 1).reshape(-1, scalar.shape[1])])
    b = np.concatenate([sw * data.scalar, (sw[:, None] * data.vector).reshape(-1)])
    col_norms = np.linalg.norm(a, axis=0)
    scales = np.where(col_norms > 0.0, col_norms, 1.0)
    u, sigma, vt = np.linalg.svd(a / scales, full_matrices=False)
    keep = sigma >= svd_tol * sigma[0] if sigma[0] > 0.0 else np.zeros(sigma.shape, dtype=bool)
    inv = np.zeros_like(sigma)
    inv[keep] = 1.0 / sigma[keep]
    c = (vt.T @ (inv * (u.T @ b))) / scales
    ds = scalar @ c - data.scalar
    dv = np.einsum("nej,e->nj", vector, c) - data.vector
    values = field_values(basis, quad.points)
    rotations = np.array([quad.weights @ np.einsum("nje,nj->ne", values, g) @ c for g in gammas])
    return int(np.count_nonzero(keep)), float(np.linalg.norm(a @ c - b)), max_misfit(ds, dv), rotations


def cases():
    for name, spec in SURFACES.items():
        for problem in ("III", "IV"):
            yield name, problem, "kelvin"
            if name != "triaxial":
                yield name, problem, "rotation"


@pytest.mark.parametrize("surface, problem, source", list(cases()))
def test_sweep_matches_direct_fit(surface, problem, source):
    spec = SURFACES[surface]
    quad = make_quadrature(spec, 16, 32)
    gammas = tangential_rotation_fields(classify_symmetry(spec), quad)
    if source == "kelvin":
        data, _ = kelvin_data(M, quad, POLES[surface], 1, problem)
    else:
        data = BoundaryData(problem, np.zeros(quad.n_samples), gammas[0])
    results = fit_degrees(data, elastic_basis(M, max(DEGREES)), quad, DEGREES,
                          rotation_fields=gammas or None)
    for degree, result in zip(DEGREES, results):
        rank, residual, worst, rotations = direct_fit(problem, data, quad, degree, gammas)
        tol = 1e-12 * result.data_norm
        assert result.kept_rank == rank, degree
        assert abs(result.residual_norm - residual) <= tol, degree
        assert abs(max_misfit(result.scalar_misfit, result.vector_misfit) - worst) <= tol, degree
        if gammas:
            np.testing.assert_allclose(result.rotation_components, rotations, rtol=0.0, atol=1e-12)
        else:
            assert result.rotation_components is None


def test_basis_of_lower_degree_is_a_prefix():
    top = elastic_basis(M, max(DEGREES))
    for k in DEGREES:
        assert elastic_basis(M, k).elements == top.elements[: 3 * (k + 1) ** 2]


def test_fit_degrees_rejects_degrees_outside_the_basis(sphere_quad):
    data = BoundaryData("IV", np.ones(sphere_quad.n_samples), np.zeros((sphere_quad.n_samples, 3)))
    basis = elastic_basis(M, 2)
    for degrees in [(), (3,), (-1, 2)]:
        with pytest.raises(ValueError, match="degrees must lie in 0..2"):
            fit_degrees(data, basis, sphere_quad, degrees)


def columns(row):
    return np.hstack([np.ravel(v) for v in dataclasses.astuple(row)])


@pytest.mark.parametrize("surface, problem, source", [
    ("triaxial", "III", KelvinSource(y0=(0.3, 0.2, 5.1), row=2)),
    ("spheroid", "IV", KelvinSource(y0=(0.0, 3.5, 1.0), row=1)),
    ("sphere", "III", RotationSource(index=1)),
])
def test_study_rows_do_not_depend_on_degree_order(surface, problem, source):
    def study(degrees):
        config = StudyConfig(material=M, surface=SURFACES[surface], problem=problem, degrees=degrees,
                             source=source, n_theta=16, n_phi=32)
        return {row.degree: row for row in run_study(config).rows}

    shuffled, ordered = study((5, 2, 8)), study((2, 5, 8))
    quad = make_quadrature(SURFACES[surface], 16, 32)
    gammas = tangential_rotation_fields(classify_symmetry(SURFACES[surface]), quad)
    if isinstance(source, KelvinSource):
        data, _ = kelvin_data(M, quad, source.y0, source.row, problem)
    else:
        data = BoundaryData(problem, np.zeros(quad.n_samples), gammas[source.index])
    for degree in (2, 5, 8):
        # equal field by field; NaN columns (no defect, no probe) compare equal
        np.testing.assert_array_equal(columns(shuffled[degree]), columns(ordered[degree]))
        row = ordered[degree]
        alone = fit(data, elastic_basis(M, degree), quad)
        tol = 1e-12 * row.data_norm
        assert row.kept_rank == alone.kept_rank
        assert abs(row.residual_l2 - alone.residual_norm) <= tol
        assert abs(row.residual_max - max_misfit(alone.scalar_misfit, alone.vector_misfit)) <= tol
