"""The chunked, degree-blocked trace assembly and field evaluation against the
full-table path they replaced, written out here as the reference: one
`batch_eval` of all 12 E polynomials at every sample, the Hooke contraction as
two einsums, and the III/IV split as einsum projections."""

import numpy as np
import pytest

from elastopoly import (
    Ellipsoid,
    Material,
    RigidDisplacement,
    Sphere,
    classify_symmetry,
    elastic_basis,
    fit,
    kelvin_data,
    kelvin_gradient,
    make_quadrature,
    tangential_rotation_fields,
)
from elastopoly.operators import KelvinParams, traction_of_gradient
from elastopoly.polyalg import batch_eval
from elastopoly.solver import CHUNK_POINTS, assemble_traces, evaluate_solution, trace_III, trace_IV

M = Material(1.3, 0.8)
SURFACES = {
    "sphere": Sphere(),
    "spheroid": Ellipsoid(semi_axes=(1.0, 1.0, 1.5)),
    "triaxial": Ellipsoid(semi_axes=(1.0, 1.3, 1.7)),
}
# (n_theta, n_phi): one partial chunk, and one chunk plus a partial one
SMALL, RAGGED = (6, 12), (12, 26)
assert 6 * 12 < CHUNK_POINTS < 12 * 26 < 2 * CHUNK_POINTS
rng = np.random.default_rng(55)


def unit_normals(*shape):
    nu = rng.normal(size=(*shape, 3))
    return nu / np.linalg.norm(nu, axis=-1, keepdims=True)


def old_values_and_gradients(fields, points):
    """Values (N, E, 3) and gradients (N, E, 3, 3), grad[..., a, j] = d v_j / d x_a."""
    polys = [p for v in fields for p in (*v.components, *v.jacobian())]
    table = batch_eval(polys, points).reshape(len(points), len(fields), 12)
    return table[:, :, :3], table[:, :, 3:].reshape(len(points), len(fields), 3, 3)


def old_traction(grad, normals):
    t = np.einsum("...ab,...a->...b", grad, normals)
    t += np.einsum("...ab,...b->...a", grad, normals)
    t *= M.mu
    t += M.lam * np.trace(grad, axis1=-2, axis2=-1)[..., None] * normals
    return t


def old_traces(problem, fields, quad, gammas=()):
    """Row-stacked T (4N, E) and the rotation projections of the full-table path."""
    values, grads = old_values_and_gradients(fields, quad.points)
    nu = quad.normals[:, None, :]
    t = old_traction(grads, nu)
    scalar, full = (values, t) if problem == "III" else (t, values)
    scalar = np.einsum("...j,...j->...", scalar, nu)
    vector = full - np.einsum("...j,...j->...", full, nu)[..., None] * nu
    rows = np.vstack([scalar, vector.transpose(0, 2, 1).reshape(-1, len(fields))])
    projections = np.array([quad.weights @ np.einsum("nej,nj->ne", values, g) for g in gammas])
    return rows, projections.reshape(len(gammas), len(fields))


def assert_blocks_close(new, old, degree, rtol=1e-12):
    """Each degree block of columns within rtol of its largest entry.  (Single
    columns can vanish to round-off, e.g. the III scalar trace of a rotation
    on the sphere.)"""
    for cols in [slice(3 * k * k, 3 * (k + 1) ** 2) for k in range(degree + 1)]:
        err, scale = np.max(np.abs(new[:, cols] - old[:, cols])), np.max(np.abs(old[:, cols]))
        assert err <= rtol * scale, (cols, err / scale)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("size, degree", [(RAGGED, 12), (SMALL, 6)])
def test_chunked_traces_match_full_table(surface, size, degree):
    quad = make_quadrature(SURFACES[surface], *size)
    basis = elastic_basis(M, degree)
    fields = [el.field for el in basis]
    gammas = tangential_rotation_fields(classify_symmetry(SURFACES[surface]), quad)
    for problem in ("III", "IV"):
        traces, projections = assemble_traces(problem, basis, quad, gammas)
        expected, expected_projections = old_traces(problem, fields, quad, gammas)
        assert traces.shape == (4 * quad.n_samples, len(fields))
        assert_blocks_close(traces, expected, degree)
        assert projections.shape == (len(gammas), len(fields))
        np.testing.assert_allclose(projections, expected_projections, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(expected_projections), initial=0.0))


@pytest.mark.parametrize("surface", SURFACES)
def test_single_field_traces_match_assembly_columns(surface):
    """trace_III/trace_IV sample one field through `traction` and
    `split_trace`; the assembly reads the degree blocks from the basis layout."""
    quad = make_quadrature(SURFACES[surface], *RAGGED)
    basis = elastic_basis(M, 4)
    n = quad.n_samples
    for problem in ("III", "IV"):
        traces, _ = assemble_traces(problem, basis, quad)
        single = np.empty_like(traces)
        for e, el in enumerate(basis):
            if problem == "III":
                scalar, vector = trace_III(M, el.field, quad)
            else:
                vector, scalar = trace_IV(M, el.field, quad)
            single[:n, e], single[n:, e] = scalar, vector.reshape(-1)
        assert_blocks_close(single, traces, basis.max_degree)


def test_non_homogeneous_fields_between_degree_blocks():
    """A field of degrees 0 and 1 goes through the single-field sampler."""
    quad = make_quadrature(SURFACES["triaxial"], *RAGGED)
    rigid = RigidDisplacement(a=(0.3, -1.2, 0.7), b=(0.5, 0.25, -1.0), x0=(0.1, 0.0, -0.2)).as_vecpoly()
    vector, scalar = trace_IV(M, rigid, quad)
    u = rigid.eval(quad.points)
    u_n = np.einsum("ni,ni->n", u, quad.normals)
    assert np.max(np.abs(scalar)) <= 1e-13  # a rigid field carries no traction
    assert np.max(np.abs(vector - (u - u_n[:, None] * quad.normals))) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("n_points", [1, 37, CHUNK_POINTS + 44])
def test_evaluate_solution_matches_full_table(n_points, sphere_quad):
    basis = elastic_basis(M, 6)
    data, _ = kelvin_data(M, sphere_quad, (0.4, -0.3, 2.5), 2, "IV")
    result = fit(data, basis, sphere_quad)
    pts = rng.uniform(-0.6, 0.6, size=(n_points, 3))
    values, grads = old_values_and_gradients([el.field for el in basis], pts)
    c = result.coefficients
    g = np.einsum("meaj,e->maj", grads, c)
    div = np.trace(g, axis1=1, axis2=2)
    expected_stress = M.lam * div[:, None, None] * np.eye(3) + M.mu * (g + np.swapaxes(g, 1, 2))
    expected_disp = np.einsum("mej,e->mj", values, c)
    disp, stress = evaluate_solution(result, basis, pts)
    assert disp.shape == (n_points, 3) and stress.shape == (n_points, 3, 3)
    assert np.max(np.abs(disp - expected_disp)) <= 1e-12 * np.max(np.abs(expected_disp))
    assert np.max(np.abs(stress - expected_stress)) <= 1e-12 * np.max(np.abs(expected_stress))


@pytest.mark.parametrize("grad, normals", [
    (rng.normal(size=(30, 3, 3, 3)), unit_normals(30, 1)),  # rows i broadcast against one normal
    (-kelvin_gradient(KelvinParams(M), rng.normal(size=(25, 3)) + 3.0), unit_normals(25, 1)),  # Kelvin kernel
    (rng.normal(size=(3, 3)), unit_normals()),              # a single point
    (rng.normal(size=(12, 1, 3, 3)), np.eye(3)),            # stress rows sigma e_k
    (rng.normal(size=(3, 3, 7, 30)).transpose(2, 3, 0, 1), unit_normals(30)),  # the assembly's strided view
])
def test_traction_of_gradient_matches_einsum_formula(grad, normals):
    expected = old_traction(grad, normals)
    t = traction_of_gradient(M, grad, normals)
    assert t.shape == expected.shape
    assert np.max(np.abs(t - expected)) <= 1e-14 * np.max(np.abs(expected))
