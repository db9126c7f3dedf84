"""The shared Hooke contraction, III/IV split, single-assembly fit and
star-surface radius against the formulas they replaced, written out here as
the reference."""

import numpy as np
import pytest

from elastopoly import (
    Material,
    StarShaped,
    classify_symmetry,
    elastic_basis,
    fit,
    kelvin_data,
    make_quadrature,
    radial_function,
    solid_harmonics,
    tangential_rotation_fields,
)
from elastopoly.operators import traction_of_gradient
from elastopoly.polyalg import VecPoly3, batch_eval, gradient
from elastopoly.solver import assemble_traces, evaluate_solution, split_trace

rng = np.random.default_rng(2024)
M = Material(1.3, 0.8)


def unit_normals(n):
    nu = rng.normal(size=(n, 3))
    return nu / np.linalg.norm(nu, axis=1)[:, None]


def test_traction_of_gradient_matches_symmetrized_strain_formula():
    g = rng.normal(size=(40, 5, 3, 3))
    nu = unit_normals(40)
    div = np.trace(g, axis1=2, axis2=3)
    strain2 = g + np.swapaxes(g, 2, 3)
    old = M.lam * div[:, :, None] * nu[:, None, :] + M.mu * np.einsum("neaj,na->nej", strain2, nu)
    for grad in (g, np.swapaxes(g, 2, 3)):  # either index convention
        assert np.allclose(traction_of_gradient(M, grad, nu[:, None, :]), old, rtol=0.0, atol=1e-14)


def test_split_trace_matches_explicit_projections():
    u, t, nu = rng.normal(size=(30, 3)), rng.normal(size=(30, 3)), unit_normals(30)
    u_n = np.einsum("ni,ni->n", u, nu)
    t_n = np.einsum("ni,ni->n", t, nu)
    scalar, vector = split_trace("III", u, t, nu)
    assert np.allclose(scalar, u_n, rtol=0.0, atol=1e-15)
    assert np.allclose(vector, t - t_n[:, None] * nu, rtol=0.0, atol=1e-15)
    scalar, vector = split_trace("IV", u, t, nu)
    assert np.allclose(scalar, t_n, rtol=0.0, atol=1e-15)
    assert np.allclose(vector, u - u_n[:, None] * nu, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="III"):
        split_trace("V", u, t, nu)


def test_evaluate_solution_stress_matches_lame_formula(sphere_quad):
    basis = elastic_basis(M, 3)
    data, _ = kelvin_data(M, sphere_quad, (0.4, -0.3, 2.5), 2, "IV")
    result = fit(data, basis, sphere_quad)
    pts = rng.uniform(-0.5, 0.5, size=(12, 3))
    combined = VecPoly3.zero()
    for c, el in zip(result.coefficients, basis.elements):
        combined = combined + float(c) * el.field
    g = batch_eval([combined[j].diff(a + 1) for a in range(3) for j in range(3)], pts).reshape(-1, 3, 3)
    div = np.trace(g, axis1=1, axis2=2)
    expected = M.lam * div[:, None, None] * np.eye(3) + M.mu * (g + np.swapaxes(g, 1, 2))
    disp, stress = evaluate_solution(result, basis, pts)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(stress - expected)) <= 1e-12 * scale
    assert np.max(np.abs(disp - combined.eval(pts))) <= 1e-12 * np.max(np.abs(disp))


@pytest.mark.parametrize("problem", ["III", "IV"])
def test_stored_misfits_match_fresh_assembly(problem, triaxial_quad):
    basis = elastic_basis(M, 4)
    data, _ = kelvin_data(M, triaxial_quad, (0.0, 0.0, 5.1), 1, problem)
    assert data.problem == problem
    result = fit(data, basis, triaxial_quad)
    traces, _ = assemble_traces(problem, basis, triaxial_quad)
    n = triaxial_quad.n_samples
    scalar, vector = traces[:n], traces[n:].reshape(n, 3, -1).transpose(0, 2, 1)
    ds = scalar @ result.coefficients - data.scalar
    dv = np.einsum("nej,e->nj", vector, result.coefficients) - data.vector
    assert result.scalar_misfit.shape == ds.shape and result.vector_misfit.shape == dv.shape
    scale = max(np.max(np.abs(data.scalar)), np.max(np.abs(data.vector)))
    assert np.max(np.abs(result.scalar_misfit - ds)) <= 1e-13 * scale
    assert np.max(np.abs(result.vector_misfit - dv)) <= 1e-13 * scale
    assert "scalar_misfit" not in result.to_dict() and "vector_misfit" not in result.to_dict()


def test_rotation_components_match_projection_of_fitted_displacement(spheroid_quad):
    basis = elastic_basis(M, 3)
    gammas = tangential_rotation_fields(classify_symmetry(spheroid_quad.spec), spheroid_quad)
    data, _ = kelvin_data(M, spheroid_quad, (0.5, 0.2, 3.0), 3, "III")
    result = fit(data, basis, spheroid_quad, rotation_fields=gammas)
    disp, _ = evaluate_solution(result, basis, spheroid_quad.points)
    expected = [spheroid_quad.inner(disp, g) for g in gammas]
    assert np.allclose(result.rotation_components, expected, rtol=0.0, atol=1e-14 * spheroid_quad.norm(disp))


@pytest.mark.parametrize("coeffs", [
    ((0, 1, 3.0), (2, 3, 0.3), (3, 2, 0.1), (1, 1, 0.2)),
    ((0, 1, 2.0), (2, 3, 0.3), (4, 5, 0.05), (2, 3, -0.1)),  # a repeated harmonic
])
def test_star_radius_matches_per_harmonic_sum(coeffs):
    spec = StarShaped(center=(0.1, 0.0, -0.1), coeffs=coeffs)
    quad = make_quadrature(spec, 12, 24)
    # the old path: r and grad r as coefficient sums of per-harmonic values,
    # on the theta-major grid of directions u with its angular tangents
    t, wt = np.polynomial.legendre.leggauss(12)
    st, ct = np.repeat(np.sqrt(1.0 - t**2), 24), np.repeat(t, 24)
    phi = np.tile(2.0 * np.pi * np.arange(24) / 24, 12)
    u = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)
    u_th = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=1)
    u_ph = np.stack([-st * np.sin(phi), st * np.cos(phi), np.zeros_like(st)], axis=1)
    polys = [solid_harmonics(k)[s - 1] for k, s, _ in coeffs]
    cvec = np.array([c for _, _, c in coeffs])
    r = batch_eval(polys, u) @ cvec
    grads = [gradient(p) for p in polys]
    gvals = np.stack([batch_eval([g[a] for g in grads], u) @ cvec for a in range(3)], axis=1)
    x_th = np.einsum("ni,ni->n", gvals, u_th)[:, None] * u + r[:, None] * u_th
    x_ph = np.einsum("ni,ni->n", gvals, u_ph)[:, None] * u + r[:, None] * u_ph
    cross = np.cross(x_th, x_ph)
    jac = np.linalg.norm(cross, axis=1)

    assert np.allclose(radial_function(spec, u), r, rtol=1e-13, atol=0.0)
    points = np.asarray(spec.center) + r[:, None] * u
    assert np.max(np.abs(quad.points - points)) <= 1e-13 * np.max(np.abs(points))
    assert np.max(np.abs(quad.normals - cross / jac[:, None])) <= 1e-13
    assert np.allclose(quad.weights, np.repeat(wt, 24) * (2.0 * np.pi / 24) * jac / st, rtol=1e-13, atol=0.0)
