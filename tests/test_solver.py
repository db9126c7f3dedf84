import re

import numpy as np
import pytest

from elastopoly import (
    BoundaryData,
    Material,
    RigidDisplacement,
    classify_symmetry,
    compatibility_defect,
    elastic_basis,
    evaluate_solution,
    fit,
    fit_degrees,
    kelvin_data,
    tangential_rotation_fields,
    trace_III,
    trace_IV,
    traction,
)
from elastopoly.polyalg import VecPoly3, X, Y, Z
from elastopoly.solver import FitResult

rng = np.random.default_rng(99)
M = Material(1.0, 1.0)


# -- trace maps --------------------------------------------------------------------


def test_trace_III_of_tangential_rotation_vanishes(sphere_quad):
    p = RigidDisplacement(b=(0.0, 0.0, 1.0)).as_vecpoly()
    scalar, vector = trace_III(M, p, sphere_quad)
    assert np.max(np.abs(scalar)) <= 1e-14
    assert np.max(np.abs(vector)) <= 1e-14


def test_trace_III_of_radial_field(sphere_quad):
    scalar, vector = trace_III(M, VecPoly3(X, Y, Z), sphere_quad)
    assert np.allclose(scalar, 1.0, atol=1e-13)       # u.nu = |x|^2 = 1
    assert np.max(np.abs(vector)) <= 1e-13            # Tu = 5 nu is purely normal


def test_trace_III_vector_part_exactly_tangential(sphere_quad, basis_k4):
    for el in basis_k4.elements[:: len(basis_k4) // 8]:
        _, vector = trace_III(M, el.field, sphere_quad)
        tangency = np.abs(np.einsum("ni,ni->n", vector, sphere_quad.normals))
        assert np.max(tangency) <= 1e-13 * max(1.0, np.max(np.abs(vector)))


def test_trace_IV_examples(sphere_quad):
    vector, scalar = trace_IV(M, VecPoly3(X, Y, Z), sphere_quad)
    assert np.max(np.abs(vector)) <= 1e-13
    assert np.allclose(scalar, 5.0, atol=1e-12)

    e1 = VecPoly3.constant((1.0, 0.0, 0.0))
    vector, scalar = trace_IV(M, e1, sphere_quad)
    nu = sphere_quad.normals
    assert np.allclose(vector, np.array([1.0, 0.0, 0.0]) - nu[:, 0:1] * nu, atol=1e-14)
    assert np.max(np.abs(scalar)) == 0.0

    rot = RigidDisplacement(b=(1.0, 0.0, 0.0)).as_vecpoly()
    vector, scalar = trace_IV(M, rot, sphere_quad)
    assert np.allclose(vector, np.cross([1.0, 0.0, 0.0], sphere_quad.points), atol=1e-13)
    assert np.max(np.abs(scalar)) == 0.0


# -- fit ----------------------------------------------------------------------------


def test_fit_recovers_basis_element_data(sphere_quad):
    basis = elastic_basis(M, 3)
    for problem in ("III", "IV"):
        for idx in (5, 17, 40):
            el = basis.elements[idx].field
            if problem == "III":
                s, v = trace_III(M, el, sphere_quad)
                data = BoundaryData("III", s, v)
            else:
                v, s = trace_IV(M, el, sphere_quad)
                data = BoundaryData("IV", s, v)
            result = fit(data, basis, sphere_quad)
            assert result.residual_norm <= 1e-10 * max(result.data_norm, 1e-30)
            # recovered coefficients reproduce the element's trace pointwise
            ds, dv = result.scalar_misfit, result.vector_misfit
            scale = max(1.0, float(np.max(np.abs(data.vector))), float(np.max(np.abs(data.scalar))))
            assert max(np.max(np.abs(ds)), np.max(np.abs(dv))) <= 1e-9 * scale


def test_fit_rotation_data_has_unit_residual_floor(sphere_quad):
    gammas = tangential_rotation_fields(classify_symmetry(sphere_quad.spec), sphere_quad)
    data = BoundaryData("III", np.zeros(sphere_quad.n_samples), gammas[0])
    for K in (0, 3, 6):
        basis = elastic_basis(M, K)
        result = fit(data, basis, sphere_quad, rotation_fields=gammas)
        assert result.residual_norm == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(result.rotation_components)) <= 1e-10


def test_fit_kelvin_problem_iv_residual_decays(sphere_quad):
    data, _ = kelvin_data(M, sphere_quad, (0.0, 0.0, 3.0), 1, "IV")
    residuals = []
    for K in (2, 4, 6):
        result = fit(data, elastic_basis(M, K), sphere_quad)
        residuals.append(result.residual_norm)
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[2] <= 0.1 * residuals[0]


def test_fit_validates_inputs(sphere_quad):
    basis = elastic_basis(M, 1)
    n = sphere_quad.n_samples
    good = BoundaryData("IV", np.ones(n), np.zeros((n, 3)))
    with pytest.raises(ValueError):
        fit(BoundaryData("IV", np.ones(7), np.zeros((7, 3))), basis, sphere_quad)
    with pytest.raises(ValueError):
        fit(good, basis, sphere_quad, svd_tol=0.0)
    for weight in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="scalar_weight"):
            fit(good, basis, sphere_quad, scalar_weight=weight)
    assert fit(good, basis, sphere_quad, scalar_weight=0.0).kept_rank > 0


@pytest.mark.parametrize("problem", ["V", "iii", ""])
def test_boundary_data_rejects_unknown_problem(problem):
    with pytest.raises(ValueError, match=re.escape(f"problem must be 'III' or 'IV', got {problem!r}")):
        BoundaryData(problem, np.zeros(4), np.zeros((4, 3)))


def test_boundary_data_shape_errors_use_the_paper_names():
    with pytest.raises(ValueError, match=re.escape("phi must be (N,) and Phi (N, 3)")):
        BoundaryData("III", np.zeros(5), np.zeros((4, 3)))
    with pytest.raises(ValueError, match=re.escape("psi must be (N,) and Psi (N, 3)")):
        BoundaryData("IV", np.zeros((5, 1)), np.zeros((5, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_boundary_data_rejects_non_finite_values(bad):
    phi, vec = np.zeros(5), np.zeros((5, 3))
    vec[2, 1] = bad
    with pytest.raises(ValueError, match="Phi has 1 non-finite"):
        BoundaryData("III", phi, vec)
    with pytest.raises(ValueError, match="Psi has 1 non-finite"):
        BoundaryData("IV", phi, vec)
    phi[0] = bad
    with pytest.raises(ValueError, match="phi has 1 non-finite"):
        BoundaryData("III", phi, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="psi has 1 non-finite"):
        BoundaryData("IV", phi, np.zeros((5, 3)))


def test_fit_rejects_non_tangential_data(sphere_quad):
    n = sphere_quad.n_samples
    bad = BoundaryData("III", np.zeros(n), 1e-3 * sphere_quad.normals)
    with pytest.raises(ValueError, match="tangential"):
        fit(bad, elastic_basis(M, 1), sphere_quad)
    # explicit projection flag accepts and projects the same data
    result = fit(bad, elastic_basis(M, 1), sphere_quad, project_tangential=True)
    assert result.residual_norm <= 1e-10


def test_fit_scaling_equivariance(sphere_quad):
    data, _ = kelvin_data(M, sphere_quad, (0.0, 0.0, 3.0), 2, "IV")
    basis = elastic_basis(M, 3)
    r1 = fit(data, basis, sphere_quad)
    t = 37.5
    scaled = BoundaryData("IV", t * data.scalar, t * data.vector)
    r2 = fit(scaled, basis, sphere_quad)
    assert r2.residual_norm == pytest.approx(t * r1.residual_norm, rel=1e-10)
    drift = np.linalg.norm(r2.coefficients - t * r1.coefficients)
    assert drift <= 1e-9 * np.linalg.norm(t * r1.coefficients)


def test_fit_residual_monotone_in_degree(triaxial_quad):
    data, _ = kelvin_data(M, triaxial_quad, (0.0, 0.0, 5.1), 1, "III")
    prev = np.inf
    for K in range(2, 6):
        result = fit(data, elastic_basis(M, K), triaxial_quad)
        assert result.residual_norm <= prev * (1.0 + 1e-9) + 1e-14 * result.data_norm
        prev = result.residual_norm


def test_fit_reports_spectrum_and_rank(sphere_quad):
    data, _ = kelvin_data(M, sphere_quad, (0.0, 0.0, 3.0), 1, "III")
    basis = elastic_basis(M, 4)
    result = fit(data, basis, sphere_quad)
    assert result.singular_values.shape == (len(basis),)
    assert np.all(np.diff(result.singular_values) <= 0)
    # the three tangential rotations give zero trace columns on the sphere
    assert result.kept_rank == len(basis) - 3
    assert result.residual_norm <= result.data_norm


# -- compatibility defects -----------------------------------------------------------


def test_defect_of_rotation_data_is_unit(sphere_quad):
    gammas = tangential_rotation_fields(classify_symmetry(sphere_quad.spec), sphere_quad)
    data = BoundaryData("III", np.zeros(sphere_quad.n_samples), gammas[0])
    defects = compatibility_defect(data, gammas, sphere_quad)
    assert np.allclose(defects, [1.0, 0.0, 0.0], atol=1e-10)


def test_defects_of_basis_traces_vanish(sphere_quad, spheroid_quad, basis_k4):
    # span-orthogonality: the quantitative form of "the system is contained
    # in the compatible subspace" on sphere and spheroid alike
    for quad in (sphere_quad, spheroid_quad):
        gammas = tangential_rotation_fields(classify_symmetry(quad.spec), quad)
        for el in basis_k4.elements[:: len(basis_k4) // 10]:
            scalar, vector = trace_III(M, el.field, quad)
            data = BoundaryData("III", scalar, vector)
            scale = max(1.0, quad.norm(vector))
            for d in compatibility_defect(data, gammas, quad):
                assert abs(d) <= 1e-8 * scale


def test_residual_floor_bounded_by_defects(sphere_quad, spheroid_quad):
    # residual^2 >= sum defects^2 - 1e-6 for problem III on symmetric surfaces
    for quad in (sphere_quad, spheroid_quad):
        gammas = tangential_rotation_fields(classify_symmetry(quad.spec), quad)
        basis = elastic_basis(M, 3)
        el = basis.elements[14].field
        scalar, vector = trace_III(M, el, quad)
        mix = 0.6 * gammas[0] + (0.3 * gammas[1] if len(gammas) > 1 else 0.0) + 0.5 * vector
        data = BoundaryData("III", 0.5 * scalar, mix)
        defects = compatibility_defect(data, gammas, quad)
        for K in (1, 3):
            result = fit(data, elastic_basis(M, K), quad)
            assert result.residual_norm**2 >= sum(d**2 for d in defects) - 1e-6


def test_defects_empty_on_generic_surface(triaxial_quad):
    gammas = tangential_rotation_fields(classify_symmetry(triaxial_quad.spec), triaxial_quad)
    data = BoundaryData("III", np.zeros(triaxial_quad.n_samples), np.zeros((triaxial_quad.n_samples, 3)))
    assert compatibility_defect(data, gammas, triaxial_quad) == []


# -- interior evaluation ---------------------------------------------------------------


def test_evaluate_solution_reproduces_polynomial_data(sphere_quad):
    basis = elastic_basis(M, 3)
    el = basis.elements[30].field
    v, s = trace_IV(M, el, sphere_quad)
    result = fit(BoundaryData("IV", s, v), basis, sphere_quad)
    pts = rng.uniform(-0.5, 0.5, size=(10, 3))
    disp, stress = evaluate_solution(result, basis, pts)
    exact = el.eval(pts)
    assert np.max(np.abs(disp - exact)) <= 1e-9 * max(1.0, np.max(np.abs(exact)))


def test_evaluate_solution_of_a_lower_degree_fit(sphere_quad):
    """A fit through degree 1 of a sweep evaluates on the K=3 basis as on
    the K=1 basis: only the matching degree prefix is evaluated."""
    data, _ = kelvin_data(M, sphere_quad, (0.4, -0.3, 2.5), 2, "IV")
    basis = elastic_basis(M, 3)
    result = fit_degrees(data, basis, sphere_quad, (1, 3))[0]
    pts = rng.uniform(-0.5, 0.5, size=(10, 3))
    disp, stress = evaluate_solution(result, basis, pts)
    low_disp, low_stress = evaluate_solution(result, elastic_basis(M, 1), pts)
    np.testing.assert_array_equal(disp, low_disp)
    np.testing.assert_array_equal(stress, low_stress)


@pytest.mark.parametrize("n_coeffs", [0, 13, 47, 75])
def test_evaluate_solution_rejects_coefficients_of_no_degree_prefix(n_coeffs):
    basis = elastic_basis(M, 3)
    result = FitResult(
        problem="IV", coefficients=np.ones(n_coeffs), residual_norm=0.0, data_norm=1.0,
        kept_rank=n_coeffs, singular_values=np.ones(n_coeffs), svd_tol=1e-12,
    )
    with pytest.raises(ValueError, match=f"^{n_coeffs} coefficients .* 48-element basis"):
        evaluate_solution(result, basis, np.zeros((2, 3)))


def test_stress_is_symmetric_and_consistent_with_traction(sphere_quad):
    basis = elastic_basis(M, 2)
    coeffs = rng.uniform(-1, 1, size=len(basis))
    result = FitResult(
        problem="IV", coefficients=coeffs, residual_norm=0.0, data_norm=1.0,
        kept_rank=len(basis), singular_values=np.ones(len(basis)), svd_tol=1e-12,
    )
    disp, stress = evaluate_solution(result, basis, sphere_quad.points[:50])
    assert np.allclose(stress, np.swapaxes(stress, 1, 2), atol=0.0)  # exactly symmetric
    combined = VecPoly3.zero()
    for c, el in zip(coeffs, basis.elements):
        combined = combined + float(c) * el.field
    t_direct = traction(M, combined, sphere_quad.points[:50], sphere_quad.normals[:50])
    t_stress = np.einsum("nij,nj->ni", stress, sphere_quad.normals[:50])
    assert np.allclose(t_stress, t_direct, atol=1e-12)
