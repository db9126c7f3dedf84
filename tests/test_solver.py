import re

import numpy as np
import pytest

from elastopoly import (
    BoundaryData,
    Material,
    RigidDisplacement,
    Sphere,
    SurfaceQuadrature,
    compatibility_defect,
    elastic_basis,
    evaluate_solution,
    fit,
    fit_degrees,
    kelvin_data,
    trace_III,
    trace_IV,
    traction,
)
from elastopoly.polyalg import Poly3, VecPoly3
from elastopoly.ioutil import fmt17
from elastopoly.solver import FitResult, fit_result_json, misfit_csv

rng = np.random.default_rng(99)
M = Material(1.0, 1.0)


# -- trace maps --------------------------------------------------------------------


def test_trace_III_of_tangential_rotation_vanishes(sphere_quad):
    p = RigidDisplacement(b=(0.0, 0.0, 1.0)).as_vecpoly()
    scalar, vector = trace_III(M, p, sphere_quad)
    assert np.max(np.abs(scalar)) <= 1e-14
    assert np.max(np.abs(vector)) <= 1e-14


def test_trace_III_of_radial_field(sphere_quad):
    scalar, vector = trace_III(M, VecPoly3(*map(Poly3.variable, (1, 2, 3))), sphere_quad)
    assert np.allclose(scalar, 1.0, atol=1e-13)       # u.nu = |x|^2 = 1
    assert np.max(np.abs(vector)) <= 1e-13            # Tu = 5 nu is purely normal


def test_trace_III_vector_part_exactly_tangential(sphere_quad, basis_k4):
    for el in basis_k4.elements[:: len(basis_k4) // 8]:
        _, vector = trace_III(M, el.field, sphere_quad)
        tangency = np.abs(np.einsum("ni,ni->n", vector, sphere_quad.normals))
        assert np.max(tangency) <= 1e-13 * max(1.0, np.max(np.abs(vector)))


def test_trace_IV_examples(sphere_quad):
    vector, scalar = trace_IV(M, VecPoly3(*map(Poly3.variable, (1, 2, 3))), sphere_quad)
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
    data = BoundaryData("III", np.zeros(sphere_quad.n_samples), sphere_quad.rotation_fields[0])
    for K in (0, 3, 6):
        basis = elastic_basis(M, K)
        result = fit(data, basis, sphere_quad)
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


@pytest.mark.parametrize("problem", ["III", "IV"])
def test_normal_part_of_the_data_enters_residual_and_data_norm(problem, triaxial_quad):
    # the traces have no normal part, so a normal component delta of the data
    # adds ||sqrt(w) delta|| in quadrature to the residual and the data norm;
    # at 1e-6 times the Kelvin data, a delta under the tangency tolerance
    # (1e-8, the scale being floored at 1) is a visible share of both
    quad, basis = triaxial_quad, elastic_basis(M, 4)
    kelvin, _ = kelvin_data(M, quad, (0.4, -0.3, 5.1), 2, problem)
    clean = BoundaryData(problem, 1e-6 * kelvin.scalar, 1e-6 * kelvin.vector)
    delta = 0.9e-8 * rng.uniform(-1.0, 1.0, quad.n_samples)
    noisy = BoundaryData(problem, clean.scalar, clean.vector + delta[:, None] * quad.normals)
    reference, normal_norm = fit(clean, basis, quad), quad.norm(delta)
    result = fit(noisy, basis, quad)  # delta passes the tangency check
    assert abs(result.residual_norm - np.hypot(reference.residual_norm, normal_norm)) <= 1e-12 * result.residual_norm
    assert abs(result.data_norm - np.hypot(reference.data_norm, normal_norm)) <= 1e-12 * result.data_norm
    assert result.data_norm - reference.data_norm > 1e-3 * reference.data_norm  # delta is seen
    projected = fit(noisy, basis, quad, project_tangential=True)
    for other in (result, projected):
        assert np.linalg.norm(other.coefficients - reference.coefficients) <= 1e-12 * np.linalg.norm(reference.coefficients)
    assert abs(projected.residual_norm - reference.residual_norm) <= 1e-12 * reference.residual_norm


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
    rotation = sphere_quad.rotation_fields[0]
    data = BoundaryData("III", np.zeros(sphere_quad.n_samples), rotation)
    defects = compatibility_defect(data, sphere_quad)
    assert np.allclose(defects, [1.0, 0.0, 0.0], atol=1e-10)
    # the rotations constrain only problem III: problem-IV data has no defects
    assert compatibility_defect(BoundaryData("IV", np.zeros(sphere_quad.n_samples), rotation), sphere_quad) == []


def test_defects_of_basis_traces_vanish(sphere_quad, spheroid_quad, basis_k4):
    # span-orthogonality: the quantitative form of "the system is contained
    # in the compatible subspace" on sphere and spheroid alike
    for quad in (sphere_quad, spheroid_quad):
        for el in basis_k4.elements[:: len(basis_k4) // 10]:
            scalar, vector = trace_III(M, el.field, quad)
            data = BoundaryData("III", scalar, vector)
            scale = max(1.0, quad.norm(vector))
            for d in compatibility_defect(data, quad):
                assert abs(d) <= 1e-8 * scale


def test_residual_floor_bounded_by_defects(sphere_quad, spheroid_quad):
    # residual^2 >= sum defects^2 - 1e-6 for problem III on symmetric surfaces
    for quad in (sphere_quad, spheroid_quad):
        gammas = quad.rotation_fields
        basis = elastic_basis(M, 3)
        el = basis.elements[14].field
        scalar, vector = trace_III(M, el, quad)
        mix = 0.6 * gammas[0] + (0.3 * gammas[1] if len(gammas) > 1 else 0.0) + 0.5 * vector
        data = BoundaryData("III", 0.5 * scalar, mix)
        defects = compatibility_defect(data, quad)
        for K in (1, 3):
            result = fit(data, elastic_basis(M, K), quad)
            assert result.residual_norm**2 >= sum(d**2 for d in defects) - 1e-6


def test_defects_empty_on_generic_surface(triaxial_quad):
    data = BoundaryData("III", np.zeros(triaxial_quad.n_samples), np.zeros((triaxial_quad.n_samples, 3)))
    assert compatibility_defect(data, triaxial_quad) == []


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


def test_evaluate_solution_keeps_the_leading_shape_of_the_points(sphere_quad):
    # a (2, 5, 3) batch gives the flat (10, 3) and (10, 3, 3) results reshaped, bitwise;
    # one (3,) point gives row 0 of a (1, 3) batch
    data, _ = kelvin_data(M, sphere_quad, (0.4, -0.3, 2.5), 2, "IV")
    basis = elastic_basis(M, 2)
    result = fit(data, basis, sphere_quad)
    pts = rng.uniform(-0.5, 0.5, size=(10, 3))
    disp, stress = evaluate_solution(result, basis, pts)
    batch_disp, batch_stress = evaluate_solution(result, basis, pts.reshape(2, 5, 3))
    np.testing.assert_array_equal(batch_disp, disp.reshape(2, 5, 3), strict=True)
    np.testing.assert_array_equal(batch_stress, stress.reshape(2, 5, 3, 3), strict=True)
    one_disp, one_stress = evaluate_solution(result, basis, pts[0])
    row_disp, row_stress = evaluate_solution(result, basis, pts[:1])
    np.testing.assert_array_equal(one_disp, row_disp[0], strict=True)
    np.testing.assert_array_equal(one_stress, row_stress[0], strict=True)


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


# -- reports ------------------------------------------------------------------------


def test_csv_reports_match_the_fmt17_join():
    # one %-format per row gives the bytes of the per-value fmt17 join,
    # signed zeros, subnormals, huge values and negative exponents included
    special = [-0.0, 5e-324, 1e308, -1.25e-7, 3.0e-300, -2.5e-17, 1.0 / 3.0, -1e308, 0.1, 7.0]
    table = np.array([np.roll(special, k)[:8] for k in range(len(special))])
    quad = SurfaceQuadrature(Sphere(), table[:, :3], table[:, 3:6], table[:, 6])
    result = FitResult(
        problem="IV", coefficients=np.zeros(3), residual_norm=0.0, data_norm=1.0, kept_rank=3,
        singular_values=np.ones(3), svd_tol=1e-12, scalar_misfit=table[:, 4], vector_misfit=table[:, 5:8],
    )

    def joined(header, columns):
        return "\n".join([header, *(",".join(fmt17(v) for v in row) for row in np.column_stack(columns))]) + "\n"

    assert quad.to_csv() == joined("x,y,z,nx,ny,nz,w", [quad.points, quad.normals, quad.weights])
    assert misfit_csv(result, quad) == joined(
        "x,y,z,w,scalar_misfit,vec_misfit_x,vec_misfit_y,vec_misfit_z",
        [quad.points, quad.weights, result.scalar_misfit, result.vector_misfit],
    )
    assert "-0," in quad.to_csv() and "4.9406564584124654e-324" in quad.to_csv()


@pytest.mark.parametrize("rotations, tail", [
    (None, ""),
    (np.array([0.25, -0.0, 1e-300]), ', "rotation_components": [0.25, -0, 1e-300]'),
], ids=["no-rotations", "rotations"])
def test_fit_json_is_written_literally(rotations, tail):
    # the keys in this order, 17-digit floats, integers without a point; the misfits stay out
    result = FitResult(
        problem="III", residual_norm=0.1, data_norm=2.0, kept_rank=3, svd_tol=1e-12,
        coefficients=np.array([1.0, -0.0, 1.0 / 3.0]), singular_values=np.array([3.0, 2.5e-17, 0.0]),
        rotation_components=rotations, scalar_misfit=np.zeros(2), vector_misfit=np.zeros((2, 3)),
    )
    assert fit_result_json(result) == (
        '{"problem": "III", "residual_norm": 0.10000000000000001, "data_norm": 2, "kept_rank": 3, '
        '"svd_tol": 9.9999999999999998e-13, "coefficients": [1, -0, 0.33333333333333331], '
        '"singular_values": [3, 2.4999999999999999e-17, 0]' + tail + '}\n'
    )
