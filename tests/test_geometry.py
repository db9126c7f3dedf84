import numpy as np
import pytest

from elastopoly import (
    Ellipsoid,
    Sphere,
    StarShaped,
    SurfaceQuadrature,
    classify_symmetry,
    make_quadrature,
    radial_function,
)
from elastopoly.polyalg import Poly3

BUMPY = StarShaped(coeffs=((0, 1, 1.0), (2, 2, 0.15), (3, 4, 0.1)))
BUMPY_AXI = StarShaped(coeffs=((0, 1, 1.0), (2, 1, 0.2)), axis=(0.0, 0.0, 1.0))


# -- quadrature -------------------------------------------------------------------


def test_unit_sphere_total_weight(sphere_quad):
    assert abs(sphere_quad.area - 4.0 * np.pi) <= 1e-10


def test_closed_surface_normal_integral_vanishes(sphere_quad, triaxial_quad):
    for quad in (sphere_quad, triaxial_quad):
        closure = np.linalg.norm(quad.weights @ quad.normals)
        assert closure <= 1e-10 * quad.area


def test_degenerate_ellipsoid_equals_sphere(sphere_quad):
    quad = make_quadrature(Ellipsoid(semi_axes=(1.0, 1.0, 1.0)), 32, 64)
    assert np.allclose(quad.points, sphere_quad.points, atol=1e-14)
    assert np.allclose(quad.normals, sphere_quad.normals, atol=1e-13)
    assert np.allclose(quad.weights, sphere_quad.weights, rtol=1e-12)


def test_star_shaped_sphere_recovers_area():
    quad = make_quadrature(StarShaped(coeffs=((0, 1, 2.0),)), 16, 32)
    assert abs(quad.area - 4.0 * np.pi * 4.0) <= 1e-9


@pytest.mark.parametrize("spec", [Sphere(), Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), BUMPY])
def test_quadrature_spectral_convergence_on_degree4_trace(spec):
    # fixed degree-4 polynomial integrand against an n = 96 reference
    f = Poly3({(4, 0, 0): 0.3, (2, 2, 0): -1.0, (0, 1, 3): 0.7, (1, 1, 1): 0.4, (0, 0, 0): 0.2})
    coarse = make_quadrature(spec, 32, 64)
    fine = make_quadrature(spec, 96, 192)
    val32 = coarse.weights @ f.eval(coarse.points)
    val96 = fine.weights @ f.eval(fine.points)
    assert abs(val32 - val96) <= 1e-10 * abs(val96) + 1e-14


def test_normals_are_outward_and_unit(triaxial_quad):
    norms = np.linalg.norm(triaxial_quad.normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-13
    rel = triaxial_quad.points - np.zeros(3)
    assert np.min(np.einsum("ni,ni->n", rel, triaxial_quad.normals)) > 0.0


def test_star_quadrature_area_convergence():
    coarse = make_quadrature(BUMPY, 32, 64)
    fine = make_quadrature(BUMPY, 96, 192)
    assert abs(coarse.area - fine.area) <= 1e-10 * fine.area


def test_resolution_validation():
    with pytest.raises(ValueError):
        make_quadrature(Sphere(), 3, 64)
    with pytest.raises(ValueError):
        make_quadrature(Sphere(), 32, 7)


def test_nonpositive_radial_rejected():
    spec = StarShaped(coeffs=((0, 1, 0.1), (1, 1, 1.0)))  # goes negative
    with pytest.raises(ValueError):
        make_quadrature(spec, 16, 32)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        Sphere(radius=0.0)
    with pytest.raises(ValueError):
        Ellipsoid(semi_axes=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        StarShaped(coeffs=((1, 4, 1.0),))  # s out of 1..2k+1
    with pytest.raises(ValueError, match="^harmonic index must be an integer, got 1.5$"):
        StarShaped(coeffs=((0, 1, 1.0), (2, 1.5, 0.1)))
    for degree in (2.0, True, "2"):  # refused where they enter, not inside make_quadrature
        with pytest.raises(ValueError, match=f"^harmonic degree must be a non-negative integer, got {degree}$"):
            StarShaped(coeffs=((0, 1, 1.0), (degree, 1, 0.1)))


@pytest.mark.parametrize("make, name", [
    (lambda: Sphere(center=(0.0, np.nan, 0.0)), "center"),
    (lambda: Sphere(radius=np.inf), "radius"),
    (lambda: Ellipsoid(center=(np.inf, 0.0, 0.0)), "center"),
    (lambda: Ellipsoid(semi_axes=(1.0, np.inf, 1.0)), "semi_axes"),
    (lambda: StarShaped(coeffs=((0, 1, np.nan),)), "coeffs"),
    (lambda: StarShaped(axis=(0.0, 0.0, np.nan)), "axis"),
], ids=["sphere-center", "radius", "ellipsoid-center", "semi_axes", "coeffs", "axis"])
def test_non_finite_surface_rejected_naming_the_field(make, name):
    with pytest.raises(ValueError, match=f"^surface {name} must be finite"):
        make()


def test_radial_function_of_ellipsoid():
    spec = Ellipsoid(semi_axes=(1.0, 1.3, 1.7))
    assert radial_function(spec, np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(1.0)
    assert radial_function(spec, np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(1.7)


@pytest.mark.parametrize("spec", [Sphere(radius=1.3), Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), BUMPY],
                         ids=["sphere", "ellipsoid", "star"])
def test_radial_function_broadcasts_leading_axes(spec):
    # a (2, 5, 3) batch gives the flat (10,) radii reshaped, bitwise; one (3,) direction row 0 of a (1, 3) batch
    u = np.random.default_rng(8).normal(size=(10, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    flat = radial_function(spec, u)
    np.testing.assert_array_equal(radial_function(spec, u.reshape(2, 5, 3)), flat.reshape(2, 5), strict=True)
    single = radial_function(spec, u[0])
    assert type(single) is np.ndarray and single.shape == ()  # the same for every kind
    np.testing.assert_array_equal(single, radial_function(spec, u[:1])[0])


def test_quadrature_csv_schema(sphere_quad):
    text = sphere_quad.to_csv()
    lines = text.splitlines()
    assert lines[0] == "x,y,z,nx,ny,nz,w"
    assert len(lines) == sphere_quad.n_samples + 1
    assert len(lines[1].split(",")) == 7


AXIS_NORMALS = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("quad", [
    make_quadrature(Sphere(), 12, 24),
    make_quadrature(Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), 12, 24),
    make_quadrature(BUMPY, 12, 24),
    SurfaceQuadrature(Sphere(), AXIS_NORMALS, AXIS_NORMALS, np.ones(6)),  # normals along +-x, +-y, +-z
], ids=["sphere", "ellipsoid", "star", "axes"])
def test_tangent_frames_are_orthonormal_and_right_handed(quad):
    frames, nu = quad.tangents, quad.normals
    assert frames.shape == (quad.n_samples, 2, 3)
    e1, e2 = frames[:, 0], frames[:, 1]
    for e in (e1, e2):
        assert np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(np.einsum("ni,ni->n", e, nu))) <= 1e-15
    assert np.max(np.abs(np.einsum("ni,ni->n", e1, e2))) <= 1e-15
    assert np.max(np.abs(np.cross(e1, e2) - nu)) <= 1e-15
    rebuilt = SurfaceQuadrature(quad.spec, quad.points.copy(), nu.copy(), quad.weights.copy())
    assert np.array_equal(rebuilt.tangents, frames)
    assert quad.tangents is frames  # computed once


# -- reflections ---------------------------------------------------------------------


STAR_X = StarShaped(coeffs=((0, 1, 1.0), (2, 3, 0.15)))
STAR_GENERIC = StarShaped(coeffs=((0, 1, 1.0), (2, 2, 0.1), (2, 3, 0.15)))


@pytest.mark.parametrize("spec, n_theta, n_phi, axes", [
    (Sphere(), 32, 64, (0, 1, 2)),
    (Ellipsoid(semi_axes=(1.0, 1.0, 1.5)), 48, 96, (0, 1, 2)),
    (Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), 32, 64, (0, 1, 2)),
    (Ellipsoid(center=(0.1, 0.0, 0.0), semi_axes=(1.0, 1.3, 1.7)), 32, 64, (1, 2)),
    (Sphere(), 5, 9, (1, 2)),  # odd n_phi: phi -> pi - phi is not on the grid
    (Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), 7, 33, (1, 2)),
    (STAR_X, 24, 48, (0,)),
    (STAR_X, 24, 49, ()),
    (STAR_GENERIC, 24, 48, ()),
], ids=["sphere", "spheroid", "triaxial", "off-center", "sphere-odd-phi", "triaxial-odd-phi",
        "star-x", "star-x-odd-phi", "star-generic"])
def test_reflections_of_each_surface_and_their_sample_permutations(spec, n_theta, n_phi, axes):
    quad = make_quadrature(spec, n_theta, n_phi)
    assert tuple(axis for axis, _ in quad.reflections) == axes
    for axis, perm in quad.reflections:
        flip = np.where(np.arange(3) == axis, -1.0, 1.0)
        assert np.array_equal(np.sort(perm), np.arange(quad.n_samples))
        assert np.array_equal(perm[perm], np.arange(quad.n_samples))
        assert np.max(np.abs(quad.points[perm] - flip * quad.points)) <= 1e-13
        assert np.max(np.abs(quad.normals[perm] - flip * quad.normals)) <= 1e-13
        assert np.max(np.abs(quad.weights[perm] / quad.weights - 1.0)) <= 1e-13


def test_reflection_axes_are_read_from_the_spec():
    assert classify_symmetry(Sphere(center=(0.0, 2.0, 0.0))).reflection_axes == (0, 2)
    assert classify_symmetry(STAR_X).reflection_axes == (0,)  # h_{2,3} is even in x, odd in y and z
    star = StarShaped(center=(0.5, 0.0, 0.0), coeffs=((0, 1, 1.0), (2, 1, 0.1)))
    assert classify_symmetry(star).reflection_axes == (1, 2)
    assert classify_symmetry(STAR_GENERIC).reflection_axes == ()


def test_hand_built_quadrature_has_no_reflections():
    quad = SurfaceQuadrature(Sphere(), AXIS_NORMALS, AXIS_NORMALS, np.ones(6))
    assert quad.reflections == ()


# -- symmetry ----------------------------------------------------------------------

NO_AXES = np.zeros((0, 3))


def assert_symmetry(spec, rotation_axes, reflection_axes):
    sym = classify_symmetry(spec)
    np.testing.assert_array_equal(sym.rotation_axes, np.asarray(rotation_axes, dtype=float).reshape(-1, 3), strict=True)
    assert sym.reflection_axes == reflection_axes


def test_classify_sphere():
    spec = Sphere(center=(0.0, 1.0, 0.0), radius=2.0)
    assert_symmetry(spec, np.eye(3), (0, 2))
    assert len(make_quadrature(spec, 8, 16).rotation_fields) == 3


def test_classify_spheroid_axis_of_distinct_semi_axis():
    assert_symmetry(Ellipsoid(semi_axes=(1.0, 1.0, 1.5)), [[0.0, 0.0, 1.0]], (0, 1, 2))
    assert_symmetry(Ellipsoid(semi_axes=(1.0, 1.5, 1.0)), [[0.0, 1.0, 0.0]], (0, 1, 2))
    assert_symmetry(Ellipsoid(semi_axes=(1.5, 1.0, 1.0)), [[1.0, 0.0, 0.0]], (0, 1, 2))


def test_classify_triaxial_is_generic(triaxial_quad):
    assert_symmetry(Ellipsoid(semi_axes=(1.0, 1.3, 1.7)), NO_AXES, (0, 1, 2))
    assert len(triaxial_quad.rotation_fields) == 0


def test_classify_equal_axes_ellipsoid_is_sphere():
    assert_symmetry(Ellipsoid(semi_axes=(2.0, 2.0, 2.0)), np.eye(3), (0, 1, 2))


def test_classify_star_by_declared_metadata():
    assert_symmetry(BUMPY, NO_AXES, (1,))  # h_{2,2} is odd in x and z, h_{3,4} in z
    assert_symmetry(BUMPY_AXI, [[0.0, 0.0, 1.0]], (0, 1, 2))
    assert_symmetry(StarShaped(coeffs=BUMPY_AXI.coeffs, axis=(0.0, 0.0, 3.0)), [[0.0, 0.0, 1.0]], (0, 1, 2))
    assert_symmetry(STAR_X, NO_AXES, (0,))
    assert_symmetry(STAR_GENERIC, NO_AXES, ())


# -- tangential rotation fields ------------------------------------------------------


def test_rotation_field_counts(sphere_quad, spheroid_quad, triaxial_quad):
    assert len(sphere_quad.rotation_fields) == 3
    assert len(spheroid_quad.rotation_fields) == 1
    assert triaxial_quad.rotation_fields == []


def test_rotation_fields_tangent_and_orthonormal(sphere_quad, spheroid_quad):
    for quad in (sphere_quad, spheroid_quad):
        gammas = quad.rotation_fields
        for g in gammas:
            assert np.max(np.abs(np.einsum("ni,ni->n", g, quad.normals))) <= 1e-12
        gram = np.array([[quad.inner(a, b) for b in gammas] for a in gammas])
        assert np.max(np.abs(gram - np.eye(len(gammas)))) <= 1e-10


@pytest.mark.parametrize("spec, count", [
    (Sphere(radius=1e-7), 3),
    (Ellipsoid(semi_axes=(1e-7, 1e-7, 1.5e-7)), 1),
], ids=["sphere", "spheroid"])
def test_rotation_fields_survive_on_a_small_surface(spec, count):
    # the drop tolerance is relative to each rotation's norm, which scales as size^2
    quad = make_quadrature(spec, 8, 16)
    gammas = quad.rotation_fields
    assert len(gammas) == count
    for g in gammas:
        assert np.max(np.abs(np.einsum("ni,ni->n", g, quad.normals))) <= 1e-14 * np.max(np.abs(g))
    gram = np.array([[quad.inner(a, b) for b in gammas] for a in gammas])
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-10


def test_rotation_field_direction_on_sphere(sphere_quad):
    # the b = e3 generator at x = (1, 0, 0) points along +y before normalization
    gammas = sphere_quad.rotation_fields
    idx = np.argmin(np.linalg.norm(sphere_quad.points - np.array([1.0, 0.0, 0.0]), axis=1))
    g3 = gammas[2][idx]
    assert abs(g3[0]) < 0.15 and g3[1] > 0.2 and abs(g3[2]) < 0.15


def test_axisymmetric_star_rotation_field(spheroid_quad):
    quad = make_quadrature(BUMPY_AXI, 16, 32)
    gammas = quad.rotation_fields
    assert len(gammas) == 1
    assert np.max(np.abs(np.einsum("ni,ni->n", gammas[0], quad.normals))) <= 1e-12


def test_zonal_star_with_its_axis_declared_is_axisymmetric():
    # h_{2,1} is the zonal harmonic, symmetric about the z axis
    spec = StarShaped(coeffs=((0, 1, 1.0), (2, 1, 0.15)), axis=(0.0, 0.0, 1.0))
    assert_symmetry(spec, [[0.0, 0.0, 1.0]], (0, 1, 2))
    assert len(make_quadrature(spec, 16, 32).rotation_fields) == 1


def test_star_declared_about_a_false_axis_is_rejected_naming_it():
    # h_{2,3} is not symmetric about z, so the rotation about z leaves the surface
    quad = make_quadrature(StarShaped(coeffs=((0, 1, 1.0), (2, 3, 0.15)), axis=(0.0, 0.0, 1.0)), 16, 32)
    with pytest.raises(ValueError, match="not symmetric about its declared axis 0 0 1"):
        quad.rotation_fields
