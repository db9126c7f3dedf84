import numpy as np
import pytest

from elastopoly import (
    KelvinField,
    Material,
    RigidDisplacement,
    kelvin_gradient,
    kelvin_matrix,
    kelvin_traction,
    lame_apply,
    traction,
)
from elastopoly.basis import hooke
from elastopoly.operators import traction_of_stress
from elastopoly.polyalg import Poly3, VecPoly3

import dictpoly
from dictpoly import X, Y, Z, bits, divergence, dict_of, rows_of

rng = np.random.default_rng(2024)
M = Material(1.0, 1.0)


def random_unit(n=1):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


# -- Lame operator ----------------------------------------------------------------


def test_lame_annihilates_rigid_fields():
    rigid = RigidDisplacement(a=(1.0, -2.0, 0.5), b=(0.3, 0.7, -1.1), x0=(0.2, 0.0, -0.4))
    assert lame_apply(M, rigid.as_vecpoly()).is_zero


def test_lame_on_linear_field_is_zero():
    assert lame_apply(M, VecPoly3(rows_of(X), Poly3.zero(), Poly3.zero())).is_zero


def test_lame_on_x_squared_field():
    out = lame_apply(M, VecPoly3(rows_of(X * X), Poly3.zero(), Poly3.zero()))
    assert out == VecPoly3(Poly3.constant(6.0), Poly3.zero(), Poly3.zero())


def test_rigid_field_rows_match_the_dict_construction_bitwise():
    # the replaced construction: per component j, a_j - (b x x0)_j + b_{j+1} x_{j+2} - b_{j+2} x_{j+1}
    # term by term through the dict algebra; zeros in a, b or x0 leave terms out
    for a, b, x0 in [rng.normal(size=(3, 3)), ((1.0, 0.0, 0.5), (0.0, 0.7, -1.1), (0.2, 0.0, 0.0)), np.zeros((3, 3))]:
        comps = []
        for j in range(3):
            p = dictpoly.Poly3.constant(a[j] - (b[(j + 1) % 3] * x0[(j + 2) % 3] - b[(j + 2) % 3] * x0[(j + 1) % 3]))
            p = p + dictpoly.Poly3.variable((j + 2) % 3 + 1) * b[(j + 1) % 3]
            p = p - dictpoly.Poly3.variable((j + 1) % 3 + 1) * b[(j + 2) % 3]
            comps.append(p)
        rigid = RigidDisplacement(a=tuple(a), b=tuple(b), x0=tuple(x0)).as_vecpoly()
        assert list(map(bits, rigid)) == list(map(bits, comps))


# -- traction ---------------------------------------------------------------------


def test_traction_of_rigid_rotation_is_exactly_zero():
    rigid = RigidDisplacement(b=(0.4, -1.3, 0.9)).as_vecpoly()
    pts = rng.uniform(-2, 2, size=(50, 3))
    nrm = random_unit(50)
    assert np.max(np.abs(traction(M, rigid, pts, nrm))) == 0.0


def test_traction_of_radial_field_is_5nu():
    v = VecPoly3(*map(rows_of, (X, Y, Z)))
    nrm = random_unit(20)
    pts = rng.uniform(-1, 1, size=(20, 3))
    t = traction(M, v, pts, nrm)
    # div = 3, du/dn = nu, curl = 0 -> (3 lam + 2 mu) nu = 5 nu
    assert np.allclose(t, 5.0 * nrm, atol=1e-14)


def test_traction_of_constant_field_is_zero():
    v = VecPoly3.constant((1.0, 0.0, 0.0))
    t = traction(M, v, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    assert np.all(t == 0.0)


def test_traction_linearity():
    u = VecPoly3(*map(rows_of, (X * Y, Z * Z, X)))
    v = VecPoly3(*map(rows_of, (Y, X * Z, Y * Y)))
    pts = rng.uniform(-1, 1, size=(10, 3))
    nrm = random_unit(10)
    a, b = 1.7, -0.6
    lhs = traction(M, a * u + b * v, pts, nrm)
    rhs = a * traction(M, u, pts, nrm) + b * traction(M, v, pts, nrm)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_traction_equals_three_term_formula():
    # 2 mu du/dn + lam (div u) nu + mu (nu x curl u), assembled independently
    u = VecPoly3(*map(rows_of, (X * X * Y, Y * Z, X * Z * Z)))
    pts = rng.uniform(-1, 1, size=(15, 3))
    nrm = random_unit(15)
    div_u = divergence(dict_of(u))
    curl_u = VecPoly3(u[2].diff(2) - u[1].diff(3), u[0].diff(3) - u[2].diff(1), u[1].diff(1) - u[0].diff(2))
    grads = [[u[j].diff(a + 1) for j in range(3)] for a in range(3)]
    expected = np.empty((15, 3))
    for n, (p, nu) in enumerate(zip(pts, nrm)):
        ddn = np.array([sum(nu[a] * grads[a][j].eval(p) for a in range(3)) for j in range(3)])
        cu = np.array([c.eval(p) for c in curl_u.components])
        expected[n] = 2 * M.mu * ddn + M.lam * div_u.eval(p) * nu + M.mu * np.cross(nu, cu)
    assert np.allclose(traction(M, u, pts, nrm), expected, atol=1e-13)


def test_traction_rejects_non_unit_normal():
    with pytest.raises(ValueError):
        traction(M, VecPoly3(*map(rows_of, (X, Y, Z))), np.zeros(3), np.array([0.0, 0.0, 1.1]))


def test_rigid_displacement_evaluates_a_plus_b_cross():
    rigid = RigidDisplacement(a=(1.0, 0.0, -1.0), b=(0.0, 2.0, 0.0), x0=(0.5, 0.5, 0.5))
    pts = rng.uniform(-1, 1, size=(8, 3))
    expected = np.array([1.0, 0.0, -1.0]) + np.cross([0.0, 2.0, 0.0], pts - 0.5)
    assert np.allclose(rigid.eval(pts), expected, atol=1e-14)
    assert np.allclose(rigid.as_vecpoly().eval(pts), expected, atol=1e-14)


# -- Kelvin matrix ----------------------------------------------------------------


# mu' = (lam + mu) / (8 pi mu (lam + 2 mu)) written out per material
MU_PRIMES = ((M, 1.0 / (12.0 * np.pi)), (Material(2.5, 0.7), 3.2 / (21.84 * np.pi)))


def test_mu_prime_value():
    # on the x axis at unit distance, Gamma_22 - Gamma_11 = mu'
    for material, mu_prime in MU_PRIMES:
        g = kelvin_matrix(material, np.array([1.0, 0.0, 0.0]))
        assert g[1, 1] - g[0, 0] == pytest.approx(mu_prime)


def test_kelvin_matrix_on_axis():
    # Gamma_11 = -1/(4 pi mu r) and Gamma_22 = Gamma_33 = -1/(4 pi mu r) + mu'/r on the x axis
    r = 1.75
    for material, mu_prime in MU_PRIMES:
        g = kelvin_matrix(material, np.array([r, 0.0, 0.0]))
        assert g[0, 0] == pytest.approx(-1.0 / (4.0 * np.pi * material.mu * r))
        assert g[1, 1] == pytest.approx(-1.0 / (4.0 * np.pi * material.mu * r) + mu_prime / r)
        assert g[2, 2] == pytest.approx(g[1, 1])
        assert abs(g[0, 1]) < 1e-16 and abs(g[0, 2]) < 1e-16


def test_kelvin_matrix_symmetric_and_homogeneous():
    material = Material(2.5, 0.7)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=3)
        if np.linalg.norm(x) < 0.1:
            continue
        g = kelvin_matrix(material, x)
        assert np.allclose(g, g.T, atol=1e-16)
        t = float(rng.uniform(0.5, 3.0))
        assert np.allclose(kelvin_matrix(material, t * x), g / t, rtol=1e-13)


def test_kelvin_matrix_rejects_origin():
    with pytest.raises(ValueError):
        kelvin_matrix(M, np.zeros(3))


def test_kelvin_columns_solve_lame_system_by_finite_differences():
    h = 1e-5
    eye = np.eye(3)
    for _ in range(8):
        x = random_unit()[0] * rng.uniform(0.5, 2.0)
        g0 = kelvin_matrix(M, x)
        scale = np.linalg.norm(g0) / np.dot(x, x)
        # E in x applied to each row field Gamma_i via central differences
        lap = np.zeros((3, 3))
        graddiv = np.zeros((3, 3))
        for a in range(3):
            gp = kelvin_matrix(M, x + h * eye[a])
            gm = kelvin_matrix(M, x - h * eye[a])
            lap += (gp + gm - 2 * g0) / h**2
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    gpp = kelvin_matrix(M, x + h * eye[a] + h * eye[b])[i]
                    gpm = kelvin_matrix(M, x + h * eye[a] - h * eye[b])[i]
                    gmp = kelvin_matrix(M, x - h * eye[a] + h * eye[b])[i]
                    gmm = kelvin_matrix(M, x - h * eye[a] - h * eye[b])[i]
                    graddiv[i, a] += (gpp[b] - gpm[b] - gmp[b] + gmm[b]) / (4 * h**2)
        residual = M.mu * lap + (M.lam + M.mu) * graddiv
        assert np.max(np.abs(residual)) <= 1e-4 * scale


def test_kelvin_gradient_matches_finite_differences():
    material = Material(2.5, 0.7)
    x = np.array([0.7, -0.4, 1.1])
    g = kelvin_gradient(material, x)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (kelvin_matrix(material, x + e) - kelvin_matrix(material, x - e)) / (2 * h)
        assert np.allclose(g[:, :, k], fd, atol=1e-9)


# -- Kelvin traction kernel ---------------------------------------------------------


def test_kelvin_traction_far_field_decay():
    x = np.zeros(3)
    nrm = random_unit()[0]
    direction = random_unit()[0]
    k10 = kelvin_traction(M, x, 10.0 * direction, nrm)
    k20 = kelvin_traction(M, x, 20.0 * direction, nrm)
    ratio = np.linalg.norm(k20) / np.linalg.norm(k10)
    assert abs(ratio - 0.25) <= 0.25 * 0.25  # degree -2 homogeneity, within 25%


def test_kelvin_traction_rejects_coincident_points():
    p = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        kelvin_traction(M, p, p, np.array([1.0, 0.0, 0.0]))


def test_kelvin_kernels_take_several_poles_bitwise():
    # poles (P, 1, 3) against points (m, 3): pole p's slice is the single-pole call, bitwise
    material = Material(1.3, 0.8)
    y, nrm = 0.9 * random_unit(11), random_unit(11)
    poles = np.array([[0.3, 0.1, -0.2], [0.0, 0.0, 5.0], [-1.2, 2.0, 0.7]])
    np.testing.assert_array_equal(kelvin_matrix(material, poles[:, None] - y),
                                  np.stack([kelvin_matrix(material, x - y) for x in poles]))
    np.testing.assert_array_equal(kelvin_gradient(material, poles[:, None] - y),
                                  np.stack([kelvin_gradient(material, x - y) for x in poles]))
    np.testing.assert_array_equal(kelvin_traction(material, poles[:, None], y, nrm),
                                  np.stack([kelvin_traction(material, x, y, nrm) for x in poles]))
    # no poles: empty kernels, not a reduction error
    assert kelvin_matrix(material, poles[:0, None] - y).shape == (0, 11, 3, 3)
    assert kelvin_traction(material, poles[:0, None], y, nrm).shape == (0, 11, 3, 3)
    # a pole on a sample point is still refused
    with pytest.raises(ValueError, match="singular"):
        kelvin_traction(material, np.array([poles[0], y[4]])[:, None], y, nrm)
    with pytest.raises(ValueError, match="singular"):
        kelvin_matrix(material, np.array([poles[0], y[4]])[:, None] - y)


def test_somigliana_constant_field_dichotomy(sphere_quad):
    # oint e1 . T_y Gamma_i(x - y) dsigma = e1 interior, 0 exterior
    e1 = np.array([1.0, 0.0, 0.0])
    kern_in = kelvin_traction(M, np.zeros(3), sphere_quad.points, sphere_quad.normals)
    val_in = np.einsum("n,nij,j->i", sphere_quad.weights, kern_in, e1)
    assert np.allclose(val_in, e1, atol=1e-8)
    kern_out = kelvin_traction(M, np.array([0.0, 0.0, 3.0]), sphere_quad.points, sphere_quad.normals)
    val_out = np.einsum("n,nij,j->i", sphere_quad.weights, kern_out, e1)
    assert np.allclose(val_out, 0.0, atol=1e-8)


def test_kelvin_field_traction_matches_finite_differences():
    fld = KelvinField(M, (0.0, 0.0, 3.0), 2)
    pts = random_unit(5)
    nrm = pts.copy()  # unit sphere normals
    t = fld.traction(pts, nrm)
    h = 1e-6
    eye = np.eye(3)
    for n, (p, nu) in enumerate(zip(pts, nrm)):
        grad = np.zeros((3, 3))
        for a in range(3):
            grad[a] = (fld.eval(p + h * eye[a]) - fld.eval(p - h * eye[a])) / (2 * h)
        div = np.trace(grad)
        expected = M.lam * div * nu + M.mu * (grad + grad.T) @ nu
        assert np.allclose(t[n], expected, atol=1e-8)


@pytest.mark.parametrize("pole", [(0.0, 0.0, 3.0), (1.7, -2.2, 0.4)])
def test_kelvin_field_traction_is_a_row_of_the_kernel(pole):
    """The row of the kernel at the pole equals the contraction of the field's
    own gradient, d u_j / d x_k = (d Gamma_row,j / d z_k)(x - pole), bitwise.
    The field computes only its row, bitwise that row of the full kernels."""
    pts, nrm = 0.8 * random_unit(7), random_unit(7)
    for row in (1, 2, 3):
        fld = KelvinField(M, pole, row)
        grad = kelvin_gradient(M, pts - np.asarray(pole))[:, row - 1]  # (7, j, k)
        expected = traction_of_stress(hooke(M, np.moveaxis(grad, (1, 2), (0, 1))), nrm)
        np.testing.assert_array_equal(fld.traction(pts, nrm), expected)
        np.testing.assert_array_equal(fld.traction(pts, nrm), kelvin_traction(M, pole, pts, nrm)[:, row - 1])
        np.testing.assert_array_equal(fld.eval(pts), kelvin_matrix(M, pts - np.asarray(pole))[:, row - 1])
        assert fld.traction(pts[0], nrm[0]).shape == (3,)
        np.testing.assert_array_equal(fld.traction(pts[0], nrm[0]), expected[0])


# Each function of points (..., 3) and normals (..., 3) whose leading axes broadcast.
_POLE = (0.3, -2.5, 1.9)
_OF_POINTS = {
    "traction": lambda p, n: traction(M, VecPoly3(*map(rows_of, (X * X * Y, Y * Z, X * Z * Z))), p, n),
    "kelvin_matrix": lambda p, n: kelvin_matrix(M, p),
    "kelvin_gradient": lambda p, n: kelvin_gradient(M, p),
    "kelvin_traction": lambda p, n: kelvin_traction(M, _POLE, p, n),
    "KelvinField.eval": lambda p, n: KelvinField(M, _POLE, 2).eval(p),
    "KelvinField.traction": lambda p, n: KelvinField(M, _POLE, 2).traction(p, n),
}


@pytest.mark.parametrize("name", list(_OF_POINTS))
def test_leading_axes_broadcast(name):
    """A (2, 5, 3) batch gives the flat (10, 3) results reshaped, bitwise, and
    a single (3,) point gives row 0 of the (1, 3) batch."""
    f, pts, nrm = _OF_POINTS[name], 0.9 * random_unit(10), random_unit(10)
    flat = f(pts, nrm)
    batched = f(pts.reshape(2, 5, 3), nrm.reshape(2, 5, 3))
    np.testing.assert_array_equal(batched, flat.reshape(2, 5, *flat.shape[1:]), strict=True)
    np.testing.assert_array_equal(f(pts[0], nrm[0]), f(pts[:1], nrm[:1])[0], strict=True)


def test_kelvin_gradient_of_one_point_is_its_batch_row():
    # one point goes through the array power too: numpy's scalar ** rounds unlike its array **
    z = rng.uniform(-2.0, 2.0, size=(200, 3))
    batch = kelvin_gradient(M, z)
    assert all(np.array_equal(kelvin_gradient(M, x), g) for x, g in zip(z, batch))


def test_betti_pairing_with_basis_elements(sphere_quad, basis_k4):
    # lame_apply annihilates every basis element, so reciprocity holds pairwise
    for el in basis_k4.elements[:: len(basis_k4) // 6]:
        assert lame_apply(M, el.field.normalized()).max_abs_coeff() <= 1e-12
