import numpy as np
import pytest

from elastopoly import (
    KelvinField,
    KelvinParams,
    Material,
    RigidDisplacement,
    kelvin_gradient,
    kelvin_matrix,
    kelvin_traction,
    lame_apply,
    traction,
)
from elastopoly.polyalg import Poly3, VecPoly3, X, Y, Z, divergence

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
    assert lame_apply(M, VecPoly3(X, Poly3.zero(), Poly3.zero())).is_zero


def test_lame_on_x_squared_field():
    out = lame_apply(M, VecPoly3(X * X, Poly3.zero(), Poly3.zero()))
    assert out == VecPoly3(Poly3.constant(6.0), Poly3.zero(), Poly3.zero())


# -- traction ---------------------------------------------------------------------


def test_traction_of_rigid_rotation_is_exactly_zero():
    rigid = RigidDisplacement(b=(0.4, -1.3, 0.9)).as_vecpoly()
    pts = rng.uniform(-2, 2, size=(50, 3))
    nrm = random_unit(50)
    assert np.max(np.abs(traction(M, rigid, pts, nrm))) == 0.0


def test_traction_of_radial_field_is_5nu():
    v = VecPoly3(X, Y, Z)
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
    u = VecPoly3(X * Y, Z * Z, X)
    v = VecPoly3(Y, X * Z, Y * Y)
    pts = rng.uniform(-1, 1, size=(10, 3))
    nrm = random_unit(10)
    a, b = 1.7, -0.6
    lhs = traction(M, a * u + b * v, pts, nrm)
    rhs = a * traction(M, u, pts, nrm) + b * traction(M, v, pts, nrm)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_traction_equals_three_term_formula():
    # 2 mu du/dn + lam (div u) nu + mu (nu x curl u), assembled independently
    u = VecPoly3(X * X * Y, Y * Z, X * Z * Z)
    pts = rng.uniform(-1, 1, size=(15, 3))
    nrm = random_unit(15)
    div_u = divergence(u)
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
        traction(M, VecPoly3(X, Y, Z), np.zeros(3), np.array([0.0, 0.0, 1.1]))


def test_rigid_displacement_evaluates_a_plus_b_cross():
    rigid = RigidDisplacement(a=(1.0, 0.0, -1.0), b=(0.0, 2.0, 0.0), x0=(0.5, 0.5, 0.5))
    pts = rng.uniform(-1, 1, size=(8, 3))
    expected = np.array([1.0, 0.0, -1.0]) + np.cross([0.0, 2.0, 0.0], pts - 0.5)
    assert np.allclose(rigid.eval(pts), expected, atol=1e-14)
    assert np.allclose(rigid.as_vecpoly().eval(pts), expected, atol=1e-14)


# -- Kelvin matrix ----------------------------------------------------------------


def test_mu_prime_value():
    assert KelvinParams(M).mu_prime == pytest.approx(1.0 / (12.0 * np.pi))


def test_kelvin_matrix_on_axis():
    params = KelvinParams(M)
    r = 1.75
    g = kelvin_matrix(params, np.array([r, 0.0, 0.0]))
    assert g[0, 0] == pytest.approx(-1.0 / (4.0 * np.pi * r))
    assert g[1, 1] == pytest.approx(-1.0 / (4.0 * np.pi * r) + 1.0 / (12.0 * np.pi * r))
    assert g[2, 2] == pytest.approx(g[1, 1])
    assert abs(g[0, 1]) < 1e-16 and abs(g[0, 2]) < 1e-16


def test_kelvin_matrix_symmetric_and_homogeneous():
    params = KelvinParams(Material(2.5, 0.7))
    for _ in range(10):
        x = rng.uniform(-2, 2, size=3)
        if np.linalg.norm(x) < 0.1:
            continue
        g = kelvin_matrix(params, x)
        assert np.allclose(g, g.T, atol=1e-16)
        t = float(rng.uniform(0.5, 3.0))
        assert np.allclose(kelvin_matrix(params, t * x), g / t, rtol=1e-13)


def test_kelvin_matrix_rejects_origin():
    with pytest.raises(ValueError):
        kelvin_matrix(KelvinParams(M), np.zeros(3))


def test_kelvin_columns_solve_lame_system_by_finite_differences():
    params = KelvinParams(M)
    h = 1e-5
    eye = np.eye(3)
    for _ in range(8):
        x = random_unit()[0] * rng.uniform(0.5, 2.0)
        g0 = kelvin_matrix(params, x)
        scale = np.linalg.norm(g0) / np.dot(x, x)
        # E in x applied to each row field Gamma_i via central differences
        lap = np.zeros((3, 3))
        graddiv = np.zeros((3, 3))
        for a in range(3):
            gp = kelvin_matrix(params, x + h * eye[a])
            gm = kelvin_matrix(params, x - h * eye[a])
            lap += (gp + gm - 2 * g0) / h**2
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    gpp = kelvin_matrix(params, x + h * eye[a] + h * eye[b])[i]
                    gpm = kelvin_matrix(params, x + h * eye[a] - h * eye[b])[i]
                    gmp = kelvin_matrix(params, x - h * eye[a] + h * eye[b])[i]
                    gmm = kelvin_matrix(params, x - h * eye[a] - h * eye[b])[i]
                    graddiv[i, a] += (gpp[b] - gpm[b] - gmp[b] + gmm[b]) / (4 * h**2)
        residual = M.mu * lap + (M.lam + M.mu) * graddiv
        assert np.max(np.abs(residual)) <= 1e-4 * scale


def test_kelvin_gradient_matches_finite_differences():
    params = KelvinParams(Material(2.5, 0.7))
    x = np.array([0.7, -0.4, 1.1])
    g = kelvin_gradient(params, x)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (kelvin_matrix(params, x + e) - kelvin_matrix(params, x - e)) / (2 * h)
        assert np.allclose(g[:, :, k], fd, atol=1e-9)


# -- Kelvin traction kernel ---------------------------------------------------------


def test_kelvin_traction_far_field_decay():
    params = KelvinParams(M)
    x = np.zeros(3)
    nrm = random_unit()[0]
    direction = random_unit()[0]
    k10 = kelvin_traction(params, x, 10.0 * direction, nrm)
    k20 = kelvin_traction(params, x, 20.0 * direction, nrm)
    ratio = np.linalg.norm(k20) / np.linalg.norm(k10)
    assert abs(ratio - 0.25) <= 0.25 * 0.25  # degree -2 homogeneity, within 25%


def test_kelvin_traction_rejects_coincident_points():
    params = KelvinParams(M)
    p = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        kelvin_traction(params, p, p, np.array([1.0, 0.0, 0.0]))


def test_somigliana_constant_field_dichotomy(sphere_quad):
    # oint e1 . T_y Gamma_i(x - y) dsigma = e1 interior, 0 exterior
    params = KelvinParams(M)
    e1 = np.array([1.0, 0.0, 0.0])
    kern_in = kelvin_traction(params, np.zeros(3), sphere_quad.points, sphere_quad.normals)
    val_in = np.einsum("n,nij,j->i", sphere_quad.weights, kern_in, e1)
    assert np.allclose(val_in, e1, atol=1e-8)
    kern_out = kelvin_traction(params, np.array([0.0, 0.0, 3.0]), sphere_quad.points, sphere_quad.normals)
    val_out = np.einsum("n,nij,j->i", sphere_quad.weights, kern_out, e1)
    assert np.allclose(val_out, 0.0, atol=1e-8)


def test_kelvin_field_traction_matches_finite_differences():
    fld = KelvinField(KelvinParams(M), (0.0, 0.0, 3.0), 2)
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


def test_betti_pairing_with_basis_elements(sphere_quad, basis_k4):
    # lame_apply annihilates every basis element, so reciprocity holds pairwise
    for el in basis_k4.elements[:: len(basis_k4) // 6]:
        assert lame_apply(M, el.field.normalized()).max_abs_coeff() <= 1e-12
