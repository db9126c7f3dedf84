"""The shared Hooke's law and traction contraction, III/IV split, single-assembly fit,
star-surface radius, surface element, symmetry description, array-built
basis, its cached monomial index tables, and `check`'s row-wise Lamé
identity and reciprocity matrix (joined degrees, all poles in one kernel
call) against the formulas and single-field paths they replaced, which are
the reference."""

import math

import numpy as np
import pytest

from elastopoly import (
    Ellipsoid,
    Material,
    Sphere,
    StarShaped,
    betti_check,
    elastic_basis,
    fit,
    kelvin_data,
    lambda_coeff,
    make_quadrature,
    radial_function,
    solid_harmonics,
    somigliana_check,
    traction,
)
from elastopoly import polyalg, solver
from elastopoly.basis import _PAIRS, _times_r2, _two_sum, degree_columns, hooke
from elastopoly.harness import _clear_of_surface, reciprocity_matrix
from elastopoly.operators import kelvin_matrix, kelvin_traction, lame_apply, lame_residuals, traction_of_stress
from elastopoly.polyalg import (
    VecPoly3, _diff, _shift_index, batch_eval, degree_monomials, eval_blocks, monomial_position,
)
from elastopoly.solver import assemble_traces, evaluate_solution, field_samples, split_trace

import dictpoly
from conftest import cartesian_traces
from dictpoly import R2, bits, dict_of

rng = np.random.default_rng(2024)
M = Material(1.3, 0.8)


def unit_normals(n):
    nu = rng.normal(size=(n, 3))
    return nu / np.linalg.norm(nu, axis=1)[:, None]


def test_hooke_traction_matches_symmetrized_strain_formula():
    g = rng.normal(size=(40, 5, 3, 3))
    nu = unit_normals(40)
    div = np.trace(g, axis1=2, axis2=3)
    strain2 = g + np.swapaxes(g, 2, 3)
    old = M.lam * div[:, :, None] * nu[:, None, :] + M.mu * np.einsum("neaj,na->nej", strain2, nu)
    for grad in (g, np.swapaxes(g, 2, 3)):  # either index convention
        stress = hooke(M, np.moveaxis(grad, (2, 3), (0, 1)))
        assert np.allclose(traction_of_stress(stress, nu[:, None, :]), old, rtol=0.0, atol=1e-14)


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
    scalar, vector = cartesian_traces(assemble_traces(problem, basis, triaxial_quad), triaxial_quad)
    ds = scalar @ result.coefficients - data.scalar
    dv = np.einsum("nje,e->nj", vector, result.coefficients) - data.vector
    assert result.scalar_misfit.shape == ds.shape and result.vector_misfit.shape == dv.shape
    scale = max(np.max(np.abs(data.scalar)), np.max(np.abs(data.vector)))
    assert np.max(np.abs(result.scalar_misfit - ds)) <= 1e-13 * scale
    assert np.max(np.abs(result.vector_misfit - dv)) <= 1e-13 * scale
    assert "scalar_misfit" not in result.to_dict() and "vector_misfit" not in result.to_dict()


def test_rotation_components_match_projection_of_fitted_displacement(sphere_quad, spheroid_quad):
    # reported unasked by every problem-III fit on a symmetric surface, never by a problem-IV one
    basis = elastic_basis(M, 3)
    for quad, n_rotations in ((sphere_quad, 3), (spheroid_quad, 1)):
        data, _ = kelvin_data(M, quad, (0.5, 0.2, 3.0), 3, "III")
        result = fit(data, basis, quad)
        disp, _ = evaluate_solution(result, basis, quad.points)
        expected = [quad.inner(disp, g) for g in quad.rotation_fields]
        assert len(expected) == n_rotations
        assert np.allclose(result.rotation_components, expected, rtol=0.0, atol=1e-14 * quad.norm(disp))
        data, _ = kelvin_data(M, quad, (0.5, 0.2, 3.0), 3, "IV")
        assert fit(data, basis, quad).rotation_components is None


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
    grads = [[p.diff(a) for a in (1, 2, 3)] for p in polys]
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


def old_sphere_or_ellipsoid_quadrature(spec, n_theta, n_phi):
    """The replaced closed forms: on a sphere normals u and weights w r^2; on
    an ellipsoid the normalized gradient of sum (x_i / a_i)^2 as the normal."""
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    st, ct = np.repeat(np.sqrt(1.0 - t**2), n_phi), np.repeat(t, n_phi)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    cphi, sphi = np.tile(np.cos(phi), n_theta), np.tile(np.sin(phi), n_theta)
    u = np.stack([st * cphi, st * sphi, ct], axis=1)
    w_base = np.repeat(wt, n_phi) * (2.0 * np.pi / n_phi)
    center = np.asarray(spec.center, dtype=float)
    if isinstance(spec, Sphere):
        return center + spec.radius * u, u, w_base * spec.radius**2
    a, b, c = spec.semi_axes
    scaled = u * np.array([a, b, c])
    x_th = np.stack([a * ct * cphi, b * ct * sphi, -c * st], axis=1)
    x_ph = np.stack([-a * st * sphi, b * st * cphi, np.zeros_like(st)], axis=1)
    weights = w_base * np.linalg.norm(np.cross(x_th, x_ph), axis=1) / st
    grad = scaled / np.array([a**2, b**2, c**2])
    return center + scaled, grad / np.linalg.norm(grad, axis=1)[:, None], weights


@pytest.mark.parametrize("spec", [
    Sphere(center=(0.3, -0.2, 0.1), radius=1.7),
    Ellipsoid(semi_axes=(1.0, 1.0, 1.5)),
    Ellipsoid(center=(0.1, 0.0, -0.4), semi_axes=(1.0, 1.3, 1.7)),
], ids=["sphere", "spheroid", "triaxial"])
@pytest.mark.parametrize("n_theta, n_phi", [(4, 8), (32, 64), (48, 96)])
def test_surface_element_matches_old_sphere_and_ellipsoid_formulas(spec, n_theta, n_phi):
    quad = make_quadrature(spec, n_theta, n_phi)
    points, normals, weights = old_sphere_or_ellipsoid_quadrature(spec, n_theta, n_phi)
    np.testing.assert_array_equal(quad.points, points)
    assert np.max(np.abs(quad.normals - normals)) <= 1e-15
    assert np.max(np.abs(quad.weights - weights) / weights) <= 1e-15


def test_surface_element_gives_exact_areas():
    r = 2.5
    assert make_quadrature(Sphere(radius=r), 32, 64).area == pytest.approx(4.0 * np.pi * r**2, rel=1e-14, abs=0.0)
    # prolate spheroid with semi-axes a = a < c: 2 pi a^2 (1 + c / (a e) arcsin e), e^2 = 1 - a^2 / c^2
    a, c = 1.0, 1.5
    e = np.sqrt(1.0 - a**2 / c**2)
    exact = 2.0 * np.pi * a**2 * (1.0 + c / (a * e) * np.arcsin(e))
    area = make_quadrature(Ellipsoid(semi_axes=(a, a, c)), 32, 64).area
    assert area == pytest.approx(exact, rel=1e-14, abs=0.0)


def old_rotation_fields(quad):
    """The replaced tag branches: a "sphere" (equal semi-axes) rotates about
    the three coordinate axes, an "axisymmetric" surface about the axis of its
    distinct semi-axis or its declared axis, a "generic" one not at all; a
    field is kept when its orthogonalized norm exceeds 1e-13."""
    spec = quad.spec
    if isinstance(spec, StarShaped):
        if spec.axis is None:
            return []
        axis = np.asarray(spec.axis, dtype=float)
        axes = np.asarray([tuple(axis / np.linalg.norm(axis))], dtype=float)
    else:
        a, b, c = (spec.radius,) * 3 if isinstance(spec, Sphere) else spec.semi_axes
        if a == b == c:
            axes = np.eye(3)
        elif a == b or a == c or b == c:
            axes = np.asarray([(0.0, 0.0, 1.0) if a == b else (0.0, 1.0, 0.0) if a == c else (1.0, 0.0, 0.0)])
        else:
            return []
    raw = np.cross(axes[:, None], quad.points - np.asarray(spec.center, dtype=float))
    fields = []
    for g in raw:
        for f in fields:
            g = g - quad.inner(f, g) * f
        norm = quad.norm(g)
        if norm > 1e-13:
            fields.append(g / norm)
    return fields


def old_reflections(spec, n_theta, n_phi):
    """The replaced `reflection_axes` rule with each reflection's sample
    permutation on the theta-major grid, sample n = i n_phi + j."""
    terms = {}
    if isinstance(spec, StarShaped):
        terms = sum((float(c) * dict_of(solid_harmonics(k)[s - 1]) for k, s, c in spec.coeffs), dictpoly.Poly3()).terms
    i, j = np.divmod(np.arange(n_theta * n_phi), n_phi)
    perms = {0: i * n_phi + (n_phi // 2 - j) % n_phi, 1: i * n_phi + (n_phi - j) % n_phi,
             2: (n_theta - 1 - i) * n_phi + j}
    axes = [a for a in range(3) if spec.center[a] == 0.0 and all(mono[a] % 2 == 0 for mono in terms)]
    return [(a, perms[a]) for a in axes if a != 0 or n_phi % 2 == 0]


@pytest.mark.parametrize("spec", [
    Sphere(),
    Sphere(center=(0.1, 0.2, 0.3), radius=2.0),
    Ellipsoid(semi_axes=(1.5, 1.0, 1.0)),
    Ellipsoid(semi_axes=(1.0, 1.5, 1.0)),
    Ellipsoid(semi_axes=(1.0, 1.0, 1.5)),
    StarShaped(coeffs=((0, 1, 1.0), (2, 1, 0.15)), axis=(0.0, 0.0, 3.0)),
], ids=["sphere", "off-center-sphere", "spheroid-x", "spheroid-y", "spheroid-z", "star-axis"])
@pytest.mark.parametrize("n_theta, n_phi", [(16, 32), (7, 33)])
def test_symmetry_matches_old_tag_branches(spec, n_theta, n_phi):
    quad = make_quadrature(spec, n_theta, n_phi)
    old = old_rotation_fields(quad)
    assert len(quad.rotation_fields) == len(old) > 0
    for new, ref in zip(quad.rotation_fields, old):
        np.testing.assert_array_equal(new, ref)
    old = old_reflections(spec, n_theta, n_phi)
    assert [axis for axis, _ in quad.reflections] == [axis for axis, _ in old]
    for (_, new), (_, ref) in zip(quad.reflections, old):
        np.testing.assert_array_equal(new, ref)


def old_of_polys(groups):
    """The replaced `CoefficientBlocks.of_polys`: each group's terms scattered
    into a matrix over the graded-lex monomials of the group's degree range."""
    top = max(p.degree() for polys in groups for p in polys)
    monos = sorted(((i, j, k) for i in range(top + 1) for j in range(top + 1) for k in range(top + 1) if i + j + k <= top),
                   key=lambda m: (sum(m), m))
    index, start = {m: r for r, m in enumerate(monos)}, [d * (d + 1) * (d + 2) // 6 for d in range(top + 2)]
    blocks = []
    for polys in groups:
        counts = [len(p.terms) for p in polys]
        rows = np.array([index[m] for p in polys for m in p.terms], dtype=np.intp)
        degrees = [sum(m) for p in polys for m in p.terms]
        first, end = (start[min(degrees)], start[max(degrees) + 1]) if degrees else (0, 0)
        coeffs = np.zeros((len(polys), end - first))
        coeffs[np.repeat(np.arange(len(polys)), counts), rows - first] = [c for p in polys for c in p.terms.values()]
        blocks.append((first, end, coeffs))
    return blocks


def old_basis(material, max_degree):
    """The replaced construction, term by term through the dict `Poly3`: per
    harmonic omega the Hessian by `diff` (smaller axis first), `R2 *` (fsum
    per monomial), `lam_k *` and `+ omega` on the diagonal; then the layout
    from the elements' components and jacobians through `of_polys`."""
    fields = []
    for k in range(max_degree + 1):
        lam_k = lambda_coeff(material, k)
        for omega in map(dict_of, solid_harmonics(k)):
            d2 = [[None] * 3 for _ in range(3)]
            for a in range(3):
                for b in range(a, 3):
                    d2[a][b] = d2[b][a] = omega.diff(a + 1).diff(b + 1)
            correction = [[lam_k * (R2 * d2[a][b]) for b in range(3)] for a in range(3)]
            for i in range(3):
                fields.append(dictpoly.VecPoly3(*(correction[j][i] + omega if j == i else correction[j][i]
                                                  for j in range(3))))
    groups = []
    for k in range(max_degree + 1):
        block = fields[degree_columns(k)]
        jacobians = [v.jacobian() for v in block]
        groups += [[v[j] for j in range(3) for v in block], [jac[i] for i in range(9) for jac in jacobians]]
    return fields, old_of_polys(groups)


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (1.3, 0.8), (-0.5, 1.0), (1e3, 1e-3)])
def test_basis_matches_old_construction_bitwise(lam, mu):
    material = Material(lam, mu)
    fields, blocks = old_basis(material, 20)
    assert blocks[1][:2] == (0, 0) and blocks[1][2].shape == (27, 0)  # degree 0 has no gradient monomial
    for max_degree in (0, 1, 2, 20):  # every degree's blocks, and the layout ending at each of these
        basis = elastic_basis(material, max_degree)
        assert len(basis.layout) == 2 * max_degree + 2
        for b, ((first, end, coeffs), (old_first, old_end, old)) in enumerate(zip(basis.layout, blocks)):
            assert (first, end) == (old_first, old_end)
            e = 3 * (2 * (b // 2) + 1)
            if b % 2:  # stresses (6, e, n): Hooke's law on the old gradient rows g[a, j] = d v_j / d x_a
                g = old.reshape(3, 3, e, end - first)
                old = np.stack([material.mu * (g[a, j] + g[j, a]) for a, j in _PAIRS])
                for p in (0, 3, 5):
                    old[p] += material.lam * (g[0, 0] + g[1, 1] + g[2, 2])
            # values (3, e, n): the old rows are their leading axes flattened
            assert coeffs.shape == (6 if b % 2 else 3, e, end - first)
            assert np.array_equal(coeffs, old.reshape(coeffs.shape)) and coeffs.flags.c_contiguous
        assert [dict_of(el.field) for el in basis.elements] == fields[:len(basis)]


def test_times_r2_rounds_like_fsum_at_ties():
    # three terms per monomial that cancel, or sum to a tie between two doubles
    # that a third, tiny term must break: a plain (a + b) + c misrounds these
    tricky = np.array([1.0, -1.0, 1.0 + 2.0**-52, 2.0**-53, -2.0**-53, 2.0**-54, 3 * 2.0**-54, 2.0**-105, -2.0**-106, 0.0])
    monos = [tuple(m) for m in degree_monomials(4).tolist()]
    targets = [tuple(m) for m in degree_monomials(6).tolist()]
    rows = rng.choice(tricky, size=(400, len(monos)))
    new = _times_r2(rows, 4)
    for row, got in zip(rows, new):
        old = (R2 * dictpoly.Poly3(dict(zip(monos, row)))).terms
        np.testing.assert_array_equal(got, [old.get(m, 0.0) for m in targets])


def old_degree_monomials(d):
    return np.array([(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)], dtype=np.intp).reshape(-1, 3)


def old_diff(rows, d, a):
    source = old_degree_monomials(d - 1)
    source[:, a] += 1
    return rows[..., monomial_position(source)] * source[:, a]


def old_times_r2(rows, d):
    target, shifts = old_degree_monomials(d + 2), 2 * np.eye(3, dtype=np.intp)
    padded = np.concatenate([rows, np.zeros((*rows.shape[:-1], 1))], axis=-1)  # column -1: no term
    a, b, c = (padded[..., np.where(target[:, e] >= 2, monomial_position(target - shifts[e]), -1)] for e in range(3))
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, err = _two_sum(tl, ul)
    inexact_even = (err != 0.0) & ((v.view(np.int64) & 1) == 0)
    return th + np.where(inexact_even, np.nextafter(v, np.copysign(np.inf, err)), v)


def test_cached_index_tables_are_read_only_and_match_old_construction():
    local = np.random.default_rng(26)
    for d in range(21):
        np.testing.assert_array_equal(degree_monomials(d), old_degree_monomials(d))
        rows = local.normal(size=(2, 3, len(old_degree_monomials(d))))
        rows[local.random(rows.shape) < 0.2] = 0.0  # missing terms, as in the sparse basis rows
        for a in range(3):
            got = _diff(rows, d, a)
            assert got.dtype == rows.dtype and np.array_equal(got, old_diff(rows, d, a))
        got = _times_r2(rows, d)
        assert got.shape == (2, 3, len(old_degree_monomials(d + 2))) and np.array_equal(got, old_times_r2(rows, d))
    # the cached arrays are shared by every caller: none may be written
    tables = [degree_monomials(7), *(_shift_index(6, a, 1) for a in range(3)), *(_shift_index(9, a, -2) for a in range(3))]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert degree_monomials(7) is degree_monomials(7)
    np.testing.assert_array_equal(degree_monomials(7), old_degree_monomials(7))


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.5, 0.7), (-0.5, 1.3)])
def test_lame_residuals_match_dict_lame_apply_bitwise(lam, mu):
    material = Material(lam, mu)
    basis = elastic_basis(material, 12)
    expected = [dictpoly.lame_apply(material, dict_of(el.field).normalized()).max_abs_coeff() for el in basis.elements]
    assert lame_residuals(material, basis.layout).tolist() == expected


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.5, 0.7), (-0.5, 1.0)])  # the acceptance materials
def test_lame_apply_matches_dict_lame_apply_bitwise(lam, mu):
    material = Material(lam, mu)
    for el in elastic_basis(material, 8).elements:
        new = lame_apply(material, el.field.normalized())
        old = dictpoly.lame_apply(material, dict_of(el.field).normalized())
        assert list(map(bits, new)) == list(map(bits, old))
        assert new.max_abs_coeff() == old.max_abs_coeff()


@pytest.mark.parametrize("spec", [Sphere(), Ellipsoid(semi_axes=(1.0, 1.3, 1.7))])
def test_reciprocity_matrix_matches_betti_and_somigliana_checks(spec):
    quad = make_quadrature(spec, 16, 32)
    basis = elastic_basis(M, 5)
    columns = [*rng.integers(0, len(basis), size=12), 7, 7]  # Betti pairs 2p, 2p + 1; a field with itself
    poles, expects = np.array([[0.3, 0.1, -0.2], [0.0, 0.0, 5.0]]), ("interior", "exterior")
    a, sq_norms, at_poles = reciprocity_matrix(basis, columns, quad, poles)
    assert a.shape == (len(columns) + 6,) * 2 and at_poles.shape == (2, len(columns), 3)
    fields = [basis.elements[c].field for c in columns]
    norms = np.sqrt(sq_norms)
    for f, field in enumerate(fields):
        assert norms[f] == pytest.approx(quad.norm(field.eval(quad.points)), rel=1e-14)
    for i in range(0, len(columns), 2):
        scale = max(1.0, norms[i] * norms[i + 1])
        assert abs(abs(a[i, i + 1] - a[i + 1, i]) - betti_check(M, fields[i], fields[i + 1], quad)) <= 1e-14 * scale
    for p, (x, expect) in enumerate(zip(poles, expects)):
        kelvin = len(columns) + 3 * p + np.arange(3)
        for f, field in enumerate(fields):
            dev = a[f, kelvin] - a[kelvin, f] - (at_poles[p, f] if expect == "interior" else 0.0)
            scale = max(1.0, norms[f] * np.max(norms[kelvin]))
            assert np.max(np.abs(dev - somigliana_check(M, field, quad, x, expect))) <= 1e-14 * scale


@pytest.mark.parametrize("columns, poles, message", [
    ([], (), "basis positions"),
    ([0, 30], (), "basis positions"),  # the degree-2 basis has 27 elements
    ([-1], (), "basis positions"),
    ([1.5], (), "basis positions"),  # not truncated to element 1
    ([3], [[0.0, 0.0, 0.99]], "quadrature spacings"),
    ([1, 2], [[np.inf, 0.0, 0.0]], r"^evaluation point must be finite, got \[inf, 0.0, 0.0\]$"),
])
def test_reciprocity_matrix_rejects_bad_columns_and_near_poles(sphere_quad, columns, poles, message):
    with pytest.raises(ValueError, match=message):
        reciprocity_matrix(elastic_basis(M, 2), columns, sphere_quad, poles)


def old_reciprocity_matrix(basis, columns, quad, poles=()):
    """`reciprocity_matrix` with one traction contraction of the stress rows
    per degree and one pair of Kelvin kernel calls per pole."""
    columns = np.asarray(columns, dtype=np.intp).reshape(-1)
    if not (len(columns) and 0 <= columns.min() and columns.max() < len(basis)):
        raise ValueError(f"columns must be one or more basis positions 0..{len(basis) - 1}")
    poles = np.array([_clear_of_surface(quad, x) for x in np.reshape(poles, (-1, 3))]).reshape(-1, 3)
    layout, targets = basis.pick(columns)
    n_basis, n_fields = len(columns), len(columns) + 3 * len(poles)
    material = basis.material
    matrix, sq_norms = np.zeros((n_fields, n_fields)), np.zeros(n_fields)
    for rows, products in eval_blocks(layout, quad.points):
        u, t = np.empty((2, n_fields, rows.stop - rows.start, 3))
        points, normals = quad.points[rows], quad.normals[rows]
        for mine in targets:  # each degree's values (3, e, m), then its stresses (6, e, m)
            u[mine], t[mine] = next(products).transpose(1, 2, 0), traction_of_stress(next(products), normals)
        for f, x in zip(range(n_basis, n_fields, 3), poles):
            u[f:f + 3] = kelvin_matrix(material, x - points).transpose(1, 0, 2)
            t[f:f + 3] = kelvin_traction(material, x, points, normals).transpose(1, 0, 2)
        weighted = (u * quad.weights[rows, None]).reshape(n_fields, -1)
        matrix += weighted @ t.reshape(n_fields, -1).T
        sq_norms += np.einsum("fi,fi->f", weighted, u.reshape(n_fields, -1))
        del u, t, weighted  # freed before the next chunk's tables
    at_poles = np.empty((len(poles), n_basis, 3))
    for rows, products in eval_blocks(layout[::2], poles):
        for values, mine in zip(products, targets):
            at_poles[rows, mine] = values.T
    return matrix, sq_norms, at_poles


def check_k12_columns():
    """The Betti pairs and Somigliana elements that `check --degree 12` picks."""
    degree, step, p = 12, 2, np.arange(20)
    k = step + p % (degree + 1 - step)
    j = 7 * p % (6 * (k - step) + 3)
    betti = np.ravel([3 * (k - step) ** 2 + j, 3 * k * k + j], order="F")
    return [*betti, *range(0, 507, 507 // 4)[:4]]


def spread_columns(max_degree):
    """Unsorted columns with repeats: every degree's first element, a draw
    over the basis, and one element taken more often than its degree is wide."""
    n = degree_columns(max_degree).stop
    draw = np.random.default_rng(max_degree).integers(0, n, size=30)
    return [*draw, *(degree_columns(k).start for k in range(max_degree, -1, -1)), *[n - 2] * (6 * max_degree + 5), 7]


@pytest.mark.parametrize("n_poles", [0, 1, 2])
@pytest.mark.parametrize("spec", [Sphere(), Ellipsoid(semi_axes=(1.0, 1.3, 1.7))], ids=["sphere", "ellipsoid"])
@pytest.mark.parametrize("max_degree, n_theta, n_phi, pick", [
    (5, 16, 32, spread_columns),
    (12, 48, 96, lambda _: check_k12_columns()),
], ids=["K5-spread", "K12-check"])
def test_reciprocity_matrix_matches_per_degree_per_pole_loop_bitwise(max_degree, n_theta, n_phi, pick, spec, n_poles):
    basis, quad = elastic_basis(M, max_degree), make_quadrature(spec, n_theta, n_phi)
    columns, poles = pick(max_degree), np.array([[0.3, 0.1, -0.2], [0.0, 0.0, 5.0]])[:n_poles]
    assert {math.isqrt(c // 3) for c in columns} == set(range(max_degree + 1))
    new, old = reciprocity_matrix(basis, columns, quad, poles), old_reciprocity_matrix(basis, columns, quad, poles)
    assert new[0].shape == (len(columns) + 3 * n_poles,) * 2 and new[2].shape == (n_poles, len(columns), 3)
    for got, want in zip(new, old):
        assert np.array_equal(got, want)


def test_field_samples_evaluate_once_and_match_values_and_traction(monkeypatch, sphere_quad):
    field = elastic_basis(M, 6).elements[-4].field
    old = field.eval(sphere_quad.points), traction(M, field, sphere_quad.points, sphere_quad.normals)
    calls = []
    monkeypatch.setattr(solver, "batch_eval", lambda polys, points: calls.append(len(polys)) or batch_eval(polys, points))
    new = field_samples(M, field, sphere_quad)
    assert calls == [12]
    for got, want in zip(new, old):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))
