"""The degree sweep (one assembly, a QR of [A | b] reduced over row blocks, a
per-degree SVD of the R prefix) against the direct fit it replaced, written
out here as the reference: per degree, assemble the degree-k traces and take
the truncated SVD of the whole weighted, column-scaled matrix.  The row-block
reduction, and the fold of a fit by the surface's reflections (one R per
parity class, on the fundamental domain), are also checked against one QR of
the whole matrix."""

import dataclasses

import numpy as np
import pytest

from elastopoly import (
    Ellipsoid,
    KelvinSource,
    Material,
    RotationSource,
    Sphere,
    StarShaped,
    StudyConfig,
    elastic_basis,
    fit,
    fit_degrees,
    kelvin_data,
    make_quadrature,
    run_study,
    solid_harmonics,
    solver,
)
from elastopoly.polyalg import Poly3, VecPoly3
from elastopoly.solver import BoundaryData, assemble_traces, max_misfit

from conftest import cartesian_traces

M = Material(1.3, 0.8)
DEGREES = tuple(range(9))
SURFACES = {
    "sphere": Sphere(),
    "spheroid": Ellipsoid(semi_axes=(1.0, 1.0, 1.5)),
    "triaxial": Ellipsoid(semi_axes=(1.0, 1.3, 1.7)),
}
POLES = {"sphere": (0.4, -0.3, 3.0), "spheroid": (0.4, -0.3, 4.5), "triaxial": (0.4, -0.3, 5.1)}
# off the origin no coordinate reflection fixes a surface, so these fits take
# one class over every sample: the row-block streaming in its plain form
OFF_CENTER = {
    "sphere": Sphere(center=(0.1, 0.2, 0.3)),
    "triaxial": Ellipsoid(center=(0.1, 0.2, 0.3), semi_axes=(1.0, 1.3, 1.7)),
}


def direct_fit(problem, data, quad, degree, gammas, svd_tol=1e-12):
    """Kept rank, residual, max misfit, rotation components and singular
    values of the tall-SVD fit."""
    basis = elastic_basis(M, degree)
    scalar, vector = cartesian_traces(assemble_traces(problem, basis, quad), quad)
    sw = np.sqrt(quad.weights)
    a = np.vstack([sw[:, None] * scalar, (sw[:, None, None] * vector).reshape(-1, scalar.shape[1])])
    b = np.concatenate([sw * data.scalar, (sw[:, None] * data.vector).reshape(-1)])
    col_norms = np.linalg.norm(a, axis=0)
    scales = np.where(col_norms > 0.0, col_norms, 1.0)
    u, sigma, vt = np.linalg.svd(a / scales, full_matrices=False)
    keep = sigma >= svd_tol * sigma[0] if sigma[0] > 0.0 else np.zeros(sigma.shape, dtype=bool)
    inv = np.zeros_like(sigma)
    inv[keep] = 1.0 / sigma[keep]
    c = (vt.T @ (inv * (u.T @ b))) / scales
    ds = scalar @ c - data.scalar
    dv = np.einsum("nje,e->nj", vector, c) - data.vector
    values = np.stack([el.field.eval(quad.points) for el in basis], axis=-1)
    rotations = np.array([quad.weights @ np.einsum("nje,nj->ne", values, g) @ c for g in gammas])
    return int(np.count_nonzero(keep)), float(np.linalg.norm(a @ c - b)), max_misfit(ds, dv), rotations, sigma


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
    if source == "kelvin":
        data, _ = kelvin_data(M, quad, POLES[surface], 1, problem)
    else:
        data = BoundaryData(problem, np.zeros(quad.n_samples), quad.rotation_fields[0])
    gammas = quad.rotation_fields if problem == "III" else []  # IV fits report no rotation components
    results = fit_degrees(data, elastic_basis(M, max(DEGREES)), quad, DEGREES)
    for degree, result in zip(DEGREES, results):
        rank, residual, worst, rotations, sigma = direct_fit(problem, data, quad, degree, gammas)
        tol = 1e-12 * result.data_norm
        assert result.kept_rank == rank, degree
        # the singular values are those of the column-scaled matrix
        np.testing.assert_allclose(result.singular_values, sigma, rtol=0.0, atol=1e-12 * sigma[0])
        assert abs(result.residual_norm - residual) <= tol, degree
        assert abs(max_misfit(result.scalar_misfit, result.vector_misfit) - worst) <= tol, degree
        if gammas:
            np.testing.assert_allclose(result.rotation_components, rotations, rtol=0.0, atol=1e-12)
        else:
            assert result.rotation_components is None


def single_qr_fits(data, basis, quad, degrees, svd_tol=1e-12):
    """Kept rank, residual, coefficients and singular values per degree from
    one QR of the whole weighted, column-scaled [A | b] over every sample: the
    factorization before it was split into row blocks and parity classes."""
    scalar, vector = cartesian_traces(assemble_traces(data.problem, basis, quad), quad)
    sw = np.sqrt(quad.weights)
    a = np.concatenate([sw, np.repeat(sw, 3)])[:, None] * np.vstack([scalar, vector.reshape(-1, scalar.shape[1])])
    b = np.concatenate([sw * data.scalar, (sw[:, None] * data.vector).reshape(-1)])
    scales = np.linalg.norm(a, axis=0)
    r = np.linalg.qr(np.column_stack([a / scales, b]), mode="r")
    fits = []
    for degree in degrees:
        n = 3 * (degree + 1) ** 2
        u, sigma, vt = np.linalg.svd(r[:n, :n])
        keep = sigma >= svd_tol * sigma[0]
        c = (vt.T[:, keep] @ ((u.T[keep] @ r[:n, -1]) / sigma[keep])) / scales[:n]
        fits.append((int(np.count_nonzero(keep)), float(np.linalg.norm(a[:, :n] @ c - b)), c, sigma))
    return fits


# 3N = 528 rows of 76 columns (K = 4 on 8 x 22) in blocks of whole samples, at
# most 1, 50 or 170 rows: one sample (3 rows, narrower than [A | b]), and 16 or
# 56 samples (48 or 168 rows) with a ragged tail
@pytest.mark.parametrize("block_rows", [1, 50, 170])
@pytest.mark.parametrize("problem", ["III", "IV"])
@pytest.mark.parametrize("surface", ["sphere", "triaxial"])
def test_row_block_qr_matches_one_qr_of_the_whole_matrix(monkeypatch, surface, problem, block_rows):
    quad = make_quadrature(OFF_CENTER[surface], 8, 22)
    basis = elastic_basis(M, 4)
    data, _ = kelvin_data(M, quad, POLES[surface], 1, problem)
    degrees = tuple(range(5))
    reference = single_qr_fits(data, basis, quad, degrees)

    qr_rows, qr = [], np.linalg.qr

    def counting_qr(ab, mode):
        qr_rows.append(len(ab))
        return qr(ab, mode=mode)

    monkeypatch.setattr(solver, "QR_BLOCK_BYTES", block_rows * 8 * (len(basis) + 1))
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    results = fit_degrees(data, basis, quad, degrees)
    assert len(qr_rows) == -(-quad.n_samples // max(1, block_rows // 3)) >= 4

    for degree, result, (rank, residual, coeffs, _) in zip(degrees, results, reference):
        assert result.kept_rank == rank, degree
        assert abs(result.residual_norm - residual) <= 1e-12 * result.data_norm, degree
        assert np.linalg.norm(result.coefficients - coeffs) <= 1e-12 * np.linalg.norm(coeffs), degree


def test_fit_never_holds_the_whole_trace_matrix(monkeypatch):
    # numpy reports its allocations to tracemalloc: with 1 MiB QR blocks the
    # fit's traced peak stays below the 3N x E floats of the trace matrix
    import tracemalloc

    quad = make_quadrature(OFF_CENTER["sphere"], 48, 96)
    basis = elastic_basis(M, 7)
    data, _ = kelvin_data(M, quad, POLES["sphere"], 1, "IV")
    monkeypatch.setattr(solver, "QR_BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        result, = fit_degrees(data, basis, quad, (7,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.kept_rank == len(basis)
    assert peak < 3 * quad.n_samples * len(basis) * 8


STARS = {
    "star_x": StarShaped(coeffs=((0, 1, 1.0), (2, 3, 0.15))),  # fixed by x -> -x alone
    "star_generic": StarShaped(coeffs=((0, 1, 1.0), (2, 2, 0.1), (2, 3, 0.15))),  # by no reflection
}
FOLD_CASES = [("sphere", "III", "rotation"), ("spheroid", "IV", "kelvin"), ("triaxial", "III", "kelvin"),
              ("star_x", "IV", "kelvin"), ("star_generic", "III", "kelvin")]


def fold_case(surface, problem, source, n_theta, n_phi, degree):
    quad = make_quadrature({**SURFACES, **STARS}[surface], n_theta, n_phi)
    if source == "kelvin":
        data, _ = kelvin_data(M, quad, POLES.get(surface, (0.4, -0.3, 5.1)), 1, problem)
    else:
        data = BoundaryData(problem, np.zeros(quad.n_samples), quad.rotation_fields[0])
    degrees = tuple(range(degree + 1))
    basis = elastic_basis(M, degree)
    return fit_degrees(data, basis, quad, degrees), single_qr_fits(data, basis, quad, degrees)


# 16 x 32 at K = 8, and 5 x 9 (odd n_theta: z fixes the equator row; odd n_phi:
# no x reflection) at K = 5, the largest degree its 135 rows admit
@pytest.mark.parametrize("n_theta, n_phi, degree", [(16, 32, 8), (5, 9, 5)])
@pytest.mark.parametrize("surface, problem, source", FOLD_CASES)
def test_folded_fit_matches_one_qr_of_the_whole_matrix(surface, problem, source, n_theta, n_phi, degree):
    results, reference = fold_case(surface, problem, source, n_theta, n_phi, degree)
    for k, result, (rank, residual, coeffs, sigma) in zip(range(degree + 1), results, reference):
        assert result.kept_rank == rank, k
        assert abs(result.residual_norm - residual) <= 1e-12 * result.data_norm, k
        # rotation data has the exact solution 0: both sides are rounding noise
        scale = 1.0 if source == "rotation" else np.linalg.norm(coeffs)
        assert np.linalg.norm(result.coefficients - coeffs) <= 1e-12 * scale, k
        # the classes' singular values, merged, are the global list in descending order
        assert np.all(np.diff(result.singular_values) <= 0.0)
        np.testing.assert_allclose(result.singular_values, sigma, rtol=0.0, atol=1e-13 * sigma[0])
    if (source, n_theta) == ("rotation", 16):
        assert results[-1].kept_rank == 240  # of 243: the sphere's three rotations are not fitted


@pytest.mark.parametrize("surface, problem, source", FOLD_CASES)
def test_folded_fit_at_the_row_limit_keeps_the_rank_of_one_qr(surface, problem, source):
    # 5 x 10 at K = 6: 150 rows for 147 columns.  The x-only star's domain has
    # 25 samples (75 rows) for a class of 77 columns, whose R is padded with
    # zero rows.  Near the row limit the kept columns are badly conditioned:
    # even the generic star's fit, which does not fold, and one QR differ in
    # the coefficients beyond 1e-12, so only ranks and residuals are compared.
    # The spheroid IV fit keeps columns whose traces nearly vanish, with
    # coefficients near 1e10, so its residual is cancellation noise on every
    # path (unfolded, it differs from one QR's by about 1e-5 of the data
    # norm); only its rank is compared.
    results, reference = fold_case(surface, problem, source, 5, 10, 6)
    for k, result, (rank, residual, _, _) in zip(range(7), results, reference):
        assert result.kept_rank == rank, k
        if surface != "spheroid":
            assert abs(result.residual_norm - residual) <= 1e-12 * result.data_norm, k
    if surface == "star_x":
        quad = make_quadrature(STARS[surface], 5, 10)
        perms, _, _, columns = solver._parity_classes(elastic_basis(M, 6), quad)
        domain = np.unique(perms.min(axis=0))
        assert len(domain) == 25 and max(len(cols) for cols in columns) == 77


def test_parities_are_the_reflection_signs_of_the_elements():
    # g v(g x) = s v(x) under x_a -> -x_a: every term x^mono of component j has the sign (-1)^(mono_a + [a = j]) = s
    basis = elastic_basis(M, 8)
    for element, signs in zip(basis.elements, solver._parities(basis), strict=True):
        for j, component in enumerate(element.field):
            assert all((-1) ** (mono[a] + (a == j)) == signs[a] for mono in component.terms for a in range(3))


def test_fit_assembles_only_the_degrees_it_fits(monkeypatch):
    # a degree-2 fit on a K=8 basis assembles the 27 columns through degree 2,
    # and equals the fit on the K=2 basis
    quad = make_quadrature(SURFACES["triaxial"], 16, 32)
    data, _ = kelvin_data(M, quad, POLES["triaxial"], 1, "III")
    widths, assemble = [], solver.assemble_traces

    def recording(*args, **kwargs):
        traces = assemble(*args, **kwargs)
        widths.append(traces.shape[1])
        return traces

    monkeypatch.setattr(solver, "assemble_traces", recording)
    result, = fit_degrees(data, elastic_basis(M, 8), quad, (2,))
    assert widths and set(widths) == {27}
    alone = fit(data, elastic_basis(M, 2), quad)
    tol = 1e-12 * result.data_norm
    assert result.kept_rank == alone.kept_rank
    assert abs(result.residual_norm - alone.residual_norm) <= tol
    assert np.max(np.abs(result.coefficients - alone.coefficients)) <= 1e-12 * np.max(np.abs(alone.coefficients))
    assert np.max(np.abs(result.scalar_misfit - alone.scalar_misfit)) <= tol
    assert np.max(np.abs(result.vector_misfit - alone.vector_misfit)) <= tol


def test_basis_of_lower_degree_is_a_prefix():
    top = elastic_basis(M, max(DEGREES))
    for k in DEGREES:
        assert elastic_basis(M, k).elements == top.elements[: 3 * (k + 1) ** 2]
        assert top.prefix(k).elements == top.elements[: 3 * (k + 1) ** 2] and top.prefix(k).max_degree == k
    assert top.prefix(top.max_degree) is top


def test_fit_builds_no_element_and_prefixes_share_the_layout(monkeypatch, sphere_quad):
    data, _ = kelvin_data(M, sphere_quad, (0.4, -0.3, 2.5), 2, "IV")
    built, polys = [], []
    init, poly_init, of_terms = VecPoly3.__init__, Poly3.__init__, Poly3.of_terms
    monkeypatch.setattr(VecPoly3, "__init__", lambda self, *comps: built.append(self) or init(self, *comps))
    # a Poly3 is made by its constructor or by of_terms
    monkeypatch.setattr(Poly3, "__init__", lambda self, *args: polys.append(self) or poly_init(self, *args))
    monkeypatch.setattr(Poly3, "of_terms", classmethod(lambda cls, terms: polys.append(terms) or of_terms(terms)))
    solid_harmonics.cache_clear()
    basis = elastic_basis(M, 6)
    fit(data, basis, sphere_quad)
    assert built == [] and polys == [] and "elements" not in vars(basis)
    assert solid_harmonics.cache_info()[:2] == (0, 0)  # no hit and no miss: never called
    for k in range(basis.max_degree + 1):
        blocks = basis.prefix(k).layout.blocks
        assert len(blocks) == 2 * k + 2
        assert all(new is old for (_, _, new), (_, _, old) in zip(blocks, basis.layout.blocks))
    assert len(basis.elements) == len(built) == 147  # the elements are built on first use


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
    if isinstance(source, KelvinSource):
        data, _ = kelvin_data(M, quad, source.y0, source.row, problem)
    else:
        data = BoundaryData(problem, np.zeros(quad.n_samples), quad.rotation_fields[source.index])
    for degree in (2, 5, 8):
        # equal field by field; NaN columns (no defect, no probe) compare equal
        np.testing.assert_array_equal(columns(shuffled[degree]), columns(ordered[degree]))
        row = ordered[degree]
        alone = fit(data, elastic_basis(M, degree), quad)
        tol = 1e-12 * row.data_norm
        assert row.kept_rank == alone.kept_rank
        assert abs(row.residual_l2 - alone.residual_norm) <= tol
        assert abs(row.residual_max - max_misfit(alone.scalar_misfit, alone.vector_misfit)) <= tol
