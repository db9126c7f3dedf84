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
    polyalg,
    run_study,
    solid_harmonics,
    solver,
)
from elastopoly.basis import _parities
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
    factorization before it was split into row blocks and parity classes.
    Also returns the weighted rows A, unscaled."""
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
    return fits, a


# 3N = 528 rows of 76 columns (K = 4 on 8 x 22) in blocks of whole samples, at
# most 1, 50 or 170 rows: one sample (3 rows, narrower than [A | b]), and 16 or
# 56 samples (48 or 168 rows) with a ragged tail.  At the origin the triaxial
# folds into 8 classes on a 22-sample domain: 22, 2 or 1 blocks per class.
ROW_BLOCK_SURFACES = {**OFF_CENTER, "triaxial_at_origin": SURFACES["triaxial"]}


@pytest.mark.parametrize("block_rows", [1, 50, 170])
@pytest.mark.parametrize("problem", ["III", "IV"])
@pytest.mark.parametrize("surface", list(ROW_BLOCK_SURFACES))
def test_row_block_qr_matches_one_qr_of_the_whole_matrix(monkeypatch, surface, problem, block_rows):
    quad = make_quadrature(ROW_BLOCK_SURFACES[surface], 8, 22)
    basis = elastic_basis(M, 4)
    data, _ = kelvin_data(M, quad, POLES[surface.removesuffix("_at_origin")], 1, problem)
    degrees = tuple(range(5))
    reference, _ = single_qr_fits(data, basis, quad, degrees)
    plan = solver.plan_fit(basis, quad)
    columns, domain = plan.columns, len(plan.domain)
    assert len(columns) == (8 if surface.endswith("_at_origin") else 1)

    qr_rows, qr = [], np.linalg.qr

    def counting_qr(ab, mode):
        qr_rows.append(len(ab))
        return qr(ab, mode=mode)

    monkeypatch.setattr(solver, "QR_BLOCK_BYTES", block_rows * 8 * (len(basis) + 1))
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    results = fit_degrees(data, basis, quad, degrees)
    assert len(qr_rows) == len(columns) * -(-domain // max(1, block_rows // 3)) >= 4

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


def test_folded_fit_holds_one_class_buffer_at_a_time():
    # The K=14 spheroid on 48 x 96 folds into 8 classes on a 600-sample
    # domain, one QR block.  Above its inputs the fit holds the widest class's
    # buffer [R; A | b] and the two working copies np.linalg.qr makes of it,
    # the block's monomial tables, and one chunk's products: the values and
    # nine partials of at most the widest degree's fields, the traction's
    # three working arrays and the scalar and frame temporaries (24 floats per
    # field and point).  A (3m, E) trace block, or every class's buffer at
    # once, would not fit beside them.
    import tracemalloc

    from elastopoly.polyalg import CHUNK_POINTS

    degree = 14
    quad = make_quadrature(SURFACES["spheroid"], 48, 96)
    basis = elastic_basis(M, degree)
    data, _ = kelvin_data(M, quad, POLES["spheroid"], 1, "IV")
    plan = solver.plan_fit(basis, quad)
    columns, m, block = plan.columns, len(plan.domain), plan.blocks[0].stop
    width = max(map(len, columns)) + 1
    class_buffer = (width + 3 * block) * width
    tables = block * basis.layout[-2][1]
    products = 24 * 3 * (2 * degree + 1) * CHUNK_POINTS
    bound = 8 * (3 * class_buffer + tables + products)
    assert (len(columns), m, block) == (8, 600, 600)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result, = fit_degrees(data, basis, quad, (degree,))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.kept_rank == len(basis)
    assert peak < bound


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
    return fit_degrees(data, basis, quad, degrees), *single_qr_fits(data, basis, quad, degrees)


# 16 x 32 at K = 8, and 5 x 9 (odd n_theta: z fixes the equator row; odd n_phi:
# no x reflection) at K = 5, the largest degree its 135 rows admit
FOLD_GRIDS = [(16, 32, 8), (5, 9, 5)]


@pytest.mark.parametrize("n_theta, n_phi, degree", FOLD_GRIDS)
@pytest.mark.parametrize("surface, problem, source", FOLD_CASES)
def test_folded_fit_matches_one_qr_of_the_whole_matrix(surface, problem, source, n_theta, n_phi, degree):
    results, reference, a = fold_case(surface, problem, source, n_theta, n_phi, degree)
    for k, result, (rank, residual, coeffs, sigma) in zip(range(degree + 1), results, reference):
        assert result.kept_rank == rank, k
        assert abs(result.residual_norm - residual) <= 1e-12 * result.data_norm, k
        if source == "rotation":
            # the exact solution is 0, so both coefficient vectors are rounding
            # noise: the fitted traces A c of both fits are compared instead
            fitted_gap = np.linalg.norm(a[:, :len(coeffs)] @ (result.coefficients - coeffs))
            assert fitted_gap <= 1e-12 * result.data_norm, k
        else:
            assert np.linalg.norm(result.coefficients - coeffs) <= 1e-12 * np.linalg.norm(coeffs), k
        # the classes' singular values, merged, are the global list in descending order
        assert np.all(np.diff(result.singular_values) <= 0.0)
        np.testing.assert_allclose(result.singular_values, sigma, rtol=0.0, atol=1e-13 * sigma[0])
    if (source, n_theta) == ("rotation", 16):
        assert results[-1].kept_rank == 240  # of 243: the sphere's three rotations are not fitted


@pytest.mark.parametrize("seed", range(5))
def test_folded_fit_comparisons_survive_last_bit_noise_in_the_traces(monkeypatch, seed):
    # every trace entry of both paths scaled by 1 + U(-1.1e-16, 1.1e-16): a
    # change of trace rounding must not turn the comparisons into noise tests
    rng, assemble = np.random.default_rng(seed), solver.assemble_traces

    def noisy(problem, basis, quad, samples=slice(None), columns=None, tables=None, out=None):
        traces = assemble(problem, basis, quad, samples, columns, tables, out)
        traces *= 1.0 + rng.uniform(-1.1e-16, 1.1e-16, traces.shape)
        assert out is None or np.shares_memory(traces, out)  # the noise reaches the fit's QR rows
        return traces

    monkeypatch.setattr(solver, "assemble_traces", noisy)
    monkeypatch.setitem(globals(), "assemble_traces", noisy)
    for case in FOLD_CASES:
        for grid in FOLD_GRIDS:
            test_folded_fit_matches_one_qr_of_the_whole_matrix(*case, *grid)


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
    results, reference, _ = fold_case(surface, problem, source, 5, 10, 6)
    for k, result, (rank, residual, _, _) in zip(range(7), results, reference):
        assert result.kept_rank == rank, k
        if surface != "spheroid":
            assert abs(result.residual_norm - residual) <= 1e-12 * result.data_norm, k
    if surface == "star_x":
        quad = make_quadrature(STARS[surface], 5, 10)
        plan = solver.plan_fit(elastic_basis(M, 6), quad)
        assert len(plan.domain) == 25 and max(len(cols) for cols in plan.columns) == 77


# surface, grid, degree, then the classes, the widest class's columns and the domain samples
PLAN_CASES = {
    "spheroid": (SURFACES["spheroid"], 48, 96, 14, 8, 92, 600),
    "triaxial": (SURFACES["triaxial"], 32, 64, 8, 8, None, 272),
    "star_generic": (STARS["star_generic"], 24, 48, 8, 1, 243, 1152),
}


@pytest.mark.parametrize("block_bytes", [None, 1 << 20])
@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_plan_fit_decides_the_fold_and_the_blocks_without_evaluating(monkeypatch, case, block_bytes):
    def refuse(*args, **kwargs):
        raise AssertionError("plan_fit evaluated the basis")

    surface, n_theta, n_phi, degree, n_classes, widest, m = PLAN_CASES[case]
    quad, basis = make_quadrature(surface, n_theta, n_phi), elastic_basis(M, degree)
    for module in (solver, polyalg):
        monkeypatch.setattr(module, "eval_blocks", refuse)
        monkeypatch.setattr(module, "monomial_tables", refuse)
    if block_bytes:
        monkeypatch.setattr(solver, "QR_BLOCK_BYTES", block_bytes)
    plan = solver.plan_fit(basis, quad)
    assert (len(plan.columns), len(plan.domain)) == (n_classes, m)
    assert widest is None or max(map(len, plan.columns)) == widest
    assert np.array_equal(np.sort(np.concatenate(plan.columns)), np.arange(len(basis)))
    assert abs(plan.weights.sum() - quad.area) <= 1e-14 * quad.area
    if n_classes == 1:
        assert np.array_equal(plan.domain, np.arange(quad.n_samples)) and np.array_equal(plan.weights, quad.weights)
    # the blocks cover the domain in order, each at most QR_BLOCK_BYTES of [A | b] over every column
    step = solver.QR_BLOCK_BYTES // (8 * 3 * (len(basis) + 1))
    assert [(b.start, b.stop) for b in plan.blocks] == [(s, min(s + step, m)) for s in range(0, m, step)]
    assert block_bytes or len(plan.blocks) == 1
    width = max(map(len, plan.columns)) + 1
    assert plan.buffer == (width + 3 * min(step, m), width)


def test_parities_are_the_reflection_signs_of_the_elements():
    # g v(g x) = s v(x) under x_a -> -x_a: every term x^mono of component j has the sign (-1)^(mono_a + [a = j]) = s
    basis = elastic_basis(M, 8)
    for element, signs in zip(basis.elements, _parities(basis.max_degree), strict=True):
        for j, component in enumerate(element.field):
            assert all((-1) ** (mono[a] + (a == j)) == signs[a] for mono in component.terms for a in range(3))


def test_fit_assembles_only_the_degrees_it_fits(monkeypatch):
    # a degree-2 fit on a K=8 basis assembles, per block, each class's share
    # of the 27 columns through degree 2, and equals the fit on the K=2 basis
    quad = make_quadrature(SURFACES["triaxial"], 16, 32)
    data, _ = kelvin_data(M, quad, POLES["triaxial"], 1, "III")
    widths, assemble = {}, solver.assemble_traces

    def recording(problem, basis, quad, samples, columns, *args):
        traces = assemble(problem, basis, quad, samples, columns, *args)
        widths.setdefault(samples[0], []).append(traces.shape[1])
        assert traces.shape[1] == len(columns) and max(columns) < 27
        return traces

    monkeypatch.setattr(solver, "assemble_traces", recording)
    result, = fit_degrees(data, elastic_basis(M, 8), quad, (2,))
    assert widths and all(sum(block) == 27 and len(block) > 1 for block in widths.values())
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
    init, poly_init = VecPoly3.__init__, Poly3.__init__
    # a polynomial is made by its constructor or by of_row, which wraps coefficient rows
    monkeypatch.setattr(VecPoly3, "__init__", lambda self, *comps: built.append(self) or init(self, *comps))
    monkeypatch.setattr(Poly3, "__init__", lambda self, *args: polys.append(self) or poly_init(self, *args))
    for cls, made in ((VecPoly3, built), (Poly3, polys)):
        wrap = cls.of_row
        record = classmethod(lambda _, *args, made=made, wrap=wrap: made.append(args) or wrap(*args))
        monkeypatch.setattr(cls, "of_row", record)
    solid_harmonics.cache_clear()
    basis = elastic_basis(M, 6)
    fit(data, basis, sphere_quad)
    assert built == [] and polys == [] and "elements" not in vars(basis)
    assert solid_harmonics.cache_info()[:2] == (0, 0)  # no hit and no miss: never called
    for k in range(basis.max_degree + 1):
        blocks = basis.prefix(k).layout
        assert len(blocks) == 2 * k + 2
        assert all(new is old for (_, _, new), (_, _, old) in zip(blocks, basis.layout))
    assert len(basis.elements) == len(built) == 147  # the elements are built on first use


def test_fit_degrees_rejects_degrees_outside_the_basis(sphere_quad):
    data = BoundaryData("IV", np.ones(sphere_quad.n_samples), np.zeros((sphere_quad.n_samples, 3)))
    basis = elastic_basis(M, 2)
    for degrees in [(), (3,), (-1, 2)]:
        with pytest.raises(ValueError, match="degrees must lie in 0..2"):
            fit_degrees(data, basis, sphere_quad, degrees)
    for degrees in [(True,), (1, 2.0), (2.5,), ("a",), (2, None)]:  # not integers
        with pytest.raises(ValueError, match="degrees must"):
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
