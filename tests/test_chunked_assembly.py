"""The chunked, degree-blocked trace assembly and field evaluation against the
paths they replaced, written out here as the reference: the full-table path,
one `batch_eval` of all 12 E polynomials at every sample, the Hooke
contraction as two einsums, and the III/IV split as einsum projections; and
the per-sample path, gradient products contracted to tractions at each
sample, then split."""

import numpy as np
import pytest

from elastopoly import (
    Ellipsoid,
    Material,
    RigidDisplacement,
    Sphere,
    StarShaped,
    elastic_basis,
    fit,
    kelvin_data,
    kelvin_gradient,
    make_quadrature,
)
from elastopoly import solver
from elastopoly.basis import _diff, hooke
from elastopoly.operators import traction_of_stress
from elastopoly.polyalg import CHUNK_POINTS, _degree_start, batch_eval, eval_blocks, monomial_tables
from elastopoly.solver import (
    assemble_traces,
    split_trace,
    evaluate_solution,
    fit_degrees,
    trace_III,
    trace_IV,
)

from conftest import cartesian_traces

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


def old_traces(problem, fields, quad):
    """Row-stacked T (4N, E) of the full-table path."""
    values, grads = old_values_and_gradients(fields, quad.points)
    nu = quad.normals[:, None, :]
    t = old_traction(grads, nu)
    scalar, full = (values, t) if problem == "III" else (t, values)
    scalar = np.einsum("...j,...j->...", scalar, nu)
    vector = full - np.einsum("...j,...j->...", full, nu)[..., None] * nu
    return np.vstack([scalar, vector.transpose(0, 2, 1).reshape(-1, len(fields))])


def in_tangent_frames(rows, quad):
    """A 4N-row matrix in the 3N-row layout of `assemble_traces` (per sample
    the scalar row, then the vector rows in the sample's tangent frame), and
    separately the normal components (N, E) of those vector rows."""
    n = quad.n_samples
    vector = rows[n:].reshape(n, 3, -1)
    tangential = np.einsum("naj,nje->nae", quad.tangents, vector)
    frames = np.concatenate([rows[:n, None], tangential], axis=1).reshape(3 * n, -1)
    return frames, np.einsum("nj,nje->ne", quad.normals, vector)


def degree_blocks(degree):
    return [slice(3 * k * k, 3 * (k + 1) ** 2) for k in range(degree + 1)]


def assert_blocks_close(new, old, degree, rtol=1e-12):
    """Each degree block of columns within rtol of its largest entry.  (Single
    columns can vanish to round-off, e.g. the III scalar trace of a rotation
    on the sphere.)"""
    for cols in degree_blocks(degree):
        err, scale = np.max(np.abs(new[:, cols] - old[:, cols])), np.max(np.abs(old[:, cols]))
        assert err <= rtol * scale, (cols, err / scale)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("size, degree", [(RAGGED, 12), (SMALL, 6)])
def test_chunked_traces_match_full_table(surface, size, degree):
    quad = make_quadrature(SURFACES[surface], *size)
    basis = elastic_basis(M, degree)
    fields = [el.field for el in basis]
    for problem in ("III", "IV"):
        traces = assemble_traces(problem, basis, quad)
        full_rows = old_traces(problem, fields, quad)
        expected, normal = in_tangent_frames(full_rows, quad)
        assert traces.shape == (3 * quad.n_samples, len(fields))
        assert_blocks_close(traces, expected, degree)
        for cols in degree_blocks(degree):  # the rows the frames drop carried nothing
            assert np.max(np.abs(normal[:, cols])) <= 1e-14 * np.max(np.abs(full_rows[:, cols])), cols


def old_traction_of_gradient(material, grad, normals):
    """The replaced per-sample Hooke contraction lam tr(g) nu + mu (g^T nu + g nu)."""
    nu = [normals[..., a, None] for a in range(3)]
    t = grad[..., 0, :] * nu[0]
    g_nu = grad[..., :, 0] * nu[0]
    for a in (1, 2):
        t += grad[..., a, :] * nu[a]
        g_nu += grad[..., :, a] * nu[a]
    t += g_nu
    t *= material.mu
    div = material.lam * (grad[..., 0, 0] + grad[..., 1, 1] + grad[..., 2, 2])
    for b in range(3):
        t[..., b] += div * normals[..., b]
    return t


def old_sample_rows(problem, basis, quad, samples, columns):
    """The rows of `assemble_traces` by the replaced per-sample path: each
    picked degree's values and nine partials (3, 3, e, n), d v_j / d x_a, as
    the layout held them, sampled per chunk; each sample's tractions from
    `old_traction_of_gradient`, split by `split_trace`, the vector part on
    the sample's frame."""
    points, normals, tangents = quad.points[samples], quad.normals[samples], quad.tangents[samples]
    layout = []
    for first, end, values in basis.pick(columns)[0][::2]:
        k = next(k for k in range(basis.max_degree + 1) if _degree_start(k) == first)
        partials = np.stack([_diff(values, k, a) for a in range(3)])
        layout += [(first, end, values), (_degree_start(k - 1), first, partials)]
    traces = np.empty((len(points), 3, len(columns)))
    for rows, products in eval_blocks(layout, points):
        at = 0
        for values, grads in zip(products, products):  # each degree's pair of products
            cols, at = slice(at, at + values.shape[1]), at + values.shape[1]
            t = old_traction_of_gradient(M, grads.transpose(2, 3, 0, 1), normals[rows])
            scalar, vector = split_trace(problem, values.transpose(1, 2, 0), t, normals[rows])
            traces[rows, 0, cols] = scalar.T
            traces[rows, 1:, cols] = np.einsum("emj,maj->mae", vector, tangents[rows])
    return traces.reshape(3 * len(points), -1)


@pytest.mark.parametrize("problem", ["III", "IV"])
@pytest.mark.parametrize("surface", ["spheroid", "star_generic"])
def test_trace_rows_match_the_per_sample_traction_path(surface, problem):
    """Per-sample weights on the value and stress rows give, column by
    column, the traces of the gradient rows contracted to tractions at each
    sample: the folded spheroid's 8 classes on its 600-sample domain (two
    chunks and a ragged 88), with its shared tables, and a generic star's
    one class on every sample."""
    if surface == "spheroid":
        quad, degree = make_quadrature(SURFACES["spheroid"], 48, 96), 14
    else:
        quad, degree = make_quadrature(StarShaped(coeffs=((0, 1, 1.0), (2, 2, 0.1), (2, 3, 0.15))), 16, 32), 8
    basis = elastic_basis(M, degree)
    plan = solver.plan_fit(basis, quad)
    columns, domain = plan.columns, plan.domain
    assert (len(columns), len(domain)) == ((8, 2 * CHUNK_POINTS + 88) if surface == "spheroid" else (1, 512))
    tables = list(monomial_tables(quad.points[domain], basis.layout[-2][1]))
    for cols in columns:
        new = assemble_traces(problem, basis, quad, domain, cols, tables)
        old = old_sample_rows(problem, basis, quad, domain, cols)
        err, scale = np.max(np.abs(new - old), axis=0), np.max(np.abs(old), axis=0)
        assert np.all(err <= 1e-14 * scale), np.max(err / scale)


@pytest.mark.parametrize("problem", ["III", "IV"])
def test_sample_range_rows_are_those_of_the_whole_assembly(problem):
    """A range of samples gets its own rows: the same numbers as the whole
    matrix's three rows per sample of those samples, whatever the chunking."""
    quad = make_quadrature(SURFACES["triaxial"], *RAGGED)
    basis = elastic_basis(M, 5)
    whole, n = assemble_traces(problem, basis, quad), quad.n_samples
    for start, stop in [(0, n), (0, 1), (7, CHUNK_POINTS + 9), (n - 5, n)]:
        rows = assemble_traces(problem, basis, quad, slice(start, stop))
        assert rows.shape == (3 * (stop - start), len(basis))
        assert_blocks_close(rows, whole[3 * start:3 * stop], basis.max_degree, rtol=1e-14)


@pytest.mark.parametrize("surface", SURFACES)
def test_single_field_traces_match_assembly_columns(surface):
    """trace_III/trace_IV sample one field through `traction` and
    `split_trace`; the assembly reads the degree blocks from the basis layout."""
    quad = make_quadrature(SURFACES[surface], *RAGGED)
    basis = elastic_basis(M, 4)
    n = quad.n_samples
    for problem in ("III", "IV"):
        traces = assemble_traces(problem, basis, quad)
        single = np.empty((4 * n, len(basis)))
        for e, el in enumerate(basis):
            if problem == "III":
                scalar, vector = trace_III(M, el.field, quad)
            else:
                vector, scalar = trace_IV(M, el.field, quad)
            single[:n, e], single[n:, e] = scalar, vector.reshape(-1)
        assert_blocks_close(in_tangent_frames(single, quad)[0], traces, basis.max_degree)


def test_non_homogeneous_fields_between_degree_blocks():
    """A field of degrees 0 and 1 goes through the single-field sampler."""
    quad = make_quadrature(SURFACES["triaxial"], *RAGGED)
    rigid = RigidDisplacement(a=(0.3, -1.2, 0.7), b=(0.5, 0.25, -1.0), x0=(0.1, 0.0, -0.2)).as_vecpoly()
    vector, scalar = trace_IV(M, rigid, quad)
    u = rigid.eval(quad.points)
    u_n = np.einsum("ni,ni->n", u, quad.normals)
    assert np.max(np.abs(scalar)) <= 1e-13  # a rigid field carries no traction
    assert np.max(np.abs(vector - (u - u_n[:, None] * quad.normals))) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("problem", ["III", "IV"])
@pytest.mark.parametrize("surface", SURFACES)
def test_collapsed_fitted_rows_match_trace_matrix_product(surface, problem):
    """Each degree's fitted field, collapsed to one polynomial and sampled,
    gives the rows T[:, :n] @ c of the whole trace matrix: the fit's scalar
    and vector misfits are those rows, lifted to Cartesian data, against
    the data."""
    quad = make_quadrature(SURFACES[surface], *RAGGED)
    basis = elastic_basis(M, 12)
    data, _ = kelvin_data(M, quad, (0.4, -0.3, 5.1), 1, problem)
    degrees = (3, 8, 12)
    results = fit_degrees(data, basis, quad, degrees)
    traces, n = assemble_traces(problem, basis, quad), quad.n_samples
    for d, result in enumerate(results):
        expected = traces[:, :len(result.coefficients)] @ result.coefficients
        scale = np.max(np.abs(expected))
        scalar, vector = cartesian_traces(expected[:, None], quad)
        assert result.scalar_misfit.shape == (n,) and result.vector_misfit.shape == (n, 3)
        assert np.max(np.abs(result.scalar_misfit - (scalar[:, 0] - data.scalar))) <= 1e-12 * scale, degrees[d]
        assert np.max(np.abs(result.vector_misfit - (vector[:, :, 0] - data.vector))) <= 1e-12 * scale, degrees[d]


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
    (-kelvin_gradient(M, rng.normal(size=(25, 3)) + 3.0), unit_normals(25, 1)),  # Kelvin kernel
    (rng.normal(size=(3, 3)), unit_normals()),              # a single point
    (rng.normal(size=(12, 1, 3, 3)), np.eye(3)),            # stress rows sigma e_k
    (rng.normal(size=(3, 3, 7, 30)).transpose(2, 3, 0, 1), unit_normals(30)),  # the assembly's strided view
])
def test_hooke_traction_matches_einsum_formula(grad, normals):
    expected = old_traction(grad, normals)
    t = traction_of_stress(hooke(M, np.moveaxis(grad, (-2, -1), (0, 1))), normals)
    assert t.shape == expected.shape
    assert np.max(np.abs(t - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_streamed_tables_are_freed_chunk_by_chunk(monkeypatch):
    # a one-class fit (assembly and collapse) and the reciprocity matrix of
    # `check` stream their monomial tables: each chunk's table is freed
    # before the next chunk's is built
    import weakref

    from elastopoly import polyalg
    from elastopoly.harness import reciprocity_matrix

    built, stream = [], polyalg.monomial_tables

    def tracking(*args):
        for rows, table in stream(*args):
            assert all(ref() is None for ref in built), "a chunk's monomial table outlived its chunk"
            built.append(weakref.ref(table))
            yield rows, table
            del table

    monkeypatch.setattr(polyalg, "monomial_tables", tracking)
    quad = make_quadrature(Sphere(center=(0.1, 0.2, 0.3)), 16, 32)  # no reflection: one class, two chunks
    basis = elastic_basis(M, 6)
    data, _ = kelvin_data(M, quad, (0.4, -0.3, 3.0), 1, "IV")
    fit(data, basis, quad)
    reciprocity_matrix(basis, [3, 20, 40], quad)
    assert len(built) >= 6
