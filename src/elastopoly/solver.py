"""Boundary least-squares solver for the third and fourth problems.

The trace map sends each basis element to its boundary data pair — (normal
displacement, tangential traction) for problem III, (tangential displacement,
normal traction) for problem IV — sampled on a surface quadrature.  Fitting
minimizes the weighted-L2 misfit over basis coefficients with per-column
normalization and a truncated SVD, the standard regularization for the
exponentially ill-conditioned collocation matrices these bases produce.

Data of either problem is one `BoundaryData(problem, scalar, vector)`:
`split_trace` alone says which parts of (u, Tu) make up the scalar and the
tangential vector, and a fit reads the problem from its data.  Messages keep
the paper's names, phi/Phi for problem III and psi/Psi for problem IV.

The tangential rigid rotations matter only for problem III, and this module
alone applies that rule: a problem-III fit reports the components of its
displacement along the quadrature's `rotation_fields` (none on a generic
surface), and `compatibility_defect` of problem-IV data is empty.

The basis is ordered by degree and the scaling is per column, so the scaled
degree-k matrix is a column prefix of the degree-K one.  A degree sweep
therefore assembles the traces once, at K, and reduces [A | b] once by
Householder QR (R only, Q never formed).  The column scales are the column
norms of R, which are those of A; each degree then needs just the truncated
SVD of the leading n x n block of R with its columns scaled, n = 3(k+1)^2,
while the last column of R holds Q^T b.  Householder QR is columnwise
backward stable, so scaling after the QR keeps the guarantee of scaling
before it.  Truncation only affects the solution below the cutoff; the
reported residual is always recomputed directly from the fitted field.

A fit is folded by the surface's reflections.  Each basis element has a
parity under every coordinate reflection x_a -> -x_a, and under the group G
that the quadrature's `reflections` generate (|G| = 1, 2, 4 or 8) the traces
of different parity classes are orthogonal in the weighted inner product:
R is block-diagonal by class.  So each class is fitted on its own, on the
fundamental domain (one sample per orbit of G, weighted by the whole
orbit), against the class's part of the data, (1/|G|) sum_g chi(g) D_g
b(g n) with D_g = diag(1, g) on [scalar; Cartesian vector].  The fit keeps
one R per class and takes one SVD per class and degree, over the class's
columns through that degree; the cutoff stays svd_tol times the degree's
largest singular value over all classes, and the reported singular values
are all classes' merged in descending order, so the fit is the unfolded
one up to rounding.  A quadrature without reflections (a generic star, an
off-center surface, a hand-built quadrature) is the trivial group: one
class over every sample, the same code.

The trace rows are assembled from the basis in chunks of CHUNK_POINTS
samples, one degree block at a time through `ElasticBasis.layout`, the
degree-k elements being columns 3k^2 .. 3(k+1)^2 (`basis.degree_columns`).  Each
block is contracted to tractions and written straight into three rows per
sample: the scalar trace, and the vector trace in the sample's orthonormal
tangent frame (`SurfaceQuadrature.tangents`).  The frames exist only in
these rows and the matching rows of b; everything a fit reports is
Cartesian.  The whole trace matrix T (3N, E) is never held: a fit assembles
the traces of one block of whole domain samples at a time, at most
QR_BLOCK_BYTES of [A | b] over all classes, copies each class's columns into
its QR buffer and reduces R <- QR of [R; A[rows] | b[rows]] at once.  The
peak footprint is the basis and its layout, a few block-sized arrays (the
assembled block, the class buffers and the two working copies
`np.linalg.qr` makes of one class's input) and O(E^2 / |G|) for the Rs.

A fitted field is one polynomial, sampled once (`_collapse`): at the
quadrature, its displacement and traction, split by `split_trace`, give the
misfits, residuals and rotation components; at interior points, the
displacement and stress of `evaluate_solution`.  A single polynomial, rigid
or Kelvin field is sampled by `field_samples` instead and split by the same
`split_trace`; `field_data` makes that its `BoundaryData`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .basis import Material, ElasticBasis, _harmonic_rows, degree_columns
from .geometry import SurfaceQuadrature
from .ioutil import csv_lines
from .operators import KelvinField, RigidDisplacement, traction, traction_of_gradient
from .polyalg import CoefficientBlocks, VecPoly3, degree_monomials

TANGENCY_TOL = 1e-8  # relative to max |data|, floored at 1
CHUNK_POINTS = 256  # samples per chunk of the trace assembly and field evaluation
QR_BLOCK_BYTES = 16 << 20  # new rows per step of the least-squares QR, in bytes of [A | b]

PROBLEM_III = "III"
PROBLEM_IV = "IV"


# The paper's names of each problem's scalar and tangential-vector data.
_DATA_NAMES = {PROBLEM_III: ("phi", "Phi"), PROBLEM_IV: ("psi", "Psi")}


def check_problem(problem: str) -> None:
    if problem not in _DATA_NAMES:
        raise ValueError(f"problem must be 'III' or 'IV', got {problem!r}")


def _rotations(problem: str, quad: SurfaceQuadrature) -> list[np.ndarray]:
    """The rotation fields that bear on the problem: the quadrature's for III, none for IV."""
    return quad.rotation_fields if problem == PROBLEM_III else []


@dataclass(frozen=True)
class BoundaryData:
    """Boundary data of one problem: the scalar (N,) and tangential vector
    (N, 3) targets, phi = u . nu and Phi = tangential Tu for problem III,
    psi = Tu . nu and Psi = tangential u for problem IV."""

    problem: str
    scalar: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        check_problem(self.problem)
        object.__setattr__(self, "scalar", np.asarray(self.scalar, dtype=float))
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))
        scalar_name, vector_name = _DATA_NAMES[self.problem]
        if self.scalar.ndim != 1 or self.vector.shape != (self.scalar.size, 3):
            raise ValueError(f"{scalar_name} must be (N,) and {vector_name} (N, 3)")
        for name, arr in ((scalar_name, self.scalar), (vector_name, self.vector)):
            bad = np.count_nonzero(~np.isfinite(arr))
            if bad:
                raise ValueError(f"boundary data {name} has {bad} non-finite (nan or inf) values")

    @property
    def n_samples(self) -> int:
        return self.scalar.size


@dataclass(frozen=True)
class FitResult:
    """Coefficients and diagnostics of one boundary least-squares solve.  The
    fields up to the misfits are the keys of `fit.json`, in its order."""

    problem: str
    residual_norm: float
    data_norm: float
    kept_rank: int
    svd_tol: float
    coefficients: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    rotation_components: np.ndarray | None = field(default=None, repr=False)
    scalar_misfit: np.ndarray | None = field(default=None, repr=False)
    vector_misfit: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """The fields but the misfits; rotation_components only when present."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if not f.name.endswith("_misfit")}
        if self.rotation_components is None:
            del out["rotation_components"]
        return out


# -- trace assembly ---------------------------------------------------------------


def _field_chunks(layout: CoefficientBlocks, points: np.ndarray):
    """Sample fields laid out as pairs of groups (values, then gradients, as
    in `ElasticBasis.layout`), one chunk of CHUNK_POINTS points at a time.

    Yields (point rows, field columns, values (e, n, 3), gradients
    (e, n, 3, 3)) per pair, with values[..., j] = v_j and gradients[..., a, j]
    = d v_j / d x_a.  Both are strided views of component-major products, so
    each component is a contiguous (e, n) block, normals (n, 3) broadcast
    over the fields and the point axis runs innermost.  The columns count the
    fields of a chunk's pairs in order.  Each pair's products are formed when
    it is reached, so a chunk holds one pair at a time.
    """
    for start in range(0, len(points), CHUNK_POINTS):
        rows = slice(start, min(start + CHUNK_POINTS, len(points)))
        groups, first = layout.eval(points[rows]), 0
        for values in groups:
            n = values.shape[1]
            cols = slice(first, first + len(values) // 3)
            first = cols.stop
            yield (rows, cols, values.reshape(3, -1, n).transpose(1, 2, 0),
                   next(groups).reshape(3, 3, -1, n).transpose(2, 3, 0, 1))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _scalar_and_full(problem: str, u: np.ndarray, t: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The problem's scalar datum and the field whose tangential part is its vector datum."""
    check_problem(problem)
    return (_dot(u, normals), t) if problem == PROBLEM_III else (_dot(t, normals), u)


def split_trace(problem: str, u: np.ndarray, t: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar and vector boundary data of displacements u and tractions t (..., 3).

    Problem III: (u . nu, t - (t . nu) nu); problem IV: (t . nu, u - (u . nu) nu).
    The vector part is tangential by construction.  Normals broadcast against
    the samples' leading axes.
    """
    scalar, full = _scalar_and_full(problem, u, t, normals)
    normal_part, vector = _dot(full, normals), np.empty_like(full)  # keeps the memory layout of full
    for b in range(3):
        vector[..., b] = full[..., b] - normal_part * normals[..., b]
    return scalar, vector


def assemble_traces(problem: str, basis: ElasticBasis, quad: SurfaceQuadrature,
                    samples: slice | np.ndarray = slice(None)) -> np.ndarray:
    """Trace matrix (3m, E) of the basis on the m samples that `samples`
    selects, a slice or an index array (every sample by default), three rows
    per sample.

    Rows 3n, 3n + 1 and 3n + 2 hold the traces at the selection's sample n: the
    scalar trace, then full . e_a in the sample's tangent frame
    e_a = quad.tangents[n, a], with full the traction (III) or displacement
    (IV); as e_a is tangent, no projection is needed.  These frame rows are
    the only place outside the QR input where the frames appear.  The basis
    is evaluated in chunks of CHUNK_POINTS samples, one degree block at a time
    (`ElasticBasis.layout`), and each block's traces are written straight
    into the rows.
    """
    points, normals, tangents = quad.points[samples], quad.normals[samples], quad.tangents[samples]
    traces = np.empty((len(points), 3, len(basis)))
    for rows, cols, values, grads in _field_chunks(basis.layout, points):
        t = traction_of_gradient(basis.material, grads, normals[rows])
        scalar, full = _scalar_and_full(problem, values, t, normals[rows])
        traces[rows, 0, cols] = scalar.T
        for a in range(2):
            traces[rows, a + 1, cols] = _dot(full, tangents[rows, a]).T
    return traces.reshape(-1, len(basis))


def _collapse(basis: ElasticBasis, coefficients: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Displacements (D, M, 3) and gradients (D, M, 3, 3), grad[..., a, j] =
    d u_j / d x_a, at points (M, 3) of the D fields sum_e coefficients[e, d] v_e,
    for coefficients (n, D) over a degree prefix of the basis.  Every degree
    block's rows of `ElasticBasis.layout` are contracted with the
    coefficients, which collapses each field to one polynomial, sampled once
    in chunks of CHUNK_POINTS points: only the collapse grows with the basis."""
    degree, d = basis.prefix_degree(len(coefficients)), coefficients.shape[1]
    blocks = basis.layout.blocks[:2 * degree + 2]
    end = blocks[-2][1]  # the degree-k values reach the last monomial
    values, grads = np.zeros((3, d, end)), np.zeros((9, d, end))
    for k in range(degree + 1):
        c = coefficients[degree_columns(k)].T
        for out, (first, stop, rows) in zip((values, grads), blocks[2 * k:2 * k + 2]):
            out[:, :, first:stop] += c @ rows.reshape(len(out), c.shape[1], -1)
    layout = CoefficientBlocks([(0, end, values.reshape(-1, end)), (0, end, grads.reshape(-1, end))])
    disp, g = np.empty((d, len(points), 3)), np.empty((d, len(points), 3, 3))
    for rows, _, values, grads in _field_chunks(layout, points):
        disp[:, rows], g[:, rows] = values, grads
    return disp, g


def field_samples(material: Material, obj, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Displacement and traction samples (N, 3) of one polynomial, rigid or Kelvin field."""
    if isinstance(obj, RigidDisplacement):
        obj = obj.as_vecpoly()
    if isinstance(obj, VecPoly3):
        return obj.eval(quad.points), traction(material, obj, quad.points, quad.normals)
    if isinstance(obj, KelvinField):
        if obj.material != material:
            raise ValueError("Kelvin field material differs from the check material")
        return obj.eval(quad.points), obj.traction(quad.points, quad.normals)
    raise TypeError(f"unsupported field type {type(obj).__name__}")


def field_data(problem: str, material: Material, obj, quad: SurfaceQuadrature) -> BoundaryData:
    """The problem's boundary data of one polynomial, rigid or Kelvin field."""
    return BoundaryData(problem, *split_trace(problem, *field_samples(material, obj, quad), quad.normals))


def trace_III(material: Material, p, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(u . nu, Tu - (Tu . nu) nu) samples of one field; the vector part is
    exactly tangential by construction."""
    return split_trace(PROBLEM_III, *field_samples(material, p, quad), quad.normals)


def trace_IV(material: Material, p, quad: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """(u - (u . nu) nu, Tu . nu) samples of one field."""
    scalar, vector = split_trace(PROBLEM_IV, *field_samples(material, p, quad), quad.normals)
    return vector, scalar


# -- fitting ----------------------------------------------------------------------


def check_scalar_weight(scalar_weight: float) -> None:
    if not (np.isfinite(scalar_weight) and scalar_weight >= 0.0):
        raise ValueError(f"scalar_weight must be a finite number >= 0, got {scalar_weight}")


def check_tangential(vector: np.ndarray, quad: SurfaceQuadrature, what: str) -> None:
    """Reject data violating the necessary condition F . nu = 0 on the surface."""
    defect = np.abs(np.einsum("ni,ni->n", vector, quad.normals))
    scale = max(1.0, float(np.max(np.abs(vector), initial=0.0)))
    worst = float(np.max(defect, initial=0.0))
    if worst > TANGENCY_TOL * scale:
        raise ValueError(
            f"{what} is not tangential: max |F . nu| = {worst:.3e} exceeds "
            f"{TANGENCY_TOL:g} * scale; a solution requires F . nu = 0 on the surface"
        )


def _parities(basis: ElasticBasis) -> np.ndarray:
    """Signs (E, 3): under x_a -> -x_a each element v maps to itself times
    parities[e, a], g v(g x) = parities[e, a] v(x).  The element of row i on
    the harmonic omega, delta_ij omega + Lambda_k |x|^2 d_i d_j omega in its
    component j, has omega's x_a parity (every term of omega has it), with
    one more sign when a = i."""
    monos = [degree_monomials(k)[np.argmax(_harmonic_rows(k) != 0.0, axis=1)] for k in range(basis.max_degree + 1)]
    return np.where((np.concatenate(monos)[:, None] + np.eye(3, dtype=int)) % 2, -1.0, 1.0).reshape(-1, 3)


def _parity_classes(basis: ElasticBasis, quad: SurfaceQuadrature):
    """The reflection group G of the quadrature and the basis columns by parity class.

    Returns each element g's sample permutation (|G|, N) and axis signs
    (|G|, 3), the classes' characters (C, |G|), chi(g) the sign of the
    class's elements under g, and each class's columns in basis order.  The
    trivial group is one class of every column.
    """
    perms, signs = [np.arange(quad.n_samples)], [np.ones(3)]
    for axis, perm in quad.reflections:
        flip = np.where(np.arange(3) == axis, -1.0, 1.0)
        perms, signs = perms + [perm[p] for p in perms], signs + [s * flip for s in signs]
    signs = np.array(signs)
    chars = np.prod(np.where(signs < 0.0, _parities(basis)[:, None], 1.0), axis=2)  # (E, |G|)
    classes, label = np.unique(chars, axis=0, return_inverse=True)
    return np.array(perms), signs, classes, [np.flatnonzero(label.reshape(-1) == c) for c in range(len(classes))]


def _class_factors(problem: str, basis: ElasticBasis, quad: SurfaceQuadrature, domain: np.ndarray,
                   row_weights: np.ndarray, b: np.ndarray, columns: list[np.ndarray]) -> list[np.ndarray]:
    """R (n_c + 1, n_c + 1) of each class's [A | b], A = row_weights * T[:, columns[c]]
    on the domain samples, reduced as R <- qr([R; A[rows] | b[rows]]) over
    blocks of whole samples.  Each block's traces are assembled once for
    every class; a class with fewer rows than columns gets zero rows."""
    m = len(domain)
    block_samples = max(1, QR_BLOCK_BYTES // (8 * 3 * (len(basis) + 1)))
    buffers = [np.empty((len(cols) + 1 + 3 * min(block_samples, m), len(cols) + 1)) for cols in columns]
    r_rows = [0] * len(columns)
    for start in range(0, m, block_samples):
        rows = slice(3 * start, 3 * min(start + block_samples, m))
        traces = assemble_traces(problem, basis, quad, domain[start:start + block_samples])
        for cols, ab, top, b_class in zip(columns, buffers, r_rows, b):
            new = ab[top:top + len(traces)]
            np.multiply(row_weights[rows, None], traces[:, cols], out=new[:, :-1])
            new[:, -1] = b_class[rows]
        new_rows = len(traces)
        del traces  # freed before the QRs, which make two working copies of their input
        for c, ab in enumerate(buffers):
            r = np.linalg.qr(ab[:r_rows[c] + new_rows], mode="r")
            r_rows[c] = len(r)
            ab[:len(r)] = r
    for ab, top in zip(buffers, r_rows):
        ab[top:ab.shape[1]] = 0.0
    return [ab[:ab.shape[1]] for ab in buffers]


def fit_degrees(
    data: BoundaryData,
    basis: ElasticBasis,
    quad: SurfaceQuadrature,
    degrees: tuple[int, ...],
    svd_tol: float = 1e-12,
    scalar_weight: float = 1.0,
    project_tangential: bool = False,
) -> list[FitResult]:
    """Weighted least-squares fits of the boundary data over the basis traces
    of data.problem through each of `degrees`, in the order given.

    Each fit minimizes sum_n w_n (scalar_weight * |scalar misfit|^2 +
    |vector misfit|^2) over the 3(k+1)^2 elements of degree <= k.  Columns
    are scaled to unit weighted norm, then singular values below
    svd_tol * sigma_max are discarded (minimum-norm solution).  A problem-III
    fit on a symmetric surface reports the weighted components of the fitted
    displacement along the quadrature's rotation fields, making the arbitrary
    rigid part of the solution visible.  Vector data whose normal part
    fails `check_tangential` is rejected unless project_tangential drops that
    part; a normal part that passes counts in the residual and data norm.
    A fit with fewer than 3(k+1)^2 rows (3 per sample) is refused.  Only the
    basis through max(degrees) is assembled, on the fundamental domain of the
    quadrature's reflections, in blocks of whole samples each reduced into
    one R per parity class at once; tangent frames appear only in these rows
    and b.
    Reports are Cartesian: each degree's fitted field is sampled once
    (`_collapse`) and split by `split_trace`.  The misfits are against the
    data as given, the residual and data norm weighted norms against the
    target, the data with its vector part projected under project_tangential.
    """
    if data.n_samples != quad.n_samples:
        raise ValueError(f"data has {data.n_samples} samples but quadrature has {quad.n_samples}")
    if not (0.0 < svd_tol < 1.0):
        raise ValueError(f"svd_tol must be in (0, 1), got {svd_tol}")
    check_scalar_weight(scalar_weight)
    if not degrees or not all(0 <= k <= basis.max_degree for k in degrees):
        raise ValueError(f"degrees must lie in 0..{basis.max_degree}, got {list(degrees)}")
    n, n_columns = quad.n_samples, degree_columns(max(degrees)).stop
    if 3 * n < n_columns:
        raise ValueError(f"the fit through degree {max(degrees)} is underdetermined: {3 * n} rows "
                         f"(3 per sample) for {n_columns} coefficients; refine the quadrature or lower the degree")

    if not project_tangential:
        check_tangential(data.vector, quad, _DATA_NAMES[data.problem][1])
    basis = basis.prefix(max(degrees))
    perms, signs, chars, columns = _parity_classes(basis, quad)

    # The long-lived arrays (the target, the weighted data rows and the QR
    # buffers) come first: allocated among the block temporaries below, they
    # would keep freed heap from the system.
    target = data.vector
    if project_tangential:
        target = target - _dot(target, quad.normals)[:, None] * quad.normals
    sqrt_weight = np.sqrt(scalar_weight)
    data_norm = float(np.hypot(sqrt_weight * quad.norm(data.scalar), quad.norm(target)))
    # The fundamental domain: one sample per orbit of G, weighted by its orbit.
    representative = perms.min(axis=0)
    domain = np.flatnonzero(representative == np.arange(n))
    weights = np.bincount(representative, weights=quad.weights)[domain]
    # Each class's part of the data, (1/|G|) sum_g chi(g) D_g [scalar; vector](g n)
    # on the domain, then sample n's rows 3n, 3n + 1, 3n + 2: the scalar and
    # the vector in the sample's tangent frame.
    mirrored = np.concatenate([data.scalar[perms[:, domain], None], data.vector[perms[:, domain]] * signs[:, None]],
                              axis=2)
    parts = np.einsum("cg,gmk->cmk", chars, mirrored) / len(perms)
    row_weights = (np.sqrt(weights)[:, None] * [sqrt_weight, 1.0, 1.0]).reshape(-1)
    b = row_weights * np.concatenate(
        [parts[..., :1], np.einsum("cmj,maj->cma", parts[..., 1:], quad.tangents[domain])], axis=2
    ).reshape(len(chars), -1)

    # Elements are ordered by degree, so with D = diag(scales) every degree's
    # scaled matrix is a column prefix of its class's: A[:, :n] D^-1 =
    # Q_n R[:n, :n] D^-1 and Q_n^T b = R[:n, -1].  One SVD per class and
    # degree; the cutoff is relative to the degree's largest singular value.
    factors = _class_factors(data.problem, basis, quad, domain, row_weights, b, columns)
    scales = np.empty(len(basis))
    for cols, r in zip(columns, factors):
        col_norms = np.linalg.norm(r[:, :-1], axis=0)
        scales[cols] = np.where(col_norms > 0.0, col_norms, 1.0)
    sizes = [degree_columns(degree).stop for degree in degrees]
    coefficients = np.zeros((max(sizes), len(degrees)))
    solves = []
    for d, size in enumerate(sizes):
        svds = []
        for cols, r in zip(columns, factors):
            cols = cols[:np.searchsorted(cols, size)]
            if len(cols):
                svds.append((cols, r[:len(cols), -1],
                             *np.linalg.svd(r[:len(cols), :len(cols)] / scales[cols], full_matrices=False)))
        sigma_max = max(np.max(sigma, initial=0.0) for *_, sigma, _ in svds)
        kept = 0
        for cols, qtb, u_svd, sigma, vt in svds:
            keep = (sigma > 0.0) & (sigma >= svd_tol * sigma_max)
            inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
            coefficients[cols, d] = (vt.T @ (inv * (u_svd.T @ qtb))) / scales[cols]
            kept += int(np.count_nonzero(keep))
        solves.append((kept, np.sort(np.concatenate([svd[3] for svd in svds]), kind="stable")[::-1]))

    disp, grads = _collapse(basis, coefficients, quad.points)
    t = traction_of_gradient(basis.material, grads, quad.normals)
    scalar, vector = split_trace(data.problem, disp, t, quad.normals)
    rotations = _rotations(data.problem, quad)
    results = []
    for d, (size, (kept, sigma)) in enumerate(zip(sizes, solves)):
        scalar_misfit, vector_misfit = pointwise_misfit(data, scalar[d], vector[d])
        results.append(FitResult(
            problem=data.problem, coefficients=coefficients[:size, d].copy(),
            residual_norm=float(np.hypot(sqrt_weight * quad.norm(scalar_misfit), quad.norm(vector[d] - target))),
            data_norm=data_norm, kept_rank=kept, singular_values=sigma, svd_tol=svd_tol,
            rotation_components=np.array([quad.inner(disp[d], g) for g in rotations]) if rotations else None,
            scalar_misfit=scalar_misfit, vector_misfit=vector_misfit,
        ))
    return results


def fit(data: BoundaryData, basis: ElasticBasis, quad: SurfaceQuadrature, **options) -> FitResult:
    """The fit over the whole basis: `fit_degrees` at basis.max_degree alone,
    taking the same keyword options."""
    return fit_degrees(data, basis, quad, (basis.max_degree,), **options)[0]


def pointwise_misfit(data: BoundaryData, scalar: np.ndarray, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample scalar (N,) and vector (N, 3) misfits of a fitted field's
    Cartesian data (as split by `split_trace`) against the data as given
    (never projected)."""
    return scalar - data.scalar, vector - data.vector


def max_misfit(ds: np.ndarray, dv: np.ndarray, scalar_weight: float = 1.0) -> float:
    """Uniform-norm residual: largest pointwise misfit magnitude over samples."""
    point = np.sqrt(scalar_weight * ds**2 + np.einsum("ni,ni->n", dv, dv))
    return float(np.max(point, initial=0.0))


def compatibility_defect(data: BoundaryData, quad: SurfaceQuadrature) -> list[float]:
    """Weighted inner products of the problem-III traction datum Phi with each
    tangential rigid rotation of the quadrature; all must vanish for
    solvability.  Empty for problem IV and on a generic surface."""
    return [float(quad.inner(data.vector, g)) for g in _rotations(data.problem, quad)]


def evaluate_solution(result: FitResult, basis: ElasticBasis, points) -> tuple[np.ndarray, np.ndarray]:
    """Displacements (..., 3) and stress tensors (..., 3, 3) of the fitted field
    at points (..., 3).

    The stress is lam (div u) I + mu (grad u + grad u^T), symmetric by
    construction; contracting with a surface normal reproduces the traction
    of the fitted field.  The coefficients, a degree prefix of the basis
    (3(k+1)^2 elements for a fit through degree k), are collapsed to one
    polynomial field and sampled by `_collapse`, as a fit samples its fields
    at the quadrature.
    """
    pts = np.asarray(points, dtype=float)
    disp, g = _collapse(basis, result.coefficients[:, None], pts.reshape(-1, 3))
    # Row k is the traction sigma e_k on the plane with normal e_k; sigma is symmetric.
    stress = traction_of_gradient(basis.material, g[0, :, None], np.eye(3))
    return disp[0].reshape(pts.shape), stress.reshape(pts.shape + (3,))


def fit_result_json(result: FitResult) -> str:
    from .ioutil import json_dumps

    return json_dumps(result.to_dict()) + "\n"


def misfit_csv(result: FitResult, quad: SurfaceQuadrature) -> str:
    lines = csv_lines(np.column_stack([quad.points, quad.weights, result.scalar_misfit, result.vector_misfit]))
    return "\n".join(["x,y,z,w,scalar_misfit,vec_misfit_x,vec_misfit_y,vec_misfit_z", *lines]) + "\n"
