"""Elasticity operators: Lame operator, boundary traction, Kelvin kernels.

Tractions of polynomial fields come from exact symbolic derivatives evaluated
at the samples; tractions of Kelvin fields come from the closed-form gradient
of the fundamental matrix.  No numerical differentiation anywhere in the
production paths, so quadrature is the only error source in the identity
checks downstream.

Points, normals and sampled fields keep their vector or tensor axes last: a
function of points takes (..., 3) arrays, any leading shape broadcasts, and a
single (3,) point is the case with no leading axes.  Stress components alone
lead, (6, ...) as `basis.hooke` gives them and the basis layout holds them,
so that each component is one plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _PAIR_OF, Material, hooke
from .polyalg import VecPoly3, _check_integer, _diff, batch_eval

_UNIT_NORMAL_TOL = 1e-12


def _lame(material: Material, v: np.ndarray, k: int) -> np.ndarray:
    """mu Laplacian(v) + (lam + mu) grad(div v) of value rows v (3, ..., n) over
    the degree-k monomials, over the degree-(k-2) ones, with the Laplacian
    summed as d_1 d_1 + d_2 d_2 + d_3 d_3 and div v as d_1 v_1 + d_2 v_2 + d_3 v_3."""
    second = [_diff(_diff(v, k, a), k - 1, a) for a in range(3)]
    div = _diff(v[0], k, 0) + _diff(v[1], k, 1) + _diff(v[2], k, 2)
    return (material.mu * (second[0] + second[1] + second[2])
            + (material.lam + material.mu) * np.stack([_diff(div, k - 1, a) for a in range(3)]))


def lame_apply(material: Material, v: VecPoly3) -> VecPoly3:
    """mu * Laplacian(v) + (lam + mu) * grad(div v), exactly on coefficients, degree by degree."""
    return v._by_degree(lambda rows, k: _lame(material, rows, k))


def lame_residuals(material: Material, layout) -> np.ndarray:
    """Largest |coefficient| of `lame_apply(material, field.normalized())` on
    each element of a basis layout (`ElasticBasis.layout`), in basis order,
    bitwise, taken on the value block (3, e, n) of each degree at once."""
    worst = []
    for k, (_, _, values) in enumerate(layout[::2]):
        v = values * (1.0 / np.max(np.abs(values), axis=(0, 2)))[:, None]
        worst.append(np.max(np.abs(_lame(material, v, k)), axis=(0, 2), initial=0.0))
    return np.concatenate(worst)


def traction_of_stress(stress: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The traction sigma nu (..., 3) of stress components (6, ...)
    (`basis.hooke`) at normals (..., 3), broadcast against each component.

    Component b is the sum of sigma_ab nu_a over a = 0, 1, 2, formed one
    plane at a time: a component of a joined block or of the layout's
    products is one contiguous plane, so nothing is copied to read it.
    """
    nu = [normals[..., a] for a in range(3)]
    t = np.empty(np.broadcast_shapes(stress.shape[1:], normals.shape[:-1]) + (3,))
    for b in range(3):
        plane = stress[_PAIR_OF[0, b]] * nu[0]
        plane += stress[_PAIR_OF[1, b]] * nu[1]
        plane += stress[_PAIR_OF[2, b]] * nu[2]
        t[..., b] = plane
    return t


def _check_unit_normals(normals: np.ndarray) -> None:
    err = np.abs(np.einsum("...i,...i->...", normals, normals) - 1.0)
    if np.max(err) > 2.0 * _UNIT_NORMAL_TOL:  # |n.n - 1| ~ 2 |n| d|n|
        raise ValueError(f"normals must be unit vectors (max ||n|-1| defect {np.max(err):.2e})")


def traction(material: Material, v: VecPoly3, points, normals) -> np.ndarray:
    """Boundary force density (..., 3) of v at points (..., 3), for unit
    normals of the same shape.

    Equals 2 mu du/dn + lam (div u) n + mu (n x curl u), evaluated through the
    equivalent stress-tensor contraction; linear in v.
    """
    pts = np.asarray(points, dtype=float)
    nrm = np.asarray(normals, dtype=float)
    if pts.shape != nrm.shape:
        raise ValueError("points and normals must have matching shapes")
    _check_unit_normals(nrm)
    d = batch_eval(v.jacobian(), pts.reshape(-1, 3)).T.reshape(3, 3, *pts.shape[:-1])  # d[a, j] = d v_j / d x_a
    return traction_of_stress(hooke(material, d), nrm)


@dataclass(frozen=True)
class RigidDisplacement:
    """Field a + b x (x - x0); zero strain, hence zero traction."""

    a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)
    x0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def as_vecpoly(self) -> VecPoly3:
        a, b, x0 = (np.asarray(v, dtype=float) for v in (self.a, self.b, self.x0))
        skew = np.array([[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]])  # b x x = skew @ x
        # the constant a - b x x0, then the degree-1 monomials in graded-lex order: z, y, x
        return VecPoly3.of_row(np.column_stack([a - np.cross(b, x0), skew[:, ::-1]]))

    def eval(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        rel = pts - np.asarray(self.x0, dtype=float)
        return np.asarray(self.a, dtype=float) + np.cross(np.asarray(self.b, dtype=float), rel)


# -- Kelvin fundamental solution --------------------------------------------------


def _kelvin_coefficients(material: Material) -> tuple[float, float]:
    """Coefficients of delta_ij / r and z_i z_j / r^3 in the fundamental matrix,
    both terms combined, from mu' = (lam + mu) / (8 pi mu (lam + 2 mu))."""
    lam, mu = material.lam, material.mu
    mu_prime = (lam + mu) / (8.0 * np.pi * mu * (lam + 2.0 * mu))
    return mu_prime - 1.0 / (4.0 * np.pi * mu), -mu_prime


def _kelvin_argument(x, what: str) -> tuple[np.ndarray, np.ndarray]:
    """z = x (..., 3) and |z| (...), refused where |z| = 0."""
    z = np.asarray(x, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    if np.min(r, initial=np.inf) <= 0.0:
        raise ValueError(f"{what} is singular at x = 0")
    return z, r


def kelvin_matrix(material: Material, x, rows: slice = slice(None)) -> np.ndarray:
    """Fundamental matrix -delta_ij/(4 pi mu |x|) + mu' * Hess|x|, shape (..., 3, 3),
    or only its rows i in `rows`."""
    z, r = _kelvin_argument(x, "Kelvin matrix")
    a, b = _kelvin_coefficients(material)
    r = r[..., None, None]
    return a * np.eye(3)[rows] / r + b * (z[..., rows, None] * z[..., None, :]) / r**3


def kelvin_gradient(material: Material, x, rows: slice = slice(None)) -> np.ndarray:
    """Closed-form grad[..., i, j, k] = d Gamma_ij / d z_k, shape (..., 3, 3, 3),
    or only its rows i in `rows`."""
    z, r = _kelvin_argument(x, "Kelvin gradient")
    a, b = _kelvin_coefficients(material)
    eye = np.eye(3)
    r = r[..., None, None, None]  # an array even for one point: numpy's scalar ** rounds unlike its array **
    inv_r3 = 1.0 / r**3
    inv_r5 = 1.0 / r**5
    zi = z[..., rows, None, None]
    zj = z[..., None, :, None]
    zk = z[..., None, None, :]
    d_ij = eye[rows, :, None]
    d_ik = eye[rows, None, :]
    d_jk = eye[None, :, :]
    return (
        -a * d_ij * zk * inv_r3
        + b * ((d_ik * zj + d_jk * zi) * inv_r3 - 3.0 * zi * zj * zk * inv_r5)
    )


def kelvin_traction(material: Material, x, y, normal_y, rows: slice = slice(None)) -> np.ndarray:
    """Traction kernel: row i is T at y (normal nu(y)) of the field Gamma_i(x - .).

    x, y and normal_y are (..., 3), x broadcast against y (poles (P, 1, 3)
    against points (m, 3), say).  Output (..., 3, 3) with [..., i, j] the
    j-component of the traction of row field i, or only the rows i in `rows`.
    """
    nrm = np.asarray(normal_y, dtype=float)
    _check_unit_normals(nrm)
    z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if np.min(np.linalg.norm(z, axis=-1), initial=np.inf) <= 0.0:
        raise ValueError("Kelvin traction kernel is singular at x = y")
    # d/dy_k Gamma_ij(x - y) = -(d Gamma_ij / d z_k)(x - y)
    d = -kelvin_gradient(material, z, rows)                   # d[..., i, j, k] = d(field_i)_j / d y_k
    return traction_of_stress(hooke(material, np.moveaxis(d, (-2, -1), (0, 1))), nrm[..., None, :])


@dataclass(frozen=True)
class KelvinField:
    """Row field u(x) = Gamma_row(x - pole); an equilibrium field away from the pole."""

    material: Material
    pole: tuple[float, float, float]
    row: int  # 1 .. 3

    def __post_init__(self):
        object.__setattr__(self, "row", _check_integer(self.row, "row"))
        if self.row not in (1, 2, 3):
            raise ValueError(f"row must be 1, 2 or 3, got {self.row}")

    @property
    def _rows(self) -> slice:
        """The one kernel row i of the field, as the `rows` of the kernels."""
        return slice(self.row - 1, self.row)

    def eval(self, points) -> np.ndarray:
        z = np.asarray(points, dtype=float) - np.asarray(self.pole, dtype=float)
        return kelvin_matrix(self.material, z, self._rows)[..., 0, :]

    def traction(self, points, normals) -> np.ndarray:
        # Gamma is even, so the field Gamma_row(x - pole) is row `row` of the kernel at the pole
        return kelvin_traction(self.material, self.pole, points, normals, self._rows)[..., 0, :]

    __call__ = eval
