"""Elasticity operators: Lame operator, boundary traction, Kelvin kernels.

Tractions of polynomial fields come from exact symbolic derivatives evaluated
at the samples; tractions of Kelvin fields come from the closed-form gradient
of the fundamental matrix.  No numerical differentiation anywhere in the
production paths, so quadrature is the only error source in the identity
checks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import Material
from .polyalg import Poly3, VecPoly3, divergence, gradient, laplacian, batch_eval

_UNIT_NORMAL_TOL = 1e-12


def lame_apply(material: Material, v: VecPoly3) -> VecPoly3:
    """mu * Laplacian(v) + (lam + mu) * grad(div v), exactly on coefficients."""
    return material.mu * laplacian(v) + (material.lam + material.mu) * gradient(divergence(v))


def traction_of_gradient(material: Material, grad: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Hooke contraction lam tr(g) nu + mu (g^T nu + g nu) of gradients g (..., 3, 3).

    Normals broadcast against the gradients' leading axes.  The result is
    unchanged when g is transposed, so either index convention of the
    gradient (d_a v_j or d_j v_a) gives the traction.  Never forms g + g^T,
    which at basis scale would be a second copy of the whole gradient table.
    """
    t = np.einsum("...ab,...a->...b", grad, normals)
    t += np.einsum("...ab,...b->...a", grad, normals)
    t *= material.mu
    t += material.lam * np.trace(grad, axis1=-2, axis2=-1)[..., None] * normals
    return t


def _check_unit_normals(normals: np.ndarray) -> None:
    err = np.abs(np.einsum("...i,...i->...", normals, normals) - 1.0)
    if np.max(err) > 2.0 * _UNIT_NORMAL_TOL:  # |n.n - 1| ~ 2 |n| d|n|
        raise ValueError(f"normals must be unit vectors (max ||n|-1| defect {np.max(err):.2e})")


def traction(material: Material, v: VecPoly3, points, normals) -> np.ndarray:
    """Boundary force density of v at the points, for the given unit normals.

    Equals 2 mu du/dn + lam (div u) n + mu (n x curl u), evaluated through the
    equivalent stress-tensor contraction.  Accepts a single (3,) point/normal
    pair or batched (N, 3) arrays; linear in v.
    """
    pts = np.asarray(points, dtype=float)
    nrm = np.asarray(normals, dtype=float)
    single = pts.ndim == 1
    pts2, nrm2 = np.atleast_2d(pts), np.atleast_2d(nrm)
    if pts2.shape != nrm2.shape:
        raise ValueError("points and normals must have matching shapes")
    _check_unit_normals(nrm2)

    d = batch_eval(v.jacobian(), pts2).reshape(-1, 3, 3)  # d[n, a, j]
    t = traction_of_gradient(material, d, nrm2)
    return t[0] if single else t


@dataclass(frozen=True)
class RigidDisplacement:
    """Field a + b x (x - x0); zero strain, hence zero traction."""

    a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)
    x0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def as_vecpoly(self) -> VecPoly3:
        a, b, x0 = (np.asarray(v, dtype=float) for v in (self.a, self.b, self.x0))
        comps = []
        for j in range(3):
            p = Poly3.constant(a[j] - (b[(j + 1) % 3] * x0[(j + 2) % 3] - b[(j + 2) % 3] * x0[(j + 1) % 3]))
            p = p + Poly3.variable((j + 2) % 3 + 1) * b[(j + 1) % 3]
            p = p - Poly3.variable((j + 1) % 3 + 1) * b[(j + 2) % 3]
            comps.append(p)
        return VecPoly3(*comps)

    def eval(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        rel = pts - np.asarray(self.x0, dtype=float)
        return np.asarray(self.a, dtype=float) + np.cross(np.asarray(self.b, dtype=float), rel)


# -- Kelvin fundamental solution --------------------------------------------------


@dataclass(frozen=True)
class KelvinParams:
    material: Material

    @cached_property
    def mu_prime(self) -> float:
        lam, mu = self.material.lam, self.material.mu
        return (lam + mu) / (8.0 * np.pi * mu * (lam + 2.0 * mu))

    @cached_property
    def _diag_coeff(self) -> float:
        # coefficient of delta_ij / r after combining both terms
        return self.mu_prime - 1.0 / (4.0 * np.pi * self.material.mu)

    @cached_property
    def _dyad_coeff(self) -> float:
        # coefficient of z_i z_j / r^3
        return -self.mu_prime


def kelvin_matrix(params: KelvinParams, x) -> np.ndarray:
    """Fundamental matrix -delta_ij/(4 pi mu |x|) + mu' * Hess|x|, shape (.., 3, 3)."""
    z = np.asarray(x, dtype=float)
    single = z.ndim == 1
    z2 = np.atleast_2d(z)
    r = np.linalg.norm(z2, axis=1)
    if np.min(r) <= 0.0:
        raise ValueError("Kelvin matrix is singular at x = 0")
    eye = np.eye(3)
    gamma = params._diag_coeff * eye[None, :, :] / r[:, None, None] + params._dyad_coeff * np.einsum(
        "ni,nj->nij", z2, z2
    ) / (r**3)[:, None, None]
    return gamma[0] if single else gamma


def kelvin_gradient(params: KelvinParams, x) -> np.ndarray:
    """Closed-form grad[..., i, j, k] = d Gamma_ij / d z_k, shape (.., 3, 3, 3)."""
    z = np.asarray(x, dtype=float)
    single = z.ndim == 1
    z2 = np.atleast_2d(z)
    r = np.linalg.norm(z2, axis=1)
    if np.min(r) <= 0.0:
        raise ValueError("Kelvin gradient is singular at x = 0")
    a, b = params._diag_coeff, params._dyad_coeff
    eye = np.eye(3)
    inv_r3 = (1.0 / r**3)[:, None, None, None]
    inv_r5 = (1.0 / r**5)[:, None, None, None]
    zi = z2[:, :, None, None]
    zj = z2[:, None, :, None]
    zk = z2[:, None, None, :]
    d_ij = eye[None, :, :, None]
    d_ik = eye[None, :, None, :]
    d_jk = eye[None, None, :, :]
    grad = (
        -a * d_ij * zk * inv_r3
        + b * ((d_ik * zj + d_jk * zi) * inv_r3 - 3.0 * zi * zj * zk * inv_r5)
    )
    return grad[0] if single else grad


def kelvin_traction(params: KelvinParams, x, y, normal_y) -> np.ndarray:
    """Traction kernel: row i is T at y (normal nu(y)) of the field Gamma_i(x - .).

    x is a single point; y/normal_y may be batched (N, 3).  Output (.., 3, 3)
    with [i, j] the j-component of the traction of row field i.
    """
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    single = yy.ndim == 1
    y2 = np.atleast_2d(yy)
    n2 = np.atleast_2d(np.asarray(normal_y, dtype=float))
    _check_unit_normals(n2)
    z = xx[None, :] - y2
    if np.min(np.linalg.norm(z, axis=1)) <= 0.0:
        raise ValueError("Kelvin traction kernel is singular at x = y")
    # d/dy_k Gamma_ij(x - y) = -(d Gamma_ij / d z_k)(x - y)
    d = -kelvin_gradient(params, z)                           # d[n, i, j, k] = d(field_i)_j / d y_k
    t = traction_of_gradient(params.material, d, n2[:, None, :])
    return t[0] if single else t


@dataclass(frozen=True)
class KelvinField:
    """Row field u(x) = Gamma_row(x - pole); an equilibrium field away from the pole."""

    params: KelvinParams
    pole: tuple[float, float, float]
    row: int  # 1 .. 3

    def __post_init__(self):
        if self.row not in (1, 2, 3):
            raise ValueError(f"row must be 1, 2 or 3, got {self.row}")

    def eval(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        z = np.atleast_2d(pts) - np.asarray(self.pole, dtype=float)
        u = kelvin_matrix(self.params, z)[:, self.row - 1, :]
        return u[0] if single else u

    def traction(self, points, normals) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts2 = np.atleast_2d(pts)
        n2 = np.atleast_2d(np.asarray(normals, dtype=float))
        _check_unit_normals(n2)
        z = pts2 - np.asarray(self.pole, dtype=float)
        # d u_j / d x_k = + d Gamma_{row j} / d z_k
        g = kelvin_gradient(self.params, z)[:, self.row - 1, :, :]   # (n, j, k)
        t = traction_of_gradient(self.params.material, g, n2)
        return t[0] if single else t

    __call__ = eval
