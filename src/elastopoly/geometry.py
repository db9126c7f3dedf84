"""Closed analytic boundary surfaces with product quadrature.

Surfaces are star-shaped about a center and parameterized over the unit
sphere of directions; quadrature is Gauss-Legendre in cos(theta) crossed with
the uniform trapezoid rule in phi, with exact analytic surface Jacobians and
outward normals.  Gauss-Legendre nodes exclude the poles, so the coordinate
singularity never needs special-casing.

The symmetry classification drives the compatibility theory of the third
boundary value problem: spheres carry a 3-dimensional family of tangential
rigid rotations, axisymmetric-but-not-spherical surfaces a 1-dimensional one,
and generic surfaces none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ioutil import fmt17
from .polyalg import Poly3, batch_eval, gradient
from .basis import solid_harmonics

_TANGENCY_DROP_TOL = 1e-13


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Ellipsoid:
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    semi_axes: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not all(a > 0.0 for a in self.semi_axes):
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")


@dataclass(frozen=True)
class StarShaped:
    """Radial surface r(direction) = sum of solid-harmonic coefficients.

    `coeffs` lists (degree k, index s, coefficient) with s = 1 .. 2k+1 indexing
    this package's solid-harmonic order.  Axial symmetry is declared, not
    detected: pass `axis` for an axisymmetric surface, leave None for generic.
    """

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    coeffs: tuple[tuple[int, int, float], ...] = ((0, 1, 1.0),)
    axis: tuple[float, float, float] | None = None

    def __post_init__(self):
        for k, s, _ in self.coeffs:
            if k < 0 or not (1 <= s <= 2 * k + 1):
                raise ValueError(f"invalid harmonic index (k={k}, s={s})")
        if self.axis is not None and not np.linalg.norm(self.axis) > 0.0:
            raise ValueError("declared symmetry axis must be a nonzero vector")


SurfaceSpec = Sphere | Ellipsoid | StarShaped


def radial_function(spec: SurfaceSpec, directions) -> np.ndarray:
    """r(u) for unit directions u, measured from the surface's center."""
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    if isinstance(spec, Sphere):
        return np.full(u.shape[0], spec.radius)
    if isinstance(spec, Ellipsoid):
        a, b, c = spec.semi_axes
        return 1.0 / np.sqrt((u[:, 0] / a) ** 2 + (u[:, 1] / b) ** 2 + (u[:, 2] / c) ** 2)
    return _star_radius(spec).eval(u)


def _star_radius(spec: StarShaped) -> Poly3:
    """r(x) = sum of c * h_{k,s}(x) as one polynomial; r(u) is the radius at direction u."""
    return sum((float(c) * solid_harmonics(k)[s - 1] for k, s, c in spec.coeffs), Poly3())


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Samples (point, outward unit normal, weight) approximating surface integrals."""

    spec: SurfaceSpec = field(repr=False)
    points: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    resolution: tuple[int, int] = (0, 0)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values) -> float | np.ndarray:
        """Weighted sum; scalar samples (N,) or componentwise for (N, d)."""
        v = np.asarray(values)
        return self.weights @ v

    def inner(self, f, g) -> float:
        """Weighted L2 inner product of sampled fields (N,) or (N, 3)."""
        f, g = np.asarray(f), np.asarray(g)
        pointwise = f * g if f.ndim == 1 else np.einsum("ni,ni->n", f, g)
        return float(self.weights @ pointwise)

    def norm(self, f) -> float:
        return float(np.sqrt(max(self.inner(f, f), 0.0)))

    def to_csv(self) -> str:
        lines = ["x,y,z,nx,ny,nz,w"]
        for p, n, w in zip(self.points, self.normals, self.weights):
            lines.append(",".join(fmt17(v) for v in (*p, *n, w)))
        return "\n".join(lines) + "\n"


def make_quadrature(spec: SurfaceSpec, n_theta: int, n_phi: int) -> SurfaceQuadrature:
    """Product rule: Gauss-Legendre in cos(theta) x trapezoid in phi."""
    if n_theta < 4:
        raise ValueError(f"n_theta must be >= 4, got {n_theta}")
    if n_phi < 8:
        raise ValueError(f"n_phi must be >= 8, got {n_phi}")

    t, wt = np.polynomial.legendre.leggauss(n_theta)
    sin_theta = np.sqrt(1.0 - t**2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    cp, sp = np.cos(phi), np.sin(phi)

    # direction grid, theta-major
    st = np.repeat(sin_theta, n_phi)
    ct = np.repeat(t, n_phi)
    cphi = np.tile(cp, n_theta)
    sphi = np.tile(sp, n_theta)
    u = np.stack([st * cphi, st * sphi, ct], axis=1)
    w_base = np.repeat(wt, n_phi) * w_phi
    center = np.asarray(spec.center, dtype=float)

    if isinstance(spec, Sphere):
        radius = spec.radius
        points = center + radius * u
        normals = u.copy()
        weights = w_base * radius**2
        return SurfaceQuadrature(spec, points, normals, weights, (n_theta, n_phi))

    if isinstance(spec, Ellipsoid):
        a, b, c = spec.semi_axes
        scaled = u * np.array([a, b, c])
        points = center + scaled
        # tangents of (a sin(th) cos(ph), b sin(th) sin(ph), c cos(th))
        x_th = np.stack([a * ct * cphi, b * ct * sphi, -c * st], axis=1)
        x_ph = np.stack([-a * st * sphi, b * st * cphi, np.zeros_like(st)], axis=1)
        cross = np.cross(x_th, x_ph)
        jac = np.linalg.norm(cross, axis=1)
        weights = w_base * jac / st
        grad = scaled / np.array([a**2, b**2, c**2])
        normals = grad / np.linalg.norm(grad, axis=1)[:, None]
        return SurfaceQuadrature(spec, points, normals, weights, (n_theta, n_phi))

    # star-shaped: x = center + r(u) u with analytic dr along the angular tangents
    radius = _star_radius(spec)
    vals = batch_eval([radius, *gradient(radius)], u)
    r, gvals = vals[:, 0], vals[:, 1:]
    if np.min(r) <= 0.0:
        raise ValueError(f"radial function must be positive on the sphere (min {np.min(r):.3e})")
    u_th = np.stack([ct * cphi, ct * sphi, -st], axis=1)
    u_ph = np.stack([-st * sphi, st * cphi, np.zeros_like(st)], axis=1)
    r_th = np.einsum("ni,ni->n", gvals, u_th)
    r_ph = np.einsum("ni,ni->n", gvals, u_ph)
    x_th = r_th[:, None] * u + r[:, None] * u_th
    x_ph = r_ph[:, None] * u + r[:, None] * u_ph
    cross = np.cross(x_th, x_ph)
    jac = np.linalg.norm(cross, axis=1)
    points = center + r[:, None] * u
    normals = cross / jac[:, None]
    weights = w_base * jac / st
    return SurfaceQuadrature(spec, points, normals, weights, (n_theta, n_phi))


# -- symmetry classification -----------------------------------------------------


@dataclass(frozen=True)
class SymmetryClass:
    """Trichotomy sphere / axisymmetric / generic with its rotation data."""

    tag: str  # "sphere" | "axisymmetric" | "generic"
    center: tuple[float, float, float] | None = None
    axis: tuple[float, float, float] | None = None

    @property
    def n_rotation_fields(self) -> int:
        return {"sphere": 3, "axisymmetric": 1, "generic": 0}[self.tag]


def classify_symmetry(spec: SurfaceSpec) -> SymmetryClass:
    if isinstance(spec, Sphere):
        return SymmetryClass("sphere", center=spec.center)
    if isinstance(spec, Ellipsoid):
        a, b, c = spec.semi_axes
        if a == b == c:
            return SymmetryClass("sphere", center=spec.center)
        if a == b:
            return SymmetryClass("axisymmetric", center=spec.center, axis=(0.0, 0.0, 1.0))
        if a == c:
            return SymmetryClass("axisymmetric", center=spec.center, axis=(0.0, 1.0, 0.0))
        if b == c:
            return SymmetryClass("axisymmetric", center=spec.center, axis=(1.0, 0.0, 0.0))
        return SymmetryClass("generic", center=spec.center)
    if spec.axis is None:
        return SymmetryClass("generic", center=spec.center)
    axis = np.asarray(spec.axis, dtype=float)
    axis = tuple(axis / np.linalg.norm(axis))
    return SymmetryClass("axisymmetric", center=spec.center, axis=axis)


def tangential_rotation_fields(symmetry: SymmetryClass, quad: SurfaceQuadrature) -> list[np.ndarray]:
    """Tangential rigid rotations sampled on the quadrature, orthonormal in weighted L2.

    3 fields on a sphere, 1 on an axisymmetric surface, none on a generic one.
    The symmetry class must describe the surface the quadrature came from.
    """
    if symmetry.tag == "generic":
        return []
    rel = quad.points - np.asarray(symmetry.center, dtype=float)
    if symmetry.tag == "sphere":
        raw = [np.cross(b, rel) for b in np.eye(3)]
    else:
        raw = [np.cross(np.asarray(symmetry.axis, dtype=float), rel)]

    fields: list[np.ndarray] = []
    for g in raw:  # modified Gram-Schmidt in the weighted inner product
        for f in fields:
            g = g - quad.inner(f, g) * f
        norm = quad.norm(g)
        if norm > _TANGENCY_DROP_TOL:
            fields.append(g / norm)
    return fields
