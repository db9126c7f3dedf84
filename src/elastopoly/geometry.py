"""Closed analytic boundary surfaces with product quadrature.

Surfaces are star-shaped about a center and parameterized over the unit
sphere of directions; quadrature is Gauss-Legendre in cos(theta) crossed with
the uniform trapezoid rule in phi.  Each surface kind supplies only its offset
x - center and its two analytic parametric tangents x_theta, x_phi (a sphere
is the ellipsoid with equal semi-axes); one surface element serves every
kind: outward normal x_theta x x_phi / |x_theta x x_phi| and weight
w_theta w_phi |x_theta x x_phi| / sin(theta).  Gauss-Legendre nodes exclude
the poles, so the coordinate singularity never needs special-casing.

A surface's symmetry is read exactly from its spec, never from samples, by
`classify_symmetry`: the axes of its tangential rigid rotations about its
center (three on a sphere, the axis of revolution of an axisymmetric surface,
none on a generic one), which drive the compatibility theory of the third
boundary value problem, and the coordinate reflections x_j -> -x_j that map
it onto itself.  A quadrature knows its surface, so it samples those
rotations itself (`SurfaceQuadrature.rotation_fields`), once.  The product
grid is mirror-symmetric too (the Gauss-Legendre nodes in theta, the uniform
phi grid), so `make_quadrature` gives each reflection as a sample
permutation, `SurfaceQuadrature.reflections`, which the solver uses to fold
its fits; a hand-built quadrature has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .ioutil import csv_text
from .polyalg import Poly3, _check_integer, batch_eval
from .basis import solid_harmonics

_TANGENCY_DROP_TOL = 1e-13  # drop a rotation left with this fraction of its norm by orthogonalization
_AXIS_TANGENCY_TOL = 1e-8  # max |(a x x) . nu| relative to max |a x x| about a symmetry axis a


def _check_finite(spec) -> None:
    """Reject a surface whose fields (center, size, coefficients, axis) hold a non-finite number."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"surface {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Ellipsoid:
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    semi_axes: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_finite(self)
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
        _check_finite(self)
        for k, s, _ in self.coeffs:
            k, s = _check_integer(k, "harmonic degree", non_negative=True), _check_integer(s, "harmonic index")
            if not 1 <= s <= 2 * k + 1:
                raise ValueError(f"invalid harmonic index (k={k}, s={s})")
        if self.axis is not None and not np.linalg.norm(self.axis) > 0.0:
            raise ValueError("declared symmetry axis must be a nonzero vector")


SurfaceSpec = Sphere | Ellipsoid | StarShaped


def radial_function(spec: SurfaceSpec, directions) -> np.ndarray:
    """r(u) (...) for unit directions u (..., 3), measured from the surface's center."""
    u = np.asarray(directions, dtype=float)
    if isinstance(spec, StarShaped):
        return _star_radius(spec).eval(u)
    return np.asarray(1.0 / np.linalg.norm(u / _semi_axes(spec), axis=-1))


def _semi_axes(spec: Sphere | Ellipsoid) -> np.ndarray:
    """The semi-axes (3,) of an ellipsoid; a sphere is the ellipsoid (r, r, r)."""
    return np.full(3, float(spec.radius)) if isinstance(spec, Sphere) else np.asarray(spec.semi_axes, dtype=float)


def _star_radius(spec: StarShaped) -> Poly3:
    """r(x) = sum of c * h_{k,s}(x) as one polynomial; r(u) is the radius at direction u."""
    return sum((float(c) * solid_harmonics(k)[s - 1] for k, s, c in spec.coeffs), Poly3())


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Samples (point, outward unit normal, weight) approximating surface
    integrals.  `reflections` pairs each reflection axis j of the surface's
    `classify_symmetry` that the grid respects with the sample permutation p
    of x_j -> -x_j: sample p[n] is the mirror image of sample n, with the
    mirrored normal and the same weight."""

    spec: SurfaceSpec = field(repr=False)
    points: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    reflections: tuple[tuple[int, np.ndarray], ...] = field(default=(), repr=False)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))

    def inner(self, f, g) -> float:
        """Weighted L2 inner product of sampled fields (N,) or (N, 3)."""
        f, g = np.asarray(f), np.asarray(g)
        pointwise = f * g if f.ndim == 1 else np.einsum("ni,ni->n", f, g)
        return float(self.weights @ pointwise)

    def norm(self, f) -> float:
        return float(np.sqrt(max(self.inner(f, f), 0.0)))

    @cached_property
    def rotation_fields(self) -> list[np.ndarray]:
        """The surface's tangential rigid rotations on these samples
        (`tangential_rotation_fields`), computed on first use."""
        return tangential_rotation_fields(self)

    @cached_property
    def tangents(self) -> np.ndarray:
        """Orthonormal tangent frames (N, 2, 3), computed on first use.

        e1 = (c x nu) / |c x nu|, c the coordinate axis with the smallest
        |nu_k|, and e2 = nu x e1, so that e1 x e2 = nu.
        """
        nu = self.normals
        axes = np.eye(3)[np.argmin(np.abs(nu), axis=1)]
        e1 = np.cross(axes, nu)
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        return np.stack([e1, np.cross(nu, e1)], axis=1)

    def to_csv(self) -> str:
        return csv_text("x,y,z,nx,ny,nz,w", np.column_stack([self.points, self.normals, self.weights]))


def make_quadrature(spec: SurfaceSpec, n_theta: int, n_phi: int) -> SurfaceQuadrature:
    """Product rule: Gauss-Legendre in cos(theta) x trapezoid in phi."""
    if n_theta < 4:
        raise ValueError(f"n_theta must be >= 4, got {n_theta}")
    if n_phi < 8:
        raise ValueError(f"n_phi must be >= 8, got {n_phi}")

    t, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    # direction grid u, theta-major, and its angular tangents u_theta, u_phi
    st, ct = np.repeat(np.sqrt(1.0 - t**2), n_phi), np.repeat(t, n_phi)
    cphi, sphi = np.tile(np.cos(phi), n_theta), np.tile(np.sin(phi), n_theta)
    u = np.stack([st * cphi, st * sphi, ct], axis=1)
    u_th = np.stack([ct * cphi, ct * sphi, -st], axis=1)
    u_ph = np.stack([-st * sphi, st * cphi, np.zeros_like(st)], axis=1)

    # each kind gives x - center and the parametric tangents x_theta, x_phi
    if isinstance(spec, StarShaped):  # x = center + r(u) u, with analytic dr along u_theta, u_phi
        radius = _star_radius(spec)
        vals = batch_eval([radius, radius.diff(1), radius.diff(2), radius.diff(3)], u)
        r, grad = vals[:, :1], vals[:, 1:]
        if np.min(r) <= 0.0:
            raise ValueError(f"radial function must be positive on the sphere (min {np.min(r):.3e})")
        offset = r * u
        x_th = np.einsum("ni,ni->n", grad, u_th)[:, None] * u + r * u_th
        x_ph = np.einsum("ni,ni->n", grad, u_ph)[:, None] * u + r * u_ph
    else:
        s = _semi_axes(spec)
        offset, x_th, x_ph = u * s, u_th * s, u_ph * s
    cross = np.cross(x_th, x_ph)  # outward, |cross| = area element per d(theta) d(phi)
    jac = np.linalg.norm(cross, axis=1)
    weights = np.repeat(wt, n_phi) * (2.0 * np.pi / n_phi) * jac / st  # d(cos theta) = sin(theta) d(theta)

    # the grid's mirrors: x sends phi to pi - phi (even n_phi only), y phi to -phi, z theta to pi - theta
    grid, j = np.arange(n_theta * n_phi).reshape(n_theta, n_phi), np.arange(n_phi)
    mirrors = (grid[:, (n_phi // 2 - j) % n_phi], grid[:, -j % n_phi], grid[::-1])
    axes = classify_symmetry(spec).reflection_axes
    reflections = tuple((a, mirrors[a].reshape(-1)) for a in axes if a != 0 or n_phi % 2 == 0)
    return SurfaceQuadrature(spec, np.asarray(spec.center, dtype=float) + offset, cross / jac[:, None], weights,
                             reflections)


# -- symmetry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Symmetry:
    """A surface's symmetry, as `classify_symmetry` reads it from the spec."""

    rotation_axes: np.ndarray  # (r, 3) unit axes of the tangential rigid rotations about the center
    reflection_axes: tuple[int, ...]  # the axes j whose reflection x_j -> -x_j about the origin fixes the surface


def classify_symmetry(spec: SurfaceSpec) -> Symmetry:
    """The symmetry of a surface, read exactly from its spec.

    Rotation axes: the coordinate axes on a sphere or an ellipsoid with equal
    semi-axes, the axis of the distinct semi-axis on a spheroid, a star
    surface's declared axis (normalized), none otherwise.  Reflections:
    center[j] == 0, and for a star surface an even x_j exponent in every
    nonzero coefficient of its radius polynomial.
    """
    exponents = _star_radius(spec).exponents() if isinstance(spec, StarShaped) else np.zeros((0, 3), dtype=int)
    if isinstance(spec, StarShaped):
        axes = np.zeros((0, 3)) if spec.axis is None else np.asarray([spec.axis]) / np.linalg.norm(spec.axis)
    else:
        a, b, c = _semi_axes(spec)
        axes = np.eye(3)[np.array([b == c, a == c, a == b])]  # all three rows when a == b == c
    reflections = tuple(j for j in range(3) if spec.center[j] == 0.0 and not np.any(exponents[:, j] % 2))
    return Symmetry(axes, reflections)


def tangential_rotation_fields(quad: SurfaceQuadrature) -> list[np.ndarray]:
    """Tangential rigid rotations of the quadrature's surface sampled on it,
    orthonormal in weighted L2.

    3 fields on a sphere, 1 on an axisymmetric surface, none on a generic one.
    The rotation about each axis of `classify_symmetry` must be tangential (a
    star surface's axis is declared, not derived); if it is not, a ValueError
    names the axis.
    """
    axes = classify_symmetry(quad.spec).rotation_axes
    raw = np.cross(axes[:, None], quad.points - np.asarray(quad.spec.center, dtype=float))  # a x (x - center)
    for axis, g in zip(axes, raw):
        defect = float(np.max(np.abs(np.einsum("ni,ni->n", g, quad.normals))))
        scale = float(np.max(np.abs(g)))
        if defect > _AXIS_TANGENCY_TOL * scale:
            label = " ".join(f"{c:g}" for c in axis)
            raise ValueError(f"the surface is not symmetric about its declared axis {label}: max |(a x x) . nu| = "
                             f"{defect:.3e} is {defect / scale:.3e} of max |a x x|")

    fields: list[np.ndarray] = []
    for g in raw:  # modified Gram-Schmidt in the weighted inner product
        scale = quad.norm(g)
        for f in fields:
            g = g - quad.inner(f, g) * f
        norm = quad.norm(g)
        if norm > _TANGENCY_DROP_TOL * scale:
            fields.append(g / norm)
    return fields
