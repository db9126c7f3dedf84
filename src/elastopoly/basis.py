"""Harmonic polynomial tables and the elastic vector polynomial basis.

For each degree k there are 2k+1 independent harmonic homogeneous polynomials
(real solid harmonics).  Out of each one, three elastic vector polynomials are
built: row i has component j equal to

    delta_ij * omega  +  Lambda_k * |x|^2 * d2(omega)/dx_j dx_i

with the degree-dependent material factor Lambda_k.  Every such field is
annihilated by the Lame operator, and together they span all homogeneous
polynomial equilibrium fields of degree k (6k+3 of them, counting the
harmonic index), for a total of 3(K+1)^2 through degree K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .polyalg import CoefficientBlocks, Poly3, VecPoly3, R2

_FracPoly = dict[tuple[int, int, int], Fraction]


@dataclass(frozen=True)
class Material:
    """Isotropic material given by the Lame constants."""

    lam: float
    mu: float

    def __post_init__(self):
        for name, value in (("lambda", self.lam), ("mu", self.mu)):
            if not math.isfinite(value):
                raise ValueError(f"inadmissible material: {name} = {value} must be finite")
        if not (self.mu > 0.0):
            raise ValueError(f"inadmissible material: mu = {self.mu} must be > 0")
        if not (3.0 * self.lam + 2.0 * self.mu > 0.0):
            raise ValueError(
                f"inadmissible material: 3*lam + 2*mu = {3.0 * self.lam + 2.0 * self.mu} must be > 0"
            )
        # follows from the two conditions above; kept as a guard
        assert self.lam + 2.0 * self.mu > 0.0


# -- real solid harmonics -------------------------------------------------------


def _shift(p: _FracPoly, axis: int) -> _FracPoly:
    out = {}
    for mono, c in p.items():
        m = list(mono)
        m[axis] += 1
        out[tuple(m)] = c
    return out


def _fp_add(*polys: _FracPoly) -> _FracPoly:
    out: _FracPoly = {}
    for p in polys:
        for mono, c in p.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _fp_scale(p: _FracPoly, c: Fraction) -> _FracPoly:
    if not c:
        return {}
    return {mono: v * c for mono, v in p.items()}


def _fp_r2(p: _FracPoly) -> _FracPoly:
    return _fp_add(_shift(_shift(p, 0), 0), _shift(_shift(p, 1), 1), _shift(_shift(p, 2), 2))


@lru_cache(maxsize=3)
def _degree_tracks(l: int) -> tuple[dict[int, _FracPoly], dict[int, _FracPoly]]:
    """The rational cos and sin polynomials R_{l,m}, m = 0..l, of one degree,
    built from the two degrees below.  Three degrees stay cached: enough for
    an ascending sweep to run each step once, without holding every degree's
    rationals for the life of the process."""
    if l == 0:
        return {0: {(0, 0, 0): Fraction(1)}}, {0: {}}
    cos1, sin1 = _degree_tracks(l - 1)
    cos2, sin2 = _degree_tracks(l - 2) if l >= 2 else ({}, {})
    cos = {l: _fp_add(_shift(cos1[l - 1], 0), _fp_scale(_shift(sin1[l - 1], 1), Fraction(-1)))}
    sin = {l: _fp_add(_shift(sin1[l - 1], 0), _shift(cos1[l - 1], 1))}
    for track, prev, prev2 in ((cos, cos1, cos2), (sin, sin1, sin2)):
        for m in range(l):
            above = _fp_scale(_shift(prev[m], 2), Fraction(2 * l - 1, l - m))
            below = _fp_scale(_fp_r2(prev2[m]), Fraction(-(l - 1 + m), l - m)) if l - 2 >= m else {}
            track[m] = _fp_add(above, below)
    return cos, sin


@lru_cache(maxsize=None)
def solid_harmonics(k: int) -> tuple[Poly3, ...]:
    """The 2k+1 harmonic homogeneous polynomials of degree k.

    Generated by the ascending recurrence on (degree, order): the diagonal
    step multiplies by (x + iy), the vertical step is

        (l - m + 1) R_{l+1,m} = (2l + 1) z R_{l,m} - (l + m) |x|^2 R_{l-1,m}.

    Coefficients are carried as exact rationals and each polynomial is
    max-normalized on conversion to floats.  The rational tracks are kept, so
    a sweep through degree K runs the recurrence once.  Within a degree the
    order is m = 0, then the (cos, sin) pair for m = 1, 2, ..., k.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    cos, sin = _degree_tracks(k)
    out = [_to_poly(cos[0])]
    for m in range(1, k + 1):
        out.append(_to_poly(cos[m]))
        out.append(_to_poly(sin[m]))
    return tuple(out)


def _to_poly(p: _FracPoly) -> Poly3:
    peak = max(abs(c) for c in p.values())
    return Poly3({mono: float(c / peak) for mono, c in p.items()})


# -- elastic polynomials --------------------------------------------------------


def lambda_coeff(material: Material, k: int) -> float:
    """Degree-k correction factor -(lam + mu) / (2 (lam (k-1) + mu (3k-2))).

    The denominator is nonzero for every k >= 0 under material admissibility
    (negative at k = 0, positive for k >= 1).
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    lam, mu = material.lam, material.mu
    return -(lam + mu) / (2.0 * (lam * (k - 1) + mu * (3 * k - 2)))


@dataclass(frozen=True)
class BasisElement:
    """One elastic polynomial, tagged by its generators."""

    degree: int
    harmonic_index: int  # s = 1 .. 2k+1
    row: int             # 1 .. 3
    field: VecPoly3


def degree_columns(k: int) -> slice:
    """Positions 3k^2 .. 3(k+1)^2 of the 3(2k+1) degree-k elements in a basis
    ordered by degree, so the elements through degree k are the first 3(k+1)^2."""
    return slice(3 * k * k, 3 * (k + 1) ** 2)


@dataclass(frozen=True)
class ElasticBasis:
    material: Material
    max_degree: int
    elements: tuple[BasisElement, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def layout(self) -> CoefficientBlocks:
        """The elements' values and first partials laid out once for
        evaluation, two groups per degree k: group 2k holds the 3 e component
        polynomials of the e degree-k elements (component j of element i at
        j e + i), group 2k + 1 their 9 e partials (d v_j / d x_a at (3a + j) e + i).
        Degree-k values touch only the degree-k monomials, gradients the
        degree-(k-1) ones."""
        groups = []
        for k in range(self.max_degree + 1):
            fields = [el.field for el in self.elements[degree_columns(k)]]
            groups.append([v[j] for j in range(3) for v in fields])
            jacobians = [v.jacobian() for v in fields]
            groups.append([jac[i] for i in range(9) for jac in jacobians])
        return CoefficientBlocks.of_polys(groups)

    def prefix(self, k: int) -> "ElasticBasis":
        """The basis through degree k <= max_degree: its first 3(k+1)^2 elements."""
        if k == self.max_degree:
            return self
        return ElasticBasis(self.material, k, self.elements[:degree_columns(k).stop])

    def prefix_degree(self, n_fields: int) -> int:
        """The degree k whose elements through k are the first n_fields."""
        k = math.isqrt(n_fields // 3) - 1
        if not (0 <= k <= self.max_degree and degree_columns(k).stop == n_fields):
            raise ValueError(f"{n_fields} coefficients are not a degree prefix 3(k+1)^2 "
                             f"of the {len(self)}-element basis")
        return k


def elastic_basis(material: Material, max_degree: int) -> ElasticBasis:
    """All elastic polynomials of degree <= max_degree, 3(K+1)^2 in total.

    Ordered by degree, then harmonic index, then row.
    """
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError(f"max_degree must be a non-negative integer, got {max_degree}")
    elements: list[BasisElement] = []
    for k in range(max_degree + 1):
        lam_k = lambda_coeff(material, k)
        for s, omega in enumerate(solid_harmonics(k), start=1):
            # canonical-order Hessian: d2[a][b] for a <= b, mirrored
            d2 = [[None] * 3 for _ in range(3)]
            for a in range(3):
                for b in range(a, 3):
                    d2[a][b] = d2[b][a] = omega.diff(a + 1).diff(b + 1)
            correction = [[lam_k * (R2 * d2[a][b]) for b in range(3)] for a in range(3)]
            for i in range(3):
                comps = [
                    correction[j][i] + omega if j == i else correction[j][i]
                    for j in range(3)
                ]
                elements.append(
                    BasisElement(degree=k, harmonic_index=s, row=i + 1, field=VecPoly3(*comps))
                )
    return ElasticBasis(material=material, max_degree=max_degree, elements=tuple(elements))
