"""Harmonic polynomial tables and the elastic vector polynomial basis.

For each degree k there are 2k+1 independent harmonic homogeneous polynomials
(real solid harmonics).  Out of each one, three elastic vector polynomials are
built: row i has component j equal to

    delta_ij * omega  +  Lambda_k * |x|^2 * d2(omega)/dx_j dx_i

with the degree-dependent material factor Lambda_k.  Every such field is
annihilated by the Lame operator, and together they span all homogeneous
polynomial equilibrium fields of degree k (6k+3 of them, counting the
harmonic index), for a total of 3(K+1)^2 through degree K.

A degree is built at once from its harmonics' coefficient rows over the
graded-lex monomials, through fixed integer index maps: a derivative map
twice for the Hessian, the |x|^2 product map (up to three terms per
coefficient, exactly rounded), the Lambda_k scale and + omega, and one more
derivative map for the first partials; bitwise the `Poly3` arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .polyalg import CoefficientBlocks, Poly3, VecPoly3, _degree_start, degree_monomials, monomial_position

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


def _check_degree(k, name: str = "degree") -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {k}")


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached degree 1
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
    _check_degree(k)
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
    _check_degree(k)
    lam, mu = material.lam, material.mu
    return -(lam + mu) / (2.0 * (lam * (k - 1) + mu * (3 * k - 2)))


def _diff(rows: np.ndarray, d: int, a: int) -> np.ndarray:
    """d/dx_a of rows (..., n) over the degree-d monomials, as `Poly3.diff`:
    degree-(d-1) monomial m takes c(m + e_a) (m_a + 1)."""
    source = degree_monomials(d - 1)
    source[:, a] += 1
    return rows[..., monomial_position(source)] * source[:, a]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _times_r2(rows: np.ndarray, d: int) -> np.ndarray:
    """|x|^2 times rows (..., n) over the degree-d monomials, as `R2 * p`:
    degree-(d+2) monomial m sums c(m - 2 e_a) over the a with m_a >= 2,
    exactly rounded like `math.fsum` (Boldo & Melquiond, IEEE Trans. Comput.
    57 (2008) 462-471: two TwoSums, their errors added rounding to odd)."""
    target, shifts = degree_monomials(d + 2), 2 * np.eye(3, dtype=np.intp)
    padded = np.concatenate([rows, np.zeros((*rows.shape[:-1], 1))], axis=-1)  # column -1: no term
    a, b, c = (padded[..., np.where(target[:, e] >= 2, monomial_position(target - shifts[e]), -1)] for e in range(3))
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, err = _two_sum(tl, ul)
    inexact_even = (err != 0.0) & ((v.view(np.int64) & 1) == 0)
    return th + np.where(inexact_even, np.nextafter(v, np.copysign(np.inf, err)), v)


_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]  # the Hessian entries with a <= b
_PAIR_OF = np.array([[_PAIRS.index((min(i, j), max(i, j))) for i in range(3)] for j in range(3)])


def _degree_blocks(material: Material, k: int) -> list[tuple[int, int, np.ndarray]]:
    """The two layout blocks of degree k (see `ElasticBasis`)."""
    omegas, n = solid_harmonics(k), (k + 1) * (k + 2) // 2
    harmonics = np.zeros((len(omegas), n))
    for row, omega in zip(harmonics, omegas):
        row[monomial_position(np.array(list(omega.terms)))] = list(omega.terms.values())
    hessian = np.stack([_diff(_diff(harmonics, k, a), k - 1, b) for a, b in _PAIRS])  # empty below k = 2
    # + 0.0 turns the -0.0 of a negative Lambda_k times a missing term into a plain zero
    values = (lambda_coeff(material, k) * _times_r2(hessian, k - 2) + 0.0)[_PAIR_OF].transpose(0, 2, 1, 3)
    for j in range(3):  # component j of the element of harmonic s, row i, at values[j, s, i]
        values[j, :, j] += harmonics
    values = values.reshape(-1, n)
    gradients = np.stack([_diff(values, k, a) for a in range(3)]).reshape(3 * len(values), k * (k + 1) // 2)
    return [(_degree_start(k), _degree_start(k + 1), values), (_degree_start(k - 1), _degree_start(k), gradients)]


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
    """The 3(K+1)^2 elastic polynomials through degree K, held as their
    `layout`, two blocks per degree k: block 2k holds the 3e components of
    the e degree-k elements over the degree-k monomials (component j of
    element i at row j e + i), block 2k + 1 their 9e first partials over the
    degree-(k-1) ones (d v_j / d x_a at row (3a + j) e + i).  The `elements`
    are read from the value blocks on first use, one term per nonzero entry,
    with one key tuple per monomial; a fit reads only the layout."""

    material: Material
    max_degree: int
    layout: CoefficientBlocks = field(repr=False)

    def __len__(self) -> int:
        return degree_columns(self.max_degree).stop

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def elements(self) -> tuple[BasisElement, ...]:
        """Ordered by degree, then harmonic index, then row."""
        elements, floats = [], {}  # one float object per distinct coefficient value
        for k, (first, end, values) in enumerate(self.layout.blocks[::2]):
            monos = list(map(tuple, self.layout.exponents[first:end].tolist()))  # the layout starts at monomial 0
            polys = [Poly3.of_terms(dict(zip(map(monos.__getitem__, np.flatnonzero(row)),
                                             [floats.setdefault(c, c) for c in row[row != 0.0].tolist()])))
                     for row in values]
            e = len(polys) // 3
            elements += [BasisElement(k, i // 3 + 1, i % 3 + 1, VecPoly3(*polys[i::e])) for i in range(e)]
        return tuple(elements)

    def prefix(self, k: int) -> "ElasticBasis":
        """The basis through degree k <= max_degree, on the first 2k + 2 layout blocks."""
        if k == self.max_degree:
            return self
        return ElasticBasis(self.material, k, CoefficientBlocks(self.layout.blocks[:2 * k + 2]))

    def prefix_degree(self, n_fields: int) -> int:
        """The degree k whose elements through k are the first n_fields."""
        k = math.isqrt(n_fields // 3) - 1
        if not (0 <= k <= self.max_degree and degree_columns(k).stop == n_fields):
            raise ValueError(f"{n_fields} coefficients are not a degree prefix 3(k+1)^2 "
                             f"of the {len(self)}-element basis")
        return k


def elastic_basis(material: Material, max_degree: int) -> ElasticBasis:
    """All elastic polynomials of degree <= max_degree, 3(K+1)^2 in total,
    built as their layout.  Ordered by degree, then harmonic index, then row."""
    _check_degree(max_degree, "max_degree")
    return ElasticBasis(material, max_degree, CoefficientBlocks(
        [block for k in range(max_degree + 1) for block in _degree_blocks(material, k)]))
