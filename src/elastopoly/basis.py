"""Harmonic polynomial tables and the elastic vector polynomial basis.

For each degree k there are 2k+1 independent harmonic homogeneous polynomials
(real solid harmonics).  Out of each one, three elastic vector polynomials are
built: row i has component j equal to

    delta_ij * omega  +  Lambda_k * |x|^2 * d2(omega)/dx_j dx_i

with the degree-dependent material factor Lambda_k.  Every such field is
annihilated by the Lame operator, and together they span all homogeneous
polynomial equilibrium fields of degree k (6k+3 of them, counting the
harmonic index), for a total of 3(K+1)^2 through degree K.

The harmonics are summed exactly in integers from their closed form into
max-normalized float rows over the graded-lex monomials.  A degree of the
basis is built at once from those rows, through fixed integer index maps: a
derivative map twice for the Hessian, the |x|^2 product map (up to three
terms per coefficient, exactly rounded), the Lambda_k scale and + omega, and
one more derivative map for the first partials; bitwise the `Poly3` arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .polyalg import CoefficientBlocks, Poly3, VecPoly3, _degree_start, degree_monomials, monomial_position


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


def _check_degree(k, name: str = "degree") -> int:
    """k as a Python int: a degree is a non-negative integer of any type but bool."""
    try:
        degree = -1 if isinstance(k, bool) else operator.index(k)
    except TypeError:
        degree = -1
    if degree < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {k}")
    return degree


@lru_cache(maxsize=None)
def _harmonic_rows(k: int) -> np.ndarray:
    """The (2k+1, n) coefficient rows of the degree-k solid harmonics over
    `degree_monomials(k)`, each max-normalized; read-only, as it is cached.

    For m = 0..k, the real part and, for m > 0, the imaginary part of

        (x + iy)^m  sum_j (-1)^j (x^2 + y^2)^j z^(k-m-2j) / (4^j j! (j+m)! (k-m-2j)!)

    (Hobson, The Theory of Spherical and Ellipsoidal Harmonics, 1931), each
    summed exactly in integers over the common denominator
    4^t t! (t+m)! (k-m)!, t = floor((k-m)/2).  Dividing by the largest
    coefficient as integers rounds each float correctly.
    """
    f, rows = math.factorial, []
    position = {(a, b): i for i, (a, b, _) in enumerate(degree_monomials(k).tolist())}
    for m in range(k + 1):
        t = (k - m) // 2
        weights = [(-1) ** j * 4 ** (t - j) * (f(t) // f(j)) * (f(t + m) // f(j + m)) * (f(k - m) // f(k - m - 2 * j))
                   for j in range(t + 1)]
        for part in range(min(m, 1) + 1):  # p even: the real part; p odd, for m > 0: the imaginary part
            row = [0] * len(position)
            for j, w in enumerate(weights):
                for p in range(part, m + 1, 2):  # C(m, p) x^(m-p) (iy)^p
                    wp = (-1) ** (p // 2) * math.comb(m, p) * w
                    for q in range(j + 1):  # C(j, q) x^(2j-2q) y^(2q)
                        row[position[m - p + 2 * (j - q), p + 2 * q]] += math.comb(j, q) * wp
            peak = max(map(abs, row))
            rows.append([c / peak for c in row])
    rows = np.array(rows)
    rows.flags.writeable = False
    return rows


def _polys(rows: np.ndarray, k: int, floats: dict[float, float]) -> list[Poly3]:
    """The polynomials of coefficient rows (r, n) over `degree_monomials(k)`:
    one term per nonzero entry, one key tuple per monomial, and one float
    object per distinct value, shared through `floats`."""
    monos = list(map(tuple, degree_monomials(k).tolist()))
    return [Poly3.of_terms(dict(zip(map(monos.__getitem__, np.flatnonzero(row)),
                                    [floats.setdefault(c, c) for c in row[row != 0.0].tolist()])))
            for row in rows]


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached degree 1
def solid_harmonics(k: int) -> tuple[Poly3, ...]:
    """The 2k+1 harmonic homogeneous polynomials of degree k: R_{k,0}, then
    the (cos, sin) pair R_{k,m} for m = 1, 2, ..., k, the real and imaginary
    parts of the closed form of `_harmonic_rows`, summed exactly in integers
    and max-normalized."""
    k = _check_degree(k)
    return tuple(_polys(_harmonic_rows(k), k, {}))


# -- elastic polynomials --------------------------------------------------------


def lambda_coeff(material: Material, k: int) -> float:
    """Degree-k correction factor -(lam + mu) / (2 (lam (k-1) + mu (3k-2))).

    The denominator is nonzero for every k >= 0 under material admissibility
    (negative at k = 0, positive for k >= 1).
    """
    k = _check_degree(k)
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
    harmonics = _harmonic_rows(k)
    hessian = np.stack([_diff(_diff(harmonics, k, a), k - 1, b) for a, b in _PAIRS])  # empty below k = 2
    # + 0.0 turns the -0.0 of a negative Lambda_k times a missing term into a plain zero
    values = (lambda_coeff(material, k) * _times_r2(hessian, k - 2) + 0.0)[_PAIR_OF].transpose(0, 2, 1, 3)
    for j in range(3):  # component j of the element of harmonic s, row i, at values[j, s, i]
        values[j, :, j] += harmonics
    values = values.reshape(-1, harmonics.shape[1])
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
        elements, floats = [], {}
        for k, (_, _, values) in enumerate(self.layout.blocks[::2]):
            polys = _polys(values, k, floats)
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
    max_degree = _check_degree(max_degree, "max_degree")
    return ElasticBasis(material, max_degree, CoefficientBlocks(
        [block for k in range(max_degree + 1) for block in _degree_blocks(material, k)]))
