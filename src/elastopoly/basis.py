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
one more derivative map for the first partials, each coefficient rounded as
a term-by-term construction rounds it; Hooke's law (`hooke`) turns those
into the six stress components.
A harmonic (`solid_harmonics`) or a basis element (`ElasticBasis.element`) is
one of these rows wrapped as a `Poly3` or `VecPoly3`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .polyalg import Poly3, VecPoly3, _check_integer, _degree_start, _diff, _shift_index, degree_monomials


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


_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]  # the entries with a <= b of a symmetric tensor
_PAIR_OF = np.array([[_PAIRS.index((min(i, j), max(i, j))) for i in range(3)] for j in range(3)])


def hooke(material: Material, grad) -> np.ndarray:
    """Hooke's law: the stress components (6, ...), sigma_ab = lam tr(g)
    delta_ab + mu (g_ab + g_ba) for the pairs a <= b in `_PAIRS` order, of
    gradients g[a][b] (3, 3, ...), an array or nested sequences.  Unchanged
    when g is transposed, so either index convention of the gradient (d_a
    u_b or d_b u_a) gives the stress, and an antisymmetric g (a rigid
    rotation) gives exactly zero."""
    sigma = np.stack([material.mu * (grad[a][b] + grad[b][a]) for a, b in _PAIRS])
    div = material.lam * (grad[0][0] + grad[1][1] + grad[2][2])
    for p in (0, 3, 5):  # the diagonal pairs
        sigma[p] += div
    return sigma


# -- real solid harmonics -------------------------------------------------------


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


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached degree 1
def solid_harmonics(k: int) -> tuple[Poly3, ...]:
    """The 2k+1 harmonic homogeneous polynomials of degree k: R_{k,0}, then
    the (cos, sin) pair R_{k,m} for m = 1, 2, ..., k, the real and imaginary
    parts of the closed form of `_harmonic_rows`, summed exactly in integers
    and max-normalized."""
    k = _check_integer(k, "degree", non_negative=True)
    return tuple(Poly3.of_row(row, _degree_start(k)) for row in _harmonic_rows(k))


# -- elastic polynomials --------------------------------------------------------


def lambda_coeff(material: Material, k: int) -> float:
    """Degree-k correction factor -(lam + mu) / (2 (lam (k-1) + mu (3k-2))).

    The denominator is nonzero for every k >= 0 under material admissibility
    (negative at k = 0, positive for k >= 1).
    """
    k = _check_integer(k, "degree", non_negative=True)
    lam, mu = material.lam, material.mu
    return -(lam + mu) / (2.0 * (lam * (k - 1) + mu * (3 * k - 2)))


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _times_r2(rows: np.ndarray, d: int) -> np.ndarray:
    """|x|^2 times rows (..., n) over the degree-d monomials: degree-(d+2)
    monomial m sums c(m - 2 e_a) over the a with m_a >= 2,
    exactly rounded like `math.fsum` (Boldo & Melquiond, IEEE Trans. Comput.
    57 (2008) 462-471: two TwoSums, their errors added rounding to odd)."""
    padded = np.concatenate([rows, np.zeros((*rows.shape[:-1], 1))], axis=-1)  # column -1: no term
    a, b, c = (padded[..., _shift_index(d + 2, e, -2)] for e in range(3))
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, err = _two_sum(tl, ul)
    inexact_even = (err != 0.0) & ((v.view(np.int64) & 1) == 0)
    return th + np.where(inexact_even, np.nextafter(v, np.copysign(np.inf, err)), v)


def _degree_blocks(material: Material, k: int) -> list[tuple[int, int, np.ndarray]]:
    """The two read-only layout blocks of degree k (see `ElasticBasis`)."""
    harmonics = _harmonic_rows(k)
    hessian = np.stack([_diff(_diff(harmonics, k, a), k - 1, b) for a, b in _PAIRS])  # empty below k = 2
    # + 0.0 turns the -0.0 of a negative Lambda_k times a missing term into a plain zero
    values = (lambda_coeff(material, k) * _times_r2(hessian, k - 2) + 0.0)[_PAIR_OF].transpose(0, 2, 1, 3)
    values[[0, 1, 2], :, [0, 1, 2]] += harmonics  # + omega where j = i; v_j of harmonic s, row i, at values[j, s, i]
    values = values.reshape(3, 3 * len(harmonics), -1)  # element 3s + i, as `harmonic_and_row` reads it
    stress = np.ascontiguousarray(hooke(material, [_diff(values, k, a) for a in range(3)]))  # eval_blocks flattens it
    values.flags.writeable = stress.flags.writeable = False
    return [(_degree_start(k), _degree_start(k + 1), values), (_degree_start(k - 1), _degree_start(k), stress)]


def harmonic_and_row(i: int) -> tuple[int, int]:
    """Harmonic index s and row, both from 1, of element i = 3(s - 1) + row - 1 of a degree."""
    return i // 3 + 1, i % 3 + 1


def _parities(max_degree: int) -> np.ndarray:
    """Signs (E, 3): under x_a -> -x_a each element v maps to itself times
    parities[e, a], g v(g x) = parities[e, a] v(x).  The element of row i on
    the harmonic omega, delta_ij omega + Lambda_k |x|^2 d_i d_j omega in its
    component j, has omega's x_a parity (every term of omega has it), with
    one more sign when a = i."""
    monos = [degree_monomials(k)[np.argmax(_harmonic_rows(k) != 0.0, axis=1)] for k in range(max_degree + 1)]
    return np.where((np.concatenate(monos)[:, None] + np.eye(3, dtype=int)) % 2, -1.0, 1.0).reshape(-1, 3)


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
    `layout` of read-only `polyalg.eval_blocks` blocks, two per degree k: the
    values (3, e, n) of its e elements, v_j of element i at [j, i], over the
    degree-k monomials, then their stresses (6, e, n), `hooke` of their
    partials, sigma_ab at [p, i] for the pair p = (a, b), a <= b, in `_PAIRS`
    order, over the degree-(k-1) ones.  `element(3k^2 + i)` reads element
    i of degree k, and `elements` all of them on first use; a fit, `check`
    and the `basis` export read only the layout."""

    material: Material
    max_degree: int
    layout: tuple[tuple[int, int, np.ndarray], ...] = field(repr=False, compare=False)  # set by the other two

    def __len__(self) -> int:
        return degree_columns(self.max_degree).stop

    def __iter__(self):
        return iter(self.elements)

    def element(self, n: int) -> BasisElement:
        """Element n of `elements` alone, from values[:, n - 3k^2] of its degree k."""
        n = _check_integer(n, "basis element index")
        if not 0 <= n < len(self):
            raise IndexError(f"basis element {n} out of range 0..{len(self) - 1}")
        k = math.isqrt(n // 3)
        i = n - 3 * k * k
        first, _, values = self.layout[2 * k]
        return BasisElement(k, *harmonic_and_row(i), VecPoly3.of_row(values[:, i], first))

    @cached_property
    def elements(self) -> tuple[BasisElement, ...]:
        """Ordered by degree, then harmonic index, then row."""
        return tuple(map(self.element, range(len(self))))

    def positions(self, columns) -> np.ndarray:
        """`columns` as an index array, refused unless it holds one or more
        integers, each a basis position 0..len(self) - 1."""
        positions = np.asarray(columns).reshape(-1)
        if not (len(positions) and positions.dtype.kind in "iu" and 0 <= positions.min()
                and positions.max() < len(self)):
            raise ValueError(f"columns must be one or more basis positions 0..{len(self) - 1}")
        return positions.astype(np.intp, copy=False)

    def pick(self, columns) -> tuple[list[tuple[int, int, np.ndarray]], list[np.ndarray]]:
        """The layout of the elements at `columns` (basis positions, repeats
        allowed, as `positions` checks them) and, per degree with any of
        them, the positions in `columns` that its two blocks fill, so
        ascending columns come in their order.  Each block takes them along
        its element axis, C-contiguous, so that `eval_blocks` flattens it
        uncopied; a degree whose elements are all picked, in order, keeps its
        blocks as they are."""
        columns = self.positions(columns)
        layout, targets = [], []
        for k in range(self.max_degree + 1):
            cols = degree_columns(k)
            mine = np.flatnonzero((cols.start <= columns) & (columns < cols.stop))
            if len(mine):
                picked, blocks = columns[mine] - cols.start, self.layout[2 * k:2 * k + 2]
                if not np.array_equal(picked, np.arange(cols.stop - cols.start)):
                    blocks = [(first, end, rows.take(picked, axis=-2)) for first, end, rows in blocks]
                layout.extend(blocks)
                targets.append(mine)
        return layout, targets

    def prefix(self, k: int) -> "ElasticBasis":
        """The basis through degree k <= max_degree, on the first 2k + 2 layout blocks."""
        if k == self.max_degree:
            return self
        return ElasticBasis(self.material, k, self.layout[:2 * k + 2])

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
    max_degree = _check_integer(max_degree, "max_degree", non_negative=True)
    return ElasticBasis(material, max_degree,
                        tuple(block for k in range(max_degree + 1) for block in _degree_blocks(material, k)))
