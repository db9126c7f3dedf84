"""Trivariate polynomials as coefficient rows over the graded-lex monomials.

A polynomial in (x, y, z) is a row of float coefficients over the monomials
x^i y^j z^k in graded-lex order: by degree d, then (i, j, d - i - j) by
ascending i, then j (`degree_monomials`), degree d from monomial
d(d+1)(d+2)/6 on (`_degree_start`), the order of the basis layout's blocks.
`Poly3` holds one row (n,) and `VecPoly3` three (3, n), through the last
degree with a nonzero coefficient and every zero +0.0, so that equal
polynomials have equal rows.  Rows are read-only: each operation returns a
new polynomial, a derivative formed degree by degree through cached index
maps (`_diff`).  `Poly3.terms` reads a row as its nonzero coefficients.

Coefficients are double-precision floats.  The basis constructions downstream
only involve small rational combinations, so symbolic identities (vanishing
Laplacian, vanishing elasticity operator) hold to ~1e-15 of the coefficient
scale and are asserted at 1e-12 after max-normalization.

Every evaluation is `eval_blocks`, CHUNK_POINTS points at a time, so its
temporaries stay bounded; `batch_eval`, behind `Poly3.eval`, `VecPoly3.eval`,
`operators.traction` and `solver.field_samples`, is its one-block case.
`monomial_tables` holds the one point-chunk loop: `eval_blocks` streams its
tables, one chunk at a time, unless the caller holds them to share across
passes, as a folded fit does across parity classes.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import count
from types import MappingProxyType

import numpy as np

from .ioutil import fmt17

Monomial = tuple[int, int, int]

_AXES = (1, 2, 3)
CHUNK_POINTS = 256  # points per chunk of every polynomial evaluation


def _check_integer(value, name: str, non_negative: bool = False) -> int:
    """value as a Python int: an integer of any type but bool, and >= 0 if
    non_negative (a degree)."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or (non_negative and n < 0):
        raise ValueError(f"{name} must be {'a non-negative' if non_negative else 'an'} integer, got {value}")
    return n


def _check_axis(axis) -> int:
    axis = _check_integer(axis, "axis")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis}")
    return axis


def _canonical(coeffs, first: int = 0) -> np.ndarray:
    """Read-only rows (..., end) of coefficient rows (..., m) over the
    graded-lex monomials first .. first + m, first a degree start and m whole
    degrees: zeros before first, cut after the last degree with a nonzero."""
    coeffs = np.asarray(coeffs, dtype=float)
    columns = np.nonzero(coeffs)[-1]  # the monomial of each nonzero, less first
    end = _degree_start(_degree_of(first + columns.max()) + 1) if columns.size else 0
    # + 0.0 turns each -0.0 (a negated or scaled zero) into the +0.0 of a missing term
    rows = np.concatenate([np.zeros((*coeffs.shape[:-1], first)), coeffs], axis=-1)[..., :end] + 0.0
    rows.flags.writeable = False
    return rows


def _widened(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Rows (..., m) padded with zeros to (..., n), n >= m."""
    return np.concatenate([coeffs, np.zeros((*coeffs.shape[:-1], n - coeffs.shape[-1]))], axis=-1)


class _Rows:
    """The arithmetic that `Poly3` (one row) and `VecPoly3` (three rows)
    share, entry by entry on their rows `coeffs` (..., n)."""

    __slots__ = ("coeffs",)

    @classmethod
    def of_row(cls, coeffs, first: int = 0):
        """The polynomial of rows (..., m) over the graded-lex monomials first
        .. first + m, first a degree start and m whole degrees (a layout row)."""
        p = cls.__new__(cls)
        p.coeffs = _canonical(coeffs, first)
        return p

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[-1] == 0

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return _degree_of(self.coeffs.shape[-1] - 1)

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs), initial=0.0))

    def _combined(self, other, op):
        """op of the two polynomials' rows, each padded to the longer; only of the same type."""
        if type(other) is not type(self):
            return NotImplemented
        n = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
        return self.of_row(op(_widened(self.coeffs, n), _widened(other.coeffs, n)))

    def __add__(self, other):
        return self._combined(other, np.add)

    def __sub__(self, other):
        return self._combined(other, np.subtract)

    def __neg__(self):
        return self.of_row(-self.coeffs)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return self.of_row(float(scalar) * self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None  # compared by value

    def diff(self, axis: int):
        """Formal partial derivative along axis 1, 2 or 3."""
        axis = _check_axis(axis)
        return self._by_degree(lambda rows, d: _diff(rows, d, axis - 1))

    def _by_degree(self, fn):
        """The polynomial of fn(rows, d) of the rows of each degree d in turn,
        fn taking degree d to degree d - s for one s >= 1 (to nothing below s)."""
        c = self.coeffs
        blocks = [fn(c[..., _degree_start(d):_degree_start(d + 1)], d) for d in range(self.degree() + 1)]
        return self.of_row(np.concatenate([c[..., :0], *blocks], axis=-1))


class Poly3(_Rows):
    """Polynomial in three variables with float coefficients: one row (n,)."""

    __slots__ = ()

    def __init__(self, terms: dict[Monomial, float] | Iterable[tuple[Monomial, float]] | None = None):
        """The polynomial of a term map {(i, j, k): coefficient}, or of
        (exponents, coefficient) pairs, a repeated monomial's summed in order."""
        summed: dict[Monomial, float] = {}
        for mono, coeff in terms.items() if isinstance(terms, Mapping) else terms or ():
            i, j, k = mono
            if not all(isinstance(e, int) and e >= 0 for e in (i, j, k)):
                raise ValueError(f"exponents must be non-negative integers, got {mono!r}")
            summed[i, j, k] = summed.get((i, j, k), 0.0) + float(coeff)
        exps = np.array(list(summed), dtype=np.intp).reshape(-1, 3)
        degrees = exps.sum(axis=1)
        row = np.zeros(_degree_start(degrees.max(initial=-1) + 1))
        row[_degree_start(degrees) + monomial_position(exps)] = list(summed.values())
        self.coeffs = _canonical(row)

    @classmethod
    def zero(cls) -> "Poly3":
        return cls()

    @classmethod
    def constant(cls, c: float) -> "Poly3":
        return cls({(0, 0, 0): float(c)})

    @classmethod
    def variable(cls, axis: int) -> "Poly3":
        return cls.of_row(np.eye(3)[3 - _check_axis(axis)], 1)  # the degree-1 monomials z, y, x

    def exponents(self) -> np.ndarray:
        """The exponents (t, 3) of the nonzero coefficients, in graded-lex order."""
        return _graded_lex_table(max(self.degree(), 0))[np.flatnonzero(self.coeffs)]

    @property
    def terms(self) -> Mapping[Monomial, float]:
        """The nonzero coefficients by exponent triple, in graded-lex order; read-only."""
        exps = map(tuple, self.exponents().tolist())
        return MappingProxyType(dict(zip(exps, self.coeffs[self.coeffs != 0.0].tolist())))

    def normalized(self) -> "Poly3":
        """Divide by the largest |coefficient|, so that it is 1; zero stays zero."""
        m = self.max_abs_coeff()
        return self if m == 0.0 else self.of_row(self.coeffs / m)

    def eval(self, points):
        """Evaluate at points (..., 3); returns the shape (...), () for one point (3,)."""
        pts = np.asarray(points, dtype=float)
        return batch_eval([self], pts.reshape(-1, 3))[:, 0].reshape(pts.shape[:-1])

    __call__ = eval


def rows_text(rows: np.ndarray, k: int) -> list[str]:
    """Per coefficient row (r, n) over `degree_monomials(k)`, lines `i j k
    coefficient` of its nonzero entries in graded-lex order."""
    monos = [f"{i} {j} {l} " for i, j, l in degree_monomials(k).tolist()]
    return ["\n".join(monos[m] + fmt17(c) for m, c in zip(np.flatnonzero(row).tolist(), row[row != 0.0].tolist()))
            for row in rows]


class VecPoly3(_Rows):
    """Vector field with three polynomial components: rows (3, n)."""

    __slots__ = ()

    def __init__(self, u1: Poly3, u2: Poly3, u3: Poly3):
        n = max(len(u.coeffs) for u in (u1, u2, u3))
        self.coeffs = _canonical([_widened(u.coeffs, n) for u in (u1, u2, u3)])

    @classmethod
    def zero(cls) -> "VecPoly3":
        return cls.of_row(np.zeros((3, 0)))

    @classmethod
    def constant(cls, vec) -> "VecPoly3":
        return cls.of_row(np.asarray(vec, dtype=float).reshape(3, 1))

    @property
    def components(self) -> tuple[Poly3, Poly3, Poly3]:
        return tuple(map(Poly3.of_row, self.coeffs))

    def __getitem__(self, idx: int) -> Poly3:  # iterating yields the three components
        return Poly3.of_row(self.coeffs[idx])

    def normalized(self) -> "VecPoly3":
        """Multiply by the reciprocal of the largest |coefficient|, so that it is 1; zero stays zero."""
        m = self.max_abs_coeff()
        return self if m == 0.0 else self.of_row(self.coeffs * (1.0 / m))

    def jacobian(self) -> list[Poly3]:
        """The nine partials d v_j / d x_a in a-major order (entry 3a + j)."""
        return [c for a in _AXES for c in self.diff(a)]

    def eval(self, points):
        """Evaluate at points (..., 3), a single point being (3,); returns the same shape."""
        pts = np.asarray(points, dtype=float)
        vals = batch_eval(self.components, pts.reshape(-1, 3))
        return vals.reshape(pts.shape)

    __call__ = eval


@lru_cache(maxsize=None)
def degree_monomials(d: int) -> np.ndarray:
    """The (d+1)(d+2)/2 exponents (n, 3) of degree d in graded-lex order,
    (i, j, d - i - j) by ascending i, then j; none for d < 0; read-only, as cached."""
    exps = np.array([(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)], dtype=np.intp).reshape(-1, 3)
    exps.flags.writeable = False
    return exps


def monomial_position(exps: np.ndarray) -> np.ndarray:
    """Position of each exponent row (..., 3) in `degree_monomials` of its own degree."""
    i, j = exps[..., 0], exps[..., 1]
    return i * (2 * exps.sum(axis=-1) + 3 - i) // 2 + j


@lru_cache(maxsize=None)
def _graded_lex_table(max_degree: int) -> np.ndarray:
    """The (n, 3) exponents of every degree <= max_degree in graded-lex order.
    Degree d starts at row d(d+1)(d+2)/6, so the monomials of a degree range
    are contiguous."""
    return np.concatenate([degree_monomials(d) for d in range(max_degree + 1)])


def _degree_start(d: int) -> int:
    return d * (d + 1) * (d + 2) // 6


def _degree_of(n: int) -> int:
    """The degree of graded-lex monomial n; -1 for n = -1, no monomial."""
    return next(d for d in count(-1) if _degree_start(d + 1) > n)


@lru_cache(maxsize=None)
def _shift_index(d: int, a: int, step: int) -> np.ndarray:
    """The position of m + step e_a among the degree-(d + step) monomials,
    or -1 where m_a + step < 0, for each degree-d monomial m; read-only, as
    it is cached."""
    source = degree_monomials(d) + step * np.eye(3, dtype=np.intp)[a]
    index = np.where(source[:, a] >= 0, monomial_position(source), -1)
    index.flags.writeable = False
    return index


def _diff(rows: np.ndarray, d: int, a: int) -> np.ndarray:
    """d/dx_a of rows (..., n) over the degree-d monomials: degree-(d-1)
    monomial m takes c(m + e_a) (m_a + 1)."""
    return rows[..., _shift_index(d - 1, a, 1)] * (degree_monomials(d - 1)[:, a] + 1)


def monomial_tables(points, end: int, first: int = 0):
    """The one point-chunk loop of every polynomial evaluation: yields (rows,
    table) per chunk of CHUNK_POINTS of the float points (n, 3), `table`
    the values (end - first, len(rows)) of the graded-lex monomials first ..
    end at points[rows]."""
    max_degree = max(_degree_of(end - 1), 0)
    i, j, k = _graded_lex_table(max_degree)[first:end].T
    for start in range(0, len(points), CHUNK_POINTS):
        rows = slice(start, min(start + CHUNK_POINTS, len(points)))
        # cumulative power tables per coordinate, then each monomial as (x^i y^j) z^k
        powers = np.empty((3, max_degree + 1, rows.stop - start))
        powers[:, 0] = 1.0
        for e in range(1, max_degree + 1):
            powers[:, e] = powers[:, e - 1] * points[rows].T
        table = powers[0, i]  # (monomial, point)
        table *= powers[1, j]
        table *= powers[2, k]
        yield rows, table
        # freed before the next chunk allocates its tables, so the allocator reuses them, not fresh pages
        del powers, table


def eval_blocks(blocks: Sequence[tuple[int, int, np.ndarray]], points, tables=None):
    """Evaluate coefficient blocks at float points (n, 3), CHUNK_POINTS points at a time.

    Each block (first, end, coefficients) holds rows (..., end - first) over
    the graded-lex monomials first .. end (one degree for a homogeneous
    group), flattened into one matrix product that skips every other degree.
    Yields (rows, products) per chunk, `products` forming each block's values
    (..., len(rows)) at points[rows], in order, one at a time, when asked for.
    The chunks' tables are built over the blocks' monomials, unless
    `tables` holds them: the (rows, table) pairs of `monomial_tables(points,
    end)` from monomial 0 through every block's end, kept so that several
    passes over the same points build them once.
    """
    low = 0
    if tables is None:
        low = min((first for first, _, _ in blocks), default=0)
        tables = monomial_tables(points, max((end for _, end, _ in blocks), default=0), low)
    flat = [(first, end, c.reshape(math.prod(c.shape[:-1]), end - first), c.shape[:-1]) for first, end, c in blocks]
    for rows, table in tables:
        # t binds this chunk's table, so products held past the chunk still read it; zeros for an empty block
        yield rows, ((c @ t[first - low:end - low]).reshape(*lead, t.shape[1])
                     for t in [table] for first, end, c, lead in flat)
        del table  # a streamed table is freed before the next is built


def batch_eval(polys: Sequence[Poly3], points) -> np.ndarray:
    """Evaluate many polynomials at many points (n, 3) through one block of
    `eval_blocks`, their rows over the degree range of their nonzero
    coefficients.  Returns (n_points, len(polys)), the transpose of a
    (len(polys), n_points) array."""
    low = min((_degree_of(np.flatnonzero(p.coeffs)[0]) for p in polys if not p.is_zero), default=0)
    first, end = _degree_start(low), max((len(p.coeffs) for p in polys), default=0)
    coeffs = np.array([_widened(p.coeffs, end)[first:] for p in polys]).reshape(len(polys), end - first)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((len(polys), len(pts)))
    for rows, (values,) in eval_blocks([(first, end, coeffs)], pts):
        out[:, rows] = values
    return out.T
