"""Sparse trivariate polynomial algebra.

A polynomial in (x, y, z) is a map from exponent triples (i, j, k) to float
coefficients; x^i y^j z^k is the monomial.  The zero polynomial is the empty
map, and no stored coefficient is ever exactly zero, so two polynomials are
equal iff their term maps are equal.  Values are treated as immutable after
construction and every operation returns a new polynomial in canonical form.

Coefficients are double-precision floats.  The basis constructions downstream
only involve small rational combinations, so symbolic identities (vanishing
Laplacian, vanishing elasticity operator) hold to ~1e-15 of the coefficient
scale and are asserted at 1e-12 after max-normalization.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .ioutil import fmt17

Monomial = tuple[int, int, int]

_AXES = (1, 2, 3)


def _graded_lex(mono: Monomial):
    return (mono[0] + mono[1] + mono[2], mono)


class Poly3:
    """Sparse polynomial in three variables with float coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, float] | Iterable[tuple[Monomial, float]] | None = None):
        canonical: dict[Monomial, float] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                i, j, k = mono
                if not all(isinstance(e, int) and e >= 0 for e in (i, j, k)):
                    raise ValueError(f"exponents must be non-negative integers, got {mono!r}")
                c = canonical.get((i, j, k), 0.0) + float(coeff)
                if c == 0.0:
                    canonical.pop((i, j, k), None)
                else:
                    canonical[(i, j, k)] = c
        self.terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly3":
        return cls()

    @classmethod
    def constant(cls, c: float) -> "Poly3":
        return cls({(0, 0, 0): float(c)})

    @classmethod
    def variable(cls, axis: int) -> "Poly3":
        if axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {axis}")
        mono = [0, 0, 0]
        mono[axis - 1] = 1
        return cls({tuple(mono): 1.0})

    # -- predicates and metrics --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j + k for (i, j, k) in self.terms)

    def max_abs_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def normalized(self) -> "Poly3":
        """Scale so the largest |coefficient| is 1; zero stays zero."""
        m = self.max_abs_coeff()
        if m == 0.0:
            return Poly3()
        return Poly3({mono: c / m for mono, c in self.terms.items()})

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Poly3 | None":
        if isinstance(other, Poly3):
            return other
        if isinstance(other, (int, float)):
            return Poly3.constant(other)
        return None

    def __add__(self, other) -> "Poly3":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in q.terms.items():
            s = out.get(mono, 0.0) + c
            if s == 0.0:
                out.pop(mono, None)
            else:
                out[mono] = s
        p = Poly3.__new__(Poly3)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        p = Poly3.__new__(Poly3)
        p.terms = {mono: -c for mono, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly3":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly3":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly3":
        if isinstance(other, (int, float)):
            c = float(other)
            if c == 0.0:
                return Poly3()
            p = Poly3.__new__(Poly3)
            p.terms = {mono: c * v for mono, v in self.terms.items()}
            return p
        if not isinstance(other, Poly3):
            return NotImplemented
        # Per-monomial contributions are summed with fsum, which is exactly
        # rounded and hence independent of operand order: p*q == q*p bitwise.
        contrib: dict[Monomial, list[float]] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                contrib.setdefault((i1 + i2, j1 + j2, k1 + k2), []).append(c1 * c2)
        out: dict[Monomial, float] = {}
        for mono, parts in contrib.items():
            s = math.fsum(parts)
            if s != 0.0:
                out[mono] = s
        p = Poly3.__new__(Poly3)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable container inside

    # -- calculus ------------------------------------------------------------

    def diff(self, axis: int) -> "Poly3":
        """Formal partial derivative along axis 1, 2 or 3."""
        if axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {axis}")
        a = axis - 1
        out: dict[Monomial, float] = {}
        for mono, c in self.terms.items():
            e = mono[a]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[a] = e - 1
            out[tuple(lowered)] = c * e
        p = Poly3.__new__(Poly3)
        p.terms = out
        return p

    # -- evaluation ------------------------------------------------------------

    def eval(self, points):
        """Evaluate at one point (3,) or a batch (..., 3) of points."""
        pts = np.asarray(points, dtype=float)
        vals = batch_eval([self], pts.reshape(-1, 3))[:, 0]
        return float(vals[0]) if pts.ndim == 1 else vals.reshape(pts.shape[:-1])

    __call__ = eval

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Lines `i j k coefficient` in graded-lex order (degree, then tuple)."""
        lines = []
        for (i, j, k) in sorted(self.terms, key=_graded_lex):
            lines.append(f"{i} {j} {k} {fmt17(self.terms[(i, j, k)])}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Poly3":
        terms: list[tuple[Monomial, float]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"expected 'i j k coefficient', got {line!r}")
            i, j, k = (int(f) for f in fields[:3])
            terms.append(((i, j, k), float(fields[3])))
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly3(0)"
        parts = []
        for mono in sorted(self.terms, key=_graded_lex):
            c = self.terms[mono]
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip("xyz", mono) if e > 0]
            body = "*".join(factors)
            parts.append(f"{c:g}*{body}" if body else f"{c:g}")
        shown = " + ".join(parts[:8]).replace("+ -", "- ")
        if len(parts) > 8:
            shown += f" + ... ({len(parts)} terms)"
        return f"Poly3({shown})"


class VecPoly3:
    """Vector field with three Poly3 components."""

    __slots__ = ("components",)

    def __init__(self, u1: Poly3, u2: Poly3, u3: Poly3):
        self.components = (u1, u2, u3)

    @classmethod
    def zero(cls) -> "VecPoly3":
        return cls(Poly3(), Poly3(), Poly3())

    @classmethod
    def constant(cls, vec) -> "VecPoly3":
        a1, a2, a3 = (float(v) for v in vec)
        return cls(Poly3.constant(a1), Poly3.constant(a2), Poly3.constant(a3))

    def __getitem__(self, idx: int) -> Poly3:
        return self.components[idx]

    def __iter__(self):
        return iter(self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all monomials, or None if mixed/zero."""
        degs = {i + j + k for c in self.components for (i, j, k) in c.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def max_abs_coeff(self) -> float:
        return max(c.max_abs_coeff() for c in self.components)

    def normalized(self) -> "VecPoly3":
        m = self.max_abs_coeff()
        if m == 0.0:
            return VecPoly3.zero()
        return VecPoly3(*(c * (1.0 / m) for c in self.components))

    def __add__(self, other: "VecPoly3") -> "VecPoly3":
        if not isinstance(other, VecPoly3):
            return NotImplemented
        return VecPoly3(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VecPoly3") -> "VecPoly3":
        if not isinstance(other, VecPoly3):
            return NotImplemented
        return VecPoly3(*(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VecPoly3":
        return VecPoly3(*(-c for c in self.components))

    def __mul__(self, scalar) -> "VecPoly3":
        if not isinstance(scalar, (int, float, Poly3)):
            return NotImplemented
        return VecPoly3(*(c * scalar for c in self.components))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, VecPoly3):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def diff(self, axis: int) -> "VecPoly3":
        return VecPoly3(*(c.diff(axis) for c in self.components))

    def jacobian(self) -> list[Poly3]:
        """The nine partials d v_j / d x_a in a-major order (entry 3a + j)."""
        return [c.diff(a) for a in _AXES for c in self.components]

    def eval(self, points):
        """Evaluate at (3,) or (..., 3) points; returns matching (..., 3)."""
        pts = np.asarray(points, dtype=float)
        vals = batch_eval(self.components, pts.reshape(-1, 3))
        return vals[0] if pts.ndim == 1 else vals.reshape(pts.shape)

    __call__ = eval

    def __repr__(self) -> str:
        return f"VecPoly3({self.components[0]!r}, {self.components[1]!r}, {self.components[2]!r})"


# -- vector calculus -----------------------------------------------------------


def divergence(v: VecPoly3) -> Poly3:
    return v[0].diff(1) + v[1].diff(2) + v[2].diff(3)


def gradient(s: Poly3) -> VecPoly3:
    return VecPoly3(s.diff(1), s.diff(2), s.diff(3))


def laplacian(f):
    """Scalar or componentwise vector Laplacian."""
    if isinstance(f, Poly3):
        return f.diff(1).diff(1) + f.diff(2).diff(2) + f.diff(3).diff(3)
    if isinstance(f, VecPoly3):
        return VecPoly3(*(laplacian(c) for c in f.components))
    raise TypeError(f"expected Poly3 or VecPoly3, got {type(f).__name__}")


def batch_eval(polys: Sequence[Poly3], points) -> np.ndarray:
    """Evaluate many polynomials at many points in one matrix product.

    Builds the table of all monomials appearing in `polys` at the points and
    multiplies by the coefficient matrix, so the inner loops run in BLAS.
    Returns an array of shape (n_points, len(polys)).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    monos = sorted({m for p in polys for m in p.terms}, key=_graded_lex)
    if not monos:
        return np.zeros((npts, len(polys)))

    index = {m: r for r, m in enumerate(monos)}
    coeffs = np.zeros((len(monos), len(polys)))
    for col, p in enumerate(polys):
        for mono, c in p.terms.items():
            coeffs[index[mono], col] = c

    # cumulative power tables per coordinate
    powers = []
    for a in range(3):
        dmax = max(m[a] for m in monos)
        tab = np.ones((dmax + 1, npts))
        for e in range(1, dmax + 1):
            tab[e] = tab[e - 1] * pts[:, a]
        powers.append(tab)

    table = np.empty((npts, len(monos)))
    for r, (i, j, k) in enumerate(monos):
        table[:, r] = powers[0][i] * powers[1][j] * powers[2][k]
    return table @ coeffs


# convenient generators
X = Poly3.variable(1)
Y = Poly3.variable(2)
Z = Poly3.variable(3)
R2 = X * X + Y * Y + Z * Z
