from fractions import Fraction

import numpy as np
import pytest

from elastopoly import Material, elastic_basis, lambda_coeff, solid_harmonics
from elastopoly.operators import lame_apply
from elastopoly.polyalg import Poly3, X, Y, Z, R2, laplacian

rng = np.random.default_rng(42)


# -- material admissibility ------------------------------------------------------


def test_material_accepts_admissible():
    Material(1.0, 1.0)
    Material(2.5, 0.7)
    Material(-0.5, 1.0)  # negative lambda is fine while 3 lam + 2 mu > 0


@pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (1.0, -1.0), (-1.0, 1.0), (-0.7, 1.0)])
def test_material_rejects_inadmissible(lam, mu):
    with pytest.raises(ValueError):
        Material(lam, mu)


@pytest.mark.parametrize("lam,mu,name", [
    (float("inf"), 1.0, "lambda"), (float("nan"), 1.0, "lambda"), (1.0, float("inf"), "mu"),
])
def test_material_rejects_non_finite(lam, mu, name):
    with pytest.raises(ValueError, match=f"{name} = .* must be finite"):
        Material(lam, mu)


# -- solid harmonics -------------------------------------------------------------


def test_degree_zero_is_constant():
    (h,) = solid_harmonics(0)
    assert h == Poly3.constant(1.0)


def test_degree_one_spans_coordinates():
    hs = solid_harmonics(1)
    assert len(hs) == 3
    # each is a single coordinate up to normalization
    mat = np.zeros((3, 3))
    for r, h in enumerate(hs):
        for (i, j, k), c in h.terms.items():
            mat[r] += c * np.array([i, j, k])
    assert np.linalg.matrix_rank(mat) == 3


def test_degree_two_matches_known_span():
    hs = solid_harmonics(2)
    assert len(hs) == 5
    known = [X * Y, X * Z, Y * Z, X * X - Y * Y, 2.0 * (Z * Z) - X * X - Y * Y]
    monos = sorted({m for p in hs + tuple(known) for m in p.terms})
    def coeff_rows(polys):
        rows = np.zeros((len(polys), len(monos)))
        for r, p in enumerate(polys):
            for mono, c in p.terms.items():
                rows[r, monos.index(mono)] = c
        return rows
    ours, theirs = coeff_rows(list(hs)), coeff_rows(known)
    assert np.linalg.matrix_rank(ours) == 5
    assert np.linalg.matrix_rank(np.vstack([ours, theirs])) == 5  # same span


@pytest.mark.parametrize("k", range(0, 9))
def test_solid_harmonics_count_homogeneity_harmonicity(k):
    hs = solid_harmonics(k)
    assert len(hs) == 2 * k + 1
    for h in hs:
        assert {i + j + kk for (i, j, kk) in h.terms} == {k}
        assert laplacian(h).max_abs_coeff() <= 1e-12  # symbolic oracle
        assert h.max_abs_coeff() == pytest.approx(1.0)


def test_solid_harmonics_linearly_independent():
    for k in (3, 6, 8):
        hs = solid_harmonics(k)
        monos = sorted({m for p in hs for m in p.terms})
        mat = np.zeros((len(hs), len(monos)))
        for r, p in enumerate(hs):
            for mono, c in p.terms.items():
                mat[r, monos.index(mono)] = c
        assert np.linalg.matrix_rank(mat) == 2 * k + 1


def per_degree_harmonics(k):
    """The reference for `solid_harmonics`: the ascending three-term recurrence
    on (degree, order) in exact rationals, run from degree 0 for this k alone,
    each polynomial max-normalized on conversion to floats."""
    def shift(p, axis, times=1):
        out = {}
        for mono, c in p.items():
            m = list(mono)
            m[axis] += times
            out[tuple(m)] = c
        return out

    def add(*polys):
        out = {}
        for p in polys:
            for mono, c in p.items():
                out[mono] = out.get(mono, Fraction(0)) + c
        return {mono: c for mono, c in out.items() if c}

    def scale(p, c):
        return {mono: v * c for mono, v in p.items()} if c else {}

    cos, sin = {(0, 0): {(0, 0, 0): Fraction(1)}}, {(0, 0): {}}
    for m in range(1, k + 1):
        cos[(m, m)] = add(shift(cos[(m - 1, m - 1)], 0), scale(shift(sin[(m - 1, m - 1)], 1), Fraction(-1)))
        sin[(m, m)] = add(shift(sin[(m - 1, m - 1)], 0), shift(cos[(m - 1, m - 1)], 1))
    for track in (cos, sin):
        for m in range(k + 1):
            for l in range(m, k):
                above = scale(shift(track[(l, m)], 2), Fraction(2 * l + 1, l - m + 1))
                below = {}
                if l - 1 >= m:
                    r2 = add(*(shift(track[(l - 1, m)], a, 2) for a in range(3)))
                    below = scale(r2, Fraction(-(l + m), l - m + 1))
                track[(l + 1, m)] = add(above, below)

    def to_poly(p):
        peak = max(abs(c) for c in p.values())
        return Poly3({mono: float(c / peak) for mono, c in p.items()})

    return [to_poly(cos[(k, 0)])] + [to_poly(t[(k, m)]) for m in range(1, k + 1) for t in (cos, sin)]


def test_solid_harmonics_match_the_per_degree_recurrence():
    # the closed form is a positive multiple of the recurrence's polynomial, both exact until the one
    # correctly rounded division by the peak, so the floats agree bitwise (no stored coefficient is zero)
    for k in range(21):
        for ours, reference in zip(solid_harmonics(k), per_degree_harmonics(k), strict=True):
            assert ours.terms == reference.terms


# -- degree coefficient ----------------------------------------------------------


def test_lambda_coeff_printed_values():
    m = Material(1.0, 1.0)
    assert lambda_coeff(m, 1) == pytest.approx(-1.0)
    assert lambda_coeff(m, 2) == pytest.approx(-0.2)
    assert lambda_coeff(m, 0) == pytest.approx(1.0 / 3.0)


def test_lambda_coeff_denominator_sign():
    # negative denominator only at k = 0; positive for k >= 1
    for lam, mu in [(1.0, 1.0), (2.5, 0.7), (-0.5, 1.0), (10.0, 0.01)]:
        m = Material(lam, mu)
        assert lam * (-1) + mu * (-2) < 0
        for k in range(1, 12):
            assert m.lam * (k - 1) + m.mu * (3 * k - 2) > 0
            lambda_coeff(m, k)  # must not blow up


def test_lambda_coeff_rejects_negative_degree():
    with pytest.raises(ValueError):
        lambda_coeff(Material(1.0, 1.0), -1)


@pytest.mark.parametrize("degree", [True, False, -2, 2.0, "3", np.int64(-2), np.float64(3.0), np.True_])
def test_every_degree_entry_point_rejects_non_degrees(degree):
    m = Material(1.0, 1.0)
    for cached in (0, 1):  # a cached degree 0 or 1 must not answer for False or True
        solid_harmonics(cached)
    for call, name in ((lambda: solid_harmonics(degree), "degree"), (lambda: lambda_coeff(m, degree), "degree"),
                       (lambda: elastic_basis(m, degree), "max_degree")):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {degree}$"):
            call()


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_integer_degrees_are_degrees(integer):
    m = Material(1.3, 0.8)
    assert [h.terms for h in solid_harmonics(integer(5))] == [h.terms for h in solid_harmonics(5)]
    assert lambda_coeff(m, integer(5)) == lambda_coeff(m, 5)
    ours, plain = elastic_basis(m, integer(5)), elastic_basis(m, 5)
    assert type(ours.max_degree) is int and len(ours) == len(plain)
    for (first, end, values), reference in zip(ours.layout.blocks, plain.layout.blocks, strict=True):
        assert (first, end) == reference[:2] and np.array_equal(values, reference[2])


# -- elastic basis ---------------------------------------------------------------


def test_degree_zero_elements_are_constant_fields():
    basis = elastic_basis(Material(1.0, 1.0), 0)
    assert len(basis) == 3
    for row, el in enumerate(basis, start=1):
        assert el.degree == 0 and el.row == row
        vals = el.field.eval(rng.uniform(-1, 1, size=(5, 3)))
        expected = np.zeros(3)
        expected[row - 1] = 1.0
        assert np.allclose(vals, expected)


def test_element_count_is_3_kp1_squared():
    m = Material(2.5, 0.7)
    for K in (0, 1, 2, 4):
        assert len(elastic_basis(m, K)) == 3 * (K + 1) ** 2
    assert len(elastic_basis(m, 4)) == 75


def test_row_formula_for_xy_harmonic():
    # degree 2, omega = xy, row 1 -> (xy, -0.2 |x|^2, 0) at lam = mu = 1
    m = Material(1.0, 1.0)
    basis = elastic_basis(m, 2)
    target = None
    for el in basis:
        if el.degree == 2 and el.row == 1 and el.field[0] == X * Y:
            target = el
    assert target is not None
    assert target.field[1] == -0.2 * R2
    assert target.field[2].is_zero
    assert lame_apply(m, target.field).max_abs_coeff() <= 1e-12


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.5, 0.7), (-0.5, 1.0)])
def test_lame_operator_annihilates_basis(lam, mu):
    m = Material(lam, mu)
    basis = elastic_basis(m, 5)
    for el in basis:
        residual = lame_apply(m, el.field.normalized())
        assert residual.max_abs_coeff() <= 1e-12


def test_elements_homogeneous_of_tagged_degree():
    """Columns 3k^2..3(k+1)^2 are exactly the degree-k elements, and every
    monomial in them has total degree k: the trace assembly evaluates each
    such column block on the degree-k monomials alone."""
    basis = elastic_basis(Material(1.0, 1.0), 5)
    for k in range(basis.max_degree + 1):
        block = basis.elements[3 * k * k : 3 * (k + 1) ** 2]
        assert len(block) == 3 * (2 * k + 1)
        assert [el.degree for el in block] == [k] * len(block)
        for el in block:
            assert not el.field.is_zero
            assert {sum(mono) for comp in el.field for mono in comp.terms} == {k}
    assert len(basis) == 3 * (basis.max_degree + 1) ** 2  # the blocks cover the basis


def test_ordering_degree_then_index_then_row():
    basis = elastic_basis(Material(1.0, 1.0), 3)
    keys = [(el.degree, el.harmonic_index, el.row) for el in basis]
    assert keys == sorted(keys)
    for el in basis:
        assert 1 <= el.harmonic_index <= 2 * el.degree + 1
        assert el.row in (1, 2, 3)


def test_basis_coefficient_rank_is_full():
    basis = elastic_basis(Material(1.0, 1.0), 3)
    monos = sorted({m for el in basis for c in el.field.components for m in c.terms})
    mat = np.zeros((len(basis), 3 * len(monos)))
    for r, el in enumerate(basis):
        for ci, comp in enumerate(el.field.components):
            for mono, c in comp.terms.items():
                mat[r, ci * len(monos) + monos.index(mono)] = c
    assert np.linalg.matrix_rank(mat) == len(basis)


def test_degree_one_subbasis_contains_rigid_rotations():
    basis = elastic_basis(Material(1.0, 1.0), 1)
    deg1 = [el.field for el in basis if el.degree == 1]
    assert len(deg1) == 9
    pts = rng.uniform(-1, 1, size=(12, 3))
    columns = np.stack([f.eval(pts).reshape(-1) for f in deg1], axis=1)
    for b in np.eye(3):
        target = np.cross(b, pts).reshape(-1)
        coef, res, *_ = np.linalg.lstsq(columns, target, rcond=None)
        assert np.linalg.norm(columns @ coef - target) <= 1e-10
