import numpy as np
import pytest

from elastopoly.polyalg import (
    Poly3, VecPoly3, X, Y, Z, R2,
    batch_eval, divergence, gradient, laplacian,
)

rng = np.random.default_rng(1905)


def curl(v):
    """Reference curl, written out for the vector-calculus identities below."""
    return VecPoly3(
        v[2].diff(2) - v[1].diff(3),
        v[0].diff(3) - v[2].diff(1),
        v[1].diff(1) - v[0].diff(2),
    )


def term_sum(p, pts):
    """Reference evaluation: the explicit per-term sum of c x^i y^j z^k."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = np.zeros(len(pts))
    for (i, j, k), c in p.terms.items():
        out = out + c * x**i * y**j * z**k
    return out


def random_poly(max_degree=4, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=3))
        terms[mono] = terms.get(mono, 0.0) + float(rng.uniform(-1, 1))
    return Poly3(terms)


def random_dyadic_poly(max_degree=4, n_terms=6):
    # coefficients n/16 stay exact under the small integer scalings of diff,
    # so structural identities can be checked for bitwise cancellation
    terms = {}
    for _ in range(n_terms):
        mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=3))
        terms[mono] = terms.get(mono, 0.0) + int(rng.integers(-8, 9)) / 16.0
    return Poly3(terms)


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_product_identity_element():
    one = Poly3.constant(1.0)
    assert one * R2 == R2


def test_product_degree_additivity():
    assert (X * X).degree() == 2
    for _ in range(20):
        p, q = random_poly(), random_poly()
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_diff_power_rule():
    assert (X * X * Y).diff(1) == 2.0 * (X * Y)
    assert (X * X * Y).diff(3).is_zero
    assert R2.diff(2) == 2.0 * Y


def test_eval_examples():
    assert R2.eval((1.0, 2.0, 2.0)) == pytest.approx(9.0)
    assert (X * Y).eval((3.0, -2.0, 5.0)) == pytest.approx(-6.0)
    assert Poly3.constant(1.0).eval(rng.uniform(-5, 5, size=3)) == 1.0


def test_eval_batch_matches_pointwise():
    p = random_poly()
    pts = rng.uniform(-2, 2, size=(17, 3))
    vals = p.eval(pts)
    assert vals.shape == (17,)
    for point, val in zip(pts, vals):
        assert val == pytest.approx(p.eval(point), abs=1e-14)
    nested = pts[:16].reshape(2, 8, 3)
    assert p.eval(nested).shape == (2, 8)
    assert np.allclose(p.eval(nested), vals[:16].reshape(2, 8), rtol=0.0, atol=1e-14)
    v = VecPoly3(p, random_poly(), Poly3.zero())
    assert v.eval(pts[0]).shape == (3,) and v.eval(nested).shape == (2, 8, 3)
    assert np.allclose(v.eval(nested)[..., 0], p.eval(nested), rtol=0.0, atol=1e-14)


def test_jacobian_is_a_major():
    v = random_vecpoly()
    assert v.jacobian() == [v[j].diff(a) for a in (1, 2, 3) for j in range(3)]


def test_zero_polynomial_is_empty_map():
    assert (X - X).terms == {}
    assert (X - X) == Poly3.zero()
    assert Poly3({(1, 0, 0): 0.0}).is_zero


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly3({(-1, 0, 0): 1.0})


def test_mul_commutative_term_by_term():
    for _ in range(30):
        p, q = random_poly(), random_poly()
        assert (p * q).terms == (q * p).terms


def test_leibniz_rule():
    for _ in range(30):
        p, q = random_poly(), random_poly()
        axis = int(rng.integers(1, 4))
        lhs = (p * q).diff(axis)
        rhs = p.diff(axis) * q + p * q.diff(axis)
        diff = lhs - rhs
        assert diff.max_abs_coeff() <= 1e-12 * max(1.0, lhs.max_abs_coeff())


def test_leibniz_rule_exact_on_dyadic_coefficients():
    for _ in range(30):
        p, q = random_dyadic_poly(), random_dyadic_poly()
        axis = int(rng.integers(1, 4))
        assert (p * q).diff(axis) == p.diff(axis) * q + p * q.diff(axis)


def test_evaluation_homomorphism():
    for _ in range(30):
        p, q = random_poly(), random_poly()
        point = rng.uniform(-1, 1, size=3)
        lhs = (p * q).eval(point)
        rhs = p.eval(point) * q.eval(point)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def random_vecpoly():
    return VecPoly3(random_poly(), random_poly(), random_poly())


def test_div_of_position_field():
    v = VecPoly3(X, Y, Z)
    assert divergence(v) == Poly3.constant(3.0)


def test_curl_of_rigid_rotation():
    v = VecPoly3(-1.0 * Y, X, Poly3.zero())
    assert curl(v) == VecPoly3(Poly3.zero(), Poly3.zero(), Poly3.constant(2.0))


def test_laplacian_example():
    v = VecPoly3(R2, Poly3.zero(), Poly3.zero())
    assert laplacian(v) == VecPoly3(Poly3.constant(6.0), Poly3.zero(), Poly3.zero())


def test_div_curl_and_curl_grad_vanish_exactly():
    # bitwise cancellation for dyadic coefficients (the int scalings of diff
    # round nothing); generic float coefficients cancel to rounding level
    for _ in range(20):
        v = VecPoly3(random_dyadic_poly(), random_dyadic_poly(), random_dyadic_poly())
        assert divergence(curl(v)).terms == {}
        s = random_dyadic_poly()
        assert curl(gradient(s)).is_zero


def test_div_curl_float_coefficients_cancel_to_rounding():
    for _ in range(20):
        v = random_vecpoly()
        residual = divergence(curl(v))
        assert residual.max_abs_coeff() <= 1e-13 * max(1.0, v.max_abs_coeff())


def test_homogeneous_degree_flag():
    v = VecPoly3(X * Y, Poly3.zero(), R2)
    assert v.homogeneous_degree() == 2
    w = VecPoly3(X, R2, Poly3.zero())
    assert w.homogeneous_degree() is None


def test_serialization_round_trip_and_order():
    p = Poly3({(0, 0, 2): -0.25, (1, 1, 0): 3.0, (0, 0, 0): 1.0, (2, 0, 0): 0.5})
    text = p.to_text()
    lines = text.splitlines()
    # graded lex: constant first, then degree-2 monomials ordered by tuple
    assert lines[0].startswith("0 0 0 ")
    assert [ln.rsplit(" ", 1)[0] for ln in lines] == ["0 0 0", "0 0 2", "1 1 0", "2 0 0"]
    assert Poly3.from_text(text) == p


def test_batch_eval_matches_single_eval():
    polys = [random_poly() for _ in range(7)] + [Poly3.zero()]
    pts = rng.uniform(-1.5, 1.5, size=(23, 3))
    table = batch_eval(polys, pts)
    assert table.shape == (23, 8)
    for col, p in enumerate(polys):
        assert np.allclose(table[:, col], term_sum(p, pts), rtol=0.0, atol=1e-13)
        assert np.allclose(p.eval(pts), term_sum(p, pts), rtol=0.0, atol=1e-13)


def test_normalized_scales_to_unit_max():
    p = random_poly()
    if not p.is_zero:
        assert p.normalized().max_abs_coeff() == pytest.approx(1.0)
    assert Poly3.zero().normalized().is_zero


def test_diff_axis_validation():
    with pytest.raises(ValueError):
        X.diff(0)
    with pytest.raises(ValueError):
        X.diff(4)
