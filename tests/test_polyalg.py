import tracemalloc

import numpy as np
import pytest

from elastopoly.basis import Material, elastic_basis
from elastopoly.operators import traction
from elastopoly.polyalg import CHUNK_POINTS, Poly3, VecPoly3, batch_eval, degree_monomials, eval_blocks, rows_text

import dictpoly
from dictpoly import R2, X, Y, Z, bits, divergence, gradient, laplacian, rows_of

rng = np.random.default_rng(1905)


def curl(v):
    """Reference curl, written out for the vector-calculus identities below, of either vector type."""
    return type(v)(
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
    """A dict polynomial (the reference algebra); `rows_of` gives its row type."""
    terms = {}
    for _ in range(n_terms):
        mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=3))
        terms[mono] = terms.get(mono, 0.0) + float(rng.uniform(-1, 1))
    return dictpoly.Poly3(terms)


def random_dyadic_poly(max_degree=4, n_terms=6):
    # coefficients n/16 stay exact under the small integer scalings of diff,
    # so structural identities can be checked for bitwise cancellation
    terms = {}
    for _ in range(n_terms):
        mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=3))
        terms[mono] = terms.get(mono, 0.0) + int(rng.integers(-8, 9)) / 16.0
    return dictpoly.Poly3(terms)


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_product_identity_element():
    one = dictpoly.Poly3.constant(1.0)
    assert one * R2 == R2


def test_product_degree_additivity():
    assert (X * X).degree() == 2
    for _ in range(20):
        p, q = random_poly(), random_poly()
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_diff_power_rule():
    assert rows_of(X * X * Y).diff(1) == rows_of(2.0 * (X * Y))
    assert rows_of(X * X * Y).diff(3).is_zero
    assert rows_of(R2).diff(2) == rows_of(2.0 * Y)


def test_eval_examples():
    assert rows_of(R2).eval((1.0, 2.0, 2.0)) == pytest.approx(9.0)
    assert rows_of(X * Y).eval((3.0, -2.0, 5.0)) == pytest.approx(-6.0)
    assert Poly3.constant(1.0).eval(rng.uniform(-5, 5, size=3)) == 1.0


def test_eval_batch_matches_pointwise():
    p = rows_of(random_poly())
    pts = rng.uniform(-2, 2, size=(17, 3))
    vals = p.eval(pts)
    assert vals.shape == (17,)
    for point, val in zip(pts, vals):
        assert val == pytest.approx(p.eval(point), abs=1e-14)
    nested = pts[:16].reshape(2, 8, 3)
    assert p.eval(nested).shape == (2, 8)
    assert np.allclose(p.eval(nested), vals[:16].reshape(2, 8), rtol=0.0, atol=1e-14)
    v = VecPoly3(p, rows_of(random_poly()), Poly3.zero())
    assert v.eval(pts[0]).shape == (3,) and v.eval(nested).shape == (2, 8, 3)
    assert np.allclose(v.eval(nested)[..., 0], p.eval(nested), rtol=0.0, atol=1e-14)


def test_jacobian_is_a_major():
    v = rows_of(random_vecpoly())
    assert v.jacobian() == [v[j].diff(a) for a in (1, 2, 3) for j in range(3)]


def test_zero_polynomial_is_empty_map():
    x = Poly3.variable(1)
    assert (x - x).terms == {} and (x - x).coeffs.shape == (0,)
    assert (x - x) == Poly3.zero()
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
    return dictpoly.VecPoly3(random_poly(), random_poly(), random_poly())


def test_div_of_position_field():
    v = dictpoly.VecPoly3(X, Y, Z)
    assert divergence(v) == dictpoly.Poly3.constant(3.0)


def test_curl_of_rigid_rotation():
    zero = dictpoly.Poly3.zero()
    v = dictpoly.VecPoly3(-1.0 * Y, X, zero)
    assert curl(v) == dictpoly.VecPoly3(zero, zero, dictpoly.Poly3.constant(2.0))
    assert curl(rows_of(v)) == VecPoly3(Poly3.zero(), Poly3.zero(), Poly3.constant(2.0))


def test_laplacian_example():
    zero = dictpoly.Poly3.zero()
    v = dictpoly.VecPoly3(R2, zero, zero)
    assert laplacian(v) == dictpoly.VecPoly3(dictpoly.Poly3.constant(6.0), zero, zero)


def test_div_curl_and_curl_grad_vanish_exactly():
    # bitwise cancellation for dyadic coefficients (the int scalings of diff
    # round nothing); generic float coefficients cancel to rounding level
    for _ in range(20):
        v = dictpoly.VecPoly3(random_dyadic_poly(), random_dyadic_poly(), random_dyadic_poly())
        assert divergence(curl(v)).terms == {}
        s = random_dyadic_poly()
        assert curl(gradient(s)).is_zero


def test_div_curl_float_coefficients_cancel_to_rounding():
    for _ in range(20):
        v = random_vecpoly()
        residual = divergence(curl(v))
        assert residual.max_abs_coeff() <= 1e-13 * max(1.0, v.max_abs_coeff())


def test_serialization_round_trip_and_order():
    p = dictpoly.Poly3({(0, 0, 2): -0.25, (1, 1, 0): 3.0, (0, 0, 0): 1.0, (2, 0, 0): 0.5, (0, 2, 0): 1.0 / 3.0})
    rows = [np.array([[p.terms.get(m, 0.0) for m in map(tuple, degree_monomials(k).tolist())]]) for k in range(3)]
    text = "\n".join(filter(None, (line for k, row in enumerate(rows) for line in rows_text(row, k))))
    lines = text.splitlines()
    # graded lex: constant first, then degree-2 monomials ordered by tuple; zero entries are skipped
    assert lines[0].startswith("0 0 0 ")
    assert [ln.rsplit(" ", 1)[0] for ln in lines] == ["0 0 0", "0 0 2", "0 2 0", "1 1 0", "2 0 0"]
    assert rows_text(rows[1], 1) == [""]
    assert dictpoly.Poly3.from_text(text) == p


def test_batch_eval_matches_single_eval():
    polys = [rows_of(random_poly()) for _ in range(7)] + [Poly3.zero()]
    pts = rng.uniform(-1.5, 1.5, size=(23, 3))
    table = batch_eval(polys, pts)
    assert table.shape == (23, 8)
    for col, p in enumerate(polys):
        assert np.allclose(table[:, col], term_sum(p, pts), rtol=0.0, atol=1e-13)
        assert np.allclose(p.eval(pts), term_sum(p, pts), rtol=0.0, atol=1e-13)


def test_normalized_scales_to_unit_max():
    p = rows_of(random_poly())
    if not p.is_zero:
        assert p.normalized().max_abs_coeff() == pytest.approx(1.0)
    assert Poly3.zero().normalized().is_zero


def test_diff_axis_validation():
    for axis in (0, 4, True, 2.0, "2"):  # True is not axis 1, nor 2.0 axis 2
        with pytest.raises(ValueError, match="axis must be"):
            Poly3.variable(1).diff(axis)
        with pytest.raises(ValueError, match="axis must be"):
            VecPoly3.constant((1.0, 0.0, 0.0)).diff(axis)
        with pytest.raises(ValueError, match="axis must be"):
            Poly3.variable(axis)


@pytest.mark.parametrize("make", [random_poly, random_dyadic_poly], ids=["float", "dyadic"])
def test_rows_match_the_dict_algebra_bitwise(make):
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    for _ in range(30):
        p, q, s = make(), make(), float(rng.uniform(-2.0, 2.0))
        rp, rq = rows_of(p), rows_of(q)
        pairs = [(rp, p), (rp + rq, p + q), (rp - rq, p - q), (rp - rp, p - p), (-rp, -p), (s * rp, s * p),
                 (rp * 0.0, p * 0.0), (rp.normalized(), p.normalized()), *((rp.diff(a), p.diff(a)) for a in (1, 2, 3))]
        for new, old in pairs:
            assert bits(new) == bits(old) and list(new.terms) == sorted(old.terms, key=lambda m: (sum(m), m))
            assert not np.any(np.signbit(new.coeffs[new.coeffs == 0.0]))  # every zero +0.0, as a missing term
            assert new.eval(pts).tobytes() == old.eval(pts).tobytes()
        u, v = (dictpoly.VecPoly3(make(), make(), make()) for _ in range(2))
        ru, rv = rows_of(u), rows_of(v)
        pairs = [(ru + rv, u + v), (ru - rv, u - v), (-ru, -u), (s * ru, s * u), (ru.normalized(), u.normalized()),
                 *((ru.diff(a), u.diff(a)) for a in (1, 2, 3))]
        for new, old in pairs:
            assert [bits(c) for c in new] == [bits(c) for c in old]
            assert new.eval(pts).tobytes() == old.eval(pts).tobytes()
        assert [bits(c) for c in ru.jacobian()] == [bits(c) for c in u.jacobian()]


# -- chunked evaluation ------------------------------------------------------------


def last_k12_element():
    return elastic_basis(Material(1.0, 1.0), 12).elements[-1].field


def unchunked_eval(polys, points):
    """Every point in one product, as batch_eval did before it was chunked:
    the coefficients over the graded-lex monomials of the polynomials' degree
    range times the monomial table x^i y^j z^k, (x^i y^j) z^k from cumulative
    powers."""
    degrees = [sum(m) for p in polys for m in p.terms]
    monos = np.concatenate([degree_monomials(d) for d in range(min(degrees), max(degrees) + 1)])
    coeffs = np.array([[p.terms.get(m, 0.0) for m in map(tuple, monos.tolist())] for p in polys])
    powers = [np.ones((3, len(points)))]
    for _ in range(max(degrees)):
        powers.append(powers[-1] * points.T)
    powers = np.stack(powers, axis=1)
    i, j, k = monos.T
    return (coeffs @ (powers[0, i] * powers[1, j] * powers[2, k])).T


@pytest.mark.parametrize("n_points", [4608, 20007])
def test_chunked_batch_eval_equals_one_product(n_points):
    field = last_k12_element()
    pts = rng.uniform(-1.0, 1.0, size=(n_points, 3))
    for polys in (field.components, field.jacobian()):
        assert np.array_equal(batch_eval(polys, pts), unchunked_eval(polys, pts))


def test_one_point_tail_chunk_rounds_close_to_one_product():
    # 257 points leave one point in the last chunk: a matrix-vector product, rounded its own way
    field = last_k12_element()
    pts = rng.uniform(-1.0, 1.0, size=(CHUNK_POINTS + 1, 3))
    for polys in (field.components, field.jacobian()):
        # relative to sum |c x^i y^j z^k|, the scale of the rounding of each value
        scale = unchunked_eval([Poly3({m: abs(c) for m, c in p.terms.items()}) for p in polys], np.abs(pts))
        assert np.all(np.abs(batch_eval(polys, pts) - unchunked_eval(polys, pts)) <= 1e-15 * scale)


def test_evaluation_temporaries_stay_bounded_by_the_chunk():
    field = last_k12_element()
    pts = rng.uniform(-1.0, 1.0, size=(20000, 3))
    normals = pts / np.linalg.norm(pts, axis=1)[:, None]
    for evaluate in (lambda: field.eval(pts), lambda: traction(Material(1.0, 1.0), field, pts, normals)):
        evaluate()  # warm every cache first
        tracemalloc.start()
        try:
            result = evaluate()
            peak = tracemalloc.get_traced_memory()[1] - result.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # a 256-point chunk holds well under a MiB; one product over 20,000 points, 30


@pytest.mark.parametrize("n_points", [0, 1, CHUNK_POINTS, CHUNK_POINTS + 1, 3 * CHUNK_POINTS - 7])
def test_eval_blocks_yields_each_chunk_once_with_every_block(n_points):
    blocks = elastic_basis(Material(1.0, 1.0), 4).layout
    pts = rng.uniform(-1.0, 1.0, size=(n_points, 3))
    chunks = [(rows, list(products)) for rows, products in eval_blocks(blocks, pts)]
    assert len(chunks) == -(-n_points // CHUNK_POINTS)
    assert [(rows.start, rows.stop) for rows, _ in chunks] == [
        (start, min(start + CHUNK_POINTS, n_points)) for start in range(0, n_points, CHUNK_POINTS)]
    for rows, products in chunks:
        assert [v.shape for v in products] == [(*c.shape[:-1], rows.stop - rows.start) for _, _, c in blocks]


def test_products_held_past_the_next_chunk_read_their_own_chunk():
    blocks = elastic_basis(Material(1.0, 1.0), 4).layout
    pts = rng.uniform(-1.0, 1.0, size=(2 * CHUNK_POINTS + 5, 3))
    held = list(eval_blocks(blocks, pts))  # every chunk taken before any of its products is formed
    assert len(held) == 3
    for rows, products in held:
        (_, direct), = eval_blocks(blocks, pts[rows])  # the chunk's points alone: one chunk, its own table
        for values, expected in zip(products, direct, strict=True):
            assert np.array_equal(values, expected)
