import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from totalfree.linalg import Matrix
from totalfree.poly import HomPoly, divisible_by_power, parse_poly, poly_det, poly_to_str
from oracles import evaluate, fraction_det, power, substitute, substitution_divisible_by_power


def _p(num_vars, terms):
    return HomPoly.from_terms(num_vars, terms)


x = HomPoly.linear([1, 0])
y = HomPoly.linear([0, 1])
xmy = HomPoly.linear([1, -1])


def test_zero_marker():
    z = HomPoly.zero(3)
    assert z.is_zero() and z.degree == -1 and not z.coeffs
    with pytest.raises(ValueError):
        HomPoly(2, 3, {})


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        _p(2, {(1, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError):
        x + x * y


def test_arithmetic_basics():
    f = x * x + -(y * y)
    assert f == _p(2, {(2, 0): 1, (0, 2): -1})
    assert (f + -f).is_zero()
    assert xmy * (x + y) == f
    assert power(x + y, 3) == _p(2, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
    assert x.scale(0).is_zero()


def test_divisibility_examples():
    assert divisible_by_power(x * x * y, x, 2) is True
    assert divisible_by_power(x * x + y * y, x, 1) is False
    assert divisible_by_power(power(xmy, 3), xmy, 4) is False
    assert divisible_by_power(power(xmy, 3), xmy, 3) is True
    assert divisible_by_power(HomPoly.zero(2), x, 5) is True


def test_divisibility_gauss_lemma_examples():
    # f has rational coefficients, and alpha is twice its factor x + 3/2 y
    f = power(x + y.scale(Fraction(3, 2)), 2) * x
    alpha = HomPoly.linear([2, 3])
    assert divisible_by_power(f, alpha, 2) is True
    assert divisible_by_power(f, alpha, 3) is False
    # f has content 6, and the quotient by (x - y)^3 is 6y
    f = power(xmy, 3) * y.scale(6)
    assert divisible_by_power(f, xmy, 3) is True
    assert divisible_by_power(f, xmy, 4) is False


_COEFF = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_NONZERO = _COEFF.filter(bool)


@settings(max_examples=300)
@given(st.data())
def test_divisibility_matches_substitution_oracle(data):
    n = data.draw(st.integers(1, 4), label="num_vars")
    vector = st.lists(_COEFF, min_size=n, max_size=n)
    scale = st.sampled_from([1, -1, 2, 6, Fraction(3, 4), Fraction(-5, 2)])
    alpha = HomPoly.linear([c * data.draw(scale, label="alpha scale")
                            for c in data.draw(vector.filter(any), label="alpha")])
    degree = data.draw(st.integers(0, 3), label="cofactor degree")
    monomial = st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)
    g = HomPoly.from_terms(n, {tuple(map(v.count, range(n))): c for v, c in data.draw(
        st.lists(st.tuples(monomial, _NONZERO), min_size=1, max_size=4), label="cofactor")})
    f = (g * power(alpha, data.draw(st.integers(0, 5), label="k"))).scale(
        data.draw(scale, label="content"))
    if not f.is_zero() and data.draw(st.booleans(), label="extra term"):
        extra = data.draw(st.lists(st.integers(0, n - 1), min_size=f.degree,
                                   max_size=f.degree), label="extra monomial")
        f = f + _p(n, {tuple(map(extra.count, range(n))): data.draw(_NONZERO)})
    m = data.draw(st.integers(1, 6), label="m")
    assert divisible_by_power(f, alpha, m) == substitution_divisible_by_power(f, alpha, m)


def test_divisibility_rejects_bad_alpha():
    with pytest.raises(ValueError):
        divisible_by_power(x, HomPoly.zero(2), 1)
    with pytest.raises(ValueError):
        divisible_by_power(x, x * y, 1)


def _random_hompoly(rng, num_vars, degree, terms=3):
    out = {}
    for _ in range(terms):
        e = [0] * num_vars
        for _ in range(degree):
            e[rng.randrange(num_vars)] += 1
        out[tuple(e)] = Fraction(rng.randint(-4, 4))
    return HomPoly.from_terms(num_vars, out)


def test_divisibility_of_products():
    # f * alpha^m is always divisible by alpha^m
    rng = random.Random(11)
    for _ in range(40):
        num_vars = rng.randint(2, 3)
        alpha = HomPoly.linear([rng.randint(-3, 3) for _ in range(num_vars)])
        if alpha.is_zero():
            continue
        m = rng.randint(1, 4)
        f = _random_hompoly(rng, num_vars, rng.randint(0, 3))
        if f.is_zero():
            continue
        assert divisible_by_power(f * power(alpha, m), alpha, m)
        # and one power higher fails unless alpha | f as well
        g = f * power(alpha, m)
        if not divisible_by_power(f, alpha, 1):
            assert not divisible_by_power(g, alpha, m + 1)


def test_poly_det_examples():
    a, b = 3, 2
    diag = [[power(x, a), HomPoly.zero(2)], [HomPoly.zero(2), power(y, b)]]
    assert poly_det(diag) == power(x, a) * power(y, b)
    assert poly_det([[x, y], [x, y]]).is_zero()
    # [[x, x^2], [y, y^2]] -> x*y^2 - x^2*y = -xy(x - y)
    det = poly_det([[x, x * x], [y, y * y]])
    assert det == _p(2, {(1, 2): 1, (2, 1): -1})
    assert det == (x * y * xmy).scale(-1)


def test_poly_det_matches_scalar_det_at_points():
    rng = random.Random(23)
    degrees = [1, 2, 0]
    grid = [[_random_hompoly(rng, 3, degrees[i]) for _ in range(3)] for i in range(3)]
    det = poly_det(grid)
    for _ in range(10):
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        scalar = fraction_det([[evaluate(entry, pt) for entry in row] for row in grid])
        assert evaluate(det, pt) == scalar


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_commutes_with_evaluation(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f = _random_hompoly(rng, 2, rng.randint(1, 3))
    change = Matrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
    g = substitute(f, change)
    pt = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    image = [sum(c * x for c, x in zip(row, pt)) for row in change.entries]
    assert evaluate(g, pt) == evaluate(f, image)


def test_parse_and_print_roundtrip():
    f = _p(3, {(2, 1, 0): Fraction(3), (0, 3, 0): Fraction(-1, 2), (1, 1, 1): 1})
    assert parse_poly(poly_to_str(f), 3) == f
    assert parse_poly("x1^2*x2 - x2*x1^2", 3).is_zero()
    assert parse_poly("0", 2).is_zero()
    assert parse_poly("2*x1 + 1/3*x2", 2) == _p(2, {(1, 0): 2, (0, 1): Fraction(1, 3)})
    with pytest.raises(ValueError):
        parse_poly("x5", 2)
    with pytest.raises(ValueError):
        parse_poly("x1 + x1^2", 2)  # inhomogeneous


@pytest.mark.parametrize("text", ["x\u0661", "x1^\u0662", "\u0662*x1", "1/\u0662*x1", "x1^"],
                         ids=["variable", "power", "coefficient", "denominator", "no-power"])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(ValueError):
        parse_poly(text, 2)
