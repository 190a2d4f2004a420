import random
import warnings
from fractions import Fraction
from itertools import product as cartesian
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from totalfree import (
    Arrangement,
    DimensionMismatchError,
    Hyperplane,
    NotTotallyFreeError,
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    derivation,
    exponents_totally_free,
    generic_arrangement,
    lmp2,
    normalize_hyperplane,
    product,
    rank2_basis,
    rank2_exponents,
    saito_check,
    saito_verify,
)
from totalfree.linalg import Matrix
from totalfree.poly import HomPoly, poly_det
from totalfree.rank2 import (
    MAX_TRIVIAL_DIRECTIONS,
    _is_basis,
    _min_degree,
    _to_original,
    _transformed_lines,
)
from oracles import (
    euler_derivation,
    monomial,
    reference_saito_verify,
    search_rank2_basis,
    search_rank2_exponents,
    substitution_divisible_by_power,
    substitution_to_original,
    target_product,
    variable,
    wakamiko_exponents,
)

THREE_LINES = arrangement(2, [(1, 0), (0, 1), (1, -1)])
AXES = arrangement(2, [(1, 0), (0, 1)])


def _sq(i):
    e = [0, 0]
    e[i] = 2
    return monomial(2, e)


# -- exponents ---------------------------------------------------------------


def test_exponents_axes():
    assert rank2_exponents(AXES, (3, 5)).as_tuple() == (3, 5)
    assert rank2_exponents(AXES, (1, 1)).as_tuple() == (1, 1)


def test_exponents_three_lines_simple():
    assert rank2_exponents(THREE_LINES, (1, 1, 1)).as_tuple() == (1, 2)


def test_exponents_three_lines_double():
    assert rank2_exponents(THREE_LINES, (2, 2, 2)).as_tuple() == (3, 3)


def test_exponents_single_line():
    single = arrangement(2, [(2, -3)])
    assert rank2_exponents(single, (4,)).as_tuple() == (0, 4)


def test_exponents_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        rank2_exponents(boolean_arrangement(3), (1, 1, 1))


# -- bases -------------------------------------------------------------------


def test_basis_axes():
    t1, t2 = rank2_basis(AXES, (1, 1)).thetas
    assert saito_verify(AXES, (1, 1), (t1, t2))
    assert {t1.degree, t2.degree} == {1}


def test_basis_three_lines_simple():
    t1, t2 = rank2_basis(THREE_LINES, (1, 1, 1)).thetas
    assert (t1.degree, t2.degree) == (1, 2)
    assert saito_verify(THREE_LINES, (1, 1, 1), (t1, t2))
    det = poly_det([[t1.components[0], t1.components[1]],
                    [t2.components[0], t2.components[1]]])
    # det is a constant multiple of x*y*(x-y)
    target = HomPoly.linear([1, 0]) * HomPoly.linear([0, 1]) * HomPoly.linear([1, -1])
    probe = next(iter(target.coeffs))
    c = det.coeffs[probe] / target.coeffs[probe]
    assert c != 0 and det == target.scale(c)


def test_basis_three_lines_double():
    m = (2, 2, 2)
    t1, t2 = rank2_basis(THREE_LINES, m).thetas
    assert (t1.degree, t2.degree) == (3, 3)
    assert saito_verify(THREE_LINES, m, (t1, t2))


def test_basis_requires_two_lines():
    with pytest.raises(ValueError):
        rank2_basis(arrangement(2, [(1, 0)]), (3,))


# -- saito_verify ------------------------------------------------------------


def test_saito_axes_true_false():
    x_dx = derivation([HomPoly.linear([1, 0]), HomPoly.zero(2)])
    y_dy = derivation([HomPoly.zero(2), HomPoly.linear([0, 1])])
    assert saito_verify(AXES, (1, 1), (x_dx, y_dy))
    assert not saito_verify(AXES, (1, 1), (x_dx, x_dx))  # zero determinant


def test_saito_euler_pair():
    squares = derivation([_sq(0), _sq(1)])
    assert saito_verify(THREE_LINES, (1, 1, 1), (euler_derivation(2), squares))


def test_saito_rejects_nonmember_with_right_determinant():
    # det = c * x^2 * y but x*dx is not in D(A, (2,1))
    x_dx = derivation([HomPoly.linear([1, 0]), HomPoly.zero(2)])
    xy_dy = derivation([HomPoly.zero(2), monomial(2, (1, 1))])
    assert not saito_verify(AXES, (2, 1), (x_dx, xy_dy))
    # A failed membership leaves the constant to the divisibility test.
    check = saito_check(AXES, (2, 1), (x_dx, xy_dy))
    assert check.memberships == ((False, True), (True, True)) and check.constant == 1
    assert saito_verify(AXES, (1, 2), (x_dx, derivation([HomPoly.zero(2), _sq(1)])))


def test_saito_constant_with_unnormalized_normals():
    # Q = (-2x) * y, so det = x*y is Q times -1/2.
    arr = Arrangement(2, (Hyperplane((-2, 0)), Hyperplane((0, 1))))
    x_dx = derivation([HomPoly.linear([1, 0]), HomPoly.zero(2)])
    y_dy = derivation([HomPoly.zero(2), HomPoly.linear([0, 1])])
    assert saito_check(arr, (1, 1), (x_dx, y_dy)).constant == Fraction(-1, 2)


def test_saito_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        saito_verify(AXES, (1, 1), (euler_derivation(2),))


@pytest.mark.parametrize("bad", [Fraction(3, 2), 1.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("call", [
    lambda m: rank2_exponents(THREE_LINES, m),
    lambda m: lmp2(THREE_LINES, m),
    # The membership table is saito_check's; it checks m before any entry.
    lambda m: saito_check(THREE_LINES, m, (euler_derivation(2), derivation([_sq(0), _sq(1)]))
                          ).memberships,
    lambda m: saito_verify(THREE_LINES, m,
                           (euler_derivation(2), derivation([_sq(0), _sq(1)]))),
], ids=["rank2_exponents", "lmp2", "is_member", "saito_verify"])
def test_non_integer_multiplicity_rejected(call, bad):
    with pytest.raises(ValueError, match="positive integers"):
        call((bad, 1, 1))


def _power_dx(dim, j, e):
    """x_j^e d_j."""
    comps = [HomPoly.zero(dim)] * dim
    comps[j] = monomial(dim, [e if i == j else 0 for i in range(dim)])
    return derivation(comps)


def _variant(thetas, m, kind, k, j):
    """A basis or a broken one: the same derivations under another twist."""
    dim = len(thetas)
    if kind == "bumped":
        return thetas, tuple(v + (i == k % len(m)) for i, v in enumerate(m))
    k %= dim
    if kind == "repeated":
        return (thetas[k],) * dim, m
    comps = [list(t.components) for t in thetas]
    if kind == "times-variable":
        comps[k] = [c * variable(dim, j) for c in comps[k]]
    elif kind == "swapped":  # reversed components: det changes sign only
        comps = [c[::-1] for c in comps]
    elif kind == "plus-swap":  # det of the right degree, usually not c * target
        comps[k] = [a + b for a, b in zip(comps[k], comps[k][::-1])]
    return tuple(derivation(c) for c in comps), m


@st.composite
def saito_inputs(draw):
    """(arr, m, thetas): rank2_basis outputs on random rank-2 arrangements, or
    x_i^m_i d_i on the boolean arrangement in dim 3, each under a variant."""
    if draw(st.integers(0, 4)) == 0:
        arr = boolean_arrangement(3)
        m = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
        thetas = tuple(_power_dx(3, j, m[j]) for j in range(3))
    else:
        rows = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                             min_size=2, max_size=5)
                    .filter(lambda rs: len({normalize_hyperplane(r) for r in rs}) >= 2))
        arr = arrangement(2, dict.fromkeys(normalize_hyperplane(r).normal for r in rows))
        m = tuple(draw(st.lists(st.integers(1, 3), min_size=arr.n, max_size=arr.n)))
        thetas = rank2_basis(arr, m).thetas
    kind = draw(st.sampled_from(
        ["basis", "bumped", "repeated", "times-variable", "swapped", "plus-swap"]))
    k, j = draw(st.integers(0, 4)), draw(st.integers(0, arr.dim - 1))
    thetas, m = _variant(thetas, m, kind, k, j)
    return arr, m, thetas


@settings(max_examples=150)
@given(saito_inputs())
def test_saito_record_matches_reference(case):
    arr, m, thetas = case
    check = saito_check(arr, m, thetas)
    assert check.verified == reference_saito_verify(arr, m, thetas)
    assert saito_verify(arr, m, thetas) == check.verified
    assert check.det == poly_det([t.components for t in thetas])
    assert len(check.memberships) == arr.n
    for h, mult, row in zip(arr.hyperplanes, m, check.memberships):
        assert list(row) == [substitution_divisible_by_power(
            t.apply_to(h.normal), h.linear_form(), mult) for t in thetas]
    target = target_product(arr, m)
    probe = next(iter(target.coeffs))
    c = check.det.coeffs.get(probe, 0) / target.coeffs[probe]
    assert check.constant == (c if c != 0 and check.det == target.scale(c) else None)


@st.composite
def conjugated_pairs(draw):
    """(pair, C): binary forms of degree 0..12 with Fraction coefficients, one
    of them possibly zero, and an integer C with |det C| in {1, 2, 3, 6}."""
    size = draw(st.sampled_from([1, 2, 3, 6]))
    j, s, t = (draw(st.integers(-3, 3)) for _ in range(3))
    sign = draw(st.sampled_from([1, -1]))
    # [[1, 0], [s, 1]] @ [[size, j], [0, sign]] @ [[1, t], [0, 1]]: det = sign * size
    change = [[size, size * t + j], [s * size, s * (size * t + j) + sign]]
    if draw(st.booleans()):
        change = change[::-1]
    if draw(st.booleans()):
        change = [row[::-1] for row in change]
    d = draw(st.integers(0, 12))
    coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    comps = [draw(st.lists(coeff, min_size=d + 1, max_size=d + 1)) for _ in range(2)]
    zero = draw(st.sampled_from([None, 0, 1]))
    if zero is not None:
        comps[zero] = [0] * (d + 1)
    pair = tuple(HomPoly.from_terms(2, {(k, d - k): c for k, c in enumerate(cs)})
                 for cs in comps)
    assume(not all(p.is_zero() for p in pair))
    return pair, tuple(map(tuple, change))


@settings(max_examples=200)
@given(conjugated_pairs())
def test_to_original_matches_substitution(case):
    pair, change = case
    d = max(comp.degree for comp in pair)
    den = lcm(*(c.denominator for comp in pair for c in comp.coeffs.values()))
    ints = tuple([int(comp.coeffs.get((k, d - k), 0) * den) for k in range(d + 1)]
                 for comp in pair)
    assert _to_original(ints, den, change) == substitution_to_original(pair, Matrix(change))


# -- order-basis sweep against the degree-by-degree search ------------------


@st.composite
def rank2_inputs(draw):
    """(arr, m): 2-6 distinct lines with coefficients in [-9, 9], m in [1, 12]."""
    normals = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any),
                            min_size=2, max_size=6)
                   .map(lambda rs: list(dict.fromkeys(normalize_hyperplane(r).normal
                                                      for r in rs)))
                   .filter(lambda ns: len(ns) >= 2))
    m = tuple(draw(st.lists(st.integers(1, 12), min_size=len(normals),
                            max_size=len(normals))))
    return arrangement(2, normals), m


@settings(max_examples=100)
@given(rank2_inputs())
def test_sweep_matches_degree_search(case):
    arr, m = case
    assert rank2_exponents(arr, m).as_tuple() == search_rank2_exponents(arr, m)
    assert rank2_basis(arr, m).thetas == search_rank2_basis(arr, m)


# -- the integer basis check against saito_check ------------------------------


def _sweep(arr, m):
    """(normals, lines, C, generators as (p, q) lists) of the sweep on (arr, m)."""
    normals = tuple(arr.normals())
    _, lines, change = _transformed_lines(normals, m)
    return normals, lines, change, [(list(p), list(q)) for _, p, q in _min_degree(normals, m)]


def _times_monomial(gen, i, j):
    """x^i y^j times the generator (p, q)."""
    return tuple([0] * i + w + [0] * j for w in gen)


@st.composite
def checked_bases(draw):
    """(arr, m, lines, C, gens): the sweep's generators on rank2_inputs, or with
    one entry of a generator moved by 1 (usually a non-member), the second
    replaced by a monomial times the first (det 0), or one times x or y (the
    degrees then sum to |m| + 1)."""
    arr, m = draw(rank2_inputs())
    _, lines, change, gens = _sweep(arr, m)
    kind = draw(st.sampled_from(["basis", "perturbed", "multiple", "degree"]))
    k = draw(st.integers(0, 1))
    if kind == "perturbed":
        w = gens[k][draw(st.integers(0, 1))]
        w[draw(st.integers(0, len(w) - 1))] += draw(st.sampled_from([-1, 1]))
    elif kind == "multiple":
        delta = len(gens[1][0]) - len(gens[0][0])
        i = draw(st.integers(0, delta))
        gens[1] = _times_monomial(gens[0], i, delta - i)
    elif kind == "degree":
        i = draw(st.integers(0, 1))
        gens[k] = _times_monomial(gens[k], i, 1 - i)
    return arr, m, lines, change, gens


@settings(max_examples=200)
@given(checked_bases())
def test_integer_basis_check_matches_saito_check(case):
    arr, m, lines, change, gens = case
    thetas = tuple(_to_original(gen, 1, change) for gen in gens)
    verdict = _is_basis(tuple(arr.normals()), m, lines, change, gens)
    assert verdict == saito_check(arr, m, thetas).verified


@settings(max_examples=50)
@given(rank2_inputs())
def test_integer_basis_check_rejects_wrong_conjugation(case):
    arr, m = case
    normals, lines, change, gens = _sweep(arr, m)
    assert _is_basis(normals, m, lines, change, gens)
    # 2C sends every normal to a multiple of its line: still a conjugation.
    assert _is_basis(normals, m, lines, tuple(tuple(2 * c for c in row) for row in change), gens)
    (c00, c01), (c10, c11) = change
    # C with its columns swapped sends the x-axis' normal onto the y-axis, and
    # a singular C sends every normal onto one line.
    for wrong in (((c01, c00), (c11, c10)), ((c00, 2 * c00), (c10, 2 * c10))):
        assert not _is_basis(normals, m, lines, wrong, gens)


@settings(max_examples=50)
@given(rank2_inputs())
def test_integer_basis_check_rejects_singular_or_ragged_input_alone(case):
    # C = 0 passes every proportionality check, and a zero appended to one q
    # changes no membership and no determinant (zip stops at the shorter):
    # each is refused by its own first test only.
    arr, m = case
    normals, lines, change, gens = _sweep(arr, m)
    assert not _is_basis(normals, m, lines, ((0, 0), (0, 0)), gens)
    (p1, q1), second = gens
    assert not _is_basis(normals, m, lines, change, [(p1, q1 + [0]), second])


@pytest.mark.parametrize("normals", [[(1, 0), (0, 1), (1, -1)], [(2, 1), (1, -3), (3, 2)]])
def test_three_lines_match_wakamiko(normals):
    arr = arrangement(2, normals)
    mismatched = [m for m in cartesian(range(1, 16), repeat=3)
                  if rank2_exponents(arr, m).as_tuple() != wakamiko_exponents(m)]
    assert mismatched == []


# -- seeded sweep ------------------------------------------------------------


def _rank2_corpus():
    return [
        AXES,
        THREE_LINES,
        arrangement(2, [(1, 0), (0, 1), (1, -1), (1, 1)]),
        generic_arrangement(5, 2, seed=11),
        generic_arrangement(6, 2, seed=12),
    ]


def test_sweep_basis_and_degree_count():
    rng = random.Random(101)
    for arr in _rank2_corpus():
        for _ in range(8):
            m = tuple(rng.randint(1, 4) for _ in range(arr.n))
            pair = rank2_exponents(arr, m)
            assert pair.d1 + pair.d2 == sum(m)
            t1, t2 = rank2_basis(arr, m).thetas
            assert (t1.degree, t2.degree) == pair.as_tuple()
            assert saito_verify(arr, m, (t1, t2))
            assert all(map(all, saito_check(arr, m, (t1, t2)).memberships))


def test_monotonicity_observation():
    # Plausibility check, not a hard invariant: bumping one multiplicity
    # keeps the pair summing right and should move d1 by at most 1.
    rng = random.Random(202)
    violations = []
    for arr in _rank2_corpus():
        for _ in range(6):
            m = tuple(rng.randint(1, 3) for _ in range(arr.n))
            base = rank2_exponents(arr, m)
            for i in range(arr.n):
                bumped = tuple(v + 1 if j == i else v for j, v in enumerate(m))
                after = rank2_exponents(arr, bumped)
                assert after.d1 + after.d2 == sum(bumped)
                if not (base.d1 <= after.d1 <= base.d1 + 1):
                    violations.append((arr.normals(), m, i, base, after))
    if violations:
        warnings.warn(f"d1 monotonicity violated in {len(violations)} cases: "
                      f"{violations[:3]}")


# -- exponents of totally free arrangements ----------------------------------


def test_exponents_boolean():
    assert exponents_totally_free(boolean_arrangement(3), (2, 3, 1)) == (1, 2, 3)


def test_exponents_product():
    arr = product(THREE_LINES, arrangement(1, [(1,)]))
    assert exponents_totally_free(arr, (1, 1, 1, 1)) == (1, 1, 2)
    assert exponents_totally_free(arr, (2, 2, 2, 5)) == (3, 3, 5)


def test_exponents_with_trivial_directions():
    arr = arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0)])
    assert exponents_totally_free(arr, (1, 1, 1)) == (0, 1, 2)


def test_exponents_trivial_direction_limit():
    limit = MAX_TRIVIAL_DIRECTIONS
    assert exponents_totally_free(arrangement(limit, []), ()) == (0,) * limit
    with pytest.raises(ValueError, match=f"{limit + 1} trivial directions"):
        exponents_totally_free(arrangement(limit + 1, []), ())


def test_exponents_sum_identity():
    rng = random.Random(303)
    arr = product(THREE_LINES, boolean_arrangement(2))
    for _ in range(10):
        m = tuple(rng.randint(1, 5) for _ in range(arr.n))
        exps = exponents_totally_free(arr, m)
        assert sum(exps) == sum(m)
        assert len(exps) == arr.dim


def test_exponents_rejects_braid():
    with pytest.raises(NotTotallyFreeError):
        exponents_totally_free(braid_arrangement(4), (1,) * 6)
