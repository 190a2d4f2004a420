import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from totalfree.linalg import Matrix, _frac
from oracles import fraction_rank, fraction_rref

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# Small rationals, exact zeros, and entries of magnitude about 10^6.
entries_st = st.one_of(
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4)),
    st.just(Fraction(0)),
    st.builds(lambda sign, k, d: Fraction(sign * k, d), st.sampled_from((-1, 1)),
              st.integers(10**6 - 9, 10**6 + 9), st.integers(1, 7)),
)
grid_st = st.lists(entries_st, min_size=36, max_size=36)


def test_rank_identity():
    assert Matrix([(1, 0), (0, 1)]).rank() == 2


def test_rank_zero_matrix():
    assert Matrix([(0, 0, 0)] * 3).rank() == 0


def test_rank_dependent_rows():
    # third row is the sum of the first two
    m = Matrix([(1, -1, 0), (0, 1, -1), (1, 0, -1)])
    assert m.rank() == 2


def test_kernel_identity_empty():
    assert Matrix([(1, 0), (0, 1)]).kernel_basis() == []


def test_kernel_single_equation():
    (v,) = Matrix([(1, 1)]).kernel_basis()
    assert v[0] * 1 + v[1] * 1 == 0 and v != (0, 0)
    # spans (1, -1)
    assert v[0] * (-1) == v[1]


def test_kernel_two_equations():
    (v,) = Matrix([(1, -1, 0), (0, 1, -1)]).kernel_basis()
    # spans (1, 1, 1)
    assert v[0] == v[1] == v[2] != 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_nullity(rows, cols, data):
    entries = [[data.draw(fractions_st) for _ in range(cols)] for _ in range(rows)]
    m = Matrix(entries)
    assert m.rank() + len(m.kernel_basis()) == cols


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(cols)]
                    for _ in range(rows)])
        for v in m.kernel_basis():
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)


def test_rref_pivots():
    m = Matrix([(0, 2, 1), (0, 4, 3)])
    red, pivots = m.rref()
    assert pivots == (1, 2)
    assert red.entries[0][1] == 1 and red.entries[1][2] == 1


@settings(max_examples=150)
@given(st.data())
def test_elimination_matches_fraction_reference(data):
    rows = data.draw(st.integers(0, 6))
    cols = data.draw(st.integers(0, 6)) if rows else 0
    flat = data.draw(grid_st)
    grid = [flat[6 * i:6 * i + cols] for i in range(rows)]
    if rows >= 2 and data.draw(st.booleans()):
        # force a rank deficiency: one row becomes a combination of others
        i = data.draw(st.integers(0, rows - 1))
        j, k = (data.draw(st.sampled_from([x for x in range(rows) if x != i]))
                for _ in range(2))
        a, b = data.draw(entries_st), data.draw(entries_st)
        grid[i] = [a * x + b * y for x, y in zip(grid[j], grid[k])]
    m = Matrix(grid)

    red, pivots = fraction_rref(grid, cols)
    assert m.rref() == (Matrix(red), pivots)
    assert m.rank() == fraction_rank(grid, cols) == len(pivots)
    kernel = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        kernel.append(tuple(v))
    assert m.kernel_basis() == kernel


@pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1/2", None, 1j])
def test_frac_refuses_every_value_but_an_int_or_a_fraction(value):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True)
    # is 1: neither may pass silently.
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        _frac(value)


def test_frac_keeps_ints_and_fractions():
    assert _frac(3) == Fraction(3) and type(_frac(3)) is Fraction
    half = Fraction(1, 2)
    assert _frac(half) is half
    with pytest.raises(TypeError, match="0.5"):
        Matrix([[1, 0.5]])
