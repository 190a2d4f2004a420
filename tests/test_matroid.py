import ast
import json
import os
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import totalfree
from totalfree import (
    Arrangement,
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    connected_components,
    decide_totally_free,
    decompose,
    essentialize,
    format_arrangement,
    generic_arrangement,
    normalize_hyperplane,
    product,
    subarrangement,
)
from totalfree.cli import main
from oracles import (
    assert_pivot_restriction,
    bipartition_decompose,
    finest_additive_partition,
    fraction_components,
    fraction_rank,
    random_invertible,
    random_unimodular,
)


def _transformed(arr, change):
    rows = [[sum(h.normal[k] * change.entries[k][j] for k in range(arr.dim))
             for j in range(arr.dim)] for h in arr.hyperplanes]
    return arrangement(arr.dim, rows)


# A rank-3 circuit on x1..x3 and three lines on x4, x5, with the blocks
# interleaved in index order.
_INTERLEAVED = arrangement(5, [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0),
                               (0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1),
                               (1, 1, 1, 0, 0)])


def test_components_boolean():
    assert connected_components(arrangement(2, [(1, 0), (0, 1)])) == [(0,), (1,)]


def test_components_three_lines_plus_axis():
    arr = arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)])
    assert connected_components(arr) == [(0, 1, 2), (3,)]


def test_components_braid_s4_single_block():
    assert connected_components(braid_arrangement(4)) == [tuple(range(6))]


def test_components_u23():
    # all pairs are rank-additive, yet the triple is one component
    arr = arrangement(2, [(1, 0), (0, 1), (1, 1)])
    assert connected_components(arr) == [(0, 1, 2)]


def test_components_empty():
    assert connected_components(Arrangement(3, ())) == []


def test_components_match_exhaustive_oracle():
    rng = random.Random(17)
    corpus = [
        arrangement(2, [(1, 0), (0, 1)]),
        arrangement(2, [(1, 0), (0, 1), (1, 1)]),
        arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)]),
        braid_arrangement(4),
        boolean_arrangement(4),
        generic_arrangement(5, 3, seed=1),
        generic_arrangement(6, 3, seed=2),
        # the first four hyperplanes are dependent, so the greedy basis skips
        # indices 2 and 3
        arrangement(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0),
                        (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]),
        _INTERLEAVED,
        _transformed(_INTERLEAVED, random_invertible(random.Random(5), 5)),
    ]
    for _ in range(8):
        dim = rng.randint(2, 4)
        n = rng.randint(2, 7)
        rows = []
        while len(rows) < n:
            v = [rng.randint(-2, 2) for _ in range(dim)]
            if all(c == 0 for c in v):
                continue
            h = normalize_hyperplane(v).normal
            if h not in rows:
                rows.append(h)
        corpus.append(arrangement(dim, rows))
    for arr in corpus:
        expected = finest_additive_partition(arr)
        assert connected_components(arr) == expected
        assert bipartition_decompose(arr) == expected


def _ranks(decomp):
    return tuple(f.rank for f in decomp.factors)


def test_is_irreducible_examples():
    # Irreducible: one factor and no trivial direction.
    def is_irreducible(arr):
        decomp = decompose(arr)
        return len(decomp.factors) == 1 and decomp.trivial_directions == 0

    assert is_irreducible(arrangement(1, [(1,)]))
    assert not is_irreducible(arrangement(2, [(1, 0), (0, 1)]))
    # braid-S4 in ambient dimension 4 has a trivial direction: reducible
    assert not is_irreducible(braid_arrangement(4))
    assert is_irreducible(essentialize(braid_arrangement(4)))
    assert not is_irreducible(Arrangement(1, ()))


def test_decompose_three_lines_plus_axis():
    arr = arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)])
    decomp = decompose(arr)
    assert _ranks(decomp) == (2, 1)
    assert decomp.trivial_directions == 0
    assert decomp.factors[0].indices == (0, 1, 2)


def test_decompose_braid_s4():
    decomp = decompose(braid_arrangement(4))
    assert _ranks(decomp) == (3,)
    assert decomp.trivial_directions == 1


def test_decompose_empty():
    decomp = decompose(Arrangement(2, ()))
    assert decomp.factors == ()
    assert decomp.trivial_directions == 2


def _assert_product_of_factors(arr, decomp):
    """Factors are their blocks on the RREF pivot columns; ranks add up."""
    assert sum(_ranks(decomp)) == arr.rank() == fraction_rank(arr.normals(), arr.dim)
    assert decomp.trivial_directions == arr.dim - arr.rank()
    for f in decomp.factors:
        assert_pivot_restriction(subarrangement(arr, f.indices), f.arrangement)


def test_decompose_soundness_reassembly():
    corpus = [
        braid_arrangement(4),
        boolean_arrangement(4),
        arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)]),
        generic_arrangement(5, 3, seed=3),
        arrangement(2, [(1, 0), (0, 1), (1, 1)]),
        _INTERLEAVED,
        arrangement(6, [(0, 1, 0, 2, 0, 0), (0, 0, 0, 1, 0, 0), (0, 1, 0, 1, 0, 0),
                        (0, 0, 0, 0, 0, 3)]),
    ]
    for arr in corpus:
        _assert_product_of_factors(arr, decompose(arr))


def test_decompose_partition_invariant_under_coordinate_change():
    rng = random.Random(41)
    for arr in (braid_arrangement(4),
                arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)]),
                boolean_arrangement(3)):
        base = [f.indices for f in decompose(arr).factors]
        for _ in range(5):
            change = random_invertible(rng, arr.dim)
            moved = _transformed(arr, change)
            assert [f.indices for f in decompose(moved).factors] == base


@st.composite
def embedded_products(draw):
    """Products of small blocks, moved by a unimodular change and zero-padded.

    Padding puts zero columns among the coordinates, so pivot columns are
    not a prefix; without a change of coordinates every block keeps its own
    coordinates, with one the blocks share all of them.
    """
    blocks = []
    for _ in range(draw(st.integers(1, 4), label="blocks")):
        r = draw(st.integers(1, 3), label="block rank")
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r)
                             .filter(any), min_size=1, max_size=4), label="block rows")
        blocks.append(arrangement(r, dict.fromkeys(normalize_hyperplane(v).normal
                                                   for v in rows)))
    arr = reduce(product, blocks)
    rng = random.Random(draw(st.integers(0, 10**6), label="rng seed"))
    if draw(st.booleans(), label="change coordinates"):
        u = random_unimodular(rng, arr.dim)
        arr = arrangement(arr.dim, [[sum(a[k] * u[k][j] for k in range(arr.dim))
                                     for j in range(arr.dim)] for a in arr.normals()])
    dim = arr.dim + draw(st.integers(0, 3), label="zero columns")
    kept = sorted(rng.sample(range(dim), arr.dim))
    padded = []
    for a in arr.normals():
        row = [0] * dim
        for k, c in zip(kept, a):
            row[k] = c
        padded.append(row)
    return arrangement(dim, padded)


@settings(max_examples=150)
@given(embedded_products())
def test_structure_matches_fraction_rref(arr):
    assert connected_components(arr) == fraction_components(arr)
    decomp = decompose(arr)
    assert [f.indices for f in decomp.factors] == fraction_components(arr)
    _assert_product_of_factors(arr, decomp)


# -- cost in the ambient dimension ---------------------------------------------


_BIG_DIM = 10_000


def _two_hyperplanes(dim):
    """x1 - x2 and x2 - x3 in the given dimension."""
    return [(1, -1) + (0,) * (dim - 2), (0, 1, -1) + (0,) * (dim - 3)]


def test_decide_cost_does_not_grow_with_ambient_dimension():
    arr = arrangement(_BIG_DIM, _two_hyperplanes(_BIG_DIM))
    start = time.perf_counter()
    verdict = decide_totally_free(arr)
    elapsed = time.perf_counter() - start
    assert verdict.totally_free
    assert [f.indices for f in verdict.decomposition.factors] == [(0,), (1,)]
    assert [f.arrangement for f in verdict.decomposition.factors] == [
        arrangement(1, [(1,)])] * 2
    assert verdict.decomposition.trivial_directions == _BIG_DIM - 2
    assert elapsed < 1.0


def test_cli_totally_free_cost_does_not_grow_with_ambient_dimension(tmp_path, capsys):
    path = tmp_path / "two.arr"
    path.write_text(format_arrangement(arrangement(_BIG_DIM, _two_hyperplanes(_BIG_DIM))))
    start = time.perf_counter()
    code = main(["totally-free", "--json", "-i", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["totally_free"] is True
    assert result["factors"] == [{"indices": [0], "rank": 1}, {"indices": [1], "rank": 1}]
    assert result["trivial_directions"] == _BIG_DIM - 2
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["analyze", "lmp2"])
def test_cli_rank2_flat_cost_does_not_grow_with_ambient_dimension(tmp_path, capsys, command):
    """x_{d-3} - x_{d-2} and x_{d-2} - x_{d-1}: one rank-2 flat in the last coordinates."""
    tail = [(1, -1, 0), (0, 1, -1)]
    path = tmp_path / "two.arr"
    path.write_text(format_arrangement(
        arrangement(_BIG_DIM, [(0,) * (_BIG_DIM - 3) + t for t in tail])))
    start = time.perf_counter()
    code = main([command, "--json", "-i", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    if command == "analyze":
        assert result["rank2_flats"] == [{"members": [0, 1], "size": 2}]
    else:
        assert result["per_flat"] == [{"members": [0, 1], "multiplicities": [1, 1],
                                       "exponents": [1, 1], "product": 1}]
    assert elapsed < 1.0


# -- layering ------------------------------------------------------------------


def test_structure_layer_does_not_use_matrix():
    """Structure comes from integer pivots and rank-2 exponents from the
    integer sweep: ``arrangement``, ``matroid`` and ``rank2`` never name the
    ``Fraction`` matrix class."""
    package = os.path.dirname(totalfree.__file__)
    for module in ("arrangement.py", "matroid.py", "rank2.py"):
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "Matrix" not in names, module
