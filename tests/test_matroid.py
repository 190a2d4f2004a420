import random

from totalfree import (
    Arrangement,
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    connected_components,
    decompose,
    essentialize,
    generic_arrangement,
    is_irreducible,
    normalize_hyperplane,
    reassemble_normals,
)
from oracles import bipartition_decompose, finest_additive_partition, random_invertible


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


def test_is_irreducible_examples():
    assert is_irreducible(arrangement(1, [(1,)]))
    assert not is_irreducible(arrangement(2, [(1, 0), (0, 1)]))
    # braid-S4 in ambient dimension 4 has a trivial direction: reducible
    assert not is_irreducible(braid_arrangement(4))
    assert is_irreducible(essentialize(braid_arrangement(4)).arrangement)
    assert not is_irreducible(Arrangement(1, ()))


def test_decompose_three_lines_plus_axis():
    arr = arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)])
    decomp = decompose(arr)
    assert decomp.factor_ranks() == (2, 1)
    assert decomp.trivial_directions == 0
    assert decomp.factors[0].indices == (0, 1, 2)


def test_decompose_braid_s4():
    decomp = decompose(braid_arrangement(4))
    assert decomp.factor_ranks() == (3,)
    assert decomp.trivial_directions == 1


def test_decompose_empty():
    decomp = decompose(Arrangement(2, ()))
    assert decomp.factors == ()
    assert decomp.trivial_directions == 2


def test_decompose_soundness_reassembly():
    corpus = [
        braid_arrangement(4),
        boolean_arrangement(4),
        arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)]),
        generic_arrangement(5, 3, seed=3),
        arrangement(2, [(1, 0), (0, 1), (1, 1)]),
    ]
    for arr in corpus:
        decomp = decompose(arr)
        assert decomp.change_of_basis.det() != 0
        back = [normalize_hyperplane(row) for row in reassemble_normals(decomp)]
        assert back == list(arr.hyperplanes)
        assert sum(decomp.factor_ranks()) + decomp.trivial_directions == arr.dim
        for f in decomp.factors:
            assert f.arrangement.rank() == f.arrangement.dim  # essential


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
