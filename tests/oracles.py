"""Independent brute-force oracles used by the test suite.

Everything here recomputes results from first principles (exhaustive
enumeration, evaluation at points) without calling the code paths under
test, so agreement is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from totalfree.arrangement import (
    Arrangement, check_multiplicity, derivation, is_member_at, normalize_hyperplane)
from totalfree.certificates import _all_triples_rank3, _closure_facts, gmp2_max
from totalfree.errors import DimensionMismatchError
from totalfree.linalg import Matrix
from totalfree.poly import HomPoly, poly_det
from totalfree.rank2 import _transformed_lines, line_exponents


def rank_rows(rows) -> int:
    """Integer fraction-free elimination; independent of the package's Matrix."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c]
                m[i] = [pivot * a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_rref(rows, cols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form by rational Gauss-Jordan elimination.

    The package's elimination before it became fraction-free, kept as the
    reference for it.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def fraction_rank(rows, cols: int) -> int:
    """Rank by rational forward elimination (reference)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(cols):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][c]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_det(rows) -> Fraction:
    """Determinant by rational forward elimination (reference)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        piv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def primitive(vec) -> tuple[int, ...]:
    """Integer multiple of a nonzero rational vector: gcd 1, first nonzero > 0."""
    fracs = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in fracs))
    ints = [int(x * den) for x in fracs]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def monomial(num_vars: int, exponent, coeff=1) -> HomPoly:
    """``coeff`` times the monomial with this exponent tuple."""
    return HomPoly.from_terms(num_vars, {tuple(exponent): coeff})


def variable(num_vars: int, index: int) -> HomPoly:
    """The coordinate x_{index + 1}."""
    return HomPoly.linear([int(i == index) for i in range(num_vars)])


def euler_derivation(dim: int):
    """The Euler derivation sum x_i d/dx_i, a member of every D(A, 1)."""
    return derivation([variable(dim, i) for i in range(dim)])


def power(f, k: int):
    """``f`` to the ``k``-th power by repeated squaring.

    The package's ``HomPoly.__pow__``, which nothing outside the tests
    called, kept for them.
    """
    if k < 0:
        raise ValueError("negative power")
    result = monomial(f.num_vars, (0,) * f.num_vars)
    while k:
        if k & 1:
            result = result * f
        f = f * f if k > 1 else f
        k >>= 1
    return result


def evaluate(f, point) -> Fraction:
    """Value of ``f`` at a rational point.

    The package's ``HomPoly.evaluate``, which nothing outside the tests
    called, kept for them.
    """
    if len(point) != f.num_vars:
        raise ValueError("point has wrong arity")
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in f.coeffs.items():
        v = c
        for x, k in zip(pt, e):
            v *= x ** k
        total += v
    return total


def substitute(f, change):
    """Apply the linear change of variables ``x_i = sum_j change[i][j] * y_j``.

    ``change`` is a Matrix with one row per old variable; the number of
    columns is the number of new variables.

    The package's ``HomPoly.substitute`` before changes of coordinates went
    to integer coefficient lists, kept as the reference for them.
    """
    if change.rows != f.num_vars:
        raise ValueError("substitution matrix has wrong number of rows")
    new_vars = change.cols
    if f.is_zero():
        return HomPoly.zero(new_vars)
    images = [HomPoly.linear(change.entries[i]) for i in range(f.num_vars)]
    # Cache powers of each image; exponents repeat heavily across terms.
    powers: list[dict[int, HomPoly]] = [{} for _ in range(f.num_vars)]

    def image_power(i: int, k: int) -> HomPoly:
        if k not in powers[i]:
            powers[i][k] = power(images[i], k)
        return powers[i][k]

    result = HomPoly.zero(new_vars)
    for e, c in f.coeffs.items():
        term = monomial(new_vars, (0,) * new_vars, c)
        for i, k in enumerate(e):
            if k:
                term = term * image_power(i, k)
        if result.is_zero():
            result = term
        else:
            result = result + term
    return result


def substitution_to_original(pair, change):
    """Transport a rank-2 derivation from conjugated coordinates back to the input ones.

    ``change`` is the Matrix C with x = C u.  The package's ``_to_original``
    before it became an integer transform, kept as the reference for it.
    """
    (a, b), (c, d) = change.entries
    det = a * d - b * c
    inverse = Matrix([[d / det, -b / det], [-c / det, a / det]])  # the adjugate over det
    composed = [substitute(comp, inverse) for comp in pair]
    comps = []
    for i in range(2):
        acc = HomPoly.zero(2)
        for j in range(2):
            c = change.entries[i][j]
            if c != 0 and not composed[j].is_zero():
                acc = acc + composed[j].scale(c)
        comps.append(acc)
    return derivation(comps)


def substitution_divisible_by_power(f, alpha, m: int) -> bool:
    """Exact test of ``alpha^m | f`` for a nonzero linear form ``alpha``.

    Performs an invertible linear change of variables sending ``alpha`` to a
    scalar multiple of the first coordinate, then inspects the surviving
    monomials: divisibility holds iff all of them have first-variable
    exponent at least ``m``.  The zero polynomial is divisible by anything.

    The package's test before it became division by ``alpha``, kept as the
    reference for it.
    """
    if alpha.degree != 1:
        raise ValueError("alpha must be a nonzero linear form")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if f.num_vars != alpha.num_vars:
        raise ValueError("f and alpha live in different variable sets")
    if f.is_zero():
        return True
    if f.degree < m:
        return False
    n = f.num_vars
    a = [alpha.coeffs.get(tuple(1 if j == i else 0 for j in range(n)), Fraction(0))
         for i in range(n)]
    p = next(i for i, c in enumerate(a) if c != 0)
    # Columns: e_p (alpha evaluates to a_p != 0), then a kernel basis of alpha.
    cols: list[list[Fraction]] = [[Fraction(1) if i == p else Fraction(0) for i in range(n)]]
    for j in range(n):
        if j == p:
            continue
        w = [Fraction(0)] * n
        w[j] = a[p]
        w[p] = -a[j]
        cols.append(w)
    change = Matrix([[cols[c][i] for c in range(n)] for i in range(n)])
    g = substitute(f, change)
    return all(e[0] >= m for e in g.coeffs)


def target_product(arr, m):
    """Saito's target Q = prod alpha_H^{m(H)}, expanded term by term."""
    target = monomial(arr.dim, (0,) * arr.dim)
    for h, mult in zip(arr.hyperplanes, m):
        target = target * power(h.linear_form(), mult)
    return target


def reference_saito_verify(arr, m, thetas) -> bool:
    """Saito-style basis check for the logarithmic derivation module.

    True iff every derivation is a member and the determinant of their
    coefficient matrix equals a nonzero constant times the product of the
    defining forms raised to their multiplicities.

    The package's check before it became the ``SaitoCheck`` record, kept as
    the reference for it.
    """
    if arr.dim < 1:
        raise DimensionMismatchError("Saito check needs ambient dimension >= 1")
    if len(thetas) != arr.dim:
        raise DimensionMismatchError(
            f"{len(thetas)} derivations for ambient dimension {arr.dim}")
    for theta in thetas:
        if theta.dim != arr.dim:
            raise DimensionMismatchError("derivation arity mismatch")
    check_multiplicity(arr, m)
    if not all(is_member_at(theta, h, mult) for theta in thetas
               for h, mult in zip(arr.hyperplanes, m)):
        return False
    det = poly_det([[theta.components[j] for j in range(arr.dim)]
                    for theta in thetas])
    if det.is_zero():
        return False
    target = target_product(arr, m)
    if det.degree != target.degree:
        return False
    probe = next(iter(target.coeffs))
    c = det.coeffs.get(probe)
    if c is None:
        return False
    return det == target.scale(c / target.coeffs[probe])


def _degree_system(lines, ms, d):
    """Constraint rows for degree-d members, over the surviving unknowns.

    Unknowns are the coefficients of p on x^j y^(d-j) for j >= m0 and of q
    for j <= d - m1 (the axis conditions already consumed the rest), ordered
    by ascending j with all p-unknowns before all q-unknowns.  Every further
    line contributes min(m_i, d+1) rows: the low-order coefficients of
    theta(alpha_i) after the change of variables sending alpha_i to the
    first coordinate.
    """
    m0, m1 = ms[0], ms[1]
    p_idx = [j for j in range(d + 1) if j >= m0]
    q_idx = [j for j in range(d + 1) if j <= d - m1]
    rows = []
    for (a, b), mult in zip(lines[2:], ms[2:]):
        # theta(a*x + b*y) = a*p + b*q; substitute x = u + b*v, y = -a*v and
        # read off the coefficients of u^k v^(d-k) for k < mult.
        for k in range(min(mult, d + 1)):
            def transfer(j: int) -> int:
                if k > j:
                    return 0
                return comb(j, k) * b ** (j - k) * (-a) ** (d - j)
            rows.append([a * transfer(j) for j in p_idx]
                        + [b * transfer(j) for j in q_idx])
    return p_idx, q_idx, rows


def _search_min_degree(lines, ms) -> int:
    """Smallest degree whose linear system has a nonzero solution."""
    for d in range(sum(ms) // 2 + 1):
        unknowns = max(0, d + 1 - ms[0]) + max(0, d + 1 - ms[1])
        if unknowns == 0:
            continue
        _, _, rows = _degree_system(lines, ms, d)
        if Matrix(rows).rank() < unknowns:
            return d
    raise AssertionError("no derivation up to half the total multiplicity")


def _kernel_derivations(lines, ms, d):
    """All degree-d members as (p, q) pairs, canonical kernel basis order."""
    p_idx, q_idx, rows = _degree_system(lines, ms, d)
    unknowns = len(p_idx) + len(q_idx)
    if unknowns == 0:
        return []
    if rows:
        kernel = Matrix(rows).kernel_basis()
    else:
        kernel = [tuple(Fraction(1 if i == j else 0) for j in range(unknowns))
                  for i in range(unknowns)]
    out = []
    for v in kernel:
        p_terms = {(j, d - j): v[i] for i, j in enumerate(p_idx)}
        q_terms = {(j, d - j): v[len(p_idx) + i] for i, j in enumerate(q_idx)}
        out.append((HomPoly.from_terms(2, p_terms), HomPoly.from_terms(2, q_terms)))
    return out


def _axes_first(arr2, m):
    """The conjugated lines and their multiplicities, the two axes first, and C."""
    order, lines, change = _transformed_lines(tuple(arr2.normals()), m)
    return [lines[i] for i in order], [m[i] for i in order], change


def search_rank2_exponents(arr2, m) -> tuple[int, int]:
    """(d1, d2) by the degree-by-degree search: one linear system per degree.

    The package's rank-2 exponents before the order-basis sweep, kept as
    the reference for it.
    """
    if arr2.n == 1:
        return 0, m[0]
    lines, ms, _ = _axes_first(arr2, m)
    d1 = _search_min_degree(lines, ms)
    return d1, sum(m) - d1


def search_rank2_basis(arr2, m):
    """theta1: the first RREF kernel vector of the degree-d1 system; theta2:
    the first degree-d2 kernel vector whose determinant with theta1 is
    nonzero.  Both in the input coordinates.

    The package's rank-2 basis before the order-basis sweep, kept as the
    reference for it.
    """
    lines, ms, change = _axes_first(arr2, m)
    d1 = _search_min_degree(lines, ms)
    t1 = _kernel_derivations(lines, ms, d1)[0]
    for t2 in _kernel_derivations(lines, ms, sum(m) - d1):
        if not poly_det([list(t1), list(t2)]).is_zero():
            return tuple(substitution_to_original(t, Matrix(change)) for t in (t1, t2))
    raise AssertionError("no degree-d2 partner with nonzero determinant")


def wakamiko_exponents(m) -> tuple[int, int]:
    """Exponents of three distinct lines under m, by Wakamiko's closed form.

    Wakamiko, On the exponents of 2-multiarrangements (Tokyo J. Math. 2007):
    (|m| - m_max, m_max) when 2 m_max >= |m|, else (floor(|m|/2), ceil(|m|/2)).
    """
    total, top = sum(m), max(m)
    if 2 * top >= total:
        return total - top, top
    return total // 2, (total + 1) // 2


def brute_rank2_flats(normals) -> list[tuple[int, ...]]:
    """Member tuples of the rank-2 flats by 3x3 rational ranks.

    The flat of a pair (i, j) is i, j and every k whose normal has rank 2
    together with theirs; flats are listed as their first pair comes in
    lexicographic order.
    """
    dim = len(normals[0]) if normals else 0
    flats = []
    covered = set()
    for i, j in combinations(range(len(normals)), 2):
        if (i, j) in covered:
            continue
        members = tuple(k for k in range(len(normals)) if k in (i, j)
                        or fraction_rank([normals[i], normals[j], normals[k]], dim) == 2)
        covered.update(combinations(members, 2))
        flats.append(members)
    return flats


def rref_localization(normals, members, u, v) -> list[tuple[int, ...]]:
    """Primitive coordinates of each member normal in the basis (u, v).

    Solves c1 u + c2 v = a by reducing the columns u, v, a; a is required to
    lie in the span.
    """
    out = []
    for k in members:
        a = normals[k]
        red, pivots = fraction_rref([[u[t], v[t], a[t]] for t in range(len(a))], 3)
        assert pivots == (0, 1), f"normal {k} is not in the span of u and v"
        out.append(primitive((red[0][2], red[1][2])))
    return out


def assert_pivot_restriction(arr, ess) -> None:
    """``ess`` is ``arr`` restricted to its RREF pivot columns, and essential.

    Each normal of ``ess`` is the primitive form of ``arr``'s normal on the
    pivot columns of the rational RREF, and that restricted normal times
    the RREF basis B gives back ``arr``'s normal up to scale: B is the
    identity on the pivot columns, so a = (a on the pivots) B for every a in
    the span of the normals.
    """
    basis, pivots = fraction_rref(arr.normals(), arr.dim)
    assert ess.dim == len(pivots) == fraction_rank(ess.normals(), ess.dim)
    assert ess.n == arr.n
    for new, old in zip(ess.normals(), arr.normals()):
        assert new == primitive([old[p] for p in pivots])
        assert primitive([sum(c * basis[k][j] for k, c in enumerate(new))
                          for j in range(arr.dim)]) == old


def all_triples_brute_circuit(arr, rank: int) -> list[int] | None:
    """The lexicographically first (rank+1)-subset whose triples all have rank 3.

    The package's ``_brute_circuit`` before it tested only the triples through
    each candidate: this DFS re-tests every triple of the chosen indices plus
    the candidate, kept as the reference for it.
    """
    normals = arr.normals()

    def extend(chosen: list[int]) -> list[int] | None:
        if len(chosen) == rank + 1:
            return chosen
        for i in range(chosen[-1] + 1 if chosen else 0, arr.n + len(chosen) - rank):
            if _all_triples_rank3([normals[k] for k in chosen + [i]]):
                found = extend(chosen + [i])
                if found is not None:
                    return found
        return None

    return extend([])


def fraction_components(arr) -> list[tuple[int, ...]]:
    """Matroid components from the rational RREF of the normals as columns.

    The package's ``connected_components`` before it went to fraction-free
    pivots, kept as the reference for it: the supports of the nonzero RREF
    rows are the fundamental circuits, merged where they meet.
    """
    if not arr.n:
        return []
    red, pivots = fraction_rref(list(zip(*arr.normals())), arr.n)
    blocks: list[set[int]] = []
    for row in red[:len(pivots)]:
        block = {e for e, x in enumerate(row) if x}
        for other in [b for b in blocks if b & block]:
            block |= other
            blocks.remove(other)
        blocks.append(block)
    return sorted(tuple(sorted(b)) for b in blocks)


def set_partitions(items: list):
    """All partitions of a list, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def finest_additive_partition(arr) -> list[tuple[int, ...]]:
    """Unique partition with additive rank and the most blocks (n <= ~9)."""
    normals = arr.normals()
    total = rank_rows(normals)
    best = None
    for part in set_partitions(list(range(arr.n))):
        if sum(rank_rows([normals[i] for i in block]) for block in part) == total:
            if best is None or len(part) > len(best):
                best = part
    assert best is not None
    blocks = sorted((tuple(sorted(b)) for b in best), key=lambda b: b[0])
    return blocks


def bipartition_decompose(arr) -> list[tuple[int, ...]]:
    """Recursive additive-bipartition splitting; the matroid components."""
    normals = arr.normals()

    def split(indices: list[int]) -> list[list[int]]:
        if len(indices) <= 1:
            return [indices]
        total = rank_rows([normals[i] for i in indices])
        for size in range(1, len(indices) // 2 + 1):
            for left in combinations(indices, size):
                right = [i for i in indices if i not in left]
                if not right:
                    continue
                if rank_rows([normals[i] for i in left]) + \
                        rank_rows([normals[i] for i in right]) == total:
                    return split(list(left)) + split(right)
        return [indices]

    blocks = split(list(range(arr.n)))
    return sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])


def pairwise_generic_normals(n: int, dim: int, seed: int) -> list[tuple[int, ...]]:
    """The draws of ``generic_arrangement``, each candidate tested against every chosen pair.

    The package's rule before it tested one plane key per chosen normal,
    kept as the reference for it.
    """
    rng = random.Random(seed)
    chosen: list[tuple[int, ...]] = []
    while len(chosen) < n:
        coeffs = [rng.randint(-9, 9) for _ in range(dim)]
        if not any(coeffs):
            continue
        h = primitive(coeffs)
        if h in chosen or dim >= 3 and any(rank_rows([a, b, h]) < 3
                                           for a, b in combinations(chosen, 2)):
            continue
        chosen.append(h)
    return chosen


def linear_k0(rank: int, n: int) -> int:
    """The least k with C(rank+1, 2) k^2 above the balanced-partition maximum of e2
    over rank parts of (k-1)(rank+1) + n, by trying k = 1, 2, ... in turn.

    The package's k0 search before it started past the k that the real bound
    rules out, kept as the reference for it.
    """
    k = 1
    while True:
        total = (k - 1) * (rank + 1) + n
        q, rho = divmod(total, rank)
        squares = rank * q * q + (2 * q + 1) * rho  # rho parts of q + 1, the rest q
        if comb(rank + 1, 2) * k * k > (total * total - squares) // 2:
            return k
        k += 1


def e2(values) -> int:
    s = sum(values)
    return (s * s - sum(v * v for v in values)) // 2


def reference_verify(arr, cert) -> bool:
    """``verify_certificate`` as it was before its checks became plain loops over
    ints: generator checks, ``check_multiplicity`` under try/except, and LMP2 summed
    from ExponentPair products and e2 per flat.  Rank, closure and flats are
    recomputed on every call instead of read from the memo."""
    indices = tuple(cert.explanation.factor_indices)
    numbers = (*indices, cert.rank, cert.lmp2_lower, cert.gmp2_upper, cert.total_multiplicity)
    if any(type(x) is not int for x in numbers):
        return False
    try:
        check_multiplicity(arr, cert.multiplicity)
    except (DimensionMismatchError, ValueError):
        return False
    if len(set(indices) & set(range(arr.n))) != len(indices):
        return False
    m_sub = tuple(cert.multiplicity[i] for i in indices)
    if sum(m_sub) != cert.total_multiplicity or cert.rank < 1:
        return False
    rank, closed, flats = _closure_facts(arr, indices)
    if rank != cert.rank or not closed:
        return False
    recomputed = e2(m_sub)
    for members, lines in flats:
        ms = tuple(m_sub[k] for k in members)
        recomputed += line_exponents(lines, ms).product - e2(ms)
    if recomputed < cert.lmp2_lower or cert.lmp2_is_exact and recomputed != cert.lmp2_lower:
        return False
    upper = gmp2_max(cert.rank, cert.total_multiplicity)
    return upper == cert.gmp2_upper and recomputed > upper


def exhaustive_e2_max(parts: int, total: int) -> int:
    """Max of e2 over nonnegative integer tuples by direct enumeration."""
    best = 0

    def rec(remaining: int, left: int, cap: int, chosen: list[int]):
        nonlocal best
        if left == 1:
            if remaining <= cap:
                best = max(best, e2(chosen + [remaining]))
            return
        for v in range(min(cap, remaining), -1, -1):
            rec(remaining - v, left - 1, v, chosen + [v])

    rec(total, parts, total, [])
    return best


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix([[random_fraction(rng) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if fraction_det(m.entries) != 0:
            return m


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Integer matrix of determinant +-1: row additions, then a permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def deletion(arr, h: int):
    """The arrangement without hyperplane ``h``.

    The package's ``deletion``, which nothing outside the tests called once
    the circuit induction read deletions off one elimination, kept for them.
    """
    if not 0 <= h < arr.n:
        raise IndexError(f"hyperplane index {h} out of range 0..{arr.n - 1}")
    return Arrangement(arr.dim, arr.hyperplanes[:h] + arr.hyperplanes[h + 1:])


def kernel_basis_restriction(arr, h0: int):
    """Restriction to hyperplane ``h0`` through an explicit kernel basis:
    the arrangement of the distinct images and each hyperplane's index among
    them (None at ``h0``).

    The package's restriction before it wrote each coordinate as
    a0[p] c[j] - a0[j] c[p], kept as the reference for it: each restricted
    normal is the dot product of the normal with the basis vectors
    a0[p] e_j - a0[j] e_p (j != p) of the kernel of normal a0.
    """
    a0 = arr.hyperplanes[h0].normal
    p = next(i for i, c in enumerate(a0) if c != 0)
    basis = []
    for j in range(arr.dim):
        if j == p:
            continue
        w = [0] * arr.dim
        w[j] = a0[p]
        w[p] = -a0[j]
        basis.append(tuple(w))
    images, index_of, index_map = [], {}, []
    for i, h in enumerate(arr.hyperplanes):
        if i == h0:
            index_map.append(None)
            continue
        img = normalize_hyperplane([sum(c * w[k] for k, c in enumerate(h.normal))
                                    for w in basis])
        if img.normal not in index_of:
            index_of[img.normal] = len(images)
            images.append(img)
        index_map.append(index_of[img.normal])
    return Arrangement(arr.dim - 1, tuple(images)), index_map


def _triples_rank3(arr, indices) -> bool:
    normals = arr.normals()
    return all(rank_rows([normals[a], normals[b], normals[c]]) == 3
               for a, b, c in combinations(indices, 3))


def deletion_restriction_circuit(arr, rank: int) -> list[int]:
    """Generic circuit of a connected arrangement by the deletion/restriction
    induction, with a new arrangement and a new component computation for
    every deletion.

    The package's circuit induction before each level ran one elimination,
    kept as the reference for it; components come from ``fraction_components``
    and triples from ``rank_rows``.
    """
    n = arr.n
    if n == rank + 1:
        assert _triples_rank3(arr, range(n))
        return list(range(n))
    deleted = deletion(arr, 0)
    if len(fraction_components(deleted)) == 1:
        return [i + 1 for i in deletion_restriction_circuit(deleted, rank)]
    restr, imap = kernel_basis_restriction(arr, 0)
    assert len(fraction_components(restr)) == 1
    if rank == 3:
        if restr.n == n - 1:
            return next([0, i, j, k] for i, j, k in combinations(range(1, n), 3)
                        if _triples_rank3(arr, (i, j, k)))
        a, b = next((a, b) for a in range(1, n) for b in range(a + 1, n)
                    if imap[a] == imap[b])
        helpers, seen_images = [], {imap[a]}
        for i in range(1, n):
            if i in (a, b) or imap[i] in seen_images:
                continue
            seen_images.add(imap[i])
            helpers.append(i)
            if len(helpers) == 2:
                break
        return next(sorted(c) for c in ([0, *helpers, a], [0, *helpers, b])
                    if _triples_rank3(arr, c))
    sub = deletion_restriction_circuit(restr, rank - 1)
    return sorted([0] + [next(i for i in range(1, n) if imap[i] == r) for r in sub])
