"""Freeness machinery for multiarrangements of rank at most 2.

Rank-2 multiarrangements are always free.  One fraction-free order-basis
sweep (Beckermann-Labahn, SIAM J. Matrix Anal. Appl. 1994) imposes the lines'
conditions one order at a time; the two generators it ends with are a
homogeneous basis, so their degrees are the exponents (d1, d2), d1 + d2 =
|m|.  It is integer arithmetic, and every division is exact by Gauss's lemma.
It runs in coordinates where the two heaviest lines are the axes.

``_min_degree`` checks its generators as a basis there, in integers
(``_is_basis``), before it returns and caches them, so every exponent pair
read from it is checked: ``rank2_exponents``, ``lmp2`` and
``verify_certificate`` build no polynomial object.  Only ``rank2_basis``
builds HomPoly derivations, mapped back by adj(C) (``_to_original``), to
print them.  ``saito_check`` evaluates Saito's criterion on derivations a
user supplies, in any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arrangement import (
    Arrangement,
    Derivation,
    IntVector,
    Multiplicity,
    check_multiplicity,
    derivation,
    is_member_at,
    normalize_hyperplane,
)
from .errors import (
    DimensionMismatchError,
    InternalInvariantError,
    NotTotallyFreeError,
)
from .matroid import decompose
from .poly import HomPoly, divisible_by_power, poly_det

ExponentMultiset = tuple[int, ...]
Conjugation = tuple[tuple[int, int], tuple[int, int]]
MAX_TRIVIAL_DIRECTIONS = 10**6  # exponents_totally_free lists a 0 for each


@dataclass(frozen=True)
class ExponentPair:
    """Exponents of a free rank-2 multiarrangement, sorted, summing to |m|."""

    d1: int
    d2: int

    def __post_init__(self):
        if not 0 <= self.d1 <= self.d2:
            raise ValueError(f"not a sorted exponent pair: ({self.d1}, {self.d2})")

    @property
    def product(self) -> int:
        return self.d1 * self.d2

    def as_tuple(self) -> tuple[int, int]:
        return (self.d1, self.d2)


def _transformed_lines(normals: tuple[IntVector, ...], m: Multiplicity
                       ) -> tuple[list[int], list[tuple[int, int]], Conjugation]:
    # lines[i] is normals[i] under x = C u, made primitive.  C sends the two
    # highest-multiplicity lines, order[0] and order[1], to the axes; this
    # order fixes the coordinates in which rank2_basis's basis is canonical.
    order = sorted(range(len(normals)), key=lambda i: (-m[i], i))
    # Columns are kernel vectors of the two normals: line 0 goes to the x-axis
    # and line 1 to the y-axis, and independence makes C invertible.
    (a0, b0), (a1, b1) = normals[order[0]], normals[order[1]]
    change = ((b1, b0), (-a1, -a0))
    lines = [normalize_hyperplane([sum(normal[i] * change[i][j] for i in range(2))
                                   for j in range(2)]).normal for normal in normals]
    if lines[order[0]] != (1, 0) or lines[order[1]] != (0, 1):
        raise InternalInvariantError("conjugation did not produce the axes")
    return order, lines, change


def _times_linear(coeffs: list[int], form: tuple[int, int]) -> list[int]:
    """Binary form times a*x + b*y; index k holds the coefficient of x^k."""
    a, b = form
    return [a * shifted + b * kept for shifted, kept in zip([0] + coeffs, coeffs + [0])]


def _residual(h: list[int], a: int, b: int) -> int:
    """h(b, -a): zero iff a*x + b*y divides the binary form h."""
    acc, power = h[-1], 1
    for c in reversed(h[:-1]):
        power *= -a
        acc = acc * b + c * power
    return acc


def _divide_linear(h: list[int], a: int, b: int) -> list[int]:
    """h / (a*x + b*y) for a form h that it divides, by synthetic division."""
    out = [h[0] // b]
    for c in h[1:-1]:
        out.append((c - a * out[-1]) // b)
    return out


@lru_cache(maxsize=16384)
def _min_degree(normals: tuple[IntVector, ...], ms: tuple[int, ...]
                ) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """Generators (degree, p, q) of D(A, m), sorted by degree: the exponents.

    p and q hold the coefficients of x^k y^(d-k) by k, in the coordinates of
    ``_transformed_lines``.  After k orders of a line L = a*x + b*y, each
    generator v keeps h = theta_v(L) / L^k and r = h(b, -a).  An order's
    pivot is the least-degree v with r != 0; the other becomes (-a)^delta
    r_piv v - r y^delta v_piv over its content, and the pivot becomes L v.
    The generators pass ``_is_basis`` before they are returned, or
    InternalInvariantError is raised, so the cache holds checked bases only;
    the check is a function of the key, so once per key is enough.  The
    name is older than the sweep: the benchmark reads this cache's
    ``cache_info()`` under it.
    """
    order, lines, change = _transformed_lines(normals, ms)
    m0, m1 = ms[order[0]], ms[order[1]]
    degrees = [m0, m1]
    vectors = [([0] * m0 + [1], [0] * (m0 + 1)), ([0] * (m1 + 1), [1] + [0] * m1)]
    for (a, b), mult in ((lines[i], ms[i]) for i in order[2:]):
        if a == 0 or b == 0:
            raise InternalInvariantError("line collides with a conjugated axis")
        hs = [[a * pc + b * qc for pc, qc in zip(p, q)] for p, q in vectors]
        for _ in range(mult):
            res = [_residual(h, a, b) for h in hs]
            # Each order shrinks the module, so some residual is nonzero.
            piv = min((j for j in (0, 1) if res[j]), key=lambda j: degrees[j])
            o = 1 - piv
            if res[o]:
                delta = degrees[o] - degrees[piv]
                c, r, pad = (-a) ** delta * res[piv], res[o], [0] * delta
                p, q, h = ([c * x - r * y for x, y in zip(w, wp + pad)]
                           for w, wp in zip((*vectors[o], hs[o]), (*vectors[piv], hs[piv])))
                g = gcd(*p, *q)
                vectors[o] = ([x // g for x in p], [x // g for x in q])
                hs[o] = [x // g for x in _divide_linear(h, a, b)]
            else:
                hs[o] = _divide_linear(hs[o], a, b)
            vectors[piv] = tuple(_times_linear(w, (a, b)) for w in vectors[piv])
            degrees[piv] += 1
    if not _is_basis(normals, ms, lines, change, vectors):
        raise InternalInvariantError("the sweep's generators failed the basis check")
    return tuple(sorted((d, tuple(p), tuple(q)) for d, (p, q) in zip(degrees, vectors)))


def rank2_exponents(arr2: Arrangement, m: Multiplicity) -> ExponentPair:
    """Exponents of a rank-2 multiarrangement: the degrees of the sweep's generators.

    A single line returns (0, m1): the transverse direction contributes
    degree 0.
    """
    if arr2.dim != 2:
        raise DimensionMismatchError(f"ambient dimension {arr2.dim}, expected 2")
    if arr2.n == 0:
        raise ValueError("need at least one line")
    check_multiplicity(arr2, m)
    return line_exponents(tuple(arr2.normals()), tuple(m))


def line_exponents(lines: tuple[IntVector, ...], m: tuple[int, ...]) -> ExponentPair:
    """Exponents of distinct primitive lines under checked multiplicities: the
    one read of the checked cache, for ``rank2_exponents`` after its checks
    and for ``lmp2_breakdown`` on each flat's lines."""
    if len(lines) == 1:
        return ExponentPair(0, m[0])
    (d1, _, _), (d2, _, _) = _min_degree(lines, m)
    return ExponentPair(d1, d2)


def _to_original(pair: tuple[list[int], list[int]], den: int, change: Conjugation
                 ) -> Derivation:
    """Transport (p d/du + q d/dv) / den from conjugated coordinates (x = C u) back.

    p and q are integer binary forms of one degree d, coefficients by the
    power of u.  Component i is sum_j C[i][j] p_j(adj(C) x / D) / den,
    D = det C: the forms are composed with the integer rows of adj(C) by
    Horner's rule in u/v in O(d^2), combined by C and divided once by
    den * D^d.
    """
    (c00, c01), (c10, c11) = change
    u, v = (c11, -c01), (-c10, c00)
    d = len(pair[0]) - 1
    v_powers = [[1]]
    for _ in range(d):
        v_powers.append(_times_linear(v_powers[-1], v))
    composed = []
    for c in pair:
        acc = [c[d]]
        for k in range(d - 1, -1, -1):
            acc = [a + c[k] * w for a, w in zip(_times_linear(acc, u), v_powers[d - k])]
        composed.append(acc)
    scale = den * (c00 * c11 - c01 * c10) ** d
    return derivation([
        HomPoly.from_terms(2, {(k, d - k): Fraction(r0 * p + r1 * q, scale)
                               for k, (p, q) in enumerate(zip(*composed))})
        for r0, r1 in change])


def _last(w: list[int]) -> int:
    return max(i for i, c in enumerate(w) if c)


def _clear(w: list[int], s: list[int], col: int) -> list[int]:
    """w with column ``col`` cleared by a multiple of s, made primitive."""
    if not w[col]:
        return w
    out = [s[col] * x - w[col] * y for x, y in zip(w, s)]
    g = gcd(*out)
    return [x // g for x in out]


def _member(p: list[int], q: list[int], a: int, b: int, mult: int) -> bool:
    """Does p d/dx + q d/dy send the primitive form a*x + b*y into its mult-th power?"""
    if not b:
        return not any(p[:mult])  # x^mult divides a*p
    if not a:
        return not any(q[-mult:])  # y^mult divides b*q
    h = [a * pc + b * qc for pc, qc in zip(p, q)]
    for _ in range(mult):
        if _residual(h, a, b):
            return False
        h = _divide_linear(h, a, b)
    return True


def _is_basis(normals: tuple[IntVector, ...], m: Multiplicity, lines: list[tuple[int, int]],
              change: Conjugation, gens: list[tuple[list[int], list[int]]]) -> bool:
    """True iff the binary forms ``gens`` are a basis of D(A, m) under x = C u.

    Nothing is taken on trust from the sweep: det C != 0; each line is
    primitive and proportional to its normal times C; each generator is a
    member on every line; det(gens) != 0; and the degrees sum to |m|, which
    with the rest makes a basis (the degree-sum form of Saito's criterion:
    Ziegler 1989; Abe-Terao-Wakefield 2007).
    """
    (c00, c01), (c10, c11) = change
    if c00 * c11 == c01 * c10 or any(len(p) != len(q) for p, q in gens):
        return False
    for (n0, n1), (a, b), mult in zip(normals, lines, m, strict=True):
        if gcd(a, b) != 1 or a * (n0 * c01 + n1 * c11) != b * (n0 * c00 + n1 * c10):
            return False
        if not all(_member(p, q, a, b, mult) for p, q in gens):
            return False
    (p1, q1), (p2, q2) = gens
    # Only nonzero terms: on two or three lines the generators are nearly monomials.
    terms = [(j, pj, qj) for j, (pj, qj) in enumerate(zip(p2, q2)) if pj or qj]
    det = [0] * (len(p1) + len(p2) - 1)
    for i, (pi, qi) in enumerate(zip(p1, q1)):
        for j, pj, qj in terms:
            det[i + j] += pi * qj - qi * pj
    return len(det) - 1 == sum(m) and any(det)


def rank2_basis(arr2: Arrangement, m: Multiplicity) -> SaitoCheck:
    """A homogeneous basis of the derivation module of a rank-2 multiarrangement.

    theta1 and theta2 are the first reduced-echelon kernel vectors of the
    degree-d1 and (with det != 0) degree-d2 systems on the unknowns p on
    x^j (j >= m0), then q on x^j (j <= d - m1).  From ``_min_degree``,
    stacked as p + q: theta1 is the d1 generator (at d1 = d2, the one with
    the smaller last nonzero column once they differ), theta2 the d2
    generator with the last columns of x^i y^(d2-d1-i) theta1 cleared,
    highest i first; each over its last entry.  Returns the SaitoCheck of
    (theta1, theta2), its ``thetas``, with the memberships that ``_is_basis``
    proved on the generators before ``_min_degree`` cached them.
    """
    if arr2.dim != 2:
        raise DimensionMismatchError(f"ambient dimension {arr2.dim}, expected 2")
    if arr2.n < 2:
        raise ValueError("need at least two lines for a basis")
    check_multiplicity(arr2, m)
    normals = tuple(arr2.normals())
    _, _, change = _transformed_lines(normals, m)
    (d1, p1, q1), (d2, p2, q2) = _min_degree(normals, tuple(m))
    w1, w2 = list(p1 + q1), list(p2 + q2)
    if d1 == d2:
        w2 = _clear(w2, w1, _last(w1))
        if _last(w2) < _last(w1):
            w1, w2 = w2, w1
    delta = d2 - d1
    for i in range(delta, -1, -1):
        low, high = [0] * i, [0] * (delta - i)
        shift = low + w1[:d1 + 1] + high + low + w1[d1 + 1:] + high
        w2 = _clear(w2, shift, _last(shift))
    thetas = tuple(_to_original((w[:d + 1], w[d + 1:]), w[_last(w)], change)
                   for w, d in ((w1, d1), (w2, d2)))
    return _saito_record(arr2, m, thetas, ((True, True),) * arr2.n)


@dataclass(frozen=True)
class SaitoCheck:
    """Saito's criterion evaluated on derivations theta_1..theta_l of (A, m).

    ``thetas`` holds the derivations; ``memberships[i][k]`` says whether
    theta_k sends alpha_{H_i} into (alpha_{H_i}^{m_i}); ``det`` is the
    determinant of the coefficient matrix; ``constant`` is the c != 0 with
    det = c * Q, Q = prod alpha_H^{m(H)}, or None when det is not of that
    form (Saito's criterion: Saito 1980; Ziegler 1989 for multiarrangements).
    """

    thetas: tuple[Derivation, ...]
    memberships: tuple[tuple[bool, ...], ...]
    det: HomPoly
    constant: Fraction | None

    @property
    def verified(self) -> bool:
        """True iff the derivations form a basis of D(A, m)."""
        return self.constant is not None and all(map(all, self.memberships))


def saito_check(arr: Arrangement, m: Multiplicity,
                thetas: tuple[Derivation, ...] | list[Derivation]) -> SaitoCheck:
    """Every membership, the determinant and its constant; see SaitoCheck.

    Q is never built.  Distinct hyperplanes (Arrangement rejects proportional
    normals) give pairwise coprime forms, so det = c * Q, c != 0, iff
    deg det = |m| and alpha_H^{m(H)} | det for all H.  If every membership
    holds, Saito's lemma gives Q | det (the column of values on alpha_H is
    divisible by alpha_H^{m(H)}); only otherwise is the divisibility
    tested.  Leading terms multiply, so c is det's coefficient at Q's
    lex-leading exponent over prod lead(alpha_H)^{m(H)}.
    """
    if arr.dim < 1:
        raise DimensionMismatchError("Saito check needs ambient dimension >= 1")
    if len(thetas) != arr.dim:
        raise DimensionMismatchError(
            f"{len(thetas)} derivations for ambient dimension {arr.dim}")
    if any(theta.dim != arr.dim for theta in thetas):
        raise DimensionMismatchError("derivation arity mismatch")
    check_multiplicity(arr, m)
    memberships = tuple(tuple(is_member_at(theta, h, mult) for theta in thetas)
                        for h, mult in zip(arr.hyperplanes, m))
    return _saito_record(arr, m, tuple(thetas), memberships)


def _saito_record(arr: Arrangement, m: Multiplicity, thetas: tuple[Derivation, ...],
                  memberships: tuple[tuple[bool, ...], ...]) -> SaitoCheck:
    """The SaitoCheck of ``thetas`` with the given memberships; see saito_check."""
    det = poly_det([theta.components for theta in thetas])
    constant = None
    if det.degree == sum(m) and (all(map(all, memberships)) or all(
            divisible_by_power(det, h.linear_form(), mult)
            for h, mult in zip(arr.hyperplanes, m))):
        lead, scale = [0] * arr.dim, 1
        for h, mult in zip(arr.hyperplanes, m):
            i = next(i for i, c in enumerate(h.normal) if c)
            lead[i] += mult
            scale *= h.normal[i] ** mult
        constant = det.coeffs[tuple(lead)] / scale
    return SaitoCheck(thetas, memberships, det, constant)


def saito_verify(arr: Arrangement, m: Multiplicity,
                 thetas: tuple[Derivation, ...] | list[Derivation]) -> bool:
    """True iff ``thetas`` is a basis of D(A, m) by Saito's criterion; see saito_check."""
    return saito_check(arr, m, thetas).verified


def exponents_totally_free(arr: Arrangement, m: Multiplicity) -> ExponentMultiset:
    """Exponent multiset of a totally free arrangement under ``m``.

    Concatenates per-factor exponents of the product decomposition: a rank-1
    factor contributes its hyperplane's multiplicity, a rank-2 factor its
    searched exponent pair, and each trivial direction a 0.  Raises
    NotTotallyFreeError when some irreducible factor has rank >= 3, and
    ValueError on more than MAX_TRIVIAL_DIRECTIONS trivial directions.
    """
    check_multiplicity(arr, m)
    decomp = decompose(arr)
    if decomp.trivial_directions > MAX_TRIVIAL_DIRECTIONS:
        raise ValueError(f"{decomp.trivial_directions} trivial directions, one exponent 0 "
                         f"each; at most {MAX_TRIVIAL_DIRECTIONS} are listed")
    if decomp.max_factor_rank() > 2:
        bad = next(f for f in decomp.factors if f.rank >= 3)
        raise NotTotallyFreeError(
            f"irreducible factor of rank {bad.rank} on hyperplanes {bad.indices}")
    exps: list[int] = [0] * decomp.trivial_directions
    for factor in decomp.factors:
        sub_m = tuple(m[i] for i in factor.indices)
        if factor.rank == 1:
            # Rank-1 components are single hyperplanes: parallel distinct
            # hyperplanes cannot occur in a central arrangement.
            if factor.arrangement.n != 1:
                raise InternalInvariantError("rank-1 factor with several hyperplanes")
            exps.append(sub_m[0])
        else:
            pair = rank2_exponents(factor.arrangement, sub_m)
            exps.extend(pair.as_tuple())
    return tuple(sorted(exps))
