"""Freeness machinery for multiarrangements of rank at most 2.

Rank-2 multiarrangements are always free; their smaller exponent d1 is found
by a degree-by-degree search for the minimal-degree member of the
logarithmic derivation module, and d2 = |m| - d1.  Each degree gives one
homogeneous linear system over the candidate coefficient vectors, with the
divisibility conditions expressed through a linear change of variables.

The search runs in conjugated coordinates where the first two lines are the
axes: their divisibility conditions then simply delete unknowns, so only
the remaining lines contribute matrix rows.  Exponents are invariant under
the conjugation.  Basis derivations go back to the input coordinates by an
integer transform with adj(C) and one exact division (``_to_original``).

Saito's criterion is evaluated in one place, ``saito_check``: its SaitoCheck
record holds every membership, the determinant and its constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .arrangement import (
    Arrangement,
    Derivation,
    Hyperplane,
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
from .linalg import Matrix
from .matroid import decompose
from .poly import HomPoly, divisible_by_power, poly_det

ExponentMultiset = tuple[int, ...]
Conjugation = tuple[tuple[int, int], tuple[int, int]]


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


def _conjugation(n0: IntVector, n1: IntVector) -> Conjugation:
    """2x2 integer change with line 0 mapped to the x-axis and line 1 to the y-axis.

    Columns are kernel vectors of the two normals; independence of the lines
    makes it invertible.
    """
    return ((n1[1], n0[1]), (-n1[0], -n0[0]))


def _transformed_lines(arr2: Arrangement, m: Multiplicity
                       ) -> tuple[list[tuple[int, int]], list[int], Conjugation]:
    # Send the two highest-multiplicity lines to the axes: their conditions
    # consume the most unknowns, which keeps the linear systems small.
    order = sorted(range(arr2.n), key=lambda i: (-m[i], i))
    normals = [arr2.hyperplanes[i].normal for i in order]
    ms = [m[i] for i in order]
    change = _conjugation(normals[0], normals[1])
    lines = []
    for normal in normals:
        image = [sum(normal[i] * change[i][j] for i in range(2))
                 for j in range(2)]
        lines.append(normalize_hyperplane(image).normal)
    if lines[0] != (1, 0) or lines[1] != (0, 1):
        raise InternalInvariantError("conjugation did not produce the axes")
    return lines, ms, change


def _degree_system(lines: list[tuple[int, int]], ms: list[int], d: int
                   ) -> tuple[list[int], list[int], list[list[int]]]:
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
    rows: list[list[int]] = []
    for (a, b), mult in zip(lines[2:], ms[2:]):
        if a == 0 or b == 0:
            raise InternalInvariantError("line collides with a conjugated axis")
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


@lru_cache(maxsize=16384)
def _min_degree(normals: tuple[IntVector, ...], ms: tuple[int, ...]) -> int:
    """Smallest degree with a nonzero member; the smaller exponent d1."""
    arr2 = Arrangement(2, tuple(Hyperplane(n) for n in normals))
    lines, mlist, _ = _transformed_lines(arr2, ms)
    total = sum(ms)
    for d in range(total // 2 + 1):
        unknowns = max(0, d + 1 - mlist[0]) + max(0, d + 1 - mlist[1])
        if unknowns == 0:
            continue
        if sum(min(mult, d + 1) for mult in mlist[2:]) < unknowns:
            return d
        _, _, rows = _degree_system(lines, mlist, d)
        if Matrix(rows).rank() < unknowns:
            return d
    raise InternalInvariantError(
        "no derivation up to half the total multiplicity; contradicts rank-2 freeness")


def rank2_exponents(arr2: Arrangement, m: Multiplicity) -> ExponentPair:
    """Exponents of a rank-2 multiarrangement by minimal-degree search.

    A single line returns (0, m1): the transverse direction contributes
    degree 0.
    """
    if arr2.dim != 2:
        raise DimensionMismatchError(f"ambient dimension {arr2.dim}, expected 2")
    if arr2.n == 0:
        raise ValueError("need at least one line")
    check_multiplicity(arr2, m)
    if arr2.n == 1:
        return ExponentPair(0, m[0])
    d1 = _min_degree(tuple(arr2.normals()), tuple(m))
    return ExponentPair(d1, sum(m) - d1)


def _kernel_derivations(lines: list[tuple[int, int]], ms: list[int], d: int
                        ) -> list[tuple[HomPoly, HomPoly]]:
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


def _times_linear(coeffs: list[int], form: tuple[int, int]) -> list[int]:
    """Binary form times a*x + b*y; index k holds the coefficient of x^k."""
    a, b = form
    return [a * shifted + b * kept for shifted, kept in zip([0] + coeffs, coeffs + [0])]


def _to_original(pair: tuple[HomPoly, HomPoly], change: Conjugation) -> Derivation:
    """Transport a derivation from conjugated coordinates (x = C u) back to the input ones.

    Component i is sum_j C[i][j] p_j(adj(C) x / D), D = det C.  The forms are
    cleared of denominators (lcm L), composed with the integer rows of adj(C)
    by Horner's rule in u/v in O(d^2), combined by C and divided once by L * D^d.
    """
    (c00, c01), (c10, c11) = change
    u, v = (c11, -c01), (-c10, c00)
    d = max(comp.degree for comp in pair)
    den = lcm(*(c.denominator for comp in pair for c in comp.coeffs.values()))
    v_powers = [[1]]
    for _ in range(d):
        v_powers.append(_times_linear(v_powers[-1], v))
    composed = []
    for comp in pair:
        c = [0] * (d + 1)
        for (k, _), value in comp.coeffs.items():
            c[k] = value.numerator * (den // value.denominator)
        acc = [c[d]]
        for k in range(d - 1, -1, -1):
            acc = [a + c[k] * w for a, w in zip(_times_linear(acc, u), v_powers[d - k])]
        composed.append(acc)
    scale = den * (c00 * c11 - c01 * c10) ** d
    return derivation([
        HomPoly.from_terms(2, {(k, d - k): Fraction(r0 * p + r1 * q, scale)
                               for k, (p, q) in enumerate(zip(*composed))})
        for r0, r1 in change])


def rank2_basis(arr2: Arrangement, m: Multiplicity) -> tuple[Derivation, Derivation]:
    """A homogeneous basis of the derivation module of a rank-2 multiarrangement.

    theta1 is the first canonical kernel vector at the minimal degree d1;
    theta2 is the first degree-d2 solution whose coefficient determinant
    against theta1 is nonzero.  The returned pair passes saito_verify.
    """
    if arr2.dim != 2:
        raise DimensionMismatchError(f"ambient dimension {arr2.dim}, expected 2")
    if arr2.n < 2:
        raise ValueError("need at least two lines for a basis")
    check_multiplicity(arr2, m)
    lines, mlist, change = _transformed_lines(arr2, m)
    d1 = _min_degree(tuple(arr2.normals()), tuple(m))
    d2 = sum(m) - d1
    theta1_candidates = _kernel_derivations(lines, mlist, d1)
    if not theta1_candidates:
        raise InternalInvariantError("empty kernel at the minimal degree")
    t1 = theta1_candidates[0]
    for t2 in _kernel_derivations(lines, mlist, d2):
        det = poly_det([[t1[0], t1[1]], [t2[0], t2[1]]])
        if not det.is_zero():
            theta1 = _to_original(t1, change)
            theta2 = _to_original(t2, change)
            if not saito_verify(arr2, m, (theta1, theta2)):
                raise InternalInvariantError("basis candidate failed the Saito check")
            return theta1, theta2
    raise InternalInvariantError(
        "no degree-d2 partner with nonzero determinant; contradicts rank-2 freeness")


@dataclass(frozen=True)
class SaitoCheck:
    """Saito's criterion evaluated on derivations theta_1..theta_l of (A, m).

    ``memberships[i][k]`` says whether theta_k sends alpha_{H_i} into
    (alpha_{H_i}^{m_i}); ``det`` is the determinant of the coefficient
    matrix; ``constant`` is the c != 0 with det = c * Q, Q = prod
    alpha_H^{m(H)}, or None when det is not of that form (Saito's
    criterion: Saito 1980; Ziegler 1989 for multiarrangements).
    """

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
    return SaitoCheck(memberships, det, constant)


def saito_verify(arr: Arrangement, m: Multiplicity,
                 thetas: tuple[Derivation, ...] | list[Derivation]) -> bool:
    """True iff ``thetas`` is a basis of D(A, m) by Saito's criterion; see saito_check."""
    return saito_check(arr, m, thetas).verified


def exponents_totally_free(arr: Arrangement, m: Multiplicity) -> ExponentMultiset:
    """Exponent multiset of a totally free arrangement under ``m``.

    Concatenates per-factor exponents of the product decomposition: a rank-1
    factor contributes its hyperplane's multiplicity, a rank-2 factor its
    searched exponent pair, and each trivial direction a 0.  Raises
    NotTotallyFreeError when some irreducible factor has rank >= 3.
    """
    check_multiplicity(arr, m)
    decomp = decompose(arr)
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
