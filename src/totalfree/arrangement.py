"""Central hyperplane arrangements and multiarrangements.

A hyperplane is stored as its primitive integer normal covector with the
first nonzero entry positive, so equality of hyperplanes is equality of
tuples.  An arrangement is an ambient dimension plus an ordered,
duplicate-free list of hyperplanes; a multiplicity is a tuple of positive
integers aligned with that order.  The empty arrangement and dimension-0
arrangements are legal values (they arise as essentialization output and
product factors).

Rank-2 structure rests on integer keys: ``rank2_flats`` keys a pair of
normals by u_p a - a_p u, made primitive, and ``span_key(u, v)``, the support
and primitive, sign-fixed 2x2 minors of two independent normals, names their
plane: three normals have rank 3 iff span_key(a, b) != span_key(a, c).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    DuplicateHyperplaneError,
    MalformedFlatError,
    ParseError,
)
from .linalg import Scalar, _eliminate, _frac
from .poly import HomPoly, divisible_by_power

IntVector = tuple[int, ...]
Multiplicity = tuple[int, ...]


@dataclass(frozen=True)
class Hyperplane:
    """Primitive integer normal covector; the hyperplane is its kernel."""

    normal: IntVector

    @property
    def dim(self) -> int:
        return len(self.normal)

    def linear_form(self) -> HomPoly:
        return HomPoly.linear(self.normal)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.normal) + ")"


def normalize_hyperplane(coeffs: Sequence[Scalar]) -> Hyperplane:
    """Canonical form: clear denominators, divide by gcd, first nonzero > 0."""
    coeffs = [c if type(c) is int else _frac(c) for c in coeffs]  # ints need no Fraction
    den = math.lcm(*(c.denominator for c in coeffs))
    return Hyperplane(_primitive([c.numerator * (den // c.denominator) for c in coeffs]))


def _primitive(coeffs: Sequence[int]) -> IntVector:
    """An integer covector divided by its gcd, first nonzero entry positive."""
    first = next((c for c in coeffs if c), 0)
    if not first:
        raise ValueError("zero covector does not define a hyperplane")
    g = math.gcd(*coeffs)
    if g == 1 and first > 0:
        return tuple(coeffs)
    return tuple([c // g for c in coeffs] if first > 0 else [-c // g for c in coeffs])


@dataclass(frozen=True)
class Arrangement:
    """Central arrangement: ambient dimension plus ordered distinct hyperplanes."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        seen: dict[IntVector, int] = {}
        for i, h in enumerate(self.hyperplanes):
            if h.dim != self.dim:
                raise DimensionMismatchError(
                    f"hyperplane {i} has dimension {h.dim}, expected {self.dim}")
            key = _primitive(h.normal)  # proportional normals are one hyperplane
            if key in seen:
                raise DuplicateHyperplaneError(
                    f"hyperplane {i} duplicates hyperplane {seen[key]}")
            seen[key] = i

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    def normals(self) -> list[IntVector]:
        return [h.normal for h in self.hyperplanes]

    def rank(self) -> int:
        return len(_eliminate(self.normals(), self.dim, reduce=False)[1])

    def __str__(self) -> str:
        body = ", ".join(str(h) for h in self.hyperplanes)
        return f"Arrangement(dim={self.dim}, [{body}])"


def arrangement(dim: int, rows: Iterable[Sequence[Scalar]]) -> Arrangement:
    """Build an arrangement from raw covectors, normalizing each."""
    return Arrangement(dim, tuple(normalize_hyperplane(r) for r in rows))


def check_multiplicity(arr: Arrangement, m: Multiplicity) -> None:
    if len(m) != arr.n:
        raise DimensionMismatchError(
            f"multiplicity has {len(m)} entries for {arr.n} hyperplanes")
    if not all(type(v) is int and v >= 1 for v in m):
        raise ValueError("multiplicities must be positive integers")


# -- derivations -----------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """Polynomial vector field: one homogeneous component per coordinate.

    All nonzero components share ``degree``; the zero derivation carries the
    zero-degree marker -1.
    """

    components: tuple[HomPoly, ...]
    degree: int

    @property
    def dim(self) -> int:
        return len(self.components)

    def apply_to(self, covector: Sequence[Scalar]) -> HomPoly:
        """Value on the linear form with the given coefficients."""
        if len(covector) != self.dim:
            raise DimensionMismatchError("covector arity does not match derivation")
        out = HomPoly.zero(self.dim)
        for a, comp in zip(covector, self.components):
            if a != 0 and not comp.is_zero():
                out = out + comp.scale(a)
        return out


def derivation(components: Sequence[HomPoly]) -> Derivation:
    comps = tuple(components)
    degrees = {c.degree for c in comps if not c.is_zero()}
    if len(degrees) > 1:
        raise ValueError(f"components of mixed degrees {sorted(degrees)}")
    if any(c.num_vars != len(comps) for c in comps):
        raise DimensionMismatchError("component variable count must equal arity")
    return Derivation(comps, degrees.pop() if degrees else -1)


def is_member_at(theta: Derivation, h: Hyperplane, mult: int) -> bool:
    """True iff theta(alpha_H) is divisible by alpha_H^mult."""
    return divisible_by_power(theta.apply_to(h.normal), h.linear_form(), mult)


# -- structural operations -------------------------------------------------


def essentialize(arr: Arrangement) -> Arrangement:
    """The arrangement in the coordinates of the span of its normals.

    The pivot columns of an echelon form of the normals are coordinates on
    which the span projects isomorphically, so restricting every normal to
    them is an injective linear map: the result is essential, keeps the
    hyperplane order and distinctness, and has dimension the rank.  The
    ``arr.dim - rank`` dropped coordinates are the trivial directions.
    """
    pivots = _eliminate(arr.normals(), arr.dim, reduce=False)[1]
    return arrangement(len(pivots),
                       [[h.normal[p] for p in pivots] for h in arr.hyperplanes])


@dataclass(frozen=True)
class Restriction:
    """Restriction to one hyperplane, with the bookkeeping the induction needs.

    ``index_map[i]`` is the index of hyperplane i's image among the distinct
    restricted hyperplanes (None at the restricted index itself); the map is
    many-to-one when images collide.
    """

    arrangement: Arrangement
    index_map: tuple[int | None, ...]


def restriction(arr: Arrangement, h0: int) -> Restriction:
    if not 0 <= h0 < arr.n:
        raise IndexError(f"hyperplane index {h0} out of range 0..{arr.n - 1}")
    images, index_map = _restrict(arr.normals(), h0)
    return Restriction(Arrangement(arr.dim - 1, tuple(map(Hyperplane, images))),
                       tuple(index_map))


def _restrict(normals: Sequence[IntVector], h0: int
              ) -> tuple[list[IntVector], list[int | None]]:
    """``restriction`` on normals, no two proportional: distinct images, index map."""
    a0 = normals[h0]
    p = next(i for i, c in enumerate(a0) if c != 0)
    # Coordinates against the kernel basis a0[p] e_j - a0[j] e_p (j != p).
    others = [j for j in range(len(a0)) if j != p]
    index_of: dict[IntVector, int] = {}  # the distinct images, in order
    index_map: list[int | None] = []
    for i, c in enumerate(normals):
        img = None if i == h0 else _primitive([a0[p] * c[j] - a0[j] * c[p] for j in others])
        index_map.append(None if img is None else index_of.setdefault(img, len(index_of)))
    return list(index_of), index_map


def product(a1: Arrangement, a2: Arrangement) -> Arrangement:
    """Disjoint union in the direct sum of the two ambient spaces."""
    dim = a1.dim + a2.dim
    rows = [h.normal + (0,) * a2.dim for h in a1.hyperplanes]
    rows += [(0,) * a1.dim + h.normal for h in a2.hyperplanes]
    return Arrangement(dim, tuple(Hyperplane(tuple(r)) for r in rows))


# -- rank-2 flats and localization ------------------------------------------


@dataclass(frozen=True)
class Flat2:
    """Closed rank-2 flat: its members, ascending, and their lines: each normal
    in the basis of the first two members' normals, primitive, first nonzero
    entry positive (the localization A_X).
    """

    members: tuple[int, ...]
    lines: tuple[tuple[int, int], ...]


def span_key(u: Sequence[int], v: Sequence[int]) -> tuple[IntVector, IntVector]:
    """Key of the plane spanned by two independent integer normals.

    The plane's support and the 2x2 minors u_p v_q - u_q v_p (p < q in the
    support) of u ^ v, divided by their gcd, first nonzero minor positive:
    two pairs span one plane iff keys are equal.  Minors off the support
    vanish, so the cost does not grow with the dimension.
    """
    cols = tuple([i for i, (x, y) in enumerate(zip(u, v)) if x or y])
    minors = [u[p] * v[q] - u[q] * v[p] for k, p in enumerate(cols) for q in cols[k + 1:]]
    g = math.gcd(*minors)
    if g == 0:
        raise ValueError("dependent normals span no plane")
    if next(x for x in minors if x) < 0:
        g = -g
    return cols, tuple([x // g for x in minors])


def rank2_flats(arr: Arrangement) -> list[Flat2]:
    """All closed rank-2 flats with their lines, ordered by their two smallest members.

    One integer pass over the pairs.  For each i, with normal u and first
    nonzero coordinate p, each later j not yet covered gets w = u_p a - a_p u
    (a its normal) on the two supports, so the cost does not grow with the
    dimension; w = lambda_j * key, the key primitive, first nonzero entry
    positive.  Equal keys mean one plane through u, so a key collects the flat
    whose smallest member is i, and its pairs are marked covered.  With v the
    second member, a = c1 u + c2 v gives w_a = c2 w_v, so a's line (c1, c2) is
    (a_p lambda_v - lambda_a v_p, lambda_a u_p) up to scale, as ``localization``
    (the oracle) finds.  An equal key proves a = (a_p u + w_a) / u_p lies in the
    span of u and v, so no span check is skipped.
    """
    normals = arr.normals()
    supports = [{c for c, x in enumerate(a) if x} for a in normals]
    covered: list[set[int]] = [set() for _ in normals]
    flats = []
    for i, u in enumerate(normals):
        p = min(supports[i])
        up = u[p]
        groups: dict[tuple[tuple[int, int], ...], list[tuple[int, int]]] = {}
        for j in range(i + 1, len(normals)):
            if j in covered[i]:
                continue
            a, ap = normals[j], normals[j][p]
            w = [(c, x) for c in sorted(supports[i] | supports[j])
                 if (x := up * a[c] - ap * u[c])]
            g = math.gcd(*[x for _, x in w]) * (1 if w[0][1] > 0 else -1)
            groups.setdefault(tuple([(c, x // g) for c, x in w]), []).append((j, g))
        for group in groups.values():
            members = (i, *[j for j, _ in group])
            for k in range(1, len(members)):
                covered[members[k]].update(members[k + 1:])
            vp, lam_v = normals[group[0][0]][p], group[0][1]
            lines = [(1, 0)]
            for j, lam in group:
                c1, c2 = normals[j][p] * lam_v - lam * vp, lam * up
                g = math.gcd(c1, c2) * (1 if c1 > 0 or not c1 and c2 > 0 else -1)
                lines.append((c1 // g, c2 // g))
            flats.append(Flat2(members, tuple(lines)))
    return flats


def localization(arr: Arrangement, flat: Flat2) -> Arrangement:
    """The flat's members, in order, as lines in the coordinates of its span.

    The normals u, v of the first two members span the flat.  For the first
    coordinates (p, q) of their support with D = u_p v_q - u_q v_p nonzero,
    member a is ((a ^ v) u + (u ^ a) v) / D, wedges taken on (p, q); D
    cancels in the normalization of the rows.
    """
    members = flat.members
    if len(members) < 2 or members[0] == members[1]:
        raise MalformedFlatError(f"members {members} do not start with two distinct indices")
    if min(members) < 0 or max(members) >= arr.n:
        raise MalformedFlatError(f"member index out of range 0..{arr.n - 1} in {members}")
    normals = [arr.hyperplanes[k].normal for k in members]
    u, v = normals[0], normals[1]  # independent: distinct hyperplanes of an arrangement
    cols = [i for i, (x, y) in enumerate(zip(u, v)) if x or y]
    d, p, q = next((u[p] * v[q] - u[q] * v[p], p, q) for k, p in enumerate(cols)
                   for q in cols[k + 1:] if u[p] * v[q] != u[q] * v[p])
    rows = []
    for k, a in zip(members, normals):
        c1, c2 = a[p] * v[q] - a[q] * v[p], u[p] * a[q] - u[q] * a[p]
        if any(d * a_i != c1 * u_i + c2 * v_i for a_i, u_i, v_i in zip(a, u, v)):
            raise MalformedFlatError(f"hyperplane {k} does not lie in the flat's span")
        rows.append((c1, c2))
    return arrangement(2, rows)


def subarrangement(arr: Arrangement, indices: Sequence[int]) -> Arrangement:
    """The subarrangement on the given hyperplane indices, in input order."""
    return Arrangement(arr.dim, tuple(arr.hyperplanes[i] for i in indices))


# -- text format -------------------------------------------------------------

# ASCII digits only: \d, str.isdigit and int also accept other scripts' digits.
_COEFF_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")
_NATURAL_RE = re.compile(r"[0-9]+")


def parse_arrangement(text: str) -> tuple[Arrangement, Multiplicity]:
    """Parse the arrangement text format.

    Grammar (one declaration per line, '#' starts a comment)::

        dim 4
        hyperplane 1 -1 0 0 mult 2
        hyperplane 0 0 1/2 -1

    Coefficients are integers or rationals ``p/q``; ``mult k`` is optional
    and defaults to 1.  Hyperplane order defines index order.
    """
    dim: int | None = None
    rows: list[Hyperplane] = []
    mults: list[int] = []
    first_line: dict[IntVector, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "dim":
            if dim is not None:
                raise ParseError("duplicate dim declaration", lineno)
            if len(tokens) != 2 or not _NATURAL_RE.fullmatch(tokens[1]):
                raise ParseError("expected 'dim <nonnegative integer>'", lineno)
            dim = int(tokens[1])
        elif tokens[0] == "hyperplane":
            if dim is None:
                raise ParseError("hyperplane before dim declaration", lineno)
            coeff_tokens = tokens[1:]
            mult = 1
            if "mult" in coeff_tokens:
                at = coeff_tokens.index("mult")
                mult_tokens = coeff_tokens[at + 1:]
                coeff_tokens = coeff_tokens[:at]
                if len(mult_tokens) != 1 or not _NATURAL_RE.fullmatch(mult_tokens[0]) \
                        or int(mult_tokens[0]) < 1:
                    raise ParseError("expected 'mult <positive integer>'", lineno)
                mult = int(mult_tokens[0])
            if len(coeff_tokens) != dim:
                raise ParseError(
                    f"expected {dim} coefficients, got {len(coeff_tokens)}", lineno)
            for t in coeff_tokens:
                if not _COEFF_RE.fullmatch(t):
                    raise ParseError(f"bad coefficient {t!r}", lineno)
            coeffs = [Fraction(t) if "/" in t else int(t) for t in coeff_tokens]
            if all(c == 0 for c in coeffs):
                raise ParseError("zero covector does not define a hyperplane", lineno)
            h = normalize_hyperplane(coeffs)
            if h.normal in first_line:
                raise DuplicateHyperplaneError(
                    f"duplicate hyperplane (same as line {first_line[h.normal]})",
                    lineno)
            first_line[h.normal] = lineno
            rows.append(h)
            mults.append(mult)
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
    if dim is None:
        raise ParseError("missing dim declaration")
    return Arrangement(dim, tuple(rows)), tuple(mults)


def format_arrangement(arr: Arrangement, m: Multiplicity | None = None) -> str:
    lines = [f"dim {arr.dim}"]
    for i, h in enumerate(arr.hyperplanes):
        line = "hyperplane " + " ".join(str(c) for c in h.normal)
        if m is not None and m[i] != 1:
            line += f" mult {m[i]}"
        lines.append(line)
    return "\n".join(lines) + "\n"
