"""Central hyperplane arrangements and multiarrangements.

A hyperplane is stored as its primitive integer normal covector with the
first nonzero entry positive, so equality of hyperplanes is equality of
tuples.  An arrangement is an ambient dimension plus an ordered,
duplicate-free list of hyperplanes; a multiplicity is a tuple of positive
integers aligned with that order.  The empty arrangement and dimension-0
arrangements are legal values (they arise as essentialization output and
product factors).

Rank-2 structure rests on one integer key: ``span_key(u, v)``, the support
and primitive, sign-fixed 2x2 minors of two independent normals, names their
plane.  Pairs with equal keys form the rank-2 flats, and three normals have
rank 3 iff span_key(a, b) != span_key(a, c), the generic-circuit test.
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
    coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    first = next((c for c in coeffs if c), 0)
    if not first:
        raise ValueError("zero covector does not define a hyperplane")
    g = math.gcd(*coeffs) if first > 0 else -math.gcd(*coeffs)
    return Hyperplane(tuple(c // g for c in coeffs))


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
            # Proportional normals are one hyperplane, however they are written;
            # a canonical normal (primitive, first nonzero > 0) is its own key.
            key = h.normal
            if math.gcd(*key) != 1 or next(c for c in key if c) < 0:
                key = normalize_hyperplane(key).normal
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

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

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


def euler_derivation(dim: int) -> Derivation:
    return derivation([HomPoly.variable(dim, i) for i in range(dim)])


def is_member_at(theta: Derivation, h: Hyperplane, mult: int) -> bool:
    """True iff theta(alpha_H) is divisible by alpha_H^mult."""
    return divisible_by_power(theta.apply_to(h.normal), h.linear_form(), mult)


def is_member(theta: Derivation, arr: Arrangement, m: Multiplicity) -> bool:
    """Membership in the logarithmic derivation module of ``(arr, m)``.

    True iff for every hyperplane H the value of ``theta`` on the defining
    form of H is divisible by that form raised to the multiplicity of H.
    """
    if theta.dim != arr.dim:
        raise DimensionMismatchError(
            f"derivation in {theta.dim} variables on a dimension-{arr.dim} arrangement")
    check_multiplicity(arr, m)
    return all(is_member_at(theta, h, mult) for h, mult in zip(arr.hyperplanes, m))


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


def deletion(arr: Arrangement, h: int) -> Arrangement:
    if not 0 <= h < arr.n:
        raise IndexError(f"hyperplane index {h} out of range 0..{arr.n - 1}")
    return Arrangement(arr.dim, arr.hyperplanes[:h] + arr.hyperplanes[h + 1:])


@dataclass(frozen=True)
class Restriction:
    """Restriction to one hyperplane, with the bookkeeping the induction needs.

    ``index_map[i]`` is the index of hyperplane i's image among the distinct
    restricted hyperplanes (None at the restricted index itself); the map is
    many-to-one when images collide.
    """

    arrangement: Arrangement
    basis: tuple[IntVector, ...]     # integer basis of the restricted-to hyperplane
    index_map: tuple[int | None, ...]


def restriction(arr: Arrangement, h0: int) -> Restriction:
    if not 0 <= h0 < arr.n:
        raise IndexError(f"hyperplane index {h0} out of range 0..{arr.n - 1}")
    a0 = arr.hyperplanes[h0].normal
    p = next(i for i, c in enumerate(a0) if c != 0)
    # Hermite-style kernel basis of the normal: deterministic integer vectors.
    basis = []
    for j in range(arr.dim):
        if j == p:
            continue
        w = [0] * arr.dim
        w[j] = a0[p]
        w[p] = -a0[j]
        basis.append(tuple(w))
    images: list[Hyperplane] = []
    index_of: dict[IntVector, int] = {}
    index_map: list[int | None] = []
    for i, h in enumerate(arr.hyperplanes):
        if i == h0:
            index_map.append(None)
            continue
        restricted = [sum(c * w[k] for k, c in enumerate(h.normal)) for w in basis]
        img = normalize_hyperplane(restricted)
        if img.normal not in index_of:
            index_of[img.normal] = len(images)
            images.append(img)
        index_map.append(index_of[img.normal])
    return Restriction(Arrangement(arr.dim - 1, tuple(images)), tuple(basis),
                       tuple(index_map))


def product(a1: Arrangement, a2: Arrangement) -> Arrangement:
    """Disjoint union in the direct sum of the two ambient spaces."""
    dim = a1.dim + a2.dim
    rows = [h.normal + (0,) * a2.dim for h in a1.hyperplanes]
    rows += [(0,) * a1.dim + h.normal for h in a2.hyperplanes]
    return Arrangement(dim, tuple(Hyperplane(tuple(r)) for r in rows))


# -- rank-2 flats and localization ------------------------------------------


@dataclass(frozen=True)
class Flat2:
    """Closed rank-2 flat: member indices plus two spanning normals."""

    members: tuple[int, ...]
    span_basis: tuple[IntVector, IntVector]


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
    """All closed rank-2 flats, ordered by their two smallest members.

    Distinct hyperplanes have independent normals, so each pair lies in
    exactly one flat: the pairs sharing its ``span_key``.  In lexicographic
    pair order a flat starts at its two smallest members, and every other
    member k arrives, increasing, with the pair (smallest, k).
    """
    normals = arr.normals()
    groups: dict[tuple[IntVector, IntVector], list[int]] = {}
    for i in range(arr.n):
        for j in range(i + 1, arr.n):
            members = groups.setdefault(span_key(normals[i], normals[j]), [i])
            if members[0] == i:
                members.append(j)
    return [Flat2(tuple(members), (normals[members[0]], normals[members[1]]))
            for members in groups.values()]


def localization(arr: Arrangement, flat: Flat2) -> Arrangement:
    """The flat's members, in order, as lines in the coordinates of its span.

    For the span basis (u, v) and the first coordinates (p, q) of their
    support with D = u_p v_q - u_q v_p nonzero, member a is
    ((a ^ v) u + (u ^ a) v) / D, wedges taken on (p, q); D cancels in the
    normalization of the rows.
    """
    u, v = flat.span_basis
    if len(u) != arr.dim or len(v) != arr.dim:
        raise MalformedFlatError(f"span basis arity is not the dimension {arr.dim}")
    cols = [i for i, (x, y) in enumerate(zip(u, v)) if x or y]
    d, p, q = next(((u[p] * v[q] - u[q] * v[p], p, q) for k, p in enumerate(cols)
                    for q in cols[k + 1:] if u[p] * v[q] != u[q] * v[p]), (0, 0, 0))
    if d == 0:
        raise MalformedFlatError("span basis is not two independent covectors")
    rows = []
    for k in flat.members:
        if not 0 <= k < arr.n:
            raise MalformedFlatError(f"member index {k} out of range")
        a = arr.hyperplanes[k].normal
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
            coeffs = [Fraction(t) for t in coeff_tokens]
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
