"""Sparse homogeneous polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples (one entry per variable, entries
summing to the degree) to nonzero ``Fraction`` coefficients.  The zero
polynomial is the empty map with the conventional degree marker -1.
Everything an arrangement needs reduces to two exact primitives: ring
arithmetic and the power-divisibility test ``alpha^m | f``, made by ``m``
rounds of exact integer division by ``alpha``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .linalg import Scalar, _frac

Exponent = tuple[int, ...]

ZERO_DEGREE = -1  # degree marker of the zero polynomial


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial in ``num_vars`` variables.

    ``coeffs`` never stores zero coefficients, and every exponent tuple sums
    to ``degree``.  Instances are immutable; all operations return new ones.
    """

    num_vars: int
    degree: int
    coeffs: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if not self.coeffs and self.degree != ZERO_DEGREE:
            raise ValueError("zero polynomial must carry the zero degree marker")
        for e, c in self.coeffs.items():
            if len(e) != self.num_vars:
                raise ValueError(f"exponent {e} has wrong arity for {self.num_vars} variables")
            if sum(e) != self.degree:
                raise ValueError(f"exponent {e} does not match degree {self.degree}")
            if c == 0:
                raise ValueError("zero coefficient stored")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> HomPoly:
        return cls(num_vars, ZERO_DEGREE, {})

    @classmethod
    def from_terms(cls, num_vars: int, terms: Mapping[Exponent, Scalar]) -> HomPoly:
        clean = {tuple(e): _frac(c) for e, c in terms.items() if c != 0}
        if not clean:
            return cls.zero(num_vars)
        degrees = {sum(e) for e in clean}
        if len(degrees) != 1:
            raise ValueError(f"terms of mixed degrees {sorted(degrees)}")
        return cls(num_vars, degrees.pop(), clean)

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar]) -> HomPoly:
        """The linear form with the given covector of coefficients."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls.from_terms(n, terms)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: HomPoly) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials in different numbers of variables")

    def __add__(self, other: HomPoly) -> HomPoly:
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"cannot add homogeneous degrees {self.degree} and {other.degree}")
        terms = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return HomPoly.from_terms(self.num_vars, terms)

    def __neg__(self) -> HomPoly:
        return self.scale(-1)

    def scale(self, c: Scalar) -> HomPoly:
        if c == 0 or self.is_zero():
            return HomPoly.zero(self.num_vars)
        c = _frac(c)
        return HomPoly(self.num_vars, self.degree, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: HomPoly) -> HomPoly:
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return HomPoly.zero(self.num_vars)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return HomPoly.from_terms(self.num_vars, terms)


def divisible_by_power(f: HomPoly, alpha: HomPoly, m: int) -> bool:
    """Exact test of ``alpha^m | f`` for a nonzero linear form ``alpha``.

    Makes ``m`` rounds of division by ``alpha`` and stops at the first
    nonzero remainder; the zero polynomial is divisible by anything.  ``f``
    is cleared of denominators and ``alpha`` scaled by lcm(denominators) /
    gcd(numerators) to a primitive integer covector.  With ``alpha = a_p x_p
    + beta``, a round goes from the top ``x_p`` degree down: a term ``c x^e``
    gives the quotient term ``(c / a_p) x^e / x_p``, whose product with
    ``beta`` is subtracted one degree lower; what is left at degree 0 is the
    remainder.  By Gauss's lemma a primitive ``alpha`` that divides an
    integer ``f`` leaves an integer quotient, so an ``a_p`` that does not
    divide ``c`` already proves that ``alpha`` does not divide ``f``.
    """
    if alpha.degree != 1:
        raise ValueError("alpha must be a nonzero linear form")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if f.num_vars != alpha.num_vars:
        raise ValueError("f and alpha live in different variable sets")
    if f.is_zero():
        return True
    a = {e.index(1): c for e, c in alpha.coeffs.items()}
    den, g = lcm(*(c.denominator for c in a.values())), gcd(*(c.numerator for c in a.values()))
    a = {j: c.numerator * (den // c.denominator) // g for j, c in a.items()}
    p, a_p = a.popitem()
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    terms = {e: c.numerator * (den // c.denominator) for e, c in f.coeffs.items()}
    for degree in range(f.degree, f.degree - m, -1):
        by_degree: list[dict[Exponent, int]] = [{} for _ in range(degree + 1)]
        for e, c in terms.items():
            by_degree[e[p]][e] = c
        terms = {}
        for k in range(degree, 0, -1):
            lower = by_degree[k - 1]
            for e, c in by_degree[k].items():
                if not c:
                    continue
                q, r = divmod(c, a_p)
                if r:
                    return False
                e = e[:p] + (k - 1,) + e[p + 1:]
                terms[e] = q
                for j, b in a.items():
                    e2 = e[:j] + (e[j] + 1,) + e[j + 1:]
                    lower[e2] = lower.get(e2, 0) - q * b
        if any(by_degree[0].values()):
            return False
    return True


def poly_det(grid: Sequence[Sequence[HomPoly]]) -> HomPoly:
    """Exact determinant of a square grid of homogeneous polynomials.

    Cofactor expansion along the first remaining row.  The caller must
    arrange the grid so that all permutation products share one total degree
    (true whenever each row is degree-uniform, as for derivation coefficient
    matrices); otherwise the required additions fail.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("grid is not square")
    if n == 0:
        raise ValueError("empty grid")
    num_vars = grid[0][0].num_vars

    def expand(row: int, cols: tuple[int, ...]) -> HomPoly:
        if len(cols) == 1:
            return grid[row][cols[0]]
        total = HomPoly.zero(num_vars)
        for k, c in enumerate(cols):
            entry = grid[row][c]
            if entry.is_zero():
                continue
            rest = cols[:k] + cols[k + 1:]
            minor = expand(row + 1, rest)
            term = entry * minor
            if k % 2:
                term = -term
            total = term if total.is_zero() else total + term
        return total

    return expand(0, tuple(range(n)))


# -- text form (used by the CLI basis files and reports) -------------------

# ASCII digits only: int and Fraction also accept other scripts' digits.
_DIGITS_RE = re.compile(r"[0-9]+")
_COEFF_RE = re.compile(r"[0-9]+(/[1-9][0-9]*)?")


def poly_to_str(f: HomPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in sorted(f.coeffs, reverse=True):
        c = f.coeffs[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        body = "*".join(factors)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def parse_poly(text: str, num_vars: int) -> HomPoly:
    """Parse ``3*x1^2*x2 - 1/2*x3^3`` style polynomial text.

    Supported: integer or ``p/q`` coefficients, ``*`` products, ``^`` powers,
    variables ``x1`` .. ``x<num_vars>``.  The result must be homogeneous.
    """
    s = text.strip()
    if not s or s == "0":
        return HomPoly.zero(num_vars)
    # Split into signed terms at top level (no parentheses in this grammar).
    terms: list[tuple[int, str]] = []
    sign, buf = 1, []
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch in "+-":
            terms.append((sign, "".join(buf)))
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        i += 1
    terms.append((sign, "".join(buf)))

    total: dict[Exponent, Fraction] = {}
    for sgn, chunk in terms:
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        coeff = Fraction(sgn)
        expo = [0] * num_vars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor.startswith("x"):
                var_part, caret, pow_part = factor.partition("^")
                index = var_part[1:]
                if not _DIGITS_RE.fullmatch(index):
                    raise ValueError(f"bad variable {factor!r}")
                if not 1 <= int(index) <= num_vars:
                    raise ValueError(f"variable {var_part!r} out of range 1..{num_vars}")
                if caret and not _DIGITS_RE.fullmatch(pow_part):
                    raise ValueError(f"bad power in {factor!r}")
                expo[int(index) - 1] += int(pow_part) if caret else 1
            else:
                if not _COEFF_RE.fullmatch(factor):
                    raise ValueError(f"bad coefficient {factor!r}")
                coeff *= Fraction(factor)
        key = tuple(expo)
        total[key] = total.get(key, Fraction(0)) + coeff
    return HomPoly.from_terms(num_vars, total)
