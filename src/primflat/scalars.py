"""Exact sparse multivariate polynomials over the rationals.

A chart of dimension ``n`` carries ``2n`` coordinates, ordered x1..xn,
y1..yn and indexed 0..2n-1 internally (coordinate ``i < n`` is x_{i+1},
coordinate ``n + i`` is y_{i+1}).  A polynomial is int numerators over one
positive int denominator: ``num`` maps exponent tuples of length ``2n`` to
nonzero ints and the polynomial is ``sum(num[m] * x^m) / den``, kept
canonical (``gcd(den, *num.values()) == 1``, zero is ``{}`` over 1), so
equality is a plain comparison.  A `forms.Form` keeps such numerators per
basis index over one denominator and does all the package's arithmetic on
them with ``_accumulate`` and ``_multiply``; a degree-0 form is the one
coefficient ring, and ``named_terms`` spells its terms for the printer.

`Poly` is only a validated boundary value: ``Form(n, degree, {index: Poly})``
takes them and ``Form.terms`` builds them back; the parser and printer work
on degree-0 forms.  Its only ring operations, ``+`` and ``*``, have no
caller in the package.  ``Fraction`` appears only at the boundary: the public
constructor takes ``int`` or ``Fraction`` coefficients and the ``terms``
property builds a fresh ``{mono: Fraction}`` dict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add
from typing import Mapping, Optional, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational, in lowest terms."""
    if isinstance(value, int):
        return int(value), 1  # a bool becomes a plain int
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _chart(n) -> int:
    """``n``, refused unless it is an int >= 1 (a bool is not an int here)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"chart dimension n must be an int >= 1, got {n!r}")
    return n


def _check_count(name: str, value, what: str) -> None:
    """Refuse a ``value`` that is not an int (a bool is not), or is negative."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")


def _accumulate(out: dict, num: Mapping, factor: Scalar) -> dict:
    """``out += factor * num`` in place on sparse dicts of exact rationals, no
    zero in ``num`` and ``factor`` nonzero; cancelled sums drop."""
    for mono, c in num.items():
        c = out.get(mono, 0) + c * factor
        if c:
            out[mono] = c
        else:
            del out[mono]
    return out


def _multiply(out: dict, a: Mapping, b: Mapping, factor: int) -> dict:
    """``out += factor * a * b`` on ``{monomial: int}`` dicts, in place."""
    for mono_a, ca in a.items():
        ca *= factor
        for mono_b, cb in b.items():
            mono = tuple(map(add, mono_a, mono_b))
            c = out.get(mono, 0) + ca * cb
            if c:
                out[mono] = c
            else:
                del out[mono]
    return out


class Poly:
    """Sparse polynomial in the 2n chart coordinates: ``num`` over ``den``."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms: Optional[Mapping[Monomial, Scalar]] = None):
        self.n = _chart(n)
        ratios: dict[Monomial, tuple[int, int]] = {}
        if terms:
            width = 2 * n
            for mono, coeff in terms.items():
                if len(mono) != width or any(type(e) is not int or e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r} for n={n}")
                p, q = _ratio(coeff)
                if p:
                    ratios[tuple(mono)] = p, q
        # over the lcm of the reduced denominators no prime divides them all
        den = lcm(*(q for _, q in ratios.values()))
        self.num = {mono: p * (den // q) for mono, (p, q) in ratios.items()}
        self.den = den

    @classmethod
    def _reduced(cls, n: int, num: dict[Monomial, int], den: int) -> "Poly":
        """Internal constructor from nonzero int numerators over a positive
        ``den`` that may share a factor with them: divides that factor out
        and takes ownership of the dict."""
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {mono: c // g for mono, c in num.items()}
        poly = object.__new__(cls)
        poly.n = n
        poly.num = num
        poly.den = den
        return poly

    # ---------- constructors ----------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value: Scalar) -> "Poly":
        return cls(n, {(0,) * (2 * _chart(n)): value})

    @classmethod
    def variable(cls, n: int, coord: int) -> "Poly":
        cls._check_coord(n, coord)
        expo = [0] * (2 * n)
        expo[coord] = 1
        return cls(n, {tuple(expo): 1})

    @staticmethod
    def _check_coord(n: int, coord: int) -> None:
        if not 0 <= coord < 2 * _chart(n):
            raise IndexError(f"coordinate {coord} out of range for n={n}")

    # ---------- boundary views ----------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A fresh ``{mono: Fraction}`` dict of the coefficients."""
        den = self.den
        return {mono: Fraction(c, den) for mono, c in self.num.items()}

    # ---------- operators: the benchmark tracer wraps them by name ----------

    def _check_same_chart(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"chart dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_chart(other)
        g = gcd(self.den, other.den)
        mult_a, mult_b = other.den // g, self.den // g
        out = _accumulate({mono: c * mult_a for mono, c in self.num.items()}, other.num, mult_b)
        return Poly._reduced(self.n, out, self.den * mult_a)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_chart(other)
        return Poly._reduced(self.n, _multiply({}, self.num, other.num, 1), self.den * other.den)

    # ---------- comparison / display ----------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        if not self.num:
            return f"Poly({self.n}, 0)"
        bits = ["*".join([str(coeff), *factors])
                for coeff, factors in named_terms(self.n, self.num, self.den)]
        return f"Poly({self.n}, {' + '.join(bits)!r})"


def coordinate_name(n: int, coord: int) -> str:
    """x1..xn, y1..yn name of a 0-based coordinate index."""
    Poly._check_coord(n, coord)
    if coord < n:
        return f"x{coord + 1}"
    return f"y{coord - n + 1}"


def named_terms(n: int, num: Mapping[Monomial, int], den: int
                ) -> list[tuple[Fraction, list[str]]]:
    """``(coefficient, ["x1", "y2^3"])`` per term of ``sum(num[m] x^m) / den``,
    by total degree, then exponents: the one term order and factor spelling
    of every printer."""
    return [(Fraction(num[mono], den), [coordinate_name(n, c) + (f"^{e}" if e > 1 else "")
                                        for c, e in enumerate(mono) if e])
            for mono in sorted(num, key=lambda m: (sum(m), m))]


def monomials_up_to(n: int, max_degree: int) -> list[Monomial]:
    """All exponent tuples in 2n coordinates of total degree <= max_degree.

    Deterministic order: by total degree, then lexicographic.  This is the
    basis order used by the cohomology truncations.  Within one degree the
    coordinate multisets come in lexicographic order, so reversed they give
    the exponent tuples in lexicographic order.
    """
    width = 2 * n
    out: list[Monomial] = []
    for degree in range(max_degree + 1):
        for multiset in reversed(list(combinations_with_replacement(range(width), degree))):
            expo = [0] * width
            for coord in multiset:
                expo[coord] += 1
            out.append(tuple(expo))
    return out
