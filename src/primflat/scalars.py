"""Exact sparse multivariate polynomials over the rationals.

This is the coefficient ring for everything else in the package.  A chart
of dimension ``n`` carries ``2n`` coordinates, ordered x1..xn, y1..yn and
indexed 0..2n-1 internally (coordinate ``i < n`` is x_{i+1}, coordinate
``n + i`` is y_{i+1}).

A polynomial maps exponent tuples of length ``2n`` to nonzero ``Fraction``
coefficients; the zero polynomial stores no terms.  All operations are
exact and return canonical results.  Values are immutable in use: no
operation mutates its inputs, so sharing across threads is safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Poly:
    """Sparse polynomial in the 2n chart coordinates."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[Monomial, Scalar]] = None):
        if n < 1:
            raise ValueError("chart dimension n must be >= 1")
        self.n = n
        clean: dict[Monomial, Fraction] = {}
        if terms:
            width = 2 * n
            for mono, coeff in terms.items():
                if len(mono) != width or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r} for n={n}")
                frac = _as_fraction(coeff)
                if frac:
                    clean[tuple(mono)] = frac
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value: Scalar) -> "Poly":
        frac = _as_fraction(value)
        if not frac:
            return cls(n)
        return cls(n, {(0,) * (2 * n): frac})

    @classmethod
    def variable(cls, n: int, coord: int) -> "Poly":
        cls._check_coord(n, coord)
        expo = [0] * (2 * n)
        expo[coord] = 1
        return cls(n, {tuple(expo): Fraction(1)})

    @staticmethod
    def _check_coord(n: int, coord: int) -> None:
        if not 0 <= coord < 2 * n:
            raise IndexError(f"coordinate {coord} out of range for n={n}")

    # ---------- ring operations ----------

    def _check_same_chart(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"chart dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_chart(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        result = Poly(self.n)
        result.terms = out
        return result

    def __neg__(self) -> "Poly":
        result = Poly(self.n)
        result.terms = {mono: -coeff for mono, coeff in self.terms.items()}
        return result

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_chart(other)
        out: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                mono = tuple(a + b for a, b in zip(mono_a, mono_b))
                acc = out.get(mono)
                if acc is None:
                    out[mono] = coeff_a * coeff_b
                else:
                    acc = acc + coeff_a * coeff_b
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        result = Poly(self.n)
        result.terms = out
        return result

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, value: Scalar) -> "Poly":
        frac = _as_fraction(value)
        result = Poly(self.n)
        if frac:
            result.terms = {mono: frac * coeff for mono, coeff in self.terms.items()}
        return result

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.const(self.n, 1)
        base = self
        while power:  # square and multiply
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # ---------- calculus and queries ----------

    def partial(self, coord: int) -> "Poly":
        """Formal partial derivative in the given coordinate (0-based)."""
        self._check_coord(self.n, coord)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[coord]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[coord] = e - 1
            out[tuple(lowered)] = coeff * e
        result = Poly(self.n)
        result.terms = out
        return result

    def total_degree(self) -> Optional[int]:
        """Max total degree of stored monomials; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(mono) for mono in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial (0 if absent)."""
        return self.terms.get((0,) * (2 * self.n), Fraction(0))

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * (2 * self.n) in self.terms)

    # ---------- comparison / display ----------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Poly({self.n}, 0)"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            factors = [str(self.terms[mono])]
            factors += [f"{coordinate_name(self.n, c)}^{e}" if e > 1
                        else coordinate_name(self.n, c)
                        for c, e in enumerate(mono) if e]
            bits.append("*".join(factors))
        return f"Poly({self.n}, {' + '.join(bits)!r})"


def coordinate_name(n: int, coord: int) -> str:
    """x1..xn, y1..yn name of a 0-based coordinate index."""
    Poly._check_coord(n, coord)
    if coord < n:
        return f"x{coord + 1}"
    return f"y{coord - n + 1}"


def monomials_up_to(n: int, max_degree: int) -> list[Monomial]:
    """All exponent tuples in 2n coordinates of total degree <= max_degree.

    Deterministic order: by total degree, then lexicographic.  This is the
    basis order used by the cohomology truncations.
    """
    width = 2 * n
    out: list[Monomial] = []

    def extend(prefix: list[int], budget: int, slot: int) -> None:
        if slot == width:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            extend(prefix + [e], budget - e, slot + 1)

    extend([], max_degree, 0)
    out.sort(key=lambda mono: (sum(mono), mono))
    return out
