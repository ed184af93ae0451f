"""Exterior algebra on a Darboux chart.

Conventions, fixed once for the whole package:

* coordinates x1..xn, y1..yn, internally 0-based (coordinate ``i < n`` is
  x_{i+1}, coordinate ``n+i`` is y_{i+1});
* the basis covector of coordinate ``c`` is ``dx`` or ``dy`` accordingly,
  and a k-form is stored as a map from strictly increasing index tuples of
  length k to `Poly` coefficients;
* the symplectic form is ``omega = sum_i dx_i /\\ dy_i``.

The algebra is three helpers on ``{index: coefficient}`` maps over int,
``Fraction`` or `Poly` coefficients: the index-merge wedge ``wedge_terms``,
the lowering contraction ``contract_terms`` and the accumulator
``add_terms``, which drops a key only when its sum cancels.  `Form` applies
them to `Poly` maps and the Lefschetz tables to constant ones.

Forms are homogeneous.  The degree is a plain label: forms whose degree
falls outside 0..2n are allowed but must be zero (they appear transiently
as images of degree-shifting operators).  Every operation returns its
algebraic degree, zero results included.

A scalar `Form` is one fiber flavor; the other two are `FiberForm`s: a
`VectorForm` (rank-r column of forms of one degree) and a `MatrixForm`
(r x r).  `FiberForm` implements every fiber operation once over the
entries in row-major order (``flat``); the subclasses add only their shape
and their named constructors.  The wedge of fiber-valued forms composes
fibers in input order with no extra sign beyond the scalar Koszul sign;
for matrices that is matrix multiplication over the wedge.

Validation happens at the public constructors: ``Form(n, degree, terms)``
checks every index tuple and coefficient, and ``VectorForm(...)`` /
``MatrixForm(...)`` check the shape, the chart and the degree of their
entries.  Forms are immutable in use, so the fiber constructors keep the
caller's entries and only re-label zero entries to the fiber degree.
Internal producers build their results from already-valid data through the
trusted constructors ``Form._trusted`` and ``FiberForm._from_flat``, which
check nothing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .scalars import Poly, Scalar, _ratio

FormIndex = tuple[int, ...]
AnyForm = Union["Form", "VectorForm", "MatrixForm"]


def merge_indices(left: FormIndex, right: FormIndex) -> Optional[tuple[int, FormIndex]]:
    """Sign and sorted union of two increasing index tuples, None on overlap."""
    out: list[int] = []
    sign = 1
    i = j = 0
    len_l, len_r = len(left), len(right)
    while i < len_l and j < len_r:
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len_l - i) % 2:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


def add_terms(out: dict, terms: Iterable[tuple]) -> dict:
    """Add the nonzero ``(key, value)`` terms into ``out`` and return it; a key
    drops only when its sum cancels, so ``out`` never holds a zero."""
    for key, value in terms:
        acc = out.get(key)
        if acc is None:
            out[key] = value
        else:
            acc = acc + value
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def wedge_terms(pairs: Iterable[tuple[Mapping, Mapping]]) -> dict:
    """The sum of a /\\ b over ``(a, b)`` pairs of ``{index: coefficient}``
    maps with no zero coefficient (a product of two nonzero coefficients is
    nonzero in every ring used here)."""
    def products():
        for a, b in pairs:
            for idx_a, ca in a.items():
                for idx_b, cb in b.items():
                    merged = merge_indices(idx_a, idx_b)
                    if merged is not None:
                        prod = ca * cb
                        yield merged[1], (-prod if merged[0] < 0 else prod)
    return add_terms({}, products())


def contract_terms(n: int, terms: Mapping) -> dict:
    """The sl(2) lowering contraction of an ``{index: coefficient}`` map:
    sum_i of the contraction by d/dx_i, then by d/dy_i.  An index tuple that
    holds x_i at position p and y_i at position q loses both, with sign
    (-1)^(p+q+1)."""
    def lowered():
        for idx, c in terms.items():
            for p, i in enumerate(idx):
                if i >= n:
                    break
                if n + i in idx:
                    q = idx.index(n + i)
                    yield idx[:p] + idx[p + 1:q] + idx[q + 1:], (c if (p + q) % 2 else -c)
    return add_terms({}, lowered())


class Form:
    """Homogeneous exterior form with polynomial coefficients."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int,
                 terms: Optional[Mapping[FormIndex, Poly]] = None):
        self.n = n
        self.degree = degree
        clean: dict[FormIndex, Poly] = {}
        if terms:
            if not 0 <= degree <= 2 * n:
                raise ValueError(f"nonzero form of degree {degree} on a {2*n}-dim chart")
            for idx, poly in terms.items():
                idx = tuple(idx)
                if len(idx) != degree or any(not 0 <= c < 2 * n for c in idx):
                    raise ValueError(f"bad index tuple {idx!r} for degree {degree}")
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"index tuple {idx!r} not strictly increasing")
                if poly.n != n:
                    raise ValueError("coefficient chart dimension mismatch")
                if not poly.is_zero:
                    clean[idx] = poly
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, degree: int, terms: dict[FormIndex, Poly]) -> "Form":
        """Internal constructor: ``terms`` must already be valid for (n, degree)
        with no zero coefficient; the form takes ownership of the dict."""
        form = object.__new__(cls)
        form.n = n
        form.degree = degree
        form.terms = terms
        return form

    # ---------- constructors ----------

    @classmethod
    def zero(cls, n: int, degree: int) -> "Form":
        return cls._trusted(n, degree, {})

    @classmethod
    def from_poly(cls, poly: Poly) -> "Form":
        return cls(poly.n, 0, {(): poly})

    @classmethod
    def const(cls, n: int, value: Scalar) -> "Form":
        return cls.from_poly(Poly.const(n, value))

    @classmethod
    def dx(cls, n: int, i: int) -> "Form":
        if not 1 <= i <= n:
            raise IndexError(f"dx{i} out of range for n={n}")
        return cls(n, 1, {(i - 1,): Poly.const(n, 1)})

    @classmethod
    def dy(cls, n: int, i: int) -> "Form":
        if not 1 <= i <= n:
            raise IndexError(f"dy{i} out of range for n={n}")
        return cls(n, 1, {(n + i - 1,): Poly.const(n, 1)})

    @classmethod
    def basis(cls, n: int, idx: FormIndex) -> "Form":
        return cls(n, len(idx), {tuple(idx): Poly.const(n, 1)})

    # ---------- linear structure ----------

    def _check_compatible(self, other: "Form") -> None:
        if self.n != other.n:
            raise ValueError("chart dimension mismatch")
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_compatible(other)
        degree = self.degree if self.terms else other.degree
        return Form._trusted(self.n, degree, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Form":
        return Form._trusted(self.n, self.degree,
                             {idx: -poly for idx, poly in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scaled(self, value: Scalar) -> "Form":
        if not _ratio(value)[0]:
            return Form._trusted(self.n, self.degree, {})
        return Form._trusted(self.n, self.degree,
                             {idx: poly.scaled(value) for idx, poly in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_degree(self) -> Optional[int]:
        """Max total degree over all polynomial coefficients; None if zero."""
        degrees = [poly.total_degree() for poly in self.terms.values()]
        return max(degrees) if degrees else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            return False
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Form(n={self.n}, degree={self.degree}, terms={self.terms!r})"


class FiberForm:
    """A form with values in a fiber: entries are forms of one degree.

    Every operation acts entrywise over ``flat`` (the entries in row-major
    order); subclasses give the nesting of ``entries`` through ``_shape``.
    """

    __slots__ = ("n", "degree", "entries")

    @staticmethod
    def _checked(flat: list[Form], degree: Optional[int], what: str
                 ) -> tuple[int, int, list[Form]]:
        """(n, degree, entries) of a public constructor's entry list."""
        n = flat[0].n
        if degree is None:
            degree = flat[0].degree
        for e in flat:
            if e.n != n:
                raise ValueError(f"chart dimension mismatch in {what} entries")
            if e.terms and e.degree != degree:
                raise ValueError(f"{what} entries of mixed degree")
        zero = Form.zero(n, degree)
        return n, degree, [e if e.terms or e.degree == degree else zero for e in flat]

    @property
    def flat(self) -> list[Form]:
        raise NotImplementedError

    def _shape(self, flat: list):
        raise NotImplementedError

    def _from_flat(self, flat: list[Form], degree: int):
        """Trusted constructor: the same fiber shape with new entries, which
        must be forms on this chart, nonzero ones of the given degree."""
        out = object.__new__(type(self))
        out.n = self.n
        out.degree = degree
        out.entries = self._shape(flat)
        return out

    def nested(self, fn: Callable[[Form], object]) -> list:
        """``fn`` of every entry, in the nesting of ``entries``."""
        return self._shape([fn(e) for e in self.flat])

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.flat)

    def map(self, fn: Callable[[Form], Form], degree: int):
        """Entrywise image under ``fn``, which sends this degree to ``degree``."""
        return self._from_flat([fn(e) for e in self.flat], degree)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        degree = self.degree if not self.is_zero else other.degree
        return self._from_flat([a + b for a, b in zip(self.flat, other.flat)], degree)

    def __neg__(self):
        return self.map(Form.__neg__, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, value):
        return self.map(lambda e: e.scaled(value), self.degree)

    def coefficient_degree(self) -> Optional[int]:
        degrees = [d for d in (e.coefficient_degree() for e in self.flat) if d is not None]
        return max(degrees) if degrees else None

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.rank == other.rank and self.flat == other.flat

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.entries!r})"


class VectorForm(FiberForm):
    """Rank-r column of forms of one degree (a fiber-valued form)."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Form], degree: Optional[int] = None):
        flat = list(entries)
        if not flat:
            raise ValueError("vector form needs at least one entry")
        self.n, self.degree, self.entries = self._checked(flat, degree, "vector")

    @classmethod
    def zero(cls, n: int, degree: int, rank: int) -> "VectorForm":
        return cls([Form.zero(n, degree)] * rank, degree)

    @classmethod
    def unit(cls, n: int, rank: int, which: int) -> "VectorForm":
        entries = [Form.zero(n, 0)] * rank
        entries[which] = Form.const(n, 1)
        return cls(entries, 0)

    @property
    def flat(self) -> list[Form]:
        return self.entries

    def _shape(self, flat: list) -> list:
        return flat


class MatrixForm(FiberForm):
    """r x r matrix of forms of one degree (endomorphism-valued form)."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence[Form]], degree: Optional[int] = None):
        rows = [list(row) for row in entries]
        r = len(rows)
        if r == 0 or any(len(row) != r for row in rows):
            raise ValueError("matrix form must be square and non-empty")
        self.n, self.degree, flat = self._checked(
            [e for row in rows for e in row], degree, "matrix")
        self.entries = [flat[i * r:(i + 1) * r] for i in range(r)]

    @classmethod
    def zero(cls, n: int, degree: int, rank: int) -> "MatrixForm":
        return cls([[Form.zero(n, degree)] * rank for _ in range(rank)], degree)

    @classmethod
    def identity(cls, n: int, rank: int) -> "MatrixForm":
        return cls.from_constant(n, [[1 if i == j else 0 for j in range(rank)]
                                     for i in range(rank)])

    @classmethod
    def from_constant(cls, n: int, matrix: Sequence[Sequence[Scalar]]) -> "MatrixForm":
        return cls([[Form.const(n, v) for v in row] for row in matrix], 0)

    @classmethod
    def from_scalar_form(cls, matrix: Sequence[Sequence[Scalar]], form: Form) -> "MatrixForm":
        """Constant matrix times a scalar form (entrywise scaling)."""
        return cls([[form.scaled(Fraction(*_ratio(v))) for v in row] for row in matrix],
                   form.degree)

    @property
    def flat(self) -> list[Form]:
        return [e for row in self.entries for e in row]

    def _shape(self, flat: list) -> list[list]:
        r = len(self.entries)
        return [flat[i * r:(i + 1) * r] for i in range(r)]


# ---------- wedge ----------

def _wedge_forms(a: Form, b: Form) -> Form:
    return Form._trusted(a.n, a.degree + b.degree, wedge_terms([(a.terms, b.terms)]))


def wedge(a: AnyForm, b: AnyForm) -> AnyForm:
    """Exterior product; fiber-valued cases compose fibers in input order.

    Supported pairings: scalar with anything (either side), matrix.matrix,
    matrix.vector.  vector.vector and vector.matrix have no fiber
    composition and raise.
    """
    if a.n != b.n:
        raise ValueError("chart dimension mismatch")
    degree = a.degree + b.degree
    if isinstance(a, Form):
        if isinstance(b, Form):
            return _wedge_forms(a, b)
        return b.map(lambda e: _wedge_forms(a, e), degree)
    if isinstance(b, Form):
        return a.map(lambda e: _wedge_forms(e, b), degree)
    if isinstance(a, MatrixForm) and isinstance(b, FiberForm):
        if a.rank != b.rank:
            raise ValueError("rank mismatch")
        # a vector is a single column
        columns = list(zip(*b.entries)) if isinstance(b, MatrixForm) else [b.entries]
        return b._from_flat([Form._trusted(a.n, degree, wedge_terms(
            (x.terms, y.terms) for x, y in zip(row, col)))
            for row in a.entries for col in columns], degree)
    raise TypeError(
        f"no fiber composition for {type(a).__name__} wedge {type(b).__name__}")


# ---------- exterior derivative and contractions ----------

def _d_form(a: Form) -> Form:
    def derivatives():
        for idx, poly in a.terms.items():
            # a coordinate missing from every monomial, or already in idx,
            # contributes nothing
            present = {c for mono in poly.num for c, e in enumerate(mono) if e}
            for coord in sorted(present.difference(idx)):
                derivative = poly.partial(coord)
                sign, new_idx = merge_indices((coord,), idx)
                yield new_idx, (-derivative if sign < 0 else derivative)
    return Form._trusted(a.n, a.degree + 1, add_terms({}, derivatives()))


def exterior_d(a: AnyForm) -> AnyForm:
    """d, entrywise on fiber-valued forms; satisfies d(d(a)) == 0."""
    if isinstance(a, Form):
        return _d_form(a)
    return a.map(_d_form, a.degree + 1)


def contract_lambda(a: Form) -> Form:
    """The sl(2) lowering operator (``contract_terms``) on a scalar form.

    Applied to omega it returns the constant n; a form is primitive exactly
    when this vanishes on every scalar component.
    """
    return Form._trusted(a.n, a.degree - 2, contract_terms(a.n, a.terms))


def graded_commutator(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """[a, b] = a.b - (-1)^{|a||b|} b.a with fiber composition by wedge."""
    ab = wedge(a, b)
    ba = wedge(b, a)
    if (a.degree * b.degree) % 2:
        return ab + ba
    return ab - ba


# ---------- distinguished forms ----------

@cache
def omega_const(n: int, r: int) -> dict[FormIndex, int]:
    """omega^r as an ``{index: int}`` map (r >= 0); callers must not mutate it."""
    if r == 0:
        return {(): 1}
    return wedge_terms([(omega_const(n, r - 1), {(i, n + i): 1 for i in range(n)})])


def omega_power(n: int, p: int) -> Form:
    if p < 0:
        raise ValueError("omega_power wants p >= 0")
    return Form._trusted(n, 2 * p, {idx: Poly.const(n, c) for idx, c in omega_const(n, p).items()})


def omega(n: int) -> Form:
    """The Darboux symplectic form sum_i dx_i /\\ dy_i."""
    return omega_power(n, 1)


def lambda_standard(n: int) -> Form:
    """sum_i x_i dy_i; d of it is omega."""
    return Form._trusted(n, 1, {(n + i,): Poly.variable(n, i) for i in range(n)})


def lambda_symmetric(n: int) -> Form:
    """(1/2) sum_i (x_i dy_i - y_i dx_i); d of it is omega."""
    half = Fraction(1, 2)
    terms: dict[FormIndex, Poly] = {}
    for i in range(n):
        terms[(n + i,)] = Poly.variable(n, i).scaled(half)
        terms[(i,)] = Poly.variable(n, n + i).scaled(-half)
    return Form._trusted(n, 1, terms)


LAMBDA_CHOICES: dict[str, Callable[[int], Form]] = {
    "standard": lambda_standard,
    "symmetric": lambda_symmetric,
}


def all_indices(n: int, degree: int) -> list[FormIndex]:
    """Strictly increasing index tuples of the given length, sorted."""
    if degree < 0 or degree > 2 * n:
        return []
    return list(itertools.combinations(range(2 * n), degree))
