"""Exterior algebra on a Darboux chart.

Conventions, fixed once for the whole package:

* coordinates x1..xn, y1..yn, internally 0-based (coordinate ``i < n`` is
  x_{i+1}, coordinate ``n+i`` is y_{i+1});
* the basis covector of coordinate ``c`` is ``dx`` or ``dy`` accordingly,
  and a k-form has one polynomial coefficient per strictly increasing
  index tuple of length k;
* the symplectic form is ``omega = sum_i dx_i /\\ dy_i``.

A `Form` is int numerators over one positive int denominator: ``num`` maps
index tuples to non-empty ``{monomial: nonzero int}`` dicts, kept canonical
as a `Poly` is (``gcd(den, *all numerators) == 1``, zero is ``{}`` over 1).
Every operation runs on ints and ends in one gcd per result form; `Poly`
appears only at the boundary, where the public constructor converts
``{index: Poly}`` and the ``terms`` view builds it back.  Constant forms
(the Lefschetz and cone tables) are ``{index: coefficient}`` dicts, built
by ``wedge_terms`` and ``_lowerings`` and summed by ``scalars._accumulate``.

Forms are homogeneous.  The degree is a plain label: forms whose degree
falls outside 0..2n are allowed but must be zero (they appear transiently
as images of degree-shifting operators).  Every operation returns its
algebraic degree, zero results included.

A scalar `Form` is one fiber flavor; the other two are `FiberForm`s: a
`VectorForm` (rank-r column of forms of one degree) and a `MatrixForm`
(r x r).  A fiber form is one numerator dict over one denominator, keyed
``(slot, index)`` with slot the entry's row-major place, canonical like a
`Form`; a zero entry is an absent key.  Every kernel (wedge, d, the index
maps of ``lefschetz``) runs once over those numerators and canonicalizes
once, and `Form` and `FiberForm` share the linear operations
(``_Numerators``), which see only the key.  The wedge of fiber-valued
forms composes fibers in input order with no extra sign beyond the scalar
Koszul sign; for matrices that is matrix multiplication over the wedge.

Validation happens at the public constructors: ``Form(n, degree, terms)``
checks the degree, every index tuple and coefficient, and ``VectorForm(...)``
/ ``MatrixForm(...)`` check the shape, the chart, their int degree and the
degree of their entries.  Their entries are views for ``repr`` and the
printer: ``entries``, ``flat`` and ``nested`` build fresh forms on demand,
zero ones labelled with the fiber degree; every other reader reads
``num``.  Internal producers build their results from already-valid data
through ``Form._reduced`` (``Form._from_rationals`` from rational
coefficients) and ``_new``, which check nothing and own what they are given.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .scalars import Poly, Scalar, _accumulate, _chart, _multiply, _ratio

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


_merge = cache(merge_indices)  # for the few index pairs of symbolic forms


@cache
def _lowerings(n: int, idx: FormIndex) -> list[tuple[FormIndex, int]]:
    """``(index, sign)`` per term of the sl(2) lowering of the basis form idx,
    sum_i of the contractions by d/dx_i, then d/dy_i: an x_i at position p
    and y_i at q drop, with sign (-1)^(p+q+1); no two terms share an index."""
    return [(idx[:p] + idx[p + 1:q] + idx[q + 1:], 1 if (p + q) % 2 else -1)
            for p, i in enumerate(idx) if i < n and n + i in idx for q in [idx.index(n + i)]]


@cache
def _d_moves(n: int, idx: FormIndex) -> list[tuple[int, int, FormIndex]]:
    """``(c, sign, index)`` per coordinate c outside idx: dx_c /\\ dx_idx = sign dx_index."""
    return [(c, *merge_indices((c,), idx)) for c in range(2 * n) if c not in idx]


def wedge_terms(pairs: Iterable[tuple[Mapping, Mapping]]) -> dict:
    """The sum of a /\\ b over ``(a, b)`` pairs of ``{index: coefficient}``
    maps with no zero coefficient (exact ring values, false at zero, whose
    nonzero products are nonzero); a key drops only when its sum cancels."""
    out: dict = {}
    for a, b in pairs:
        for (idx_a, ca), (idx_b, cb) in itertools.product(a.items(), b.items()):
            merged = merge_indices(idx_a, idx_b)
            if merged is not None:
                sign, idx = merged
                prod = ca * cb if sign > 0 else -(ca * cb)
                acc = out[idx] + prod if idx in out else prod
                if acc:
                    out[idx] = acc
                else:
                    del out[idx]
    return out


def _check_index(n: int, degree: int, idx) -> FormIndex:
    """``idx`` as a tuple, refused unless it is a basis index of that degree."""
    idx = tuple(idx)
    if len(idx) != degree or not all(type(c) is int and 0 <= c < 2 * n for c in idx):
        raise ValueError(f"bad index tuple {idx!r} for degree {degree}")
    if list(idx) != sorted(set(idx)):
        raise ValueError(f"index tuple {idx!r} not strictly increasing")
    return idx


def _canonical(num: dict, den: int) -> tuple[dict, int]:
    """Int numerators over ``den`` > 0 made canonical: emptied keys drop,
    zero is ``{}`` over 1, and no prime divides ``den`` and every numerator."""
    if not all(num.values()):
        num = {key: monos for key, monos in num.items() if monos}
    if not num:
        return num, 1
    if den != 1:
        g = den
        for monos in num.values():
            g = gcd(g, *monos.values())
            if g == 1:
                break
        else:
            den //= g
            num = {key: {m: c // g for m, c in monos.items()} for key, monos in num.items()}
    return num, den


class _Numerators:
    """The linear structure scalar and fiber forms share: canonical int
    numerators ``num`` over one positive ``den``, keyed by index (`Form`) or
    by ``(slot, index)`` (`FiberForm`).  Subclasses give ``_new``, the
    trusted constructor of their own shape, and ``_same_fiber``."""

    __slots__ = ()

    def _same_fiber(self, other) -> bool:
        return True

    def _plus(self, other, sign: int):
        """self + sign * other, in one pass over the numerators."""
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("chart dimension mismatch")
        if not self._same_fiber(other):
            raise ValueError("rank mismatch")
        if not self.num or not other.num:
            return self if self.num else other if sign > 0 or not other.num else -other
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        g = gcd(self.den, other.den)
        mine, theirs = other.den // g, sign * (self.den // g)
        out = {key: {m: c * mine for m, c in monos.items()} for key, monos in self.num.items()}
        for key, monos in other.num.items():
            _accumulate(out.setdefault(key, {}), monos, theirs)
        return self._new(self.degree, out, self.den * mine)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._new(self.degree, {key: {m: -c for m, c in monos.items()}
                                       for key, monos in self.num.items()}, self.den)

    def scaled(self, value: Scalar):
        p, q = _ratio(value)
        return self._new(self.degree, {key: {m: c * p for m, c in monos.items()}
                                       for key, monos in self.num.items()} if p else {},
                         self.den * q)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def coefficient_degree(self) -> Optional[int]:
        """Max total degree over all polynomial coefficients; None if zero."""
        return max((sum(m) for monos in self.num.values() for m in monos), default=None)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n or not self._same_fiber(other):
            return False
        if not self.num and not other.num:
            return True
        return self.degree == other.degree and self.den == other.den and self.num == other.num


class Form(_Numerators):
    """Homogeneous exterior form with polynomial coefficients: ``num`` over ``den``."""

    __slots__ = ("n", "degree", "num", "den")

    def __init__(self, n: int, degree: int,
                 terms: Optional[Mapping[FormIndex, Poly]] = None):
        if type(degree) is not int:
            raise ValueError(f"form degree {degree!r} is not an int")
        self.n, self.degree = _chart(n), degree
        polys: dict[FormIndex, Poly] = {}
        if terms:
            if not 0 <= degree <= 2 * n:
                raise ValueError(f"nonzero form of degree {degree} on a {2*n}-dim chart")
            for idx, poly in terms.items():
                idx = _check_index(n, degree, idx)
                if not isinstance(poly, Poly):
                    raise TypeError(f"coefficient {poly!r} at {idx!r} is not a Poly")
                if poly.n != n:
                    raise ValueError("coefficient chart dimension mismatch")
                polys[idx] = poly
        # over the lcm of the canonical denominators no prime divides every numerator
        self.den = lcm(*(poly.den for poly in polys.values()))
        self.num = {idx: {m: c * (self.den // poly.den) for m, c in poly.num.items()}
                    for idx, poly in polys.items() if poly.num}

    @classmethod
    def _reduced(cls, n: int, degree: int, num: dict, den: int) -> "Form":
        """Internal constructor: valid int numerators over ``den`` > 0, made canonical."""
        form = object.__new__(cls)
        form.n, form.degree = n, degree
        form.num, form.den = _canonical(num, den)
        return form

    def _new(self, degree: int, num: dict, den: int) -> "Form":
        return Form._reduced(self.n, degree, num, den)

    @classmethod
    def _from_rationals(cls, n: int, degree: int, coeffs: Mapping) -> "Form":
        """Internal constructor from valid rational coefficients ``{idx: {mono:
        value}}`` (ints or ``Fraction``s); zero values and emptied indices drop."""
        den = lcm(*(c.denominator for monos in coeffs.values() for c in monos.values()))
        return cls._reduced(n, degree, {idx: {m: c.numerator * (den // c.denominator)
                                              for m, c in monos.items() if c}
                                        for idx, monos in coeffs.items()}, den)

    @property
    def terms(self) -> dict[FormIndex, Poly]:
        """A fresh ``{index: Poly}`` dict of the coefficients."""
        return {idx: Poly._reduced(self.n, dict(monos), self.den)
                for idx, monos in self.num.items()}

    # ---------- constructors ----------

    @classmethod
    def zero(cls, n: int, degree: int) -> "Form":
        return cls._reduced(n, degree, {}, 1)

    @classmethod
    def const(cls, n: int, value: Scalar) -> "Form":
        p, q = _ratio(value)
        return cls._reduced(_chart(n), 0, {(): {(0,) * (2 * n): p}} if p else {}, q)

    @classmethod
    def dx(cls, n: int, i: int) -> "Form":
        if not 1 <= i <= _chart(n):
            raise IndexError(f"dx{i} out of range for n={n}")
        return cls.basis(n, (i - 1,))

    @classmethod
    def dy(cls, n: int, i: int) -> "Form":
        if not 1 <= i <= _chart(n):
            raise IndexError(f"dy{i} out of range for n={n}")
        return cls.basis(n, (n + i - 1,))

    @classmethod
    def basis(cls, n: int, idx: FormIndex) -> "Form":
        idx = _check_index(_chart(n), len(idx), idx)
        return cls._reduced(n, len(idx), {idx: {(0,) * (2 * n): 1}}, 1)

    def __repr__(self) -> str:
        return f"Form(n={self.n}, degree={self.degree}, terms={self.terms!r})"


class FiberForm(_Numerators):
    """A form with values in a fiber: ``num`` keyed ``(slot, index)``, slot
    the entry's row-major place, over one ``den``; a zero entry has no key.

    ``entries``, ``flat`` and ``nested`` are views for the boundary (``repr``
    and the printer), built entry by entry on demand; subclasses give the
    number of slots (``rank ** _order``) and the nesting of ``entries``
    (``_shape``).
    """

    __slots__ = ("n", "degree", "rank", "num", "den")
    _order = 1

    def _checked(self, flat: list[Form], degree: Optional[int], rank: int, what: str) -> None:
        """A public constructor's checks on its entry list, then every field."""
        n = flat[0].n
        if degree is None:
            degree = flat[0].degree
        if type(degree) is not int:
            raise ValueError(f"{what} degree {degree!r} is not an int")
        for e in flat:
            if e.n != n:
                raise ValueError(f"chart dimension mismatch in {what} entries")
            if e.num and e.degree != degree:
                raise ValueError(f"{what} entries of mixed degree")
        self.n, self.degree, self.rank = n, degree, rank
        # over the lcm of the canonical entry denominators no prime divides every numerator
        den = self.den = lcm(*(e.den for e in flat))
        self.num = {(slot, idx): monos if e.den == den else
                    {m: c * (den // e.den) for m, c in monos.items()}
                    for slot, e in enumerate(flat) for idx, monos in e.num.items()}

    def _new(self, degree: int, num: dict, den: int):
        out = object.__new__(type(self))
        out.n, out.degree, out.rank = self.n, degree, self.rank
        out.num, out.den = _canonical(num, den)
        return out

    def _same_fiber(self, other) -> bool:
        return self.rank == other.rank

    @property
    def flat(self) -> list[Form]:
        """The entries in row-major order, fresh forms of the fiber degree."""
        parts: list[dict] = [{} for _ in range(self.rank ** self._order)]
        for (slot, idx), monos in self.num.items():
            parts[slot][idx] = monos
        return [Form._reduced(self.n, self.degree, part, self.den) for part in parts]

    @property
    def entries(self) -> list:
        return self._shape(self.flat)

    def nested(self, fn: Callable[[Form], object]) -> list:
        """``fn`` of every entry, in the nesting of ``entries``."""
        return self._shape([fn(e) for e in self.flat])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.entries!r})"


class VectorForm(FiberForm):
    """Rank-r column of forms of one degree (a fiber-valued form)."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Form], degree: Optional[int] = None):
        flat = list(entries)
        if not flat:
            raise ValueError("vector form needs at least one entry")
        self._checked(flat, degree, len(flat), "vector")

    @classmethod
    def zero(cls, n: int, degree: int, rank: int) -> "VectorForm":
        return cls([Form.zero(n, degree)] * rank, degree)

    @classmethod
    def unit(cls, n: int, rank: int, which: int) -> "VectorForm":
        entries = [Form.zero(n, 0)] * rank
        entries[which] = Form.const(n, 1)
        return cls(entries, 0)

    def _shape(self, flat: list) -> list:
        return flat


class MatrixForm(FiberForm):
    """r x r matrix of forms of one degree (endomorphism-valued form)."""

    __slots__ = ()
    _order = 2

    def __init__(self, entries: Sequence[Sequence[Form]], degree: Optional[int] = None):
        rows = [list(row) for row in entries]
        r = len(rows)
        if r == 0 or any(len(row) != r for row in rows):
            raise ValueError("matrix form must be square and non-empty")
        self._checked([e for row in rows for e in row], degree, r, "matrix")

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
        return cls([[form.scaled(v) for v in row] for row in matrix], form.degree)

    def _shape(self, flat: list) -> list[list]:
        r = self.rank
        return [flat[i * r:(i + 1) * r] for i in range(r)]


# ---------- wedge ----------

def _pairs_into(out: dict, items_a: Iterable, items_b: Iterable, slot: Optional[int]) -> None:
    """``out += a /\\ b`` over ``(index, numerators)`` items of two forms,
    keyed by the merged index, or by ``(slot, index)`` when slot is given."""
    for idx_a, monos_a in items_a:
        for idx_b, monos_b in items_b:
            merged = _merge(idx_a, idx_b)
            if merged is not None:
                key = merged[1] if slot is None else (slot, merged[1])
                _multiply(out.setdefault(key, {}), monos_a, monos_b, merged[0])


def _by_slot(a: FiberForm) -> dict[int, list]:
    """``{slot: [(index, numerators)]}`` of a fiber form, in ``num`` order."""
    out: dict[int, list] = {}
    for (slot, idx), monos in a.num.items():
        out.setdefault(slot, []).append((idx, monos))
    return out


def _wedge_into(out: dict, a: AnyForm, b: AnyForm) -> dict:
    """``out`` plus the numerators of a /\\ b over ``a.den * b.den``, keyed
    like the product: one pass over the slot pairs that compose, each
    product entry summed in the order of its fiber composition."""
    if isinstance(a, Form):
        if isinstance(b, Form):
            _pairs_into(out, a.num.items(), b.num.items(), None)
        else:
            for slot, items in _by_slot(b).items():
                _pairs_into(out, a.num.items(), items, slot)
    elif isinstance(b, Form):
        for slot, items in _by_slot(a).items():
            _pairs_into(out, items, b.num.items(), slot)
    else:  # matrix . vector (one column) or matrix . matrix
        r, width = a.rank, b.rank if isinstance(b, MatrixForm) else 1
        slots_b = _by_slot(b)
        for slot, items in sorted(_by_slot(a).items()):
            i, j = divmod(slot, r)
            for k in range(width):
                if j * width + k in slots_b:
                    _pairs_into(out, items, slots_b[j * width + k], i * width + k)
    return out


def wedge(a: AnyForm, b: AnyForm) -> AnyForm:
    """Exterior product; fiber-valued cases compose fibers in input order.

    Supported pairings: scalar with anything (either side), matrix.matrix,
    matrix.vector.  vector.vector and vector.matrix have no fiber
    composition and raise.
    """
    if a.n != b.n:
        raise ValueError("chart dimension mismatch")
    if isinstance(a, FiberForm) and isinstance(b, FiberForm):
        if not isinstance(a, MatrixForm):
            raise TypeError(
                f"no fiber composition for {type(a).__name__} wedge {type(b).__name__}")
        if a.rank != b.rank:
            raise ValueError("rank mismatch")
    shape = a if isinstance(b, Form) else b
    return shape._new(a.degree + b.degree, _wedge_into({}, a, b), a.den * b.den)


# ---------- exterior derivative and index maps ----------

def _d_into(out: dict, a: AnyForm, factor: int) -> dict:
    """``out`` plus the numerators of d a over ``a.den``, times ``factor``."""
    fiber = not isinstance(a, Form)
    for key, monos in a.num.items():
        slot, idx = key if fiber else (None, key)
        moves = _d_moves(a.n, idx)
        for mono, c in monos.items():
            c *= factor
            for coord, sign, new_idx in moves:
                e = mono[coord]
                if e:  # d(x^mono) has the term e x^(mono - 1 at coord) dx_coord
                    acc = out.setdefault(new_idx if slot is None else (slot, new_idx), {})
                    lowered = mono[:coord] + (e - 1,) + mono[coord + 1:]
                    value = acc.get(lowered, 0) + sign * e * c
                    if value:
                        acc[lowered] = value
                    else:
                        del acc[lowered]
    return out


def exterior_d(a: AnyForm) -> AnyForm:
    """d, on every entry of a fiber-valued form; satisfies d(d(a)) == 0."""
    return a._new(a.degree + 1, _d_into({}, a, 1), a.den)


def index_map(a: AnyForm, degree: int, rows: Callable, scale: int) -> AnyForm:
    """A form under the constant map dx_idx -> sum k dx_t / scale, (t, k) in
    rows(idx), on every entry of a fiber-valued form."""
    out: dict = {}
    if isinstance(a, Form):
        for idx, monos in a.num.items():
            for tidx, k in rows(idx):
                _accumulate(out.setdefault(tidx, {}), monos, k)
    else:
        for (slot, idx), monos in a.num.items():
            for tidx, k in rows(idx):
                _accumulate(out.setdefault((slot, tidx), {}), monos, k)
    return a._new(degree, out, a.den * scale)


def contract_lambda(a: AnyForm) -> AnyForm:
    """The sl(2) lowering operator (``_lowerings``), entrywise on fiber forms.

    Applied to omega it returns the constant n; a form is primitive exactly
    when this vanishes on every scalar component.
    """
    return index_map(a, a.degree - 2, partial(_lowerings, a.n), 1)


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
    const = (0,) * (2 * n)
    return Form._reduced(n, 2 * p, {idx: {const: c} for idx, c in omega_const(n, p).items()}, 1)


def omega(n: int) -> Form:
    """The Darboux symplectic form sum_i dx_i /\\ dy_i."""
    return omega_power(n, 1)


def _variable(n: int, coord: int, numerator: int = 1) -> dict:
    """One coordinate's variable, times ``numerator``, as ``{monomial: int}``."""
    return {tuple(int(c == coord) for c in range(2 * n)): numerator}


def lambda_standard(n: int) -> Form:
    """sum_i x_i dy_i; d of it is omega."""
    return Form._reduced(_chart(n), 1, {(n + i,): _variable(n, i) for i in range(n)}, 1)


def lambda_symmetric(n: int) -> Form:
    """(1/2) sum_i (x_i dy_i - y_i dx_i); d of it is omega."""
    num = {}
    for i in range(_chart(n)):
        num[(n + i,)] = _variable(n, i)
        num[(i,)] = _variable(n, n + i, -1)
    return Form._reduced(n, 1, num, 2)


LAMBDA_CHOICES: dict[str, Callable[[int], Form]] = {
    "standard": lambda_standard,
    "symmetric": lambda_symmetric,
}


def all_indices(n: int, degree: int) -> list[FormIndex]:
    """Strictly increasing index tuples of the given length, sorted."""
    if degree < 0 or degree > 2 * n:
        return []
    return list(itertools.combinations(range(2 * n), degree))
