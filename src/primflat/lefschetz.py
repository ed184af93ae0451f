"""Lefschetz decomposition and the symplectic operators on a Darboux chart.

Every k-form splits uniquely as a sum of omega^r wedge beta_{k-2r} with
primitive beta's (a form is primitive when the lowering contraction
`contract_lambda` kills it).  The split is pointwise linear algebra with
constant coefficients, so it is solved once per (n, degree) on the constant
exterior-algebra fiber, cached, and extended linearly over polynomial
coefficients.  The caches are filled idempotently from pure computations;
concurrent readers can at worst recompute an identical entry.

Operators built on the split:

* ``L_power(p, a)``: wedge with omega^p for p >= 0; for p < 0 shift every
  component down by |p| powers of omega, dropping components that run out.
* ``pi_p(p, a)``: truncate the decomposition to components with r <= p
  (``pi_p(0, .)`` is the primitive projection).
* ``star_r(a)``: L^(n-k) on a form of degree k.
* ``del_plus / del_minus``: the two pieces of d on primitive forms,
  d(b) == del_plus(b) + omega /\\ del_minus(b), with del_plus = pi_p(0, d b)
  and del_minus = L_power(-1, d b).

Note that L^{-1} here is the component-shift operator of the decomposition,
not the sl(2) lowering operator: the two differ by combinatorial factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalInvariantError
from .forms import (AnyForm, Form, FormIndex, MatrixForm, VectorForm, all_indices,
                    contract_lambda, exterior_d, omega_power, wedge)
from .linalg import Echelon
from .scalars import Poly

ConstForm = dict  # FormIndex -> Fraction, a form with constant coefficients

_PRIM_BASIS: dict[tuple[int, int], list[ConstForm]] = {}
_PRIM_COORDS: dict[tuple[int, int], Echelon] = {}
_DECOMP: dict[tuple[int, int], dict[FormIndex, dict[int, ConstForm]]] = {}


def _const_to_form(n: int, degree: int, entries: ConstForm) -> Form:
    return Form(n, degree, {idx: Poly.const(n, c) for idx, c in entries.items()})


def component_range(n: int, degree: int) -> list[int]:
    """Valid omega-exponents r in the decomposition of a degree-k form.

    Components are omega^r /\\ beta_s with s = degree - 2r, 0 <= s <= n and
    r <= n - s (higher powers annihilate a primitive s-form).
    """
    out = []
    for r in range(0, degree // 2 + 1):
        s = degree - 2 * r
        if s <= n and r <= n - s:
            out.append(r)
    return out


def primitive_fiber_basis(n: int, s: int) -> list[ConstForm]:
    """Basis of the constant primitive s-forms (kernel of the lowering map).

    Dimension is C(2n, s) - C(2n, s-2) for s <= n and 0 beyond.
    """
    key = (n, s)
    cached = _PRIM_BASIS.get(key)
    if cached is not None:
        return cached
    basis: list[ConstForm] = []
    if 0 <= s <= n:
        if s < 2:
            basis = [{idx: Fraction(1)} for idx in all_indices(n, s)]
        else:
            ech = Echelon(track=True)
            for idx in all_indices(n, s):
                lowered = contract_lambda(Form.basis(n, idx))
                vec = {i: p.constant_value() for i, p in lowered.terms.items()}
                relation = ech.add(vec, idx)
                if relation is not None:
                    basis.append(relation)
    _PRIM_BASIS.setdefault(key, basis)
    return _PRIM_BASIS[key]


def _primitive_coords_solver(n: int, s: int) -> Echelon:
    """Tracking echelon whose fed columns are the primitive fiber basis."""
    key = (n, s)
    cached = _PRIM_COORDS.get(key)
    if cached is not None:
        return cached
    ech = Echelon(track=True)
    for bi, vec in enumerate(primitive_fiber_basis(n, s)):
        if ech.add(vec, bi) is not None:
            raise InternalInvariantError("primitive fiber basis is dependent")
    _PRIM_COORDS.setdefault(key, ech)
    return _PRIM_COORDS[key]


def primitive_fiber_coords(n: int, s: int, const_form: ConstForm) -> dict[int, Fraction]:
    """Coordinates of a constant primitive s-form in the cached fiber basis."""
    combo = _primitive_coords_solver(n, s).solve(const_form)
    if combo is None:
        raise InternalInvariantError("constant form is not primitive")
    return combo


def _decomp_table(n: int, degree: int) -> dict[FormIndex, dict[int, ConstForm]]:
    key = (n, degree)
    cached = _DECOMP.get(key)
    if cached is not None:
        return cached

    rs = component_range(n, degree)
    ech = Echelon(track=True)
    basis_vectors: dict[tuple[int, int], ConstForm] = {}
    for r in rs:
        s = degree - 2 * r
        wr = omega_power(n, r)
        for bi, bvec in enumerate(primitive_fiber_basis(n, s)):
            image = wedge(wr, _const_to_form(n, s, bvec))
            col = {idx: p.constant_value() for idx, p in image.terms.items()}
            if ech.add(col, (r, bi)) is not None:
                raise InternalInvariantError("Lefschetz fiber system is singular")
            basis_vectors[(r, bi)] = bvec

    table: dict[FormIndex, dict[int, ConstForm]] = {}
    for idx in all_indices(n, degree):
        combo = ech.solve({idx: Fraction(1)})
        if combo is None:
            raise InternalInvariantError("Lefschetz fiber system does not span")
        components: dict[int, ConstForm] = {}
        for (r, bi), coeff in combo.items():
            comp = components.setdefault(r, {})
            for bidx, bcoeff in basis_vectors[(r, bi)].items():
                acc = comp.get(bidx, Fraction(0)) + coeff * bcoeff
                if acc:
                    comp[bidx] = acc
                else:
                    comp.pop(bidx, None)
        table[idx] = {r: comp for r, comp in components.items() if comp}
    _DECOMP.setdefault(key, table)
    return _DECOMP[key]


@dataclass
class LefschetzComponents:
    """The primitive components of one homogeneous form.

    ``components[r]`` is the primitive form beta_{degree-2r}; absent keys
    are zero.  ``reassemble`` returns sum_r omega^r /\\ components[r], which
    equals the decomposed form exactly.
    """

    n: int
    degree: int
    components: dict[int, AnyForm]

    def component(self, r: int) -> Optional[AnyForm]:
        return self.components.get(r)

    def reassemble(self) -> AnyForm:
        total = None
        for r, beta in self.components.items():
            piece = wedge(omega_power(self.n, r), beta)
            total = piece if total is None else total + piece
        if total is not None:
            return total
        return Form.zero(self.n, self.degree)


def _decompose_scalar(a: Form) -> dict[int, Form]:
    table = _decomp_table(a.n, a.degree)
    out: dict[int, Form] = {}
    for idx, poly in a.terms.items():
        for r, const in table[idx].items():
            comp = out.setdefault(r, Form.zero(a.n, a.degree - 2 * r))
            add = Form(a.n, a.degree - 2 * r,
                       {bidx: poly.scaled(c) for bidx, c in const.items()})
            out[r] = comp + add
    return {r: f for r, f in out.items() if not f.is_zero}


def decompose(a: AnyForm) -> LefschetzComponents:
    """Exact Lefschetz decomposition; components carry the fiber of the input."""
    if isinstance(a, Form):
        comps = _decompose_scalar(a)
        return LefschetzComponents(a.n, a.degree, comps)
    if isinstance(a, VectorForm):
        per_entry = [_decompose_scalar(e) for e in a.entries]
        rs = sorted({r for comps in per_entry for r in comps})
        out = {}
        for r in rs:
            deg = a.degree - 2 * r
            out[r] = VectorForm(
                [comps.get(r, Form.zero(a.n, deg)) for comps in per_entry], deg)
        return LefschetzComponents(a.n, a.degree, out)
    if isinstance(a, MatrixForm):
        per_entry = [[_decompose_scalar(e) for e in row] for row in a.entries]
        rs = sorted({r for row in per_entry for comps in row for r in comps})
        out = {}
        for r in rs:
            deg = a.degree - 2 * r
            out[r] = MatrixForm(
                [[comps.get(r, Form.zero(a.n, deg)) for comps in row]
                 for row in per_entry], deg)
        return LefschetzComponents(a.n, a.degree, out)
    raise TypeError(f"cannot decompose {type(a).__name__}")


def is_primitive(a: AnyForm) -> bool:
    """True when the lowering contraction kills every scalar component.

    Equivalent, for degree s <= n, to omega^(n-s+1) /\\ a == 0; degrees
    above n admit no nonzero primitive forms and only the zero form passes.
    """
    if isinstance(a, Form):
        return contract_lambda(a).is_zero and (a.degree <= a.n or a.is_zero)
    if isinstance(a, VectorForm):
        return all(is_primitive(e) for e in a.entries)
    if isinstance(a, MatrixForm):
        return all(is_primitive(e) for row in a.entries for e in row)
    raise TypeError(f"cannot test primitivity of {type(a).__name__}")


def is_primitive_by_wedge(a: AnyForm) -> bool:
    """Independent primitivity oracle: omega^(n-s+1) /\\ a == 0 (degree s <= n)."""
    if isinstance(a, (VectorForm, MatrixForm)):
        forms = a.entries if isinstance(a, VectorForm) else [
            e for row in a.entries for e in row]
        return all(is_primitive_by_wedge(f) for f in forms)
    if a.degree > a.n:
        return a.is_zero
    power = a.n - a.degree + 1
    return wedge(omega_power(a.n, power), a).is_zero


def L_power(p: int, a: AnyForm) -> AnyForm:
    """Add p powers of omega (p >= 0) or strip |p| powers componentwise (p < 0)."""
    if p >= 0:
        return wedge(omega_power(a.n, p), a)
    dec = decompose(a)
    total = None
    n = a.n
    for r, beta in dec.components.items():
        if r + p < 0:
            continue
        piece = wedge(omega_power(n, r + p), beta)
        total = piece if total is None else total + piece
    if total is None:
        return _zero_like(a, a.degree + 2 * p)
    return total


def pi_p(p: int, a: AnyForm) -> AnyForm:
    """Truncate the decomposition to omega-exponent <= p; pi_p(0, .) projects
    onto the primitive component."""
    if p < 0:
        raise ValueError("pi_p wants p >= 0")
    dec = decompose(a)
    total = None
    n = a.n
    for r, beta in dec.components.items():
        if r > p:
            continue
        piece = wedge(omega_power(n, r), beta)
        total = piece if total is None else total + piece
    if total is None:
        return _zero_like(a, a.degree)
    return total


def star_r(a: AnyForm) -> AnyForm:
    """The reflection L^(n-k) on a form of degree k."""
    return L_power(a.n - a.degree, a)


def del_plus(b: AnyForm) -> AnyForm:
    """Primitive part of d(b); raises on non-primitive input."""
    _require_primitive(b, "del_plus")
    return pi_p(0, exterior_d(b))


def del_minus(b: AnyForm) -> AnyForm:
    """omega-component of d(b): L^{-1} d(b); raises on non-primitive input."""
    _require_primitive(b, "del_minus")
    return L_power(-1, exterior_d(b))


def _require_primitive(b: AnyForm, who: str) -> None:
    if not is_primitive(b):
        raise ValueError(f"{who} is defined on primitive forms only")


def _zero_like(a: AnyForm, degree: int) -> AnyForm:
    if isinstance(a, Form):
        return Form.zero(a.n, degree)
    if isinstance(a, VectorForm):
        return VectorForm.zero(a.n, degree, a.rank)
    return MatrixForm.zero(a.n, degree, a.rank)
