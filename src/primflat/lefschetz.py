"""Lefschetz decomposition and the symplectic operators on a Darboux chart.

Every k-form splits uniquely as a sum of omega^r wedge beta_{k-2r} with
primitive beta's (a form is primitive when the lowering contraction
`contract_lambda` kills it).  The split is pointwise linear algebra with
constant coefficients, so it is solved once per (n, degree) on the constant
exterior-algebra fiber, cached, and extended linearly over polynomial
coefficients.  Every table is a pure function of its small integer
arguments, memoized with ``functools.cache`` (so ``cache_info()`` gives its
hits and misses); concurrent first calls can at worst compute an identical
entry twice.

The fiber is the exterior algebra of ``forms`` on constant coefficients: a
constant form is an ``{index: coefficient}`` dict, multiplied by
``wedge_terms``, lowered by ``_lowerings`` and summed by
``scalars._accumulate``, and ``omega_const(n, r)`` is omega^r.  Every table
below is built from these maps; none wedges a symbolic form.

The decomposition table ``_decomp_table(n, degree)`` stays in primitive
coordinates: row idx is ``{(r, bi): coefficient}``, the basis form idx
written in the split basis omega^r /\\ b_bi with b_bi in
``primitive_fiber_basis(n, degree - 2r)``.  The products omega^k /\\ b_bi
are built once per (n, s, k) in ``_lefschetz_image``; the decomposition
solves against them and every operator map sums them.

Operators built on the split, each a cached constant fiber map read from
the decomposition table (``_omega_map``), stored over ints at one scale like
the fiber tables below and applied to a form's numerators (``index_map``):

* ``decompose(a)``: the dict ``{r: beta_r}`` of nonzero components;
  component r is the map with shift -r and top r, which keeps only the
  omega^r component and strips its r powers of omega; one map per r in
  ``component_range``.
* ``L_power(p, a)``: wedge with omega^p for p >= 0; for p < 0 shift every
  component down by |p| powers of omega, dropping components that run out.
* ``pi_p(p, a)``: truncate the decomposition to components with r <= p
  (``pi_p(0, .)`` is the primitive projection).
* ``star_r(a)``: L^(n-k) on a form of degree k.
* ``del_plus / del_minus``: the two pieces of d on primitive forms,
  d(b) == del_plus(b) + omega /\\ del_minus(b), with del_plus = pi_p(0, d b)
  and del_minus = L_power(-1, d b).  Only these and ``twist``'s d_A versions
  check primitivity (``_require_primitive``); internal callers do not.

The fiber tables ``fiber_d_table(n, s, r)`` hold, for each coordinate c and
primitive basis form b, the primitive coordinates of pi_p(0, dx_c /\\ b)
(r = 0) or of L^{-1}(dx_c /\\ b) (r = 1): the decomposition rows of
dx_c /\\ b summed, keeping the coordinates of component r.  The cohomology
assembly builds every twisted differential column from them.  Each table is
stored over ints: its entries are one positive scale (the lcm of the
coordinates' denominators) times the coordinates, and the scale is returned
beside the table, so column assembly multiplies ints only.
``primitive_fiber_coords`` sums the same rows for one primitive form.

Note that L^{-1} here is the component-shift operator of the decomposition,
not the sl(2) lowering operator: the two differ by combinatorial factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .errors import InternalInvariantError
from .forms import (AnyForm, FormIndex, _lowerings, all_indices, contract_lambda,
                    exterior_d, index_map, omega_const, wedge_terms)
from .linalg import Echelon, kernel_basis
from .scalars import _accumulate

ConstForm = dict  # FormIndex -> int or Fraction, a form with constant coefficients
# table[c][f] lists the (target index, coefficient) pairs of one constant
# fiber map applied to dx_c /\ (basis element f)
FiberTable = list


def component_range(n: int, degree: int) -> range:
    """Valid omega-exponents r in the decomposition of a degree-k form.

    Components are omega^r /\\ beta_s with s = degree - 2r, 0 <= s <= n and
    r <= n - s (higher powers annihilate a primitive s-form); the last
    condition is r >= degree - n, which implies s <= n.
    """
    return range(max(0, degree - n), degree // 2 + 1)


@cache
def primitive_fiber_basis(n: int, s: int) -> list[ConstForm]:
    """Basis of the constant primitive s-forms (kernel of the lowering map).

    Dimension is C(2n, s) - C(2n, s-2) for s <= n and 0 beyond.
    """
    if not 0 <= s <= n:
        return []
    return kernel_basis((idx, dict(_lowerings(n, idx))) for idx in all_indices(n, s))[0]


@cache
def _lefschetz_image(n: int, s: int, k: int) -> list[ConstForm]:
    """``omega^k /\\ b`` for each b in ``primitive_fiber_basis(n, s)``."""
    return [wedge_terms(omega_const(n, k), b) for b in primitive_fiber_basis(n, s)]


@cache
def _decomp_table(n: int, degree: int) -> dict[FormIndex, dict[tuple[int, int], Fraction]]:
    """``table[idx]``: the coordinates ``{(r, bi): coefficient}`` of the basis
    form idx in the split basis omega^r /\\ b_bi, b_bi in
    ``primitive_fiber_basis(n, degree - 2r)``; like every solve answer it
    holds no zero coordinates."""
    ech = Echelon(track=True)
    for r in component_range(n, degree):
        for bi, column in enumerate(_lefschetz_image(n, degree - 2 * r, r)):
            if ech.add(column, (r, bi)) is not None:
                raise InternalInvariantError(
                    f"Lefschetz fiber system of {degree}-forms (n={n}) is singular")
    table = {}
    for idx in all_indices(n, degree):
        combo = ech.solve({idx: Fraction(1)})
        if combo is None:
            raise InternalInvariantError(
                f"Lefschetz fiber system of {degree}-forms (n={n}) does not span")
        table[idx] = combo
    return table


def _split_coords(n: int, degree: int, const_form: ConstForm) -> dict[tuple[int, int], Fraction]:
    """The ``{(r, bi): coefficient}`` coordinates of a constant form, summed
    from the rows of ``_decomp_table``."""
    table, out = _decomp_table(n, degree), {}
    for idx, coeff in const_form.items():
        _accumulate(out, table[idx], coeff)
    return out


def primitive_fiber_coords(n: int, s: int, const_form: ConstForm) -> dict[int, Fraction]:
    """Coordinates of a constant primitive s-form in the cached fiber basis."""
    coords = _split_coords(n, s, const_form)
    if any(r for r, _ in coords):
        raise InternalInvariantError(f"constant {s}-form (n={n}) is not primitive")
    return {bi: coeff for (_, bi), coeff in coords.items()}


@cache
def fiber_d_table(n: int, s: int, r: int) -> tuple[FiberTable, int]:
    """``(table, scale)``: ``table[c][fi]`` lists the prim coordinates of the
    omega^r component of dx_c /\\ b_fi, b_fi in ``primitive_fiber_basis(n, s)``,
    as ``(fj, scale * coordinate)`` int pairs.  ``scale`` is the lcm of the
    coordinates' denominators, one positive int per table.

    r = 0 is pi_p(0, dx_c /\\ .), the fiber of del_plus; r = 1 is
    L^{-1}(dx_c /\\ .), the fiber of del_minus, and there every component
    beyond r = 1 must vanish: a 1-form times a primitive form has none.
    """
    rows = []
    for c in range(2 * n):
        row = []
        for fi, b in enumerate(primitive_fiber_basis(n, s)):
            coords = _split_coords(n, s + 1, wedge_terms({(c,): 1}, b))
            for comp_r, fj in coords:
                if r == 1 and comp_r > 1:
                    raise InternalInvariantError(
                        f"L^-1(dx{c} ^ b{fi}) on primitive {s}-forms (n={n}) has a "
                        f"component omega^{comp_r} along basis form b{fj}")
            row.append(sorted((fj, v) for (comp_r, fj), v in coords.items() if comp_r == r))
        rows.append(row)
    scale = lcm(*(v.denominator for row in rows for pairs in row for _, v in pairs))
    table: FiberTable = [[tuple((fj, int(v * scale)) for fj, v in pairs) for pairs in row]
                         for row in rows]
    return table, scale


def decompose(a: AnyForm) -> dict[int, AnyForm]:
    """Exact Lefschetz decomposition ``{r: beta_r}`` with a == sum_r
    omega^r /\\ beta_r; each beta_r carries the fiber of the input.

    Component r is the constant fiber map that keeps the omega^r component
    and strips its r powers of omega; zero components are left out.
    """
    components = {r: _apply_omega_map(a, -r, r) for r in component_range(a.n, a.degree)}
    return {r: beta for r, beta in components.items() if not beta.is_zero}


def is_primitive(a: AnyForm) -> bool:
    """True when the lowering contraction kills every scalar component.

    Equivalent, for degree s <= n, to omega^(n-s+1) /\\ a == 0; degrees
    above n admit no nonzero primitive forms and only the zero form passes.
    """
    return contract_lambda(a).is_zero and (a.degree <= a.n or a.is_zero)


@cache
def _omega_map(n: int, degree: int, shift: int, top: int) -> tuple[dict, int]:
    """``(table, scale)``: ``table[idx]`` lists the (target index, scale *
    coefficient) int pairs of sum omega^(r+shift) /\\ beta_r over the components
    beta_r of the basis form idx with r <= top and r + shift >= 0."""
    rows = {}
    for idx, coords in _decomp_table(n, degree).items():
        row = rows[idx] = {}
        for (r, bi), coeff in coords.items():
            if r <= top and r + shift >= 0:
                _accumulate(row, _lefschetz_image(n, degree - 2 * r, r + shift)[bi], coeff)
    scale = lcm(*(v.denominator for row in rows.values() for v in row.values()))
    return {idx: [(tidx, v.numerator * (scale // v.denominator)) for tidx, v in row.items()]
            for idx, row in rows.items()}, scale


def _apply_omega_map(a: AnyForm, shift: int, top: int) -> AnyForm:
    """The constant fiber map ``_omega_map(n, a.degree, shift, top)`` applied
    to a by ``index_map``; the result has degree a.degree + 2 shift, zero or not."""
    table, scale = _omega_map(a.n, a.degree, shift, top)
    return index_map(a, a.degree + 2 * shift, table.__getitem__, scale)


def L_power(p: int, a: AnyForm) -> AnyForm:
    """Add p powers of omega (p >= 0) or strip |p| powers componentwise (p < 0)."""
    if type(p) is not int:
        raise ValueError(f"L_power wants an int p, got {p!r}")
    return _apply_omega_map(a, p, a.n)


def pi_p(p: int, a: AnyForm) -> AnyForm:
    """Truncate the decomposition to omega-exponent <= p; pi_p(0, .) projects
    onto the primitive component."""
    if type(p) is not int or p < 0:
        raise ValueError(f"pi_p wants an int p >= 0, got {p!r}")
    return _apply_omega_map(a, 0, p)


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
