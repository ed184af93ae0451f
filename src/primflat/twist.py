"""Twisting the primitive differential by a connection.

Two routes compute the twisted differential on a vector-valued element:

* the closed-form branch table — Pi d_A below the middle, the composite
  (-del_plus_A del_minus_A + Phi) at the middle, -L^{-1} d_A above it;
* the generic series sum_k delta_k m_k(A, ..., A, B) with
  delta_k = (-1)^((k-1)(k-2)/2), which for this algebra truncates at k = 3:
  m1(B) + m2(A, B) - m3(A, A, B).

Their agreement on every input is the content of the twisting construction,
so `twisted_m1` evaluates both and raises on mismatch unless the caller
opts into the fast single-route mode (matrix assembly in the cohomology
module does, since it applies the operator thousands of times).

`m1_prime_of_A` evaluates the series on the connection form itself inside
the matrix-valued algebra; its vanishing is exactly symplectic flatness,
which `check_square_zero` uses to exhibit the square-zero property or a
counterexample witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .connection import Connection, analyze_flatness, covariant_d
from .errors import InternalInvariantError
from .forms import VectorForm, wedge
from .lefschetz import L_power, is_primitive, pi_p
from .ainfinity import (MINUS, PLUS, Element, PrimElement, ZERO, _ZeroElement,
                  add_elements, apply_m, m1, m2, m3, scale_element)


def delta_sign(k: int) -> int:
    """(-1)^((k-1)(k-2)/2): +1 for k = 1, 2 mod 4, -1 for k = 3, 0 mod 4."""
    if k < 1:
        raise ValueError("delta_sign wants k >= 1")
    return -1 if ((k - 1) * (k - 2) // 2) % 2 else 1


def del_plus_A(conn: Connection, beta: VectorForm) -> VectorForm:
    """Primitive part of the covariant differential of a primitive form."""
    _require_primitive(beta)
    return pi_p(0, covariant_d(conn, beta))


def del_minus_A(conn: Connection, beta: VectorForm) -> VectorForm:
    """omega-component of the covariant differential of a primitive form."""
    _require_primitive(beta)
    return L_power(-1, covariant_d(conn, beta))


def _require_primitive(beta: VectorForm) -> None:
    if not isinstance(beta, VectorForm):
        raise TypeError("twisted operators act on vector-valued forms")
    if not is_primitive(beta):
        raise ValueError("twisted operators are defined on primitive forms only")


def connection_element(conn: Connection) -> Element:
    """The connection form as a matrix-valued degree-1 algebra element."""
    if conn.A.is_zero:
        return ZERO
    return PrimElement(PLUS, 1, conn.A)


def twisting_series(conn: Connection, b: Element, cutoff: int = 3) -> Element:
    """sum_k delta_k m_k(A^(k-1), B), truncated at the given tensor length.

    The algebra at hand has m_k = 0 for k >= 4, so cutoff 3 is exact here;
    the evaluator accepts any cutoff for reuse with richer map tables.
    """
    a_elem = connection_element(conn)
    total: Element = ZERO
    for k in range(1, cutoff + 1):
        if k > 1 and isinstance(a_elem, _ZeroElement):
            break
        args = [a_elem] * (k - 1) + [b]
        term = apply_m(k, args)
        total = add_elements(total, scale_element(delta_sign(k), term))
    return total


def twisted_m1(conn: Connection, a: Element, verify: bool = True) -> Element:
    """The twisted differential on a vector-valued element of the complex.

    Computes the branch table; with verification on, also evaluates the
    twisting series and raises `InternalInvariantError` on any mismatch.
    """
    if isinstance(a, _ZeroElement):
        return ZERO
    if not isinstance(a.payload, VectorForm):
        raise TypeError("twisted_m1 acts on vector-fiber elements")
    if a.payload.rank != conn.rank or a.n != conn.n:
        raise ValueError("element does not match the connection's chart or rank")
    n = conn.n
    if a.side == PLUS:
        if a.s < n:
            value = _element_at(PLUS, a.s + 1, del_plus_A(conn, a.payload))
        else:
            phi = analyze_flatness(conn).Phi
            composite = -del_plus_A(conn, del_minus_A(conn, a.payload))
            value = _element_at(MINUS, n, composite + wedge(phi, a.payload))
    elif a.s == 0:
        value = ZERO
    else:
        value = _element_at(MINUS, a.s - 1, -del_minus_A(conn, a.payload))
    if verify:
        series = twisting_series(conn, a)
        diff = add_elements(series, scale_element(-1, value))
        if not diff.is_zero:
            raise InternalInvariantError(
                "branch table and twisting series disagree on "
                f"P{a.s}{a.side}: {diff!r}")
    return value


def _element_at(side: str, s: int, payload: VectorForm) -> Element:
    if payload.is_zero:
        return ZERO
    return PrimElement(side, s, payload)


def m1_prime_of_A(conn: Connection) -> Element:
    """The twisting series applied to the connection form itself.

    Zero exactly when the connection is symplectically flat (no primitive
    curvature and covariantly constant Phi); the n = 1 branch carries the
    d_A Phi obstruction that the primitive projection cannot see there.
    """
    a_elem = connection_element(conn)
    if isinstance(a_elem, _ZeroElement):
        return ZERO
    total = add_elements(m1(a_elem), m2(a_elem, a_elem))
    return add_elements(total, scale_element(-1, m3(a_elem, a_elem, a_elem)))


@dataclass
class SquareZeroReport:
    """Outcome of randomized square-zero trials for the twisted differential."""

    flat: bool
    trials: int
    failures: int
    witness: Optional[PrimElement]
    witness_residual: Optional[PrimElement]


def check_square_zero(conn: Connection, trials: int = 100, seed: int = 0,
                      max_degree: int = 2) -> SquareZeroReport:
    """Apply the twisted differential twice to random elements.

    For a symplectically flat connection every residual vanishes; otherwise
    the first nonzero residual is reported as a witness.
    """
    from .sampling import rand_prim_element  # deferred: sampling imports this package

    rng = random.Random(seed)
    flat = analyze_flatness(conn).is_symplectically_flat
    failures = 0
    witness = None
    witness_residual = None
    for _ in range(trials):
        element = rand_prim_element(rng, conn.n, "vector", conn.rank,
                                    max_degree=max_degree)
        residual = twisted_m1(conn, twisted_m1(conn, element))
        if not residual.is_zero:
            failures += 1
            if witness is None:
                witness = element
                witness_residual = residual
    return SquareZeroReport(flat, trials, failures, witness, witness_residual)
