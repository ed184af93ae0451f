"""Twisting the primitive differential by a connection.

Two routes compute the twisted differential on a vector-valued element:

* the closed-form branch table — Pi d_A below the middle, the composite
  (-del_plus_A del_minus_A + Phi) at the middle, -L^{-1} d_A above it:
  m1's table `ainfinity._differential` with d_A for d, plus Phi;
* the generic series sum_k delta_k m_k(A, ..., A, B) with
  delta_k = (-1)^((k-1)(k-2)/2), which for this algebra truncates at k = 3:
  m1(B) + m2(A, B) - m3(A, A, B).

Their agreement on every input is the content of the twisting construction,
so `twisted_m1` evaluates both and raises on mismatch unless the caller
opts into the fast single-route mode (the cone identity checks and the
witness check of `exactness_witness` do).  Cohomology matrices are not
built through here but from fiber tables; `twisted_m1` is their oracle.
Both routes land one grading above the input, zero included (P^0_- goes to
the zero at (-, -1), see `ainfinity`), and `add_elements` compares those
positions before it compares the payloads.

`m1_prime_of_A` evaluates the series on the connection form itself inside
the matrix-valued algebra; its vanishing is exactly symplectic flatness.
`check_square_zero` applies the twisted differential twice to random
elements and returns the `sampling.TrialReport` of those trials: no failure
for a flat connection, else the first failing element and its residual.
"""

from __future__ import annotations

import random

from .connection import Connection, analyze_flatness, covariant_d
from .errors import InternalInvariantError
from .forms import VectorForm
from .lefschetz import L_power, _require_primitive, pi_p
from .ainfinity import PrimElement, _differential, add_elements, apply_m, m1, scale_element
from .sampling import TrialReport, rand_prim_element, run_trials


def delta_sign(k: int) -> int:
    """(-1)^((k-1)(k-2)/2): +1 for k = 1, 2 mod 4, -1 for k = 3, 0 mod 4."""
    if type(k) is not int or k < 1:
        raise ValueError(f"delta_sign wants an int k >= 1, got {k!r}")
    return -1 if ((k - 1) * (k - 2) // 2) % 2 else 1


def del_plus_A(conn: Connection, beta: VectorForm) -> VectorForm:
    """Primitive part of the covariant differential of a primitive form."""
    if not isinstance(beta, VectorForm):
        raise TypeError("del_plus_A acts on vector-valued forms")
    _require_primitive(beta, "del_plus_A")
    return pi_p(0, covariant_d(conn, beta))


def del_minus_A(conn: Connection, beta: VectorForm) -> VectorForm:
    """omega-component of the covariant differential of a primitive form."""
    if not isinstance(beta, VectorForm):
        raise TypeError("del_minus_A acts on vector-valued forms")
    _require_primitive(beta, "del_minus_A")
    return L_power(-1, covariant_d(conn, beta))


def connection_element(conn: Connection) -> PrimElement:
    """The connection form as a matrix-valued degree-1 algebra element."""
    return PrimElement._at(1, conn.A)  # every 1-form is primitive


def twisting_series(conn: Connection, b: PrimElement) -> PrimElement:
    """sum_k delta_k m_k(A^(k-1), B); the algebra has m_k = 0 for k >= 4,
    so the terms k = 1, 2, 3 are the whole series, each one grading above B."""
    a_elem = connection_element(conn)
    total = m1(b)  # delta_1 = 1
    for k in (2, 3):
        term = apply_m(k, [a_elem] * (k - 1) + [b])
        total = add_elements(total, scale_element(delta_sign(k), term))
    return total


def twisted_m1(conn: Connection, a: PrimElement, verify: bool = True) -> PrimElement:
    """The twisted differential on a vector-valued element of the complex.

    Computes the branch table; with verification on, also evaluates the
    twisting series and raises `InternalInvariantError` on any mismatch.
    The result, zero or not, sits one grading above ``a``.
    """
    if not isinstance(a.payload, VectorForm):
        raise TypeError("twisted_m1 acts on vector-fiber elements")
    if a.payload.rank != conn.rank or a.n != conn.n:
        raise ValueError("element does not match the connection's chart or rank")
    value = _differential(a, lambda b: covariant_d(conn, b), analyze_flatness(conn).Phi)
    if verify:
        series = twisting_series(conn, a)
        diff = add_elements(series, scale_element(-1, value))
        if not diff.is_zero:
            raise InternalInvariantError(
                f"branch table and twisting series disagree on {a.label}: {diff!r}")
    return value


def m1_prime_of_A(conn: Connection) -> PrimElement:
    """The twisting series applied to the connection form itself.

    Zero exactly when the connection is symplectically flat (no primitive
    curvature and covariantly constant Phi); the n = 1 branch carries the
    d_A Phi obstruction that the primitive projection cannot see there.
    """
    return twisting_series(conn, connection_element(conn))


def check_square_zero(conn: Connection, trials: int = 100, seed: int = 0,
                      max_degree: int = 2) -> TrialReport:
    """Apply the twisted differential twice to random elements.

    For a symplectically flat connection every residual vanishes; otherwise
    the first nonzero residual is reported with the element it came from.
    """
    rng = random.Random(seed)
    return run_trials(
        "square_zero", trials,
        lambda: rand_prim_element(rng, conn.n, "vector", conn.rank, max_degree=max_degree),
        lambda element: twisted_m1(conn, twisted_m1(conn, element)))
