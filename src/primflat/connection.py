"""Connections on the trivial rank-r bundle over the chart.

A connection is its local form A, a degree-1 matrix of forms; the covariant
derivative is d + A on vector-valued forms and d + [A, .] on
endomorphism-valued ones.  The curvature F = dA + A /\\ A splits as
F = F0 + omega Phi with F0 the primitive part and Phi = L^{-1} F, and the
connection is symplectically flat when F0 = 0 and the covariant derivative
of Phi vanishes.  For n >= 2 the second condition follows from the first by
the Bianchi identity; `analyze_flatness` verifies that implication instead
of assuming it.

Gauge generators are restricted to matrices with exact polynomial inverses
(unipotent times constant), which keeps every transformation inside the
rational polynomial ring.  `generate_flat` produces guaranteed
symplectically flat connections by gauging the canonical frame
A = Phi0 lambda, d lambda = omega, with a constant Phi0.  Recovering the
constant frame for an arbitrary flat connection would need path-ordered
integration outside the polynomial ring and is not attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalInvariantError
from .forms import (LAMBDA_CHOICES, MatrixForm, VectorForm, _d_into, _wedge_into,
                    exterior_d, graded_commutator, omega, wedge)
from .lefschetz import L_power, pi_p
from .scalars import Scalar, _chart


@dataclass(frozen=True)
class Connection:
    """Local connection data: chart dimension, rank and the matrix 1-form A."""

    n: int
    rank: int
    A: MatrixForm

    def __post_init__(self):
        _chart(self.n)
        if type(self.rank) is not int or self.rank < 1:
            raise ValueError(f"connection rank must be an int >= 1, got {self.rank!r}")
        if not isinstance(self.A, MatrixForm):
            raise TypeError(f"connection form must be a MatrixForm, got {type(self.A).__name__}")
        if self.A.n != self.n or self.A.rank != self.rank:
            raise ValueError("connection form shape mismatch")
        if not self.A.is_zero and self.A.degree != 1:
            raise ValueError("connection form must be homogeneous of degree 1")
        object.__setattr__(self, "_analysis", None)


@dataclass(frozen=True)
class FlatnessReport:
    """Curvature data and the symplectic-flatness verdict."""

    F: MatrixForm
    F0: MatrixForm
    Phi: MatrixForm
    dAPhi: MatrixForm
    is_symplectically_flat: bool


def curvature(conn: Connection) -> MatrixForm:
    """F = dA + A /\\ A, exact."""
    return exterior_d(conn.A) + wedge(conn.A, conn.A)


def analyze_flatness(conn: Connection) -> FlatnessReport:
    """Split the curvature and test the two flatness equations.

    Also exercises the redundancy of the second equation: when F0 = 0 and
    n >= 2, the Bianchi identity forces the covariant constancy of Phi, so
    a nonzero dAPhi there is an internal error, not a report.
    """
    cached = getattr(conn, "_analysis", None)
    if cached is not None:
        return cached
    F = curvature(conn)
    F0 = pi_p(0, F)
    Phi = L_power(-1, F)
    split = f"curvature does not reassemble from its split (n={conn.n}, rank={conn.rank})"
    projected = pi_p(0, F0)
    if not projected == F0:
        raise InternalInvariantError(
            f"{split}: F0 is not primitive at {_first_nonzero(projected - F0)}")
    reassembled = F0 + wedge(omega(conn.n), Phi)
    if not reassembled == F:
        raise InternalInvariantError(
            f"{split}: F0 + omega Phi differs from F at {_first_nonzero(reassembled - F)}")
    dAPhi = covariant_d_end(conn, Phi)
    if F0.is_zero and conn.n >= 2 and not dAPhi.is_zero:
        raise InternalInvariantError(
            f"Bianchi identity violated (n={conn.n}, rank={conn.rank}): F0 = 0 but "
            f"dAPhi is nonzero at {_first_nonzero(dAPhi)}")
    report = FlatnessReport(F, F0, Phi, dAPhi,
                            F0.is_zero and dAPhi.is_zero)
    object.__setattr__(conn, "_analysis", report)
    return report


def _first_nonzero(m: MatrixForm) -> str:
    """Where a matrix form is first nonzero, for invariant messages."""
    if m.is_zero:
        return "no entry"
    slot, idx = min(m.num)
    return f"entry {divmod(slot, m.rank)}, form index {idx}"


def covariant_d(conn: Connection, v: VectorForm) -> VectorForm:
    """d_A v = d v + A /\\ v on vector-valued forms, summed into one
    numerator dict over ``A.den * v.den``."""
    if not isinstance(v, VectorForm):
        hint = " (covariant_d_end takes matrix forms)" if isinstance(v, MatrixForm) else ""
        raise TypeError(f"covariant_d acts on vector forms, got {type(v).__name__}{hint}")
    if v.n != conn.n:
        raise ValueError("chart dimension mismatch")
    if v.rank != conn.rank:
        raise ValueError("rank mismatch")
    # d v drops its cancelled indices before A /\\ v joins, as the sum of the two would
    dv = {key: monos for key, monos in _d_into({}, v, conn.A.den).items() if monos}
    return v._new(v.degree + 1, _wedge_into(dv, conn.A, v), conn.A.den * v.den)


def covariant_d_end(conn: Connection, m: MatrixForm) -> MatrixForm:
    """d_A m = d m + [A, m] (graded commutator) on endomorphism-valued forms."""
    if m.rank != conn.rank:
        raise ValueError("rank mismatch")
    return exterior_d(m) + graded_commutator(conn.A, m)


def gauge_apply(conn: Connection, g: MatrixForm, g_inv: MatrixForm) -> Connection:
    """Transform A by an invertible degree-0 frame change g (inverse supplied).

    A' = g A g^{-1} + g d(g^{-1}); the curvature transforms by conjugation.
    """
    _check_gauge(conn.n, conn.rank, g, "gauge")
    _check_gauge(conn.n, conn.rank, g_inv, "gauge inverse")
    identity = MatrixForm.identity(conn.n, conn.rank)
    if wedge(g, g_inv) != identity or wedge(g_inv, g) != identity:
        raise ValueError("gauge inverse check failed: g * g_inv != identity")
    new_A = wedge(wedge(g, conn.A), g_inv) + wedge(g, exterior_d(g_inv))
    return Connection(conn.n, conn.rank, new_A)


def _check_gauge(n: int, rank: int, g: MatrixForm, name: str) -> None:
    """Refuse a gauge matrix that is not of degree 0 and rank ``rank`` on the chart ``n``."""
    if (g.n, g.rank, g.degree) != (n, rank, 0):
        raise ValueError(f"{name} must be a degree-0 rank-{rank} matrix on the chart n={n}, "
                         f"got degree {g.degree}, rank {g.rank}, n={g.n}")


def unipotent_inverse(g: MatrixForm) -> MatrixForm:
    """Exact polynomial inverse of identity-plus-nilpotent via the finite series."""
    identity = MatrixForm.identity(g.n, g.rank)
    nil = g - identity
    result = identity
    power = identity
    for k in range(1, g.rank + 1):
        power = wedge(power, nil)
        if power.is_zero:
            break
        result = result + power if k % 2 == 0 else result - power
    if not power.is_zero:
        raise ValueError("matrix is not unipotent: nilpotent part does not terminate")
    return result


def generate_flat(n: int, rank: int, phi0: Sequence[Sequence[Scalar]],
                  gauge: Optional[MatrixForm] = None,
                  lambda_choice: str = "standard") -> Connection:
    """Symplectically flat connection gauged out of the constant frame.

    Starts from A = Phi0 lambda (constant Phi0, d lambda = omega) and
    applies the optional unipotent gauge; the result has Phi = g Phi0
    g^{-1} and vanishing primitive curvature by construction.
    """
    try:
        lam = LAMBDA_CHOICES[lambda_choice](n)
    except KeyError:
        raise ValueError(f"unknown lambda choice {lambda_choice!r}") from None
    residual = exterior_d(lam) - omega(n)
    if not residual.is_zero:
        raise InternalInvariantError(
            f"potential {lambda_choice!r} (n={n}, rank={rank}) does not differentiate "
            f"to omega: d(lambda) - omega is nonzero at form index {min(residual.num)}")
    rows = [list(row) for row in phi0]
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError("phi0 must be rank x rank")
    conn = Connection(n, rank, MatrixForm.from_scalar_form(rows, lam))
    if gauge is None:
        return conn
    _check_gauge(n, rank, gauge, "gauge")
    return gauge_apply(conn, gauge, unipotent_inverse(gauge))


def yang_mills_residual(conn: Connection) -> MatrixForm:
    """d_A (Phi omega^{n-1}), the critical-point residual for F = Phi omega.

    Up to the constant -(n-1)! this is the Hodge-dual divergence of the
    curvature when the primitive part vanishes, and it vanishes exactly when
    the connection satisfies the Yang-Mills equation.  Raises when F has a
    primitive part, where the shortcut formula no longer computes it.
    """
    report = analyze_flatness(conn)
    if not report.F0.is_zero:
        raise ValueError("Yang-Mills residual needs curvature with no primitive part")
    phi_top = L_power(conn.n - 1, report.Phi)
    return covariant_d_end(conn, phi_top)
