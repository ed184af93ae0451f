"""The twisted cone complex and its homotopy equivalence with the primitive one.

A cone element of grading j is a pair (eta, xi) standing for eta + theta xi
with eta a j-form, xi a (j-1)-form and theta a formal odd generator with
d theta = omega.  theta is never stored: its signs are baked into the
differential, which in pair form reads

    D(eta, xi) = (d_A eta + omega /\\ xi, -(Phi eta + d_A xi)),

the expansion of d_A - theta Phi.  The square of D vanishes exactly when
the connection is symplectically flat.

The comparison maps with the primitive complex extract Lefschetz data:

* ``map_f`` keeps the primitive top of eta below the middle and combines
  the two deepest components above it;
* ``map_g`` sends a plus element b to (b, -del_minus_A b) and a minus
  element of degree k to (0, -omega^(n-k) /\\ b);
* ``homotopy_G`` is (eta, xi) -> (xi, L^{-1} eta), the degree -1 homotopy
  with  id - gf - Phi = DG + GD.

Gradings above n force the eta slot to be divisible by omega^(n-k+1) and
the xi slot by omega^(n-k), k = 2n+1-j.  `cone_split` returns the
``{r: beta}`` components of both slots, as ``decompose`` gives them, and
re-derives and checks that shape on every call, since the uniqueness of the
decomposition makes a violation an internal error, never data.

`check_chain_identities` draws seeded random elements for the five
identities the comparison maps satisfy and returns one
`sampling.TrialReport` per identity, each with its first failing draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .connection import Connection, analyze_flatness, covariant_d
from .errors import InternalInvariantError
from .forms import VectorForm, omega, wedge
from .lefschetz import L_power, decompose, pi_p
from .ainfinity import (Element, MINUS, PLUS, ZERO, _ZeroElement, _element, add_elements,
                        scale_element)
from .sampling import TrialReport, rand_cone_element, rand_element_at_grading, run_trials
from .twist import twisted_m1


@dataclass(frozen=True)
class ConeElement:
    """eta + theta xi at grading j: eta a j-form, xi a (j-1)-form."""

    grading: int
    eta: VectorForm
    xi: VectorForm

    def __post_init__(self):
        n = self.eta.n
        if type(self.grading) is not int:
            raise ValueError(f"cone grading {self.grading!r} is not an int")
        if not 0 <= self.grading <= 2 * n + 1 and not self.is_zero:
            # zero elements may carry an out-of-range label transiently
            # (images of the end maps of the complex)
            raise ValueError(f"cone grading {self.grading} out of 0..{2*n+1}")
        if self.eta.rank != self.xi.rank:
            raise ValueError("slot rank mismatch")
        if not self.eta.is_zero and self.eta.degree != self.grading:
            raise ValueError("eta degree does not match grading")
        if not self.xi.is_zero and self.xi.degree != self.grading - 1:
            raise ValueError("xi degree does not match grading - 1")

    @property
    def n(self) -> int:
        return self.eta.n

    @property
    def rank(self) -> int:
        return self.eta.rank

    @property
    def is_zero(self) -> bool:
        return self.eta.is_zero and self.xi.is_zero

    @classmethod
    def zero(cls, n: int, rank: int, grading: int) -> "ConeElement":
        return cls(grading, VectorForm.zero(n, grading, rank),
                   VectorForm.zero(n, grading - 1, rank))

    def __add__(self, other: "ConeElement") -> "ConeElement":
        if self.grading != other.grading:
            raise ValueError("cone grading mismatch")
        return ConeElement(self.grading, self.eta + other.eta, self.xi + other.xi)

    def __sub__(self, other: "ConeElement") -> "ConeElement":
        if self.grading != other.grading:
            raise ValueError("cone grading mismatch")
        return ConeElement(self.grading, self.eta - other.eta, self.xi - other.xi)

    def __neg__(self) -> "ConeElement":
        return ConeElement(self.grading, -self.eta, -self.xi)


def cone_d(conn: Connection, a: ConeElement) -> ConeElement:
    """The cone differential; nilpotent iff the connection is flat."""
    if a.rank != conn.rank or a.n != conn.n:
        raise ValueError("element does not match the connection")
    phi = analyze_flatness(conn).Phi
    eta_out = covariant_d(conn, a.eta) + wedge(omega(conn.n), a.xi)
    xi_out = -(wedge(phi, a.eta) + covariant_d(conn, a.xi))
    return ConeElement(a.grading + 1, eta_out, xi_out)


def phi_apply(conn: Connection, a: ConeElement) -> ConeElement:
    phi = analyze_flatness(conn).Phi
    return ConeElement(a.grading, wedge(phi, a.eta), wedge(phi, a.xi))


def cone_split(a: ConeElement) -> tuple[dict[int, VectorForm], dict[int, VectorForm]]:
    """``(eta_components, xi_components)``: both slots Lefschetz-split as
    ``{r: beta}`` by ``decompose``, checking the mandatory shape above the
    middle.

    For grading j > n with k = 2n+1-j, the eta slot must carry only
    components with at least n-k+1 powers of omega and the xi slot at least
    n-k; the decomposition's uniqueness makes anything else impossible for
    a genuine form, so a violation raises.
    """
    n = a.n
    eta_comps, xi_comps = decompose(a.eta), decompose(a.xi)
    if a.grading > n:
        k = 2 * n + 1 - a.grading
        for slot, comps, least in (("eta", eta_comps, n - k + 1), ("xi", xi_comps, n - k)):
            for r in comps:
                if r < least:
                    raise InternalInvariantError(
                        f"cone grading {a.grading}: {slot} slot above the middle has a "
                        f"component omega^{r}, needs omega^{least} or higher")
    return eta_comps, xi_comps


def map_f(conn: Connection, a: ConeElement) -> Element:
    """Chain map from the cone to the primitive complex."""
    n = a.n
    if a.is_zero:
        return ZERO
    eta_comps, xi_comps = cone_split(a)
    if a.grading <= n:
        beta = eta_comps.get(0)
        return ZERO if beta is None else _element(PLUS, a.grading, beta)
    k = 2 * n + 1 - a.grading
    beta_k = xi_comps.get(n - k, VectorForm.zero(n, k, a.rank))
    beta_km1 = eta_comps.get(n - k + 1, VectorForm.zero(n, k - 1, a.rank))
    return _element(MINUS, k, -(beta_k + pi_p(0, covariant_d(conn, beta_km1))))


def map_g(conn: Connection, b: Element) -> Optional[ConeElement]:
    """Chain map from the primitive complex into the cone (None for the zero)."""
    if isinstance(b, _ZeroElement):
        return None
    if not isinstance(b.payload, VectorForm):
        raise TypeError("map_g wants vector-fiber elements")
    n, rank = b.n, b.payload.rank
    if b.side == PLUS:
        xi = -L_power(-1, covariant_d(conn, b.payload))
        return ConeElement(b.s, b.payload, xi)
    k = b.s
    xi = -L_power(n - k, b.payload)
    grading = 2 * n + 1 - k
    return ConeElement(grading, VectorForm.zero(n, grading, rank), xi)


def homotopy_G(a: ConeElement) -> ConeElement:
    """(eta, xi) -> (xi, L^{-1} eta); lowers the grading by one."""
    return ConeElement(a.grading - 1, a.xi, L_power(-1, a.eta))


# ---------- identity checks ----------

def _as_cone(conn: Connection, value: Element, grading: int, rank: int,
             n: int) -> ConeElement:
    cone = map_g(conn, value)
    if cone is None:
        return ConeElement.zero(n, rank, grading)
    return cone


def residual_f_chain(conn: Connection, a: ConeElement) -> Element:
    """f(D a) - m1'(f(a)); zero for every element when f is a chain map."""
    lhs = map_f(conn, cone_d(conn, a))
    rhs = twisted_m1(conn, map_f(conn, a), verify=False)
    return add_elements(lhs, scale_element(-1, rhs))


def residual_g_chain(conn: Connection, b: Element) -> Optional[ConeElement]:
    """g(m1' b) - D(g b); zero for every element when g is a chain map."""
    if isinstance(b, _ZeroElement):
        return None
    n, rank = b.n, b.payload.rank
    lhs = _as_cone(conn, twisted_m1(conn, b, verify=False), b.grading + 1, rank, n)
    rhs = cone_d(conn, map_g(conn, b))
    return lhs - rhs


def residual_fg_identity(conn: Connection, b: Element) -> Element:
    """f(g(b)) - b; the left-inverse law."""
    if isinstance(b, _ZeroElement):
        return ZERO
    lhs = map_f(conn, map_g(conn, b))
    return add_elements(lhs, scale_element(-1, b))


def residual_homotopy(conn: Connection, a: ConeElement) -> ConeElement:
    """(id - gf - Phi)(a) - (DG + GD)(a)."""
    gf = _as_cone(conn, map_f(conn, a), a.grading, a.rank, a.n)
    lhs = a - gf - phi_apply(conn, a)
    rhs = cone_d(conn, homotopy_G(a)) + homotopy_G(cone_d(conn, a))
    return lhs - rhs


def residual_phi_exactness(conn: Connection, closed: ConeElement) -> ConeElement:
    """D(-xi, 0) - Phi(closed) for a D-closed element: its explicit exactness."""
    witness = ConeElement(closed.grading - 1, -closed.xi,
                          VectorForm.zero(closed.n, closed.grading - 2, closed.rank))
    return cone_d(conn, witness) - phi_apply(conn, closed)


def check_chain_identities(conn: Connection, trials: int = 100, seed: int = 0,
                           max_degree: int = 2) -> list[TrialReport]:
    """Randomized exact check of the five comparison identities, one
    `TrialReport` each, in the order f_chain_map, g_chain_map, fg_identity,
    homotopy, phi_exactness.

    Requires a symplectically flat connection (the identities quantify over
    a genuine complex).  Gradings are swept uniformly, so the boundary
    cases j = n and j = n+1 always occur for trials >= a few dozen.
    """
    if not analyze_flatness(conn).is_symplectically_flat:
        raise ValueError("chain identities need a symplectically flat connection")
    rng = random.Random(seed)
    n, rank = conn.n, conn.rank

    def cone_sampler():
        grading = rng.randint(0, 2 * n + 1)
        return rand_cone_element(rng, conn, grading, max_degree)

    def prim_sampler():
        grading = rng.randint(0, 2 * n + 1)
        return rand_element_at_grading(rng, n, grading, "vector", rank, max_degree)

    def closed_sampler():
        grading = rng.randint(0, 2 * n)
        return cone_d(conn, rand_cone_element(rng, conn, grading, max_degree))

    return [
        run_trials("f_chain_map", trials, cone_sampler, lambda a: residual_f_chain(conn, a)),
        run_trials("g_chain_map", trials, prim_sampler, lambda b: residual_g_chain(conn, b)),
        run_trials("fg_identity", trials, prim_sampler, lambda b: residual_fg_identity(conn, b)),
        run_trials("homotopy", trials, cone_sampler, lambda a: residual_homotopy(conn, a)),
        run_trials("phi_exactness", trials, closed_sampler,
                   lambda a: residual_phi_exactness(conn, a)),
    ]
