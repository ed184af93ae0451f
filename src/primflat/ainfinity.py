"""The A-infinity algebra of primitive forms (an A_3 algebra: m_k = 0, k >= 4).

Elements live in the graded space

    F = { P^0_+, ..., P^n_+, P^n_-, ..., P^0_- }

where a plus-side element of primitive degree s has grading s and a
minus-side element grading 2n+1-s.  A `PrimElement` stores the side, the
primitive degree and a primitive payload that may be scalar, vector- or
matrix-valued; the grading is always derived, never stored.  The public
constructor checks that the payload is primitive; the maps below, whose
payloads are primitive by construction, build their results through the
trusted ``PrimElement._trusted`` (by way of ``_element``), which checks
nothing.

The maps:

* m1 is the differential: Pi d on P^k_+ for k < n, -Pi d L^{-1} d on
  P^n_+, -L^{-1} d on P^k_-.  `_differential` is this table with d as an
  argument; `twist.twisted_m1` runs it with d_A and Phi.
* m2 is the graded-commutative product, in four cases by the sides of its
  inputs.  Case (+,+) has two terms that live in different degrees; exactly
  one of them can be nonzero (the other is checked to vanish rather than
  branched away).  Cases (+,-) and (-,+) are reflections through star_r and
  land on the minus side; (-,-) is zero.
* m3 is the associator correction, nonzero only for three plus-side inputs
  of total degree >= n+2.

Fiber-valued inputs compose fibers in input order with no extra sign: the
Koszul signs come from the F-gradings alone, so the formulas below can be
evaluated directly on vector/matrix payloads through the fiber-aware wedge.

Sign conventions were pinned by requiring the k = 1..4 Stasheff identities
(with m4 = 0) to vanish on randomized inputs; the case formulas below are
the choices that survive that test.

The degree-k Stasheff identity is evaluated by `check_stasheff`, including
the Koszul sign (-1)^(|m_s| * sum of gradings passed over) that appears
when a tensor-slot operator is applied to elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import InternalInvariantError
from .forms import AnyForm, exterior_d, wedge
from .lefschetz import L_power, is_primitive, pi_p, star_r
from .scalars import Scalar

PLUS = "+"
MINUS = "-"


class _ZeroElement:
    """Absorbing zero of the graded space; has no side or degree."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _ZeroElement()

Element = Union["PrimElement", _ZeroElement]


@dataclass(frozen=True)
class PrimElement:
    """A primitive form placed in the graded space F."""

    side: str
    s: int
    payload: AnyForm

    def __post_init__(self):
        if self.side not in (PLUS, MINUS):
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")
        n = self.payload.n
        if not 0 <= self.s <= n:
            raise ValueError(f"primitive degree {self.s} out of range for n={n}")
        if not self.payload.is_zero and self.payload.degree != self.s:
            raise ValueError("payload degree does not match primitive degree")
        if not is_primitive(self.payload):
            raise ValueError("payload is not primitive")

    @classmethod
    def _trusted(cls, side: str, s: int, payload: AnyForm) -> "PrimElement":
        """Internal constructor: ``payload`` must already be a primitive form
        of degree s (or zero) on a chart with s <= n; nothing is checked."""
        element = object.__new__(cls)
        object.__setattr__(element, "side", side)
        object.__setattr__(element, "s", s)
        object.__setattr__(element, "payload", payload)
        return element

    @property
    def n(self) -> int:
        return self.payload.n

    @property
    def grading(self) -> int:
        return self.s if self.side == PLUS else 2 * self.n + 1 - self.s

    @property
    def is_zero(self) -> bool:
        return self.payload.is_zero

    def __repr__(self) -> str:
        return f"PrimElement(P{self.s}{self.side}, {self.payload!r})"


def grading_position(n: int, grading: int) -> Optional[tuple[str, int]]:
    """(side, s) of a grading in 0..2n+1, None outside the complex."""
    if 0 <= grading <= n:
        return (PLUS, grading)
    if n < grading <= 2 * n + 1:
        return (MINUS, 2 * n + 1 - grading)
    return None


def _element(side: str, s: int, payload: AnyForm) -> Element:
    """The element of a primitive payload built by the maps below, or ZERO;
    the payload is trusted, not re-checked."""
    if payload.is_zero:
        return ZERO
    return PrimElement._trusted(side, s, payload)


def add_elements(a: Element, b: Element) -> Element:
    if isinstance(a, _ZeroElement):
        return b
    if isinstance(b, _ZeroElement):
        return a
    if (a.side, a.s) != (b.side, b.s):
        raise ValueError(f"cannot add P{a.s}{a.side} to P{b.s}{b.side}")
    return _element(a.side, a.s, a.payload + b.payload)


def scale_element(value: Scalar, a: Element) -> Element:
    if isinstance(a, _ZeroElement) or not value:
        return ZERO
    return _element(a.side, a.s, a.payload.scaled(value))


def _differential(a: Element, d: Callable[[AnyForm], AnyForm],
                  phi: Optional[AnyForm] = None) -> Element:
    """The branch table of the differential with d as exterior derivative:
    Pi d below the middle, -Pi d L^{-1} d (plus phi /\\ b when phi is given)
    at the middle, -L^{-1} d above it, zero at P^0_-.  The payload is
    trusted primitive, so no operator re-checks it."""
    if isinstance(a, _ZeroElement):
        return ZERO
    n, b = a.n, a.payload
    if a.side == PLUS:
        if a.s < n:
            return _element(PLUS, a.s + 1, pi_p(0, d(b)))
        value = pi_p(0, d(L_power(-1, d(b))))
        return _element(MINUS, n, -value if phi is None else wedge(phi, b) - value)
    if a.s == 0:
        return ZERO
    return _element(MINUS, a.s - 1, -L_power(-1, d(b)))


def m1(a: Element) -> Element:
    """The differential of the primitive complex; raises grading by one."""
    return _differential(a, exterior_d)


def m2(a: Element, b: Element) -> Element:
    """The graded-commutative product, by the four side cases."""
    if isinstance(a, _ZeroElement) or isinstance(b, _ZeroElement):
        return ZERO
    n = a.n
    if a.n != b.n:
        raise ValueError("chart dimension mismatch")
    pa, pb = a.payload, b.payload
    if a.side == PLUS and b.side == PLUS:
        j, k = a.s, b.s
        product = wedge(pa, pb)
        head = pi_p(0, product)
        bracket = wedge(L_power(-1, exterior_d(pa)), pb) - exterior_d(L_power(-1, product))
        last = wedge(pa, L_power(-1, exterior_d(pb)))
        bracket = bracket - last if j % 2 else bracket + last
        tail = pi_p(0, star_r(bracket))
        if j + k <= n:
            if not tail.is_zero:
                raise InternalInvariantError(
                    f"m2({_positions(a, b)}): low-degree product grew a reflected term")
            return _element(PLUS, j + k, head)
        if not head.is_zero:
            raise InternalInvariantError(
                f"m2({_positions(a, b)}): high-degree product grew a primitive term")
        return _element(MINUS, 2 * n + 1 - (j + k), tail)
    if a.side == PLUS and b.side == MINUS:
        value = star_r(wedge(pa, star_r(pb)))
        if a.s % 2:
            value = -value
        if value.is_zero:
            return ZERO
        return _make_minus(a, b, b.s - a.s, value)
    if a.side == MINUS and b.side == PLUS:
        value = star_r(wedge(star_r(pa), pb))
        if value.is_zero:
            return ZERO
        return _make_minus(a, b, a.s - b.s, value)
    return ZERO


def _make_minus(a: PrimElement, b: PrimElement, s: int, payload: AnyForm) -> Element:
    if not 0 <= s <= a.n:
        raise InternalInvariantError(
            f"m2({_positions(a, b)}): nonzero product at impossible degree {s}")
    return _element(MINUS, s, payload)


def _positions(*elements: PrimElement) -> str:
    return ", ".join(f"P{e.s}{e.side}" for e in elements)


def m3(a: Element, b: Element, c: Element) -> Element:
    """Associator correction; zero unless all plus-side with enough degree."""
    if any(isinstance(e, _ZeroElement) for e in (a, b, c)):
        return ZERO
    n = a.n
    if not (a.side == b.side == c.side == PLUS):
        return ZERO
    total = a.s + b.s + c.s
    if total < n + 2:
        return ZERO
    pa, pb, pc = a.payload, b.payload, c.payload
    inner = wedge(pa, L_power(-1, wedge(pb, pc))) - wedge(L_power(-1, wedge(pa, pb)), pc)
    value = pi_p(0, star_r(inner))
    if value.is_zero:
        return ZERO
    s_out = 2 * n + 2 - total
    if not 0 <= s_out <= n:
        raise InternalInvariantError(
            f"m3({_positions(a, b, c)}): nonzero m3 at impossible degree {s_out}")
    return _element(MINUS, s_out, value)


def apply_m(k: int, args: Sequence[Element]) -> Element:
    if len(args) != k:
        raise ValueError(f"m_{k} wants {k} inputs, got {len(args)}")
    if k == 1:
        return m1(args[0])
    if k == 2:
        return m2(args[0], args[1])
    if k == 3:
        return m3(args[0], args[1], args[2])
    return ZERO


def check_stasheff(k: int, inputs: Sequence[Element]) -> Element:
    """Residual of the degree-k Stasheff identity; zero when it holds.

    Evaluates sum over r+s+t=k of (-1)^(r+st) m_{r+t+1} (1^r x m_s x 1^t)
    on the inputs, with the Koszul sign from moving the degree-(2-s)
    operator m_s past the first r elements.
    """
    if not 1 <= k <= len(inputs):
        raise ValueError("need k inputs for the degree-k identity")
    inputs = list(inputs[:k])
    if any(isinstance(e, _ZeroElement) for e in inputs):
        return ZERO
    total: Element = ZERO
    for s in range(1, k + 1):
        for r in range(0, k - s + 1):
            t = k - s - r
            if r + t + 1 > 3 or s > 3:
                continue  # m_4 and beyond vanish
            inner = apply_m(s, inputs[r:r + s])
            if isinstance(inner, _ZeroElement):
                continue
            sign = -1 if (r + s * t) % 2 else 1
            if s % 2:
                passed = sum(e.grading for e in inputs[:r])
                if passed % 2:
                    sign = -sign
            outer_args = inputs[:r] + [inner] + inputs[r + s:]
            term = apply_m(r + t + 1, outer_args)
            total = add_elements(total, scale_element(sign, term))
    return total
