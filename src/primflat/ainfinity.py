"""The A-infinity algebra of primitive forms (an A_3 algebra: m_k = 0, k >= 4).

Elements live in the graded space

    F = { P^0_+, ..., P^n_+, P^n_-, ..., P^0_- }

where a plus-side element of primitive degree s has grading s and a
minus-side element grading 2n+1-s.  A `PrimElement` stores the side, the
primitive degree and a primitive payload that may be scalar, vector- or
matrix-valued; the grading is always derived, never stored.  The public
constructor checks that the payload is primitive; the maps below, whose
payloads are primitive by construction, build their results through the
trusted ``PrimElement._at``, which checks nothing.

Every element has a position, zero included: each map has a fixed degree
(|m_k| = 2 - k), so its result sits at Sigma + 2 - k for k inputs, and the
maps build every result at that grading, zero or not.  `_position` is the
one rule from a grading to (side, s), extended past the ends of the complex
(the image of P^0_- under m1 sits at (-, -1)), so a zero may carry a
position outside F, as a zero form may carry a degree outside the chart.
`add_elements` compares positions before anything else, zeros included.

The maps:

* m1 is the differential: Pi d on P^k_+ for k < n, -Pi d L^{-1} d on
  P^n_+, -L^{-1} d on P^k_-.  `_differential` is this table with d as an
  argument; `twist.twisted_m1` runs it with d_A and Phi.
* m2 is the graded-commutative product, in four cases by the sides of its
  inputs.  Case (+,+) has two terms that live in different degrees; the
  grading picks the one that can be nonzero (the other is checked to vanish
  rather than branched away).  Cases (+,-) and (-,+) are reflections
  through star_r and land on the minus side; (-,-) is zero.
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
from typing import Callable, Optional, Sequence

from .errors import InternalInvariantError
from .forms import AnyForm, Form, MatrixForm, VectorForm, exterior_d, wedge
from .lefschetz import L_power, is_primitive, pi_p, star_r
from .scalars import Scalar

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class PrimElement:
    """A primitive form placed in the graded space F."""

    side: str
    s: int
    payload: AnyForm

    def __post_init__(self):
        if self.side not in (PLUS, MINUS):
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")
        if not isinstance(self.payload, (Form, VectorForm, MatrixForm)):
            raise TypeError(f"payload {self.payload!r} is not a form")
        n = self.payload.n
        if type(self.s) is not int:
            raise ValueError(f"primitive degree {self.s!r} is not an int")
        if self.s > n or self.s < 0 and not self.payload.is_zero:
            # a zero element may sit below the complex (see _zero_at)
            raise ValueError(f"primitive degree {self.s} out of range for n={n}")
        if not self.payload.is_zero and self.payload.degree != self.s:
            raise ValueError("payload degree does not match primitive degree")
        if not is_primitive(self.payload):
            raise ValueError("payload is not primitive")

    @classmethod
    def _at(cls, grading: int, payload: AnyForm, zero: bool = False) -> "PrimElement":
        """Internal constructor: ``payload`` placed at ``grading`` by
        `_position` (with ``zero``, the zero of its shape there instead); it
        must already be a primitive form of the position's degree s <= n, or
        zero, since nothing is checked."""
        side, s = _position(payload.n, grading)
        element = object.__new__(cls)
        element.__dict__.update(  # past the frozen setattr
            side=side, s=s, payload=payload._new(s, {}, 1) if zero else payload)
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

    @property
    def label(self) -> str:
        return f"P{self.s}{self.side}"

    def __repr__(self) -> str:
        return f"PrimElement({self.label}, {self.payload!r})"


def _position(n: int, grading: int) -> tuple[str, int]:
    """(side, s) of a grading: (+, g) up to n, else (-, 2n+1-g), past the
    ends of the complex too."""
    return (PLUS, grading) if grading <= n else (MINUS, 2 * n + 1 - grading)


def grading_position(n: int, grading: int) -> Optional[tuple[str, int]]:
    """(side, s) of a grading in 0..2n+1, None outside the complex."""
    return _position(n, grading) if 0 <= grading <= 2 * n + 1 else None


def _zero_at(grading: int, *payloads: AnyForm) -> PrimElement:
    """The zero element at a grading; its payload is the zero of the shape
    the wedge of ``payloads`` has (the last fiber-valued one, else a scalar)."""
    shape = ([p for p in payloads if not isinstance(p, Form)] or payloads)[-1]
    return PrimElement._at(grading, shape, zero=True)


def add_elements(a: PrimElement, b: PrimElement) -> PrimElement:
    """a + b at their common position; a zero at another position raises."""
    if (a.side, a.s) != (b.side, b.s):
        raise ValueError(f"cannot add {a.label} to {b.label}")
    return PrimElement._at(a.grading, a.payload + b.payload)


def scale_element(value: Scalar, a: PrimElement) -> PrimElement:
    return a if a.is_zero else PrimElement._at(a.grading, a.payload.scaled(value))


def _differential(a: PrimElement, d: Callable[[AnyForm], AnyForm],
                  phi: Optional[AnyForm] = None) -> PrimElement:
    """The branch table of the differential with d as exterior derivative,
    by the grading ``at`` one above a's: Pi d below the middle, -Pi d L^{-1} d
    (plus phi /\\ b when phi is given) at the middle, -L^{-1} d above it,
    zero past P^0_-.  The payload is trusted primitive, so no operator
    re-checks it."""
    n, b, at = a.n, a.payload, a.grading + 1
    if b.is_zero or at > 2 * n + 1:
        return _zero_at(at, b)
    if at <= n:
        return PrimElement._at(at, pi_p(0, d(b)))
    if at == n + 1:
        value = pi_p(0, d(L_power(-1, d(b))))
        return PrimElement._at(at, -value if phi is None else wedge(phi, b) - value)
    return PrimElement._at(at, -L_power(-1, d(b)))


def m1(a: PrimElement) -> PrimElement:
    """The differential of the primitive complex; raises grading by one."""
    return _differential(a, exterior_d)


def m2(a: PrimElement, b: PrimElement) -> PrimElement:
    """The graded-commutative product, by the four side cases."""
    n = a.n
    if b.n != n:
        raise ValueError("chart dimension mismatch")
    pa, pb, at = a.payload, b.payload, a.grading + b.grading
    if pa.is_zero or pb.is_zero or a.side == b.side == MINUS:
        return _zero_at(at, pa, pb)
    if a.side == PLUS and b.side == PLUS:
        product = wedge(pa, pb)
        head = pi_p(0, product)
        bracket = wedge(L_power(-1, exterior_d(pa)), pb) - exterior_d(L_power(-1, product))
        last = wedge(pa, L_power(-1, exterior_d(pb)))
        bracket = bracket - last if a.s % 2 else bracket + last
        tail = pi_p(0, star_r(bracket))
        value, other = (head, tail) if at <= n else (tail, head)
        if not other.is_zero:
            raise InternalInvariantError(
                f"m2({_positions(a, b)}): product grew a term of the other degree")
    elif a.side == PLUS:
        value = star_r(wedge(pa, star_r(pb)))
        value = -value if a.s % 2 else value
    else:
        value = star_r(wedge(star_r(pa), pb))
    return _product_at(at, value, a, b)


def _product_at(grading: int, payload: AnyForm, *inputs: PrimElement) -> PrimElement:
    """The result of m_k on ``inputs`` at its grading, which may lie past the
    ends of the complex only when the payload is zero."""
    if not payload.is_zero and not 0 <= grading <= 2 * payload.n + 1:
        raise InternalInvariantError(f"m{len(inputs)}({_positions(*inputs)}): nonzero "
                                     f"product at impossible grading {grading}")
    return PrimElement._at(grading, payload)


def _positions(*elements: PrimElement) -> str:
    return ", ".join(e.label for e in elements)


def m3(a: PrimElement, b: PrimElement, c: PrimElement) -> PrimElement:
    """Associator correction; zero unless all plus-side with enough degree."""
    n = a.n
    if not b.n == c.n == n:
        raise ValueError("chart dimension mismatch")
    pa, pb, pc = a.payload, b.payload, c.payload
    at = a.grading + b.grading + c.grading - 1
    if (not a.side == b.side == c.side == PLUS or at < n + 1
            or pa.is_zero or pb.is_zero or pc.is_zero):
        return _zero_at(at, pa, pb, pc)
    inner = wedge(pa, L_power(-1, wedge(pb, pc))) - wedge(L_power(-1, wedge(pa, pb)), pc)
    return _product_at(at, pi_p(0, star_r(inner)), a, b, c)


def apply_m(k: int, args: Sequence[PrimElement]) -> PrimElement:
    if len(args) != k:
        raise ValueError(f"m_{k} wants {k} inputs, got {len(args)}")
    if k == 1:
        return m1(args[0])
    if k == 2:
        return m2(args[0], args[1])
    if k == 3:
        return m3(args[0], args[1], args[2])
    return _zero_at(sum(e.grading for e in args) + 2 - k, *(e.payload for e in args))


def check_stasheff(k: int, inputs: Sequence[PrimElement]) -> PrimElement:
    """Residual of the degree-k Stasheff identity; zero when it holds.

    Evaluates sum over r+s+t=k of (-1)^(r+st) m_{r+t+1} (1^r x m_s x 1^t)
    on the inputs, with the Koszul sign from moving the degree-(2-s)
    operator m_s past the first r elements.  Every term, and so the sum,
    sits at the sum of the input gradings plus 3 - k.
    """
    if not 1 <= k <= len(inputs):
        raise ValueError("need k inputs for the degree-k identity")
    inputs = list(inputs[:k])
    gradings = [e.grading for e in inputs]
    total = _zero_at(sum(gradings) + 3 - k, *(e.payload for e in inputs))
    for s in range(1, k + 1):
        for r in range(0, k - s + 1):
            t = k - s - r
            if r + t + 1 > 3 or s > 3:
                continue  # m_4 and beyond vanish
            inner = apply_m(s, inputs[r:r + s])
            if inner.is_zero:
                continue
            sign = -1 if (r + s * t) % 2 else 1
            if s % 2 and sum(gradings[:r]) % 2:
                sign = -sign
            term = apply_m(r + t + 1, inputs[:r] + [inner] + inputs[r + s:])
            if not term.is_zero:
                total = add_elements(total, scale_element(sign, term))
    return total
