"""Exact cohomology of the twisted complexes on truncated coefficient spaces.

The chart is modeled with polynomial coefficients of bounded total degree.
A truncated space enumerates the exact basis

    (monomial of degree <= D) x (constant fiber form) x (fiber unit vector)

where the constant fiber forms are a basis of each slot's fiber: the
primitive fiber basis in the one slot of a primitive position, the unit
forms dx_I in each of the two slots of a cone position, eta (0) and xi (1).
Vectors over these bases are sparse dicts keyed by int codes of the basis
keys, which hash and compare in one step.  A space carries the base of its
codes, so vectors compose only between spaces at one base: one report,
witness search or closedness check builds all its spaces at one base,
1 + the largest source degree + the largest ``connection_growth``, which no
exponent of a key or of its image reaches.  At that base, vectors from
different truncations of one position compose directly and operator
images are always exact: no image is ever truncated.

A key is a slot, a monomial, a fiber form f and a unit u.  A monomial's
code m is its exponents as base digits, x_0 leading; a key's code is
((slot*base^2n + m)*F + f)*R + u, f the form's place in its slot's basis,
with F the largest slot fiber and R the rank (one slot, 0, at a primitive
position).  Every digit stays below its radix, so codes sort exactly as
their (slot, monomial, f, u) tuples.  Multiplying by a monomial adds its
code times the stride F*R, and lowering x_c subtracts base^(2n-1-c) times
it.  ``basis_keys`` lists codes in feed order, which is not code order: the
kernel basis and every witness depend on the feed order (see ``linalg``),
the pivots on the code order.

Dimensions are computed as

    dim ker(differential restricted to degree <= D)
      minus  dim( image(differential from degree <= D + s)  intersect  ker )

for each stabilization margin s.  The margin exists because the twisted
differential mixes coefficient degrees (d lowers by one, the potential
raises by its own degree); in the constant frame the underlying
constructions bound witness growth by two degrees, so small margins
stabilize.  Agreement across consecutive margins is reported, never
assumed; failure to stabilize is a flagged condition, and it means the
margins are too small, not that the method fails.  A densely gauged n=1
rank-4 connection with Phi0 = diag(1,0,2,0) and coefficient growth
[4, 8, 4, 4] leaves P0- at {2: 1, 3: 0} with margins 2,3 at D=2, and
stabilizes everywhere to [2, 2, 0, 0], the cone's answer, with margins 4,5.

Columns are assembled from constant fiber tables, never from symbolic
elements.  Every differential here is a constant fiber map composed with a
polynomial shift (d) or multiply (A, Phi): on mono (x) b (x) e_u, d gives
sum_c d_c(mono) (x) T_c b (x) e_u and A gives sum_{c,v} (A_c)_vu mono (x)
T_c b (x) e_v, where T_c is the primitive part of dx_c /\\ . below the
middle and its L^{-1} part above it (``fiber_d_table``, cached per
(n, s, r) in lefschetz).  The middle map is two such passes plus Phi; the
cone differential is one pass with T_c = dx_c /\\ . on form indices, plus
the omega /\\ . and Phi blocks; its sign tables for dx_c /\\ . and
omega /\\ . come from the one constant wedge ``forms.wedge_terms``, cached
per (n, degree) in ``_sign_tables``.
``twisted_m1`` and ``cone_d`` remain the symbolic definitions; the test
suite checks every table column against them, and ``exactness_witness``
re-checks its answer with them.

Columns are int dicts over codes, so assembly does no ``Fraction``
arithmetic.  Each fiber table is scaled once by the lcm of its own
denominators, and A and Phi together, once per column function, by one
connection scale, the lcm of all their coefficient denominators.  A
covariant pass multiplies its d part by it to match its A part, and the
middle map multiplies Phi by the scales of its two passes, less one.  So
every column of one position is one positive int ``scale`` times the true
column, and ``_differential_columns`` returns the two together.  A uniform
scale changes nothing that elimination reports (the span, which columns
are independent of the earlier ones, each kernel relation normalized to
``k[tag] = 1``); only a preimage solve comes out divided by it, so
``exactness_witness`` multiplies its answer back before the re-check.

Each differential column is built and eliminated at most once per report.
The sweep of a position gives its kernel on V, the keys of degree <= D:
relations k_j with 1 on their own dependent key j and else only independent
keys (see ``linalg``); its rows span the image in the next position.  The
image lies in ker d (d^2 = 0), on which V's dependent coordinates are
one-to-one (k_j to e_j), so k_j survives margin s (is independent of the
image and the earlier k_i) iff j, in kernel order, leads no image vector
within V.  So one untracked echelon takes the image in kernel coordinates:
V's independent keys dropped (coordinates, never image), j renamed to its
place and other keys put above every place; places left without a pivot
survive.  It takes the rows, those within V first, then columns of degree
D+1, D+2, ... until every place is a pivot: by nesting, later margins read
0 (proved, not assumed) and build no column, nor does an empty kernel.

The coefficient model (polynomials instead of smooth functions) is a
modeling choice of this workbench; the dimension answers match the smooth
statements in every configuration exercised by the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm
from operator import mul
from typing import Callable, Optional, Sequence, Union

from .connection import Connection, analyze_flatness, covariant_d
from .cone import ConeElement, cone_d
from .errors import InternalInvariantError
from .forms import (Form, LAMBDA_CHOICES, VectorForm, all_indices, omega_const, wedge,
                    wedge_terms)
from .lefschetz import (FiberTable, L_power, fiber_d_table, pi_p, primitive_fiber_basis,
                        primitive_fiber_coords)
from .linalg import Echelon, Vec, kernel_basis
from .scalars import Monomial, _accumulate, _check_count, monomials_up_to
from .ainfinity import (MINUS, PLUS, PrimElement, _position, add_elements, grading_position,
                        m1, m2, scale_element)
from .sampling import TrialReport, run_trials
from .twist import twisted_m1

# the most basis keys one position may have at degree <= D + max(margins):
# elimination time grows with it (175,175 keys, the n = 3 cone at D = 6 with
# A = 0, took 2.4 s for the whole command on a 2-core VM)
MAX_BASIS = 250_000


def _check_kind(kind: str) -> None:
    if kind not in ("prim", "cone"):
        raise ValueError(f"complex kind must be 'prim' or 'cone', got {kind!r}")


def position_label(kind: str, n: int, grading: int) -> str:
    if kind == "cone":
        return f"C{grading}"
    side, s = grading_position(n, grading)
    return f"P{s}{side}"


@dataclass(frozen=True)
class TruncatedSpace:
    """Finite exact model of one position of a twisted complex, its basis
    keys coded at ``base`` as the module docstring says."""

    kind: str  # "prim" | "cone"
    n: int
    rank: int
    grading: int
    base: int

    def __post_init__(self):
        _check_kind(self.kind)
        # the code layout of the module docstring, derived once: the digit
        # ``weights`` of a monomial code, the constant ``fibers`` bases, one
        # per slot, the ``stride`` of one unit of monomial code, and the
        # offset of a cone key's xi ``slot``, above every code of slot 0
        n, base, grading = self.n, self.base, self.grading
        if self.kind == "prim":
            # past the ends of the complex (a column's target there) it is empty
            fibers = [primitive_fiber_basis(n, _position(n, grading)[1])]
        else:
            fibers = [[{idx: 1} for idx in all_indices(n, g)] for g in (grading, grading - 1)]
        stride = self.rank * max(map(len, fibers))
        for name, value in (("weights", [base ** (2 * n - 1 - c) for c in range(2 * n)]),
                            ("fibers", fibers), ("stride", stride),
                            ("slot", base ** (2 * n) * stride)):
            object.__setattr__(self, name, value)  # derived, not fields

    @property
    def label(self) -> str:
        return position_label(self.kind, self.n, self.grading)

    def mono(self, mono: Monomial) -> int:
        """The code m of a monomial: its exponents as digits, x_0 leading."""
        if max(mono) >= self.base:
            raise InternalInvariantError(
                f"exponent {max(mono)} of {mono} does not fit code base {self.base}")
        return sum(map(mul, mono, self.weights))

    def split(self, code: int) -> tuple[int, int, int, int]:
        """``(slot, m, f, u)`` of a code: slot 0 at a prim position."""
        slot, code = divmod(code, self.slot)
        m, code = divmod(code, self.stride)
        return (slot, m, *divmod(code, self.rank))

    def fiber_dimension(self) -> int:
        return sum(map(len, self.fibers))

    def dimension(self, D: int) -> int:
        # C(2n + D, 2n) monomials of degree <= D, counted without listing them
        return comb(2 * self.n + D, 2 * self.n) * self.fiber_dimension() * self.rank

    def basis_keys(self, D: int, above: int = -1) -> list[int]:
        """Codes of the basis keys with coefficient degree in (above, D], in
        feed order, which is not code order: by monomial (by degree, then
        lexicographic), fiber form, unit at a prim position; by slot, form
        index, monomial, unit at a cone one."""
        monos = [self.mono(m) * self.stride for m in monomials_up_to(self.n, D) if sum(m) > above]
        if self.kind == "prim":
            return [m + fu for m in monos for fu in range(self.stride)]  # fu = f * rank + u
        units = range(self.rank)
        return [slot * self.slot + f * self.rank + m + u
                for slot, fiber in enumerate(self.fibers)
                for f in range(len(fiber)) for m in monos for u in units]

    # ---------- elements <-> coordinates ----------

    def element_from_key(self, key: int) -> Union[PrimElement, ConeElement]:
        # the basis element of one key; the symbolic test oracle starts here
        return self.element_from_coords({key: Fraction(1)})

    def element_from_coords(self, coords: Vec) -> Union[PrimElement, ConeElement]:
        n, rank, base, weights = self.n, self.rank, self.base, self.weights
        slots = [[dict() for _ in range(rank)] for _ in self.fibers]
        for code, coeff in coords.items():
            slot, m, f, u = self.split(code)
            mono = tuple(m // w % base for w in weights)
            for idx, fiber_coeff in self.fibers[slot][f].items():
                acc = slots[slot][u].setdefault(idx, {})
                acc[mono] = acc.get(mono, Fraction(0)) + coeff * fiber_coeff
        if self.kind == "prim":
            # a combination of primitive basis forms is primitive
            s = _position(n, self.grading)[1]
            return PrimElement._at(self.grading, VectorForm(
                [Form._from_rationals(n, s, e) for e in slots[0]], s))
        eta = [Form._from_rationals(n, self.grading, e) for e in slots[0]]
        xi = [Form._from_rationals(n, self.grading - 1, e) for e in slots[1]]
        return ConeElement(self.grading, VectorForm(eta, self.grading),
                           VectorForm(xi, self.grading - 1))

    def coords_of(self, element: Union[PrimElement, ConeElement]) -> Vec:
        """The coordinates of an element of this position, over codes; an
        element of the other complex, of another n or rank, or at another
        position raises ValueError, a zero one too."""
        cone = self.kind == "cone"
        if not isinstance(element, ConeElement if cone else PrimElement):
            raise ValueError(f"a {type(element).__name__} is not an element of the "
                             f"{self.kind} complex")
        if element.n != self.n:
            raise ValueError(f"element has n = {element.n}, the complex n = {self.n}")
        vectors = (element.eta, element.xi) if cone else (element.payload,)
        rank = vectors[0].rank if all(isinstance(v, VectorForm) for v in vectors) else None
        if rank != self.rank:
            raise ValueError(f"element has vector rank {rank}, the complex rank {self.rank}")
        if element.grading != self.grading:
            raise ValueError(f"element is not at {self.label}")
        out: Vec = {}
        for slot, (vector, fiber) in enumerate(zip(vectors, self.fibers)):
            # the constant form of each (unit, monomial), read in fiber coordinates
            consts: dict[tuple[int, Monomial], dict] = {}
            for (u, idx), monos in vector.num.items():
                for mono, k in monos.items():
                    consts.setdefault((u, mono), {})[idx] = k
            if cone:
                place = {idx: f for f, (idx,) in enumerate(fiber)}  # unit forms {idx: 1}
            for (u, mono), const in consts.items():
                at = slot * self.slot + self.mono(mono) * self.stride + u
                coords = ({place[idx]: k for idx, k in const.items()} if cone
                          else primitive_fiber_coords(self.n, vector.degree, const))
                for f, k in coords.items():
                    if k:
                        out[at + f * rank] = Fraction(k, vector.den)
        return out


def _space(conn: Connection, kind: str, grading: int, base: int) -> TruncatedSpace:
    return TruncatedSpace(kind, conn.n, conn.rank, grading, base)


def _base(conn: Connection, kind: str, degree: int) -> int:
    """A code base above every exponent of keys of degree <= ``degree`` and of their images."""
    return 1 + degree + max(connection_growth(conn, kind, g) for g in range(2 * conn.n + 2))


Column = Callable[[int], dict]


def _nonzero(out: dict) -> dict:
    return {key: x for key, x in out.items() if x}


def _connection_terms(conn: Connection, space: TruncatedSpace) -> tuple[list, list, int]:
    """A and Phi flattened by source fiber u, over ints at one scale.

    ``a_terms[u]`` lists ``(c, v, m, scale * coeff)``: the dx_c
    coefficient of A[v][u] term by term, m its monomial's ``space.mono``;
    ``phi_terms[u]`` lists ``(v, m, scale * coeff)`` of Phi[v][u].
    ``scale`` is the lcm of the denominators of all coefficients of A and Phi.
    """
    A, phi, r = conn.A, analyze_flatness(conn).Phi, conn.rank
    scale = lcm(A.den, phi.den)
    a_terms, phi_terms = [[] for _ in range(r)], [[] for _ in range(r)]
    # by slot, so each u lists its terms by v and then in each entry's order
    for (slot, (c,)), monos in sorted(A.num.items(), key=lambda item: item[0][0]):
        v, u = divmod(slot, r)
        a_terms[u] += [(c, v, space.mono(mono), k * (scale // A.den)) for mono, k in monos.items()]
    for (slot, _), monos in sorted(phi.num.items(), key=lambda item: item[0][0]):
        v, u = divmod(slot, r)
        phi_terms[u] += [(v, space.mono(mono), k * (scale // phi.den))
                         for mono, k in monos.items()]
    return a_terms, phi_terms, scale


def _covariant_pass(table: FiberTable, a_terms: list, scale: int, target: TruncatedSpace,
                    offset: int = 0) -> Callable:
    """``apply(m, f, u, coeff, out)``: out += coeff * scale * T(d_A(mono (x)
    f (x) e_u)), m the code of mono, in ``target`` codes plus ``offset``, for
    an int fiber table T of dx_c /\\ . (A terms at ``scale``, see
    ``_connection_terms``).

    d contributes sum_c d_c(mono) (x) T_c f (x) e_u, multiplied by scale
    so that it shares the scale of the A part, and A contributes
    sum_{c,v} (A_c)_vu mono (x) T_c f (x) e_v: lowering x_c subtracts its
    digit weight from m, multiplying by a monomial adds its code.
    """
    rank, stride, base = target.rank, target.stride, target.base
    rows = [[tuple((g * rank, t) for g, t in pairs) for pairs in row] for row in table]
    lowers = [(row, w, w * stride) for row, w in zip(rows, target.weights)]
    shifts = [[(rows[c], m * stride + v, k) for c, v, m, k in terms] for terms in a_terms]

    def apply(m: int, f: int, u: int, coeff: int, out: dict) -> None:
        start = m * stride + offset
        for row, w, drop in lowers:
            e = m // w % base
            if e:
                at = start - drop + u
                mult = coeff * e * scale
                for g, t in row[f]:
                    key = at + g
                    out[key] = out.get(key, 0) + mult * t
        for row, shift, k in shifts[u]:
            pairs = row[f]
            if pairs:
                at = start + shift
                mult = coeff * k
                for g, t in pairs:
                    key = at + g
                    out[key] = out.get(key, 0) + mult * t
    return apply


def _prim_columns(conn: Connection, grading: int, base: int) -> tuple[Column, int]:
    n = conn.n
    side, s = grading_position(n, grading)
    source, target = (_space(conn, "prim", g, base) for g in (grading, grading + 1))
    a_terms, phi_terms, scale = _connection_terms(conn, source)
    if side == MINUS or s < n:
        # -L^{-1} d_A above the middle, Pi d_A below it
        table, t_scale = fiber_d_table(n, s, 1 if side == MINUS else 0)
        apply = _covariant_pass(table, a_terms, scale, target)
        sign = -1 if side == MINUS else 1

        def column(code: int) -> dict:
            out: dict = {}
            apply(*source.split(code)[1:], sign, out)
            return _nonzero(out)
        return column, t_scale * scale
    (lower, l_scale), (upper, u_scale) = fiber_d_table(n, n, 1), fiber_d_table(n, n - 1, 0)
    inner_space = _space(conn, "prim", n - 1, base)  # the inner pass ends on P^(n-1)
    lower_pass = _covariant_pass(lower, a_terms, scale, inner_space)
    upper_pass = _covariant_pass(upper, a_terms, scale, target)
    # the two passes carry l_scale * u_scale * scale^2, Phi only scale
    phi_mult = l_scale * u_scale * scale
    phi_shifts = [[(m * target.stride + v, phi_mult * k) for v, m, k in terms]
                  for terms in phi_terms]

    def middle(code: int) -> dict:
        # -del_plus_A del_minus_A + Phi
        _, m, fi, u = source.split(code)
        inner: dict = {}
        lower_pass(m, fi, u, 1, inner)
        out: dict = {}
        for icode, coeff in inner.items():
            if coeff:
                upper_pass(*inner_space.split(icode)[1:], -coeff, out)
        at = m * target.stride + fi * target.rank
        for shift, k in phi_shifts[u]:
            out[at + shift] = out.get(at + shift, 0) + k
        return _nonzero(out)
    return middle, phi_mult * scale


@cache
def _sign_tables(n: int, degree: int) -> tuple[FiberTable, list]:
    """dx_c /\\ dx_I for each c, and omega /\\ dx_I, as (rank of J, sign)
    pairs per rank of I, ranks in ``all_indices`` order."""
    def table(left: dict, shift: int) -> list:
        ranks = {idx: j for j, idx in enumerate(all_indices(n, degree + shift))}
        return [tuple((ranks[idx_j], sign) for idx_j, sign
                      in wedge_terms(left, {idx: 1}).items())
                for idx in all_indices(n, degree)]
    return [table({(c,): 1}, 1) for c in range(2 * n)], table(omega_const(n, 1), 2)


def _cone_columns(conn: Connection, grading: int, base: int) -> tuple[Column, int]:
    """D(eta, xi) = (d_A eta + omega /\\ xi, -(Phi eta + d_A xi)) key by key;
    the sign tables have scale 1, so every part carries the connection's."""
    source, target = (_space(conn, "cone", g, base) for g in (grading, grading + 1))
    a_terms, phi_terms, scale = _connection_terms(conn, source)
    eta_pass = _covariant_pass(_sign_tables(conn.n, grading)[0], a_terms, scale, target)
    d_xi, omega_xi = _sign_tables(conn.n, grading - 1)
    xi_pass = _covariant_pass(d_xi, a_terms, scale, target, target.slot)
    rank, stride = target.rank, target.stride
    phi_shifts = [[(target.slot + m * stride + v, k) for v, m, k in terms]
                  for terms in phi_terms]

    def column(code: int) -> dict:
        slot, m, i, u = source.split(code)
        out: dict = {}
        if slot == 0:
            eta_pass(m, i, u, 1, out)
            at = m * stride + i * rank  # idx keeps its rank in the xi slot
            for shift, k in phi_shifts[u]:
                out[at + shift] = out.get(at + shift, 0) - k
        else:
            at = m * stride + u
            for j, sign in omega_xi[i]:
                out[at + j * rank] = sign * scale  # distinct j for distinct i
            xi_pass(m, i, u, -1, out)
        return _nonzero(out)
    return column, scale


def _differential_columns(conn: Connection, kind: str, grading: int,
                          base: int) -> tuple[Column, int]:
    """``(column, scale)``: the column of the twisted differential at a
    position, code by code at ``base``, from the fiber tables, as an int
    dict over the next position's codes equal to ``scale`` times the true
    column (see the module docstring).  A broken fiber table raises
    `InternalInvariantError` naming the position."""
    try:
        return (_prim_columns if kind == "prim" else _cone_columns)(conn, grading, base)
    except InternalInvariantError as exc:
        raise InternalInvariantError(
            f"{position_label(kind, conn.n, grading)}: {exc}") from exc


def _kernel_sweep(conn: Connection, kind: str, space: TruncatedSpace,
                  keys: list[int]) -> tuple[list[Vec], Echelon, int]:
    """Kernel of the differential on the span of ``keys``, the tracked echelon
    of their columns, and their scale, all over codes at the space's base.

    This is the one place where differential columns are eliminated with
    tracking; kernels, images and preimages all come from its echelon.
    The kernel and the span do not depend on the scale; a preimage solved
    in the echelon is the true one divided by it.  At the top of the
    complex the tables give zero columns: every key is a kernel vector.
    """
    column, scale = _differential_columns(conn, kind, space.grading, space.base)
    return (*kernel_basis((code, column(code)) for code in keys), scale)


def _check_size(spaces: Sequence[TruncatedSpace], degree: int, what: str) -> None:
    """Refuse a position with more than ``MAX_BASIS`` keys of degree <= ``degree``."""
    size = max(space.dimension(degree) for space in spaces)
    if size > MAX_BASIS:
        raise ValueError(f"{what} needs {size} basis keys at one position, more than "
                         f"MAX_BASIS = {MAX_BASIS}")


def connection_growth(conn: Connection, kind: str, grading: int) -> int:
    """Max coefficient-degree increase of the differential at a position.

    One covariant-derivative pass adds at most the coefficient degree of A;
    the middle map of the primitive complex applies two passes and adds the
    Phi term, and the cone differential adds Phi alongside one pass.
    """
    report = analyze_flatness(conn)
    ga = conn.A.coefficient_degree() or 0
    gphi = report.Phi.coefficient_degree() or 0
    if kind == "prim":
        if grading == conn.n:
            return max(2 * ga, gphi)
        return ga
    return max(ga, gphi)


# ---------- cohomology dimension reports ----------

@dataclass
class PositionReport:
    label: str
    grading: int
    kernel_dim: int
    dims_by_margin: dict[int, int]
    stabilized: bool
    dim: Optional[int]
    witnesses: list


@dataclass
class CohomologyReport:
    kind: str
    D: int
    margins: tuple[int, ...]
    positions: list[PositionReport]

    def dims(self) -> dict[str, Optional[int]]:
        return {p.label: p.dim for p in self.positions}

    def dim_vector(self) -> list[Optional[int]]:
        return [p.dim for p in self.positions]

    @property
    def all_stabilized(self) -> bool:
        return all(p.stabilized for p in self.positions)


def cohomology_dims(conn: Connection, kind: str = "prim", D: int = 5,
                    stab_margins: Sequence[int] = (2, 3)) -> CohomologyReport:
    """Dimensions and witnesses of the twisted cohomology at truncation D.

    For each position the kernel is exact (images are never truncated);
    exactness is tested against images from the margin-enlarged source
    truncations, and the per-margin dimensions must agree to count as
    stabilized; the image grows one degree at a time while a kernel vector
    survives, and later margins read 0 (see the module docstring).
    ``kind`` is "prim" or "cone"; any other raises ValueError,
    as does a position with more than ``MAX_BASIS`` keys at degree
    <= D + max(margins), before any column is built.
    """
    _check_kind(kind)
    if not analyze_flatness(conn).is_symplectically_flat:
        raise ValueError("cohomology of the twisted complex needs a flat connection")
    _check_count("D", D, "truncation")
    given = list(stab_margins)
    for s in given:
        _check_count("each of stab_margins", s, "stabilization margins")
    margins = tuple(sorted(set(given)))
    if len(margins) < 2:
        raise ValueError(f"need at least two distinct stabilization margins, got {given}")
    n = conn.n
    base = _base(conn, kind, D + margins[-1])
    _check_size([_space(conn, kind, g, base) for g in range(2 * n + 2)], D + margins[-1],
                f"truncation {D} with margin {margins[-1]}")
    reports = []
    image: Optional[list] = None  # stored rows spanning the image of degree <= D from below
    for grading in range(0, 2 * n + 2):
        space = _space(conn, kind, grading, base)
        keys = space.basis_keys(D)
        kernel, sweep, _ = _kernel_sweep(conn, kind, space, keys)
        # drop the combinations before the image from below is eliminated
        next_image = sweep.rows()
        del sweep
        dims_by_margin = dict.fromkeys(margins, len(kernel))
        survivors = kernel
        if image is not None and kernel:
            column, _ = _differential_columns(conn, kind, grading - 1, base)
            # kernel coordinates (module docstring): kernel vector j's own key is j
            top = len(kernel)
            index = dict.fromkeys(keys)
            index.update((next(iter(vec)), j) for j, vec in enumerate(kernel))
            projected, dead = Echelon(), set()
            for s in range(margins[-1] + 1):
                if len(dead) < top:
                    # margin 0 feeds the rows from below, those inside degree D first
                    vectors = (sorted(image, key=lambda row: not row.keys() <= index.keys())
                               if s == 0 else map(column, below.basis_keys(D + s, D + s - 1)))
                    for vec in vectors:
                        vec = {j: x for key, x in vec.items()
                               if (j := index.get(key, top + key)) is not None}
                        if projected.add(vec) is None and projected.last_pivot < top:
                            dead.add(projected.last_pivot)
                            if len(dead) == top:
                                break
                if s in dims_by_margin:
                    dims_by_margin[s] = top - len(dead)
            survivors = [vec for j, vec in enumerate(kernel) if j not in dead]
        image, below = next_image, space
        values = [dims_by_margin[s] for s in margins]
        # the estimates shrink as the margin grows; agreement of the last
        # two consecutive margins is the stabilization criterion
        stabilized = values[-1] == values[-2]
        dim = values[-1] if stabilized else None
        witnesses = [space.element_from_coords(vec) for vec in survivors]
        reports.append(PositionReport(space.label, grading, len(kernel),
                                      dims_by_margin, stabilized, dim, witnesses))
    return CohomologyReport(kind, D, margins, reports)


def exactness_witness(conn: Connection, kind: str,
                      element: Union[PrimElement, ConeElement],
                      D_search: Optional[int] = None):
    """Solve differential(xi) == element, or report (None) that none exists
    up to D_search.

    The default search bound is the element's coefficient degree plus two:
    in the constant frame the exactness constructions grow witnesses by at
    most two degrees.  A zero element, once checked against the complex,
    gets the zero witness one grading below it (at grading -1 for a zero
    at grading 0), with no column built.
    """
    _check_kind(kind)
    grading = element.grading
    parts = (element.eta, element.xi) if isinstance(element, ConeElement) else (element.payload,)
    elem_degree = max((d for d in (p.coefficient_degree() for p in parts) if d is not None),
                      default=0)
    if D_search is None:
        D_search = elem_degree + 2
    _check_count("D_search", D_search, "search truncation")
    base = _base(conn, kind, max(D_search, elem_degree))
    target = _space(conn, kind, grading, base)
    coords = target.coords_of(element)  # an element of another complex raises here
    below = _space(conn, kind, grading - 1, base)
    if not coords:
        return below.element_from_coords({})
    if grading == 0:
        return None
    _check_size([below], D_search, f"search truncation {D_search}")
    _, ech, scale = _kernel_sweep(conn, kind, below, below.basis_keys(D_search))
    combo = ech.solve(coords)
    if combo is None:
        return None
    # combo writes coords in columns that are scale times the true ones
    combo = {code: scale * x for code, x in combo.items()}
    witness = below.element_from_coords(combo)
    # the symbolic differential re-checks the table columns on the answer
    image = (twisted_m1(conn, witness, verify=False) if kind == "prim"
             else cone_d(conn, witness))
    if target.coords_of(image) != coords:
        raise InternalInvariantError(
            f"{below.label}: witness {combo!r} does not map onto the element")
    return witness


# ---------- closedness identities in the constant frame ----------

def _constant_frame_lambda(conn: Connection) -> Form:
    """The potential lambda with A == Phi lambda and constant Phi, or raise."""
    report = analyze_flatness(conn)
    phi = report.Phi
    if not phi.coefficient_degree():
        for lam_fn in LAMBDA_CHOICES.values():
            lam = lam_fn(conn.n)
            if wedge(phi, lam) == conn.A:
                return lam
    raise ValueError("connection is not in a constant frame A = Phi lambda")


def closedlem_check(conn: Connection, trials: int = 100, seed: int = 0,
                    D: int = 3) -> list[TrialReport]:
    """Check the three closedness identities on kernel-sampled elements,
    one `TrialReport` per position, named by its label (no draw where the
    kernel is 0).

    In the frame A = Phi lambda with constant Phi, for closed beta the
    combinations beta - lambda x (del_minus_A beta) (plus side) and
    beta + lambda x (del_plus_A beta) (minus side) are closed for the
    untwisted differential; the checks are exact on random kernel samples.
    """
    _check_count("trials", trials, "trials")
    _check_count("D", D, "truncation")
    lam = _constant_frame_lambda(conn)
    lam_elem = PrimElement._at(1, lam)  # every 1-form is primitive
    rng = random.Random(seed)
    n = conn.n
    base = _base(conn, "prim", D)
    _check_size([_space(conn, "prim", g, base) for g in range(2 * n + 2)], D, f"truncation {D}")
    reports = []
    for grading in range(0, 2 * n + 2):
        if grading == n + 1:
            continue  # closedness at P^n_- already makes the identity trivial
        space = _space(conn, "prim", grading, base)
        kernel = _kernel_sweep(conn, "prim", space, space.basis_keys(D))[0]
        count = min(trials, max(1, trials // (2 * n + 1))) if kernel else 0

        def sample() -> PrimElement:
            # a random combination of kernel vectors; zero when it cancels
            coords: Vec = {}
            for _pick in range(rng.randint(1, min(3, len(kernel)))):
                vec = rng.choice(kernel)
                coeff = rng.randint(-2, 2)
                if coeff:
                    _accumulate(coords, vec, coeff)
            return space.element_from_coords(coords)

        reports.append(run_trials(space.label, count, sample,
                                  lambda beta: _closed_identity_residual(conn, lam_elem, beta)))
    return reports


def _closed_identity_residual(conn: Connection, lam_elem: PrimElement,
                              beta: PrimElement) -> PrimElement:
    # the partner sits one grading below beta on either side
    if beta.side == PLUS:
        partner = PrimElement._at(beta.grading - 1, L_power(-1, covariant_d(conn, beta.payload)))
        combination = add_elements(beta, scale_element(-1, m2(lam_elem, partner)))
    else:
        partner = PrimElement._at(beta.grading - 1, pi_p(0, covariant_d(conn, beta.payload)))
        combination = add_elements(beta, m2(lam_elem, partner))
    return m1(combination)
