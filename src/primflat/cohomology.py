"""Exact cohomology of the twisted complexes on truncated coefficient spaces.

The chart is modeled with polynomial coefficients of bounded total degree.
A truncated space enumerates the exact basis

    (monomial of degree <= D) x (constant fiber form) x (fiber unit vector)

where the constant fiber forms are the primitive fiber basis at a primitive
position and the full exterior basis of both slots at a cone position.
Vectors over these bases are sparse dicts keyed by self-describing tuples,
so vectors from different truncations of one position compose directly and
operator images are always exact: nothing is ever projected away.

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

Each differential column is built and eliminated once per report: the
sweep of one position gives its kernel at degree <= D, and its echelon,
untracked, is the image in the next position, extended by the margin
degrees only.

The coefficient model (polynomials instead of smooth functions) is a
modeling choice of this workbench; the dimension answers match the smooth
statements in every configuration exercised by the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .connection import Connection, analyze_flatness
from .cone import ConeElement, cone_d
from .errors import InternalInvariantError
from .forms import Form, LAMBDA_CHOICES, VectorForm, all_indices, wedge
from .lefschetz import primitive_fiber_basis, primitive_fiber_coords
from .linalg import Echelon, Vec, kernel_basis
from .scalars import Monomial, Poly, monomials_up_to
from .ainfinity import (Element, MINUS, PLUS, PrimElement, ZERO, _ZeroElement,
                        add_elements, grading_position, m1, m2, scale_element)
from .twist import twisted_m1

Position = Union[tuple[str, int], int]


def _grading_of_position(kind: str, n: int, position: Position) -> int:
    if kind == "prim":
        side, s = position
        pos = grading_position(n, s if side == PLUS else 2 * n + 1 - s)
        if pos != (side, s):
            raise ValueError(f"no position P{s}{side} for n={n}")
        return s if side == PLUS else 2 * n + 1 - s
    if kind == "cone":
        grading = int(position)
        if not 0 <= grading <= 2 * n + 1:
            raise ValueError(f"no cone grading {grading} for n={n}")
        return grading
    raise ValueError(f"unknown complex kind {kind!r}")


def position_label(kind: str, n: int, grading: int) -> str:
    if kind == "cone":
        return f"C{grading}"
    side, s = grading_position(n, grading)
    return f"P{s}{side}"


@dataclass(frozen=True)
class TruncatedSpace:
    """Finite exact model of one position of a twisted complex."""

    kind: str  # "prim" | "cone"
    n: int
    rank: int
    grading: int

    @property
    def label(self) -> str:
        return position_label(self.kind, self.n, self.grading)

    def fiber_dimension(self) -> int:
        if self.kind == "prim":
            _, s = grading_position(self.n, self.grading)
            return len(primitive_fiber_basis(self.n, s))
        eta = len(all_indices(self.n, self.grading))
        xi = len(all_indices(self.n, self.grading - 1))
        return eta + xi

    def dimension(self, D: int) -> int:
        return len(monomials_up_to(self.n, D)) * self.fiber_dimension() * self.rank

    def basis_keys(self, D: int, above: int = -1) -> list:
        """Basis keys with coefficient degree in (above, D], sorted."""
        monos = [m for m in monomials_up_to(self.n, D) if sum(m) > above]
        keys = []
        if self.kind == "prim":
            _, s = grading_position(self.n, self.grading)
            fiber = range(len(primitive_fiber_basis(self.n, s)))
            for mono in monos:
                for fi in fiber:
                    for u in range(self.rank):
                        keys.append((mono, fi, u))
            return keys
        for slot, degree in ((0, self.grading), (1, self.grading - 1)):
            for idx in all_indices(self.n, degree):
                for mono in monos:
                    for u in range(self.rank):
                        keys.append((slot, mono, idx, u))
        return keys

    # ---------- elements <-> coordinates ----------

    def element_from_key(self, key) -> Union[PrimElement, ConeElement]:
        return self.element_from_coords({key: Fraction(1)})

    def element_from_coords(self, coords: Vec) -> Union[PrimElement, ConeElement]:
        n, rank = self.n, self.rank
        if self.kind == "prim":
            side, s = grading_position(n, self.grading)
            basis = primitive_fiber_basis(n, s)
            entries = [dict() for _ in range(rank)]
            for (mono, fi, u), coeff in coords.items():
                for idx, base_coeff in basis[fi].items():
                    acc = entries[u].setdefault(idx, {})
                    acc[mono] = acc.get(mono, Fraction(0)) + coeff * base_coeff
            forms = [Form(n, s, {idx: Poly(n, monos) for idx, monos in entry.items()})
                     for entry in entries]
            return PrimElement(side, s, VectorForm(forms, s))
        slots = {0: [dict() for _ in range(rank)], 1: [dict() for _ in range(rank)]}
        for (slot, mono, idx, u), coeff in coords.items():
            acc = slots[slot][u].setdefault(idx, {})
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        def build(slot: int, degree: int) -> VectorForm:
            forms = [Form(n, degree, {idx: Poly(n, monos) for idx, monos in entry.items()})
                     for entry in slots[slot]]
            return VectorForm(forms, degree)
        return ConeElement(self.grading, build(0, self.grading),
                           build(1, self.grading - 1))

    def coords_of(self, element: Union[PrimElement, ConeElement, _ZeroElement]) -> Vec:
        if isinstance(element, _ZeroElement):
            return {}
        out: Vec = {}
        if self.kind == "prim":
            side, s = grading_position(self.n, self.grading)
            if (element.side, element.s) != (side, s):
                raise ValueError("element is not at this position")
            for u, form in enumerate(element.payload.entries):
                by_mono: dict[Monomial, dict] = {}
                for idx, poly in form.terms.items():
                    for mono, coeff in poly.terms.items():
                        by_mono.setdefault(mono, {})[idx] = coeff
                for mono, const in by_mono.items():
                    for fi, coeff in primitive_fiber_coords(self.n, s, const).items():
                        if coeff:
                            out[(mono, fi, u)] = coeff
            return out
        if element.grading != self.grading:
            raise ValueError("element is not at this grading")
        for slot, vector in ((0, element.eta), (1, element.xi)):
            for u, form in enumerate(vector.entries):
                for idx, poly in form.terms.items():
                    for mono, coeff in poly.terms.items():
                        out[(slot, mono, idx, u)] = coeff
        return out


def _space(conn: Connection, kind: str, grading: int) -> TruncatedSpace:
    return TruncatedSpace(kind, conn.n, conn.rank, grading)


def _image_coords(conn: Connection, kind: str, source: TruncatedSpace, key) -> Vec:
    element = source.element_from_key(key)
    image = (twisted_m1(conn, element, verify=False) if kind == "prim"
             else cone_d(conn, element))
    return _space(conn, kind, source.grading + 1).coords_of(image)


def _kernel_sweep(conn: Connection, kind: str, space: TruncatedSpace,
                  D: int) -> tuple[list[Vec], Optional[Echelon]]:
    """Kernel of the differential on degree <= D, and the tracked echelon
    of its columns (None at the top of the complex, where it is zero).

    This is the one place where differential columns are eliminated with
    tracking; kernels, images and preimages all come from its echelon.
    """
    keys = space.basis_keys(D)
    if space.grading == 2 * space.n + 1:
        return [{key: Fraction(1)} for key in keys], None
    return kernel_basis((key, _image_coords(conn, kind, space, key)) for key in keys)


def connection_growth(conn: Connection, kind: str, grading: int) -> int:
    """Max coefficient-degree increase of the differential at a position.

    One covariant-derivative pass adds at most the coefficient degree of A;
    the middle map of the primitive complex applies two passes and adds the
    Phi term, and the cone differential adds Phi alongside one pass.
    """
    report = analyze_flatness(conn)
    deg_a = conn.A.coefficient_degree()
    deg_phi = report.Phi.coefficient_degree()
    ga = max(0, deg_a if deg_a is not None else 0)
    gphi = max(0, deg_phi if deg_phi is not None else 0)
    if kind == "prim":
        if grading == conn.n:
            return max(0, 2 * ga, gphi)
        return ga
    return max(ga, gphi)


@dataclass
class LinOpMatrix:
    """Exact matrix of one differential between two truncated spaces."""

    source: TruncatedSpace
    target: TruncatedSpace
    D_source: int
    D_target: int
    source_keys: list
    columns: list  # aligned with source_keys; sparse dicts over target keys

    @property
    def num_cols(self) -> int:
        return len(self.source_keys)

    @property
    def num_rows(self) -> int:
        return self.target.dimension(self.D_target)


def assemble_operator(conn: Connection, kind: str, position: Position,
                      D_source: int, D_target: Optional[int] = None) -> LinOpMatrix:
    """Exact matrix of the twisted differential at one position.

    ``D_target`` must dominate ``D_source`` plus the operator's coefficient
    growth so that every image coordinate is representable; it defaults to
    exactly that bound.
    """
    grading = _grading_of_position(kind, conn.n, position)
    growth = connection_growth(conn, kind, grading)
    required = D_source + growth
    if D_target is None:
        D_target = required
    if D_target < required:
        raise ValueError(
            f"insufficient target truncation: need >= {required}, got {D_target}")
    source = _space(conn, kind, grading)
    target = _space(conn, kind, grading + 1)
    keys = source.basis_keys(D_source)
    columns = []
    for key in keys:
        col = _image_coords(conn, kind, source, key)
        for ckey in col:
            mono = ckey[0] if kind == "prim" else ckey[1]
            if sum(mono) > D_target:
                raise InternalInvariantError(
                    "image escaped the declared target truncation")
        columns.append(col)
    return LinOpMatrix(source, target, D_source, D_target, keys, columns)


# ---------- cohomology dimension reports ----------

@dataclass
class PositionReport:
    label: str
    grading: int
    kernel_dim: int
    dims_by_margin: dict[int, int]
    stabilized: bool
    dim: Optional[int]
    witnesses: list = field(default_factory=list)


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
                    stab_margins: Sequence[int] = (2, 3),
                    with_witnesses: bool = False) -> CohomologyReport:
    """Dimensions and witnesses of the twisted cohomology at truncation D.

    For each position the kernel is exact (images are never truncated);
    exactness is tested against images from the margin-enlarged source
    truncations, and the per-margin dimensions must agree to count as
    stabilized.
    """
    if not analyze_flatness(conn).is_symplectically_flat:
        raise ValueError("cohomology of the twisted complex needs a flat connection")
    margins = tuple(sorted(set(int(s) for s in stab_margins)))
    if not margins:
        raise ValueError("need at least one stabilization margin")
    if margins[0] < 0:
        raise ValueError("stabilization margins must be non-negative")
    n = conn.n
    reports = []
    image: Optional[Echelon] = None  # image of degree <= D from the position below
    for grading in range(0, 2 * n + 2):
        space = _space(conn, kind, grading)
        kernel, sweep = _kernel_sweep(conn, kind, space, D)
        # drop the combinations before the image from below grows
        next_image = sweep.untracked() if sweep is not None else None
        del sweep
        dims_by_margin = dict.fromkeys(margins, len(kernel))
        witness_coords = kernel
        if image is not None:
            below = _space(conn, kind, grading - 1)
            previous = 0
            for s in margins:
                for key in below.basis_keys(D + s, above=D + previous):
                    image.add(_image_coords(conn, kind, below, key))
                previous = s
                probe = image.clone()
                survivors = []
                for vec in kernel:
                    if probe.add(vec) is None:
                        survivors.append(vec)
                dims_by_margin[s] = len(survivors)
                witness_coords = survivors
        image = next_image
        values = [dims_by_margin[s] for s in margins]
        # the estimates shrink as the margin grows; agreement of the last
        # two consecutive margins is the stabilization criterion, so a
        # single-margin scan never counts as stabilized
        stabilized = len(values) >= 2 and values[-1] == values[-2]
        dim = values[-1] if stabilized else None
        witnesses = ([space.element_from_coords(vec) for vec in witness_coords]
                     if with_witnesses else [])
        reports.append(PositionReport(space.label, grading, len(kernel),
                                      dims_by_margin, stabilized, dim, witnesses))
    return CohomologyReport(kind, D, margins, reports)


def cone_cohomology_dims(conn: Connection, D: int = 5,
                         stab_margins: Sequence[int] = (2, 3),
                         with_witnesses: bool = False) -> CohomologyReport:
    """Same machinery on the cone complex; gradings correspond one-to-one."""
    return cohomology_dims(conn, "cone", D, stab_margins, with_witnesses)


def exactness_witness(conn: Connection, kind: str,
                      element: Union[PrimElement, ConeElement],
                      D_search: Optional[int] = None):
    """Solve differential(xi) == element, or report that none exists up to D_search.

    The default search bound is the element's coefficient degree plus two:
    in the constant frame the exactness constructions grow witnesses by at
    most two degrees.
    """
    if isinstance(element, ConeElement):
        grading = element.grading
        elem_degree = max(
            (d for d in (element.eta.coefficient_degree(),
                         element.xi.coefficient_degree()) if d is not None),
            default=0)
    else:
        grading = element.grading
        elem_degree = element.payload.coefficient_degree() or 0
    if D_search is None:
        D_search = elem_degree + 2
    if grading == 0:
        return None
    target = _space(conn, kind, grading)
    below = _space(conn, kind, grading - 1)
    _, ech = _kernel_sweep(conn, kind, below, D_search)
    combo = ech.solve(target.coords_of(element))
    if combo is None:
        return None
    return below.element_from_coords(combo)


# ---------- closedness identities in the constant frame ----------

def _constant_frame_lambda(conn: Connection) -> Form:
    """The potential lambda with A == Phi lambda and constant Phi, or raise."""
    report = analyze_flatness(conn)
    phi = report.Phi
    constant = all(p.is_constant for row in phi.entries for e in row
                   for p in e.terms.values())
    if constant:
        for lam_fn in LAMBDA_CHOICES.values():
            lam = lam_fn(conn.n)
            if wedge(phi, lam) == conn.A:
                return lam
    raise ValueError("connection is not in a constant frame A = Phi lambda")


@dataclass
class ClosedIdentityReport:
    label: str
    trials: int
    failures: int


def closedlem_check(conn: Connection, trials: int = 100, seed: int = 0,
                    D: int = 3) -> list[ClosedIdentityReport]:
    """Check the three closedness identities on kernel-sampled elements.

    In the frame A = Phi lambda with constant Phi, for closed beta the
    combinations beta - lambda x (del_minus_A beta) (plus side) and
    beta + lambda x (del_plus_A beta) (minus side) are closed for the
    untwisted differential; the checks are exact on random kernel samples.
    """
    lam = _constant_frame_lambda(conn)
    lam_elem = PrimElement(PLUS, 1, lam)
    rng = random.Random(seed)
    n = conn.n
    reports = []
    for grading in range(0, 2 * n + 2):
        side, s = grading_position(n, grading)
        if side == MINUS and s == n:
            continue  # closedness there already makes the identity trivial
        space = _space(conn, "prim", grading)
        kernel, _ = _kernel_sweep(conn, "prim", space, D)
        label = space.label
        if not kernel:
            reports.append(ClosedIdentityReport(label, 0, 0))
            continue
        failures = 0
        count = max(1, trials // (2 * n + 1))
        for _ in range(count):
            coords: Vec = {}
            for _pick in range(rng.randint(1, min(3, len(kernel)))):
                vec = rng.choice(kernel)
                scale = Fraction(rng.randint(-2, 2))
                if scale:
                    for key, val in vec.items():
                        acc = coords.get(key, Fraction(0)) + scale * val
                        if acc:
                            coords[key] = acc
                        else:
                            coords.pop(key, None)
            if not coords:
                continue
            beta = space.element_from_coords(coords)
            residual = _closed_identity_residual(conn, lam_elem, beta)
            if not residual.is_zero:
                failures += 1
        reports.append(ClosedIdentityReport(label, count, failures))
    return reports


def _closed_identity_residual(conn: Connection, lam_elem: PrimElement,
                              beta: PrimElement) -> Element:
    from .twist import del_minus_A, del_plus_A

    if beta.side == PLUS:
        lowered = del_minus_A(conn, beta.payload)
        partner = (ZERO if lowered.is_zero
                   else PrimElement(PLUS, beta.s - 1, lowered))
        combination = add_elements(beta, scale_element(-1, m2(lam_elem, partner)))
    else:
        raised = del_plus_A(conn, beta.payload)
        partner = (ZERO if raised.is_zero
                   else PrimElement(MINUS, beta.s + 1, raised))
        combination = add_elements(beta, m2(lam_elem, partner))
    return m1(combination)
