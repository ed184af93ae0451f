"""Reference implementations and shared connections for the tests.

``symbolic_column`` applies ``twisted_m1`` (prim) or ``cone_d`` (cone) to a
basis element and reads back its coordinates.  It shares nothing with the
fiber-table assembly in ``primflat.cohomology`` except the truncated-space
coordinates, so tests use it as the oracle for every table column.
``survivors_by_margin`` builds each margin's image from those columns in a
fresh echelon and probes the whole kernel against it, so it shares nothing
with the degree-by-degree margin loop of ``cohomology_dims`` either.

``L_power_by_wedge`` and ``pi_p_by_wedge`` decompose a form, entrywise for
fiber forms, by reading the ``{(r, bi): coefficient}`` coordinates of
``lefschetz._decomp_table`` directly, expanding them through
``primitive_fiber_basis`` into components, and wedging omega powers back
onto those symbolically; ``omega_map_by_wedge`` builds a whole
``_omega_map`` table that way.  They share only the decomposition table
with the cached operator maps of ``primflat.lefschetz`` and with
``decompose``, which reads those maps; tests compare the maps with them.

``reassemble`` sums omega^r /\\ beta_r over the ``{r: beta_r}`` that
``decompose`` returns, by the symbolic wedge, back into the decomposed form.

``FractionEchelon`` is the elimination over ``Fraction`` that
``primflat.linalg.Echelon`` replaced: unit pivots, rational combinations.
It shares no arithmetic with the integer echelon, so tests compare the two;
``vec_add_scaled`` is its sparse ``target += coeff * source``.
``contains`` asks either echelon whether a vector lies in the span of what
it was fed: an ``Echelon`` by its own integer reduction ``_reduce``.
``GaussJordanEchelon`` changes the pivot rule as well: it pivots on the
smallest key and keeps its rows fully reduced, so its relations and
``solve`` answers equal ``Echelon``'s only because those do not depend on
the pivot rule.

``wedge_by_sorting`` multiplies two ``{index: coefficient}`` maps by sorting
each concatenated index tuple and counting its inversions, and
``contract_lambda_by_interior`` lowers one by composing single
contractions; neither shares code with ``forms.wedge_terms`` or
``forms._lowerings``, so tests compare them.

``FractionPoly`` is the polynomial ring over ``Fraction`` coefficients
that the int-numerator coefficients of ``primflat.scalars.Poly`` and
``primflat.forms.Form`` replaced; it shares no arithmetic with them, so
tests compare the two, and ``fraction_polys`` reads a form's coefficients
into it.  ``print_form_by_terms`` is the printer as it ran before it read
numerators: one ``FractionPoly`` per index, its ``Fraction`` terms spelled
and sorted on their own, and a unit coefficient found by comparing with 1.

``wedge_by_entries``, ``by_entries``, ``plus_by_entries``,
``decompose_by_entries`` and ``equal_by_entries`` are the fiber forms as
they ran before their numerators were fused: one scalar `Form` per entry,
each kernel called once per entry (every product entry one sum of scalar
wedges, in the order of its fiber composition), the result built back by
the public constructor.  They share only the scalar kernels with the
fused ones, so tests compare the two, ``repr`` (and with it the index
order inside each entry) included.

``assemble_operator`` is the exact ``Fraction`` matrix of one differential
between two truncations, the table columns divided by their scale, and
``symbolic_columns`` is the symbolic drop-in for the table columns.  Every
vector here is keyed by the int codes of ``primflat.cohomology``: a
truncated space carries its code base, and vectors compose only between
spaces at one base, so each helper builds its spaces at the base of the
space or the call it is given; ``assemble_operator`` picks its own, from
the degrees of A and Phi.  ``is_primitive_by_wedge`` tests primitivity by
wedging with an omega power instead of contracting.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from primflat import cohomology
from primflat.ainfinity import PLUS, grading_position
from primflat.cohomology import TruncatedSpace, _space
from primflat.cone import cone_d
from primflat.connection import analyze_flatness, generate_flat
from primflat.dsl import parse_form
from primflat.errors import InternalInvariantError
from primflat.forms import (Form, MatrixForm, VectorForm, _merge, all_indices, omega_power,
                            wedge)
from primflat.lefschetz import _decomp_table, decompose, primitive_fiber_basis
from primflat.scalars import Poly, _multiply
from primflat.twist import twisted_m1


def symbolic_column(conn, kind, space, key):
    element = space.element_from_key(key)
    image = (twisted_m1(conn, element, verify=False) if kind == "prim"
             else cone_d(conn, element))
    return _space(conn, kind, space.grading + 1, space.base).coords_of(image)


def survivors_by_margin(conn, kind, space, D, margins, kernel):
    """``{s: survivors}`` for each margin s: the kernel vectors of ``space``,
    fed in order after every symbolic column from degree <= D + s of the
    position below into a fresh ``FractionEchelon``, that it stores.  Every
    margin starts over and probes the whole kernel; at grading 0 every
    vector survives."""
    out = {}
    for s in margins:
        image = FractionEchelon()
        if space.grading > 0:
            below = _space(conn, kind, space.grading - 1, space.base)
            for key in below.basis_keys(D + s):
                image.add(symbolic_column(conn, kind, below, key))
        out[s] = [vec for vec in kernel if image.add(vec) is None]
    return out


def symbolic_columns(conn, kind, grading, base):
    """Drop-in for ``cohomology._differential_columns``, built symbolically
    (so with scale 1)."""
    space = _space(conn, kind, grading, base)
    return (lambda code: symbolic_column(conn, kind, space, code)), 1


def is_primitive_by_wedge(a):
    """Primitivity as omega^(n-s+1) /\\ a == 0 (degree s <= n)."""
    if not isinstance(a, Form):
        return all(is_primitive_by_wedge(e) for e in a.flat)
    if a.degree > a.n:
        return a.is_zero
    power = a.n - a.degree + 1
    return wedge(omega_power(a.n, power), a).is_zero


def _grading_of_position(kind, n, position):
    if kind == "prim":
        side, s = position
        grading = s if side == PLUS else 2 * n + 1 - s
        if grading_position(n, grading) != (side, s):
            raise ValueError(f"no position P{s}{side} for n={n}")
        return grading
    grading = int(position)
    if not 0 <= grading <= 2 * n + 1:
        raise ValueError(f"no cone grading {grading} for n={n}")
    return grading


@dataclass
class LinOpMatrix:
    """Exact matrix of one differential between two truncated spaces."""

    source: TruncatedSpace
    target: TruncatedSpace
    D_source: int
    D_target: int
    source_keys: list
    columns: list  # aligned with source_keys; sparse Fraction dicts over target keys

    @property
    def num_cols(self):
        return len(self.source_keys)

    @property
    def num_rows(self):
        return self.target.dimension(self.D_target)


def assemble_operator(conn, kind, position, D_source, D_target: Optional[int] = None):
    """Exact matrix of the twisted differential at one position.

    ``D_target`` must dominate ``D_source`` plus the operator's coefficient
    growth so that every image coordinate is representable; it defaults to
    exactly that bound.
    """
    if D_source < 0:
        raise ValueError(f"source truncation must be >= 0, got {D_source}")
    grading = _grading_of_position(kind, conn.n, position)
    required = D_source + cohomology.connection_growth(conn, kind, grading)
    if D_target is None:
        D_target = required
    if D_target < required:
        raise ValueError(
            f"insufficient target truncation: need >= {required}, got {D_target}")
    # a code base from the degrees of A and Phi, not from connection_growth,
    # so that an image escaping that bound still reads as itself
    degrees = [form.coefficient_degree() or 0 for form in (conn.A, analyze_flatness(conn).Phi)]
    base = 2 + D_source + 2 * max(degrees)
    source, target = (_space(conn, kind, g, base) for g in (grading, grading + 1))
    keys = source.basis_keys(D_source)
    column, scale = cohomology._differential_columns(conn, kind, grading, base)
    columns = []
    for key in keys:
        col = {code: Fraction(x, scale) for code, x in column(key).items()}
        for code in col:
            m = target.split(code)[1]
            if sum(m // w % base for w in target.weights) > D_target:
                raise InternalInvariantError(
                    f"{source.label}: image of source key {source.split(key)} escaped the "
                    f"declared target truncation {D_target} at target key {target.split(code)}")
        columns.append(col)
    return LinOpMatrix(source, target, D_source, D_target, keys, columns)


def vec_add_scaled(target, coeff, source):
    """In place target += coeff * source, dropping entries that cancel."""
    if not coeff:
        return
    for key, value in source.items():
        acc = target.get(key)
        if acc is None:
            target[key] = coeff * value
        else:
            acc = acc + coeff * value
            if acc:
                target[key] = acc
            else:
                del target[key]


def _sum_into(out, key, value):
    out[key] = out[key] + value if key in out else value


def _nonzero(out):
    return {key: c for key, c in out.items() if c != 0}


def wedge_by_sorting(a, b):
    """a /\\ b of two ``{index: coefficient}`` maps: a pair of index tuples
    that share an index gives nothing, any other gives the sorted union with
    the sign of the inversions of their concatenation."""
    out = {}
    for idx_a, ca in a.items():
        for idx_b, cb in b.items():
            joined = idx_a + idx_b
            if len(set(joined)) < len(joined):
                continue
            inversions = sum(1 for i in range(len(joined)) for j in range(i + 1, len(joined))
                             if joined[i] > joined[j])
            prod = ca * cb
            _sum_into(out, tuple(sorted(joined)), -prod if inversions % 2 else prod)
    return _nonzero(out)


def _interior_product(coord, terms):
    """Contraction of an ``{index: coefficient}`` map with the frame vector
    of ``coord``."""
    out = {}
    for idx, c in terms.items():
        if coord in idx:
            pos = idx.index(coord)
            _sum_into(out, idx[:pos] + idx[pos + 1:], -c if pos % 2 else c)
    return _nonzero(out)


def contract_lambda_by_interior(n, terms):
    """sum_i of the contraction by d/dx_i, then by d/dy_i, of an
    ``{index: coefficient}`` map."""
    out = {}
    for i in range(n):
        for idx, c in _interior_product(n + i, _interior_product(i, terms)).items():
            _sum_into(out, idx, c)
    return _nonzero(out)


class FractionEchelon:
    """Incremental echelon over ``Fraction``, with the interface of ``Echelon``.

    Each stored vector is scaled so its pivot (largest key) is 1, and with
    ``track=True`` it keeps its combination of the fed vectors by tag.
    """

    def __init__(self, track=False):
        self.track = track
        self._pivots = {}  # pivot key -> (vector, combination or None)

    @property
    def rank(self):
        return len(self._pivots)

    def clone(self):
        other = FractionEchelon(self.track)
        other._pivots = dict(self._pivots)
        return other

    def rows(self):
        return [vec for vec, _ in self._pivots.values()]

    @property
    def last_pivot(self):
        return next(reversed(self._pivots))

    def reduce(self, vec):
        """``(residual, combo)`` with vec == residual + sum(combo[t] * fed_t)."""
        vec = {key: value for key, value in vec.items() if value}
        combo = {}
        while vec:
            key = max(vec)
            if key not in self._pivots:
                break
            pivot, pivot_combo = self._pivots[key]
            coeff = vec[key]
            vec_add_scaled(vec, -coeff, pivot)
            if self.track:
                vec_add_scaled(combo, coeff, pivot_combo)
        return vec, combo

    def add(self, vec, tag=None):
        residual, combo = self.reduce(vec)
        if not residual:
            if not self.track:
                return {}
            kernel = {tag: Fraction(1)}
            vec_add_scaled(kernel, Fraction(-1), combo)
            return kernel
        lead = max(residual)
        inv = Fraction(1) / residual[lead]
        stored_combo = None
        if self.track:
            stored_combo = {tag: inv}
            vec_add_scaled(stored_combo, -inv, combo)
        self._pivots[lead] = ({key: inv * value for key, value in residual.items()},
                              stored_combo)
        return None

    def contains(self, vec):
        return not self.reduce(vec)[0]

    def solve(self, vec):
        if not self.track:
            raise ValueError("solve requires a tracking Echelon")
        residual, combo = self.reduce(vec)
        return None if residual else combo


def contains(ech, vec):
    """True when ``vec`` lies in the span of the vectors fed to ``ech``, an
    ``Echelon`` or a ``FractionEchelon``."""
    if isinstance(ech, FractionEchelon):
        return ech.contains(vec)
    return not ech._reduce(vec)[0]


class GaussJordanEchelon:
    """Tracked Gauss-Jordan elimination over ``Fraction``.

    Each stored row is scaled so its entry at its *smallest* key (the pivot)
    is 1, and every row is kept fully reduced: no row has an entry at
    another row's pivot key.  Each row keeps its combination of the fed
    vectors by tag.
    """

    def __init__(self):
        self._rows = {}  # pivot key -> (row, combination)

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec):
        """``(residual, combo)`` with vec == residual + sum(combo[t] * fed_t)."""
        vec = {key: value for key, value in vec.items() if value}
        combo = {}
        # subtracting a fully reduced row changes no entry at another pivot key
        for key in [key for key in vec if key in self._rows]:
            row, row_combo = self._rows[key]
            coeff = vec[key]
            vec_add_scaled(vec, -coeff, row)
            vec_add_scaled(combo, coeff, row_combo)
        return vec, combo

    def add(self, vec, tag):
        """None when ``vec`` is independent, else its relation ``k`` with
        ``k[tag] == 1``."""
        residual, combo = self._reduce(vec)
        if not residual:
            kernel = {tag: Fraction(1)}
            vec_add_scaled(kernel, Fraction(-1), combo)
            return kernel
        lead = min(residual)
        inv = 1 / Fraction(residual[lead])
        row = {key: inv * value for key, value in residual.items()}
        row_combo = {tag: inv}
        vec_add_scaled(row_combo, -inv, combo)
        for key, (other, other_combo) in list(self._rows.items()):
            coeff = other.get(lead)
            if coeff:
                other, other_combo = dict(other), dict(other_combo)
                vec_add_scaled(other, -coeff, row)
                vec_add_scaled(other_combo, -coeff, row_combo)
                self._rows[key] = (other, other_combo)
        self._rows[lead] = (row, row_combo)
        return None

    def solve(self, vec):
        residual, combo = self._reduce(vec)
        return None if residual else combo


class FractionPoly:
    """Sparse polynomial with nonzero ``Fraction`` coefficients in ``terms``."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {tuple(mono): Fraction(c) for mono, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, n, value):
        return cls(n, {(0,) * (2 * n): value})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return FractionPoly(self.n, out)  # cancelled terms drop here

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        total = FractionPoly(self.n)
        for mono_a, coeff_a in self.terms.items():
            total = total + FractionPoly(self.n, {
                tuple(a + b for a, b in zip(mono_a, mono_b)): coeff_a * coeff_b
                for mono_b, coeff_b in other.terms.items()})
        return total

    def scaled(self, value):
        return FractionPoly(self.n, {mono: value * c for mono, c in self.terms.items()})

    def __pow__(self, power):
        result = FractionPoly.const(self.n, 1)
        for _ in range(power):
            result = result * self
        return result

    def partial(self, coord):
        return FractionPoly(self.n, {
            mono[:coord] + (mono[coord] - 1,) + mono[coord + 1:]: c * mono[coord]
            for mono, c in self.terms.items() if mono[coord]})

    def total_degree(self):
        return max((sum(mono) for mono in self.terms), default=None)

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        return self.terms.get((0,) * (2 * self.n), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPoly.const(self.n, other)
        return self.n == other.n and self.terms == other.terms


def fraction_polys(form):
    """``{index: FractionPoly}`` of a scalar form, read straight from its numerators."""
    return {idx: FractionPoly(form.n, {m: Fraction(c, form.den) for m, c in monos.items()})
            for idx, monos in form.num.items()}


def _coordinate(n, c):
    return f"x{c + 1}" if c < n else f"y{c - n + 1}"


def print_poly_by_terms(poly):
    """Text of a ``FractionPoly``, its terms by total degree, then exponents."""
    if poly.is_zero:
        return "0"
    bits = []
    for mono in sorted(poly.terms, key=lambda m: (sum(m), m)):
        coeff = poly.terms[mono]
        factors = [_coordinate(poly.n, c) + (f"^{e}" if e > 1 else "")
                   for c, e in enumerate(mono) if e]
        magnitude = abs(coeff)
        text = "*".join(([str(magnitude)] if magnitude != 1 or not factors else []) + factors)
        if not bits:
            bits.append(text if coeff > 0 else f"-{text}")
        else:
            bits.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(bits)


def print_form_by_terms(form):
    """``dsl.print_form`` through one ``FractionPoly`` per index."""
    if form.is_zero:
        return "0"
    terms = fraction_polys(form)
    if form.degree == 0:
        return print_poly_by_terms(terms[()])
    chunks = []
    for idx in sorted(terms):
        basis = "/\\".join("d" + _coordinate(form.n, c) for c in idx)
        poly = terms[idx]
        chunks.append(basis if poly == 1 else f"({print_poly_by_terms(poly)})*{basis}")
    return " + ".join(chunks)


def labelled(x, degree):
    """True when x and every entry of a fiber form carry the degree label."""
    entries = [x] if isinstance(x, Form) else x.flat
    return x.degree == degree and all(e.degree == degree for e in entries)


def reassemble(a, components):
    """sum_r omega^r /\\ components[r] from the zero of a's fiber and
    degree, so ``reassemble(a, decompose(a)) == a`` holds for a zero a too."""
    total = a.scaled(0)
    for r, beta in components.items():
        total = total + wedge(omega_power(a.n, r), beta)
    return total


def _components_by_table(a):
    """Lefschetz components {r: beta_r} of a scalar form, read straight
    from the decomposition table's coordinates and expanded through the
    primitive fiber bases; zero components are left out."""
    table = _decomp_table(a.n, a.degree)
    out = {}
    for idx, poly in fraction_polys(a).items():
        for (r, bi), c in table[idx].items():
            comp = out.setdefault(r, {})
            for bidx, bc in primitive_fiber_basis(a.n, a.degree - 2 * r)[bi].items():
                term = poly.scaled(c * bc)
                comp[bidx] = comp[bidx] + term if bidx in comp else term
    # the constructor drops the coefficients that cancelled
    components = {r: Form(a.n, a.degree - 2 * r, {bidx: Poly(a.n, poly.terms)
                                                 for bidx, poly in terms.items()})
                  for r, terms in out.items()}
    return {r: beta for r, beta in components.items() if not beta.is_zero}


def _rewedge(a, shift, keep):
    """sum of omega^(r+shift) /\\ beta_r over the components beta_r of a
    with keep(r), entrywise on fiber forms; zero results carry the degree
    a.degree + 2 shift."""
    degree = a.degree + 2 * shift
    if not isinstance(a, Form):
        return by_entries(lambda e: _rewedge(e, shift, keep), a, degree)
    total = Form.zero(a.n, degree)
    for r, beta in _components_by_table(a).items():
        if keep(r):
            total = total + wedge(omega_power(a.n, r + shift), beta)
    return total


def L_power_by_wedge(p, a):
    if p >= 0:
        return wedge(omega_power(a.n, p), a)
    return _rewedge(a, p, lambda r: r + p >= 0)


def pi_p_by_wedge(p, a):
    return _rewedge(a, 0, lambda r: r <= p)


def omega_map_by_wedge(n, degree, shift, top):
    """``lefschetz._omega_map`` built symbolically: each basis form's image
    is the sum of wedge(omega_power(n, r + shift), beta_r) over its
    components beta_r with r <= top and r + shift >= 0, read back as
    {target index: coefficient}."""
    table = {}
    for idx in all_indices(n, degree):
        image = _rewedge(Form.basis(n, idx), shift, lambda r: r <= top and r + shift >= 0)
        table[idx] = {tidx: poly.constant_value()
                      for tidx, poly in fraction_polys(image).items()}
    return table


def fiber_from_entries(like, flat, degree):
    """A fiber form of like's type and rank from row-major entries, by the
    public constructor."""
    if isinstance(like, VectorForm):
        return VectorForm(flat, degree)
    r = like.rank
    return MatrixForm([flat[i * r:(i + 1) * r] for i in range(r)], degree)


def by_entries(fn, a, degree):
    """fn on every entry of a fiber form (a scalar form is its own entry)."""
    if isinstance(a, Form):
        return fn(a)
    return fiber_from_entries(a, [fn(e) for e in a.flat], degree)


def _wedge_sum(n, degree, pairs):
    """The sum of a /\\ b over pairs of scalar forms in one dict, at the lcm
    of their denominators."""
    pairs = [(a, b) for a, b in pairs if a.num and b.num]
    den = lcm(*(a.den * b.den for a, b in pairs))
    out = {}
    for a, b in pairs:
        scale = den // (a.den * b.den)
        for idx_a, monos_a in a.num.items():
            for idx_b, monos_b in b.num.items():
                merged = _merge(idx_a, idx_b)
                if merged is not None:
                    _multiply(out.setdefault(merged[1], {}), monos_a, monos_b, merged[0] * scale)
    return Form._reduced(n, degree, out, den)


def wedge_by_entries(a, b):
    degree = a.degree + b.degree
    if isinstance(a, Form):
        return by_entries(lambda e: _wedge_sum(a.n, degree, [(a, e)]), b, degree)
    if isinstance(b, Form):
        return by_entries(lambda e: _wedge_sum(a.n, degree, [(e, b)]), a, degree)
    # a vector is a single column
    columns = list(zip(*b.entries)) if isinstance(b, MatrixForm) else [b.entries]
    return fiber_from_entries(b, [_wedge_sum(a.n, degree, zip(row, col))
                                  for row in a.entries for col in columns], degree)


def plus_by_entries(a, b, sign):
    degree = a.degree if not a.is_zero else b.degree
    return fiber_from_entries(a, [x + y if sign > 0 else x - y
                                  for x, y in zip(a.flat, b.flat)], degree)


def decompose_by_entries(a):
    """``{r: beta_r}`` with every entry decomposed on its own."""
    parts = [decompose(e) for e in a.flat]
    return {r: fiber_from_entries(a, [p.get(r, Form.zero(a.n, a.degree - 2 * r)) for p in parts],
                                  a.degree - 2 * r)
            for r in sorted(set().union(*parts))}


def equal_by_entries(a, b):
    return a.rank == b.rank and a.flat == b.flat


def diag(*values):
    r = len(values)
    return [[values[i] if i == j else 0 for j in range(r)] for i in range(r)]


# A densely gauged n=1 rank-4 connection, g = 1 + N with N strictly upper
# triangular and linear; its coefficient growth is [4, 8, 4, 4].
GAUGE_N = {(0, 1): "-1/3*x1 + 1/3*y1", (0, 2): "1/2*x1 + 2*y1",
           (0, 3): "2/3*x1 + 1/2*y1", (1, 2): "3*x1 + y1",
           (1, 3): "-2/3*x1 - 3/2*y1", (2, 3): "1/3*x1 + 3/2*y1"}


def dense_gauge_rank4():
    n, r = 1, 4
    g = MatrixForm([[Form.const(n, 1) if i == j
                     else parse_form(GAUGE_N[(i, j)], n) if i < j
                     else Form.zero(n, 0) for j in range(r)] for i in range(r)], 0)
    return generate_flat(n, r, diag(1, 0, 2, 0), gauge=g)
