"""Reference implementations and shared connections for the tests.

``symbolic_column`` applies ``twisted_m1`` (prim) or ``cone_d`` (cone) to a
basis element and reads back its coordinates.  It shares nothing with the
fiber-table assembly in ``primflat.cohomology`` except the truncated-space
coordinates, so tests use it as the oracle for every table column.

``L_power_by_wedge`` and ``pi_p_by_wedge`` decompose a form and wedge omega
powers back onto its components.  They share only the decomposition table
with the cached operator maps of ``primflat.lefschetz``, which tests compare
with them.
"""

from primflat.cohomology import _space
from primflat.cone import cone_d
from primflat.connection import generate_flat
from primflat.dsl import parse_form
from primflat.forms import Form, MatrixForm, omega_power, wedge
from primflat.lefschetz import decompose
from primflat.twist import twisted_m1


def symbolic_column(conn, kind, space, key):
    element = space.element_from_key(key)
    image = (twisted_m1(conn, element, verify=False) if kind == "prim"
             else cone_d(conn, element))
    return _space(conn, kind, space.grading + 1).coords_of(image)


def symbolic_columns(conn, kind, grading):
    """Drop-in for ``cohomology._differential_columns``, built symbolically."""
    space = _space(conn, kind, grading)
    return lambda key: symbolic_column(conn, kind, space, key)


def labelled(x, degree):
    """True when x and every entry of a fiber form carry the degree label."""
    entries = [x] if isinstance(x, Form) else x.flat
    return x.degree == degree and all(e.degree == degree for e in entries)


def _rewedge(a, shift, keep):
    """sum of omega^(r+shift) /\\ beta_r over the components beta_r of a
    with keep(r); zero results carry the degree a.degree + 2 shift."""
    degree = a.degree + 2 * shift
    total = (Form.zero(a.n, degree) if isinstance(a, Form)
             else type(a).zero(a.n, degree, a.rank))
    for r, beta in decompose(a).components.items():
        if keep(r):
            total = total + wedge(omega_power(a.n, r + shift), beta)
    return total


def L_power_by_wedge(p, a):
    if p >= 0:
        return wedge(omega_power(a.n, p), a)
    return _rewedge(a, p, lambda r: r + p >= 0)


def pi_p_by_wedge(p, a):
    return _rewedge(a, 0, lambda r: r <= p)


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
