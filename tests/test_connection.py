"""Connections: curvature, flatness analysis, gauges, generators."""

import random
from fractions import Fraction

import pytest

from primflat import connection
from primflat.connection import (Connection, analyze_flatness, covariant_d,
                                 covariant_d_end, curvature, gauge_apply,
                                 generate_flat, unipotent_inverse,
                                 yang_mills_residual)
from primflat.errors import InternalInvariantError
from primflat.forms import (Form, MatrixForm, exterior_d, lambda_standard,
                            omega, omega_power, wedge)
from primflat.sampling import (rand_connection, rand_constant_matrix,
                               rand_flat_connection, rand_unipotent,
                               rand_vector_form)
from primflat.scalars import Poly


def scalar_connection(n, form):
    return Connection(n, 1, MatrixForm([[form]], 1))


def test_curvature_of_scaled_potential():
    n = 2
    c = Fraction(3, 2)
    conn = Connection(n, 2, MatrixForm.from_scalar_form(
        [[c, 0], [0, c]], lambda_standard(n)))
    assert curvature(conn) == MatrixForm.from_scalar_form(
        [[c, 0], [0, c]], omega(n))


def test_curvature_of_zero():
    assert curvature(Connection(2, 2, MatrixForm.zero(2, 1, 2))).is_zero


def test_curvature_hand_computed():
    n = 2
    a_form = Form(n, 1, {(1,): Poly.variable(n, 0)})  # x1 dx2
    conn = scalar_connection(n, a_form)
    expected = wedge(Form.dx(n, 1), Form.dx(n, 2))
    assert curvature(conn) == MatrixForm([[expected]], 2)


def test_analyze_flatness_cases():
    n = 2
    flat = Connection(n, 1, MatrixForm.from_scalar_form([[2]], lambda_standard(n)))
    rep = analyze_flatness(flat)
    assert rep.is_symplectically_flat
    assert rep.Phi == MatrixForm.from_constant(n, [[2]])
    assert rep.F0.is_zero and rep.dAPhi.is_zero
    assert rep.F0 + wedge(omega(n), rep.Phi) == rep.F

    bad = scalar_connection(n, Form(n, 1, {(1,): Poly.variable(n, 0)}))
    rep_bad = analyze_flatness(bad)
    assert not rep_bad.is_symplectically_flat
    assert rep_bad.F0 == MatrixForm([[wedge(Form.dx(n, 1), Form.dx(n, 2))]], 2)


def test_covariant_d_reduces_to_d_when_untwisted():
    n = 2
    conn = Connection(n, 2, MatrixForm.zero(n, 1, 2))
    rng = random.Random(0)
    v = rand_vector_form(rng, n, 1, 2)
    assert covariant_d(conn, v) == exterior_d(v)


def test_covariant_d_of_identity_endomorphism():
    rng = random.Random(1)
    conn = rand_connection(rng, 2, 2)
    assert covariant_d_end(conn, MatrixForm.identity(2, 2)).is_zero


def test_covariant_d_takes_vector_forms_only():
    rng = random.Random(4)
    conn = rand_connection(rng, 2, 2)
    # d + A /\ on a matrix is not the End-valued d + [A, .]; the error names that one
    with pytest.raises(TypeError, match="covariant_d_end"):
        covariant_d(conn, MatrixForm.identity(2, 2))
    with pytest.raises(TypeError, match="got Form"):
        covariant_d(conn, Form.dx(2, 1))
    v = rand_vector_form(rng, 2, 1, 2)
    assert covariant_d(conn, v) == exterior_d(v) + wedge(conn.A, v)


@pytest.mark.parametrize("n", [1, 2])
def test_covariant_square_is_curvature(n):
    rng = random.Random(10 + n)
    for _ in range(12):
        conn = rand_connection(rng, n, 2)
        F = curvature(conn)
        k = rng.randint(0, 2 * n - 2)
        v = rand_vector_form(rng, n, k, 2)
        assert covariant_d(conn, covariant_d(conn, v)) == wedge(F, v)


def test_gauge_identity_fixes_connection():
    rng = random.Random(2)
    conn = rand_connection(rng, 2, 2)
    eye = MatrixForm.identity(2, 2)
    assert gauge_apply(conn, eye, eye).A == conn.A


def test_gauge_of_zero_connection_is_flat():
    n, r = 2, 2
    conn = Connection(n, r, MatrixForm.zero(n, 1, r))
    rng = random.Random(3)
    g = rand_unipotent(rng, n, r)
    gauged = gauge_apply(conn, g, unipotent_inverse(g))
    assert curvature(gauged).is_zero


def test_gauge_inverse_is_checked():
    rng = random.Random(4)
    conn = rand_connection(rng, 2, 2)
    g = rand_unipotent(rng, 2, 2)
    with pytest.raises(ValueError):
        gauge_apply(conn, g, g)  # g is not its own inverse generically


def test_unipotent_inverse_is_exact():
    rng = random.Random(5)
    for r in (2, 3):
        g = rand_unipotent(rng, 2, r, max_degree=2)
        ginv = unipotent_inverse(g)
        assert wedge(g, ginv) == MatrixForm.identity(2, r)
        assert wedge(ginv, g) == MatrixForm.identity(2, r)


@pytest.mark.parametrize("rank", [2, 3])
def test_random_unipotent_is_never_the_identity(rank):
    # a "gauged" test connection must really be gauged
    for seed in range(100):
        g = rand_unipotent(random.Random(seed), 1, rank)
        assert g != MatrixForm.identity(1, rank), seed


def test_unipotent_inverse_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        unipotent_inverse(MatrixForm.from_constant(2, [[2, 0], [0, 1]]))


@pytest.mark.parametrize("n", [1, 2])
def test_curvature_transforms_by_conjugation(n):
    rng = random.Random(20 + n)
    for _ in range(10):
        conn = rand_connection(rng, n, 2)
        g = rand_unipotent(rng, n, 2)
        ginv = unipotent_inverse(g)
        gauged = gauge_apply(conn, g, ginv)
        assert curvature(gauged) == wedge(wedge(g, curvature(conn)), ginv)


def test_generate_flat_canonical_frame():
    n = 2
    phi0 = [[1, 0], [0, 0]]
    conn = generate_flat(n, 2, phi0)
    assert conn.A == MatrixForm.from_scalar_form(phi0, lambda_standard(n))
    rep = analyze_flatness(conn)
    assert rep.is_symplectically_flat
    assert rep.Phi == MatrixForm.from_constant(n, phi0)


def test_generate_flat_symmetric_potential():
    conn = generate_flat(2, 2, [[1, 0], [0, 2]], lambda_choice="symmetric")
    rep = analyze_flatness(conn)
    assert rep.is_symplectically_flat
    assert rep.Phi == MatrixForm.from_constant(2, [[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        generate_flat(2, 2, [[1, 0], [0, 2]], lambda_choice="radial")


def test_generate_flat_zero_phi_is_flat_bundle():
    rng = random.Random(6)
    g = rand_unipotent(rng, 2, 2)
    conn = generate_flat(2, 2, [[0, 0], [0, 0]], gauge=g)
    assert curvature(conn).is_zero


def test_generate_flat_gauged_example():
    n = 2
    g = MatrixForm([[Form.const(n, 1), Form(n, 0, {(): Poly.variable(n, 0)})],
                    [Form.zero(n, 0), Form.const(n, 1)]], 0)
    conn = generate_flat(n, 2, [[1, 0], [0, 0]], gauge=g)
    rep = analyze_flatness(conn)
    assert rep.is_symplectically_flat
    ginv = unipotent_inverse(g)
    phi0 = MatrixForm.from_constant(n, [[1, 0], [0, 0]])
    assert rep.Phi == wedge(wedge(g, phi0), ginv)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_generated_connections_satisfy_all_flatness_outputs(n, r):
    rng = random.Random(100 * n + r)
    for _ in range(5):
        conn = rand_flat_connection(rng, n, r)
        rep = analyze_flatness(conn)
        assert rep.F0.is_zero
        assert rep.dAPhi.is_zero
        assert rep.is_symplectically_flat
        assert yang_mills_residual(conn).is_zero


def test_yang_mills_residual_constant_frame():
    conn = generate_flat(2, 2, rand_constant_matrix(random.Random(7), 2))
    assert yang_mills_residual(conn).is_zero


def test_yang_mills_residual_nonzero_witness():
    # n=1, A = x1 y1 dx1: Phi = -x1, so the residual is d Phi = -dx1
    n = 1
    a_form = Form(n, 1, {(0,): Poly.variable(n, 0) * Poly.variable(n, 1)})
    conn = scalar_connection(n, a_form)
    residual = yang_mills_residual(conn)
    assert residual == MatrixForm([[-Form.dx(n, 1)]], 1)


def test_yang_mills_requires_no_primitive_curvature():
    n = 2
    conn = scalar_connection(n, Form(n, 1, {(1,): Poly.variable(n, 0)}))
    with pytest.raises(ValueError):
        yang_mills_residual(conn)


def test_broken_split_names_n_rank_and_component(monkeypatch):
    # a doubled Phi no longer reassembles F = omega Phi0
    real = connection.L_power
    monkeypatch.setattr(connection, "L_power", lambda p, a: real(p, a) + real(p, a))
    with pytest.raises(InternalInvariantError,
                       match=r"^curvature does not reassemble from its split \(n=1, rank=2\): "
                             r"F0 \+ omega Phi differs from F at entry \(0, 0\), "
                             r"form index \(0, 1\)$"):
        analyze_flatness(generate_flat(1, 2, [[1, 0], [0, 0]]))


def test_broken_bianchi_names_n_rank_and_component(monkeypatch):
    # d_A Phi replaced by Phi itself: the constant diag(0, 3) is not covariantly zero
    monkeypatch.setattr(connection, "covariant_d_end", lambda conn, m: m)
    with pytest.raises(InternalInvariantError,
                       match=r"^Bianchi identity violated \(n=2, rank=2\): F0 = 0 but "
                             r"dAPhi is nonzero at entry \(1, 1\), form index \(\)$"):
        analyze_flatness(generate_flat(2, 2, [[0, 0], [0, 3]]))


def test_broken_potential_names_choice_n_rank_and_index(monkeypatch):
    # x1 dy1 misses the dx2 /\ dy2 part of omega on n = 2
    monkeypatch.setitem(connection.LAMBDA_CHOICES, "partial",
                        lambda n: Form(n, 1, {(2,): Poly(n, {(1, 0, 0, 0): 1})}))
    with pytest.raises(InternalInvariantError,
                       match=r"^potential 'partial' \(n=2, rank=1\) does not differentiate "
                             r"to omega: d\(lambda\) - omega is nonzero at form index "
                             r"\(1, 3\)$"):
        generate_flat(2, 1, [[1]], lambda_choice="partial")


def test_chart_and_rank_must_be_ints_at_least_one():
    # each of these built a form or connection on a chart of n = 0, -1 or True
    for build in (lambda: omega(0), lambda: omega_power(-1, 1), lambda: omega_power(True, 1),
                  lambda: Connection(True, 1, MatrixForm.zero(1, 1, 1))):
        with pytest.raises(ValueError, match="^chart dimension n must be an int >= 1"):
            build()
    for rank in (True, 0, 1.0):
        with pytest.raises(ValueError, match="^connection rank must be an int >= 1"):
            Connection(1, rank, MatrixForm.zero(1, 1, 1))
