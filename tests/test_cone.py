"""Cone complex: differential, splits, comparison maps, homotopy."""

import random

import pytest

from primflat import cone
from primflat.cone import (ConeElement, check_chain_identities, cone_d,
                           cone_split, homotopy_G, map_f, map_g,
                           residual_f_chain, residual_fg_identity,
                           residual_g_chain, residual_homotopy,
                           residual_phi_exactness)
from primflat.connection import Connection, generate_flat
from primflat.errors import InternalInvariantError
from primflat.forms import (Form, MatrixForm, VectorForm, lambda_standard,
                            omega, omega_power, wedge)
from primflat.sampling import rand_cone_element, rand_element_at_grading, rand_primitive_vector
from primflat.scalars import Poly
from primflat.ainfinity import MINUS, PLUS, PrimElement, add_elements, scale_element

from oracle import rand_flat_connection


def zero_vec(n, degree, rank=1):
    return VectorForm.zero(n, degree, rank)


def test_cone_d_squares_to_zero_when_flat():
    rng = random.Random(0)
    for (n, r) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        conn = rand_flat_connection(rng, n, r)
        for grading in range(0, 2 * n + 2):
            a = rand_cone_element(rng, conn, grading)
            assert cone_d(conn, cone_d(conn, a)).is_zero


def test_cone_d_constant_section_expansion():
    # a = (0, v) with constant v and A = Phi0 lambda:
    # D a = (omega v, -Phi0 lambda v)
    n, r = 2, 2
    phi0 = [[1, 0], [0, 0]]
    conn = generate_flat(n, r, phi0)
    v = VectorForm.unit(n, r, 0)
    a = ConeElement(1, zero_vec(n, 1, r), v)
    image = cone_d(conn, a)
    assert image.eta == wedge(omega(n), v)
    assert image.xi == -wedge(MatrixForm.from_scalar_form(phi0, lambda_standard(n)), v)


def test_cone_d_detects_non_flatness():
    n = 2
    bad = Connection(n, 1, MatrixForm([[Form(n, 1, {(1,): Poly.variable(n, 0)})]], 1))
    rng = random.Random(1)
    found = False
    for grading in range(0, 2 * n + 2):
        for _ in range(5):
            a = rand_cone_element(rng, bad, grading)
            if not cone_d(bad, cone_d(bad, a)).is_zero:
                found = True
    assert found


def test_cone_split_examples():
    n = 2
    a = ConeElement(2, VectorForm([omega(n)], 2), zero_vec(n, 1))
    assert cone_split(a) == ({1: VectorForm([Form.const(n, 1)], 0)}, {})

    rng = random.Random(2)
    beta = rand_primitive_vector(rng, n, 1, 1)
    b = ConeElement(2, zero_vec(n, 2), beta)
    assert cone_split(b) == ({}, {0: beta})



def test_cone_split_check_names_grading_and_exponent(monkeypatch):
    # a decomposition that calls omega^2 primitive breaks the shape at grading 4
    n = 2
    monkeypatch.setattr(cone, "decompose", lambda a: {0: a})
    a = ConeElement(4, VectorForm([omega_power(n, 2)], 4), zero_vec(n, 3))
    with pytest.raises(InternalInvariantError,
                       match=r"^cone grading 4: eta slot above the middle has a "
                             r"component omega\^0, needs omega\^2 or higher$"):
        cone_split(a)

def test_cone_split_round_trip_above_middle():
    # assemble a grading > n element from known primitive data, then split
    n, r = 2, 1
    rng = random.Random(3)
    k = 1  # grading j = 2n+1-k = 4
    beta_k = rand_primitive_vector(rng, n, k, r)
    beta_km1 = rand_primitive_vector(rng, n, k - 1, r)
    eta = wedge(omega_power(n, n - k + 1), beta_km1)
    xi = wedge(omega_power(n, n - k), beta_k)
    a = ConeElement(2 * n + 1 - k, VectorForm(eta.entries, 2 * n + 1 - k),
                    VectorForm(xi.entries, 2 * n - k))
    assert cone_split(a) == ({n - k + 1: beta_km1}, {n - k: beta_k})


def test_map_f_examples():
    n, r = 2, 1
    conn = generate_flat(n, r, [[2]])
    rng = random.Random(4)
    beta = rand_primitive_vector(rng, n, 1, r)
    a = ConeElement(1, beta, zero_vec(n, 0, r))
    image = map_f(conn, a)
    assert image.side == PLUS and image.s == 1
    assert image.payload == beta


# an element of another chart or rank, below or above the middle (its own n)
MISMATCHED_SHAPES = [(n, rank, grading) for n, rank in [(2, 2), (1, 3), (2, 3)]
                     for grading in (n, n + 1)]


@pytest.mark.parametrize("n,rank,grading", MISMATCHED_SHAPES)
def test_map_f_refuses_an_element_of_another_shape(n, rank, grading):
    # below the middle it returned an element of the wrong shape, above it it
    # failed deep inside with "chart dimension mismatch"
    conn = generate_flat(1, 2, [[1, 0], [0, 0]])
    other = Connection(n, rank, MatrixForm.zero(n, 1, rank))
    a = rand_cone_element(random.Random(grading), other, grading)
    with pytest.raises(ValueError, match="^element does not match the connection$"):
        map_f(conn, a)


@pytest.mark.parametrize("n,rank,grading", MISMATCHED_SHAPES)
def test_map_g_refuses_an_element_of_another_shape(n, rank, grading):
    # on the minus side it returned a cone element of the wrong shape, on the
    # plus side it failed deep inside with "chart dimension mismatch"
    conn = generate_flat(1, 2, [[1, 0], [0, 0]])
    b = rand_element_at_grading(random.Random(grading), n, grading, "vector", rank)
    assert b.side == (PLUS if grading == n else MINUS)
    with pytest.raises(ValueError, match="^element does not match the connection$"):
        map_g(conn, b)


def test_f_after_g_is_identity():
    rng = random.Random(5)
    for (n, r) in [(1, 1), (1, 2), (2, 2)]:
        conn = rand_flat_connection(rng, n, r)
        for grading in range(0, 2 * n + 2):
            b = rand_element_at_grading(rng, n, grading, "vector", r)
            assert residual_fg_identity(conn, b).is_zero


def test_map_g_constant_section():
    n, r = 2, 2
    conn = generate_flat(n, r, [[1, 0], [0, 0]])
    v = VectorForm.unit(n, r, 0)
    b = PrimElement(PLUS, 0, v)
    cone = map_g(conn, b)
    assert cone.eta == v
    assert cone.xi.is_zero  # del_minus_A of a constant section vanishes


def test_map_g_minus_branch():
    n, r = 2, 1
    conn = generate_flat(n, r, [[3]])
    rng = random.Random(6)
    beta = rand_primitive_vector(rng, n, 1, r)
    b = PrimElement(MINUS, 1, beta)
    cone = map_g(conn, b)
    assert cone.grading == 2 * n + 1 - 1
    assert cone.eta.is_zero
    assert cone.xi == -wedge(omega_power(n, n - 1), beta)


def test_homotopy_G_examples():
    n = 2
    a = ConeElement(2, VectorForm([omega(n)], 2), zero_vec(n, 1))
    g = homotopy_G(a)
    assert g.eta.is_zero
    assert g.xi == VectorForm([Form.const(n, 1)], 0)

    rng = random.Random(7)
    beta = rand_primitive_vector(rng, n, 2, 1)
    g2 = homotopy_G(ConeElement(2, beta, zero_vec(n, 1)))
    assert g2.is_zero

    xi = rand_primitive_vector(rng, n, 1, 1)
    g3 = homotopy_G(ConeElement(2, zero_vec(n, 2), xi))
    assert g3.eta == xi and g3.xi.is_zero


def test_homotopy_G_lowers_grading():
    rng = random.Random(8)
    conn = rand_flat_connection(rng, 2, 1)
    for grading in range(1, 6):
        a = rand_cone_element(rng, conn, grading)
        assert homotopy_G(a).grading == grading - 1


@pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_chain_identities_randomized(n, r):
    rng = random.Random(100 * n + r)
    conn = rand_flat_connection(rng, n, r)
    reports = check_chain_identities(conn, trials=40, seed=n * 7 + r)
    for rep in reports:
        assert rep.failures == 0, (rep.name, rep.example)


def test_chain_identities_on_untwisted_connection():
    n, r = 2, 2
    conn = Connection(n, r, MatrixForm.zero(n, 1, r))
    reports = check_chain_identities(conn, trials=30, seed=9)
    assert all(rep.failures == 0 for rep in reports)


def test_chain_identities_require_flatness():
    n = 2
    bad = Connection(n, 1, MatrixForm([[Form(n, 1, {(1,): Poly.variable(n, 0)})]], 1))
    with pytest.raises(ValueError):
        check_chain_identities(bad, trials=2, seed=0)


def test_boundary_gradings_explicitly():
    rng = random.Random(10)
    for (n, r) in [(1, 2), (2, 2)]:
        conn = rand_flat_connection(rng, n, r)
        for grading in (n, n + 1):
            for _ in range(10):
                a = rand_cone_element(rng, conn, grading)
                assert residual_f_chain(conn, a).is_zero
                assert residual_homotopy(conn, a).is_zero
                b = rand_element_at_grading(rng, n, grading, "vector", r)
                res_g = residual_g_chain(conn, b)
                assert res_g.is_zero and res_g.grading == grading + 1


def test_corrupted_f_breaks_the_chain_identity():
    # mutation check: flipping the sign of f above the middle must surface
    n, r = 2, 1
    conn = generate_flat(n, r, [[1]])
    rng = random.Random(11)
    broken = 0
    for _ in range(20):
        a = rand_cone_element(rng, conn, n + 1)
        lhs = map_f(conn, cone_d(conn, a))
        from primflat.twist import twisted_m1
        honest = map_f(conn, a)
        flipped = scale_element(-1, honest)
        rhs = twisted_m1(conn, flipped, verify=False)
        residual = add_elements(lhs, scale_element(-1, rhs))
        if not residual.is_zero:
            broken += 1
    assert broken > 0


def test_phi_exactness_of_closed_elements():
    rng = random.Random(12)
    for (n, r) in [(1, 2), (2, 2)]:
        conn = rand_flat_connection(rng, n, r)
        for grading in range(0, 2 * n + 1):
            closed = cone_d(conn, rand_cone_element(rng, conn, grading))
            assert cone_d(conn, closed).is_zero
            assert residual_phi_exactness(conn, closed).is_zero
