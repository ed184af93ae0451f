"""The twisted differential: series vs branch table, flatness equivalence."""

import random

import pytest

from primflat.connection import Connection, analyze_flatness, generate_flat
from primflat.forms import Form, MatrixForm, VectorForm, lambda_standard, omega, wedge
from primflat.sampling import (rand_connection, rand_flat_connection,
                               rand_prim_element, rand_primitive_vector)
from primflat.scalars import Poly
from primflat.ainfinity import MINUS, PLUS, PrimElement, add_elements, m1, scale_element
from primflat.twist import (check_square_zero, del_minus_A, del_plus_A,
                            delta_sign, m1_prime_of_A, twisted_m1,
                            twisting_series)


def test_delta_sign_values():
    assert [delta_sign(k) for k in range(1, 9)] == [1, 1, -1, -1, 1, 1, -1, -1]
    with pytest.raises(ValueError):
        delta_sign(0)


def test_delta_sign_product_rule():
    for r in range(0, 13):
        for s in range(1, 13):
            assert delta_sign(r + 1) * delta_sign(s) == \
                (-1) ** (r * (s - 1)) * delta_sign(r + s)


def test_twisted_operators_reduce_when_untwisted():
    n, r = 2, 2
    conn = Connection(n, r, MatrixForm.zero(n, 1, r))
    rng = random.Random(0)
    from primflat.lefschetz import del_minus, del_plus
    for s in range(0, n + 1):
        beta = rand_primitive_vector(rng, n, s, r)
        assert del_plus_A(conn, beta) == del_plus(beta)
        assert del_minus_A(conn, beta) == del_minus(beta)


def test_twisted_operators_on_constant_section():
    n, r = 2, 2
    phi0 = [[1, 0], [0, 0]]
    conn = generate_flat(n, r, phi0)
    v = VectorForm.unit(n, r, 0)
    lam = lambda_standard(n)
    assert del_minus_A(conn, v).is_zero
    assert del_plus_A(conn, v) == wedge(MatrixForm.from_scalar_form(phi0, lam), v)


def test_twisted_operators_reject_non_primitive():
    rng = random.Random(1)
    conn = rand_connection(rng, 2, 1)
    for operator in (del_plus_A, del_minus_A):
        with pytest.raises(ValueError, match="primitive forms only"):
            operator(conn, VectorForm([omega(2)], 2))


@pytest.mark.parametrize("operator", [del_plus_A, del_minus_A])
def test_twisted_operators_reject_scalar_and_matrix_payloads(operator):
    conn = rand_connection(random.Random(5), 2, 1)
    lam = lambda_standard(2)  # primitive, so only the fiber type is wrong
    for payload in (lam, MatrixForm.from_scalar_form([[1]], lam)):
        with pytest.raises(TypeError, match="vector-valued forms"):
            operator(conn, payload)


def test_twisted_m1_rejects_foreign_elements():
    conn = rand_connection(random.Random(6), 2, 1)
    lam = lambda_standard(2)
    with pytest.raises(TypeError, match="vector-fiber elements"):
        twisted_m1(conn, PrimElement(PLUS, 1, lam))
    for payload in (VectorForm([lam, lam], 1),  # rank 2 against rank 1
                    VectorForm([lambda_standard(1)], 1)):  # chart n = 1 against n = 2
        with pytest.raises(ValueError, match="chart or rank"):
            twisted_m1(conn, PrimElement(PLUS, 1, payload))


def test_covariant_split_identity():
    rng = random.Random(2)
    from primflat.connection import covariant_d
    for _ in range(25):
        n = rng.choice([1, 2])
        r = rng.choice([1, 2])
        conn = rand_connection(rng, n, r)
        s = rng.randint(0, n)
        beta = rand_primitive_vector(rng, n, s, r)
        lhs = covariant_d(conn, beta)
        rhs = del_plus_A(conn, beta) + wedge(omega(n), del_minus_A(conn, beta))
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2])
def test_anticommutator_gives_phi_when_flat(n):
    rng = random.Random(10 + n)
    for _ in range(10):
        r = rng.choice([1, 2])
        conn = rand_flat_connection(rng, n, r)
        phi = analyze_flatness(conn).Phi
        s = rng.randint(0, n)
        beta = rand_primitive_vector(rng, n, s, r)
        anti = del_plus_A(conn, del_minus_A(conn, beta)) \
            + del_minus_A(conn, del_plus_A(conn, beta))
        assert wedge(omega(n), anti) == wedge(omega(n), wedge(phi, beta))


@pytest.mark.parametrize("n", [1, 2])
def test_twisted_squares_vanish_when_flat(n):
    rng = random.Random(20 + n)
    for _ in range(10):
        r = rng.choice([1, 2])
        conn = rand_flat_connection(rng, n, r)
        s = rng.randint(0, n)
        beta = rand_primitive_vector(rng, n, s, r)
        assert del_plus_A(conn, del_plus_A(conn, beta)).is_zero
        assert del_minus_A(conn, del_minus_A(conn, beta)).is_zero


def test_twisted_squares_need_only_vanishing_primitive_curvature():
    # at n=1 the primitive curvature always vanishes, so the squares die
    # even when the connection fails the covariant-constancy equation
    n = 1
    a_form = Form(n, 1, {(0,): Poly.variable(n, 0) * Poly.variable(n, 1)})
    conn = Connection(n, 1, MatrixForm([[a_form]], 1))
    rep = analyze_flatness(conn)
    assert rep.F0.is_zero and not rep.is_symplectically_flat
    rng = random.Random(21)
    for _ in range(15):
        beta = rand_primitive_vector(rng, n, rng.randint(0, n), 1)
        assert del_plus_A(conn, del_plus_A(conn, beta)).is_zero
        assert del_minus_A(conn, del_minus_A(conn, beta)).is_zero
    # and with a primitive curvature component they generally do not
    n2 = 2
    bad = Connection(n2, 1, MatrixForm(
        [[Form(n2, 1, {(1,): Poly.variable(n2, 0)})]], 1))
    witness = False
    for _ in range(40):
        beta = rand_primitive_vector(rng, n2, rng.randint(0, n2), 1)
        if not del_plus_A(bad, del_plus_A(bad, beta)).is_zero:
            witness = True
            break
    assert witness


def test_twisted_m1_at_zero_connection_is_m1():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        r = rng.choice([1, 2])
        conn = Connection(n, r, MatrixForm.zero(n, 1, r))
        a = rand_prim_element(rng, n, "vector", r)
        lhs = twisted_m1(conn, a, verify=True)
        diff = add_elements(lhs, scale_element(-1, m1(a)))
        assert diff.is_zero


def test_twisted_m1_middle_branch_formula():
    n, r = 2, 2
    phi0 = [[1, 2], [0, 1]]
    conn = generate_flat(n, r, phi0)
    phi = analyze_flatness(conn).Phi
    rng = random.Random(4)
    beta = rand_primitive_vector(rng, n, n, r)
    a = PrimElement(PLUS, n, beta)
    result = twisted_m1(conn, a, verify=True)
    expected = -del_plus_A(conn, del_minus_A(conn, beta)) + wedge(phi, beta)
    assert result.side == MINUS and result.s == n
    assert result.payload == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_branch_table_agrees_with_series(n, r):
    # twisted_m1(verify=True) raises on any disagreement; sweep connections
    # of all three kinds over every position of the complex
    rng = random.Random(100 * n + r)
    count = 0
    while count < 200:
        kind = rng.random()
        if kind < 0.4:
            conn = rand_flat_connection(rng, n, r)
        elif kind < 0.8:
            conn = rand_connection(rng, n, r, max_degree=2)
        else:
            conn = Connection(n, r, MatrixForm.zero(n, 1, r))
        grading = rng.randint(0, 2 * n + 1)
        from primflat.sampling import rand_element_at_grading
        a = rand_element_at_grading(rng, n, grading, "vector", r, max_degree=2)
        value = twisted_m1(conn, a, verify=True)
        series = twisting_series(conn, a)
        diff = add_elements(series, scale_element(-1, value))
        assert diff.is_zero
        count += 1


def test_m1_prime_of_A_canonical_frame_is_zero():
    rng = random.Random(5)
    for n in (1, 2):
        for r in (1, 2, 3):
            conn = rand_flat_connection(rng, n, r, gauged=False)
            assert m1_prime_of_A(conn).is_zero


def test_m1_prime_of_A_detects_primitive_curvature():
    n = 2
    a_form = Form(n, 1, {(1,): Poly.variable(n, 0)})  # x1 dx2
    conn = Connection(n, 1, MatrixForm([[a_form]], 1))
    obstruction = m1_prime_of_A(conn)
    expected = MatrixForm([[wedge(Form.dx(n, 1), Form.dx(n, 2))]], 2)
    assert obstruction.side == PLUS and obstruction.s == 2
    assert obstruction.payload == expected


def test_m1_prime_of_A_n1_branch_sees_dPhi():
    # at n=1 the primitive projection of F is trivially zero, so the
    # obstruction must come from the covariant constancy of Phi
    n = 1
    a_form = Form(n, 1, {(0,): Poly.variable(n, 0) * Poly.variable(n, 1)})
    conn = Connection(n, 1, MatrixForm([[a_form]], 1))
    rep = analyze_flatness(conn)
    assert rep.F0.is_zero and not rep.dAPhi.is_zero
    assert not m1_prime_of_A(conn).is_zero


@pytest.mark.parametrize("n", [1, 2])
def test_flatness_equivalence_randomized(n):
    rng = random.Random(30 + n)
    flats = nonflats = 0
    for _ in range(60):
        r = rng.choice([1, 2, 3])
        if rng.random() < 0.5:
            conn = rand_flat_connection(rng, n, r)
        else:
            conn = rand_connection(rng, n, r, max_degree=2)
        flat = analyze_flatness(conn).is_symplectically_flat
        assert m1_prime_of_A(conn).is_zero == flat
        flats += flat
        nonflats += not flat
    assert flats >= 20 and nonflats >= 20


def test_square_zero_flat_and_nonflat():
    conn = generate_flat(2, 2, [[1, 0], [0, 2]])
    rep = check_square_zero(conn, trials=25, seed=0)
    assert analyze_flatness(conn).is_symplectically_flat and rep.failures == 0

    conn0 = Connection(1, 1, MatrixForm.zero(1, 1, 1))
    rep0 = check_square_zero(conn0, trials=25, seed=0)
    assert rep0.failures == 0

    n = 2
    bad = Connection(n, 1, MatrixForm([[Form(n, 1, {(1,): Poly.variable(n, 0)})]], 1))
    rep_bad = check_square_zero(bad, trials=40, seed=0)
    assert not analyze_flatness(bad).is_symplectically_flat
    assert rep_bad.failures > 0
    assert rep_bad.example is not None
    residual = twisted_m1(bad, twisted_m1(bad, rep_bad.example))
    assert not residual.is_zero


@pytest.mark.parametrize("n", [1, 2])
def test_middle_map_compositions_vanish_when_flat(n):
    rng = random.Random(40 + n)
    for _ in range(8):
        r = rng.choice([1, 2])
        conn = rand_flat_connection(rng, n, r)
        phi = analyze_flatness(conn).Phi
        if n >= 1:
            below = rand_primitive_vector(rng, n, n - 1, r)
            dplus = del_plus_A(conn, below)
            middle = -del_plus_A(conn, del_minus_A(conn, dplus)) + wedge(phi, dplus)
            assert middle.is_zero
        top = rand_primitive_vector(rng, n, n, r)
        value = -del_plus_A(conn, del_minus_A(conn, top)) + wedge(phi, top)
        assert del_minus_A(conn, value).is_zero
