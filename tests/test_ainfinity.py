"""The primitive A-infinity algebra: maps, gradings, Stasheff identities."""

import dataclasses
import itertools
import random

import pytest

from primflat.cone import ConeElement, map_f, map_g
from primflat.connection import generate_flat
from primflat.forms import Form, lambda_standard, wedge
from primflat.lefschetz import L_power, del_minus, del_plus, pi_p, star_r
from primflat.sampling import rand_cone_element, rand_prim_element, rand_primitive_form
from primflat.scalars import Poly
from primflat.ainfinity import (MINUS, PLUS, PrimElement, add_elements,
                          check_stasheff, grading_position, m1, m2, m3,
                          scale_element)
from primflat.twist import twisted_m1


def scalar_elem(side, s, payload):
    return PrimElement(side, s, payload)


def test_m1_on_constants():
    assert m1(scalar_elem(PLUS, 0, Form.const(2, 3))).is_zero


def test_m1_on_potential_at_n2():
    # d(lambda) = omega is pure omega-component, so del_plus kills it
    lam = lambda_standard(2)
    assert m1(scalar_elem(PLUS, 1, lam)).is_zero


def test_m1_squared_zero_random():
    rng = random.Random(0)
    for _ in range(80):
        n = rng.choice([1, 2, 3])
        a = rand_prim_element(rng, n)
        assert check_stasheff(1, [a]).is_zero


def test_m1_bottom_of_complex():
    a = scalar_elem(MINUS, 0, Form.const(2, 5))
    assert m1(a).is_zero


def _assert_element(value, side, s, payload):
    expected = PrimElement(side, s, payload)
    assert add_elements(value, scale_element(-1, expected)).is_zero


@pytest.mark.parametrize("fiber", ["scalar", "matrix"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_m1_branches_match_the_checked_operators(n, fiber):
    # m1 runs the shared branch table, not del_plus/del_minus: tie the two
    rng = random.Random(30 + n)
    for _ in range(3):
        for s in range(n + 1):
            b = rand_prim_element(rng, n, fiber, 2, side=PLUS, s=s).payload
            plus = m1(PrimElement(PLUS, s, b))
            if s < n:
                _assert_element(plus, PLUS, s + 1, del_plus(b))
            else:
                _assert_element(plus, MINUS, n, -del_plus(del_minus(b)))
            if s > 0:
                _assert_element(m1(PrimElement(MINUS, s, b)), MINUS, s - 1, -del_minus(b))


def test_m1_raises_grading_by_one():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        a = rand_prim_element(rng, n)
        b = m1(a)
        if not b.is_zero:
            assert b.grading == a.grading + 1


def test_m2_unit():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        one = scalar_elem(PLUS, 0, Form.const(n, 1))
        b = rand_prim_element(rng, n)
        for prod in (m2(one, b), m2(b, one)):
            assert add_elements(prod, scale_element(-1, b)).is_zero


def test_m2_minus_times_minus_is_zero():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        a = rand_prim_element(rng, n, side=MINUS)
        b = rand_prim_element(rng, n, side=MINUS)
        assert m2(a, b).is_zero


def test_m2_high_degree_case_brute_force():
    # n=1, dx1 x dy1 with j+k = 2 > n: the bracket
    # -dL^{-1}(beta/\gamma) + (del_minus beta)/\gamma - beta/\(del_minus gamma)
    # evaluates to -d(1) + 0 - 0 = 0, so the product vanishes
    n = 1
    dx, dy = Form.dx(n, 1), Form.dy(n, 1)
    assert L_power(-1, wedge(dx, dy)) == Form.const(n, 1)
    assert del_minus(dx).is_zero and del_minus(dy).is_zero
    assert m2(scalar_elem(PLUS, 1, dx), scalar_elem(PLUS, 1, dy)).is_zero


def test_m2_boundary_total_degree_n():
    # at j+k = n both case-1 terms are computed; the reflected one must
    # vanish identically and the product lands at the top plus position
    rng = random.Random(99)
    for n in (2, 3):
        for _ in range(20):
            j = rng.randint(0, n)
            a = rand_prim_element(rng, n, side=PLUS, s=j)
            b = rand_prim_element(rng, n, side=PLUS, s=n - j)
            prod = m2(a, b)
            if not prod.is_zero:
                assert (prod.side, prod.s) == (PLUS, n)


def test_m2_grading_adds():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        a = rand_prim_element(rng, n)
        b = rand_prim_element(rng, n)
        prod = m2(a, b)
        if not prod.is_zero:
            assert prod.grading == a.grading + b.grading


def test_m2_graded_commutative():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.choice([1, 2, 3])
        a = rand_prim_element(rng, n, max_degree=2)
        b = rand_prim_element(rng, n, max_degree=2)
        sign = -1 if (a.grading * b.grading) % 2 else 1
        diff = add_elements(m2(a, b), scale_element(-sign, m2(b, a)))
        assert diff.is_zero


def test_m3_zero_cases():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.choice([2, 3])
        minus_in = [rand_prim_element(rng, n, side=MINUS),
                    rand_prim_element(rng, n, side=PLUS),
                    rand_prim_element(rng, n, side=PLUS)]
        assert m3(*minus_in).is_zero
        lows = [rand_prim_element(rng, n, side=PLUS, s=0),
                rand_prim_element(rng, n, side=PLUS, s=0),
                rand_prim_element(rng, n, side=PLUS, s=rng.randint(0, 1))]
        assert m3(*lows).is_zero  # total degree <= n+1


def test_m3_hand_computed_case():
    # n=1: m3(dx, dx, y1 dy) = Pi star_r [dx /\ L^{-1}(dx /\ y1 dy)] = y1 dx
    n = 1
    dx = Form.dx(n, 1)
    ydy = Form(n, 1, {(1,): Poly.variable(n, 1)})
    result = m3(scalar_elem(PLUS, 1, dx), scalar_elem(PLUS, 1, dx),
                scalar_elem(PLUS, 1, ydy))
    expected = Form(n, 1, {(0,): Poly.variable(n, 1)})
    assert result.side == MINUS and result.s == 1
    assert result.payload == expected


def test_m3_against_direct_expansion():
    # independent evaluation of the defining formula straight from the
    # operator kit, for random primitive 1-forms at n=1
    n = 1
    rng = random.Random(7)
    for _ in range(25):
        betas = [rand_primitive_form(rng, n, 1) for _ in range(3)]
        a, b, c = (scalar_elem(PLUS, 1, f) for f in betas)
        inner = wedge(betas[0], L_power(-1, wedge(betas[1], betas[2]))) \
            - wedge(L_power(-1, wedge(betas[0], betas[1])), betas[2])
        expected = pi_p(0, star_r(inner))
        result = m3(a, b, c)
        if expected.is_zero:
            assert result.is_zero
        else:
            assert result.payload == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stasheff_identities_scalar(n, k):
    rng = random.Random(n * 10 + k)
    for _ in range(50):
        elems = [rand_prim_element(rng, n, max_degree=2) for _ in range(k)]
        assert check_stasheff(k, elems).is_zero


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stasheff_identities_matrix_fiber(k):
    rng = random.Random(40 + k)
    for _ in range(12):
        n = rng.choice([1, 2])
        elems = [rand_prim_element(rng, n, "matrix", rank=2, max_degree=2)
                 for _ in range(k)]
        assert check_stasheff(k, elems).is_zero


@pytest.mark.parametrize("k", [2, 3, 4])
def test_stasheff_identities_module_structure(k):
    # matrices acting on a final vector slot
    rng = random.Random(50 + k)
    for _ in range(12):
        n = rng.choice([1, 2])
        elems = [rand_prim_element(rng, n, "matrix", rank=2, max_degree=2)
                 for _ in range(k - 1)]
        elems.append(rand_prim_element(rng, n, "vector", rank=2, max_degree=2))
        assert check_stasheff(k, elems).is_zero


def test_product_is_genuinely_non_associative():
    # the associator is generally nonzero; the degree-3 identity says it is
    # exactly the failure absorbed by m3 and by m1 of m3
    rng = random.Random(60)
    witnesses = 0
    for _ in range(120):
        n = rng.choice([1, 2])
        triple = [rand_prim_element(rng, n, max_degree=2) for _ in range(3)]
        left = m2(m2(triple[0], triple[1]), triple[2])
        right = m2(triple[0], m2(triple[1], triple[2]))
        associator = add_elements(left, scale_element(-1, right))
        if not associator.is_zero:
            witnesses += 1
        assert check_stasheff(3, triple).is_zero
    assert witnesses > 0


def test_incomposable_fibers_raise():
    rng = random.Random(8)
    a = rand_prim_element(rng, 2, "vector", rank=2, side=PLUS, s=0)
    b = rand_prim_element(rng, 2, "vector", rank=2, side=PLUS, s=0)
    with pytest.raises(TypeError):
        m2(a, b)


def test_products_refuse_elements_on_two_charts():
    # a zero result too: its position depends on n
    low, high = PrimElement(MINUS, 0, Form.const(2, 1)), PrimElement(PLUS, 0, Form.const(3, 1))
    for product in (lambda: m2(low, high), lambda: m3(low, high, high),
                    lambda: m3(high, high, low)):
        with pytest.raises(ValueError, match="^chart dimension mismatch$"):
            product()


def test_grading_position_map():
    assert grading_position(2, 0) == (PLUS, 0)
    assert grading_position(2, 2) == (PLUS, 2)
    assert grading_position(2, 3) == (MINUS, 2)
    assert grading_position(2, 5) == (MINUS, 0)
    assert grading_position(2, 6) is None


def _draws(rng, n, fiber, where):
    # elements at the positions ``where``; a vector fiber sits in the last
    # slot, after matrices acting on it, as in the twisting series
    kinds = ["matrix" if fiber == "vector" else fiber] * (len(where) - 1) + [fiber]
    return [rand_prim_element(rng, n, kind, 2, side, s, max_degree=1)
            for kind, (side, s) in zip(kinds, where)]


@pytest.mark.parametrize("fiber", ["scalar", "vector", "matrix"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_grading_law_zeros_included(n, fiber):
    # every map has a fixed degree, so every result, zero or not, sits at a
    # grading fixed by its inputs: m_k at the sum plus 2 - k, the Stasheff
    # residual at the sum plus 3 - k, twisted_m1 one above, map_f and map_g
    # at their input's; zeros past the ends of the complex included
    rng = random.Random(80 + 3 * n + len(fiber))
    positions = [grading_position(n, g) for g in range(2 * n + 2)]
    zeros = 0
    for k, m in ((1, m1), (2, m2), (3, m3)):
        tuples = list(itertools.product(positions, repeat=k))
        for where in (tuples if k < 3 else rng.sample(tuples, 40)):
            inputs = _draws(rng, n, fiber, where)
            total = sum(e.grading for e in inputs)
            for args in (inputs, [scale_element(0, inputs[0])] + inputs[1:]):
                value = m(*args)
                zeros += value.is_zero
                assert value.grading == total + 2 - k, (where, value)
    assert zeros > len(positions) ** 2  # (-,-), m3 and P0- zeros among them
    for k in (1, 2, 3, 4):
        for _ in range(3):
            inputs = _draws(rng, n, fiber, [rng.choice(positions) for _ in range(k)])
            residual = check_stasheff(k, inputs)
            assert residual.is_zero
            assert residual.grading == sum(e.grading for e in inputs) + 3 - k
    if fiber != "vector":
        return
    conn = generate_flat(n, 2, [[1, 0], [1, 2]])
    for grading, (side, s) in enumerate(positions):
        b = rand_prim_element(rng, n, "vector", 2, side, s, max_degree=1)
        for element in (b, scale_element(0, b)):
            assert twisted_m1(conn, element).grading == grading + 1
            assert map_g(conn, element).grading == grading
        assert map_f(conn, rand_cone_element(rng, conn, grading, 1)).grading == grading
    for grading in range(-1, 2 * n + 3):
        assert map_f(conn, ConeElement.zero(n, 2, grading)).grading == grading


def test_add_elements_refuses_a_zero_at_another_position():
    x = PrimElement(PLUS, 1, lambda_standard(2))
    bottom = PrimElement(MINUS, 0, Form.const(2, 1))
    # zeros the maps return past the end of the complex, at (-, -1) and
    # (-, -3), and a zero at P1-, none of them at x's P1+
    for zero in (m1(bottom), m2(bottom, PrimElement(MINUS, 2, Form.zero(2, 2))),
                 scale_element(0, PrimElement(MINUS, 1, lambda_standard(2)))):
        assert zero.is_zero
        for pair in ((zero, x), (x, zero)):
            with pytest.raises(ValueError, match="^cannot add P"):
                add_elements(*pair)
    # at its own position a zero adds as nothing
    zero = scale_element(0, x)
    assert add_elements(zero, x) == x == add_elements(x, zero)
    assert (zero.side, zero.s) == (PLUS, 1)


def test_payload_must_be_primitive():
    with pytest.raises(ValueError):
        PrimElement(PLUS, 2, wedge(Form.dx(2, 1), Form.dy(2, 1)))


def test_trusted_element_equals_checked_one():
    beta = rand_primitive_form(random.Random(3), 2, 2)
    trusted = PrimElement._at(3, beta)
    assert trusted == PrimElement(MINUS, 2, beta)
    assert trusted.grading == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.s = 1
