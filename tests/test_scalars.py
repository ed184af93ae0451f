"""Exact polynomial ring: examples and ring axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from primflat.scalars import Poly, coordinate_name, monomials_up_to


def x(n, i):
    return Poly.variable(n, i - 1)


def y(n, i):
    return Poly.variable(n, n + i - 1)


def test_additive_inverse():
    p = x(2, 1)
    assert (p + (-p)).is_zero


def test_difference_of_squares():
    n = 2
    p = x(n, 1) + y(n, 1)
    q = x(n, 1) - y(n, 1)
    assert p * q == x(n, 1) * x(n, 1) - y(n, 1) * y(n, 1)


def test_scale_identity():
    n = 2
    p = (x(n, 1) * y(n, 2)).scaled(2)
    assert Fraction(1, 2) * p == x(n, 1) * y(n, 2)


def test_partial_power_rule():
    n = 2
    p = x(n, 1) * x(n, 1) * y(n, 2)
    assert p.partial(0) == (x(n, 1) * y(n, 2)).scaled(2)


def test_partial_of_constant_is_zero():
    assert Poly.const(2, 5).partial(3).is_zero


def test_partial_mixed():
    n = 2
    assert (x(n, 1) * y(n, 1)).partial(n) == x(n, 1)


def test_total_degree():
    n = 2
    assert (x(n, 1) * x(n, 1) * y(n, 2)).total_degree() == 3
    assert Poly.zero(n).total_degree() is None
    assert Poly.const(n, 7).total_degree() == 0


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Poly.variable(1, 0) + Poly.variable(2, 0)


def test_partial_out_of_range():
    with pytest.raises(IndexError):
        Poly.const(2, 1).partial(4)


def _rand_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = [0] * (2 * n)
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(2 * n)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return Poly(n, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_axioms_randomized(n):
    rng = random.Random(1000 + n)
    for _ in range(120):
        a, b, c = (_rand_poly(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partials_commute(n):
    rng = random.Random(2000 + n)
    for _ in range(100):
        p = _rand_poly(rng, n)
        i, j = rng.randrange(2 * n), rng.randrange(2 * n)
        assert p.partial(i).partial(j) == p.partial(j).partial(i)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=100)
def test_constant_subring_matches_fractions(a, b, c):
    n = 1
    pa, pb, pc = (Poly.const(n, v) for v in (a, b, c))
    assert pa * (pb + pc) == Poly.const(n, a * (b + c))


def test_coordinate_names():
    assert coordinate_name(2, 0) == "x1"
    assert coordinate_name(2, 1) == "x2"
    assert coordinate_name(2, 2) == "y1"
    assert coordinate_name(2, 3) == "y2"


def test_monomial_enumeration_counts():
    # degree <= D in m variables: C(D + m, m)
    assert len(monomials_up_to(1, 3)) == 10
    assert len(monomials_up_to(2, 2)) == 15
    monos = monomials_up_to(2, 4)
    assert len(monos) == len(set(monos))
    assert all(sum(m) <= 4 for m in monos)
    assert monos == sorted(monos, key=lambda m: (sum(m), m))


@pytest.mark.parametrize("power", [0, 1, 2, 5, 8, 13])
def test_power_matches_repeated_multiplication(power):
    rng = random.Random(power)
    p = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2), 0, rng.randint(0, 1)):
                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)})
    expected = Poly.const(2, 1)
    for _ in range(power):
        expected = expected * p
    assert p ** power == expected
