"""Exact polynomial ring: examples and ring axioms."""

import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from primflat.connection import generate_flat
from primflat.forms import Form, MatrixForm, exterior_d, lambda_standard, wedge
from primflat.scalars import Poly, coordinate_name, monomials_up_to

from oracle import FractionPoly, fraction_polys


def x(n, i):
    return Poly.variable(n, i - 1)


def y(n, i):
    return Poly.variable(n, n + i - 1)


def scalar(p):
    """A polynomial as a degree-0 form, the ring that does the package's arithmetic."""
    return Form(p.n, 0, {(): p})


def partial(f, coord):
    """The partial derivative of a degree-0 form, read off the d(coord) term of d f."""
    return Form(f.n, 0, {(): exterior_d(f).terms.get((coord,), Poly.zero(f.n))})


def test_additive_inverse():
    p = scalar(x(2, 1))
    assert (p + (-p)).is_zero


def test_difference_of_squares():
    n = 2
    p = scalar(x(n, 1) + y(n, 1))
    q = scalar(x(n, 1)) - scalar(y(n, 1))
    assert wedge(p, q) == scalar(x(n, 1) * x(n, 1)) - scalar(y(n, 1) * y(n, 1))


def test_scale_identity():
    n = 2
    p = scalar(x(n, 1) * y(n, 2)).scaled(2)
    assert p.scaled(Fraction(1, 2)) == scalar(x(n, 1) * y(n, 2))


def test_partial_power_rule():
    n = 2
    p = scalar(x(n, 1) * x(n, 1) * y(n, 2))
    assert partial(p, 0) == scalar(x(n, 1) * y(n, 2)).scaled(2)


def test_partial_of_constant_is_zero():
    assert partial(Form.const(2, 5), 3).is_zero


def test_partial_mixed():
    n = 2
    assert partial(scalar(x(n, 1) * y(n, 1)), n) == scalar(x(n, 1))


def test_total_degree():
    n = 2
    assert scalar(x(n, 1) * x(n, 1) * y(n, 2)).coefficient_degree() == 3
    assert Form.zero(n, 0).coefficient_degree() is None
    assert Form.const(n, 7).coefficient_degree() == 0


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Poly.variable(1, 0) + Poly.variable(2, 0)


@pytest.mark.parametrize("mono", [(0.5, 0), (True, 0), (0, False), (1, -1), (0,), (0, 0, 0)],
                         ids=["float", "bool", "bool-second", "negative", "short", "long"])
def test_bad_exponent_tuples_are_refused(mono):
    # a float exponent used to fail later in partial, and a bool one was stored
    with pytest.raises(ValueError, match=re.escape(f"bad exponent tuple {mono!r} for n=1")):
        Poly(1, {mono: 1})


def test_partial_out_of_range():
    # no coordinate 4 on a 4-dim chart, and no basis covector for it
    with pytest.raises(IndexError):
        Poly.variable(2, 4)
    with pytest.raises(IndexError):
        coordinate_name(2, 4)


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
        f = scalar(p)
        assert partial(partial(f, i), j) == partial(partial(f, j), i)


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
    for n in (1, 2, 3):
        for D in range(6):
            assert monomials_up_to(n, D) == sorted(
                (m for m in itertools.product(range(D + 1), repeat=2 * n) if sum(m) <= D),
                key=lambda m: (sum(m), m))


@pytest.mark.parametrize("power", [0, 1, 2, 5, 8, 13])
def test_power_matches_repeated_multiplication(power):
    # repeated products of degree-0 forms against the oracle's power
    rng = random.Random(power)
    terms = {(rng.randint(0, 2), rng.randint(0, 2), 0, rng.randint(0, 1)):
             Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
    got = Form.const(2, 1)
    for _ in range(power):
        got = wedge(got, scalar(Poly(2, terms)))
    assert fraction_polys(got).get((), FractionPoly(2)) == FractionPoly(2, terms) ** power


def _rand_terms(rng, n):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = [0] * (2 * n)
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(2 * n)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    return terms


def _partner_terms(rng, n, terms):
    """Independent terms, a copy, the negation (the sum cancels to zero) or
    the negation with new terms over part of it."""
    pick = rng.random()
    if pick < 0.4:
        return _rand_terms(rng, n)
    if pick < 0.5:
        return dict(terms)
    negated = {mono: -c for mono, c in terms.items()}
    if pick < 0.75:
        return negated
    return {**negated, **_rand_terms(rng, n)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poly_matches_fraction_oracle(n):
    rng = random.Random(3000 + n)
    cancelled = 0
    for _ in range(70):
        ta = _rand_terms(rng, n)
        tb = _partner_terms(rng, n, ta)
        a, b = Poly(n, ta), Poly(n, tb)
        fa, fb = FractionPoly(n, ta), FractionPoly(n, tb)
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        coord, power = rng.randrange(2 * n), rng.randint(0, 3)
        for poly, fpoly in [(a, fa), (a + b, fa + fb), (a * b, fa * fb)]:
            assert poly.terms == fpoly.terms
        # the rest of the ring runs on degree-0 forms
        fpow = Form.const(n, 1)
        for _ in range(power):
            fpow = wedge(fpow, scalar(a))
        for form, fpoly in [(scalar(a), fa), (scalar(a) - scalar(b), fa - fb), (-scalar(a), -fa),
                            (scalar(a).scaled(value), fa.scaled(value)),
                            (partial(scalar(a), coord), fa.partial(coord)), (fpow, fa ** power)]:
            assert fraction_polys(form).get((), FractionPoly(n)) == fpoly
            assert form.coefficient_degree() == fpoly.total_degree()
        assert (a == b) == (fa == fb)
        assert (a == value) == (fa == value)
        cancelled += (a + b).is_zero and not a.is_zero
    assert cancelled >= 10


def _assert_canonical(p):
    """A Poly, or a degree-0 form, is int numerators in lowest terms."""
    num = p.num.get((), {}) if isinstance(p, Form) else p.num
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in num.values())
    assert gcd(p.den, *num.values()) == 1
    if not num:
        assert p.den == 1 and not p.num


@pytest.mark.parametrize("n", [1, 2])
def test_every_result_is_canonical(n):
    rng = random.Random(4000 + n)
    for _ in range(60):
        ta = _rand_terms(rng, n)
        a, b = Poly(n, ta), Poly(n, _partner_terms(rng, n, ta))
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        coord = rng.randrange(2 * n)
        for p in [a, b, a + b, b + a, a * b, b * a, Poly.const(n, value),
                  Poly.variable(n, coord), Poly.const(n, 0)]:
            _assert_canonical(p)
    zero = Poly.variable(n, 0) + Poly(n, {(1,) + (0,) * (2 * n - 1): -1})
    assert (zero.num, zero.den) == ({}, 1)
    assert (Poly.zero(n).num, Poly.zero(n).den) == ({}, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_negation_keeps_the_canonical_form(n):
    # the negated numerators over the same denominator are already
    # canonical, and p itself is left as it was
    rng = random.Random(5000 + n)
    for _ in range(100):
        p = scalar(Poly(n, _rand_terms(rng, n)))
        before = (dict(p.num.get((), {})), p.den)
        q = -p
        _assert_canonical(q)
        assert (q.num.get((), {}), q.den) == ({m: -c for m, c in before[0].items()}, p.den)
        assert fraction_polys(q) == {idx: -c for idx, c in fraction_polys(p).items()}
        assert (p + q).is_zero and -q == p
        assert (p.num.get((), {}), p.den) == before


def test_canonical_form_makes_equality_exact():
    m = (1, 0)
    half = Poly(1, {m: Fraction(1, 2)})
    assert Poly(1, {m: Fraction(2, 4)}) == half
    assert Poly.const(1, 3) == 3
    assert 3 == Poly.const(1, 3)
    assert Poly.const(1, 3) != Fraction(3, 2)
    whole = half + half
    assert (whole.num, whole.den) == ({m: 1}, 1)
    assert whole == Poly.variable(1, 0)
    # 1/6 + 1/3 = 1/2: the common factor 3 of the sum is divided out
    mixed = Poly.const(1, Fraction(1, 6)) + Poly.const(1, Fraction(1, 3))
    assert (mixed.num, mixed.den) == ({(0, 0): 1}, 2)
    assert mixed.terms == {(0, 0): Fraction(1, 2)}


def test_exact_rational_contract_rejects_floats():
    # every scalar entry point coerces through one helper; a float is refused
    lam = lambda_standard(1)
    for build in (lambda: Poly.const(1, 0.5),
                  lambda: Form.const(1, 0.5),
                  lambda: lam.scaled(0.5),
                  lambda: Form.zero(1, 1).scaled(0.5),
                  lambda: MatrixForm.from_scalar_form([[0.5]], lam),
                  lambda: generate_flat(1, 1, [[0.5]])):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            build()
