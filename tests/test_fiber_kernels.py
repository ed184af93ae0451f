"""The fused fiber kernels against the per-entry reference of ``oracle``.

A fiber form is one numerator dict over one denominator; every kernel runs
once over it.  Each test draws vector and matrix forms with zero entries
(some labelled with another degree) and entries over different
denominators, and compares each kernel with the same operation run entry
by entry: the value, the degree label and the ``repr``, which also pins
the index order inside each entry.  Every result is also checked to be
canonical and to come back unchanged through the public constructor.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from primflat.forms import FiberForm, Form, MatrixForm, VectorForm, exterior_d, wedge
from primflat.lefschetz import L_power, decompose, is_primitive, pi_p, star_r
from primflat.sampling import rand_form

from oracle import (by_entries, decompose_by_entries, equal_by_entries, plus_by_entries,
                    wedge_by_entries)

CASES = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3)]


def rand_entry(rng, n, degree):
    roll = rng.random()
    if roll < 0.25:
        return Form.zero(n, rng.choice([degree, 0, 2 * n + 1]))
    entry = rand_form(rng, n, degree)
    return entry.scaled(Fraction(1, 5)) if roll > 0.85 else entry


def rand_fiber(rng, kind, n, r, degree):
    if kind == "vector":
        return VectorForm([rand_entry(rng, n, degree) for _ in range(r)], degree)
    return MatrixForm([[rand_entry(rng, n, degree) for _ in range(r)] for _ in range(r)], degree)


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    values = [c for monos in x.num.values() for c in monos.values()]
    assert all(x.num.values()) and all(values)
    assert gcd(x.den, *values) == 1 and (x.num or x.den == 1)
    slots = x.rank if isinstance(x, VectorForm) else x.rank ** 2
    assert all(0 <= slot < slots and len(idx) == x.degree for slot, idx in x.num)
    rebuilt = type(x)(x.entries, x.degree)
    assert (rebuilt.num, rebuilt.den, repr(rebuilt)) == (x.num, x.den, repr(x))


def assert_same(fused, reference):
    assert isinstance(fused, FiberForm) and type(fused) is type(reference)
    assert_canonical(fused)
    assert fused == reference and equal_by_entries(fused, reference)
    assert fused.degree == reference.degree
    assert repr(fused) == repr(reference)


@pytest.mark.parametrize("n,r", CASES)
def test_wedge_matches_the_entrywise_products(n, r):
    rng = random.Random(1000 + 10 * n + r)
    for _ in range(4):
        p, q = rng.randint(0, 2 * n), rng.randint(0, 2 * n)
        scalar = rand_form(rng, n, p)
        vec = rand_fiber(rng, "vector", n, r, q)
        mat, other = rand_fiber(rng, "matrix", n, r, p), rand_fiber(rng, "matrix", n, r, q)
        for a, b in [(scalar, vec), (scalar, mat), (vec, scalar), (mat, scalar),
                     (mat, vec), (mat, other), (other, mat), (Form.zero(n, p), vec)]:
            assert_same(wedge(a, b), wedge_by_entries(a, b))


@pytest.mark.parametrize("n,r", CASES)
def test_d_and_the_lefschetz_maps_match_the_entrywise_ones(n, r):
    rng = random.Random(2000 + 10 * n + r)
    for _ in range(3):
        for kind in ("vector", "matrix"):
            k = rng.randint(0, 2 * n)
            a = rand_fiber(rng, kind, n, r, k)
            assert_same(exterior_d(a), by_entries(exterior_d, a, k + 1))
            for p in range(-2, 3):
                assert_same(L_power(p, a), by_entries(lambda e: L_power(p, e), a, k + 2 * p))
            for p in range(3):
                assert_same(pi_p(p, a), by_entries(lambda e: pi_p(p, e), a, k))
            assert_same(star_r(a), by_entries(star_r, a, 2 * n - k))
            fused, reference = decompose(a), decompose_by_entries(a)
            assert fused.keys() == reference.keys()
            for comp in fused:
                assert_same(fused[comp], reference[comp])
            for x in (a, pi_p(0, a), pi_p(0, a).scaled(0)):
                assert is_primitive(x) == all(is_primitive(e) for e in x.flat)


@pytest.mark.parametrize("n,r", CASES)
def test_linear_operations_match_the_entrywise_ones(n, r):
    rng = random.Random(3000 + 10 * n + r)
    for _ in range(4):
        for kind in ("vector", "matrix"):
            k = rng.randint(0, 2 * n)
            a, b = rand_fiber(rng, kind, n, r, k), rand_fiber(rng, kind, n, r, k)
            zero = rand_fiber(rng, kind, n, r, 2 * n + 1).scaled(0)
            for x, y in [(a, b), (a, a), (a, zero), (zero, a), (zero, zero)]:
                assert_same(x + y, plus_by_entries(x, y, 1))
                assert_same(x - y, plus_by_entries(x, y, -1))
                assert (x == y) == equal_by_entries(x, y)
            assert_same(-a, by_entries(lambda e: -e, a, k))
            for value in (0, 1, -1, 6, Fraction(-2, 3)):
                assert_same(a.scaled(value), by_entries(lambda e: e.scaled(value), a, k))
            assert zero == zero.scaled(3) and (a == zero) == a.is_zero


def test_zero_fiber_forms_of_any_degree_label_are_equal():
    for kind in (VectorForm, MatrixForm):
        assert kind.zero(2, 1, 2) == kind.zero(2, 7, 2)
        assert kind.zero(2, 1, 2) != kind.zero(2, 1, 3)
