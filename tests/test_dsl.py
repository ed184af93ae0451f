"""Form expression syntax: parsing, printing, round trips."""

import random
import time
from fractions import Fraction

import pytest

from primflat.dsl import ParseError, parse_form, parse_poly, print_form, print_poly
from primflat.forms import Form, lambda_standard, omega
from primflat.sampling import rand_form
from primflat.scalars import Poly


def test_parse_omega():
    assert parse_form(r"dx1/\dy1 + dx2/\dy2", 2) == omega(2)


def test_parse_standard_potential():
    assert parse_form("x1*dy1 + x2*dy2", 2) == lambda_standard(2)


def test_parse_scaled_two_form():
    f = parse_form(r"(3/2*x1^2)*dx1/\dx2", 2)
    coeff = Poly(2, {(2, 0, 0, 0): Fraction(3, 2)})
    assert f == Form(2, 2, {(0, 1): coeff})


def test_parse_rational_and_negative_scalars():
    assert parse_poly("-x2", 2) == -Poly.variable(2, 1)
    assert parse_poly("3/4", 1) == Poly.const(1, Fraction(3, 4))
    assert parse_poly("1 - 2*y1 + y1", 1) == Poly.const(1, 1) - Poly.variable(1, 1)


def test_parse_nested_parens():
    f = parse_form(r"((x1 + y1))*dx1 - (2)*dx1", 1)
    expected = Form(1, 1, {(0,): Poly.variable(1, 0) + Poly.variable(1, 1)
                           - Poly.const(1, 2)})
    assert f == expected


def test_index_out_of_range():
    with pytest.raises(ParseError):
        parse_form("dx3", 2)
    with pytest.raises(ParseError):
        parse_form("y4", 3)


def test_syntax_errors_carry_column():
    with pytest.raises(ParseError) as err:
        parse_form("dx1 + ", 2)
    assert "column" in str(err.value)
    with pytest.raises(ParseError):
        parse_form(r"dx1*dy1", 2)  # star between forms: must be a wedge
    with pytest.raises(ParseError):
        parse_form("x1 ^ dx1", 2)
    with pytest.raises(ParseError):
        parse_form("(x1", 2)
    with pytest.raises(ParseError):
        parse_form("x1 + dx1", 2)  # mixed degrees cannot be added


def test_degree_zero_and_zero_forms():
    assert parse_form("0", 2).is_zero
    assert print_form(Form.zero(2, 2)) == "0"
    assert parse_form(print_form(Form.zero(2, 2)), 2).is_zero


def test_print_poly_canonical():
    p = Poly(2, {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 0): Fraction(-1)})
    assert print_poly(p) == "-x2 + 3/2*x1^2"
    assert print_poly(Poly.zero(2)) == "0"
    assert print_poly(Poly.const(2, -5)) == "-5"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_random_forms(n):
    rng = random.Random(500 + n)
    for _ in range(80):
        k = rng.randint(0, 2 * n)
        f = rand_form(rng, n, k, max_degree=3, max_terms=3)
        assert parse_form(print_form(f), n) == f


def test_round_trip_is_byte_stable():
    rng = random.Random(9)
    f = rand_form(rng, 2, 2, max_degree=3)
    text = print_form(f)
    assert print_form(parse_form(text, 2)) == text


def test_huge_exponent_parses_fast_and_round_trips():
    start = time.perf_counter()
    form = parse_form("x1^1000000000*dx1", 1)
    assert time.perf_counter() - start < 0.2
    assert print_form(form) == "(x1^1000000000)*dx1"
