"""Form expression syntax: parsing, printing, round trips."""

import random
import re
import time
from fractions import Fraction

import pytest

from primflat.dsl import MAX_NESTING, ParseError, parse_form, print_form
from primflat.forms import Form, VectorForm, all_indices, lambda_standard, omega
from primflat.sampling import rand_form
from primflat.scalars import Poly

from oracle import print_form_by_terms


def test_parse_omega():
    assert parse_form(r"dx1/\dy1 + dx2/\dy2", 2) == omega(2)


def test_parse_standard_potential():
    assert parse_form("x1*dy1 + x2*dy2", 2) == lambda_standard(2)


def test_parse_scaled_two_form():
    f = parse_form(r"(3/2*x1^2)*dx1/\dx2", 2)
    coeff = Poly(2, {(2, 0, 0, 0): Fraction(3, 2)})
    assert f == Form(2, 2, {(0, 1): coeff})


def test_parse_rational_and_negative_scalars():
    # a scalar expression parses to a degree-0 form
    assert parse_form("-x2", 2) == Form(2, 0, {(): Poly(2, {(0, 1, 0, 0): -1})})
    assert parse_form("3/4", 1) == Form.const(1, Fraction(3, 4))
    assert parse_form("1 - 2*y1 + y1", 1) == Form(1, 0, {(): Poly(1, {(0, 0): 1, (0, 1): -1})})


def test_parse_nested_parens():
    f = parse_form(r"((x1 + y1))*dx1 - (2)*dx1", 1)
    expected = Form(1, 1, {(0,): Poly(1, {(1, 0): 1, (0, 1): 1, (0, 0): -2})})
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


@pytest.mark.parametrize("src,column", [("1/0", 3), ("1/0*dx1", 3), ("x1 + 3/00*y1", 8)])
def test_zero_denominator_is_a_parse_error(src, column):
    with pytest.raises(ParseError, match=rf"^division by zero \(column {column}\)$"):
        parse_form(src, 1)


@pytest.mark.parametrize("src,column", [("dx1*dy1", 5), ("x1*dx1*2*dy1", 10),
                                        ("dx1*x1*(dx1-dx1)", 8), ("(dx1-dx1)*dy1", 11),
                                        ("dx1/\\dy1*dx1", 10)])
def test_two_positive_degree_factors_are_a_parse_error(src, column):
    with pytest.raises(ParseError, match=re.escape(
            f"two positive-degree factors joined by '*'; use '/\\' (column {column})")):
        parse_form(src, 1)


@pytest.mark.parametrize("src,text,degree", [("0*dx1*y1", "0", 1), ("x1*(x1-x1)*dy1", "0", 1),
                                             ("2*x1*dx1*y1^2", "(2*x1*y1^2)*dx1", 1),
                                             ("x1*3/2*y1", "3/2*x1*y1", 0),
                                             ("dx1/\\x1*dy1", "(x1)*dx1/\\dy1", 2)])
def test_scalar_factors_multiply_on_either_side(src, text, degree):
    form = parse_form(src, 1)
    assert (print_form(form), form.degree) == (text, degree)


@pytest.mark.parametrize("src,column", [("\u0661", 1), ("x\u0661", 1), ("x1^\uff12", 4),
                                        ("x1 + \u0661", 6), ("x1 +\t \u0661*dy1", 7),
                                        ("  \u0661", 3)])
def test_non_ascii_digits_are_a_parse_error(src, column):
    # \d would match any Unicode decimal digit, and int() would read it; the
    # column and the quoted text skip the whitespace before the bad character
    text = src[column - 1:column + 7]
    with pytest.raises(ParseError, match="^" + re.escape(
            f"unrecognized input {text!r} (column {column})") + "$"):
        parse_form(src, 1)


@pytest.mark.parametrize("template,column", [("{}", 1), ("2/{}", 3), ("x1^{}*dx1", 4),
                                             ("x{}", 2), ("3*dy{}", 5)])
def test_numbers_past_the_int_string_limit_are_a_parse_error(int_digit_limit, template, column):
    digits = "7" * (int_digit_limit + 1)
    with pytest.raises(ParseError, match="^" + re.escape(
            f"number of {len(digits)} digits is too long (column {column})") + "$"):
        parse_form(template.format(digits), 1)
    try:  # at the limit the number reads; an index that long is out of range
        parse_form(template.format("1" * int_digit_limit), 1)
    except ParseError as exc:
        assert "out of range" in str(exc)


@pytest.mark.parametrize("src,message", [
    ("z" + "1" * 4300, "unknown symbol 'z1111111' (column 1)"),
    ("x" + "1" * 4300, "'x1111111' out of range for chart dimension n=1 (column 1)"),
    ("(x1) " + "1" * 4301, "trailing input '11111111' (column 6)")])
def test_errors_quote_a_short_prefix_of_a_long_token(int_digit_limit, src, message):
    # each token is 4,301 characters; the message quotes its first eight
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        parse_form(src, 1)


def test_deep_nesting_is_a_parse_error():
    nested = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_form(nested, 1) == parse_form("x1", 1)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match=rf"^parentheses nested deeper than {MAX_NESTING} "
                                             rf"\(column {MAX_NESTING + 1}\)$"):
            parse_form("(" * depth + "x1" + ")" * depth, 1)


def test_degree_zero_and_zero_forms():
    assert parse_form("0", 2).is_zero
    assert print_form(Form.zero(2, 2)) == "0"
    assert parse_form(print_form(Form.zero(2, 2)), 2).is_zero


def test_print_scalar_canonical():
    p = Poly(2, {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 0): Fraction(-1)})
    assert print_form(Form(2, 0, {(): p})) == "-x2 + 3/2*x1^2"
    assert print_form(Form.zero(2, 0)) == "0"
    assert print_form(Form.const(2, -5)) == "-5"


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


@pytest.mark.parametrize("src,text", [
    ("1/2*x1 + 1/3*y1", "1/3*y1 + 1/2*x1"),
    ("-2/4*x1^2*dx1", "(-1/2*x1^2)*dx1"),
    ("(1/6)*x1*dy1 - 5/6*y1*dx1", "(-5/6*y1)*dx1 + (1/6*x1)*dy1"),
    ("1/4*x1*dy1 + 1/6*x1*dy1 - 5/12*x1*dy1", "0"),
])
def test_round_trip_mixed_denominators(src, text):
    # every coefficient is printed from the numerators over the form's one denominator
    form = parse_form(src, 1)
    assert print_form(form) == text
    assert parse_form(text, 1) == form
    assert print_form(parse_form(text, 1)) == text


def test_huge_exponent_parses_fast_and_round_trips():
    start = time.perf_counter()
    form = parse_form("x1^1000000000*dx1", 1)
    assert time.perf_counter() - start < 0.2
    assert print_form(form) == "(x1^1000000000)*dx1"


def test_numbers_past_the_int_string_limit_do_not_print(int_digit_limit):
    nines = "9" * int_digit_limit
    # a coefficient, and an exponent that grows past the limit in a product
    for form in (Form.const(1, 10 ** int_digit_limit),
                 parse_form(f"x1^{nines}*x1^{nines}*dx1", 1)):
        with pytest.raises(ValueError, match="^coefficient or exponent too long to print$"):
            print_form(form)
    assert print_form(Form.const(1, 10 ** (int_digit_limit - 1))) == "1" + "0" * (
        int_digit_limit - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_printer_matches_the_fraction_oracle(n):
    # random forms of every degree: mixed denominators, negative and unit
    # coefficients, and constant coefficients equal to 1, so that both the
    # "(coefficient)*basis" and the bare-basis spelling occur
    rng = random.Random(7000 + n)
    width = 2 * n
    bare = 0
    for degree in range(width + 1):
        indices = all_indices(n, degree)
        for _ in range(25):
            terms = {}
            for idx in rng.sample(indices, rng.randint(0, min(4, len(indices)))):
                if rng.random() < 0.25:
                    terms[idx] = Poly.const(n, 1)
                    continue
                coeffs = {}
                for _ in range(rng.randint(1, 3)):
                    mono = tuple(rng.choice((0, 0, 1, 2)) for _ in range(width))
                    coeffs[mono] = rng.choice((1, -1, Fraction(rng.randint(-9, 9),
                                                               rng.randint(1, 6))))
                terms[idx] = Poly(n, coeffs)
            form = Form(n, degree, terms)
            text = print_form(form)
            assert text == print_form_by_terms(form), terms
            bare += degree > 0 and any(t == 1 for t in terms.values())
    assert bare >= 5


def test_print_form_refuses_a_fiber_form():
    # a vector failed on comparing its (slot, index) keys with int indices
    vector = VectorForm([omega(1), Form.zero(1, 2)], 2)
    with pytest.raises(TypeError, match="got a VectorForm; fiber forms print entry by entry"):
        print_form(vector)
