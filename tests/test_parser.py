import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicval.errors import ParseError
from padicval.parser import MAX_DEGREE, parse_poly
from padicval.poly import IntPolynomial, format_poly


def test_example1_poly():
    assert parse_poly("x^5+2x^3+3") == IntPolynomial([3, 0, 0, 2, 0, 1])


def test_example2_h():
    assert parse_poly("x^4-x^3+3x^2-3x+3") == IntPolynomial([3, -3, 3, -1, 1])


def test_star_and_spaces():
    assert parse_poly(" 2 * x^3 + x - 5 ") == IntPolynomial([-5, 1, 0, 2])


def test_like_terms_combine():
    assert parse_poly("x+x+1-2") == IntPolynomial([-1, 2])


def test_leading_minus():
    assert parse_poly("-x+1") == IntPolynomial([1, -1])


def test_bare_integer():
    assert parse_poly("42") == IntPolynomial([42])


def test_paren_rejected():
    with pytest.raises(ParseError) as e:
        parse_poly("(bad")
    assert e.value.offset == 0


def test_empty_rejected():
    with pytest.raises(ParseError):
        parse_poly("   ")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_poly("x^2 y")


def test_degree_cap():
    assert MAX_DEGREE == 10_000
    assert parse_poly("x^10000+1").degree == 10_000
    with pytest.raises(ParseError) as e:
        parse_poly("x+x^ 10001")
    assert e.value.offset == 5


@pytest.mark.parametrize("text, offset", [("1" * 5000 + "x", 0), ("x^2+" + "1" * 5000, 4)],
                         ids=["first_term", "second_term"])
def test_overlong_integer_rejected(text, offset):
    # past Python's limit on digits converted from text
    with pytest.raises(ParseError) as e:
        parse_poly(text)
    assert e.value.offset == offset


@given(st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=11).map(IntPolynomial))
@settings(max_examples=300)
def test_round_trip(q):
    assert parse_poly(format_poly(q)) == q


@pytest.mark.parametrize("text, message, offset", [
    ("x^²", "expected a digit", 2),
    ("²x", "expected an integer or 'x', got '²'", 0),
    ("x+³", "expected an integer or 'x', got '³'", 2),
    ("   ", "empty polynomial", 3),
    ("x^2 y", "expected '+' or '-', got 'y'", 4),
    ("x 34", "expected '+' or '-', got '3'", 2),
    ("2*y", "expected 'x' after '*'", 2),
    ("x^", "expected a digit", 2),
    ("x+", "expected an integer or 'x', got ''", 2),
    ("--x", "expected an integer or 'x', got '-'", 1),
    ("+x", "expected an integer or 'x', got '+'", 0),
    ("x^ 10001", "exponent above the maximum degree 10000", 3),
], ids=["exponent", "coefficient", "second_term", "blank", "trailing_letter", "digits_after_x",
        "star_without_x", "caret_at_end", "sign_at_end", "double_minus", "leading_plus",
        "degree_after_space"])
def test_superscript_digits_rejected(text, message, offset):
    # str.isdigit() holds for superscripts, which int() rejects; the other rows pin
    # each message and offset the grammar can raise
    with pytest.raises(ParseError) as e:
        parse_poly(text)
    assert (str(e.value), e.value.offset) == (f"{message} (at offset {offset})", offset)


@pytest.mark.parametrize("text, coeffs", [("x^１０", [0] * 10 + [1]), ("٣x+1", [1, 3])],
                         ids=["fullwidth", "arabic_indic"])
def test_other_decimal_digits_parse(text, coeffs):
    assert parse_poly(text) == IntPolynomial(coeffs)


def test_stops_at_first_bad_token():
    # the text is tokenized lazily: a bad character ends the parse before the rest is read
    text = "x" + "y" * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as e:
            parse_poly(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.offset == 1
    assert peak < 64 * 1024


@pytest.mark.parametrize("text, offset", [("x" + " " * 10**5, None), (" " * 10**5, 10**5),
                                          ("x+" + " " * 10**5, 10**5 + 2)],
                         ids=["after_term", "blank", "after_sign"])
def test_trailing_whitespace_linear(text, offset):
    # a run of whitespace is read once, not once per starting position (2.5 s at 10^4 if it were)
    start = time.perf_counter()
    if offset is None:
        assert parse_poly(text) == IntPolynomial([0, 1])
    else:
        with pytest.raises(ParseError) as e:
            parse_poly(text)
        assert e.value.offset == offset
    assert time.perf_counter() - start < 1.0
