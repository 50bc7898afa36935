"""Literal grammar round trips and error handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicloop.eisenstein import ONE, PI, THETA, DigitVector, from_digits, nu
from cubicloop.parsing import (
    ParseError,
    format_digits,
    parse_element,
    parse_point,
)

digit_lists = st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=12)


class TestParseElement:
    def test_examples(self):
        assert parse_element("-1+p^2") == -ONE + PI**2
        assert parse_element("(1+T)*p^2") == (ONE + THETA) * PI**2
        assert parse_element("T") == THETA
        assert parse_element("2*p") == 2 * PI

    def test_precedence(self):
        assert parse_element("1+2*p^2") == ONE + 2 * PI**2
        assert parse_element("-p^2") == -(PI**2)

    @pytest.mark.parametrize("bad", ["", "1+", "x", "p^", "p^-1", "(1", "1)2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_element(bad)


class TestPoints:
    def test_example(self):
        coords = parse_point("1:-1+p^2:p:-p")
        assert coords == (ONE, -ONE + PI**2, PI, -PI)

    @pytest.mark.parametrize("bad", ["1:2:3", "1:2:3:4:5", "1:2:3:x"])
    def test_arity_and_content(self, bad):
        with pytest.raises(ParseError):
            parse_point(bad)


class TestFormatting:
    def test_examples(self):
        assert format_digits(DigitVector((1, -1, 0))) == "1-p"
        assert format_digits(DigitVector((0, 0, 1))) == "p^2"
        assert format_digits(DigitVector((0, 0, 0))) == "0"

    @given(digit_lists)
    def test_round_trip_through_literal(self, digits):
        d = DigitVector(tuple(digits))
        x = parse_element(format_digits(d))
        assert nu(x - from_digits(d)) >= len(digits)
