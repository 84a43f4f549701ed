"""Recursive-descent parser for polynomial expressions in x.

Grammar (whitespace ignored, like terms combined):

    expr := ['-'] term (('+'|'-') term)*
    term := int ['*'] [var] | var
    var  := 'x' ['^' uint]

Round-trips with the canonical printer: parse(format_poly(q)) == q.
"""

from __future__ import annotations

from .errors import ParseError
from .poly import IntPolynomial

_MINUS = "-−"  # ASCII hyphen and the unicode minus sign

# Coefficients are stored densely, so the exponent bounds the memory taken.
MAX_DEGREE = 10_000


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a digit", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past Python's limit on digits converted from text
            raise ParseError("integer has too many digits", start) from None


def parse_poly(text: str) -> IntPolynomial:
    s = _Scanner(text)
    if s.peek() == "":
        raise ParseError("empty polynomial", s.pos)
    coeffs: dict[int, int] = {}
    first = True
    while True:
        sign = 1
        c = s.peek()
        if first and c in _MINUS:
            s.advance()
            sign = -1
        elif not first:
            if c == "+":
                s.advance()
            elif c in _MINUS:
                s.advance()
                sign = -1
            else:
                raise ParseError(f"expected '+' or '-', got {c!r}", s.pos)
        coef, power = _parse_term(s)
        coeffs[power] = coeffs.get(power, 0) + sign * coef
        first = False
        s.skip_ws()
        if s.pos >= len(s.text):
            break
    size = max(coeffs) + 1 if coeffs else 0
    out = [0] * size
    for k, v in coeffs.items():
        out[k] = v
    return IntPolynomial(out)


def _parse_term(s: _Scanner) -> tuple[int, int]:
    c = s.peek()
    if c.isdecimal():
        coef = s.read_uint()
        c = s.peek()
        if c == "*":
            s.advance()
            if s.peek() != "x":
                raise ParseError("expected 'x' after '*'", s.pos)
        if s.peek() == "x":
            s.advance()
            return coef, _parse_power(s)
        return coef, 0
    if c == "x":
        s.advance()
        return 1, _parse_power(s)
    raise ParseError(f"expected an integer or 'x', got {c!r}", s.pos)


def _parse_power(s: _Scanner) -> int:
    if s.peek() == "^":
        s.advance()
        s.skip_ws()
        start = s.pos
        e = s.read_uint()
        if e > MAX_DEGREE:
            raise ParseError(f"exponent above the maximum degree {MAX_DEGREE}", start)
        return e
    return 1
