"""Parser for polynomial expressions in x.

Grammar (whitespace ignored, like terms combined):

    expr := ['-'] term (('+'|'-') term)*
    term := int ['*'] [var] | var
    var  := 'x' ['^' uint]

One regex, _TOKEN, reads the text as tokens after optional whitespace: a run
of decimal digits (Unicode category Nd, as str.isdecimal), one other character,
or "" at the end.  Tokens are read lazily: the parse stops at the first bad one.

Round-trips with the canonical printer: parse(format_poly(q)) == q.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .poly import IntPolynomial

_MINUS = "-−"  # ASCII hyphen and the unicode minus sign

# Coefficients are stored densely, so the exponent bounds the memory taken.
MAX_DEGREE = 10_000

# \Z ends the text in one match: without it, trailing whitespace would be
# retried from each of its positions
_TOKEN = re.compile(r"\s*(\d+|\S|\Z)")


def _uint(tok: str, at: int) -> int:
    try:
        return int(tok)
    except ValueError:  # past Python's limit on digits converted from text
        raise ParseError("integer has too many digits", at) from None


def parse_poly(text: str) -> IntPolynomial:
    tokens = ((m[1], m.start(1)) for m in _TOKEN.finditer(text))
    tok, at = next(tokens)
    if not tok:
        raise ParseError("empty polynomial", at)
    coeffs: dict[int, int] = {}
    sign = 1
    if tok in _MINUS:
        sign = -1
        tok, at = next(tokens)
    while True:
        if tok.isdecimal():
            coef = _uint(tok, at)
            tok, at = next(tokens)
            if tok == "*":
                tok, at = next(tokens)
                if tok != "x":
                    raise ParseError("expected 'x' after '*'", at)
        elif tok == "x":
            coef = 1
        else:
            raise ParseError(f"expected an integer or 'x', got {tok!r}", at)
        power = 0
        if tok == "x":
            power = 1
            tok, at = next(tokens)
            if tok == "^":
                tok, at = next(tokens)
                if not tok.isdecimal():
                    raise ParseError("expected a digit", at)
                power = _uint(tok, at)
                if power > MAX_DEGREE:
                    raise ParseError(f"exponent above the maximum degree {MAX_DEGREE}", at)
                tok, at = next(tokens)
        coeffs[power] = coeffs.get(power, 0) + sign * coef
        if not tok:
            break
        if tok == "+":
            sign = 1
        elif tok in _MINUS:
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {tok[:1]!r}", at)  # a digit run by its first digit
        tok, at = next(tokens)
    return IntPolynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])
