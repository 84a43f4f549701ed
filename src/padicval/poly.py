"""Exact integer polynomial arithmetic.

Polynomials are immutable, stored low-degree first, and always trimmed so
that the top stored coefficient is nonzero (the zero polynomial is the
empty tuple).  Everything here is arbitrary precision; performance
shortcuts live in the recurrence engines, not in this module.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, repeat
from math import gcd, isqrt
from operator import mul
from typing import Iterable, Iterator

from .errors import ZeroPolynomialError
from .padic import Prime, _gf_gcd, classify_prime, hensel_lift, is_prime


class IntPolynomial:
    __slots__ = ("coeffs",)  # coeffs[i] multiplies x**i; trimmed

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: IntPolynomial is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if isinstance(other, IntPolynomial) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __reduce__(self):
        return IntPolynomial, (self.coeffs,)

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self[i] + other[i] for i in range(n))

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: int) -> int:
        """Exact value at an integer point, Horner order."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_mod(self, x: int, m: int) -> int:
        """Value mod m in [0, m-1]; intermediates stay reduced mod m."""
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        acc = 0
        x %= m
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    # -- calculus / substitution -------------------------------------------

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def affine_substitute(self, a: int, b: int) -> "IntPolynomial":
        """The polynomial R with R(k) = self(a*k + b), computed exactly: a Taylor shift to
        self(x + b) by repeated synthetic division, then coefficient i times a^i."""
        c, n = list(self.coeffs), len(self.coeffs)
        for i in range(n - 1 if b else 0):  # pass i leaves in c[i] the remainder of division i + 1 by x - b
            for j in range(n - 2, i - 1, -1):
                c[j] += b * c[j + 1]
        return IntPolynomial(map(mul, c, accumulate(repeat(a), mul, initial=1)))

    # -- content and normalization -----------------------------------------

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self) -> "IntPolynomial":
        """self divided by its content, leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial(c // g for c in self.coeffs)

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def format_poly(q: IntPolynomial) -> str:
    """Canonical text form: descending degree, e.g. "x^5+2*x^3+3"."""
    if q.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(q.degree, -1, -1):
        c = q[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "x" if k == 1 else f"x^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(sign + body)
    return "".join(parts)


def integer_poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd in Z[x], positive leading coefficient.

    A big-prime modular gcd (W. S. Brown, J. ACM 18, 1971; von zur Gathen
    and Gerhard, Modern Computer Algebra, 6.4).  Let g be the gcd, c =
    gcd(lc a, lc b) and d the smaller degree.  Landau-Mignotte bounds the
    coefficients of (c / lc g)·g by c·2^d·min(|a|_2, |b|_2), so for a prime l
    above twice that, c times the monic gcd mod l lifts to it exactly in
    symmetric residues unless l divides lc a, lc b or res(a/g, b/g).  The
    gcd mod l never has lower degree than g, so a candidate that divides
    both a and b is g, at any l; otherwise l was unlucky and the next prime
    is tried.  So the primes are one sequence: the word-size 2^61 - 1 first,
    whatever the bound, then the primes past the bound.
    """
    if a.is_zero and b.is_zero:
        raise ZeroPolynomialError("gcd of two zero polynomials")
    if a.is_zero or b.is_zero:
        return (a or b).primitive_part()
    a, b = a.primitive_part(), b.primitive_part()
    c = gcd(a.leading, b.leading)
    for ell in chain([2**61 - 1], _primes_past_bound(a, b, c)):
        if a.leading % ell and b.leading % ell:
            g = _gf_gcd([x % ell for x in a.coeffs], [x % ell for x in b.coeffs], ell)
            if len(g) == 1:  # the gcd over Z has no higher degree than g, so it is 1
                return IntPolynomial([1])
            g = IntPolynomial((c * x + ell // 2) % ell - ell // 2 for x in g).primitive_part()
            try:
                poly_divexact(a, g)
                poly_divexact(b, g)
            except ValueError:
                continue
            return g


def _primes_past_bound(a: IntPolynomial, b: IntPolynomial, c: int) -> Iterator[int]:
    """The primes above twice the Landau-Mignotte bound, found only once 2^61 - 1 was unlucky."""
    norm = min(isqrt(sum(x * x for x in q.coeffs)) + 1 for q in (a, b))
    yield from filter(is_prime, count((2 * c * norm << min(a.degree, b.degree)) + 1))


def poly_divexact(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Quotient a / b when b divides a exactly in Z[x]; raises otherwise."""
    if b.is_zero:
        raise ZeroPolynomialError("division by zero polynomial")
    r = list(a.coeffs)
    db, lc = b.degree, b.leading
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c, rem = divmod(r[i], lc)
        if rem:
            raise ValueError(f"{b} does not divide {a} exactly")
        q[i - db] = c
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
    if any(r):
        raise ValueError(f"{b} does not divide {a} exactly")
    return IntPolynomial(q)


def squarefree_pieces(q: IntPolynomial) -> Iterator[IntPolynomial]:
    """P_j = G_(j-1) / G_j, G_0 = q, G_j = gcd(G_(j-1), G_(j-1)') until G_j = 1 (Yun, SYMSAC
    1976; Modern Computer Algebra 14.6): squarefree, of product q, P_1 with q's roots."""
    while (g := integer_poly_gcd(q, q.derivative())).degree >= 1:
        yield poly_divexact(q, g)
        q = g
    yield q


# Primes below this are tried on Q itself; a repeated factor of Q can give
# every prime a non-simple root, so from here on Q's squarefree part is used.
# Peeling from the first prime on cost 42 µs a call against 25 µs on the
# 320 Q of ten perfbench `queries` rounds of seed 1 (Python 3.11, shared
# 2-core host, the gcd taken mod 2^61 - 1): only 31 of them reach this
# prime, and the others need no gcd at all.
_SQUAREFREE_FROM = 11


def nonneg_integer_roots(q: IntPolynomial) -> set[int]:
    """Exact set of roots of q in the nonnegative integers.

    Nothing is factored.  A positive root r is at most the Cauchy bound B
    and reduces mod a prime l to a root of q mod l.  At the first l where
    classify_prime finds every root mod l simple, each root mod l lifts
    uniquely (hensel_lift) to a root mod some l^k > B, so r is one of
    these lifts.  Such an l exists once q is squarefree: any l not
    dividing its discriminant.
    """
    if q.is_zero:
        raise ZeroPolynomialError("zero polynomial vanishes everywhere")
    coeffs = q.coeffs
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    roots: set[int] = {0} if shift else set()
    r = IntPolynomial(coeffs[shift:])
    if min(r.coeffs) >= 0 or max(r.coeffs) <= 0:  # no sign change: no positive root
        return roots
    bound = 1 + max(abs(c) for c in r.coeffs[:-1]) // abs(r.leading)
    for ell in map(Prime._proven, filter(is_prime, count(2))):
        if ell.value == _SQUAREFREE_FROM:
            r = next(squarefree_pieces(r))
        cls = classify_prime(r, ell)
        if cls.all_roots_simple:
            break
    k = bound.bit_length() // (ell.value.bit_length() - 1)  # l^(k+1) > 2^bitlength(bound) > bound
    for x in cls.roots:
        x = hensel_lift(r, ell, x, k)
        if 0 < x <= bound and r.evaluate(x) == 0:
            roots.add(x)
    return roots
