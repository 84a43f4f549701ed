"""Prime-level primitives.

Integer valuations, base-p digit sums, the factorial-valuation formula,
roots of a polynomial mod p, Hensel-zero classification, digit-by-digit
Hensel lifting, and the node step of the p-adic descent.  Residues are
canonicalized to [0, p-1] throughout.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field
from itertools import islice
from operator import mul
from typing import Iterator

from .errors import (
    NotARootError,
    NotSimpleRootError,
    PolynomialVanishesModP,
    ValuationOfZeroError,
)
from .poly import IntPolynomial

# Below the threshold an exhaustive residue scan finds roots; above it we
# first split off the product of linear factors via gcd with x^p - x.  On
# the 564 primes below 4096, at degrees 2, 5, 8 and 12 (best of five runs,
# two sets, on a shared 2-core host whose run-to-run spread reached 1.6
# times), every threshold from 4 to 128 classified Q within that spread of
# the fastest, and so did 256 and 512 except at degree 2 (1.9 to 4.1
# times); 4096 took 13 to 25 times as long at degrees 5 to 12, and 110 to
# 151 times at degree 2.  It must stay above 2: the quadratic formula
# needs an odd p.
SCAN_THRESHOLD = 64

# The shift a of the first split, which the x^p ladder computes as
# (x + a)^p = x^p + a.  It must be nonzero: at a = 0 roots of unity of one
# order share their quadratic character, and the first split would leave
# every such product whole.
_FIRST_SHIFT = 1

# Trial division by these primes comes before the probable-prime tests.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_probable_prime_base2(n: int) -> bool:
    """Miller-Rabin to base 2, for odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2 not a square.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1; P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or
    V_(d*2^r) = 0 mod n for some 0 <= r < s.
    """
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def halve(x: int) -> int:
        return (x + n if x % 2 else x) // 2

    U, V, Qk = 1, 1, Q % n  # index k = 1, then k -> 2k or 2k + 1 per bit of d
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = halve((U + V) % n), halve((D * U + V) % n)
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division, Miller-Rabin to base 2 and a strong Lucas test.

    Exact below 2^64 and with no known counterexample above (Baillie and
    Wagstaff, Lucas pseudoprimes, Math. Comp. 35, 1980).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return (
        _strong_probable_prime_base2(n)
        and math.isqrt(n) ** 2 != n
        and _strong_lucas_probable_prime(n)
    )


@dataclass(frozen=True, order=True)
class Prime:
    value: int

    def __post_init__(self):
        if not is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    @classmethod
    def _proven(cls, value: int) -> Prime:
        """A Prime for a value already proved prime (by the sieve), without re-testing it."""
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        return self

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def primes_first(count: int) -> list[Prime]:
    """The first `count` primes, by sieve."""
    if count <= 0:
        return []
    # overshoot bound: p_k < k (ln k + ln ln k) for k >= 6
    if count < 6:
        limit = 15
    else:
        limit = int(count * (math.log(count) + math.log(math.log(count)))) + 10
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        found = [i for i in range(limit + 1) if sieve[i]]
        if len(found) >= count:
            return [Prime._proven(p) for p in found[:count]]
        limit *= 2


# -- valuations -----------------------------------------------------------


def int_valuation(x: int, p: Prime) -> int:
    """Largest e with p^e dividing |x|.  Undefined (raises) at x = 0."""
    if x == 0:
        raise ValuationOfZeroError("valuation of 0 is undefined")
    pv = p.value
    e = 0
    x = abs(x)
    while True:
        q, r = divmod(x, pv)
        if r:
            return e
        x = q
        e += 1


def digit_sum(n: int, p: Prime) -> int:
    """Sum of the base-p digits of n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pv = p.value
    s = 0
    while n:
        n, r = divmod(n, pv)
        s += r
    return s


def legendre_factorial_valuation(n: int, p: Prime) -> int:
    """Valuation of n! at p via (n - digit_sum(n)) / (p - 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = n - digit_sum(n, p)
    q, r = divmod(num, p.value - 1)
    assert r == 0
    return q


# -- GF(p)[x] helpers (lists, low-degree first, coefficients in [0,p-1]) --


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_divide(r: list[int], b: list[int], p: int) -> int:
    """Divide r by b in place and return d = deg b.

    Each top coefficient becomes a quotient coefficient c, and c times the
    divisor below its lead is subtracted from the places under it, so the
    quotient ends in r[d:] and the remainder in r[:d].
    """
    inv = pow(b[-1], -1, p)
    d = len(b) - 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] = r[i] * inv % p
        if c:
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * b[j]) % p
    return d


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    d = _gf_divide(r, b, p)
    return _gf_trim(r[d:]), _gf_trim(r[:d])


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, by Euclid's algorithm on copies of them."""
    a, b = list(a), list(b)
    while b:
        del a[_gf_divide(a, b, p) :]
        a, b = b, _gf_trim(a)
    return _gf_monic(a, p) if a else a


def _gf_powmod(a: int, e: int, f: list[int], p: int) -> tuple[list[int], list[int]]:
    """(x + a)^e and (x + a)^(e >> 1) mod monic f of degree n, for 0 <= a < p.

    Left-to-right square and multiply: the value before the last step is
    the half power, so (x + a)^p comes with (x + a)^((p-1)/2).
    Kronecker substitution: a residue is one int with coefficient i in slot
    i, so a polynomial product is one int product.  A slot is the fewest
    64-bit limbs that hold 2*n^2*p^3, so no slot ever carries:
    - a square has slots below n*p^2, and times x + a below n*p^3;
    - its slots at k >= n, reduced mod p, are h; the quotient by f is
      q = (h*v) div x^(n-1) with v = x^(2n-1) div f (Barrett), its slots
      below n*p^2;
    - the remainder is the low n slots plus q*g with g = x^n mod f, below
      n*p^3 + n^2*p^3.
    So a step is two passes of one % p per slot.  A struct of 64-bit limbs
    converts a residue to and from one-limb slots in one call; wider slots
    go through byte slices.
    """
    n = len(f) - 1
    k = -(-(2 * n * n * p**3).bit_length() // 64)  # limbs per slot
    w = 64 * k
    if k == 1:
        limbs = struct.Struct(f"<{n}Q")

        def unpack(x: int) -> list[int]:
            return list(limbs.unpack(x.to_bytes(8 * n, "little")))

        def pack(c: list[int]) -> int:
            return int.from_bytes(limbs.pack(*c), "little")

        def reduce(x: int) -> int:
            c = limbs.unpack(x.to_bytes(8 * n, "little"))
            return int.from_bytes(limbs.pack(*[y % p for y in c]), "little")

    else:

        def unpack(x: int) -> list[int]:
            b = x.to_bytes(8 * k * n, "little")
            return [int.from_bytes(b[i : i + 8 * k], "little") for i in range(0, 8 * k * n, 8 * k)]

        def pack(c: list[int]) -> int:
            return int.from_bytes(b"".join([y.to_bytes(8 * k, "little") for y in c]), "little")

        def reduce(x: int) -> int:
            return pack([y % p for y in unpack(x)])

    # v = x^(2n-1) div f reversed is the power series 1/rev(f) mod x^n
    r = f[-2::-1]
    s = [1]
    for i in range(1, n):
        s.append(-sum(map(mul, r[:i], s[::-1])) % p)
    v = pack(s[::-1])
    g = pack([-c % p for c in f[:n]])
    mask = (1 << (w * n)) - 1
    x = half = 1
    for bit in bin(e)[2:]:
        half = x
        x *= x
        if bit == "1":
            x = (x << w) + a * x
        h = x >> (w * n)
        if h:
            x = (x + ((reduce(h) * v) >> (w * (n - 1))) * g) & mask
        x = reduce(x)
    return _gf_trim(unpack(x)), _gf_trim(unpack(half))


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod the odd prime p, for a quadratic residue a."""
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks with p - 1 = q * 2^s, q odd, and z a non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p  # t has order 2^i
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quadratic_roots(c0: int, c1: int, p: int) -> list[int]:
    """Sorted roots of x^2 + c1*x + c0 mod the odd prime p, by the quadratic formula."""
    disc = (c1 * c1 - 4 * c0) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod(disc, p)
    half = (p + 1) // 2
    return sorted({(s - c1) * half % p, (-s - c1) * half % p})


def _gf_linear_roots(g: list[int], p: int, a: int, w: list[int] | None) -> list[int]:
    """Roots of a monic product g of distinct linear factors, by splitting.

    Factors of degree 1 and 2 are solved in closed form; a larger factor h
    is split by gcd(h, (x + a)^((p-1)/2) - 1) (Cantor-Zassenhaus).  The
    first split takes w = (x + a)^((p-1)/2) mod a multiple of g, and each
    later one the next shift a + 1, a + 2, ... mod p.  Some shift in every
    p consecutive ones separates any two roots, so the loop ends.
    """
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d == 1:
            roots.append(-h[0] % p)
            continue
        if d == 2:
            roots += _quadratic_roots(h[0], h[1], p)
            continue
        if w is None:
            a = (a + 1) % p
            w = _gf_powmod(a, (p - 1) // 2, h, p)[0]
        w = w or [0]
        w[0] = (w[0] - 1) % p
        d1 = _gf_gcd(h, _gf_trim(w), p)
        w = None
        if 0 < len(d1) - 1 < d:
            stack += [d1, _gf_divmod(h, d1, p)[0]]
        else:
            stack.append(h)
    return roots


# -- roots mod p ----------------------------------------------------------


def _reduced_coeffs(q: IntPolynomial, p: int) -> list[int]:
    c = _gf_trim([x % p for x in q.coeffs])
    if not c:
        raise PolynomialVanishesModP(p)
    return c


def roots_mod_p(q: IntPolynomial, p: Prime) -> list[int]:
    """Sorted residues b in [0, p-1] with q(b) = 0 mod p.

    Small p: exhaustive scan.  Large p: degrees 1 and 2 in closed form;
    otherwise reduce to the product of the distinct linear factors via gcd
    with x^p - x = (x + a)^p - (x + a), a = _FIRST_SHIFT, then split that
    product into roots.  The powmod ladder for (x + a)^p mod q passes
    through (x + a)^((p-1)/2), which gives the first split for free.
    """
    pv = p.value
    f = _reduced_coeffs(q, pv)
    if len(f) == 1:
        return []  # nonzero constant mod p
    if pv < SCAN_THRESHOLD:
        return [b for b in range(pv) if q.evaluate_mod(b, pv) == 0]
    f = _gf_monic(f, pv)
    if len(f) == 2:
        return [-f[0] % pv]
    if len(f) == 3:
        return _quadratic_roots(f[0], f[1], pv)
    a = _FIRST_SHIFT
    xp_minus_x, half = _gf_powmod(a, pv, f, pv)
    xp_minus_x += [0] * (2 - len(xp_minus_x))
    xp_minus_x[0] = (xp_minus_x[0] - a) % pv
    xp_minus_x[1] = (xp_minus_x[1] - 1) % pv
    g = _gf_gcd(f, _gf_trim(xp_minus_x), pv)
    if len(g) <= 1:
        return []
    return sorted(_gf_linear_roots(g, pv, a, half))


# -- classification -------------------------------------------------------


class Verdict(enum.Enum):
    NO_ROOTS = "no_roots"
    HENSEL = "hensel"
    NON_HENSEL = "non_hensel"
    ALL_RESIDUES = "all_residues"


@dataclass(frozen=True)
class PrimeClassification:
    p: Prime
    verdict: Verdict
    roots: tuple[int, ...]
    non_hensel_roots: tuple[int, ...]

    @property
    def z_p(self) -> int:
        return self.p.value if self.verdict is Verdict.ALL_RESIDUES else len(self.roots)

    @property
    def all_roots_simple(self) -> bool:
        """Every root of q mod p is simple (vacuously so without roots)."""
        return self.verdict in (Verdict.HENSEL, Verdict.NO_ROOTS)

    def to_json(self) -> dict:
        if self.verdict is Verdict.ALL_RESIDUES:  # p residues are not listed
            return {"p": self.p.value, "verdict": self.verdict.value}
        return {
            "p": self.p.value,
            "verdict": self.verdict.value,
            "roots": list(self.roots),
            "non_hensel_roots": list(self.non_hensel_roots),
        }


def classify_prime(q: IntPolynomial, p: Prime) -> PrimeClassification:
    """Root census mod p with the simple/non-simple split.

    A prime with no roots gets its own verdict: by convention a prime
    only counts as Hensel when at least one root exists.  When p divides
    every coefficient, every residue is a root and q' vanishes mod p too;
    that verdict lists no roots.
    """
    try:
        roots = roots_mod_p(q, p)
    except PolynomialVanishesModP:
        return PrimeClassification(p, Verdict.ALL_RESIDUES, (), ())
    dq = q.derivative()
    bad = tuple(b for b in roots if dq.evaluate_mod(b, p.value) == 0)
    if not roots:
        verdict = Verdict.NO_ROOTS
    elif bad:
        verdict = Verdict.NON_HENSEL
    else:
        verdict = Verdict.HENSEL
    return PrimeClassification(p, verdict, tuple(roots), bad)


# -- Hensel lifting -------------------------------------------------------


@dataclass(frozen=True)
class HenselRoot:
    """A p-adic root to finite precision, as little-endian base-p digits.

    digits[0] is the residue mod p; the truncation to s+1 digits is a
    root of q mod p^(s+1).
    """

    p: Prime
    digits: tuple[int, ...]

    @property
    def precision(self) -> int:
        return len(self.digits)

    def truncations(self) -> Iterator[int]:
        """truncation_value(s) for s = 0, 1, ..., one digit added at a time."""
        acc, ps = 0, 1
        for d in self.digits:
            acc += d * ps
            ps *= self.p.value
            yield acc

    def truncation_value(self, s: int) -> int:
        """The integer formed by digits 0..s, in [0, p^(s+1) - 1]."""
        if not 0 <= s < len(self.digits):
            raise IndexError(f"truncation index {s} out of range [0, {len(self.digits) - 1}]")
        return next(islice(self.truncations(), s, None))

    def to_json(self) -> dict:
        return {"p": self.p.value, "digits": list(self.digits)}


def hensel_digit(q: IntPolynomial, pv: int, gamma: int, ps: int, dinv: int) -> int:
    """Next base-p digit of a simple root gamma of q mod ps = p^s; dinv = 1/q'(gamma) mod p."""
    return (-(q.evaluate_mod(gamma, ps * pv) // ps) * dinv) % pv


def hensel_lift(q: IntPolynomial, p: Prime, a: int, k: int) -> HenselRoot:
    """Lift a simple root a of q mod p to a root mod p^(k+1)."""
    pv = p.value
    a %= pv
    if q.evaluate_mod(a, pv) != 0:
        raise NotARootError(f"{a} is not a root of {q} mod {pv}")
    d = q.derivative().evaluate_mod(a, pv)
    if d == 0:
        raise NotSimpleRootError(f"derivative vanishes at {a} mod {pv}")
    dinv = pow(d, -1, pv)
    digits = [a]
    gamma, ps = a, pv  # the root mod p^s
    for _ in range(k):
        digits.append(hensel_digit(q, pv, gamma, ps, dinv))
        gamma += digits[-1] * ps
        ps *= pv
    return HenselRoot(p, tuple(digits))


# -- the p-adic descent ---------------------------------------------------


def descent_step(
    r: IntPolynomial, p: Prime
) -> tuple[int, IntPolynomial, list[tuple[int, int]], list[int]]:
    """One node of the descent over residue classes: R = p^m * R0.

    Returns m, R0 (not 0 mod p), its simple roots mod p paired with
    1/R0'(b) mod p, and its non-simple roots, below which the descent
    continues with R0(p*k + b).
    """
    pv = p.value
    m = min(int_valuation(c, p) for c in r.coeffs if c)
    if m:
        r = r.exact_scalar_div(pv**m)
    dr = r.derivative()
    simple: list[tuple[int, int]] = []
    repeated: list[int] = []
    for b in roots_mod_p(r, p):
        d = dr.evaluate_mod(b, pv)
        if d:
            simple.append((b, pow(d, -1, pv)))
        else:
            repeated.append(b)
    return m, r, simple, repeated
