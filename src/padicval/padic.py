"""Prime-level primitives.

Integer valuations, base-p digit sums, the factorial-valuation formula,
roots of a polynomial mod p, Hensel-zero classification, Hensel lifting by
Newton's iteration, and the nodes of the p-adic descent.  Residues
are canonicalized to [0, p-1] throughout.
"""

from __future__ import annotations

import enum
import math
from itertools import compress, islice
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .errors import (
    NotARootError,
    NotSimpleRootError,
    PadicValError,
    PolynomialVanishesModP,
    ValuationOfZeroError,
)

if TYPE_CHECKING:
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


class Prime(NamedTuple("Prime", [("value", int)])):
    __slots__ = ()

    def __new__(cls, value: int) -> Prime:
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        return tuple.__new__(cls, (value,))

    @classmethod
    def _proven(cls, value: int) -> Prime:
        """A Prime for a value already proved prime (by the sieve), without re-testing it."""
        return tuple.__new__(cls, (value,))

    def __str__(self) -> str:
        return str(self.value)


def primes_first(count: int) -> list[Prime]:
    """The first `count` primes, by sieve."""
    if count <= 0:
        return []
    # p_k < k (ln k + ln ln k) for k >= 6 (Rosser and Schoenfeld, Illinois J.
    # Math. 6, 1962), so one sieve to this limit holds `count` primes
    if count < 6:
        limit = 15
    else:
        limit = int(count * (math.log(count) + math.log(math.log(count)))) + 10
    try:
        sieve = bytearray([1]) * (limit + 1)
    except (OverflowError, MemoryError):
        raise PadicValError(
            f"cannot list the first {count} primes: their sieve of {limit + 1} bytes does not fit in memory"
        ) from None
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [Prime._proven(i) for i in islice(compress(range(limit + 1), sieve), count)]


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


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, by Euclid's algorithm on copies of them."""
    a, b = list(a), list(b)
    while b:
        del a[_gf_divide(a, b, p) :]
        a, b = b, _gf_trim(a)
    return _gf_monic(a, p) if a else a


def _slot_reduction(n: int, p: int) -> tuple[int, Callable[[int], int]]:
    """Slot width w (whole bytes) and Barrett's reduction mod p of every slot of an n-slot int.

    A slot holds y < 6n*p^2 < 2^k; with mu = 2^k // p, y*mu < 2^w, so one
    product x*mu holds every y*mu with no carry between slots, and the low
    w - k bits of each slot of (x*mu) >> k are Barrett's quotient
    floor(y*mu / 2^k), at most y/p and above y/p - 2.  Subtracting p times
    each leaves every slot congruent to y mod p, in [0, 2p).
    """
    k = (6 * n * p * p).bit_length()
    mu = (1 << k) // p
    w = -(-(k + mu.bit_length()) // 8) * 8
    qmask = ((1 << (w * n)) - 1) // ((1 << w) - 1) * ((1 << (w - k)) - 1)

    def reduce(x: int) -> int:
        return x - p * (((x * mu) >> k) & qmask)

    return w, reduce


def _gf_powmod(a: int, e: int, f: list[int], p: int) -> tuple[list[int], Callable[[], list[int]]]:
    """(x + a)^e mod monic f of degree n, for 0 <= a < p, and a callable that
    unpacks (x + a)^(e >> 1), which few callers read.

    Left-to-right square and multiply: the value before the last step is
    the half power, so (x + a)^p comes with (x + a)^((p-1)/2).
    Kronecker substitution: a residue is one int with coefficient i in slot
    i, so a polynomial product is one int product.  Between products every
    coefficient is reduced to [0, 2p) (_slot_reduction), so no slot reaches
    6n*p^2 and none ever carries:
    - a square has slots below n*(2p)^2 = 4n*p^2;
    - its slots at i >= n, reduced, are h; the quotient by f is q = (h*v)
      div x^(n-1) with v = x^(2n-1) div f (Barrett), its slots below
      n*2p*p = 2n*p^2 before they too are reduced;
    - the remainder is the low n slots plus q*g with g = x^n mod f, below
      4n*p^2 + n*2p*p = 6n*p^2;
    - times x + a, slots are below 2p + a*2p <= 2p^2, and the top one, below
      2p, folds in as that multiple of g: below 2p^2 + 2p*p = 4p^2.
    Only the final unpack takes an exact % p per coefficient.
    """
    n = len(f) - 1
    w, reduce = _slot_reduction(n, p)
    b = w // 8

    def pack(c: list[int]) -> int:
        return int.from_bytes(b"".join([y.to_bytes(b, "little") for y in c]), "little")

    def unpack(x: int) -> list[int]:
        s = x.to_bytes(b * n, "little")
        return _gf_trim([int.from_bytes(s[i : i + b], "little") % p for i in range(0, b * n, b)])

    # v = x^(2n-1) div f is 1/rev(f) mod x^n reversed: each new series term goes in front
    r = f[-2::-1]
    s = [1]
    for _ in range(1, n):
        s.insert(0, -sum(map(mul, r, s)) % p)
    v = pack(s)
    g = pack([-c % p for c in f[:n]])
    mask = (1 << (w * n)) - 1
    x = half = 1
    for bit in bin(e)[2:]:
        half = x
        x *= x
        h = x >> (w * n)
        if h:
            x = (x + reduce((reduce(h) * v) >> (w * (n - 1))) * g) & mask
        x = reduce(x)
        if bit == "1":
            x = (x << w) + a * x
            x = reduce((x & mask) + (x >> (w * n)) * g)
    return unpack(x), lambda: unpack(half)


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


def _gf_linear_roots(g: list[int], p: int, a: int, w: Callable[[], list[int]] | None) -> list[int]:
    """Roots of g, a monic product of distinct linear factors or any monic of degree 1 or 2.

    Factors of degree 1 and 2 are solved in closed form, a quadratic with a
    double root or none too; a larger factor h is split by
    gcd(h, (x + a)^((p-1)/2) - 1) (Cantor-Zassenhaus).  The first split
    unpacks w() = (x + a)^((p-1)/2) mod a multiple of g, and each later
    one takes the next shift a + 1, a + 2, ... mod p.  Some shift in every
    p consecutive ones separates any two roots, so the loop ends.  A split
    factor is divided in place, g too.
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
            half = _gf_powmod(a, (p - 1) // 2, h, p)[0]
        else:
            half, w = w(), None
        half = half or [0]
        half[0] = (half[0] - 1) % p
        d1 = _gf_gcd(h, _gf_trim(half), p)
        if 0 < len(d1) - 1 < d:
            del h[: _gf_divide(h, d1, p)]  # h becomes the cofactor h / d1
            stack += [d1, h]
        else:
            stack.append(h)
    return roots


# -- roots mod p ----------------------------------------------------------


def roots_mod_p(q: IntPolynomial, p: Prime) -> list[int]:
    """Sorted residues b in [0, p-1] with q(b) = 0 mod p.

    Small p: exhaustive scan.  Large p: _gf_linear_roots solves q at degree
    1 or 2; at degree 3 and up it splits the product of q's distinct linear
    factors, gcd(q, x^p - x) with x^p - x = (x + a)^p - (x + a),
    a = _FIRST_SHIFT.  The powmod ladder for (x + a)^p mod q passes through
    (x + a)^((p-1)/2): the first split, free.
    """
    pv = p.value
    f = _gf_trim([c % pv for c in q.coeffs])
    if not f:
        raise PolynomialVanishesModP(pv)
    if len(f) == 1:
        return []  # nonzero constant mod p
    if pv < SCAN_THRESHOLD:
        return [b for b in range(pv) if q.evaluate_mod(b, pv) == 0]
    f = _gf_monic(f, pv)
    a, half = _FIRST_SHIFT, None
    if len(f) > 3:
        xp_minus_x, half = _gf_powmod(a, pv, f, pv)
        xp_minus_x += [0] * (2 - len(xp_minus_x))
        xp_minus_x[0] = (xp_minus_x[0] - a) % pv
        xp_minus_x[1] = (xp_minus_x[1] - 1) % pv
        f = _gf_gcd(f, _gf_trim(xp_minus_x), pv)
    return sorted(_gf_linear_roots(f, pv, a, half)) if len(f) > 1 else []


# -- classification -------------------------------------------------------


class Verdict(enum.Enum):
    NO_ROOTS = "no_roots"
    HENSEL = "hensel"
    NON_HENSEL = "non_hensel"
    ALL_RESIDUES = "all_residues"


class PrimeClassification(NamedTuple):
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


def classify_prime(q: IntPolynomial, p: Prime) -> PrimeClassification:
    """Root census mod p with the simple/non-simple split.

    A prime with no roots gets its own verdict: by convention a prime
    only counts as Hensel when at least one root exists.  When p divides
    every coefficient, every residue is a root and q' vanishes mod p too;
    that verdict lists no roots.
    """
    if not any(c % p.value for c in q.coeffs):
        return PrimeClassification(p, Verdict.ALL_RESIDUES, (), ())
    roots = roots_mod_p(q, p)
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


def hensel_digit(q: IntPolynomial, pv: int, gamma: int, ps: int, dinv: int) -> int:
    """Next base-p digit of a simple root gamma of q mod ps = p^s; dinv = 1/q'(gamma) mod p."""
    return (-(q.evaluate_mod(gamma, ps * pv) // ps) * dinv) % pv


def hensel_lift(q: IntPolynomial, p: Prime, a: int, k: int) -> int:
    """The root of q mod p^(k+1) in [0, p^(k+1)) above its simple root a mod p.

    Newton's iteration lifts the root mod p^ceil(e/2) to the root mod p^e
    for e = (k >> i) + 1, i = bit_length(k) - 1, ..., 0: about log2(k + 1)
    steps, each evaluating q and q' once, and none past what the next needs.
    """
    if k < 0:
        raise ValueError(f"precision k must be nonnegative, got k = {k}")
    pv = p.value
    a %= pv
    if q.evaluate_mod(a, pv) != 0:
        raise NotARootError(f"{a} is not a root of {q} mod {pv}")
    dq = q.derivative()
    if dq.evaluate_mod(a, pv) == 0:
        raise NotSimpleRootError(f"derivative vanishes at {a} mod {pv}")
    for i in reversed(range(k.bit_length())):
        m = pv ** ((k >> i) + 1)
        a = (a - q.evaluate_mod(a, m) * pow(dq.evaluate_mod(a, m), -1, m)) % m
    return a


# -- the p-adic descent ---------------------------------------------------


def descent(
    q: IntPolynomial, p: Prime
) -> Iterator[tuple[int, int, int, IntPolynomial, list[int], list[int]]]:
    """The nodes of the p-adic descent of q, depth first, as (A, B, m, R, simple, repeated).

    A node is the class i = A*k + B (A = p^depth, 0 <= B < A), where
    q(A*k + B) is p^m * R(k) times the powers stripped above it and R is
    not 0 mod p.  Its roots mod p are classify_prime(R, p)'s, split into
    simple and repeated (non-simple) ones.  When the reader resumes, the
    descent continues with R(p*k + b) for each root b still in repeated,
    so a reader prunes a child by removing its root.
    """
    pv = p.value
    stack = [(q, 1, 0)]  # (R, A, B) with 0 <= B < A
    while stack:
        r, a, b = stack.pop()
        m = min(int_valuation(c, p) for c in r.coeffs if c)
        if m:
            r = r.exact_scalar_div(pv**m)
        cls = classify_prime(r, p)
        repeated = list(cls.non_hensel_roots)
        simple = [x for x in cls.roots if x not in repeated]
        yield a, b, m, r, simple, repeated
        stack += [(r.affine_substitute(pv, x), a * pv, a * x + b) for x in repeated]
