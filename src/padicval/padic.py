"""Prime-level primitives.

Integer valuations, base-p digit sums, the factorial-valuation formula,
roots of a polynomial mod p, Hensel-zero classification, digit-by-digit
Hensel lifting, and the node step of the p-adic descent.  Residues are
canonicalized to [0, p-1] throughout.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .errors import (
    NotARootError,
    NotSimpleRootError,
    PolynomialVanishesModP,
    ValuationOfZeroError,
)
from .poly import IntPolynomial

# Below the threshold an exhaustive residue scan finds roots; above it we
# first split off the product of linear factors via gcd with x^p - x.
SCAN_THRESHOLD = 4096

# The first 13 primes as Miller-Rabin witnesses: deterministic for every n
# below psi_13 = 3317044064679887385961981 (about 3.3e24).  The first 12
# alone pass the composite psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below psi_13 = 3317044064679887385961981."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True)
class Prime:
    value: int

    def __post_init__(self):
        if not is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def primes_first(count: int) -> list[Prime]:
    """The first `count` primes, by sieve."""
    if count <= 0:
        return []
    # overshoot bound: p_k < k (ln k + ln ln k) for k >= 6
    import math

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
            return [Prime(p) for p in found[:count]]
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


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_trim(out)


def _gf_rem(a: list[int], f: list[int], p: int) -> list[int]:
    """Remainder of a by monic f."""
    r = list(a)
    df = len(f) - 1
    for i in range(len(r) - 1, df - 1, -1):
        c = r[i]
        if c:
            for j in range(df):
                r[i - df + j] = (r[i - df + j] - c * f[j]) % p
        r[i] = 0
    del r[df:]
    return _gf_trim(r)


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    inv = pow(b[-1], -1, p)
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _gf_trim(q), _gf_trim(r)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        _, r = _gf_divmod(a, b, p)
        a, b = b, r
    return _gf_monic(a, p) if a else a


def _gf_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod monic f."""
    result = [1]
    b = _gf_rem(base, f, p)
    while e:
        if e & 1:
            result = _gf_rem(_gf_mul(result, b, p), f, p)
        b = _gf_rem(_gf_mul(b, b, p), f, p)
        e >>= 1
    return result


def _gf_linear_roots(g: list[int], p: int, rng: random.Random) -> list[int]:
    """Roots of a monic product of distinct linear factors, by splitting."""
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d <= 0:
            continue
        if d == 1:
            roots.append(-h[0] % p)
            continue
        while True:
            a = rng.randrange(p)
            w = _gf_powmod([a, 1], (p - 1) // 2, h, p)
            w = list(w)
            if w:
                w[0] = (w[0] - 1) % p
            else:
                w = [p - 1]
            _gf_trim(w)
            d1 = _gf_gcd(h, w, p) if w else h
            if 0 < len(d1) - 1 < d:
                q, r = _gf_divmod(h, d1, p)
                assert not r
                stack.append(d1)
                stack.append(q)
                break
    return roots


# -- roots mod p ----------------------------------------------------------


def _reduced_coeffs(q: IntPolynomial, p: int) -> list[int]:
    c = _gf_trim([x % p for x in q.coeffs])
    if not c:
        raise PolynomialVanishesModP(p)
    return c


def roots_mod_p(q: IntPolynomial, p: Prime) -> list[int]:
    """Sorted residues b in [0, p-1] with q(b) = 0 mod p.

    Small p: exhaustive scan.  Large p: reduce to the product of the
    distinct linear factors via gcd with x^p - x (x^p computed by square
    and multiply in the quotient ring), then split that product into
    roots.
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
    xp = _gf_powmod([0, 1], pv, f, pv)
    xp_minus_x = list(xp)
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % pv
    _gf_trim(xp_minus_x)
    if not xp_minus_x:
        g = f  # every residue-splitting factor: f divides x^p - x
    else:
        g = _gf_gcd(f, xp_minus_x, pv)
    if len(g) <= 1:
        return []
    rng = random.Random(pv)
    return sorted(_gf_linear_roots(g, pv, rng))


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

    def truncation_value(self, s: int) -> int:
        """The integer formed by digits 0..s, in [0, p^(s+1) - 1]."""
        if not 0 <= s < len(self.digits):
            raise IndexError(f"truncation index {s} out of range [0, {len(self.digits) - 1}]")
        acc = 0
        for d in reversed(self.digits[: s + 1]):
            acc = acc * self.p.value + d
        return acc

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
