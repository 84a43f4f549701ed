"""Reference answers, computed without padicval.

Everything here is derived from the mathematics alone, so that a fault in
the program cannot hide in the reference as well.  Polynomials are lists of
integer coefficients, lowest degree first, trimmed (no trailing zeros).

A linear product is ``(c, factors)`` with ``factors`` a list of ``(a, b)``
standing for ``c * prod(a*x + b)``, ``a != 0``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# The paper's worked example x^5+2x^3+3: its non-Hensel primes and their
# asymptotic zero numbers N_p = (p-1) * slope.
Q1 = [3, 0, 0, 2, 0, 1]
Q1_NON_HENSEL = frozenset({3, 11, 29})
Q1_ZERO_NUMBERS = {3: Fraction(8, 3), 11: Fraction(3), 29: Fraction(57, 29)}
# (x^3+1)(x^5+1), the paper's second scan example.
Q3 = [1, 0, 0, 1, 0, 1, 0, 0, 1]


# -- integers -------------------------------------------------------------


def vp(x: int, p: int) -> int:
    """Exponent of p in the nonzero integer x."""
    if x == 0:
        raise ValueError("valuation of 0")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def legendre(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula (n - s_p(n)) / (p - 1)."""
    return (n - digit_sum(n, p)) // (p - 1)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by a sieve that doubles until it has enough."""
    limit = 64
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
        primes = [i for i, flag in enumerate(sieve) if flag]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


# -- polynomials ----------------------------------------------------------


def trim(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def evaluate(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def evaluate_mod(coeffs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def derivative(coeffs: list[int]) -> list[int]:
    return trim([i * c for i, c in enumerate(coeffs)][1:])


def multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def content(coeffs: list[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g


def expand(c: int, factors: list[tuple[int, int]]) -> list[int]:
    """Coefficients of c * prod(a*x + b)."""
    out = [c]
    for a, b in factors:
        out = multiply(out, [b, a])
    return out


def format_poly(coeffs: list[int]) -> str:
    """Text in the CLI's grammar, highest degree first, e.g. "6x^3-5x+1"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(mag) if k == 0 else (var if mag == 1 else f"{mag}{var}")
        parts.append(sign + body)
    return "".join(parts) or "0"


def roots_mod(coeffs: list[int], p: int) -> list[int]:
    """Every residue in [0, p) where the polynomial vanishes, by trying each."""
    return [x for x in range(p) if evaluate_mod(coeffs, x, p) == 0]


def start_index(coeffs: list[int]) -> int:
    """The CLI's start index n0: the largest positive integer root, else 0.

    Integer roots divide the constant term once powers of x are removed.
    """
    rest = trim(coeffs)
    while rest and rest[0] == 0:
        rest = rest[1:]
    if len(rest) < 2:
        return 0
    c0 = abs(rest[0])
    divisors = set()
    d = 1
    while d * d <= c0:
        if c0 % d == 0:
            divisors.update((d, c0 // d))
        d += 1
    return max((d for d in divisors if evaluate(rest, d) == 0), default=0)


def window_valuation(coeffs: list[int], p: int, n: int, start: int = 0) -> int:
    """sum of v_p(Q(i)) for start < i <= start + n, one term at a time."""
    return sum(vp(evaluate(coeffs, i), p) for i in range(start + 1, start + n + 1))


# -- linear products ------------------------------------------------------


def _unit_factor(a: int, b: int, p: int) -> tuple[int, int, int]:
    """Write a*x + b = p^m * (a1*x + b1) with p not dividing both a1 and b1."""
    m = 0
    while a % p == 0 and b % p == 0:
        a, b, m = a // p, b // p, m + 1
    return m, a, b


def linear_start_index(factors: list[tuple[int, int]]) -> int:
    """Largest positive integer root of the product, else 0."""
    roots = [-b // a for a, b in factors if b % a == 0 and -b // a >= 1]
    return max(roots, default=0)


def linear_product_valuation(
    c: int, factors: list[tuple[int, int]], p: int, n: int, start: int = 0
) -> int:
    """Exact v_p(t_n) for Q = c * prod(a*x + b), at any n and any prime.

    For a factor with p not dividing a, p^k | a*x + b exactly when x lies
    in one residue class mod p^k, so each level is one congruence count.
    A factor p^m * (a1*x + b1) adds n*m, and nothing more when p | a1.
    """
    lo, hi = start, start + n
    total = n * vp(c, p)
    for a, b in factors:
        m, a1, b1 = _unit_factor(a, b, p)
        total += n * m
        if a1 % p == 0:
            continue
        bound = abs(a1) * hi + abs(b1)  # |a1*x + b1| over the window
        top = p
        while top <= bound:
            top *= p
        r = -b1 * pow(a1, -1, top) % top
        pk = p
        while pk <= bound:
            rk = r % pk
            hits = (hi - rk) // pk - (lo - rk) // pk
            if hits == 0:
                break
            total += hits
            pk *= p
    return total


def linear_product_slope(c: int, factors: list[tuple[int, int]], p: int) -> Fraction:
    """lim v_p(t_n)/n: v_p(c), plus m + 1/(p-1) per factor p^m (a1*x + b1)."""
    total = Fraction(vp(c, p))
    for a, b in factors:
        m, a1, _ = _unit_factor(a, b, p)
        total += m
        if a1 % p:
            total += Fraction(1, p - 1)
    return total


def linear_product_roots(factors: list[tuple[int, int]], p: int) -> tuple[list[int], list[int]]:
    """(roots, non-simple roots) mod p of a product whose content p does not divide."""
    hits: dict[int, int] = {}
    for a, b in factors:
        if a % p:
            r = -b * pow(a, -1, p) % p
            hits[r] = hits.get(r, 0) + 1
    return sorted(hits), sorted(r for r, k in hits.items() if k > 1)


# -- closed-form slopes ---------------------------------------------------


def slope_x_m_pm1(m: int, sign: int, q: int) -> Fraction:
    """Slope of t_n for Q = x^m + sign at an odd prime q.

    For q not dividing m the roots are simple, and x^m = -sign has
    gcd(m, q-1) solutions (for -1: when (q-1)/gcd is even, else none).
    For q = m, v_q(x^q +- 1) = 1 + v_q(x +- 1) on one class, which gives
    (2q-1)/(q(q-1)).  Other cases are outside the closed forms.
    """
    if q == 2 or sign not in (1, -1):
        raise ValueError("closed form needs an odd prime and sign +-1")
    if q == m:
        return Fraction(2 * q - 1, q * (q - 1))
    if m % q == 0:
        raise ValueError("no closed form when q divides m and q != m")
    g = gcd(m, q - 1)
    z = g if sign == -1 or ((q - 1) // g) % 2 == 0 else 0
    return Fraction(z, q - 1)


# -- discriminant ---------------------------------------------------------


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        rows.append([0] * i + list(reversed(f)) + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + list(reversed(g)) + [0] * (size - dg - 1 - i))
    return bareiss_determinant(rows)


def lc_times_discriminant(coeffs: list[int]) -> int:
    """lc(Q) * disc(Q), up to sign: Res(Q, Q') = (-1)^(d(d-1)/2) lc disc."""
    return resultant(coeffs, derivative(coeffs))
