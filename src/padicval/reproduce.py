"""Regeneration of every numeric claim in the worked examples and the
x^p +/- 1 formulas.

Each function returns (claim, passed) pairs; the CLI prints one PASS/FAIL
line per claim.  All comparisons are exact.
"""

from __future__ import annotations

from math import gcd
from typing import Callable

from .analysis import asymptotic_zero_number, exact_slope, scan_primes
from .padic import Prime, Verdict, classify_prime, digit_sum, legendre_factorial_valuation, roots_mod_p
from .parser import parse_poly
from .poly import IntPolynomial, squarefree_pieces
from .recurrence import make_spec, valuation_series

Claim = tuple[str, bool]

Q1 = parse_poly("x^5+2*x^3+3")
H2 = parse_poly("x^4-x^3+3*x^2-3*x+3")
Q3 = parse_poly("x^8+x^5+x^3+1")
X_PLUS_1 = parse_poly("x+1")
X3_PLUS_1 = parse_poly("x^3+1")
X5_PLUS_1 = parse_poly("x^5+1")


def example1() -> list[Claim]:
    from fractions import Fraction
    p5 = Prime(5)
    cls = classify_prime(Q1, p5)
    return [
        ("roots of x^5+2x^3+3 mod 5 are [3, 4]", list(cls.roots) == [3, 4]),
        ("5 qualifies as a Hensel prime", cls.verdict is Verdict.HENSEL),
        ("slope at 5 is 1/2", exact_slope(Q1, p5) == Fraction(1, 2)),
        ("N_5 = 2", asymptotic_zero_number(Q1, p5) == 2),
    ]


def example2(scan_count: int = 5000) -> list[Claim]:
    from fractions import Fraction
    claims: list[Claim] = []
    claims.append(
        ("x^5+2x^3+3 factors as (x+1)*(x^4-x^3+3x^2-3x+3)", X_PLUS_1 * H2 == Q1)
    )
    h3k = H2.affine_substitute(3, 0)
    claims.append(
        ("H(3k) = 81k^4-27k^3+27k^2-9k+3", h3k == parse_poly("81*x^4-27*x^3+27*x^2-9*x+3"))
    )
    h29k = H2.affine_substitute(29, 14)
    claims.append(
        (
            "H(29k+14) = 707281k^4+1341395k^3+956217k^2+303601k+36221",
            h29k == IntPolynomial([36221, 303601, 956217, 1341395, 707281]),
        )
    )
    claims.append(("z_11(H) = 2", len(roots_mod_p(H2, Prime(11))) == 2))
    claims.append(("N_3 = 8/3", asymptotic_zero_number(Q1, Prime(3)) == Fraction(8, 3)))
    claims.append(("N_11 = 3", asymptotic_zero_number(Q1, Prime(11)) == 3))
    claims.append(
        ("N_29 = 57/29", asymptotic_zero_number(Q1, Prime(29)) == Fraction(57, 29))
    )
    claims.append(
        ("slope at 29 is 57/812", exact_slope(Q1, Prime(29)) == Fraction(57, 812))
    )
    # a short scan is checked against the members of {3, 11, 29} that it reaches
    verdicts = {p.value: c.verdict for p, c in scan_primes(Q1, scan_count)}
    non_hensel = {p for p, v in verdicts.items() if v is Verdict.NON_HENSEL}
    expected = sorted({3, 11, 29} & verdicts.keys())
    claims.append(
        (
            f"non-Hensel primes among the first {scan_count} are exactly "
            f"{{{', '.join(map(str, expected))}}}",
            non_hensel == set(expected),
        )
    )
    return claims


def example3() -> list[Claim]:
    from fractions import Fraction
    claims: list[Claim] = []
    claims.append(("(x^3+1)(x^5+1) expands to x^8+x^5+x^3+1", X3_PLUS_1 * X5_PLUS_1 == Q3))
    # gcd(Q, Q') is the product of Q's squarefree pieces after the first
    claims.append(("gcd(Q, Q') = x+1", list(squarefree_pieces(Q3))[1:] == [X_PLUS_1]))
    claims.append(("N_3 = 8/3", 2 * exact_slope(Q3, Prime(3)) == Fraction(8, 3)))
    claims.append(("N_5 = 14/5", 4 * exact_slope(Q3, Prime(5)) == Fraction(14, 5)))
    claims.append(
        ("slope of x^3+1 at 3 is 5/6", exact_slope(X3_PLUS_1, Prime(3)) == Fraction(5, 6))
    )
    claims.append(
        ("slope of Q at 5 is 7/10", exact_slope(Q3, Prime(5)) == Fraction(7, 10))
    )
    for pv in (7, 11, 13, 31):
        expected = gcd(3, pv - 1) + gcd(5, pv - 1)
        got = (pv - 1) * exact_slope(Q3, Prime(pv))
        claims.append((f"N_{pv} = gcd(3,{pv}-1) + gcd(5,{pv}-1) = {expected}", got == expected))
    return claims


def example4() -> list[Claim]:
    claims: list[Claim] = []
    for pv in (2, 3, 5):
        q1 = IntPolynomial([1, pv])
        q2 = IntPolynomial([1, pv + 1])
        q = q1 * q1 * q2
        for qv in (2, 3, 5, 7, 11, 13):
            n_q = (qv - 1) * exact_slope(q, Prime(qv))
            if qv == pv:
                expected = 1
            else:
                # the second factor has one root mod q unless q | p+1
                omega = 0 if (pv + 1) % qv == 0 else 1
                expected = 2 + omega
            claims.append((f"N_{qv}((({pv}x+1)^2)(({pv + 1}x+1)) = {expected}", n_q == expected))
    return claims


def legendre() -> list[Claim]:
    claims: list[Claim] = []
    spec = make_spec(IntPolynomial([0, 1]))
    n_max = 2000
    for pv in (2, 3, 5, 7, 11):
        p = Prime(pv)
        values = [v for col, in valuation_series(spec, p, n_max) for v in col]
        formula_ok = all(
            values[n - 1] == (n - digit_sum(n, p)) // (pv - 1)
            and values[n - 1] == legendre_factorial_valuation(n, p)
            for n in range(1, n_max + 1)
        )
        floor_ok = True
        for n in (1, 10, 100, 1024, n_max):
            total, power = 0, pv
            while power <= n:
                total += n // power
                power *= pv
            floor_ok = floor_ok and total == values[n - 1]
        claims.append((f"factorial valuations at p={pv} match the digit-sum formula", formula_ok))
        claims.append((f"factorial valuations at p={pv} match the floor sums", floor_ok))
    return claims


def xp_pm1() -> list[Claim]:
    """x^p + sign at q = 2 .. 31: gcd(p, q-1) roots mod q, and the slope
    gcd(p, q-1)/(q-1), or (2p-1)/(p(p-1)) at q = p."""
    from fractions import Fraction
    claims: list[Claim] = []
    for pv in (3, 5, 7, 11, 13):
        for sign in (1, -1):
            poly = IntPolynomial([sign] + [0] * (pv - 1) + [1])
            at_p = Fraction(2 * pv - 1, pv * (pv - 1))
            ok = all(
                exact_slope(poly, Prime(qv))
                == (at_p if qv == pv else Fraction(gcd(pv, qv - 1), qv - 1))
                and len(roots_mod_p(poly, Prime(qv))) == gcd(pv, qv - 1)
                for qv in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
            )
            claims.append((f"x^{pv}{sign:+d} at q = 2..31 has gcd({pv},q-1) roots and slope "
                           f"gcd({pv},q-1)/(q-1), {at_p} at q = {pv}", ok))
    return claims


SELECTORS: dict[str, Callable[..., list[Claim]]] = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "example4": example4,
    "legendre": legendre,
    "xp_pm1": xp_pm1,
}


def run(selector: str, scan_count: int = 5000) -> list[Claim]:
    names = list(SELECTORS) if selector == "all" else [selector]
    claims: list[Claim] = []
    for name in names:
        fn = SELECTORS[name]
        if name == "example2":
            claims.extend(fn(scan_count=scan_count))
        else:
            claims.extend(fn())
    return claims
