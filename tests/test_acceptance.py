"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction
from math import gcd

from padicval.analysis import (
    asymptotic_zero_number,
    empirical_slope,
    error_series,
    exact_slope,
    scan_primes,
)
from padicval.padic import (
    Prime,
    Verdict,
    classify_prime,
    digit_sum,
    hensel_lift,
    int_valuation,
    primes_first,
    roots_mod_p,
)
from padicval.parser import parse_poly
from padicval.poly import IntPolynomial
from padicval.recurrence import make_spec, valuation_series, valuation_tn_direct, valuation_tn_fast

Q1 = parse_poly("x^5+2*x^3+3")
X = parse_poly("x")


def _report(name, elapsed):
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_example1_roots():
    t0 = time.perf_counter()
    assert roots_mod_p(Q1, Prime(5)) == [3, 4]
    assert classify_prime(Q1, Prime(5)).verdict is Verdict.HENSEL
    _report("1 example1 roots and verdict", time.perf_counter() - t0)


def test_criterion_2_example2_scan_5000():
    t0 = time.perf_counter()
    results = scan_primes(Q1, 5000)
    non_hensel = {
        p.value
        for p, c in results
        if c.verdict is Verdict.NON_HENSEL
    }
    elapsed = time.perf_counter() - t0
    assert non_hensel == {3, 11, 29}
    assert elapsed < 60
    _report("2 non-Hensel set over first 5000 primes", elapsed)


def test_criterion_3_exact_zero_numbers():
    t0 = time.perf_counter()
    assert asymptotic_zero_number(Q1, Prime(3)) == Fraction(8, 3)
    assert asymptotic_zero_number(Q1, Prime(11)) == 3
    assert asymptotic_zero_number(Q1, Prime(29)) == Fraction(57, 29)

    q3 = parse_poly("x^3+1") * parse_poly("x^5+1")
    assert 2 * exact_slope(q3, Prime(3)) == Fraction(8, 3)
    assert 4 * exact_slope(q3, Prime(5)) == Fraction(14, 5)
    for pv in (7, 11, 13, 31):
        assert (pv - 1) * exact_slope(q3, Prime(pv)) == gcd(3, pv - 1) + gcd(5, pv - 1)

    # product family (px+1)^2 ((p+1)x+1): N is 1 at q = p, else 2 plus one
    # more when the second factor keeps a root mod q (q not dividing p+1)
    for pv in (2, 3, 5):
        q = IntPolynomial([1, pv]) * IntPolynomial([1, pv]) * IntPolynomial([1, pv + 1])
        for qv in (2, 3, 5, 7, 11, 13):
            n_q = (qv - 1) * exact_slope(q, Prime(qv))
            if qv == pv:
                assert n_q == 1, (pv, qv)
            else:
                omega = 0 if (pv + 1) % qv == 0 else 1
                assert n_q == 2 + omega, (pv, qv)
    _report("3 exact asymptotic zero numbers", time.perf_counter() - t0)


def test_criterion_4_convergence_at_1e5():
    t0 = time.perf_counter()
    spec = make_spec(Q1)
    n = 10**5
    assert abs(empirical_slope(spec, Prime(5), n) - 2) <= Fraction(1, 100)
    v3 = valuation_tn_direct(spec, Prime(3), n)
    assert abs(Fraction(v3, n) - Fraction(4, 3)) <= Fraction(2, 100)
    v29 = valuation_tn_direct(spec, Prime(29), n)
    assert abs(Fraction(v29, n) - Fraction(57, 812)) <= Fraction(2, 100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report("4 slope convergence at n=100000", elapsed)


def test_criterion_5_oracle_equivalence_200_cases():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    hensel_pool = primes_first(25)  # primes up to 97
    cases = 0
    while cases < 200:
        q = IntPolynomial([rng.randint(-50, 50) for _ in range(rng.randint(2, 7))])
        if q.is_zero or q.degree < 1:
            continue
        p = rng.choice(hensel_pool)
        cls = classify_prime(q, p)
        if cls.verdict in (Verdict.NON_HENSEL, Verdict.ALL_RESIDUES):
            continue
        spec = make_spec(q)
        n = rng.randint(1, 10**4)
        assert valuation_tn_fast(spec, p, n) == valuation_tn_direct(spec, p, n), (q, p, n)
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report("5 fast engine equals direct oracle on 200 cases", elapsed)


def test_criterion_6_legendre_to_1e4():
    t0 = time.perf_counter()
    n_max = 10**4
    spec = make_spec(X)
    for pv in (2, 3, 5, 7, 11):
        p = Prime(pv)
        values = [v for col, in valuation_series(spec, p, n_max) for v in col]
        for n in range(1, n_max + 1):
            expected = (n - digit_sum(n, p)) // (pv - 1)
            assert values[n - 1] == expected
        # independent floor-sum formula, spot and boundary points
        for n in (1, 2, pv, pv**2, 9999, n_max):
            total, power = 0, pv
            while power <= n:
                total += n // power
                power *= pv
            assert values[n - 1] == total
    _report("6 factorial valuations match both formulas", time.perf_counter() - t0)


def test_criterion_7_closed_forms():
    t0 = time.perf_counter()
    for pv in (3, 5, 7, 11, 13):
        p = Prime(pv)
        for x in range(-1000, 1001):
            # v_p(x^p - 1) = 1 + v_p(x - 1) and v_p(T_p(x)) = 1 when x = 1 mod p, else both 0
            if x != 1:
                minus = 1 + int_valuation(x - 1, p) if x % pv == 1 else 0
                assert int_valuation(x**pv - 1, p) == minus
                assert int_valuation(sum(x**k for k in range(pv)), p) == (x % pv == 1)
            # v_p(x^p + 1) = 1 + v_p(x + 1) and v_p(S_p(x)) = 1 when x = -1 mod p, else both 0
            if x != -1:
                plus = 1 + int_valuation(x + 1, p) if x % pv == pv - 1 else 0
                assert int_valuation(x**pv + 1, p) == plus
                s = sum((-1) ** k * x ** (pv - 1 - k) for k in range(pv))
                assert int_valuation(s, p) == (x % pv == pv - 1)
    odd_primes = [p for p in primes_first(25) if 2 < p.value <= 100]
    all_primes = [p for p in primes_first(25) if p.value <= 100]
    for p in odd_primes:
        poly = IntPolynomial([1] + [0] * (p.value - 1) + [1])
        for q in all_primes:
            assert len(roots_mod_p(poly, q)) == gcd(p.value, q.value - 1), (p, q)
    _report("7 closed-form valuations and root counts", time.perf_counter() - t0)


def test_criterion_8_hensel_lift_corpus():
    t0 = time.perf_counter()
    corpus = [
        (parse_poly("x^2+1"), 5, 2),
        (parse_poly("x^2+1"), 5, 3),
        (parse_poly("x^2+1"), 13, 5),
        (Q1, 5, 3),
        (Q1, 5, 4),
        (parse_poly("x^3+1"), 7, 3),
        (parse_poly("x^3+1"), 7, 5),
        (parse_poly("x^2-2"), 7, 3),
        (Q1, 29, 28),
        (parse_poly("x+1"), 2, 1),
    ]
    for q, pv, a in corpus:
        p = Prime(pv)
        k = 0
        while pv ** (k + 2) <= 10**6:
            k += 1
        root = hensel_lift(q, p, a, k)
        modulus = pv ** (k + 1)
        # independent oracle: exhaustive enumeration of the congruence class
        matches = [r for r in range(a, modulus, pv) if q.evaluate(r) % modulus == 0]
        assert matches == [root], (q, pv, a)
        for s in range(k):
            assert hensel_lift(q, p, a, s) == root % pv ** (s + 1)
    _report("8 lifts equal unique brute-force solutions", time.perf_counter() - t0)


def test_criterion_9_error_series_structure():
    t0 = time.perf_counter()
    spec = make_spec(X)
    err = [e for errs, _ in error_series(spec, Prime(2), 10**4, 1) for e in errs]
    for n in range(1, 10**4 + 1):
        assert err[n - 1] == digit_sum(n, Prime(2))
    for q, pv in ((Q1, 5), (Q1, 3), (parse_poly("x^2+1"), 5), (X, 3)):
        p = Prime(pv)
        spec_q = make_spec(q)
        zp = len(roots_mod_p(q, p))
        relerr = [r for _, rs in error_series(spec_q, p, 2000, zp) for r in rs]
        for n in range(1, 2001):
            term = int_valuation(q.evaluate(spec_q.start_index + n), p)
            assert relerr[n - 1] == zp - (pv - 1) * term
    _report("9 error-series identities", time.perf_counter() - t0)
