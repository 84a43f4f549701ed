import importlib.util
import json
import math
import pathlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicval import padic
from padicval.analysis import scan_primes
from padicval.cli import main
from padicval.errors import (
    NotARootError,
    NotSimpleRootError,
    PolynomialVanishesModP,
    ValuationOfZeroError,
)
from padicval.padic import (
    Prime,
    Verdict,
    classify_prime,
    digit_sum,
    hensel_lift,
    int_valuation,
    is_prime,
    legendre_factorial_valuation,
    primes_first,
    roots_mod_p,
)
from padicval.poly import IntPolynomial

Q1 = IntPolynomial([3, 0, 0, 2, 0, 1])  # x^5+2x^3+3
Q3 = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])  # x^8+x^5+x^3+1 = (x+1)^2 (x^2-x+1) Phi_10
E12 = IntPolynomial([6, -4, 2, 0, 10, -8, 4, 2, -6, 0, 14, 2, 1])  # Eisenstein at 2
# prod (x - (k^2 - a)) for k = 1..6 and the first shift a
SQUARES_MINUS_SHIFT = math.prod(IntPolynomial([padic._FIRST_SHIFT - k * k, 1]) for k in range(1, 7))
P2, P3, P5, P7 = Prime(2), Prime(3), Prime(5), Prime(7)
PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)  # all of them below 20000


def _load_reference():
    """perfbench/reference.py, which imports nothing from padicval, loaded by its path."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def brute_roots(q, p):
    return [b for b in range(p) if q.evaluate_mod(b, p) == 0]


def sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def mul_then_divide(a, b, f, p):
    """a*b mod (f, p) the long way: the full product, then long division by monic f."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    n = len(f) - 1
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i] % p
        for j in range(n + 1):
            prod[i - n + j] -= c * f[j]
    out = [c % p for c in prod[:n]]
    while out and out[-1] == 0:
        out.pop()
    return out


def square_and_multiply(a, e, f, p):
    """(x + a)^e mod (f, p), by left-to-right square and multiply on mul_then_divide."""
    result = [1]
    for bit in bin(e)[2:]:
        result = mul_then_divide(result, result, f, p)
        if bit == "1":
            result = mul_then_divide(result, [a, 1], f, p)
    return result


def gf_mul(a, b, p):
    """a*b in GF(p)[x], trimmed."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = [c % p for c in prod]
    while out and out[-1] == 0:
        out.pop()
    return out


def euclid(a, b, p):
    """Monic gcd in GF(p)[x] by the textbook remainder sequence."""
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] * inv % p
            for j, y in enumerate(b, len(r) - len(b)):
                r[j] = (r[j] - c * y) % p
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


def integer_cube_root(m):
    """The largest r with r^3 <= m."""
    lo, hi = 0, 1 << (m.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**3 <= m else (lo, mid - 1)
    return lo


class TestPrime:
    def test_rejects_composites(self):
        # psi_12 and psi_13 are strong pseudoprimes to every base from 2 to 37 and to 41;
        # 1093^2 is one to base 2
        for n in (-3, 0, 1, 4, 9, 91, 561, 1093**2, PSI_12, PSI_13):
            assert not is_prime(n)
            with pytest.raises(ValueError):
                Prime(n)

    def test_strong_lucas_pseudoprimes(self):
        for n in STRONG_LUCAS_PSEUDOPRIMES:
            assert padic._strong_lucas_probable_prime(n)
            assert not is_prime(n)
            assert any(n % d == 0 for d in range(2, math.isqrt(n) + 1))

    def test_strong_lucas_pseudoprimes_below_20000_are_exactly_these(self):
        flags = sieve(20000)
        passing = [n for n in range(3, 20000, 2)
                   if not flags[n] and math.isqrt(n) ** 2 != n
                   and padic._strong_lucas_probable_prime(n)]
        assert passing == list(STRONG_LUCAS_PSEUDOPRIMES)
        assert all(padic._strong_lucas_probable_prime(n) for n in range(3, 20000, 2) if flags[n])

    def test_jacobi_against_euler_criterion(self):
        # (a/n) is the product of the Legendre symbols (a/q) over n's prime factors q,
        # each by Euler's criterion; it is 0 when a shares a factor with n
        def jacobi(a, n):
            symbol, q = 1, 3
            while n > 1:
                while n % q == 0:
                    n //= q
                    symbol *= {0: 0, 1: 1, q - 1: -1}[pow(a, (q - 1) // 2, q)]
                q += 2
            return symbol

        for n in range(1, 300, 2):
            for a in range(-2 * n, 2 * n + 1):
                assert padic._jacobi(a, n) == jacobi(a, n), (a, n)

    def test_accepts_primes(self):
        for n in (2, 3, 5, 48611, 2**61 - 1):
            assert Prime(n).value == n

    def test_is_prime_against_sieve(self):
        flags = sieve(10**6)
        assert [n for n in range(10**6) if is_prime(n)] == [n for n in range(10**6) if flags[n]]

    def test_primes_first(self):
        ps = primes_first(5000)
        assert len(ps) == 5000
        assert ps[0].value == 2
        assert ps[-1].value == 48611
        assert [p.value for p in ps] == [p for p in range(48612) if is_prime(p)]
        assert ps[:3] == [Prime(2), Prime(3), Prime(5)]
        # every count to 2000: the sieve's bound below k = 6 and at each power of two
        flags = sieve(17390)  # p_2000 = 17389
        reference_primes = [n for n in range(17390) if flags[n]]
        for count in range(1, 2001):
            assert [p.value for p in primes_first(count)] == reference_primes[:count], count

    def test_odd_part_against_the_loop(self):
        def loop(x):
            d, s = x, 0
            while d % 2 == 0:
                d //= 2
                s += 1
            return d, s

        for x in range(1, 10**4 + 1):
            assert padic._odd_part(x) == loop(x), x
        for m in (1, 3, 5**40 + 2, 2**64 - 1):
            for k in range(4001):
                assert padic._odd_part(m << k) == (m, k), (m, k)
            for k in (0, 1, 63, 64, 65, 4000):
                assert loop(m << k) == (m, k)

    def test_pickles_and_has_no_dict(self):
        # a Prime pickles; slots keep small the list of 5000 Primes that a scan holds
        for p in (Prime(48611), primes_first(3)[-1]):
            assert pickle.loads(pickle.dumps(p)) == p
            assert not hasattr(p, "__dict__")


class TestIntValuation:
    def test_examples(self):
        assert int_valuation(50, P5) == 2
        assert int_valuation(10, P3) == 0
        assert int_valuation(-243, P3) == 5

    def test_zero_raises(self):
        with pytest.raises(ValuationOfZeroError):
            int_valuation(0, P5)

    @given(
        x=st.integers(-10**9, 10**9).filter(bool),
        y=st.integers(-10**9, 10**9).filter(bool),
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_multiplicative(self, x, y, p):
        p = Prime(p)
        assert int_valuation(x * y, p) == int_valuation(x, p) + int_valuation(y, p)


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(0, P7) == 0
        assert digit_sum(1024, P2) == 1
        assert digit_sum(100, P3) == 4  # 10201 base 3


class TestLegendre:
    def test_against_factorial_trial_division(self):
        fact = 1
        for i in range(1, 11):
            fact *= i
        assert legendre_factorial_valuation(10, P2) == int_valuation(fact, P2) == 8

    def test_zero(self):
        assert legendre_factorial_valuation(0, P7) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            legendre_factorial_valuation(-1, P7)

    def test_power_of_two(self):
        assert legendre_factorial_valuation(1024, P2) == 1023

    def test_floor_sum_agreement(self):
        for pv in (2, 3, 5, 7, 11, 47):
            p = Prime(pv)
            for n in range(0, 2000):
                total, power = 0, pv
                while power <= n:
                    total += n // power
                    power *= pv
                assert legendre_factorial_valuation(n, p) == total


class TestRootsModP:
    def test_example1(self):
        assert roots_mod_p(Q1, P5) == [3, 4]

    def test_no_roots(self):
        assert roots_mod_p(IntPolynomial([1, 0, 1]), P3) == []

    def test_x3_plus_1_mod_7(self):
        assert roots_mod_p(IntPolynomial([1, 0, 0, 1]), P7) == [3, 5, 6]

    def test_vanishing_mod_p(self):
        with pytest.raises(PolynomialVanishesModP):
            roots_mod_p(IntPolynomial([3, 6, 9]), P3)

    def test_gcd_path_equals_scan(self, monkeypatch):
        monkeypatch.setattr(padic, "SCAN_THRESHOLD", 3)  # every odd prime takes the gcd path
        rng = random.Random(20260823)
        primes = [p for p in primes_first(303) if p.value <= 2000 and p.value > 2]
        for _ in range(120):
            p = rng.choice(primes)
            q = IntPolynomial([rng.randint(-60, 60) for _ in range(rng.randint(2, 9))])
            try:
                fast = roots_mod_p(q, p)
            except PolynomialVanishesModP:
                continue
            assert fast == [b for b in range(p.value) if q.evaluate_mod(b, p.value) == 0], (q, p)
        # products of 1 to 4 linear factors and a cofactor: the closed-form quadratic
        # and the random split of three or more roots both run
        for _ in range(120):
            p = rng.choice(primes)
            q = IntPolynomial([rng.randint(-60, 60) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 4)):
                q = q * IntPolynomial([rng.randint(-60, 60), rng.choice((1, 2, 3, -1))])
            try:
                fast = roots_mod_p(q, p)
            except PolynomialVanishesModP:
                continue
            assert fast == brute_roots(q, p.value), (q, p)

    @pytest.mark.parametrize(
        "q",
        # degrees 1 and 2 take the closed forms above the threshold: a double root
        # (disc = 0), x^2 + 1 (irreducible at p = 3 mod 4), and non-monic ones
        [Q1, Q3, E12, IntPolynomial([25, -10, 1]), IntPolynomial([1, 0, 1]), IntPolynomial([6, 3]),
         IntPolynomial([5, 3, 2])],
        ids=["Q1", "Q3", "E12", "(x-5)^2", "x^2+1", "3x+6", "2x^2+3x+5"],
    )
    def test_both_sides_of_threshold(self, q):
        assert 3 < padic.SCAN_THRESHOLD < 300
        for p in primes_first(62)[1:]:  # 3 to 293
            if not any(c % p.value for c in q.coeffs):  # 3x+6 at p = 3
                with pytest.raises(PolynomialVanishesModP):
                    roots_mod_p(q, p)
                continue
            assert roots_mod_p(q, p) == brute_roots(q, p.value), p

    @settings(max_examples=200, deadline=None)
    @given(
        # slots of one limb up to 10007, two at 2^31 - 1 and three at 2^61 - 1
        p=st.sampled_from([2, 3, 5, 7, 13, 10007, 2**31 - 1, 2**61 - 1]),
        data=st.data(),
    )
    def test_powmod_equals_square_and_multiply(self, p, data):
        coeffs = st.integers(0, p - 1)
        f = data.draw(st.lists(coeffs, min_size=1, max_size=13)) + [1]
        a = data.draw(coeffs)
        e = data.draw(st.one_of(st.sampled_from([0, 1, p, (p - 1) // 2]), st.integers(2, 300)))
        want = square_and_multiply(a, e, f, p), square_and_multiply(a, e >> 1, f, p)
        power, half = padic._gf_powmod(a, e, f, p)
        assert (power, half()) == want

    @pytest.mark.parametrize("n", range(1, 14))
    def test_powmod_worst_case_slots(self, n):
        # every coefficient p - 1, at the largest prime whose slot bound 2*n^2*p^3
        # fits in one, two and three limbs, and at the smallest prime past each
        for limbs in (1, 2, 3):
            top = integer_cube_root(((1 << (64 * limbs)) - 1) // (2 * n * n))
            below = next(q for q in range(top, 0, -1) if is_prime(q))
            past = next(q for q in range(top + 1, 2 * top) if is_prime(q))
            bits = [(2 * n * n * q**3).bit_length() for q in (below, past)]
            assert bits[0] <= 64 * limbs < bits[1]
            for p in (below, past):
                f = [p - 1] * n + [1]
                want = square_and_multiply(p - 1, p, f, p), square_and_multiply(p - 1, p >> 1, f, p)
                power, half = padic._gf_powmod(p - 1, p, f, p)
                assert (power, half()) == want, (n, p)

    @pytest.mark.parametrize("p", [2, 3, 67, 48611, 2**31 - 1, 2**61 - 1])
    @pytest.mark.parametrize("n", range(1, 14))
    def test_slot_reduction_at_its_edges(self, n, p):
        # the kernel keeps every slot below 6n*p^2; each value goes in every slot once
        w, k, mu, qmask = padic._slot_reduction(n, p)

        def reduce(x):  # the step _gf_powmod takes between products
            return x - p * ((x * mu >> k) & qmask)

        bound = 6 * n * p * p
        rng = random.Random(n * p)
        values = [0, p - 1, p, 2 * p - 1, bound - 1]
        values += [rng.randrange(lo, hi) for lo, hi in [(1, p), (p, 2 * p), (2 * p, bound)] * 2]
        for shift in range(len(values)):
            slots = [values[(shift + i) % len(values)] for i in range(n)]
            alone = [reduce(y) for y in slots]
            assert all(r % p == y % p and 0 <= r < 2 * p for r, y in zip(alone, slots))
            # packed, each slot reduces as it does alone: nothing bleeds into a neighbour
            packed = sum(y << (w * i) for i, y in enumerate(slots))
            assert reduce(packed) == sum(r << (w * i) for i, r in enumerate(alone))

    @pytest.mark.parametrize("q", [
        # every root r has r + a a square, so the first split leaves the product whole
        SQUARES_MINUS_SHIFT,
        # with the root -a, whose character is 0 at every shift-a split, and with
        # -(a + 1), the root the second shift cannot place
        SQUARES_MINUS_SHIFT * IntPolynomial([padic._FIRST_SHIFT, 1]),
        SQUARES_MINUS_SHIFT * IntPolynomial([padic._FIRST_SHIFT + 1, 1]),
        IntPolynomial([-1] + [0] * 11 + [1]),  # x^12 - 1
    ], ids=["squares_minus_shift", "with_minus_shift", "with_minus_next_shift", "x12_minus_1"])
    def test_roots_the_free_split_cannot_separate(self, q):
        for p in primes_first(430):
            if 67 <= p.value <= 3000:
                assert roots_mod_p(q, p) == brute_roots(q, p.value), p

    @pytest.mark.parametrize("q, most", [(Q1, 1014), (Q3, 1338)], ids=["Q1", "Q3"])
    def test_root_minus_shift_costs_no_power(self, q, most, monkeypatch):
        # Q1 and Q3 have the root -1 = -a at every prime: it is divided out, not
        # left for more (x + a)^((p-1)/2) splits (1112 and 1694 powers without)
        calls = []
        powmod = padic._gf_powmod
        monkeypatch.setattr(padic, "_gf_powmod", lambda *args: calls.append(args) or powmod(*args))
        for _ in scan_primes(q, 1000):
            pass
        assert len(calls) <= most

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 13, 10007, 2**61 - 1]), data=st.data())
    def test_gcd_equals_euclid(self, p, data):
        def poly(min_degree, max_degree):
            lead = data.draw(st.integers(1, p - 1))
            low = data.draw(st.lists(st.integers(0, p - 1), min_size=min_degree, max_size=max_degree))
            return low + [lead]

        planted = poly(0, 5)
        a = gf_mul(planted, poly(0, 6), p)
        b = gf_mul(planted, poly(0, 6), p) if data.draw(st.booleans()) else []
        got = padic._gf_gcd(a, b, p)
        assert got == euclid(a, b, p)
        remainder = list(got)
        del remainder[padic._gf_divide(remainder, planted, p):]
        assert not padic._gf_trim(remainder)  # the planted factor divides it

    @pytest.mark.parametrize("p, residue, modulus", [
        (43, 3, 4), (10007, 3, 4), (13, 5, 8), (1013, 5, 8), (17, 1, 16), (7681, 1, 16)])
    def test_sqrt_mod(self, p, residue, modulus):
        assert is_prime(p) and p % modulus == residue
        for a in {b * b % p for b in range(1, p)}:
            r = padic._sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a

    def test_large_prime(self):
        p = Prime(104729)
        got = roots_mod_p(IntPolynomial([1, 0, 0, 1]), p)
        assert all(IntPolynomial([1, 0, 0, 1]).evaluate_mod(b, p.value) == 0 for b in got)
        from math import gcd

        assert len(got) == gcd(3, p.value - 1)


class TestClassifyPrime:
    def test_hensel_example1(self):
        cls = classify_prime(Q1, P5)
        assert cls.verdict is Verdict.HENSEL
        assert cls.roots == (3, 4)
        assert cls.non_hensel_roots == ()
        assert cls.z_p == 2

    def test_non_hensel_p3(self):
        assert classify_prime(Q1, P3).verdict is Verdict.NON_HENSEL

    def test_example3_p13(self):
        q = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])
        cls = classify_prime(q, Prime(13))
        assert cls.verdict is Verdict.NON_HENSEL
        assert 12 in cls.non_hensel_roots

    def test_no_roots_verdict(self):
        assert classify_prime(IntPolynomial([1, 0, 1]), P3).verdict is Verdict.NO_ROOTS

    def test_invariant_under_adding_p_multiple(self):
        rng = random.Random(7)
        for _ in range(40):
            q = IntPolynomial([rng.randint(-30, 30) for _ in range(rng.randint(2, 7))])
            p = Prime(rng.choice([2, 3, 5, 7, 11, 13]))
            shift = IntPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
            a = classify_prime(q, p)
            b = classify_prime(q + p.value * shift, p)
            assert a.verdict == b.verdict
            assert a.roots == b.roots

    @settings(max_examples=300, deadline=None)
    @given(
        # both sides of SCAN_THRESHOLD, where an exhaustive census still runs, and 2^61 - 1
        p=st.sampled_from([2, 3, 5, 7, 31, 61, 67, 101, 257, 1009, 4093, 2**61 - 1]),
        data=st.data(),
    )
    def test_classify_equals_census(self, p, data):
        assert 61 < padic.SCAN_THRESHOLD < 67
        lead_vanishes = data.draw(st.booleans())  # p | lc(Q)
        if p < 5000:
            # degree 1 to 8, with (x + 1)^j as a factor for j = 0, 1 or 2
            j = data.draw(st.integers(0, 2))
            low = data.draw(st.lists(st.integers(-60, 60), min_size=max(0, 1 - j), max_size=8 - j))
            lead = p * data.draw(st.integers(1, 3)) if lead_vanishes else data.draw(
                st.integers(1, 60).filter(lambda c: c % p))
            q = math.prod([IntPolynomial([1, 1])] * j, start=IntPolynomial(low + [lead]))
            roots = tuple(b for b in range(p) if q.evaluate_mod(b, p) == 0)
        else:
            # planted: linear factors (x - r), repeats and -1 among them, and maybe x^2 + 1,
            # which has no root at p = 3 mod 4; p * x^9 puts p | lc(Q)
            pick = st.sampled_from([p - 1, 1, 2, 12345]) | st.integers(0, p - 1)
            picks = data.draw(st.lists(pick, max_size=6))
            q = math.prod([IntPolynomial([-r, 1]) for r in picks], start=IntPolynomial([1]))
            if data.draw(st.booleans()) or not picks:
                q = q * IntPolynomial([1, 0, 1])
            if lead_vanishes:
                q = q + IntPolynomial([0] * 9 + [p])
            roots = tuple(sorted(set(picks)))
        cls = classify_prime(q, Prime(p))
        dq = q.derivative()
        bad = tuple(b for b in roots if dq.evaluate_mod(b, p) == 0)
        if not any(c % p for c in q.coeffs):
            want = (Verdict.ALL_RESIDUES, (), ())
        else:
            verdict = Verdict.NON_HENSEL if bad else Verdict.HENSEL if roots else Verdict.NO_ROOTS
            want = (verdict, roots, bad)
        assert (cls.verdict, cls.roots, cls.non_hensel_roots) == want, (q, p)

    @settings(max_examples=300, deadline=None)
    @given(
        low=st.lists(st.integers(-30, 30), min_size=1, max_size=7),
        lead=st.integers(-30, 30).filter(bool),
        square=st.none() | st.tuples(st.integers(1, 3), st.integers(-5, 5)),
        p=st.sampled_from([q for q in range(2, 102) if is_prime(q)]),
    )
    def test_non_hensel_only_where_p_divides_the_resultant(self, low, lead, square, p):
        # a root mod p shared by Q and Q' makes Res(Q, Q') = +-lc(Q) disc(Q) vanish mod p;
        # a squared linear factor (a*x + b)^2 makes it vanish over Z
        q = IntPolynomial(low + [lead])  # degree 1 to 7
        if square:
            linear = IntPolynomial([square[1], square[0]])
            q = q * linear * linear
        res = reference.lc_times_discriminant(list(q.coeffs))
        cls = classify_prime(q, Prime(p))
        if cls.verdict is Verdict.NON_HENSEL:
            assert res % p == 0, (q, p)
        if res % p and cls.verdict is not Verdict.ALL_RESIDUES:
            dq = q.derivative()
            assert cls.non_hensel_roots == () and all(dq.evaluate_mod(r, p) for r in cls.roots), (q, p)

    def test_serialization(self, capsys):
        assert main(["classify", "--poly", "x^5+2x^3+3", "--prime", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"p": 5, "verdict": "hensel", "roots": [3, 4], "non_hensel_roots": []}

    def test_all_residues_without_root_finding(self, monkeypatch):
        def refuse(q, p):
            raise AssertionError("roots_mod_p called when p divides every coefficient")

        monkeypatch.setattr(padic, "roots_mod_p", refuse)
        for q in (IntPolynomial([6, 3]), IntPolynomial([0, 9, 0, 3]), IntPolynomial()):
            assert classify_prime(q, P3).verdict is Verdict.ALL_RESIDUES

    def test_all_residues(self, capsys):
        for q in (IntPolynomial([6, 3]), IntPolynomial()):
            cls = classify_prime(q, P3)
            assert (cls.verdict, cls.roots, cls.non_hensel_roots) == (Verdict.ALL_RESIDUES, (), ())
            assert cls.z_p == 3 and not cls.all_roots_simple
        for poly in ("3x+6", "0"):
            assert main(["classify", "--poly", poly, "--prime", "3", "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == {"p": 3, "verdict": "all_residues"}
        assert main(["scan", "--poly", "0", "--count", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"p": pv, "verdict": "all_residues"} for pv in (2, 3, 5)]


def base_p_digits(x, p, n):
    """The n base-p digits of 0 <= x < p^n, little-endian, by divmod."""
    digits = []
    for _ in range(n):
        x, d = divmod(x, p)
        digits.append(d)
    assert x == 0, "x has more than n digits"
    return digits


class TestHenselLift:
    def test_lift_examples_brute_force(self):
        q = IntPolynomial([1, 0, 1])
        # independent oracle: exhaustive search over residues congruent to 2 mod 5
        for k, modulus in ((1, 25), (2, 125)):
            expected = [r for r in range(2, modulus, 5) if q.evaluate(r) % modulus == 0]
            assert len(expected) == 1
            assert hensel_lift(q, P5, 2, k) == expected[0]

    def test_digits_values(self):
        x = hensel_lift(IntPolynomial([1, 0, 1]), P5, 2, 2)
        assert base_p_digits(x, 5, 3) == [2, 1, 2]
        assert [x % 5 ** (s + 1) for s in range(3)] == [2, 7, 57]

    def test_minus_one_all_digits(self):
        x = hensel_lift(IntPolynomial([1, 1]), P7, 6, 3)
        assert base_p_digits(x, 7, 4) == [6, 6, 6, 6]
        assert x == 7**4 - 1

    def test_not_a_root(self):
        with pytest.raises(NotARootError):
            hensel_lift(IntPolynomial([1, 0, 1]), P5, 1, 3)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_precision(self, k):
        # [0, p^(k+1)) holds no residue below k = 0
        with pytest.raises(ValueError, match=f"k = {k}"):
            hensel_lift(IntPolynomial([1, 0, 1]), P5, 2, k)

    def test_not_simple(self):
        q = IntPolynomial([1, 0, 0, 1])  # x^3+1 has a triple root mod 3
        with pytest.raises(NotSimpleRootError):
            hensel_lift(q, P3, 2, 3)

    def test_prefix_consistency(self):
        q = Q1
        x = hensel_lift(q, P5, 3, 8)
        assert 0 <= x < 5**9
        for s in range(9):
            assert q.evaluate(x % 5 ** (s + 1)) % 5 ** (s + 1) == 0

    @pytest.mark.parametrize("q, p, a, k", [(Q1, P5, 3, 40), (IntPolynomial([1, 0, 1]), P5, 2, 60),
                                            (IntPolynomial([-2, 0, 1]), P7, 3, 0),
                                            (IntPolynomial([-3, 1]), Prime(2), 1, 25)])
    def test_truncations_are_the_truncation_values(self, q, p, a, k):
        # the root mod p^(s+1) is the lift to s digits: a simple root lifts uniquely
        x = hensel_lift(q, p, a, k)
        for s in range(k + 1):
            assert x % p.value ** (s + 1) == hensel_lift(q, p, a, s)

    def test_serialization(self, capsys):
        assert main(["lift", "--poly", "x^2+1", "--prime", "5", "--root", "2", "--precision", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("value") == 57  # the CLI adds the truncation value
        assert payload == {"p": 5, "digits": [2, 1, 2]}

    @pytest.mark.parametrize("q, p, a, k", [(Q1, P5, 3, 40), (IntPolynomial([1, 0, 1]), P5, 2, 400),
                                            (IntPolynomial([-3, 1]), P2, 1, 25),
                                            (IntPolynomial([5, 2, 0, 1]), P7, 4, 64)])
    def test_digits_are_the_digit_by_digit_lift(self, q, p, a, k):
        # the reference is one Hensel digit per step, each from q at the root mod p^s
        dinv = pow(q.derivative().evaluate_mod(a, p.value), -1, p.value)
        digits, gamma, ps = [a], a, p.value
        for _ in range(k):
            digits.append(padic.hensel_digit(q, p.value, gamma, ps, dinv))
            gamma += digits[-1] * ps
            ps *= p.value
        assert base_p_digits(hensel_lift(q, p, a, k), p.value, k + 1) == digits

    def test_precision_doubles_per_evaluation(self, monkeypatch):
        calls = 0
        evaluate_mod = IntPolynomial.evaluate_mod

        def counted(self, x, m):
            nonlocal calls
            calls += 1
            return evaluate_mod(self, x, m)

        monkeypatch.setattr(IntPolynomial, "evaluate_mod", counted)
        k = 6150
        x = hensel_lift(IntPolynomial([1, 0, 1]), P5, 2, k)
        assert calls <= 2 * math.ceil(math.log2(k + 1)) + 4  # one per digit would be 6152
        assert (x**2 + 1) % 5 ** (k + 1) == 0
