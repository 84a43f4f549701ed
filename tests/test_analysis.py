import json
import random
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicval.analysis import (
    asymptotic_zero_number,
    empirical_slope,
    error_series,
    exact_slope,
    scan_primes,
    slope_report,
)
from padicval.cli import main
from padicval.errors import NotHenselPrimeError, ValuationOfZeroError
from padicval.padic import Prime, Verdict, classify_prime, digit_sum, int_valuation, roots_mod_p
from padicval.poly import IntPolynomial, integer_poly_gcd
from padicval.recurrence import make_spec, valuation_tn_fast

X = IntPolynomial([0, 1])
Q1 = IntPolynomial([3, 0, 0, 2, 0, 1])          # x^5+2x^3+3
Q3 = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])  # (x^3+1)(x^5+1)
X3P1 = IntPolynomial([1, 0, 0, 1])
X5P1 = IntPolynomial([1, 0, 0, 0, 0, 1])
P2, P3, P5 = Prime(2), Prime(3), Prime(5)


class TestPredictedSlope:
    """At a Hensel (or rootless) prime the slope is z_p/(p-1)."""

    def test_example1(self):
        assert exact_slope(Q1, P5) == Fraction(1, 2)

    def test_factorial(self):
        assert exact_slope(X, P2) == 1

    def test_rootless(self):
        assert exact_slope(IntPolynomial([1, 0, 1]), P3) == 0

    def test_p_divides_content_raises(self):
        # 3(x^2+1): Q' = 6x vanishes mod 3 too, so no root is simple (the slope is 1, not 3/2)
        q = IntPolynomial([3, 0, 3])
        with pytest.raises(NotHenselPrimeError):
            valuation_tn_fast(make_spec(q), P3, 100)
        assert Fraction(classify_prime(q, P3).z_p, 2) == Fraction(3, 2)
        assert exact_slope(q, P3) == 1


class TestExactSlope:
    def test_example2_values(self):
        assert exact_slope(Q1, P3) == Fraction(4, 3)
        assert exact_slope(Q1, Prime(29)) == Fraction(57, 812)
        assert exact_slope(Q1, Prime(11)) == Fraction(3, 10)

    def test_example2_zero_numbers(self):
        assert asymptotic_zero_number(Q1, P3) == Fraction(8, 3)
        assert asymptotic_zero_number(Q1, Prime(11)) == 3
        assert asymptotic_zero_number(Q1, Prime(29)) == Fraction(57, 29)

    def test_example3_product(self):
        assert exact_slope(Q3, P5) == Fraction(7, 10)
        assert exact_slope(Q3, P3) == Fraction(4, 3)

    def test_matches_hensel_closed_form(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            q = IntPolynomial([rng.randint(-40, 40) for _ in range(rng.randint(2, 6))])
            p = Prime(rng.choice([3, 5, 7, 11, 13, 17]))
            cls = classify_prime(q, p)
            if cls.verdict in (Verdict.NON_HENSEL, Verdict.ALL_RESIDUES):
                continue
            assert exact_slope(q, p) == Fraction(cls.z_p, p.value - 1)
            checked += 1

    def test_p_divides_content(self):
        # 5(x+1)(x+6): v_5(5) per index, plus the descent below the double root 4
        assert exact_slope(IntPolynomial([30, 35, 5]), P5) == Fraction(3, 2)
        assert exact_slope(IntPolynomial([9]), P3) == 2

    @pytest.mark.parametrize("q, p", [(Q1, P5), (X, P2), (IntPolynomial([-(3**200), 0, 1]), Prime(7))])
    def test_hensel_prime_takes_no_gcd(self, q, p):
        # without a repeated root mod p, Q's descent is its root node: nothing is peeled
        code, calls = integer_poly_gcd.__code__, []
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is code and calls.append(1))
        try:
            slope = exact_slope(q, p)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert slope == Fraction(classify_prime(q, p).z_p, p.value - 1)

    def test_double_root_mod_p_takes_one_gcd(self):
        # (x+1)(x+6) is squarefree over Z, but 4 is a double root mod 5:
        # one gcd(Q, Q') finds it squarefree
        code, calls = integer_poly_gcd.__code__, []
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is code and calls.append(1))
        try:
            slope = exact_slope(IntPolynomial([6, 7, 1]), P5)
        finally:
            sys.setprofile(None)
        assert calls == [1]
        assert slope == Fraction(1, 2)

    def test_zero_polynomial(self):
        # the descent's root node strips the valuation of the content, which is 0
        with pytest.raises(ValuationOfZeroError):
            exact_slope(IntPolynomial(), P5)

    def test_squarefree_deep_descent_needs_no_cap(self):
        # x^2 - 3^200 descends about 100 levels; its factors x -+ 3^100 each give 1/2
        q = IntPolynomial([-(3**200), 0, 1])
        a, b = IntPolynomial([-(3**100), 1]), IntPolynomial([3**100, 1])
        assert exact_slope(q, P3) == exact_slope(a, P3) + exact_slope(b, P3) == 1


class TestEmpiricalSlope:
    def test_factorial(self):
        spec = make_spec(X)
        assert empirical_slope(spec, P2, 1024) == Fraction(1023, 1024)

    def test_rootless(self):
        spec = make_spec(IntPolynomial([1, 0, 1]))
        assert empirical_slope(spec, P3, 500) == 0

    def test_converges_to_exact(self):
        spec = make_spec(Q1)
        n = 20000
        approx = empirical_slope(spec, P5, n)
        assert abs(approx - 2) <= Fraction(1, 100)


def errors_read_whole(q, p, n):
    """error_series of make_spec(q) at p read whole, with the z_p the CLI passes: (err, relerr)."""
    zp = classify_prime(q, p).z_p
    return tuple(list(chain.from_iterable(col)) for col in zip(*error_series(make_spec(q), p, n, zp)))


class TestErrorSeries:
    def test_factorial_err_is_digit_sum(self):
        err, _ = errors_read_whole(X, P2, 512)
        for k in range(512):
            assert err[k] == digit_sum(k + 1, P2)

    def test_rootless_identically_zero(self):
        err, relerr = errors_read_whole(IntPolynomial([1, 0, 1]), P3, 50)
        assert set(err) == {0} and set(relerr) == {0}

    def test_omega_example(self):
        assert classify_prime(IntPolynomial([1, 0, 1]), P5).z_p == 2
        err, _ = errors_read_whole(IntPolynomial([1, 0, 1]), P5, 5)
        # z*n - (p-1)*v with v = [0, 1, 2, 2, 2]
        assert err == [2, 0, -2, 0, 2]

    def test_relerr_identity(self):
        _, relerr = errors_read_whole(Q1, P5, 300)
        zp, pm1 = 2, 4
        for k in range(300):
            term = int_valuation(Q1.evaluate(k + 1), P5)
            assert relerr[k] == zp - pm1 * term

    def test_csv(self, capsys):
        assert main(["errors", "--poly", "x", "--prime", "2", "--n-max", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "n,err,relerr\n1,1,1\n2,1,0\n"


class TestScanPrimes:
    def test_example2_truncated(self):
        results = list(scan_primes(Q1, 600))
        non_hensel = {
            p.value
            for p, c in results
            if c.verdict is Verdict.NON_HENSEL
        }
        assert non_hensel == {3, 11, 29}

    def test_example3_every_rooted_prime_non_hensel(self):
        for p, c in scan_primes(Q3, 100):
            if c.verdict is Verdict.ALL_RESIDUES:
                continue
            assert c.verdict in (Verdict.NO_ROOTS, Verdict.NON_HENSEL)

    def test_small_scan_details(self):
        q = IntPolynomial([1, 0, 1])
        results = dict((p.value, c) for p, c in scan_primes(q, 4))
        assert results[2].verdict is Verdict.NON_HENSEL and results[2].roots == (1,)
        assert results[3].verdict is Verdict.NO_ROOTS
        assert results[5].verdict is Verdict.HENSEL and results[5].roots == (2, 3)
        assert results[7].verdict is Verdict.NO_ROOTS

    def test_all_residues_marker(self):
        q = IntPolynomial([3, 6])
        results = dict((p.value, c) for p, c in scan_primes(q, 3))
        assert results[3].verdict is Verdict.ALL_RESIDUES
        assert results[2].verdict is not Verdict.ALL_RESIDUES


class TestClosedForms:
    """The paper's x^p +/- 1 lemmas at odd p, written inline."""

    def test_nu_xp_minus_1_examples(self):
        # v_p(x^p - 1) is 1 + v_p(x - 1) when x = 1 mod p, else 0
        assert int_valuation(4**3 - 1, P3) == 1 + int_valuation(4 - 1, P3) == 2
        assert int_valuation(2**3 - 1, P3) == 0
        # 26^5 - 1 = 11881375 = 5^3 * 95051, and 1 + v_5(25) = 3
        assert int_valuation(26**5 - 1, P5) == 1 + int_valuation(26 - 1, P5) == 3

    def test_nu_xp_plus_1_examples(self):
        # v_p(x^p + 1) is 1 + v_p(x + 1) when x = -1 mod p, else 0
        assert int_valuation(2**3 + 1, P3) == 1 + int_valuation(2 + 1, P3) == 2
        assert int_valuation(3**5 + 1, P5) == 0
        assert int_valuation(9**5 + 1, P5) == 1 + int_valuation(9 + 1, P5) == 2

    def test_T_and_S_examples(self):
        # T_p(x) = 1 + x + ... + x^(p-1) and S_p(x) = x^(p-1) - ... + 1 have valuation
        # 1 when x = 1 (for T) or x = -1 (for S) mod p, else 0
        assert int_valuation(1 + 4 + 4**2, P3) == 1  # T_3(4) = 21
        assert int_valuation(1 + 2 + 2**2, P3) == 0  # T_3(2) = 7
        assert int_valuation(2**2 - 2 + 1, P3) == 1  # S_3(2) = 3

    def test_against_direct_valuation(self):
        for pv in (3, 5, 7, 11, 13):
            p = Prime(pv)
            for x in range(-200, 201):
                if x != 1:
                    minus = 1 + int_valuation(x - 1, p) if x % pv == 1 else 0
                    assert int_valuation(x**pv - 1, p) == minus
                    t = sum(x**k for k in range(pv))
                    assert int_valuation(t, p) == (x % pv == 1)
                if x != -1:
                    plus = 1 + int_valuation(x + 1, p) if x % pv == pv - 1 else 0
                    assert int_valuation(x**pv + 1, p) == plus
                    s = sum((-1) ** k * x ** (pv - 1 - k) for k in range(pv))
                    assert int_valuation(s, p) == (x % pv == pv - 1)

    def test_root_counts(self):
        # x^p + 1 has gcd(p, q-1) roots mod q
        assert len(roots_mod_p(X3P1, Prime(7))) == gcd(3, 6) == 3
        assert len(roots_mod_p(X5P1, Prime(7))) == gcd(5, 6) == 1
        assert len(roots_mod_p(X3P1, P3)) == gcd(3, 2) == 1
        # the gcd count needs the exponent odd (x^2+1 has no roots mod q = 3 mod 4)
        for pv in (3, 5, 7, 11, 13):
            for qv in (2, 3, 5, 7, 11, 13, 17, 19):
                q = IntPolynomial([1] + [0] * (pv - 1) + [1])
                assert len(roots_mod_p(q, Prime(qv))) == gcd(pv, qv - 1), (pv, qv)

    def test_slope_closed_form(self):
        # the slope of x^p +/- 1 is (2p-1)/(p(p-1)) at q = p, else gcd(p, q-1)/(q-1)
        assert exact_slope(X3P1, P3) == Fraction(2 * 3 - 1, 3 * 2) == Fraction(5, 6)
        assert exact_slope(X5P1, P5) == Fraction(2 * 5 - 1, 5 * 4) == Fraction(9, 20)
        assert exact_slope(X3P1, Prime(7)) == Fraction(gcd(3, 6), 6) == Fraction(1, 2)
        assert exact_slope(IntPolynomial([-1, 0, 0, 1]), P3) == Fraction(5, 6)


_FACTORS = st.lists(st.integers(-12, 12), min_size=1, max_size=4).map(IntPolynomial).filter(
    lambda q: not q.is_zero)


@st.composite
def factor_pairs(draw):
    """(A, B, p): B is A in about one draw in three, and p may divide content(A)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    a = draw(_FACTORS) * IntPolynomial([draw(st.sampled_from([1, 1, p, p * p]))])
    b = draw(st.one_of(st.just(a), _FACTORS, _FACTORS))
    return a, b, Prime(p)


class TestCompositeSlope:
    """Slopes add over pointwise factors, repeated ones included."""

    def test_example4_p3_q2(self):
        q = IntPolynomial([1, 3]) * IntPolynomial([1, 3]) * IntPolynomial([1, 4])
        # 2 divides 3+1, so the second factor is rootless mod 2
        assert exact_slope(q, P2) == 2
        assert (2 - 1) * exact_slope(q, P2) == 2

    def test_example3_sum(self):
        assert (7 - 1) * exact_slope(Q3, Prime(7)) == gcd(3, 6) + gcd(5, 6) == 4

    def test_single_simple_factor(self):
        for p in (P2, P3, Prime(13)):
            assert (p.value - 1) * exact_slope(IntPolynomial([1, 1]), p) == 1

    @settings(max_examples=300, deadline=None)
    @given(factor_pairs())
    @example((IntPolynomial([1, 1]), IntPolynomial([3, -3, 3, -1, 1]), P3))
    @example((IntPolynomial([1, 1]), IntPolynomial([3, -3, 3, -1, 1]), Prime(11)))
    @example((IntPolynomial([1, 1]), IntPolynomial([3, -3, 3, -1, 1]), Prime(29)))
    @example((IntPolynomial([1, 1]), IntPolynomial([3, -3, 3, -1, 1]), Prime(31)))
    @example((X3P1, X5P1, P3))
    @example((X3P1, X5P1, P5))
    @example((X3P1, X5P1, Prime(7)))
    def test_matches_expanded_product(self, case):
        a, b, p = case
        assert exact_slope(a * b, p) == exact_slope(a, p) + exact_slope(b, p)


@st.composite
def linear_products(draw):
    """(c, [(a, b), ...], p) for c * prod(a*x + b), a != 0: p <= 47, |a| and
    |b| up to 3p^2, one factor may be repeated, two may share a root mod p,
    and p may divide c."""
    pv = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]))
    coeff = st.integers(-3 * pv * pv, 3 * pv * pv)
    factors = draw(st.lists(st.tuples(coeff.filter(bool), coeff), min_size=1, max_size=4))
    a, b = draw(st.sampled_from(factors))
    extra = draw(st.sampled_from([[], [(a, b)], [(a, b + a * pv * draw(st.integers(1, 9)))]]))
    c = draw(coeff.filter(bool)) * pv ** draw(st.integers(0, 3))
    return c, factors + extra, Prime(pv)


class TestLinearProductSlope:
    """An oracle that does not descend: a linear factor a*x + b is p^m times
    a*x/p^m + b/p^m, with m = min(v_p(a), v_p(b)) (v_p(a) when b = 0), and
    that has one simple root mod p when p does not divide a/p^m, none
    otherwise."""

    @settings(max_examples=400, deadline=None)
    @given(linear_products())
    @example((2, [(1, 1), (1, 1)], P2))
    @example((9, [(3, 0), (1, 2), (1, 5)], P3))
    def test_against_closed_form(self, case):
        c, factors, p = case
        pv = p.value
        q, expected = IntPolynomial([c]), Fraction(int_valuation(c, p))
        for a, b in factors:
            q = q * IntPolynomial([b, a])
            m = int_valuation(a, p) if b == 0 else min(int_valuation(a, p), int_valuation(b, p))
            expected += m + Fraction((a // pv**m) % pv != 0, pv - 1)
        assert exact_slope(q, p) == expected


def root_count_slope(coeffs, p, cap):
    """E = sum over k >= 1 of N_k/p^k, N_k = #{x mod p^k : p^k | Q(x)}, for squarefree Q.

    N_k/p^k is the density of the indices i with p^k | Q(i).  Each root mod
    p^k is lifted by trying its p next digits, with Q(x) computed exactly.
    Once every root x mod p^K has K > 2 v_p(Q'(x)), Hensel's lemma (strong
    form) gives N_k = N_K for every k >= K, so the tail is N_K/(p^K (p-1)).
    None once more than cap roots are held.  Uses nothing from padicval.
    """
    def at(cs, x):
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def val(n):
        if n == 0:
            return inf
        v = 0
        while n % p == 0:
            n, v = n // p, v + 1
        return v

    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    roots, k, total = [0], 0, Fraction(0)  # the one root mod p^0
    while len(roots) <= cap:
        pk = p**k
        roots = [y for x in roots for y in range(x, x + p * pk, pk) if at(coeffs, y) % (pk * p) == 0]
        k += 1
        total += Fraction(len(roots), p**k)
        if all(k > 2 * val(at(deriv, x)) for x in roots):
            return total + Fraction(len(roots), p**k * (p - 1))
    return None


class TestRootCountSlope:
    """exact_slope against root counts mod p^k, which reach factors of any degree."""

    PRIMES = (2, 3, 5, 7, 11)
    CAP = 20000  # roots held mod p^k; a draw past it is skipped

    def _skipped(self, draws):
        skipped = 0
        for q, pv in draws:
            expected = root_count_slope(list(q.coeffs), pv, self.CAP)
            if expected is None:
                skipped += 1
            else:
                assert exact_slope(q, Prime(pv)) == expected, (q, pv)
        return skipped

    @staticmethod
    def _squarefree(q):
        return q.degree >= 1 and integer_poly_gcd(q, q.derivative()).degree == 0

    def test_random_squarefree(self):
        rng = random.Random(1991)
        draws = []
        while len(draws) < 300:
            q = IntPolynomial([rng.randint(-30, 30) for _ in range(rng.randint(2, 7))])
            if self._squarefree(q):
                if rng.random() < 0.3:
                    q = q * rng.choice((2, 3, 4, 9, 25))
                draws.append((q, rng.choice(self.PRIMES)))
        assert self._skipped(draws) <= 3

    def test_deep_descent(self):
        # (x-a)^2 - p^j u, and two pairs of roots p^j apart at distinct residues
        # times a quadratic: non-simple roots mod p whose descent runs j or more
        # levels deep, two of them at one node
        rng = random.Random(1962)
        draws = []
        while len(draws) < 100:
            pv, j, a, u = rng.choice(self.PRIMES), rng.randint(1, 3), rng.randint(-20, 20), rng.randint(1, 30)
            q = IntPolynomial([a * a - pv**j * u, -2 * a, 1])
            b, w = rng.randint(-20, 20), rng.randint(-30, 30)
            if (a - b) % pv and rng.random() < 0.5:
                q = (IntPolynomial([-a, 1]) * IntPolynomial([-a - pv**j * u, 1])
                     * IntPolynomial([-b, 1]) * IntPolynomial([-b - pv**j * w, 1])
                     * IntPolynomial([rng.randint(-9, 9), rng.randint(-9, 9), 1]))
            if self._squarefree(q):
                draws.append((q, pv))
        assert self._skipped(draws) <= 3


class TestSlopeReport:
    def test_hensel_report(self):
        spec = make_spec(Q1)
        report = slope_report(spec, P5, sample_points=(100,))
        assert report.predicted == Fraction(1, 2)
        assert report.n_p == 2
        assert report.classification.verdict is Verdict.HENSEL
        (n, v), = report.empirical
        assert n == 100 and v == empirical_slope(spec, P5, 100)

    def test_json_rationals_as_strings(self, capsys):
        assert main(["slope", "--poly", "x^5+2x^3+3", "--prime", "29", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope"] == "57/812"
        assert payload["N_p"] == "57/29"


class TestSandwichBound:
    def test_quantitative_convergence(self):
        from padicval.recurrence import max_power_index

        for q, pv in ((Q1, 5), (X, 3), (IntPolynomial([1, 0, 1]), 5)):
            p = Prime(pv)
            spec = make_spec(q)
            z = len(roots_mod_p(q, p))
            for n in (100, 1000, 5000):
                r_n = max_power_index(spec, p, n)
                emp = empirical_slope(spec, p, n)
                bound = Fraction((pv - 1) * z * (r_n + 2), n)
                assert abs(emp - (pv - 1) * exact_slope(q, p)) <= bound
