import math
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicval import padic, poly
from padicval.errors import ZeroPolynomialError
from padicval.padic import is_prime
from padicval.poly import (
    IntPolynomial,
    format_poly,
    integer_poly_gcd,
    nonneg_integer_roots,
    poly_divexact,
    squarefree_pieces,
)

Q1 = IntPolynomial([3, 0, 0, 2, 0, 1])  # x^5+2x^3+3
H = IntPolynomial([3, -3, 3, -1, 1])    # x^4-x^3+3x^2-3x+3

small_polys = st.lists(st.integers(-50, 50), min_size=0, max_size=7).map(IntPolynomial)


def divisor_roots(q):
    """Oracle: a positive integer root divides the constant term once x^k is factored out."""
    coeffs = list(q.coeffs)
    roots = {0} if coeffs[0] == 0 else set()
    while coeffs[0] == 0:
        coeffs.pop(0)
    reduced, c0 = IntPolynomial(coeffs), abs(coeffs[0])
    for d in range(1, isqrt(c0) + 1):
        if c0 % d == 0:
            roots |= {e for e in (d, c0 // d) if reduced.evaluate(e) == 0}
    return roots


def horner_substitute(q, a, b):
    """Oracle: q(a*x + b) by Horner's rule over whole polynomial products."""
    inner = IntPolynomial([b, a])
    result = IntPolynomial()
    for c in reversed(q.coeffs):
        result = result * inner + IntPolynomial([c])
    return result


def euclid_over_q(a, b):
    """Oracle: Euclid's algorithm in Q[x] on Fractions, then the primitive integer multiple."""
    a, b = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] -= c * y
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    den = math.lcm(*(c.denominator for c in a))
    return IntPolynomial(int(c * den) for c in a).primitive_part()


class TestEvaluate:
    def test_example1_poly(self):
        assert Q1.evaluate(3) == 300

    def test_zero_poly(self):
        assert IntPolynomial().evaluate(12345) == 0

    def test_x2_plus_1(self):
        assert IntPolynomial([1, 0, 1]).evaluate(7) == 50


class TestEvaluateMod:
    def test_root_mod_5(self):
        assert Q1.evaluate_mod(4, 5) == 0

    def test_constant_term(self):
        assert Q1.evaluate_mod(0, 5) == 3

    def test_h_root_mod_29(self):
        assert H.evaluate_mod(14, 29) == 0

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Q1.evaluate_mod(1, 1)

    @given(q=small_polys, x=st.integers(-100, 100), m=st.integers(2, 1000))
    def test_matches_exact_evaluation(self, q, x, m):
        assert q.evaluate_mod(x, m) == q.evaluate(x) % m


class TestDerivative:
    def test_example1(self):
        assert Q1.derivative() == IntPolynomial([0, 0, 6, 0, 5])

    def test_constant(self):
        assert IntPolynomial([7]).derivative().is_zero

    def test_degree8(self):
        q = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])
        assert q.derivative() == IntPolynomial([0, 0, 3, 0, 5, 0, 0, 8])

    @given(a=small_polys, b=small_polys)
    def test_linearity(self, a, b):
        assert (a + b).derivative() == a.derivative() + b.derivative()


class TestContent:
    def test_examples(self):
        assert IntPolynomial().content() == 0
        assert IntPolynomial([-6]).content() == 6
        assert IntPolynomial([6, -4, 0, 10]).content() == 2

    @given(small_polys)
    def test_is_the_coefficients_gcd(self, q):
        g = q.content()
        assert g >= 0 and (g == 0) == q.is_zero
        if g:
            assert all(c % g == 0 for c in q.coeffs)
            assert IntPolynomial(c // g for c in q.coeffs).content() == 1


class TestAffineSubstitute:
    def test_h_29k_plus_14(self):
        assert H.affine_substitute(29, 14) == IntPolynomial(
            [36221, 303601, 956217, 1341395, 707281]
        )

    def test_h_3k(self):
        assert H.affine_substitute(3, 0) == IntPolynomial([3, -9, 27, -27, 81])

    def test_identity(self):
        x = IntPolynomial([0, 1])
        assert x.affine_substitute(1, 0) == x

    @given(q=small_polys, a=st.integers(-9, 9), b=st.integers(-9, 9), k=st.integers(-9, 9))
    def test_pointwise(self, q, a, b, k):
        assert q.affine_substitute(a, b).evaluate(k) == q.evaluate(a * k + b)

    @given(
        q=st.lists(st.integers(-10**40, 10**40), max_size=41).map(IntPolynomial),
        a=st.sampled_from([pv**e for pv in (2, 3, 5, 29) for e in range(51) if pv**e <= 3**50]),
        b=st.integers(-10**30, 10**30),
        k=st.integers(-10**6, 10**6),
    )
    @example(q=IntPolynomial(), a=1, b=0, k=0)
    @example(q=IntPolynomial([7]), a=3**50, b=-10**30, k=-1)
    @example(q=IntPolynomial([-10**40] * 41), a=3**50, b=10**30, k=10**6)
    @example(q=IntPolynomial([3001, 0, 5, -7]), a=3001, b=0, k=-2)  # b = 0 takes no synthetic division
    @settings(max_examples=150, deadline=None)
    def test_large_against_horner(self, q, a, b, k):
        # degree 0 to 40, coefficients to 10^40, a = p^e up to 3^50, b of either sign to 10^30
        r = q.affine_substitute(a, b)
        assert r.evaluate(k) == q.evaluate(a * k + b)
        assert r == horner_substitute(q, a, b)


class TestGcd:
    def test_example3(self):
        q = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])
        assert integer_poly_gcd(q, q.derivative()) == IntPolynomial([1, 1])

    def test_divisor_case(self):
        assert integer_poly_gcd(
            IntPolynomial([-1, 0, 1]), IntPolynomial([-1, 1])
        ) == IntPolynomial([-1, 1])

    def test_squarefree_example1(self):
        assert integer_poly_gcd(Q1, Q1.derivative()) == IntPolynomial([1])

    def test_both_zero(self):
        with pytest.raises(ZeroPolynomialError):
            integer_poly_gcd(IntPolynomial(), IntPolynomial())

    @given(a=small_polys, b=small_polys)
    @settings(max_examples=60)
    def test_gcd_divides_both(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = integer_poly_gcd(a, b)
        for q in (a, b):
            if q.is_zero:
                continue
            # g divides the primitive part of q
            poly_divexact(q.primitive_part(), g)

    @given(a=small_polys, b=small_polys)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        if a.is_zero and b.is_zero:
            return
        assert integer_poly_gcd(a, b) == integer_poly_gcd(b, a)

    @given(
        a=small_polys,
        b=small_polys,
        f=st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(IntPolynomial).filter(bool),
        square=st.booleans(),
        content=st.integers(1, 12),
    )
    @settings(max_examples=200)
    def test_matches_euclid_over_q(self, a, b, f, square, content):
        # f is rarely monic, f^2 plants a repeated factor, a short list is a
        # constant, and an empty one makes that side zero
        f = f * f if square else f
        a, b = a * f * content, b * f
        assume(a or b)
        assert integer_poly_gcd(a, b) == euclid_over_q(a, b)

    def test_unlucky_prime_is_retried(self, monkeypatch):
        # 2^61 - 1 goes first, where x + 2^61 is x + 1: the gcd mod 2^61 - 1 is
        # x + 1, which does not divide x + 2^61 over Z, so the first prime past
        # the bound 2 * 1 * 2^1 * (isqrt(2) + 1) = 8 is tried next, 11
        primes = []

        def spy(a, b, ell):
            primes.append(ell)
            return padic._gf_gcd(a, b, ell)

        monkeypatch.setattr(poly, "_gf_gcd", spy)
        assert integer_poly_gcd(IntPolynomial([1, 1]), IntPolynomial([2**61, 1])) == IntPolynomial([1])
        assert primes == [2**61 - 1, 11]

    def test_small_squarefree_seeks_no_prime(self, monkeypatch):
        # the gcd of (x+1)(x+2)(x+3)(2x+3) and its derivative is constant mod 2^61 - 1,
        # so it is 1 there, and no prime past the bound is sought
        tested = []

        def counted(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(padic, "is_prime", counted)
        monkeypatch.setattr(poly, "is_prime", counted)
        q = IntPolynomial([1, 1]) * IntPolynomial([2, 1]) * IntPolynomial([3, 1]) * IntPolynomial([3, 2])
        assert integer_poly_gcd(q, q.derivative()) == IntPolynomial([1])
        assert tested == []

    @pytest.mark.parametrize("a, expected, tries", [
        # a coefficient past 2^61: the gcd is 1 mod 2^61 - 1, and no prime past the bound is sought
        (IntPolynomial([1, 1]) * IntPolynomial([1 + 3**100, 1]), IntPolynomial([1]), 1),
        # (x+1)^2 (x+3^100): the candidate x+1 from 2^61 - 1 divides both
        (IntPolynomial([1, 2, 1]) * IntPolynomial([3**100, 1]), IntPolynomial([1, 1]), 1),
        # (x+3^50)^2: 3^50 is past (2^61 - 1) / 2, so that candidate fails and the bound's prime runs
        (IntPolynomial([3**50, 1]) * IntPolynomial([3**50, 1]), IntPolynomial([3**50, 1]), 2),
    ])
    def test_word_prime_first(self, a, expected, tries, monkeypatch):
        primes = []

        def spy(a, b, ell):
            primes.append(ell)
            return padic._gf_gcd(a, b, ell)

        monkeypatch.setattr(poly, "_gf_gcd", spy)
        assert integer_poly_gcd(a, a.derivative()) == expected
        assert primes[0] == 2**61 - 1 and len(primes) == tries


class TestSquarefreePieces:
    def test_example3(self):
        q = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])  # (x+1)^2 (x^2-x+1)(x^4-x^3+x^2-x+1)
        assert list(squarefree_pieces(q)) == [poly_divexact(q, IntPolynomial([1, 1])), IntPolynomial([1, 1])]

    @given(
        factors=st.lists(
            st.tuples(
                st.lists(st.integers(-9, 9), min_size=2, max_size=3).map(IntPolynomial)
                .filter(lambda f: f.degree >= 1),
                st.integers(1, 3),
            ),
            min_size=1, max_size=4,
        ),
        content=st.sampled_from((1, -1, 2, 3, -4, 6, 25)),
        p=st.sampled_from((2, 3, 5, 7)),
    )
    @settings(max_examples=150)
    def test_product_squarefree_and_roots(self, factors, content, p):
        # linear and quadratic factors, some squared or cubed, times a content
        q = math.prod((f for f, k in factors for _ in range(k)), start=IntPolynomial([content]))
        pieces = list(squarefree_pieces(q))
        assert math.prod(pieces, start=IntPolynomial([1])) == q
        for piece in pieces:
            assert integer_poly_gcd(piece, piece.derivative()).degree == 0
        assert [b for b in range(p) if pieces[0].evaluate_mod(b, p) == 0] == \
            [b for b in range(p) if q.evaluate_mod(b, p) == 0]


class TestNonnegIntegerRoots:
    def test_no_real_roots(self):
        assert nonneg_integer_roots(IntPolynomial([1, 0, 1])) == set()

    def test_constructed(self):
        assert nonneg_integer_roots(IntPolynomial([10, -7, 1])) == {2, 5}
        # 2, 3, 5 and 7 divide every coefficient, so every residue is a root there
        assert nonneg_integer_roots(210 * IntPolynomial([-7, 1]) * IntPolynomial([-12, 1])) == {7, 12}
        # the roots agree mod every prime below 64: the first all-simple prime is 67,
        # above SCAN_THRESHOLD, so its roots come from the gcd path
        P = math.prod(p for p in range(2, 64) if all(p % d for d in range(2, p)))
        assert nonneg_integer_roots(IntPolynomial([-1, 1]) * IntPolynomial([-1 - P, 1])) == {1, 1 + P}

    def test_example1(self):
        assert nonneg_integer_roots(Q1) == set()

    def test_root_at_zero(self):
        assert nonneg_integer_roots(IntPolynomial([0, 0, 1])) == {0}

    def test_zero_poly(self):
        with pytest.raises(ZeroPolynomialError):
            nonneg_integer_roots(IntPolynomial())

    def test_huge_constant_term(self):
        # factoring 10^30 or 2^89 - 1 by trial division would not finish
        for r in (10**30, 2**89 - 1):
            assert nonneg_integer_roots(IntPolynomial([-r, 1])) == {r}

    def test_non_simple_root_mod_every_small_prime(self):
        q = math.prod((IntPolynomial([-i, 1]) for i in range(1, 51)), start=IntPolynomial([1]))
        assert nonneg_integer_roots(q) == set(range(1, 51))

    def test_census_tests_each_prime_once(self, monkeypatch):
        # x^2 - 1 = (x + 1)^2 mod 2, so the census runs on to 3
        tested = []

        def counted(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(padic, "is_prime", counted)
        monkeypatch.setattr(poly, "is_prime", counted)
        assert nonneg_integer_roots(IntPolynomial([-1, 0, 1])) == {1}
        assert tested == [2, 3]

    @given(
        planted=st.lists(st.integers(-40, 400), min_size=1, max_size=4),
        cofactor=small_polys.filter(lambda q: not q.is_zero),
    )
    @settings(max_examples=80)
    def test_planted_roots_against_divisors(self, planted, cofactor):
        # repeated planted roots give a non-simple root mod every prime
        q = math.prod((IntPolynomial([-r, 1]) for r in planted), start=cofactor)
        found = nonneg_integer_roots(q)
        assert found == divisor_roots(q)
        assert {r for r in planted if r >= 0} <= found

    @given(q=small_polys.filter(lambda q: not q.is_zero))
    @settings(max_examples=60)
    def test_against_scan(self, q):
        found = nonneg_integer_roots(q)
        bound = max(abs(c) for c in q.coeffs) + 2
        scanned = {s for s in range(bound + 1) if q.evaluate(s) == 0}
        # all scanned roots are found; all found are roots
        assert scanned <= found
        assert all(q.evaluate(r) == 0 for r in found)


class TestDivexact:
    def test_exact(self):
        a = IntPolynomial([1, 1]) * H
        assert poly_divexact(a, H) == IntPolynomial([1, 1])

    def test_not_exact(self):
        with pytest.raises(ValueError):
            poly_divexact(Q1, IntPolynomial([1, 1, 1]))

    def test_leading_coefficient_does_not_divide(self):
        # the first quotient coefficient, 1/2, is not an integer
        with pytest.raises(ValueError, match=r"^2\*x\+1 does not divide x\+1 exactly$"):
            poly_divexact(IntPolynomial([1, 1]), IntPolynomial([1, 2]))


class TestFormat:
    def test_canonical(self):
        assert format_poly(Q1) == "x^5+2*x^3+3"

    def test_zero(self):
        assert format_poly(IntPolynomial()) == "0"

    def test_signs_and_units(self):
        assert format_poly(IntPolynomial([-3, -1, 1])) == "x^2-x-3"
