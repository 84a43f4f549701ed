import math
import os
import random
import subprocess
import sys
from itertools import accumulate, chain, islice
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicval import recurrence
from padicval.analysis import error_series
from padicval.cli import main

from padicval.errors import HasIntegerRootError, NotHenselPrimeError, ValuationOfZeroError, ZeroPolynomialError
from padicval.padic import Prime, Verdict, classify_prime, digit_sum, hensel_lift, int_valuation, is_prime
from padicval.poly import IntPolynomial, squarefree_pieces
from padicval.recurrence import (
    RecurrenceSpec,
    count_congruent,
    make_spec,
    max_power_index,
    valuation_blocks,
    valuation_series,
    valuation_tn,
    valuation_tn_direct,
    valuation_tn_fast,
)

X = IntPolynomial([0, 1])
OMEGA = IntPolynomial([1, 0, 1])  # x^2+1
Q1 = IntPolynomial([3, 0, 0, 2, 0, 1])
Q3 = IntPolynomial([1, 0, 0, 1, 0, 1, 0, 0, 1])  # x^8+x^5+x^3+1 = (x+1)^2 (x^2-x+1)(x^4-x^3+x^2-x+1)
SQUARE = IntPolynomial([1, 2, 1])  # (x+1)^2
P2, P3, P5, P7 = Prime(2), Prime(3), Prime(5), Prime(7)


def close_pair(pv, e=400):
    """(x+1)(x+1+pv^e): squarefree, but -1 is a repeated root of each of the e
    nodes down its chain, each of which strips pv^2."""
    return IntPolynomial([1, 1]) * IntPolynomial([1 + pv**e, 1])


def series_values(spec, p, n):
    """valuation_series read whole: the valuations of t_1 .. t_n."""
    return [v for col, in valuation_series(spec, p, n) for v in col]


class TestMakeSpec:
    def test_no_roots(self):
        assert make_spec(OMEGA).start_index == 0

    def test_auto_shift(self):
        assert make_spec(IntPolynomial([-3, 1])).start_index == 3

    def test_shift_disabled(self):
        with pytest.raises(HasIntegerRootError):
            make_spec(IntPolynomial([-3, 1]), auto_shift=False)

    def test_zero_poly(self):
        with pytest.raises(ZeroPolynomialError):
            make_spec(IntPolynomial())

    def test_root_at_zero_needs_no_shift(self):
        assert make_spec(X, auto_shift=False).start_index == 0


class TestCountCongruent:
    def test_examples(self):
        assert count_congruent(10, 0, 3) == 3
        assert count_congruent(10, 1, 3) == 4
        assert count_congruent(25, 7, 25) == 1

    def test_telescoping(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 500)
            m = rng.randint(1, 40)
            lo = rng.randint(-50, 50)
            assert sum(count_congruent(n, r, m, lo) for r in range(m)) == n

    def test_against_enumeration(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 200)
            m = rng.randint(1, 30)
            r = rng.randrange(m)
            lo = rng.randint(-40, 40)
            expected = sum(1 for i in range(lo + 1, lo + n + 1) if i % m == r)
            assert count_congruent(n, r, m, lo) == expected


class TestDirect:
    def test_omega_p5(self):
        spec = make_spec(OMEGA)
        assert valuation_tn_direct(spec, P5, 5) == 2

    def test_factorial(self):
        spec = make_spec(X)
        assert valuation_tn_direct(spec, P2, 10) == 8

    def test_example1_mod_7_has_roots_hence_positive(self):
        spec = make_spec(Q1)
        assert classify_prime(Q1, Prime(7)).verdict is Verdict.HENSEL
        assert valuation_tn_direct(spec, Prime(7), 100) > 0

    def test_rootless_prime_gives_zero(self):
        spec = make_spec(OMEGA)
        assert classify_prime(OMEGA, Prime(7)).verdict is Verdict.NO_ROOTS
        assert valuation_tn_direct(spec, Prime(7), 100) == 0


class TestFast:
    def test_omega_p5(self):
        spec = make_spec(OMEGA)
        assert valuation_tn_fast(spec, P5, 5) == 2

    def test_factorial_legendre(self):
        spec = make_spec(X)
        n = 10**4
        assert valuation_tn_fast(spec, P3, n) == (n - digit_sum(n, P3)) // 2 == 4996

    def test_small_window(self):
        spec = make_spec(Q1)
        assert valuation_tn_fast(spec, P5, 1) == 0

    def test_no_roots_returns_zero(self):
        spec = make_spec(OMEGA)
        assert valuation_tn_fast(spec, Prime(7), 1000) == 0

    def test_non_hensel_raises(self):
        spec = make_spec(Q1)
        with pytest.raises(NotHenselPrimeError):
            valuation_tn_fast(spec, P3, 100)

    def test_p_divides_content_raises(self):
        with pytest.raises(NotHenselPrimeError):
            valuation_tn_fast(make_spec(IntPolynomial([3, 0, 3])), P3, 100)

    def test_equals_direct_randomized(self):
        rng = random.Random(99)
        primes = [Prime(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]
        cases = 0
        while cases < 60:
            q = IntPolynomial([rng.randint(-50, 50) for _ in range(rng.randint(2, 7))])
            if q.is_zero:
                continue
            p = rng.choice(primes)
            cls = classify_prime(q, p)
            if cls.verdict in (Verdict.NON_HENSEL, Verdict.ALL_RESIDUES):
                continue
            spec = make_spec(q)
            n = rng.randint(1, 3000)
            assert valuation_tn_fast(spec, p, n) == valuation_tn_direct(spec, p, n), (q, p, n)
            cases += 1

    def test_respects_shifted_window(self):
        spec = make_spec(IntPolynomial([-3, 1]))  # x-3, starts at 3
        # multipliers are 1, 2, 3, ..., n: valuation of n! shifted by 3 steps
        assert valuation_tn_fast(spec, P2, 8) == valuation_tn_direct(spec, P2, 8)
        assert valuation_tn_direct(spec, P2, 8) == int_valuation(
            2 * 3 * 4 * 5 * 6 * 7 * 8, P2
        )


PRIMES_BELOW_100 = [p for p in range(2, 100) if is_prime(p)]


@st.composite
def tree_cases(draw):
    """(spec, p, n): random Q or a product of linear factors, one of them
    repeated, times a constant that p may divide once or twice."""
    p = draw(st.sampled_from(PRIMES_BELOW_100))
    if draw(st.booleans()):
        q = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=7)
                 .map(IntPolynomial).filter(bool))
    else:
        linear = st.tuples(st.integers(-30, 30), st.sampled_from((1, 2, 3, p, 2 * p)))
        factors = draw(st.lists(linear, min_size=1, max_size=4))
        q = IntPolynomial([1])
        for k, (b, a) in enumerate(factors):
            for _ in range(draw(st.integers(2, 3)) if k == 0 else 1):
                q = q * IntPolynomial([b, a])
        if q.is_zero:
            q = IntPolynomial([1])
    q = q * draw(st.sampled_from((1, -2, p, -p, p * p, 3 * p * p)))
    return make_spec(q), Prime(p), draw(st.integers(1, 2000))


class TestTree:
    @settings(max_examples=300, deadline=None)
    @given(tree_cases())
    def test_equals_direct(self, case):
        spec, p, n = case
        v = valuation_tn(spec, p, n)
        assert v == valuation_tn_direct(spec, p, n)
        lo = spec.start_index
        assert list(chain.from_iterable(valuation_blocks(spec, p, n))) == \
            [int_valuation(spec.poly.evaluate(i), p) for i in range(lo + 1, lo + n + 1)]
        assert series_values(spec, p, n)[-1] == v

    @pytest.mark.parametrize("call", [
        "valuation_tn(RecurrenceSpec(IntPolynomial([-3, 1]), 0), Prime(2), 100)",
        "valuation_tn_direct(RecurrenceSpec(IntPolynomial([-1, 1]), 0), Prime(2), 1)",
        "valuation_tn(RecurrenceSpec(IntPolynomial([9, -6, 1]), 0), Prime(2), 100)",  # (x-3)^2
    ])
    def test_zero_multiplier_raises(self, call):
        # in a child process, so that an endless loop fails the test instead of stalling the run
        code = ("from padicval.errors import ValuationOfZeroError\n"
                "from padicval.padic import Prime\n"
                "from padicval.poly import IntPolynomial\n"
                "from padicval.recurrence import RecurrenceSpec, valuation_tn, valuation_tn_direct\n"
                f"try:\n    {call}\nexcept ValuationOfZeroError:\n    print('raised')\n")
        src = os.path.dirname(os.path.dirname(recurrence.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "raised\n", done.stderr

    @staticmethod
    def zero_raisers(spec, p, n):
        """Every engine and series reader, each as a call that reads t_n's window."""
        return [lambda: valuation_tn_direct(spec, p, n), lambda: valuation_tn(spec, p, n),
                lambda: next(valuation_series(spec, p, n)), lambda: max_power_index(spec, p, n),
                lambda: next(error_series(spec, p, n, 1))]

    @pytest.mark.parametrize("pv", [2, 3, 5])
    @pytest.mark.parametrize("q, zero", [
        (IntPolynomial([-3, 1]), 3),
        (IntPolynomial([9, -6, 1]), 3),  # (x-3)^2: each of its two squarefree pieces is x-3
        (IntPolynomial([-20000, 1]), 20000),
    ])
    def test_zero_multiplier_is_named(self, q, zero, pv):
        # the walk's one-index exit names the index, as the oracle does
        for call in self.zero_raisers(RecurrenceSpec(q, 0), Prime(pv), 30000):
            with pytest.raises(ValuationOfZeroError, match=rf"^the multiplier Q\({zero}\) is 0$"):
                call()

    @pytest.mark.parametrize("pv", [2, 3, 5])
    def test_first_of_two_zeros_walked_is_named(self, pv):
        q = IntPolynomial([-3, 1]) * IntPolynomial([-7, 1])  # the walk may reach 7 before 3
        for call in self.zero_raisers(RecurrenceSpec(q, 0), Prime(pv), 30000):
            with pytest.raises(ValuationOfZeroError) as e:
                call()
            i = int(str(e.value).removeprefix("the multiplier Q(").removesuffix(") is 0"))
            assert q.evaluate(i) == 0

    def test_p_divides_content(self):
        spec = make_spec(IntPolynomial([3, 0, 3]))  # 3(x^2+1); x^2+1 has no root mod 3
        assert valuation_tn(spec, P3, 1000) == 1000

    def test_repeated_factor_at_huge_n(self):
        # (x+1)^2 at p=2: twice the valuation of (n+1)!, by Legendre's formula
        spec = make_spec(IntPolynomial([1, 2, 1]))
        n = 10**60
        assert valuation_tn(spec, P2, n) == 2 * (n + 1 - digit_sum(n + 1, P2))

    def test_fast_is_the_tree_at_hensel_primes(self):
        spec = make_spec(Q1)
        assert valuation_tn_fast(spec, P5, 10**40) == valuation_tn(spec, P5, 10**40)

    @pytest.mark.parametrize("pv", [3, 11, 29])
    def test_paper_non_hensel_primes(self, pv):
        spec = make_spec(Q1)
        assert valuation_tn(spec, Prime(pv), 3000) == valuation_tn_direct(spec, Prime(pv), 3000)


CUBIC = IntPolynomial([1, 1]) * IntPolynomial([3, 2]) * IntPolynomial([5, 3])  # (x+1)(2x+3)(3x+5)


def linear_valuation(a, b, pv, n0, n):
    """sum of v_p(a*k + b) over n0 < k <= n0 + n, for a > 0 and a*k + b > 0 there:
    the count of k with p^s | a*k + b, summed over s, each count by floors."""
    total, m = 0, pv
    while m <= a * (n0 + n) + b:
        g = math.gcd(a, m)  # a*k + b = 0 mod m has a solution only if g | b, then k = r mod m / g
        if b % g == 0:
            r = -(b // g) * pow(a // g, -1, m // g) % (m // g)
            total += (n0 + n - r) // (m // g) - (n0 - r) // (m // g)
        m *= pv
    return total


@st.composite
def linear_products(draw):
    """(c, factors, p, n0, n): c times 1-3 linear factors a*x + b, positive on the window.
    Some factor has p | a, and some two may share their root mod p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    linear = st.tuples(st.sampled_from((1, 2, 3, p, 2 * p, p * p)), st.integers(-40, 40))
    factors = draw(st.lists(linear, min_size=1, max_size=3))
    if len(factors) < 3 and draw(st.booleans()):  # a second factor on the first one's residue mod p
        a, b = factors[0]
        factors.append((a, b + a * p * draw(st.integers(-3, 3))))
    n0 = max(0, *(-b for _, b in factors)) + draw(st.sampled_from((0, 1, 10**6, 10**50)))
    # st.integers draws few values past 10^50 from a range to 10^300, so some n take
    # their digits from a seeded random.Random, as in hensel_cases
    n = draw(st.one_of(st.integers(1, 10**6), st.integers(1, 10**300),
                       st.builds(lambda seed, e: random.Random(seed).randrange(1, 10**e + 1),
                                 st.integers(0, 2**32), st.integers(1, 300))))
    return draw(st.sampled_from((1, -1, 2, p, -p * p))), factors, p, n0, n


def hensel_valuation(q, p, n0, n):
    """sum of v_p(q(i)) over n0 < i <= n0 + n, when p does not divide q's content and
    every root of q mod p is simple.  Then q is the product of x - alpha over its p-adic
    roots alpha times a factor that is a unit at every integer, so the sum is, over alpha
    and k >= 1, the count of i = alpha mod p^k, a difference of two floors.  Each alpha is
    lifted by hensel_lift, to twice the precision whenever k passes it, and its counts end
    once p^k > n0 + n and alpha mod p^k is no window index: the stop follows alpha's
    digits, not a fixed number of them."""
    pv, N, total = p.value, n0 + n, 0
    for a in classify_prime(q, p).roots:
        K = 8
        alpha, k, m = hensel_lift(q, p, a, K), 1, pv  # alpha is exact mod p^(K+1)
        while True:
            if k > K + 1:
                K *= 2
                alpha = hensel_lift(q, p, a, K)
            r = alpha % m
            if not (m <= N or n0 < r <= N):
                break
            total += (N - r) // m - (n0 - r) // m
            k, m = k + 1, m * pv
    return total


@st.composite
def hensel_cases(draw):
    """(q, p, n0, n): q of degree 1-6 with small coefficients, p not dividing its content and
    every root of q mod p simple; its leading coefficient is sometimes p, which sends a root
    to infinity."""
    pv = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
    coeffs[-1] = draw(st.sampled_from((pv, coeffs[-1] or 1)))
    q, p = IntPolynomial(coeffs), Prime(pv)
    assume(q.content() % pv and classify_prime(q, p).all_roots_simple)
    # st.integers (and st.randoms) draw few values past 10^20 from a range to 10^300, so
    # the digits come from a seeded random.Random
    rnd, e = random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 300))
    n0 = make_spec(q).start_index + draw(st.sampled_from((0, rnd.randrange(10**40))))
    return q, pv, n0, rnd.randrange(1, 10**e + 1)


class TestClosedForm:
    """The walk against per-factor floor counts, at n far past the direct oracle's reach:
    the deep Hensel digits and the one-index exit are checked where they happen."""

    @settings(max_examples=150, deadline=None)
    @given(linear_products())
    @example((1, [(1, 1), (2, 3), (3, 5)], 7, 0, 10**300))         # all roots simple
    @example((1, [(7, 1), (1, 1)], 7, 0, 10**300))                 # p | a: no root
    @example((-2, [(1, 1), (1, 8), (2, 3)], 7, 5, 10**300 + 1))    # -1 twice mod 7: non-Hensel
    @example((1, [(2, 1), (2, 1)], 3, 0, 10**300))                 # one factor squared
    def test_linear_product(self, case):
        c, factors, pv, n0, n = case
        q = math.prod((IntPolynomial([b, a]) for a, b in factors), start=IntPolynomial([c]))
        p = Prime(pv)
        expected = n * int_valuation(c, p) + sum(linear_valuation(a, b, pv, n0, n) for a, b in factors)
        assert valuation_tn(RecurrenceSpec(q, n0), p, n) == expected

    @settings(max_examples=300, deadline=None)
    @given(hensel_cases())
    @example((IntPolynomial([-2, 3]), 13, 0, 10**100))       # 3x - 2: 2/3 is 13-adic, not an integer
    @example((OMEGA, 5, 0, 10**300))                          # x^2 + 1: the roots of -1 mod 5
    @example((IntPolynomial([1, 1, 2]), 2, 0, 10**300))       # 2x^2 + x + 1: a root at infinity
    @example((IntPolynomial([-1, 0, 0, 1]), 7, 10**40, 10**300))  # x^3 - 1: three roots mod 7
    def test_hensel_prime(self, case):
        # no oracle here needs Q to split into linear factors over Z
        q, pv, n0, n = case
        p = Prime(pv)
        assert valuation_tn(RecurrenceSpec(q, n0), p, n) == hensel_valuation(q, p, n0, n)

    @pytest.mark.parametrize("c", [1, 7])
    def test_class_counts_do_not_grow_with_n(self, c, monkeypatch):
        # a simple root's class counts are floors updated per digit, not count_congruent
        # calls; those count only the stripped power, once per node
        calls = []
        count = recurrence.count_congruent
        monkeypatch.setattr(recurrence, "count_congruent", lambda *args: calls.append(args) or count(*args))
        per_n = []
        for n in (10**12, 10**300):
            calls.clear()
            valuation_tn(RecurrenceSpec(CUBIC * c, 0), P7, n)
            per_n.append(len(calls))
        assert per_n[0] == per_n[1]

    @pytest.mark.parametrize("n0, n", [(0, 2), (0, 10**12), (10**40, 10**300)])
    def test_digits_per_root_within_log(self, n0, n, monkeypatch):
        # a class mod p^s holds two or more of the n indices only if p^s < n, so each of
        # the 3 simple roots takes at most floor(log_7(n)) digits; the spy raises past
        # that bound, so a walk whose floors stop shrinking fails instead of running on
        bound, digit, calls = 3 * floor_log(n, 7), recurrence.hensel_digit, []

        def spy(*args):
            calls.append(args)
            if len(calls) > bound:
                raise AssertionError(f"{len(calls)} digits, past the bound {bound}")
            return digit(*args)

        monkeypatch.setattr(recurrence, "hensel_digit", spy)
        expected = sum(linear_valuation(a, b, 7, n0, n) for a, b in ((1, 1), (2, 3), (3, 5)))
        assert valuation_tn(RecurrenceSpec(CUBIC, n0), P7, n) == expected


def floor_log(x, pv):
    """The largest e with pv^e <= x, for x >= 1."""
    e = 0
    while pv ** (e + 1) <= x:
        e += 1
    return e


class TestDepthBound:
    """The walk goes at most floor(log_p(n0 + n)) + 1 levels down a non-simple chain.

    A squarefree piece of SQUARE or Q3 has only simple roots, so those make
    no substitution.  A close pair has one non-simple chain, 400 levels
    along the p-adic root -1, whose digits are all p - 1; so the
    affine_substitute calls count its levels.  The spy raises once past the
    bound, so a walk that stops pruning fails instead of running on."""

    @pytest.mark.parametrize("q, pv", [
        (SQUARE, 2), (SQUARE, 3), (SQUARE, 5), (Q3, 2), (Q3, 3),
        (close_pair(2), 2), (close_pair(3), 3), (close_pair(5), 5),
    ])
    @pytest.mark.parametrize("n0, n", [(0, 1), (0, 2), (0, 1000), (0, 2**20), (12345, 2**20)])
    def test_substitutions_per_chain(self, q, pv, n0, n, monkeypatch):
        bound = floor_log(n0 + n, pv) + 1
        substitute, calls = IntPolynomial.affine_substitute, []

        def spy(self, a, b):
            assert (a, b) == (pv, pv - 1)
            calls.append(b)
            if len(calls) > bound:
                raise AssertionError(f"{len(calls)} substitutions, past the bound {bound}")
            return substitute(self, a, b)

        monkeypatch.setattr(IntPolynomial, "affine_substitute", spy)
        valuation_tn(RecurrenceSpec(q, n0), Prime(pv), n)
        assert len(calls) <= bound

    def test_square_at_two(self, monkeypatch):
        # (x+1)(x+1+2^400), (x+1)^2 to 2-adic precision 400, at p = 2 over n = 2^20:
        # 19 levels, each a class of two or more indices
        substitute, calls = IntPolynomial.affine_substitute, []
        monkeypatch.setattr(IntPolynomial, "affine_substitute",
                            lambda self, a, b: calls.append(b) or substitute(self, a, b))
        spec = make_spec(close_pair(2))
        n = 2**20
        assert valuation_tn(spec, P2, n) == 2 * (n + 1 - digit_sum(n + 1, P2))
        assert len(calls) == 19

    @settings(max_examples=40, deadline=None)
    @given(n0=st.sampled_from((0, 1, 12345, 10**40)) | st.integers(0, 10**6),
           n=st.builds(lambda m, e: m * 10**e, st.integers(1, 10**6), st.integers(0, 294)))
    @example(n0=0, n=10**300)
    def test_q3_at_two_deep_chain(self, n0, n):
        # v_2(Q3(i)) = 2*v_2(i + 1) for odd i and 0 for even i, so v_2(t_n) is twice
        # v_2(N!/M!) with N = n0 + n + 1 and M = n0 + 1, by Legendre's formula; each of
        # Q3's two squarefree pieces lifts its simple root -1 one digit per level
        big, small = n0 + n + 1, n0 + 1
        expected = 2 * ((big - digit_sum(big, P2)) - (small - digit_sum(small, P2)))
        assert valuation_tn(RecurrenceSpec(Q3, n0), P2, n) == expected

    def test_one_valuation_per_node(self, monkeypatch):
        # the node's power of p is the valuation of R's content, not of each coefficient;
        # the walk's one-index exits also call int_valuation, so only the calls made
        # while the descent advances count
        nodes, calls, advancing = [], [], [False]
        walk, valuation = recurrence.descent, recurrence.int_valuation

        def spy(*args):
            node_source = walk(*args)
            while True:
                advancing[0] = True
                node = next(node_source, None)
                advancing[0] = False
                if node is None:
                    return
                nodes.append(node)
                yield node

        def counted(*args):
            if advancing[0]:
                calls.append(args)
            return valuation(*args)

        monkeypatch.setattr(recurrence, "descent", spy)
        monkeypatch.setattr(recurrence, "int_valuation", counted)
        valuation_tn(make_spec(close_pair(2)), P2, 10**100)
        assert len(nodes) > 300
        assert len(calls) == len(nodes)

    def test_squarefree_root_node_taken_once(self, monkeypatch):
        # (x+1)(x+6) is squarefree, but 4 is a double root mod 5: Q is its own one
        # squarefree piece, so the descent goes on below its root node, one
        # classification per node.  Q3 is peeled: its own root node is classified
        # once, then replaced by its pieces' nodes
        nodes, calls = [], []
        walk, classify = recurrence.descent, recurrence.classify_prime

        def spy(*args):
            for node in walk(*args):
                nodes.append(node)
                yield node

        monkeypatch.setattr(recurrence, "descent", spy)
        monkeypatch.setattr(recurrence, "classify_prime", lambda *args: calls.append(args) or classify(*args))
        for q, pv, expected in [(IntPolynomial([1, 1]) * IntPolynomial([6, 1]), 5, (2, 2)),
                                (Q3, 2, (2, 3)), (Q3, 5, (3, 4))]:
            nodes.clear()
            calls.clear()
            spec = RecurrenceSpec(q, 0)
            assert valuation_tn(spec, Prime(pv), 1000) == valuation_tn_direct(spec, Prime(pv), 1000)
            assert (len(nodes), len(calls)) == expected, (q, pv)

    @pytest.mark.parametrize("q, pv, n", [(close_pair(2), 2, 10**6),
                                          (close_pair(3) * IntPolynomial([2, 1]), 3, 10**30)])
    def test_one_class_count_per_node_with_power(self, q, pv, n, monkeypatch):
        # a node counts its stripped power with count_congruent; each root's class counts
        # are its own floor pair, so no root adds a call
        nodes, calls = [], []
        walk, count = recurrence.descent, recurrence.count_congruent

        def spy(*args):
            for node in walk(*args):
                nodes.append(node)
                yield node

        monkeypatch.setattr(recurrence, "descent", spy)
        monkeypatch.setattr(recurrence, "count_congruent", lambda *args: calls.append(args) or count(*args))
        valuation_tn(make_spec(q), Prime(pv), n)
        powered = [node for node in nodes if node[2]]
        assert len(powered) > 10
        assert len(calls) == len(powered)

    @pytest.mark.parametrize("q, pv", [(Q3, 2), (SQUARE * IntPolynomial([2, 1]), 3)])
    def test_repeated_factor_nodes_do_not_grow_with_n(self, q, pv, monkeypatch):
        # the walk reads the squarefree pieces, whose descents end whatever n is
        nodes, walk = [], recurrence.descent

        def spy(*args):
            for node in walk(*args):
                nodes.append(node)
                yield node

        monkeypatch.setattr(recurrence, "descent", spy)
        per_n = []
        for n in (10**12, 10**300):
            nodes.clear()
            valuation_tn(make_spec(q), Prime(pv), n)
            per_n.append(len(nodes))
        assert per_n[0] == per_n[1]


def two_generator_descent(q, p):
    """Oracle: the descent as two generators, one polynomial's tree and the squarefree peel,
    which takes the tree's root node and resumes it when it peels nothing."""
    def tree(q):
        pv = p.value
        stack = [(q, 1, 0)]
        while stack:
            r, a, b = stack.pop()
            m = int_valuation(r.content(), p)
            if m:
                r = IntPolynomial(c // pv**m for c in r.coeffs)
            cls = classify_prime(r, p)
            repeated = list(cls.non_hensel_roots)
            yield a, b, m, r, [x for x in cls.roots if x not in repeated], repeated
            stack += [(r.affine_substitute(pv, x), a * pv, a * x + b) for x in repeated]

    nodes = tree(q)
    *_, repeated = root = next(nodes)
    if repeated and len(pieces := list(squarefree_pieces(q))) > 1:
        return (node for piece in pieces for node in tree(piece))
    return chain((root,), nodes)


@st.composite
def repeated_factor_products(draw):
    """(q, p): c times one to three linear or quadratic factors, each squared or cubed, or
    each taken once, so that Q may be its own one squarefree piece; c is 1, -1, 2, p or p^2.
    A further factor may sit on the first one's root mod p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    factor = st.lists(st.integers(-20, 20), min_size=2, max_size=3).map(IntPolynomial).filter(
        lambda f: f.degree >= 1)
    power = st.just(1) if draw(st.booleans()) else st.integers(2, 3)
    factors = draw(st.lists(st.tuples(factor, power), min_size=1, max_size=3))
    if draw(st.booleans()):
        f, _ = factors[0]
        factors.append((f + IntPolynomial([p * draw(st.integers(-3, 3))]), draw(power)))
    q = IntPolynomial([draw(st.sampled_from((1, -1, 2, p, p * p)))])
    for f, e in factors:
        for _ in range(e):
            q = q * f
    return q, Prime(p)


class TestDescent:
    @staticmethod
    def read(nodes, prune):
        """The nodes as plain values, read by a reader that prunes every child or none.
        At most 1000 nodes: a descent that skipped the peel would not end on a factor
        repeated over Z, where both forms end within a few dozen."""
        seen = []
        for a, b, m, r, simple, repeated in islice(nodes, 1000):
            seen.append((a, b, m, r.coeffs, list(simple), list(repeated)))
            if prune:
                repeated.clear()
        return seen

    @settings(max_examples=200, deadline=None)
    @given(repeated_factor_products())
    def test_matches_two_generator_form(self, case):
        q, p = case
        for prune in (False, True):
            assert self.read(recurrence.descent(q, p), prune) == self.read(two_generator_descent(q, p), prune)


class TestBlocks:
    """The series walk the window in blocks; a tiny block makes every case cross many."""

    L = 7

    @settings(max_examples=200, deadline=None)
    @given(tree_cases(), st.integers(1, 40), st.sampled_from((-1, 0, 1)))
    @example((make_spec(Q1), P3, 0), 3, 1)                           # non-Hensel
    @example((make_spec(IntPolynomial([3, 0, 3])), P3, 0), 2, -1)    # p | content(Q)
    @example((make_spec(IntPolynomial([6, -5, 1])), P2, 0), 4, 0)    # starts at n0 = 3
    def test_blocked_equals_unblocked(self, case, k, d):
        spec, p, _ = case
        n = k * self.L + d
        lo, pm1 = spec.start_index, p.value - 1
        terms = [int_valuation(spec.poly.evaluate(i), p) for i in range(lo + 1, lo + n + 1)]
        with mock.patch.object(recurrence, "BLOCK", self.L):
            assert [len(b) for b in valuation_blocks(spec, p, n)] == \
                [self.L] * (n // self.L) + [n % self.L] * (n % self.L > 0)
            assert list(chain.from_iterable(valuation_blocks(spec, p, n))) == terms
            series = valuation_series(spec, p, n)
            assert [len(col) for col, in series] == [len(b) for b in valuation_blocks(spec, p, n)]
            values = series_values(spec, p, n)
            assert values == list(accumulate(terms))
            assert values[-1] == valuation_tn_direct(spec, p, n)
            assert max_power_index(spec, p, n) == max(terms)
            zp = classify_prime(spec.poly, p).z_p
            err, relerr = (list(chain.from_iterable(col)) for col in zip(*error_series(spec, p, n, zp)))
        assert relerr == [zp - pm1 * v for v in terms] and err == list(accumulate(relerr))

    @pytest.mark.parametrize("call", [
        lambda: next(valuation_blocks(make_spec(X), P2, 0)),
        lambda: valuation_tn_direct(make_spec(X), P2, 0),
        lambda: next(recurrence.residue_classes(make_spec(X), P2, 0)),
        lambda: count_congruent(10, 3, 3),  # r >= m
        lambda: count_congruent(10, 0, 0),  # m = 0
    ], ids=["valuation_blocks", "valuation_tn_direct", "residue_classes",
            "count_congruent_r_at_m", "count_congruent_m_zero"])
    def test_n_below_one(self, call):
        with pytest.raises(ValueError):
            call()


class TestPattern:
    """The blocks at the real BLOCK, n = 3*BLOCK + 5: each block is a slice of one periodic
    pattern, of period P the largest class modulus A <= BLOCK, plus the classes with A > BLOCK."""

    @pytest.mark.parametrize("q, pv, n0, period", [
        (Q1, 127, 0, 127**2),     # P does not divide BLOCK: every block starts at a new offset
        (Q1, 16411, 0, 1),        # the first prime past 2^14: every root class has A > BLOCK
        (IntPolynomial([21, -10, 22, -10, 1]), 2, 7, 2**14),  # (x-3)(x-7)(x^2+1): n0 = 7
    ], ids=["Q1-127", "Q1-16411", "roots-3-7-p2"])
    def test_equals_per_index(self, q, pv, n0, period):
        spec, p, n = make_spec(q), Prime(pv), 3 * recurrence.BLOCK + 5
        assert spec.start_index == n0
        assert max([a for a, *_ in recurrence.residue_classes(spec, p, n) if a <= recurrence.BLOCK],
                   default=1) == period
        terms = [int_valuation(q.evaluate(i), p) for i in range(n0 + 1, n0 + n + 1)]
        blocks = list(valuation_blocks(spec, p, n))
        assert [len(b) for b in blocks] == [recurrence.BLOCK] * 3 + [5]
        assert list(chain.from_iterable(blocks)) == terms
        zp = classify_prime(q, p).z_p
        err, relerr = (list(chain.from_iterable(col)) for col in zip(*error_series(spec, p, n, zp)))
        assert relerr == [zp - (pv - 1) * v for v in terms] and err == list(accumulate(relerr))


class TestSeries:
    def test_omega_p5(self):
        spec = make_spec(OMEGA)
        assert series_values(spec, P5, 5) == [0, 1, 2, 2, 2]

    def test_factorial_p2(self):
        spec = make_spec(X)
        assert series_values(spec, P2, 4) == [0, 1, 1, 3]

    def test_rootless_all_zero(self):
        spec = make_spec(OMEGA)
        assert set(series_values(spec, P3, 100)) == {0}

    def test_increments_match_term_valuations(self):
        spec = make_spec(Q1)
        prev = 0
        for k, v in enumerate(series_values(spec, P5, 200), start=1):
            assert v - prev == int_valuation(Q1.evaluate(k), P5)
            prev = v

    def test_csv_and_json(self, capsys):
        assert list(valuation_series(make_spec(OMEGA), P5, 3)) == [([0, 1, 2],)]
        argv = ["series", "--poly", "x^2+1", "--prime", "5", "--n-max", "3", "--format"]
        assert main(argv + ["csv"]) == 0
        assert capsys.readouterr().out == "n,valuation\n1,0\n2,1\n3,2\n"
        assert main(argv + ["json"]) == 0
        assert capsys.readouterr().out == '{"n0": 0, "p": 5, "poly": "x^2+1", "values": [0, 1, 2]}\n'


class TestMaxPowerIndex:
    def test_factorial(self):
        assert max_power_index(make_spec(X), P2, 10) == 3

    def test_omega(self):
        assert max_power_index(make_spec(OMEGA), P5, 10) == 2

    def test_rootless(self):
        assert max_power_index(make_spec(OMEGA), P3, 100) == 0

    def test_log_bound(self):
        import math

        spec = make_spec(Q1)
        for n in (10, 100, 1000):
            r_n = max_power_index(spec, P5, n)
            biggest = max(abs(Q1.evaluate(i)) for i in range(1, n + 1))
            assert 5**r_n <= biggest
            assert r_n <= math.log(biggest, 5)
