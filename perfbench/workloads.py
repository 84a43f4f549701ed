"""The three workloads: seeded inputs, CLI argv and the check for each answer.

A workload is a sequence of rounds.  ``round(r)`` always yields the same
requests for the same seed and round, and every round of a workload has the
same make-up, so the share of failed operations is the same in every run.
Nothing here imports padicval: requests are argv lists for ``cli.main``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable

import checks
import reference as ref

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass
class Request:
    kind: str
    argv: list[str]
    ops: int  # operations the request performs when it succeeds
    check: Callable[[str], "str | None"]  # stdout -> None if right, else a reason
    known_fault: bool = False  # the p | content(Q) inputs that fail today


def _poly_arg(coeffs) -> str:
    # "--poly=" keeps argparse from reading a leading minus as an option
    return "--poly=" + ref.format_poly(coeffs)


def random_poly(rng: random.Random, degree: int) -> list[int]:
    coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice((1, 2, 3, -1, -2))]
    coeffs[0] = coeffs[0] or 1
    return coeffs


# -- scan -----------------------------------------------------------------

SCAN_COUNT = 5000
SCAN_SEEDED_DEGREES = (2, 12)


def eisenstein_poly(rng: random.Random, degree: int) -> list[int]:
    """Monic up to sign, other coefficients even, constant 2 mod 4: irreducible over Q.

    An irreducible polynomial has one root mod p on average over primes,
    so a seeded polynomial's scan costs what its degree says, whichever
    seed drew it.
    """
    constant = 2 * rng.choice((-9, -7, -5, -3, -1, 1, 3, 5, 7, 9))
    middle = [2 * rng.randint(-10, 10) for _ in range(degree - 1)]
    return [constant] + middle + [rng.choice((1, -1))]


class Scan:
    """``scan --count 5000`` over the paper's two polynomials and seeded ones.

    Degrees 5 and 8 (the paper's), 2 and 12 (seeded): the exhaustive and
    the gcd root-finding paths trade places with degree.
    """

    name = "scan"
    trace_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.primes = ref.first_primes(SCAN_COUNT)

    def round(self, r: int) -> list[Request]:
        rng = random.Random(f"scan:{self.seed}:{r}")
        polys = [(ref.Q1, ref.Q1_NON_HENSEL), (ref.Q3, None)]
        polys += [(eisenstein_poly(rng, d), None) for d in SCAN_SEEDED_DEGREES]
        brute = set(ref.first_primes(25)) | set(rng.sample(self.primes[25:], 3))
        return [
            Request(
                "scan",
                ["scan", _poly_arg(q), "--count", str(SCAN_COUNT), "--format", "csv"],
                SCAN_COUNT,
                partial(checks.check_scan, coeffs=q, primes=self.primes,
                        lc_disc=ref.lc_times_discriminant(q), brute_primes=brute,
                        non_hensel_set=nh),
            )
            for q, nh in polys
        ]


# -- queries --------------------------------------------------------------


def _p_free_factor(rng, p, residue=None):
    """a*x + b with p not dividing both; a root at ``residue`` mod p if given.

    The root -b/a is never an integer: a non-negative integer root stays that small at
    every level of the fast engine's lifting, which makes a request several
    times cheaper than one whose roots have p-adic digits throughout.
    """
    if residue is None:
        a = p * rng.randint(1, 3)
        b = rng.choice([b for b in range(-30, 31) if b % p])
        return a, b
    a = rng.choice([a for a in range(2, 10) if a % p])
    return a, -a * residue + p * rng.choice([t for t in range(-3, 4) if t % a])


def _unit(rng, p):
    return rng.choice([c for c in (1, 2, 3, 5, 6, 7, -1, -2) if c % p])


def hensel_linear(rng, p, k, rootless):
    """c * prod of k factors: ``rootless`` of them without a root mod p, the
    others each on its own residue."""
    residues = rng.sample(range(p), k)
    factors = [_p_free_factor(rng, p, None if j < rootless else residues[j]) for j in range(k)]
    rng.shuffle(factors)
    return _unit(rng, p), factors


def non_hensel_linear(rng, p, k, repeat=False):
    """Two factors share a residue mod p (identical ones when ``repeat``)."""
    r = rng.randrange(p)
    first = _p_free_factor(rng, p, r)
    factors = [first, first if repeat else _p_free_factor(rng, p, r)]
    factors += [_p_free_factor(rng, p, rng.choice((None, rng.randrange(p)))) for _ in range(k - 2)]
    rng.shuffle(factors)
    return _unit(rng, p), factors


def _simple_roots_poly(rng, allow_rootless=True):
    """A random polynomial and a small prime where every root is simple."""
    while True:
        q = random_poly(rng, rng.randint(2, 6))
        p = rng.choice(SMALL_PRIMES[1:])
        if ref.content(q) % p == 0:
            continue
        roots = ref.roots_mod(q, p)
        dq = ref.derivative(q)
        if (roots or allow_rootless) and all(ref.evaluate_mod(dq, x, p) for x in roots):
            return q, p, roots


def _band(rng, j, bands, lo, hi):
    """A number in the j-th of ``bands`` equal parts of [lo, hi]."""
    width = (hi - lo) / bands
    return rng.randint(lo + round(j * width), lo + round((j + 1) * width))


def _random_prime(rng, lo_digits=6, hi_digits=15):
    n = rng.randrange(10 ** rng.randint(lo_digits, hi_digits - 1), 10**hi_digits) | 1
    while not ref.is_prime(n):
        n += 2
    return n


# The known fault: p | content(Q) makes valuation (auto) and slope --exact
# exit 1 with "identically zero mod p".  Fixed inputs, not drawn from the seed.
FAULT_VALUATION = ([3, 0, 3], 3, 1000)  # 3x^2+3 at p=3: 3(x^2+1), x^2+1 rootless mod 3
FAULT_SLOPE = (5, [(1, 1), (1, 6)], 5)  # 5x^2+35x+30 = 5(x+1)(x+6) at p=5


class Queries:
    """Single-answer requests through ``cli.main``, one after another.

    Every round holds 40 requests of fixed kinds, in a seeded order; 2 of
    them are the p | content(Q) inputs that fail today.
    """

    name = "queries"
    trace_rounds = 3
    MIX = (
        ("valuation_fast_linear", 8),
        ("valuation_fast_general", 2),
        ("valuation_direct_linear", 12),
        ("valuation_direct_paper", 2),
        ("slope_linear", 1),
        ("slope_repeated", 1),
        ("slope_x_m_pm1", 1),
        ("slope_x_q_pm1", 1),
        ("slope_paper", 1),
        ("slope_hensel", 1),
        ("classify_linear", 1),
        ("classify_linear_collision", 1),
        ("classify_general", 1),
        ("classify_paper_q1", 1),
        ("classify_paper_q3", 1),
        ("lift", 3),
        ("fault_valuation", 1),
        ("fault_slope", 1),
    )

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    # Kinds whose cost spans a wide range: request j of such a kind in every
    # round gets the same prime, factor count and size of n, so the costliest
    # requests (the latency tail) have the same sizes whatever the seed.
    SIZED = ("valuation_fast_linear", "valuation_direct_linear")

    def round(self, r: int) -> list[Request]:
        rng = random.Random(f"queries:{self.seed}:{r}")
        slots = [(kind, j) for kind, count in self.MIX for j in range(count)]
        rng.shuffle(slots)
        return [self._request(rng, kind, j) for kind, j in slots]

    def _request(self, rng, kind, j):
        make = getattr(self, "_" + kind)
        return make(rng, j) if kind in self.SIZED else make(rng)

    # valuation ----------------------------------------------------------

    def _valuation(self, kind, coeffs, p, n, expected, known_fault=False):
        return Request(kind, ["valuation", _poly_arg(coeffs), "--prime", str(p), "--n", str(n),
                              "--format", "json"],
                       1, partial(checks.check_valuation, p=p, n=n, expected=expected), known_fault)

    def _linear_valuation(self, kind, c, factors, p, n):
        expected = ref.linear_product_valuation(c, factors, p, n, ref.linear_start_index(factors))
        return self._valuation(kind, ref.expand(c, factors), p, n, expected)

    def _valuation_fast_linear(self, rng, j):
        # primes run down from 13 as j grows, so the 750- and 1000-digit
        # requests fall on p = 13 and 7 and cost less than the direct
        # engine's costliest: interpreter-bound work makes up the tail
        p = SMALL_PRIMES[5 - j % 5]
        c, factors = hensel_linear(rng, p, 1 + j % 3, rootless=int(j in (3, 4)))
        # cost grows with the square of the digits, so the count is fixed
        digits = 125 * (j + 1)
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        return self._linear_valuation("valuation_fast_linear", c, factors, p, n)

    def _valuation_fast_general(self, rng):
        q, p, _ = _simple_roots_poly(rng)
        n = rng.randint(500, 2000)
        return self._valuation("valuation_fast_general", q, p, n,
                               ref.window_valuation(q, p, n, ref.start_index(q)))

    def _valuation_direct_linear(self, rng, j):
        p = SMALL_PRIMES[j % 6]
        c, factors = non_hensel_linear(rng, p, 2 + j % 3)
        return self._linear_valuation("valuation_direct_linear", c, factors, p,
                                      _band(rng, j, 12, 10**4, 10**5))

    def _valuation_direct_paper(self, rng):
        q, p = rng.choice([(ref.Q1, 3), (ref.Q1, 11), (ref.Q1, 29),
                           (ref.Q3, rng.choice(SMALL_PRIMES))])
        n = rng.randint(500, 2000)
        return self._valuation("valuation_direct_paper", q, p, n,
                               ref.window_valuation(q, p, n, ref.start_index(q)))

    def _fault_valuation(self, rng):
        q, p, n = FAULT_VALUATION
        expected = n * ref.vp(ref.content(q), p) + ref.window_valuation(
            [c // ref.content(q) for c in q], p, n)
        return self._valuation("fault_valuation", q, p, n, expected, known_fault=True)

    # slope --------------------------------------------------------------

    def _slope(self, kind, coeffs, p, expected, known_fault=False):
        return Request(kind, ["slope", _poly_arg(coeffs), "--prime", str(p), "--exact",
                              "--format", "json"],
                       1, partial(checks.check_slope, coeffs=coeffs, p=p, expected=expected),
                       known_fault)

    def _slope_linear(self, rng, repeat=False, kind="slope_linear"):
        p = rng.choice(SMALL_PRIMES[:8])
        c, factors = non_hensel_linear(rng, p, rng.randint(2, 4), repeat=repeat)
        return self._slope(kind, ref.expand(c, factors), p, ref.linear_product_slope(c, factors, p))

    def _slope_repeated(self, rng):
        return self._slope_linear(rng, repeat=True, kind="slope_repeated")

    def _slope_x_m_pm1(self, rng):
        while True:
            m, q = rng.randint(2, 12), rng.choice(SMALL_PRIMES[1:])
            if m % q:
                break
        sign = rng.choice((1, -1))
        return self._slope("slope_x_m_pm1", [sign] + [0] * (m - 1) + [1], q,
                           ref.slope_x_m_pm1(m, sign, q))

    def _slope_x_q_pm1(self, rng):
        q, sign = rng.choice((3, 5, 7, 11, 13)), rng.choice((1, -1))
        return self._slope("slope_x_q_pm1", [sign] + [0] * (q - 1) + [1], q,
                           ref.slope_x_m_pm1(q, sign, q))

    def _slope_paper(self, rng):
        p = rng.choice(sorted(ref.Q1_NON_HENSEL))
        return self._slope("slope_paper", ref.Q1, p, ref.Q1_ZERO_NUMBERS[p] / (p - 1))

    def _slope_hensel(self, rng):
        q, p, roots = _simple_roots_poly(rng)
        return self._slope("slope_hensel", q, p, Fraction(len(roots), p - 1))

    def _fault_slope(self, rng):
        c, factors, p = FAULT_SLOPE
        return self._slope("fault_slope", ref.expand(c, factors), p,
                           ref.linear_product_slope(c, factors, p), known_fault=True)

    # classify -----------------------------------------------------------

    def _classify(self, kind, coeffs, p, **expected):
        return Request(kind, ["classify", _poly_arg(coeffs), "--prime", str(p), "--format", "json"],
                       1, partial(checks.check_classify, coeffs=coeffs, p=p,
                                  lc_disc=ref.lc_times_discriminant(coeffs), **expected))

    def _classify_linear(self, rng, collide=False, kind="classify_linear"):
        p = _random_prime(rng)
        factors = [(rng.randint(1, 9), rng.randint(-30, 30) or 1) for _ in range(rng.randint(2, 5))]
        if collide:  # a second factor on the same residue mod p
            a, b = factors[0]
            factors.append((a, b + p * rng.choice((-1, 1))))
        roots, non_hensel = ref.linear_product_roots(factors, p)
        return self._classify(kind, ref.expand(1, factors), p, roots=roots, non_hensel=non_hensel)

    def _classify_linear_collision(self, rng):
        return self._classify_linear(rng, collide=True, kind="classify_linear_collision")

    def _classify_general(self, rng):
        return self._classify("classify_general", random_poly(rng, rng.randint(2, 8)), _random_prime(rng))

    def _classify_paper_q1(self, rng):
        return self._classify("classify_paper_q1", ref.Q1, _random_prime(rng))

    def _classify_paper_q3(self, rng):
        # Q3 = (x^3+1)(x^5+1): gcd(3,p-1) + gcd(5,p-1) - 1 roots, only -1 repeated
        p = _random_prime(rng)
        return self._classify("classify_paper_q3", ref.Q3, p,
                              count=gcd(3, p - 1) + gcd(5, p - 1) - 1, non_hensel=[p - 1])

    # lift ---------------------------------------------------------------

    def _lift(self, rng):
        q, p, roots = _simple_roots_poly(rng, allow_rootless=False)
        root, precision = rng.choice(roots), rng.randint(100, 400)
        return Request("lift", ["lift", _poly_arg(q), "--prime", str(p), "--root", str(root),
                                "--precision", str(precision), "--format", "json"],
                       1, partial(checks.check_lift, coeffs=q, p=p, root=root, precision=precision))


# -- series ---------------------------------------------------------------

SERIES_N_MAX = 10**6
SERIES_CASES = (  # (tag, Q, p, Legendre)
    ("q1_p5_hensel", ref.Q1, 5, False),
    ("q1_p3_non_hensel", ref.Q1, 3, False),
    ("x_p2_legendre", [0, 1], 2, True),
)


class Series:
    """``series`` then ``errors`` to n_max = 10^6, written as CSV files.

    The cases are the paper's and fixed; the seed draws the rows checked
    exactly.  A file identical to one already checked is accepted by digest.
    """

    name = "series"
    trace_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(f"series:{seed}")
        self.sample = set(rng.sample(range(1, SERIES_N_MAX + 1), 2000))
        self.out_dir = out_dir
        self.verified: dict[str, str] = {}

    def round(self, r: int) -> list[Request]:
        requests = []
        for tag, q, p, legendre in SERIES_CASES:
            case = partial(checks.SeriesCheck, q, p, ref.start_index(q), SERIES_N_MAX,
                           self.sample, 2000, legendre)
            for command, check in (("series", checks.check_series_file),
                                   ("errors", checks.check_errors_file)):
                path = os.path.join(self.out_dir, f"{tag}.{command}.csv")
                argv = [command, _poly_arg(q), "--prime", str(p), "--n-max", str(SERIES_N_MAX),
                        "--format", "csv", "--out", path]
                requests.append(Request(command, argv, SERIES_N_MAX,
                                        partial(self._check_once, path, check, case)))
        return requests

    def _check_once(self, path, check, case, _stdout):
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        if self.verified.get(path) == digest:
            return None
        reason = check(path, case())
        if reason is None:
            self.verified[path] = digest
        return reason


WORKLOADS = {w.name: w for w in (Scan, Queries, Series)}
