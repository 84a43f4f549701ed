"""Asymptotics of the valuation sequence.

Slopes and asymptotic zero numbers are exact rationals (stdlib Fraction),
never floats.  One p-adic descent gives the slope of every Q at every
prime.  At a Hensel prime it stops at once with z_p/(p-1); otherwise it
mechanizes the hand steps of the worked cases: substitute i = p*k + b at
a non-simple root b, factor out the minimal coefficient power of p, and
descend again.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .padic import Prime, PrimeClassification, classify_prime, descent, primes_first
from .poly import IntPolynomial, integer_poly_gcd, poly_divexact
from .recurrence import RecurrenceSpec, valuation_blocks, valuation_tn

if TYPE_CHECKING:
    from fractions import Fraction


def exact_slope(q: IntPolynomial, p: Prime) -> Fraction:
    """Exact per-n slope E = lim valuation(t_n)/n, as a fraction.

    The limit of valuation_tn's walk, with densities for window counts:
    a node of padic.descent at depth d holds 1/p^d of the indices, so its
    stripped power p^m adds m/p^d and each simple root adds 1/((p-1)p^d).
    A factor repeated over Z would make the descent endless, so Q is first
    peeled into squarefree pieces Q/G, with G = gcd(Q, Q') peeled in turn;
    slopes add over any pointwise factorization.  The descent of a
    squarefree piece ends: an endless residue chain would converge to a
    p-adic alpha with Q(alpha) = Q'(alpha) = 0.
    """
    from fractions import Fraction
    pieces = []
    while (rep := integer_poly_gcd(q, q.derivative())).degree >= 1:
        pieces.append(poly_divexact(q, rep))
        q = rep
    nodes = (node for piece in pieces + [q] for node in descent(piece, p))
    return sum((m + Fraction(len(simple), p.value - 1)) / a for a, _, m, _, simple, _ in nodes)


def asymptotic_zero_number(q: IntPolynomial, p: Prime) -> Fraction:
    """N_p = (p-1) * E, the limit of (p-1)*valuation/n."""
    return (p.value - 1) * exact_slope(q, p)


def empirical_slope(spec: RecurrenceSpec, p: Prime, n: int) -> Fraction:
    """(p-1)*valuation(t_n)/n exactly, at finite n."""
    from fractions import Fraction
    return Fraction((p.value - 1) * valuation_tn(spec, p, n), n)


def error_series(spec: RecurrenceSpec, p: Prime, n_max: int, z_p: int
                 ) -> Iterator[tuple[list[int], list[int]]]:
    """The normalized error z_p*n - (p-1)*valuation(t_n) for n = 1 .. n_max,
    as (err, relerr) blocks: relerr at n is z_p - (p-1)*v_p(Q(n0+n)), and
    err its running sum."""
    pm1, err = p.value - 1, 0
    for block in valuation_blocks(spec, p, n_max):
        relerr = [z_p - pm1 * v for v in block]
        errs = list(accumulate(relerr, initial=err))[1:]
        err = errs[-1]
        yield errs, relerr


def scan_primes(q: IntPolynomial, count: int) -> Iterator[tuple[Prime, PrimeClassification]]:
    """Classify q at each of the first `count` primes, yielding each in prime order."""
    for p in primes_first(count):
        yield p, classify_prime(q, p)


class SlopeReport(NamedTuple):
    p: Prime
    classification: PrimeClassification
    predicted: Fraction    # per-n slope of the valuation
    n_p: Fraction          # asymptotic zero number
    empirical: tuple[tuple[int, Fraction], ...]


def slope_report(spec: RecurrenceSpec, p: Prime, sample_points: tuple[int, ...] = ()) -> SlopeReport:
    """Classification, exact slope and empirical slopes at the sample points."""
    slope = exact_slope(spec.poly, p)
    empirical = tuple((n, empirical_slope(spec, p, n)) for n in sample_points)
    return SlopeReport(p, classify_prime(spec.poly, p), slope, (p.value - 1) * slope, empirical)
