"""Valuation engines for the product sequence t_n = Q(n) * t_{n-1}.

The sequence itself is never materialized (it has Theta(n log n) digits);
every engine works on per-term valuations.  The direct engine is the
oracle: evaluate Q at each index and strip powers of p.  Everything else
reads one walk of the p-adic descent over the window's residue classes,
which evaluates at most one term per class.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

from .errors import HasIntegerRootError, NotHenselPrimeError, ValuationOfZeroError, ZeroPolynomialError
from .padic import Prime, classify_prime, descent, hensel_digit, int_valuation
from .poly import IntPolynomial, nonneg_integer_roots


class RecurrenceSpec(NamedTuple):
    """Q plus the start index n0 (t_{n0} = 1 by convention).

    The multipliers are Q(n0+1), Q(n0+2), ...; the start index must sit
    at or beyond every nonnegative integer root of Q so no multiplier
    vanishes.
    """

    poly: IntPolynomial
    start_index: int = 0


def make_spec(q: IntPolynomial, auto_shift: bool = True) -> RecurrenceSpec:
    if q.is_zero:
        raise ZeroPolynomialError("recurrence multiplier must be nonzero")
    roots = nonneg_integer_roots(q)
    positive = {r for r in roots if r >= 1}
    if not positive:
        return RecurrenceSpec(q, 0)
    if not auto_shift:
        raise HasIntegerRootError(
            f"Q vanishes at {sorted(positive)}; enable auto_shift or shift manually"
        )
    return RecurrenceSpec(q, max(positive))


def count_congruent(n: int, r: int, m: int, lo: int = 0) -> int:
    """#{i : lo < i <= lo + n, i = r mod m}, by closed form."""
    if m < 1 or not 0 <= r < m:
        raise ValueError(f"need m >= 1 and 0 <= r < m, got r={r}, m={m}")
    return (lo + n - r) // m - (lo - r) // m


def valuation_tn_direct(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """Per-term oracle: sum of valuations of the n multipliers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q, pv, lo = spec.poly, p.value, spec.start_index
    total = 0
    for i in range(lo + 1, lo + n + 1):
        v = q.evaluate(i)
        while v % pv == 0:
            if not v:
                raise ValuationOfZeroError(f"the multiplier Q({i}) is 0")
            total += 1
            v //= pv
    return total


def residue_classes(spec: RecurrenceSpec, p: Prime, n: int) -> Iterator[tuple[int, int, int, int]]:
    """The walk behind valuation_tn, class by class, as (A, B, w, c): each
    of the c window indices i = B mod A gains w (0 <= B < A).

    It reads the nodes of padic.descent: R(k) = Q(A*k + B) / p^c on the k
    with n0 < A*k + B <= n0 + n, whose stripped power p^m counts once per
    index of its class.  A simple root is lifted one Hensel digit at a
    time, each digit counting the indices of its class.  A non-simple root
    whose class holds at most one window index is removed from the node's
    repeated roots, so the descent does not go below it, and its index, if
    any, is evaluated directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pv, lo = p.value, spec.start_index
    for a, b, m, r, simple, repeated in descent(spec.poly, p):
        if m:
            yield a, b, m, count_congruent(n, b, a, lo)
        dr = r.derivative()
        for gamma in simple:
            dinv, ps = pow(dr.evaluate_mod(gamma, pv), -1, pv), pv  # gamma is the root mod p^s
            while c := count_congruent(n, a * gamma + b, a * ps, lo):
                if c == 1:  # its one index k = gamma mod p^s gains v_p(R(k)) - s + 1 more
                    k = ((lo - a * gamma - b) // (a * ps) + 1) * ps + gamma
                    yield a * ps, a * gamma + b, int_valuation(r.evaluate(k) // ps, p) + 1, 1
                    break
                yield a * ps, a * gamma + b, 1, c
                gamma += hensel_digit(r, pv, gamma, ps, dinv) * ps
                ps *= pv
        for root in repeated[:]:
            if (c := count_congruent(n, a * root + b, a * pv, lo)) <= 1:
                repeated.remove(root)
                if c:  # its one index is A*k + B for the first k = root mod p past n0
                    k = ((lo - a * root - b) // (a * pv) + 1) * pv + root
                    yield a * pv, a * root + b, int_valuation(r.evaluate(k), p), 1


def valuation_tn(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """Exact valuation at any prime: the weights of residue_classes, summed.

    The walk descends only into classes of two or more window indices, so
    the depth stays within log_p(n0 + n) + 1 even for repeated factors,
    and a zero multiplier raises ValuationOfZeroError.
    """
    return sum(w * c for _, _, w, c in residue_classes(spec, p, n))


def valuation_tn_fast(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """valuation_tn, refused unless every root of Q mod p is simple."""
    if not classify_prime(spec.poly, p).all_roots_simple:
        raise NotHenselPrimeError(
            f"{p} is not a Hensel prime for {spec.poly}; use the direct engine"
        )
    return valuation_tn(spec, p, n)


BLOCK = 1 << 14  # window indices per walk: the series hold O(BLOCK) values at a time, not O(n)


def valuation_blocks(spec: RecurrenceSpec, p: Prime, n: int) -> Iterator[list[int]]:
    """v_p(Q(i)) for i = n0+1 .. n0+n, in order, BLOCK values to a list (the
    last may hold fewer).  Each block is its own walk of residue_classes,
    filled one slice values[start::A] per class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for s in range(0, n, BLOCK):
        lo, size = spec.start_index + s, min(BLOCK, n - s)
        values = [0] * size
        for a, b, w, _ in residue_classes(RecurrenceSpec(spec.poly, lo), p, size):
            start = (b - lo - 1) % a
            values[start::a] = [v + w for v in values[start::a]]
        yield values


def valuation_series(spec: RecurrenceSpec, p: Prime, n_max: int) -> Iterator[tuple[list[int]]]:
    """The valuations of t_1 .. t_n_max as one-column blocks: running sums of valuation_blocks."""
    total = 0
    for block in valuation_blocks(spec, p, n_max):
        sums = list(accumulate(block, initial=total))[1:]
        total = sums[-1]
        yield (sums,)


def max_power_index(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """Largest e with p^e dividing some multiplier in the window (r_n)."""
    return max(map(max, valuation_blocks(spec, p, n)))
