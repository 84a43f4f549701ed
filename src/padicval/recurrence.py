"""Valuation engines for the product sequence t_n = Q(n) * t_{n-1}.

The sequence itself is never materialized (it has Theta(n log n) digits);
every engine works on per-term valuations.  The direct engine is the
oracle: evaluate Q at each index and strip powers of p.  Everything else
reads one walk of the p-adic descent (descent, below) over the window's
residue classes, which evaluates at most one term per class.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

from .errors import HasIntegerRootError, NotHenselPrimeError, ValuationOfZeroError, ZeroPolynomialError
from .padic import Prime, classify_prime, hensel_digit, int_valuation
from .poly import IntPolynomial, nonneg_integer_roots, squarefree_pieces


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


def descent(q: IntPolynomial, p: Prime
            ) -> Iterator[tuple[int, int, int, IntPolynomial, list[int], list[int]]]:
    """The nodes of the p-adic descent of q, depth first, as (A, B, m, R, simple, repeated).

    A node is the class i = A*k + B (A = p^depth, 0 <= B < A), where q(A*k + B) is
    p^m * R(k) times the powers stripped above it and R is not 0 mod p.  Its roots
    mod p are classify_prime(R, p)'s, split into simple and repeated (non-simple)
    ones.  When the reader resumes, the descent continues with R(p*k + b) for each
    root b still in repeated, so a reader prunes a child by removing its root.
    When q's root node has a repeated root and q has two or more squarefree
    pieces (poly.squarefree_pieces), their descents replace that node, one after
    another, and nothing is peeled again: valuations and slopes add over the
    pieces, and a piece's descent ends at a depth independent of n.
    """
    pv = p.value
    stack, peel = [(q, 1, 0)], True  # (R, A, B) with 0 <= B < A; only q's root node is peeled
    while stack:
        r, a, b = stack.pop()
        m = int_valuation(r.content(), p)
        if m:  # p^m divides every coefficient of r: m is the valuation of its content
            pm = pv**m
            r = IntPolynomial(c // pm for c in r.coeffs)
        cls = classify_prime(r, p)
        repeated = list(cls.non_hensel_roots)
        if peel and repeated and len(pieces := list(squarefree_pieces(q))) > 1:
            stack = [(piece, 1, 0) for piece in reversed(pieces)]  # the first piece pops first
        else:
            yield a, b, m, r, [x for x in cls.roots if x not in repeated], repeated
            stack += [(r.affine_substitute(pv, x), a * pv, a * x + b) for x in repeated]
        peel = False


def residue_classes(spec: RecurrenceSpec, p: Prime, n: int) -> Iterator[tuple[int, int, int, int]]:
    """The walk behind valuation_tn, class by class, as (A, B, w, c): each
    of the c window indices i = B mod A gains w (0 <= B < A).

    It reads the nodes of descent(Q, p), one squarefree piece P of Q after
    another: R(k) = P(A*k + B) / p^c on the k with n0 < A*k + B <=
    n0 + n, whose stripped power p^m counts once per index of its class.
    Each root of a node gets one floor pair: its class, the k = gamma mod
    p^s, holds the indices with below < (k - gamma) / p^s <= top.  A
    repeated root whose class holds two or more is left to the descent; any
    other leaves the node's repeated roots.  A simple root takes Hensel
    digits while its class holds two or more, and digit d turns each floor
    x into (x - d) // p, since floor((floor(y / m) - d) / p) = floor((y -
    d*m) / (m*p)): no digit divides by A*p^s.  Every root ends in one exit,
    where a class of one index is evaluated directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pv, lo = p.value, spec.start_index
    for a, b, m, r, simple, repeated in descent(spec.poly, p):
        if m:
            yield a, b, m, count_congruent(n, b, a, lo)
        for gamma in simple + repeated:  # gamma is the root mod p^s
            ps = pv
            below, top = (lo - a * gamma - b) // (a * pv), (lo + n - a * gamma - b) // (a * pv)
            if gamma in repeated:
                if top - below > 1:
                    continue  # the descent goes below it
                repeated.remove(gamma)
            while (c := top - below) > 1:
                yield a * ps, a * gamma + b, 1, c
                if ps == pv:  # R' is needed only once a chain takes its first digit
                    dinv = pow(r.derivative().evaluate_mod(gamma, pv), -1, pv)
                d = hensel_digit(r, pv, gamma, ps, dinv)
                gamma += d * ps
                ps *= pv
                below, top = (below - d) // pv, (top - d) // pv
            if c:  # its one index k = gamma mod p^s gains v_p(R(k)) - s + 1 more
                k = (below + 1) * ps + gamma
                if not (v := r.evaluate(k)):
                    raise ValuationOfZeroError(f"the multiplier Q({a * k + b}) is 0")
                yield a * ps, a * gamma + b, int_valuation(v // ps, p) + 1, 1


def valuation_tn(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """Exact valuation at any prime: the weights of residue_classes, summed.

    The walk reads descent's nodes, one squarefree piece of Q at a time, whose descent
    ends at a depth independent of n, and prunes them to log_p(n0 + n) + 1 levels, the
    classes of two or more window indices.  A zero multiplier raises ValuationOfZeroError.
    """
    return sum(w * c for _, _, w, c in residue_classes(spec, p, n))


def valuation_tn_fast(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """valuation_tn, refused unless every root of Q mod p is simple."""
    if not classify_prime(spec.poly, p).all_roots_simple:
        raise NotHenselPrimeError(
            f"{p} is not a Hensel prime for {spec.poly}; --engine auto is exact at every prime"
        )
    return valuation_tn(spec, p, n)


BLOCK = 1 << 14  # indices per list, and the pattern's longest period: O(BLOCK) values held, not O(n)


def valuation_blocks(spec: RecurrenceSpec, p: Prime, n: int, base: int = 0, scale: int = 1
                     ) -> Iterator[list[int]]:
    """base + scale*v_p(Q(i)) for i = n0+1 .. n0+n, in order, BLOCK values to a list (the last
    may hold fewer), from one walk of residue_classes over the whole window.  Every class
    modulus A is a power of p, so the classes with A <= BLOCK add up to one pattern of period
    P, their largest A, one slice pattern[B::A] each.  A block is cut from that pattern, tiled
    once, plus each class with A > BLOCK, which holds at most one index of a block."""
    size, small, large = BLOCK, [], []
    for a, b, w, _ in residue_classes(spec, p, n):
        (small if a <= size else large).append((a, b, scale * w))
    period = max([a for a, _, _ in small], default=1)
    pattern = [base] * period  # pattern[j] for the indices i = j mod P
    for a, b, w in small:
        pattern[b::a] = [v + w for v in pattern[b::a]]
    pattern *= -(-min(n, size) // period)  # tiled once, to a block's length or more
    for s in range(0, n, size):
        first, length = spec.start_index + s + 1, min(size, n - s)  # the block's first index
        cut = first % period
        values = pattern[cut:cut + length]
        values += pattern[:length - len(values)]  # wraps round: the tiled length is a multiple of P
        for a, b, w in large:
            if (j := (b - first) % a) < length:
                values[j] += w
        yield values


def valuation_series(spec: RecurrenceSpec, p: Prime, n_max: int) -> Iterator[tuple[list[int]]]:
    """The valuations of t_1 .. t_n_max as one-column blocks: running sums of valuation_blocks."""
    total = 0
    for block in valuation_blocks(spec, p, n_max):
        block[0] += total
        sums = list(accumulate(block))
        total = sums[-1]
        yield (sums,)


def max_power_index(spec: RecurrenceSpec, p: Prime, n: int) -> int:
    """Largest e with p^e dividing some multiplier in the window (r_n)."""
    return max(map(max, valuation_blocks(spec, p, n)))
