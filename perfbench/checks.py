"""Checks of padicval's outputs against the references in ``reference``.

Each check takes the text (or file) a CLI request produced plus what the
benchmark knows about the input, and returns ``None`` when the answer is
right or a one-line reason when it is not.  Nothing here imports padicval.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from operator import le, sub

import reference as ref

SCAN_HEADER = "p,verdict,roots,non_hensel_roots"


def _ints(field: str) -> list[int]:
    return [int(x) for x in field.split(";")] if field else []


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_root_census(coeffs, p, roots, non_hensel, verdict, lc_disc) -> str | None:
    """Properties every root census mod p must have, whatever the method.

    Each root vanishes, the non-simple ones are exactly those where Q'
    vanishes, the verdict follows, there are at most deg(Q mod p) roots,
    and a non-simple root forces p | lc(Q) * disc(Q).
    """
    if roots != sorted(set(roots)) or any(not 0 <= r < p for r in roots):
        return f"p={p}: roots {roots} not sorted distinct residues"
    bad = [r for r in roots if ref.evaluate_mod(coeffs, r, p)]
    if bad:
        return f"p={p}: {bad} are not roots"
    dq = ref.derivative(coeffs)
    expected_nh = [r for r in roots if ref.evaluate_mod(dq, r, p) == 0]
    if non_hensel != expected_nh:
        return f"p={p}: non-simple roots {non_hensel}, derivative says {expected_nh}"
    expected_verdict = "no_roots" if not roots else ("non_hensel" if non_hensel else "hensel")
    if verdict != expected_verdict:
        return f"p={p}: verdict {verdict}, roots say {expected_verdict}"
    if len(roots) > len(ref.trim([c % p for c in coeffs])) - 1:
        return f"p={p}: {len(roots)} roots exceed the degree mod p"
    if non_hensel and lc_disc % p:
        return f"p={p}: non-Hensel but p does not divide lc*disc = {lc_disc}"
    return None


def check_scan(text, coeffs, primes, lc_disc, brute_primes, non_hensel_set=None) -> str | None:
    """A ``scan --format csv`` table for the given first ``len(primes)`` primes.

    Root sets are compared with a brute-force search at ``brute_primes``;
    ``non_hensel_set``, when given, must be exactly the non-Hensel primes.
    """
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return "scan: missing header"
    rows = lines[1:]
    if len(rows) != len(primes):
        return f"scan: {len(rows)} rows for {len(primes)} primes"
    cont = ref.content(coeffs)
    found_nh = set()
    for line, p in zip(rows, primes):
        fields = line.split(",")
        if len(fields) != 4 or int(fields[0]) != p:
            return f"scan: row {line!r} where prime {p} was due"
        verdict = fields[1]
        if verdict == "all_residues" or cont % p == 0:
            if not (verdict == "all_residues" and cont % p == 0 and fields[2] == fields[3] == ""):
                return f"scan: p={p} all_residues mismatch (content {cont}): {line!r}"
            continue
        roots, nh = _ints(fields[2]), _ints(fields[3])
        reason = check_root_census(coeffs, p, roots, nh, verdict, lc_disc)
        if reason:
            return "scan: " + reason
        if p in brute_primes and roots != ref.roots_mod(coeffs, p):
            return f"scan: p={p} roots {roots}, brute force finds {ref.roots_mod(coeffs, p)}"
        if nh:
            found_nh.add(p)
    if non_hensel_set is not None and found_nh != set(non_hensel_set):
        return f"scan: non-Hensel primes {sorted(found_nh)}, expected {sorted(non_hensel_set)}"
    return None


def check_valuation(text, p, n, expected) -> str | None:
    obj = json.loads(text)
    if (obj["p"], obj["n"]) != (p, n):
        return f"valuation: answered for p={obj['p']} n={obj['n']}"
    if obj["valuation"] != expected:
        return f"valuation p={p}: got {obj['valuation']}, reference {expected}"
    return None


def check_slope(text, coeffs, p, expected) -> str | None:
    """``slope --exact --format json``: slope and N_p, plus the root census at p.

    When p divides content(Q), Q mod p is 0 and has no root census to check,
    so only the slope and N_p are checked.
    """
    obj = json.loads(text)
    if obj["slope"] is None or _fraction(obj["slope"]) != expected:
        return f"slope p={p}: got {obj['slope']}, reference {expected}"
    if _fraction(obj["N_p"]) != (p - 1) * expected:
        return f"slope p={p}: N_p {obj['N_p']} is not (p-1)*{expected}"
    if ref.content(coeffs) % p == 0:
        return None
    cls = obj["classification"]
    if cls["roots"] != ref.roots_mod(coeffs, p):
        return f"slope p={p}: roots {cls['roots']}, brute force {ref.roots_mod(coeffs, p)}"
    return check_root_census(coeffs, p, cls["roots"], cls["non_hensel_roots"], cls["verdict"],
                             ref.lc_times_discriminant(coeffs))


def check_classify(text, coeffs, p, lc_disc, roots=None, non_hensel=None, count=None) -> str | None:
    """``classify --format json``, plus the roots, non-simple roots or root count when known."""
    obj = json.loads(text)
    if obj["p"] != p:
        return f"classify: answered for p={obj['p']}"
    got, got_nh = obj["roots"], obj["non_hensel_roots"]
    reason = check_root_census(coeffs, p, got, got_nh, obj["verdict"], lc_disc)
    if reason:
        return "classify " + reason
    for label, value, want in (("roots", got, roots), ("non-simple roots", got_nh, non_hensel),
                               ("root count", len(got), count)):
        if want is not None and value != want:
            return f"classify p={p}: {label} {value}, expected {want}"
    return None


def check_lift(text, coeffs, p, root, precision) -> str | None:
    """``lift --format json``: digits in range, value matches, Q(value) = 0 mod p^(k+1)."""
    obj = json.loads(text)
    digits = obj["digits"]
    if obj["p"] != p or len(digits) != precision + 1 or digits[0] != root % p:
        return f"lift p={p}: {len(digits)} digits from {digits[:1]}"
    if any(not 0 <= d < p for d in digits):
        return f"lift p={p}: digit out of range"
    value = sum(d * p**s for s, d in enumerate(digits))
    if obj["value"] != value:
        return f"lift p={p}: value does not match its digits"
    if ref.evaluate_mod(coeffs, value, p ** (precision + 1)):
        return f"lift p={p}: Q(value) is not 0 mod p^{precision + 1}"
    return None


BLOCK_ROWS = 1 << 14


def read_blocks(path, header, ncols):
    """Yield (first row number, value columns) per block of a CSV file.

    The first column must number the rows 1, 2, ...; it is checked and
    dropped.  Reading a block at a time keeps memory flat however long the
    file is.
    """
    n = 1
    with open(path) as fh:
        if fh.readline() != header + "\n":
            raise ValueError(f"header is not {header!r}")
        while lines := list(islice(fh, BLOCK_ROWS)):
            fields = "".join(lines).replace("\n", ",").split(",")
            fields.pop()  # the empty field after the last newline
            if len(fields) != ncols * len(lines):
                raise ValueError(f"rows near {n} do not have {ncols} fields")
            nums = list(map(int, fields))
            if nums[0::ncols] != list(range(n, n + len(lines))):
                raise ValueError(f"rows near {n} are not numbered in order")
            yield n, [nums[j::ncols] for j in range(1, ncols)]
            n += len(lines)


class SeriesCheck:
    """Checks v_1, v_2, ... = v_p(t_n) block by block.

    Every row: nondecreasing, and unchanged where p does not divide Q(i),
    i = start + n.  Rows up to ``exact_prefix`` and rows in ``sample``: the
    increment is v_p(Q(i)) by brute force, and with ``legendre`` (Q = x)
    the value is v_p(n!) by Legendre's formula.
    """

    def __init__(self, coeffs, p, start, n_max, sample, exact_prefix, legendre=False):
        self.coeffs, self.p, self.start, self.n_max, self.legendre = coeffs, p, start, n_max, legendre
        self.flat = [c for c in range(p) if ref.evaluate_mod(coeffs, c, p)]
        self.exact = sorted(set(range(1, exact_prefix + 1)) | set(sample) | {n_max})
        self.last = 0
        self.rows = 0

    def feed(self, n0: int, values: list[int]) -> str | None:
        p, start = self.p, self.start
        prev = [self.last] + values[:-1]
        if not all(map(le, prev, values)):
            k = next(k for k, (a, b) in enumerate(zip(prev, values)) if a > b)
            return f"decreases at n={n0 + k}"
        for c in self.flat:
            k0 = (c - start - n0) % p  # rows n0 + k0 + j*p have start + n = c mod p
            if values[k0::p] != prev[k0::p]:
                j = next(j for j, (a, b) in enumerate(zip(values[k0::p], prev[k0::p])) if a != b)
                n = n0 + k0 + j * p
                return f"n={n} grows where p does not divide Q({start + n})"
        end = n0 + len(values)
        for n in self.exact[bisect_left(self.exact, n0):bisect_left(self.exact, end)]:
            v, d, i = values[n - n0], values[n - n0] - prev[n - n0], start + n
            if d != ref.vp(ref.evaluate(self.coeffs, i), p):
                return f"n={n} grows by {d}, v_p(Q({i})) = {ref.vp(ref.evaluate(self.coeffs, i), p)}"
            if self.legendre and v != ref.legendre(n, p):
                return f"n={n} is {v}, Legendre gives {ref.legendre(n, p)}"
        self.last, self.rows = values[-1], end - 1
        return None

    def finish(self) -> str | None:
        return None if self.rows == self.n_max else f"{self.rows} rows for n_max={self.n_max}"


def check_series_file(path, case: SeriesCheck) -> str | None:
    """A ``series --format csv`` file: n, v_p(t_n)."""
    try:
        for n0, (values,) in read_blocks(path, "n,valuation", 2):
            if reason := case.feed(n0, values):
                return "series: " + reason
    except ValueError as e:
        return f"series: {e}"
    return case.finish()


def check_errors_file(path, case: SeriesCheck) -> str | None:
    """An ``errors --format csv`` file: n, err_n = z_p*n - (p-1)*v_n, relerr_n.

    z_p is counted by brute force; v_n recovered from err_n must be an
    integer and pass the series checks, and relerr is the first difference
    of err.
    """
    z, pm1 = len(ref.roots_mod(case.coeffs, case.p)), case.p - 1
    last = 0
    try:
        for n0, (err, rel) in read_blocks(path, "n,err,relerr", 3):
            if rel != list(map(sub, err, [last] + err[:-1])):
                return f"errors: relerr near n={n0} is not the increment of err"
            last = err[-1]
            rows = range(n0, n0 + len(err))
            values = [(z * n - e) // pm1 for n, e in zip(rows, err)]
            if [z * n - pm1 * v for n, v in zip(rows, values)] != err:
                return f"errors: err near n={n0} is not z_p*n - (p-1)*v_n for integer v_n"
            if reason := case.feed(n0, values):
                return "errors: " + reason
    except ValueError as e:
        return f"errors: {e}"
    return case.finish()
