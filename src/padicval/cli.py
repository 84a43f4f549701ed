"""Command-line front end.

Every engine is exposed as a subcommand; output is deterministic and
exact (rationals print as "num/den", never floats).  Exit codes: 0 on
success, 1 on domain errors, 2 on usage errors.  This is the one module
that formats output: a command returns its Answer, and _write prints it
as csv, json or a table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from itertools import accumulate, islice, repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import analysis, padic, recurrence, reproduce
from .errors import PadicValError, ParseError
from .parser import parse_poly
from .poly import IntPolynomial, format_poly

if TYPE_CHECKING:
    from fractions import Fraction


def _poly_arg(text: str) -> IntPolynomial:
    try:
        return parse_poly(text)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _int(text: str, low: int | None = None) -> int:
    """An integer option's value, at least low when low is given."""
    try:
        n = int(text)
    except ValueError as e:  # the text is not an integer, or one past Python's digit limit
        too_long = "integer string conversion" in str(e)
        raise argparse.ArgumentTypeError("integer has too many digits" if too_long
                                         else f"invalid int value: {text!r}") from None
    if low is not None and n < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}")
    return n


def _prime_arg(text: str) -> padic.Prime:
    try:
        return padic.Prime(_int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


class Answer(NamedTuple):
    """A command's answer for each format: the json payload, where a callable
    yields a list's items json-encoded in non-empty blocks; the csv header
    and rows, in blocks of equally long columns; the table text or, if it
    is empty, the template of one table row; and the exit code, 1 when a
    reproduced claim fails."""

    payload: object
    header: Iterable[str] = ()
    blocks: Iterable[Sequence[Sequence]] = ()
    table: str = ""
    row: str = ""
    code: int = 0


def _write_json(out: TextIO, value) -> None:
    """What json.dumps(value, sort_keys=True) gives, where value or a value of
    its dict may be a callable, written as the list it yields."""
    import json
    if callable(value):
        out.write("[")
        out.writelines((", " if i else "") + ", ".join(items) for i, items in enumerate(value()))
        out.write("]")
    elif isinstance(value, dict) and any(map(callable, value.values())):
        out.write("{")
        for i, key in enumerate(sorted(value)):
            out.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(out, value[key])
        out.write("}")
    else:
        out.write(json.dumps(value, sort_keys=True))


def _write(out: TextIO, fmt: str, answer: Answer) -> None:
    """The answer in the format fmt, one block of rows or json items at a time."""
    if fmt == "json":
        _write_json(out, answer.payload)
        out.write("\n")
    elif fmt == "table" and answer.table:
        out.write(answer.table)
    else:
        row = answer.row
        if fmt == "csv":  # no field holds a comma, a quote or a line break
            out.write(",".join(answer.header) + "\n")
            row = ",".join(["%s"] * len(answer.header)) + "\n"
        for cols in answer.blocks:
            k, width = len(cols[0]), len(cols)
            flat = [None] * (k * width)  # the block's rows, one value after another
            for j, col in enumerate(cols):
                flat[j::width] = col
            out.write((row * k) % tuple(flat))


def _numbered(blocks: Iterable[Sequence[Sequence]]) -> Iterator[tuple]:
    """Each block of columns with the column n = 1, 2, ... in front."""
    n = 1
    for cols in blocks:
        k = len(cols[0])
        yield (range(n, n + k), *cols)
        n += k


def format_fraction(x: Fraction) -> str:
    """Exact "num/den" text."""
    return f"{x.numerator}/{x.denominator}"


def _add_common(sub, run: Callable[..., Answer], prime=True):
    sub.set_defaults(run=run)
    sub.add_argument("--poly", type=_poly_arg, required=True, help="polynomial in x, e.g. 'x^5+2*x^3+3'")
    if prime:
        sub.add_argument("--prime", type=_prime_arg, required=True)
    sub.add_argument("--format", choices=("csv", "json", "table"), default="table")
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicval",
        description="Prime valuations of product sequences t_n = Q(n) t_{n-1}.",
    )
    sp = ap.add_subparsers(dest="command", required=True)
    positive = functools.partial(_int, low=1)

    s = sp.add_parser("roots", help="roots of Q mod p")
    _add_common(s, _cmd_roots)

    s = sp.add_parser("classify", help="Hensel classification of (Q, p)")
    _add_common(s, _cmd_classify)

    s = sp.add_parser("lift", help="lift a simple root mod p to higher precision")
    _add_common(s, _cmd_lift)
    s.add_argument("--root", type=_int, required=True, help="base residue mod p")
    s.add_argument("--precision", type=functools.partial(_int, low=0), default=8,
                   help="extra digits k; result is exact mod p^(k+1)")
    s.set_defaults(usage_error=s.error)  # _cmd_lift's bound on --precision reads under lift's usage

    s = sp.add_parser("valuation", help="valuation of t_n")
    _add_common(s, _cmd_valuation)
    s.add_argument("--n", type=positive, required=True)
    s.add_argument("--engine", choices=_ENGINES, default="auto")
    s.add_argument("--no-auto-shift", action="store_true")

    s = sp.add_parser("series", help="valuations of t_1 .. t_N")
    _add_common(s, _cmd_series)
    s.add_argument("--n-max", type=positive, required=True)
    s.add_argument("--no-auto-shift", action="store_true")

    s = sp.add_parser("slope", help="asymptotic slope and zero number")
    _add_common(s, _cmd_slope)
    s.add_argument("--exact", action="store_true", help="accepted; the slope is always exact")
    s.add_argument("--n", type=positive, help="also report the finite-n empirical slope")

    s = sp.add_parser("errors", help="normalized and relative error series")
    _add_common(s, _cmd_errors)
    s.add_argument("--n-max", type=positive, required=True)
    s.add_argument("--no-auto-shift", action="store_true")

    s = sp.add_parser("scan", help="classify Q at the first N primes")
    _add_common(s, _cmd_scan, prime=False)
    s.add_argument("--count", type=positive, required=True)

    s = sp.add_parser("reproduce", help="recompute the worked-example claims")
    s.add_argument("selector", choices=sorted(reproduce.SELECTORS) + ["all"])
    s.add_argument("--scan-count", type=positive, default=5000)
    s.add_argument("--out", metavar="PATH")
    s.set_defaults(run=_cmd_reproduce, format="table")

    return ap


_parser = functools.cache(build_parser)


def _cmd_roots(args) -> Answer:
    roots = padic.roots_mod_p(args.poly, args.prime)
    return Answer({"p": args.prime.value, "poly": format_poly(args.poly), "roots": roots},
                  ["root"], [(roots,)], " ".join(map(str, roots)) + "\n")


_CLASSIFICATION_HEADER = ["p", "verdict", "roots", "non_hensel_roots"]


def _classification_row(cls: padic.PrimeClassification) -> list:
    return [cls.p.value, cls.verdict.value,
            ";".join(map(str, cls.roots)), ";".join(map(str, cls.non_hensel_roots))]


def _classification_json(cls: padic.PrimeClassification) -> dict:
    payload = {"p": cls.p.value, "verdict": cls.verdict.value}
    if cls.verdict is not padic.Verdict.ALL_RESIDUES:  # p residues are not listed
        payload.update(roots=list(cls.roots), non_hensel_roots=list(cls.non_hensel_roots))
    return payload


def _cmd_classify(args) -> Answer:
    cls = padic.classify_prime(args.poly, args.prime)
    return Answer(_classification_json(cls), _CLASSIFICATION_HEADER, [list(zip(_classification_row(cls)))],
                  f"{cls.verdict.value} roots={','.join(map(str, cls.roots))}"
                  f" non_hensel={','.join(map(str, cls.non_hensel_roots))}\n")


def max_lift_precision(pv: int, digits: int) -> int:
    """The largest k with p^(k+1) < 10^digits: every digit of such a lift prints."""
    bound = 10**digits
    k = max(int(digits / math.log10(pv)) - 1, 0)
    while pv ** (k + 1) >= bound:
        k -= 1
    while pv ** (k + 2) < bound:
        k += 1
    return k


def _cmd_lift(args) -> Answer:
    pv, k = args.prime.value, args.precision
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if max_digits and k > (limit := max_lift_precision(pv, max_digits)):
        args.usage_error(f"argument --precision: must be <= {limit} at p = {pv}, "
                         f"so that p^(k+1) stays within {max_digits} decimal digits")
    value = x = padic.hensel_lift(args.poly, args.prime, args.root, k)
    digits = []  # little-endian base p
    for _ in range(k + 1):
        x, d = divmod(x, pv)
        digits.append(d)
    powers = accumulate(repeat(pv, k), mul, initial=1)  # p^s
    rows = zip(range(k + 1), digits, accumulate(map(mul, digits, powers)))  # truncation: value mod p^(s+1)
    blocks = iter(lambda: list(zip(*islice(rows, 64))), [])  # a truncation may have 4300 digits
    return Answer({"p": pv, "digits": digits, "value": value}, ["s", "digit", "truncation"], blocks,
                  f"digits={','.join(map(str, digits))} value={value}\n")


def _make_spec(args) -> recurrence.RecurrenceSpec:
    return recurrence.make_spec(args.poly, auto_shift=not getattr(args, "no_auto_shift", False))


# The --engine choices and their names in recurrence, looked up per call so that a patched engine runs.
_ENGINES = {"auto": "valuation_tn", "fast": "valuation_tn_fast", "direct": "valuation_tn_direct"}


def _cmd_valuation(args) -> Answer:
    v = getattr(recurrence, _ENGINES[args.engine])(_make_spec(args), args.prime, args.n)
    return Answer({"p": args.prime.value, "poly": format_poly(args.poly), "n": args.n, "valuation": v},
                  ["n", "valuation"], [([args.n], [v])], f"{v}\n")


def _cmd_series(args) -> Answer:
    spec, p = _make_spec(args), args.prime
    series = functools.partial(recurrence.valuation_series, spec, p, args.n_max)
    payload = {"p": p.value, "poly": format_poly(spec.poly), "n0": spec.start_index,
               "values": lambda: (map(str, values) for values, in series())}
    return Answer(payload, ["n", "valuation"], _numbered(series()), row="%s %s\n")


def _cmd_slope(args) -> Answer:
    report = analysis.slope_report(_make_spec(args), args.prime, (args.n,) if args.n else ())
    e, n_p = format_fraction(report.predicted), format_fraction(report.n_p)
    empirical = [[n, format_fraction(v)] for n, v in report.empirical]
    payload = {"p": report.p.value, "classification": _classification_json(report.classification),
               "slope": e, "N_p": n_p, "empirical": empirical}
    rows = [("exact", e, n_p)] + [(f"empirical_n={n}", v, "") for n, v in empirical]
    table = " ".join([f"E={e} N={n_p}"] + [f"empirical(n={n})={v}" for n, v in empirical])
    return Answer(payload, ["kind", "E", "N"], [list(zip(*rows))], table + "\n")


def _cmd_errors(args) -> Answer:
    spec, p = _make_spec(args), args.prime
    zp = padic.classify_prime(spec.poly, p).z_p
    series = functools.partial(analysis.error_series, spec, p, args.n_max, zp)
    payload = {"p": p.value, "z_p": zp, "err": lambda: (map(str, err) for err, _ in series()),
               "relerr": lambda: (map(str, relerr) for _, relerr in series())}
    return Answer(payload, ["n", "err", "relerr"], _numbered(series()), row="%s %s %s\n")


def _cmd_scan(args) -> Answer:
    def windows(encode: Callable) -> Iterator[list]:
        results = (encode(c) for _, c in analysis.scan_primes(args.poly, args.count))
        return iter(lambda: list(islice(results, 256)), [])

    def encoded() -> Iterator[list]:
        import json
        return windows(lambda c: json.dumps(_classification_json(c), sort_keys=True))

    blocks = (list(zip(*rows)) for rows in windows(_classification_row))
    return Answer(encoded, _CLASSIFICATION_HEADER, blocks, row="%s %s roots=%s non_hensel=%s\n")


def _cmd_reproduce(args) -> Answer:
    claims = reproduce.run(args.selector, scan_count=args.scan_count)
    passed = sum(ok for _, ok in claims)
    lines = [("PASS " if ok else "FAIL ") + name for name, ok in claims]
    lines.append(f"{passed}/{len(claims)} claims pass")
    return Answer(None, table="\n".join(lines) + "\n", code=0 if passed == len(claims) else 1)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        answer = args.run(args)
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            _write(out, args.format, answer)
    except (PadicValError, OSError, ValueError) as e:
        if isinstance(e, ValueError):  # a domain error only past Python's int-to-str limit
            if "integer string conversion" not in str(e):
                raise
            e = (f"an integer in the answer has more than {sys.get_int_max_str_digits()} digits, "
                 "Python's limit for printing one; PYTHONINTMAXSTRDIGITS=0 lifts the limit")
        print(f"error: {e}", file=sys.stderr)
        return 1
    return answer.code


if __name__ == "__main__":
    sys.exit(main())
