"""Command-line front end.

Every engine is exposed as a subcommand; output is deterministic and
exact (rationals print as "num/den", never floats).  Exit codes: 0 on
success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import Callable, Iterable, TextIO

from . import analysis, padic, recurrence, reproduce
from .analysis import format_fraction
from .errors import PadicValError, ParseError
from .parser import parse_poly
from .poly import IntPolynomial, format_poly

# A command's output: its whole text, or a function writing it to a stream.
Output = "str | Callable[[TextIO], object]"


def _poly_arg(text: str) -> IntPolynomial:
    try:
        return parse_poly(text)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _prime_arg(text: str) -> padic.Prime:
    try:
        return padic.Prime(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _nonneg_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _emit(output: Output, out_path: str | None) -> None:
    write = output if callable(output) else lambda fh: fh.write(output)
    if out_path:
        with open(out_path, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _csv(header: Iterable, rows: Iterable[Iterable]) -> Output:
    """A writer of the header and rows as comma-separated lines, one row at a time."""
    def write(out: TextIO) -> None:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return write


def _add_common(sub, poly=True, prime=True):
    if poly:
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

    s = sp.add_parser("roots", help="roots of Q mod p")
    _add_common(s)

    s = sp.add_parser("classify", help="Hensel classification of (Q, p)")
    _add_common(s)

    s = sp.add_parser("lift", help="lift a simple root mod p to higher precision")
    _add_common(s)
    s.add_argument("--root", type=int, required=True, help="base residue mod p")
    s.add_argument("--precision", type=_nonneg_int, default=8, help="extra digits k; result is exact mod p^(k+1)")

    s = sp.add_parser("valuation", help="valuation of t_n")
    _add_common(s)
    s.add_argument("--n", type=_positive_int, required=True)
    s.add_argument("--engine", choices=("auto", "fast", "direct"), default="auto")
    s.add_argument("--no-auto-shift", action="store_true")

    s = sp.add_parser("series", help="valuations of t_1 .. t_N")
    _add_common(s)
    s.add_argument("--n-max", type=_positive_int, required=True)
    s.add_argument("--no-auto-shift", action="store_true")

    s = sp.add_parser("slope", help="asymptotic slope and zero number")
    _add_common(s)
    s.add_argument("--exact", action="store_true", help="accepted; the slope is always exact")
    s.add_argument("--n", type=_positive_int, help="also report the finite-n empirical slope")

    s = sp.add_parser("errors", help="normalized and relative error series")
    _add_common(s)
    s.add_argument("--n-max", type=_positive_int, required=True)
    s.add_argument("--no-auto-shift", action="store_true")

    s = sp.add_parser("scan", help="classify Q at the first N primes")
    _add_common(s, prime=False)
    s.add_argument("--count", type=_positive_int, required=True)
    s.add_argument("--workers", type=_positive_int, default=1)

    s = sp.add_parser("reproduce", help="recompute the worked-example claims")
    s.add_argument("selector", choices=sorted(reproduce.SELECTORS) + ["all"])
    s.add_argument("--scan-count", type=_positive_int, default=5000)
    s.add_argument("--workers", type=_positive_int, default=1)
    s.add_argument("--out", metavar="PATH")

    return ap


_parser = functools.cache(build_parser)


def _cmd_roots(args) -> Output:
    roots = padic.roots_mod_p(args.poly, args.prime)
    if args.format == "json":
        payload = {"p": args.prime.value, "poly": format_poly(args.poly), "roots": roots}
        return json.dumps(payload, sort_keys=True) + "\n"
    if args.format == "csv":
        return _csv(["root"], [[r] for r in roots])
    return " ".join(str(r) for r in roots) + "\n"


_CLASSIFICATION_HEADER = ["p", "verdict", "roots", "non_hensel_roots"]


def _classification_row(cls: padic.PrimeClassification) -> list:
    return [cls.p.value, cls.verdict.value,
            ";".join(map(str, cls.roots)), ";".join(map(str, cls.non_hensel_roots))]


def _cmd_classify(args) -> Output:
    cls = padic.classify_prime(args.poly, args.prime)
    if args.format == "json":
        return json.dumps(cls.to_json(), sort_keys=True) + "\n"
    if args.format == "csv":
        return _csv(_CLASSIFICATION_HEADER, [_classification_row(cls)])
    return (
        f"{cls.verdict.value} roots={','.join(map(str, cls.roots))}"
        f" non_hensel={','.join(map(str, cls.non_hensel_roots))}\n"
    )


def max_lift_precision(pv: int, digits: int) -> int:
    """The largest k with p^(k+1) < 10^digits: every digit of such a lift prints."""
    bound = 10**digits
    k = max(int(digits / math.log10(pv)) - 1, 0)
    while pv ** (k + 1) >= bound:
        k -= 1
    while pv ** (k + 2) < bound:
        k += 1
    return k


def _cmd_lift(args) -> Output:
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and args.precision > (limit := max_lift_precision(args.prime.value, digits)):
        _parser().error(f"argument --precision: must be <= {limit} at p = {args.prime}, "
                        f"so that p^(k+1) stays within {digits} decimal digits")
    root = padic.hensel_lift(args.poly, args.prime, args.root, args.precision)
    value = root.truncation_value(root.precision - 1)
    if args.format == "json":
        payload = root.to_json()
        payload["value"] = value
        return json.dumps(payload, sort_keys=True) + "\n"
    if args.format == "csv":
        return _csv(["s", "digit", "truncation"],
                    zip(range(root.precision), root.digits, root.truncations()))
    return f"digits={','.join(map(str, root.digits))} value={value}\n"


def _make_spec(args) -> recurrence.RecurrenceSpec:
    return recurrence.make_spec(args.poly, auto_shift=not getattr(args, "no_auto_shift", False))


# Engine names in recurrence, looked up per call so that a patched engine is the one that runs.
_ENGINES = {"auto": "valuation_tn", "fast": "valuation_tn_fast", "direct": "valuation_tn_direct"}


def _cmd_valuation(args) -> Output:
    v = getattr(recurrence, _ENGINES[args.engine])(_make_spec(args), args.prime, args.n)
    if args.format == "json":
        payload = {"p": args.prime.value, "poly": format_poly(args.poly),
                   "n": args.n, "valuation": v}
        return json.dumps(payload, sort_keys=True) + "\n"
    if args.format == "csv":
        return _csv(["n", "valuation"], [[args.n, v]])
    return f"{v}\n"


def _cmd_series(args) -> Output:
    spec, p = _make_spec(args), args.prime
    fields = {"p": p.value, "poly": format_poly(spec.poly), "n0": spec.start_index, "values": None}
    return functools.partial(recurrence.write_series, fmt=args.format,
                             header=("n", "valuation"),
                             blocks=lambda: recurrence.valuation_series(spec, p, args.n_max),
                             json_fields=fields)


def _cmd_slope(args) -> Output:
    report = analysis.slope_report(_make_spec(args), args.prime, (args.n,) if args.n else ())
    if args.format == "json":
        return json.dumps(report.to_json(), sort_keys=True) + "\n"
    if args.format == "csv":
        rows = [["exact", format_fraction(report.predicted), format_fraction(report.n_p)]]
        rows += [[f"empirical_n={n}", format_fraction(v), ""] for n, v in report.empirical]
        return _csv(["kind", "E", "N"], rows)
    parts = [f"E={format_fraction(report.predicted)} N={format_fraction(report.n_p)}"]
    parts += [f"empirical(n={n})={format_fraction(v)}" for n, v in report.empirical]
    return " ".join(parts) + "\n"


def _cmd_errors(args) -> Output:
    spec, p = _make_spec(args), args.prime
    zp = padic.classify_prime(spec.poly, p).z_p
    fields = {"p": p.value, "z_p": zp, "err": None, "relerr": None}
    return functools.partial(recurrence.write_series, fmt=args.format,
                             header=("n", "err", "relerr"),
                             blocks=lambda: analysis.error_series(spec, p, args.n_max, zp),
                             json_fields=fields)


def _cmd_scan(args) -> Output:
    results = analysis.scan_primes(args.poly, args.count, workers=args.workers)
    if args.format == "json":  # what json.dumps of the whole list gives, one item at a time
        def write(out: TextIO) -> None:
            out.write("[")
            out.writelines((", " if i else "") + json.dumps(c.to_json(), sort_keys=True)
                           for i, (_, c) in enumerate(results))
            out.write("]\n")
        return write
    rows = (_classification_row(c) for _, c in results)
    if args.format == "csv":
        return _csv(_CLASSIFICATION_HEADER, rows)
    return lambda out: out.writelines(f"{r[0]} {r[1]} roots={r[2]} non_hensel={r[3]}\n" for r in rows)


def _cmd_reproduce(args) -> tuple[str, int]:
    claims = reproduce.run(args.selector, scan_count=args.scan_count, workers=args.workers)
    lines = [("PASS " if ok else "FAIL ") + name for name, ok in claims]
    ok_all = all(ok for _, ok in claims)
    lines.append(f"{sum(ok for _, ok in claims)}/{len(claims)} claims pass")
    return "\n".join(lines) + "\n", 0 if ok_all else 1


_DISPATCH = {
    "roots": _cmd_roots,
    "classify": _cmd_classify,
    "lift": _cmd_lift,
    "valuation": _cmd_valuation,
    "series": _cmd_series,
    "slope": _cmd_slope,
    "errors": _cmd_errors,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            output, code = _cmd_reproduce(args)
        else:
            output, code = _DISPATCH[args.command](args), 0
        _emit(output, args.out)
    except (PadicValError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
