"""In-memory span tracer for the traced benchmark run.

The package binds its functions with ``from .x import y``, so patching the
defining module alone would miss most calls.  ``Tracer.install`` replaces a
function at every ``padicval`` module that binds it, and a method on its
class.  Each call records one span (name, start, end, parent) in flat
arrays; ``summary`` derives call counts and self time from them, where a
span's self time is its duration minus the durations of its direct
children.  Spans are only recorded while installed, and the run writes
them out once it has ended.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Roots mod p split at this prime size, by input, whatever path the code takes.
SMALL_P_LIMIT = 2**12

# (module, attribute or Class.method, span name)
TRACED = (
    ("padicval.cli", "main", "cli.main"),
    ("padicval.parser", "parse_poly", "parser.parse_poly"),
    ("padicval.poly", "IntPolynomial.evaluate", "poly.evaluate"),
    ("padicval.poly", "IntPolynomial.evaluate_mod", "poly.evaluate_mod"),
    ("padicval.poly", "IntPolynomial.affine_substitute", "poly.affine_substitute"),
    ("padicval.poly", "integer_poly_gcd", "poly.integer_poly_gcd"),
    ("padicval.poly", "nonneg_integer_roots", "poly.nonneg_integer_roots"),
    ("padicval.padic", "is_prime", "padic.is_prime"),
    ("padicval.padic", "primes_first", "padic.primes_first"),
    ("padicval.padic", "roots_mod_p", "padic.roots_mod_p"),
    ("padicval.padic", "classify_prime", "padic.classify_prime"),
    ("padicval.padic", "hensel_lift", "padic.hensel_lift"),
    ("padicval.padic", "int_valuation", "padic.int_valuation"),
    ("padicval.recurrence", "valuation_tn_direct", "recurrence.valuation_tn_direct"),
    ("padicval.recurrence", "valuation_tn_fast", "recurrence.valuation_tn_fast"),
    ("padicval.recurrence", "count_congruent", "recurrence.count_congruent"),
    ("padicval.recurrence", "valuation_series", "recurrence.valuation_series"),
    ("padicval.analysis", "error_series", "analysis.error_series"),
    ("padicval.analysis", "scan_primes", "analysis.scan_primes"),
    ("padicval.analysis", "exact_slope", "analysis.exact_slope"),
    ("padicval.analysis", "slope_report", "analysis.slope_report"),
)
SPLIT_BY_PRIME = "padic.roots_mod_p"
COUNT_NONZERO = "padic.int_valuation"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span names, indexed by name id
        self.function_of: list[str] = []  # traced function of each name id
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter[str] = Counter()
        self.nonzero: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str, function: str) -> int:
        self.names.append(name)
        self.function_of.append(function)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        if name == SPLIT_BY_PRIME:
            small = self._intern(name + ".small_p", name)
            large = self._intern(name + ".large_p", name)

            def pick(args, kwargs):
                p = args[1] if len(args) > 1 else kwargs["p"]
                return small if p.value < SMALL_P_LIMIT else large
        else:
            nid = self._intern(name, name)

            def pick(args, kwargs):
                return nid

        count_nonzero = name == COUNT_NONZERO
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end, stack, errors, nonzero = self.end, self._stack, self.errors, self.nonzero

        def traced(*args, **kwargs):
            idx = len(end)
            name_append(pick(args, kwargs))
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count_nonzero and result:
                nonzero[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function at each padicval module binding it."""
        modules = [m for k, m in sys.modules.items() if k == "padicval" or k.startswith("padicval.")]
        for module_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """calls, self_s and errors per span, nonzero_ratio where counted."""
        n = len(self.end)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            j = parent[i]
            if j >= 0:
                child[j] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_id = self.name_id
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        for function in set(self.function_of):
            out[f"{function}.errors"] = self.errors[function]
            if function == COUNT_NONZERO:
                total = out[f"{function}.calls"]
                out[f"{function}.nonzero_ratio"] = self.nonzero[function] / total if total else 0.0
        return out

    def write(self, path_prefix: str) -> None:
        """Spans as four binary arrays plus a JSON index of names."""
        with open(path_prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.end),
                       "arrays": {"name_id": "H", "parent": "i", "start": "d", "end": "d"}}, fh)
        for field in ("name_id", "parent", "start", "end"):
            with open(f"{path_prefix}.{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
