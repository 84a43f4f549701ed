import hashlib
import io
import json
import math
import os
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicval import cli, padic, recurrence, reproduce
from padicval.cli import main
from padicval.padic import Prime
from padicval.parser import parse_poly
from padicval.poly import IntPolynomial, format_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoots:
    def test_example1(self, capsys):
        code, out, _ = run(capsys, "roots", "--poly", "x^5+2x^3+3", "--prime", "5")
        assert code == 0
        assert out == "3 4\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "roots", "--poly", "x^5+2x^3+3", "--prime", "5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"p": 5, "poly": "x^5+2*x^3+3", "roots": [3, 4]}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "roots", "--poly", "x^3+1", "--prime", "7",
                           "--format", "csv")
        assert out == "root\n3\n5\n6\n"


class TestClassify:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "x^5+2x^3+3", "--prime", "5")
        assert code == 0
        assert out == "hensel roots=3,4 non_hensel=\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "classify", "--poly", "x^8+x^5+x^3+1", "--prime", "13",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["verdict"] == "non_hensel"
        assert 12 in payload["non_hensel_roots"]


class TestLift:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "lift", "--poly", "x^2+1", "--prime", "5",
                           "--root", "2", "--precision", "2")
        assert code == 0
        assert out == "digits=2,1,2 value=57\n"

    def test_negative_precision_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["lift", "--poly", "x^2+1", "--prime", "5", "--root", "2", "--precision", "-3"])
        assert e.value.code == 2
        assert "--precision" in capsys.readouterr().err
        assert run(capsys, "lift", "--poly", "x^2+1", "--prime", "5", "--root", "2",
                   "--precision", "0")[:2] == (0, "digits=2 value=2\n")

    @pytest.mark.parametrize("digits", [1, 30, 4300])
    @pytest.mark.parametrize("p", [2, 5, 10, 97, 10007, 2**61 - 1])
    def test_precision_bound_arithmetic(self, p, digits):
        k = cli.max_lift_precision(p, digits)
        assert p ** (k + 1) < 10**digits <= p ** (k + 2)

    @pytest.mark.parametrize("skew", [1.01, 0.99])
    @pytest.mark.parametrize("digits", [1, 50, 4300])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
    def test_precision_bound_corrects_the_float_estimate(self, monkeypatch, p, digits, skew):
        # a log10 1% high puts the float estimate below k, 1% low puts it above k
        log10 = math.log10
        monkeypatch.setattr(math, "log10", lambda x: log10(x) * skew)
        k = cli.max_lift_precision(p, digits)
        assert p ** (k + 1) < 10**digits <= p ** (k + 2)

    def test_precision_above_bound_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)  # Python's default
        limit = cli.max_lift_precision(5, 4300)
        assert limit == 6150  # 5^6151 has 4300 digits
        with pytest.raises(SystemExit) as e:
            main(["lift", "--poly", "x^2+1", "--prime", "5", "--root", "2",
                  "--precision", str(limit + 1)])
        assert e.value.code == 2
        # the lift subparser reports it, as it does every other lift usage error
        assert "padicval lift: error: argument --precision: must be <= 6150" in capsys.readouterr().err

    def test_golden_csv(self, capsys):
        code, out, _ = run(capsys, "lift", "--poly", "x^2+1", "--prime", "5", "--root", "2",
                           "--precision", "300", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "b4eec62588027598770047a27c02c730ad5e4db811eb6525ac22dbcf63367172"

    def test_not_simple_is_domain_error(self, capsys):
        code, _, err = run(capsys, "lift", "--poly", "x^3+1", "--prime", "3",
                           "--root", "2", "--precision", "2")
        assert code == 1
        assert "error:" in err

    @settings(max_examples=150, deadline=None)
    @given(r=st.integers(-40, 40), cofactor=st.lists(st.integers(-9, 9), max_size=5),
           lead=st.sampled_from([-3, -1, 1, 2]), p=st.sampled_from([2, 3, 5, 7, 13, 10007]),
           k=st.integers(0, 80))
    @example(r=1, cofactor=[], lead=1, p=5, k=3)  # x - 1: the digits of 1 are 1, 0, 0, 0
    def test_every_format_against_digit_by_digit_lift(self, r, cofactor, lead, p, k):
        # Q = (x - r) * cofactor has the root a = r mod p; with no cofactor Q = x - r,
        # whose lift is r itself, so a small r >= 0 has zero top digits
        q = IntPolynomial([-r, 1]) * IntPolynomial(cofactor + [lead])
        a = r % p
        dq_a = sum(i * c * a ** (i - 1) for i, c in enumerate(q.coeffs) if i)
        assume(dq_a % p)

        def value_at(x):
            return sum(c * x**i for i, c in enumerate(q.coeffs))

        # reference: one digit per step, d = -(Q(gamma) / p^s) / Q'(a) mod p
        digits, gamma, ps = [a], a, p
        for _ in range(k):
            digits.append(-(value_at(gamma) // ps) * pow(dq_a, -1, p) % p)
            gamma += digits[-1] * ps
            ps *= p

        def lift(fmt):
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["lift", f"--poly={format_poly(q)}", "--prime", str(p), "--root", str(a),
                             "--precision", str(k), "--format", fmt])
            assert code == 0
            return out.getvalue()

        payload = json.loads(lift("json"))
        value = payload["value"]
        assert payload == {"p": p, "digits": digits, "value": value}
        assert value == sum(d * p**s for s, d in enumerate(digits))
        assert lift("csv") == "s,digit,truncation\n" + "".join(
            f"{s},{d},{value % p ** (s + 1)}\n" for s, d in enumerate(digits))
        assert lift("table") == f"digits={','.join(map(str, digits))} value={value}\n"


class TestValuation:
    def test_factorial(self, capsys):
        code, out, _ = run(capsys, "valuation", "--poly", "x", "--prime", "2", "--n", "10")
        assert code == 0
        assert out == "8\n"

    def test_engines_agree(self, capsys):
        a = run(capsys, "valuation", "--poly", "x^2+1", "--prime", "5", "--n", "500",
                "--engine", "fast")
        b = run(capsys, "valuation", "--poly", "x^2+1", "--prime", "5", "--n", "500",
                "--engine", "direct")
        assert a == b

    def test_fast_on_non_hensel_is_domain_error(self, capsys):
        code, _, err = run(capsys, "valuation", "--poly", "x^5+2x^3+3", "--prime", "3",
                           "--n", "10", "--engine", "fast")
        assert code == 1
        # auto, not direct, is the exact engine to suggest: it is polylog in n, direct O(n)
        assert err == ("error: 3 is not a Hensel prime for x^5+2*x^3+3; "
                       "--engine auto is exact at every prime\n")

    def test_p_divides_content(self, capsys):
        code, out, _ = run(capsys, "valuation", "--poly", "3x^2+3", "--prime", "3",
                           "--n", "1000")
        assert (code, out) == (0, "1000\n")

    def test_fast_when_p_divides_content_is_domain_error(self, capsys):
        code, _, err = run(capsys, "valuation", "--engine", "fast", "--poly", "3x^2+3",
                           "--prime", "3", "--n", "10")
        assert code == 1
        assert "3 is not a Hensel prime" in err

    def test_huge_integer_root(self, capsys):
        # the start index shifts to 10^30, so the multipliers are 1..10 and v_2(10!) = 8
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "valuation", "--poly", "x-" + str(10**30), "--prime", "2",
                           "--n", "10")
        assert (code, out) == (0, "8\n")
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("p, slope", [(3, Fraction(4, 3)), (11, Fraction(3, 10)),
                                          (29, Fraction(57, 812))])
    def test_non_hensel_at_huge_n(self, capsys, p, slope):
        n = 10**100
        code, out, _ = run(capsys, "valuation", "--poly", "x^5+2x^3+3", "--prime", str(p),
                           "--n", str(n))
        assert code == 0
        assert abs(Fraction(int(out), n) - slope) < Fraction(1, 10**95)

    def test_engine_is_looked_up_per_call(self, capsys, monkeypatch):
        # a patched engine (a test's fake, a tracer's wrapper) is the one --engine runs
        calls = []

        def fake(spec, p, n):
            calls.append((spec.poly, p, n))
            return 7

        monkeypatch.setattr(recurrence, "valuation_tn_direct", fake)
        code, out, _ = run(capsys, "valuation", "--poly", "x", "--prime", "2", "--n", "10",
                           "--engine", "direct")
        assert (code, out) == (0, "7\n")
        assert calls == [(parse_poly("x"), Prime(2), 10)]

    def test_integer_root_without_shift(self, capsys):
        code, _, _ = run(capsys, "valuation", "--poly", "x-3", "--prime", "2",
                         "--n", "5", "--no-auto-shift")
        assert code == 1


class TestSeries:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "series", "--poly", "x^2+1", "--prime", "5",
                           "--n-max", "5", "--format", "csv")
        assert out == "n,valuation\n1,0\n2,1\n3,2\n4,2\n5,2\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = run(capsys, "series", "--poly", "x", "--prime", "2",
                           "--n-max", "4", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "n,valuation\n1,0\n2,1\n3,1\n4,3\n"

    def test_unwritable_out_is_domain_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "series.csv"
        code, out, err = run(capsys, "series", "--poly", "x", "--prime", "2",
                             "--n-max", "4", "--format", "csv", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_table_streamed(self, capsys):
        _, out, _ = run(capsys, "series", "--poly", "x^2+1", "--prime", "5", "--n-max", "3")
        assert out == "1 0\n2 1\n3 2\n"


class TestStreamedSeries:
    """series and errors stream their rows block by block."""

    @pytest.mark.parametrize("poly, p, command, digest", [
        ("x^5+2x^3+3", 3, "series", "39478f6cdf514ce0fe70348a4556bbb63f00472f0ba3e5747331fddec66fc2ae"),
        ("x^5+2x^3+3", 3, "errors", "9dfbe7472933cec7a52c15980b69cd8516e0319056c369aaf39dcdb87dde5f78"),
        ("x^5+2x^3+3", 5, "series", "e56b4b2b5969e5752fcb847fd35995f632f7242ae960066342a8d0ac6cf9870f"),
        ("x^5+2x^3+3", 5, "errors", "ce82571f107e7c5c5f131e474b270d109d6b75e33e00c3348e181081a7fd3b70"),
        ("x", 2, "series", "b6f83d46c4b3dcc16f20573c8b7e0541938dd882a6dcf909eea38403c0047a80"),
        ("x", 2, "errors", "5df84fa14743153935a9ea4d90448a7b06efcb4721600c22ee43e2f07039dc87"),
        ("3x^2+3", 3, "series", "d094e2d42cabd3f8160773e03704abed1b5f585b00dd9bb28b5189719587055b"),
        ("3x^2+3", 3, "errors", "c4abd9451dd84319587a365b55262a16ad5e5db9e1c8d4843c8fea350630c705"),
    ])
    def test_golden(self, capsys, poly, p, command, digest):
        # csv, table and json one after another, as the whole-window code wrote them;
        # n = 3 * 2^14 + 5 crosses three block boundaries at BLOCK = 2^14
        h = hashlib.sha256()
        for fmt in ("csv", "table", "json"):
            code, out, _ = run(capsys, command, "--poly", poly, "--prime", str(p),
                               "--n-max", "49157", "--format", fmt)
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 22])
    @pytest.mark.parametrize("poly, p", [("x^5+2x^3+3", 3), ("3x^2+3", 3), ("x^2-5x+6", 2)])
    def test_equals_the_library_series(self, capsys, monkeypatch, poly, p, n):
        # the oracle is valuation_tn at each k <= n, one walk per k, outside the blocks
        monkeypatch.setattr(recurrence, "BLOCK", 7)
        spec, prime = recurrence.make_spec(parse_poly(poly)), Prime(p)
        values = [recurrence.valuation_tn(spec, prime, k) for k in range(1, n + 1)]
        zp = padic.classify_prime(spec.poly, prime).z_p
        err = [zp * k - (p - 1) * v for k, v in enumerate(values, 1)]
        relerr = [e - d for e, d in zip(err, [0] + err)]
        for command, header, cols, fields in (
                ("series", "n,valuation", [values],
                 {"p": p, "poly": format_poly(spec.poly), "n0": spec.start_index, "values": values}),
                ("errors", "n,err,relerr", [err, relerr],
                 {"p": p, "z_p": zp, "err": err, "relerr": relerr})):
            argv = (command, "--poly", poly, "--prime", str(p), "--n-max", str(n), "--format")
            rows = [[k, *row] for k, row in enumerate(zip(*cols), 1)]
            assert run(capsys, *argv, "csv")[1] == "".join(
                ",".join(map(str, r)) + "\n" for r in [header.split(","), *rows])
            assert run(capsys, *argv, "table")[1] == "".join(" ".join(map(str, r)) + "\n" for r in rows)
            assert run(capsys, *argv, "json")[1] == json.dumps(fields, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["series", "errors"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_n(self, command, fmt):
        def peak(n):
            tracemalloc.start()
            try:
                assert main([command, "--poly", "x^5+2x^3+3", "--prime", "3", "--n-max", str(n),
                             "--format", fmt, "--out", os.devnull]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * 10**5) <= 1.25 * peak(10**5)


class TestSlope:
    def test_exact_example2(self, capsys):
        slope = ("slope", "--poly", "x^5+2x^3+3", "--prime", "29")
        code, out, _ = run(capsys, *slope, "--exact")
        assert code == 0
        assert out == "E=57/812 N=57/29\n"
        assert run(capsys, *slope) == (code, out, "")  # --exact changes nothing

    def test_exact_p_divides_content(self, capsys):
        code, out, _ = run(capsys, "slope", "--poly", "5x^2+35x+30", "--prime", "5",
                           "--exact")
        assert (code, out) == (0, "E=3/2 N=6/1\n")

    def test_exact_csv_with_empirical(self, capsys):
        code, out, _ = run(capsys, "slope", "--poly", "x", "--prime", "2", "--exact",
                           "--n", "4", "--format", "csv")
        assert (code, out) == (0, "kind,E,N\nexact,1/1,1/1\nempirical_n=4,3/4,\n")

    def test_exact_deep_squarefree(self, capsys):
        code, out, _ = run(capsys, "slope", "--poly", "x^2-" + str(3**200), "--prime", "3",
                           "--exact")
        assert (code, out) == (0, "E=1/1 N=2/1\n")

    def test_depth_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["slope", "--poly", "x^5+2x^3+3", "--prime", "3", "--exact",
                  "--depth-cap", "1"])
        assert e.value.code == 2

    def test_depth_cap_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICVAL_DEPTH_CAP", "1")
        code, out, _ = run(capsys, "slope", "--poly", "x^5+2x^3+3", "--prime", "3",
                           "--exact")
        assert (code, out) == (0, "E=4/3 N=8/3\n")


class TestErrors:
    def test_csv(self, capsys):
        _, out, _ = run(capsys, "errors", "--poly", "x", "--prime", "2",
                        "--n-max", "3", "--format", "csv")
        assert out == "n,err,relerr\n1,1,1\n2,1,0\n3,2,1\n"

    def test_table(self, capsys):
        _, out, _ = run(capsys, "errors", "--poly", "x", "--prime", "2", "--n-max", "3")
        assert out == "1 1 1\n2 1 0\n3 2 1\n"

    def test_p_divides_content(self, capsys):
        # 3(x^2+1) at p=3: every residue is a root (z_p = 3) and each term has valuation 1
        code, out, _ = run(capsys, "errors", "--poly", "3x^2+3", "--prime", "3",
                           "--n-max", "4", "--format", "csv")
        assert (code, out) == (0, "n,err,relerr\n1,1,1\n2,2,1\n3,3,1\n4,4,1\n")


class TestScan:
    def test_csv_header(self, capsys):
        _, out, _ = run(capsys, "scan", "--poly", "x^2+1", "--count", "4",
                        "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "p,verdict,roots,non_hensel_roots"
        assert lines[1] == "2,non_hensel,1,1"
        assert lines[2] == "3,no_roots,,"
        assert lines[3] == "5,hensel,2;3,"

    def test_all_residues(self, capsys):
        _, out, _ = run(capsys, "scan", "--poly", "3x+6", "--count", "3",
                        "--format", "csv")
        assert "3,all_residues,," in out
        classify = ("classify", "--poly", "3x+6", "--prime", "3", "--format")
        assert run(capsys, *classify, "table") == (0, "all_residues roots= non_hensel=\n", "")
        code, out, _ = run(capsys, *classify, "json")
        assert (code, json.loads(out)) == (0, {"p": 3, "verdict": "all_residues"})
        _, out, _ = run(capsys, *classify, "csv")
        assert out == "p,verdict,roots,non_hensel_roots\n3,all_residues,,\n"

    @pytest.mark.parametrize("poly, digest", [
        ("x^5+2x^3+3", "1ff8f8a491af202dc892bb2ec4101b22cb31e7661dede009b26821a68761d26f"),
        ("x^8+x^5+x^3+1", "2a21d02b4c21ad59c1f9c06cd94b54085ca02a56c3ef409998f1951b2a252064"),
        ("x^12+2x^11+14x^10-6x^8+2x^7+4x^6-8x^5+10x^4+2x^2-4x+6",
         "045e0adf70b612bf37641673485d6185c30089374c32ce1c1c7720472768179f"),
    ])
    def test_golden_csv(self, capsys, poly, digest):
        # the first two digests are the output when the first 1000 primes all took the
        # exhaustive scan (threshold 4096); the degree-12 one was taken with random splits
        code, out, _ = run(capsys, "scan", "--poly", poly, "--count", "1000", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("poly, digest", [
        ("x^5+2x^3+3", "0e8a31191b7adc02828016d2cef5879cb6dc5297851ff82e746777239562b6c1"),
        ("x^8+x^5+x^3+1", "0bc396dc96935e7a4b0267112f1f7c30547513861b33cb614371178e4bff9986"),
        ("x^12+2x^11+14x^10-6x^8+2x^7+4x^6-8x^5+10x^4+2x^2-4x+6",
         "fa63894d60e846acea2f09442e13b22b9f7bf756fa0c18d5495eb1c76666a557"),
    ])
    def test_golden_csv_to_48611(self, capsys, poly, digest):
        # the benchmark's whole prime range; taken with the struct-codec powmod kernel
        code, out, _ = run(capsys, "scan", "--poly", poly, "--count", "5000", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("poly, fmt, digest", [
        ("x^5+2x^3+3", "json", "63a7ca1011b78e18b3502d66e19e6df25d889596d061be2f9a91b1226dfc7eaf"),
        ("x^5+2x^3+3", "table", "78ded68ac92c23b3fcfe5399323d160b96ce8347c99f1cf90d5281fda852c475"),
        ("x^8+x^5+x^3+1", "json", "21c0d0eda88724d96a6ed7df6ab5e0242900b22cc421563da8f31a72c51f34f2"),
        ("x^8+x^5+x^3+1", "table", "84b0f5b4e9435b390aba6bdb83aa97a04137bdae978c2400031f8d47544c3fe6"),
        ("x^12+2x^11+14x^10-6x^8+2x^7+4x^6-8x^5+10x^4+2x^2-4x+6", "json",
         "f61bcaf552b582ff3bb9b428244bbef3fb4a3d887d04a7512266e9d96d220726"),
        ("x^12+2x^11+14x^10-6x^8+2x^7+4x^6-8x^5+10x^4+2x^2-4x+6", "table",
         "ec1eafcbdb18a6fbd475f2af61615520180d5badae9c97c7cab71d4dbe9a8db9"),
    ])
    def test_golden_json_and_table(self, capsys, poly, fmt, digest):
        # taken from the output written whole, as json.dumps of the list and one joined table
        code, out, _ = run(capsys, "scan", "--poly", poly, "--count", "1000", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_memory_is_bounded(self, fmt):
        # rows are written as they are classified: no list of 5000 classifications,
        # rows or output text (4 to 7 MiB when written whole)
        main(["scan", "--poly", "x", "--count", "2", "--out", os.devnull])  # warm the caches
        tracemalloc.start()
        try:
            assert main(["scan", "--poly", "x^8+x^5+x^3+1", "--count", "5000", "--format", fmt,
                         "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("argv", [
        ("scan", "--poly", "x", "--count", str(10**20)),
        ("reproduce", "example2", "--scan-count", str(10**20)),
        # past a float's range: the sieve's bound is an integer, never a float
        ("scan", "--poly", "x", "--count", str(10**306)),
        ("reproduce", "example2", "--scan-count", str(10**306)),
        ("scan", "--poly", "x", "--count", str(10**4000)),
        ("reproduce", "example2", "--scan-count", str(10**4000)),
        # the sieve's size has more than 4300 digits, so the error states it as a power of 2
        ("scan", "--poly", "x", "--count", str(10**4299)),
        ("reproduce", "example2", "--scan-count", str(10**4299)),
    ])
    def test_huge_count_is_domain_error(self, capsys, argv):
        # the sieve's size does not fit in an index, so nothing is allocated
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(10**20) in err and "Traceback" not in err
        assert f"the first {argv[-1]} primes" in err

    def test_deterministic(self, capsys):
        a = run(capsys, "scan", "--poly", "x^5+2x^3+3", "--count", "50", "--format", "json")
        b = run(capsys, "scan", "--poly", "x^5+2x^3+3", "--count", "50", "--format", "json")
        assert a == b


class TestReproduce:
    def test_example1(self, capsys):
        code, out, _ = run(capsys, "reproduce", "example1")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines()[:-1])

    def test_example3(self, capsys):
        code, out, _ = run(capsys, "reproduce", "example3")
        assert code == 0
        assert "FAIL" not in out

    def test_every_selector_passes_and_the_claim_count_is_pinned(self, capsys):
        # a claim lost in a rewrite of reproduce changes the count
        counts = {}
        for selector in sorted(reproduce.SELECTORS) + ["all"]:
            code, out, _ = run(capsys, "reproduce", selector, "--scan-count", "50")
            assert code == 0 and "FAIL" not in out, selector
            counts[selector] = len(out.splitlines()) - 1
        assert counts == {"example1": 4, "example2": 9, "example3": 10, "example4": 18,
                          "legendre": 10, "xp_pm1": 10, "all": 61}

    def test_a_failing_claim_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(reproduce.SELECTORS, "example1",
                            lambda: [("a claim that holds", True), ("a claim that fails", False)])
        code, out, _ = run(capsys, "reproduce", "example1")
        assert code == 1
        assert out == "PASS a claim that holds\nFAIL a claim that fails\n1/2 claims pass\n"
        code, out, _ = run(capsys, "reproduce", "all", "--scan-count", "50")
        assert code == 1
        assert out.startswith("PASS a claim that holds\nFAIL a claim that fails\n")

    @pytest.mark.parametrize("count, primes", [("5", "{3, 11}"), ("9", "{3, 11}")])
    def test_short_scan_claims_the_primes_it_reaches(self, capsys, count, primes):
        # the first 9 primes end at 23, before 29
        code, out, _ = run(capsys, "reproduce", "example2", "--scan-count", count)
        assert code == 0
        assert f"PASS non-Hensel primes among the first {count} are exactly {primes}\n" in out
        assert out.endswith("9/9 claims pass\n")


class TestGolden:
    """Every single-answer subcommand in every format, byte for byte."""

    @pytest.mark.parametrize("argv, digests", [
        ("roots --poly x^8+x^5+x^3+1 --prime 1009",
         ("f575702d2e78d6473a8daa165460dce109a5ed9cca373960d798070f758230ae",
          "c58d54bf98221b6569eae5635cbd2d10e66b596a8e9912dc010dc538600bdc33",
          "2311571efe2ba5c07a72917ace39d0df6011e4351ecc8067b829dda2bca3095b")),
        ("classify --poly x^8+x^5+x^3+1 --prime 13",
         ("bf685ebab4fd876d715d584ca96e4a7e48b6acc6ab05f7dd6297f31430f89f17",
          "1f1008ae56e41eb3f3acd381e87fd09fc680ad8775419a887ee1a904916f4802",
          "314118b1473b989520473992feef87339045582dff77303a06774f42e079f2b0")),
        ("classify --poly 3x+6 --prime 3",
         ("8fed0e740ac29764e851d50cb3cefefcf011d1998bdc51cc5b55471a9a6e84e4",
          "7bf364d364fed9607458aed68348f8c865b778f9a82e318df591fe9b15185d98",
          "22ca5cb2200fb5418ea48fefc4d4d1d7dec157fe9d78b40b30a0d600e9875195")),
        ("valuation --poly x^5+2x^3+3 --prime 3 --n 100000",
         ("148934a196b6d8a6ab9151328f18e553146296d3af6409f8f533bbb22027fa1a",
          "31db5ea38ad347f90da81fa91b51902d268dda52954ab38a629ede665d67f6d8",
          "d129cea39c1010ca6a39a2d27055ba48c2f419d0b07910e57bb5669f91d851ab")),
        ("slope --poly x^5+2x^3+3 --prime 29 --n 100",
         ("9156350794ebb9262a9378d47af4570a7cd165eceb2bfeecc9afcad872c47872",
          "d057f02de4a9529fe568a309cce4f522e135dbeb9e3f3d2c9b8da272fc406a83",
          "fb9eb8672077292778f37be34b457a3d27aca5114e494005f6dc9a8d9f280b54")),
        ("lift --poly x^2+1 --prime 5 --root 2 --precision 300",
         ("b4eec62588027598770047a27c02c730ad5e4db811eb6525ac22dbcf63367172",
          "16b4ba7bec6c73b0cea619ff8e3f91c8095a0bbd8694c65298a8a5a2bcb656e4",
          "35ce8f6396b7ca2dabda39470f164ac0e158e5b7495b6ce0015750d3203ba60a")),
    ])
    def test_every_format(self, capsys, argv, digests):
        # taken from the output of each command's own csv, json and table code
        for fmt, digest in zip(("csv", "json", "table"), digests):
            code, out, _ = run(capsys, *argv.split(), "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_json_is_json_dumps(self, capsys):
        for argv in ("roots --poly x^3+1 --prime 7", "classify --poly x^8+x^5+x^3+1 --prime 13",
                     "slope --poly x^5+2x^3+3 --prime 3 --n 10", "errors --poly x --prime 2 --n-max 5",
                     "scan --poly x^2+1 --count 300"):
            _, out, _ = run(capsys, *argv.split(), "--format", "json")
            assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


class TestIntToStrLimit:
    """An answer past Python's int-to-str limit is a domain error, not a traceback."""

    # v_2 of t_N = (N!)^2 is 2 (N - s_2(N)), which has 641 digits and is prime to N,
    # so the slope v/N has a 641-digit numerator too
    N = "9" * 639 + "7"

    @pytest.fixture(autouse=True)
    def limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least Python allows
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("command, fmt", [("valuation", "table"), ("valuation", "json"),
                                              ("slope", "table"), ("slope", "json")])
    def test_exits_1_naming_the_limit(self, capsys, command, fmt):
        code, out, err = run(capsys, command, "--poly", "x^2", "--prime", "2", "--n", self.N,
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "640 digits" in err and "PYTHONINTMAXSTRDIGITS" in err

    def test_no_limit_prints_every_digit(self, capsys):
        sys.set_int_max_str_digits(0)
        n = int(self.N)
        code, out, _ = run(capsys, "valuation", "--poly", "x^2", "--prime", "2", "--n", self.N)
        assert (code, out) == (0, f"{2 * (n - bin(n).count('1'))}\n")
        assert len(out) == 642


class TestUsageErrors:
    def test_bad_poly_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["roots", "--poly", "(bad", "--prime", "5"])
        assert e.value.code == 2

    def test_composite_prime_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["roots", "--poly", "x", "--prime", "6"])
        assert e.value.code == 2
        # psi_12 = 399165290221 * 798330580441 and psi_13 = 1287836182261 * 2575672364521
        # pass Miller-Rabin to the bases 2..37 and 2..41
        for n in ("318665857834031151167461", "3317044064679887385961981"):
            with pytest.raises(SystemExit) as e:
                main(["classify", "--poly", "x", "--prime", n])
            assert e.value.code == 2
            assert "is not prime" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["scan", "--poly", "x", "--count", "3", "--workers", "2"],
                                      ["reproduce", "example1", "--workers", "1"]])
    def test_workers_option_is_gone(self, capsys, argv):
        # scan and reproduce run in one process
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["valuation", "--poly", "x", "--prime", "2", "--n", "0"],
        ["series", "--poly", "x", "--prime", "2", "--n-max", "0"],
        ["errors", "--poly", "x", "--prime", "2", "--n-max", "-1"],
        ["scan", "--poly", "x", "--count", "0"],
        ["reproduce", "example1", "--scan-count", "0"],
    ])
    def test_count_below_one_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert f"argument {argv[-2]}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["roots", "--poly", "x", "--prime", "abc"],
        ["lift", "--poly", "x^2+1", "--prime", "5", "--root", "abc"],
        ["lift", "--poly", "x^2+1", "--prime", "5", "--root", "2", "--precision", "abc"],
        ["valuation", "--poly", "x", "--prime", "2", "--n", "abc"],
        ["series", "--poly", "x", "--prime", "2", "--n-max", "abc"],
        ["scan", "--poly", "x", "--count", "abc"],
        ["reproduce", "example1", "--scan-count", "abc"],
        ["valuation", "--poly", "x", "--prime", "2", "--n", "1" * 5000],
    ])
    def test_non_integer_exits_2(self, capsys, argv):
        # every integer option reads its value one way; one past Python's
        # digit limit is named, not echoed
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # Python's default
        try:
            with pytest.raises(SystemExit) as e:
                main(argv)
        finally:
            sys.set_int_max_str_digits(old)
        assert e.value.code == 2
        err = capsys.readouterr().err
        message = "invalid int value: 'abc'" if argv[-1] == "abc" else "integer has too many digits"
        assert f"argument {argv[-2]}: {message}" in err and "1" * 100 not in err

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_parser_is_built_once_and_reused(self, capsys):
        with pytest.raises(SystemExit):
            main(["roots", "--poly", "x", "--prime", "6"])
        assert run(capsys, "roots", "--poly", "x^2+1", "--prime", "5")[:2] == (0, "2 3\n")
        assert cli._parser.cache_info().misses == 1


# -- fuzz: argv drawn from the subcommand grammar -------------------------

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_POLY_TEXT = st.one_of(
    st.lists(st.integers(-20, 20), min_size=1, max_size=9)
    .map(lambda c: format_poly(IntPolynomial(c))),
    st.sampled_from(["0", "7", "3x^2+3", "x^5+2x^3+3", "x^2 + 1", "-x", "5x^2+35x+30"]),
)
# A count from 10^18 on asks for a sieve past sys.maxsize bytes, which bytearray refuses
# before allocating; from 10^6 to 10^17 the sieve would really be allocated, gigabytes of it.
_HUGE_COUNT = st.integers(18, 4000).map(lambda e: str(10**e))
_COMMON = [("--poly", _POLY_TEXT, True),
           ("--prime", st.sampled_from(["2", "3", "5", "7", "11", "29", "97", "1000003"]), True),
           ("--format", st.sampled_from(["csv", "json", "table"]), False)]
# Options of each subcommand: (flag, value strategy or None for a switch, required).
_GRAMMAR = {
    "roots": _COMMON,
    "classify": _COMMON,
    "lift": _COMMON + [("--root", _ints(-10, 100), True), ("--precision", _ints(-5, 50), False)],
    "valuation": _COMMON + [("--n", _ints(-2, 10**4), True),
                            ("--engine", st.sampled_from(["auto", "fast", "direct"]), False),
                            ("--no-auto-shift", None, False)],
    "series": _COMMON + [("--n-max", _ints(-2, 200), True), ("--no-auto-shift", None, False)],
    "slope": _COMMON + [("--exact", None, False), ("--n", _ints(-2, 10**4), False)],
    "errors": _COMMON + [("--n-max", _ints(-2, 200), True), ("--no-auto-shift", None, False)],
    "scan": [_COMMON[0], _COMMON[2], ("--count", st.one_of(_ints(-2, 50), _HUGE_COUNT), True)],
    "reproduce": [],
}
_JUNK = ["(bad", "", "x^", "x^1.5", "2x^-1", "-5", "0", "6", "abc", "xml", "--bogus"]


@st.composite
def cli_draws(draw):
    """argv of a well-formed command, in about one draw in five with one
    token replaced by junk or dropped."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    if command == "reproduce":
        argv.append(draw(st.sampled_from(["all", "example1", "example2", "example3", "example4",
                                          "legendre", "xp_pm1"])))
    for flag, values, required in _GRAMMAR[command]:
        if required or draw(st.booleans()):  # "--poly=-x", as "--poly -x" reads as a flag
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    if len(argv) > 1 and draw(st.integers(0, 4)) == 2:  # 2, not 0: draws lean to the bounds
        k = draw(st.integers(1, len(argv) - 1))
        argv[k:k + 1] = draw(st.sampled_from([[], *([junk] for junk in _JUNK)]))
    if command == "reproduce":
        # the default 5000 takes seconds
        argv.append(f"--scan-count={draw(st.one_of(_ints(1, 50), _HUGE_COUNT))}")
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cli_draws())
    def test_every_draw_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
