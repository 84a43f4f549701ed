import hashlib
import io
import json
import os
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicval import analysis, cli, recurrence
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

    def test_precision_above_bound_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)  # Python's default
        limit = cli.max_lift_precision(5, 4300)
        assert limit == 6150  # 5^6151 has 4300 digits
        with pytest.raises(SystemExit) as e:
            main(["lift", "--poly", "x^2+1", "--prime", "5", "--root", "2",
                  "--precision", str(limit + 1)])
        assert e.value.code == 2
        assert "--precision: must be <= 6150" in capsys.readouterr().err

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
        monkeypatch.setattr(recurrence, "BLOCK", 7)
        spec, prime = recurrence.make_spec(parse_poly(poly)), Prime(p)
        for command, series in (("series", recurrence.valuation_series(spec, prime, n)),
                                ("errors", analysis.error_series(spec, prime, n))):
            argv = (command, "--poly", poly, "--prime", str(p), "--n-max", str(n), "--format")
            csv_text = series.to_csv()
            assert run(capsys, *argv, "csv")[1] == csv_text
            assert run(capsys, *argv, "table")[1] == "".join(
                line.replace(",", " ") + "\n" for line in csv_text.splitlines()[1:])
            assert run(capsys, *argv, "json")[1] == json.dumps(series.to_json(), sort_keys=True) + "\n"

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
_COMMON = [("--poly", _POLY_TEXT, True),
           ("--prime", st.sampled_from(["2", "3", "5", "7", "11", "29", "97", "1000003"]), True),
           ("--format", st.sampled_from(["csv", "json", "table"]), False)]
# Options of each subcommand: (flag, value strategy or None for a switch, required).
_GRAMMAR = {
    "roots": _COMMON,
    "classify": _COMMON,
    "lift": _COMMON + [("--root", _ints(-10, 100), True), ("--precision", _ints(-5, 50), False)],
    "valuation": _COMMON + [("--n", _ints(1, 10**4), True),
                            ("--engine", st.sampled_from(["auto", "fast", "direct"]), False),
                            ("--no-auto-shift", None, False)],
    "series": _COMMON + [("--n-max", _ints(1, 200), True), ("--no-auto-shift", None, False)],
    "slope": _COMMON + [("--exact", None, False), ("--n", _ints(1, 10**4), False)],
    "errors": _COMMON + [("--n-max", _ints(1, 200), True), ("--no-auto-shift", None, False)],
    "scan": [_COMMON[0], _COMMON[2], ("--count", _ints(1, 50), True)],
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
                                          "legendre"])))
    for flag, values, required in _GRAMMAR[command]:
        if required or draw(st.booleans()):  # "--poly=-x", as "--poly -x" reads as a flag
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    if len(argv) > 1 and draw(st.integers(0, 4)) == 2:  # 2, not 0: draws lean to the bounds
        k = draw(st.integers(1, len(argv) - 1))
        argv[k:k + 1] = draw(st.sampled_from([[], *([junk] for junk in _JUNK)]))
    if command == "reproduce":
        argv.append(f"--scan-count={draw(st.integers(1, 50))}")  # the default 5000 takes seconds
    if command in ("scan", "reproduce"):
        argv += ["--workers", "1"]  # never start processes
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
