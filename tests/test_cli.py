import json
from fractions import Fraction

import pytest

from padicval import cli
from padicval.cli import main


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


class TestSlope:
    def test_exact_example2(self, capsys):
        code, out, _ = run(capsys, "slope", "--poly", "x^5+2x^3+3", "--prime", "29",
                           "--exact")
        assert code == 0
        assert out == "E=57/812 N=57/29\n"

    def test_exact_p_divides_content(self, capsys):
        code, out, _ = run(capsys, "slope", "--poly", "5x^2+35x+30", "--prime", "5",
                           "--exact")
        assert (code, out) == (0, "E=3/2 N=6/1\n")

    def test_exact_csv_with_empirical(self, capsys):
        code, out, _ = run(capsys, "slope", "--poly", "x", "--prime", "2", "--exact",
                           "--n", "4", "--format", "csv")
        assert (code, out) == (0, "kind,E,N\nexact,1/1,1/1\nempirical_n=4,3/4,\n")

    def test_depth_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "slope", "--poly", "x^5+2x^3+3", "--prime", "3",
                           "--exact", "--depth-cap", "1")
        assert code == 1
        assert "depth cap" in err

    def test_env_depth_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICVAL_DEPTH_CAP", "1")
        code, _, _ = run(capsys, "slope", "--poly", "x^5+2x^3+3", "--prime", "3",
                         "--exact")
        assert code == 1


class TestErrors:
    def test_csv(self, capsys):
        _, out, _ = run(capsys, "errors", "--poly", "x", "--prime", "2",
                        "--n-max", "3", "--format", "csv")
        assert out == "n,err,relerr\n1,1,1\n2,1,0\n3,2,1\n"

    def test_table(self, capsys):
        _, out, _ = run(capsys, "errors", "--poly", "x", "--prime", "2", "--n-max", "3")
        assert out == "1 1 1\n2 1 0\n3 2 1\n"


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

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_parser_is_built_once_and_reused(self, capsys):
        with pytest.raises(SystemExit):
            main(["roots", "--poly", "x", "--prime", "6"])
        assert run(capsys, "roots", "--poly", "x^2+1", "--prime", "5")[:2] == (0, "2 3\n")
        assert cli._parser.cache_info().misses == 1
