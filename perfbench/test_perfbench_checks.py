"""The benchmark's references against brute force, and its checks against wrong answers.

Run with ``python -m pytest perfbench``.  Nothing here needs padicval.
"""

import json
import random
import re
import signal
from fractions import Fraction
from time import perf_counter

import pytest

import checks
import reference as ref
import run
from spans import Tracer
from workloads import Queries


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _random_linear_product(rng, p):
    c = rng.choice([1, 2, 3, -1, p, 2 * p])
    factors = []
    for _ in range(rng.randint(1, 3)):
        a = rng.choice([1, 2, 3, p, 2 * p, p * p])
        factors.append((a, rng.randint(-12, 12)))
    return c, factors


# -- references ------------------------------------------------------------


def test_primes_match_trial_division():
    assert [n for n in range(2000) if ref.is_prime(n)] == [
        n for n in range(2000) if _trial_division_is_prime(n)]
    primes = ref.first_primes(5000)
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes[-1] == 48611 and len(primes) == 5000
    assert sum(1 for p in primes if p < 4096) == 564


def test_legendre_matches_factorial():
    for p in (2, 3, 5, 7):
        fact = 1
        for n in range(1, 300):
            fact *= n
            assert ref.legendre(n, p) == ref.vp(fact, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_linear_product_valuation_matches_window_sum(p):
    rng = random.Random(p)
    for _ in range(150):
        c, factors = _random_linear_product(rng, p)
        start = ref.linear_start_index(factors)
        coeffs = ref.expand(c, factors)
        assert start == ref.start_index(coeffs)
        n = rng.randint(1, 400)
        assert ref.linear_product_valuation(c, factors, p, n, start) == \
            ref.window_valuation(coeffs, p, n, start), (c, factors, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_product_slope_is_the_limit(p):
    rng = random.Random(10 + p)
    n = 10**6
    for _ in range(40):
        c, factors = _random_linear_product(rng, p)
        start = ref.linear_start_index(factors)
        v = ref.linear_product_valuation(c, factors, p, n, start)
        # each factor's count misses at most log_p(|a x + b|) + 1 per level
        assert abs(Fraction(v, n) - ref.linear_product_slope(c, factors, p)) <= Fraction(
            len(factors) * 30, n)


def test_linear_product_roots_match_brute_force():
    rng = random.Random(3)
    for p in (3, 5, 7, 11):
        for _ in range(50):
            factors = [(rng.choice([a for a in range(1, 12) if a % p]), rng.randint(-20, 20))
                       for _ in range(rng.randint(1, 4))]
            coeffs = ref.expand(1, factors)
            roots, non_simple = ref.linear_product_roots(factors, p)
            assert roots == ref.roots_mod(coeffs, p)
            dq = ref.derivative(coeffs)
            assert non_simple == [r for r in roots if ref.evaluate_mod(dq, r, p) == 0]


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_x_m_pm1_closed_forms(q):
    for m in range(2, 13):
        for sign in (1, -1):
            coeffs = [sign] + [0] * (m - 1) + [1]
            if m % q:  # simple roots: the slope is z/(q-1), z counted by hand
                z = len(ref.roots_mod(coeffs, q))
                assert ref.slope_x_m_pm1(m, sign, q) == Fraction(z, q - 1)
            elif m == q:  # the average of v_q over q^5 residues approaches the slope
                k = 5
                avg = Fraction(sum(min(ref.vp(ref.evaluate(coeffs, i), q), k)
                                   for i in range(2, q**k + 2)), q**k)
                assert 0 <= ref.slope_x_m_pm1(m, sign, q) - avg < Fraction(1, q ** (k - 1))
            else:
                with pytest.raises(ValueError):
                    ref.slope_x_m_pm1(m, sign, q)


def test_discriminant():
    assert ref.lc_times_discriminant(ref.Q1) == 284229 == 3**4 * 11**2 * 29
    assert ref.lc_times_discriminant(ref.Q3) == 0  # (x+1)^2 divides Q3
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = rng.choice([1, 2, -3]), rng.randint(-9, 9), rng.randint(-9, 9)
        assert ref.lc_times_discriminant([c, b, a]) == -a * (b * b - 4 * a * c)
    assert ref.bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert ref.bareiss_determinant([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0


def test_paper_non_hensel_primes_by_brute_force():
    dq = ref.derivative(ref.Q1)
    found = {p for p in ref.first_primes(200)
             if any(ref.evaluate_mod(dq, r, p) == 0 for r in ref.roots_mod(ref.Q1, p))}
    assert found == ref.Q1_NON_HENSEL


# -- checks reject wrong answers -------------------------------------------


def _scan_csv(coeffs, primes):
    dq = ref.derivative(coeffs)
    rows = [checks.SCAN_HEADER]
    for p in primes:
        roots = ref.roots_mod(coeffs, p)
        nh = [r for r in roots if ref.evaluate_mod(dq, r, p) == 0]
        verdict = "no_roots" if not roots else ("non_hensel" if nh else "hensel")
        rows.append(f"{p},{verdict},{';'.join(map(str, roots))},{';'.join(map(str, nh))}")
    return "\n".join(rows) + "\n"


def _scan_check(text, primes):
    return checks.check_scan(text, ref.Q1, primes, ref.lc_times_discriminant(ref.Q1),
                             brute_primes=set(primes[:12]), non_hensel_set=ref.Q1_NON_HENSEL)


def test_scan_check_rejects_dropped_root_and_wrong_verdict():
    primes = ref.first_primes(30)
    good = _scan_csv(ref.Q1, primes)
    assert _scan_check(good, primes) is None
    # p = 5: roots 3;4 -> drop one
    assert "brute force" in _scan_check(good.replace("\n5,hensel,3;4,", "\n5,hensel,4,"), primes)
    # p = 29 is non-Hensel at root 14: claim it Hensel
    line = next(x for x in good.splitlines() if x.startswith("29,"))
    assert _scan_check(good.replace(line, line.split(",")[0] + ",hensel,"
                                    + line.split(",")[2] + ","), primes) is not None
    assert _scan_check(good.replace("\n7,", "\n8,"), primes) is not None
    assert _scan_check("\n".join(good.splitlines()[:-1]) + "\n", primes) is not None


def test_valuation_check_rejects_off_by_one():
    c, factors, p, n = 2, [(1, 1), (3, 4)], 5, 10**50
    v = ref.linear_product_valuation(c, factors, p, n)
    answer = {"n": n, "p": p, "poly": "", "valuation": v}
    assert checks.check_valuation(json.dumps(answer), p, n, v) is None
    answer["valuation"] += 1
    assert checks.check_valuation(json.dumps(answer), p, n, v) is not None


def test_slope_check_rejects_wrong_slope():
    p = 29
    expected = ref.Q1_ZERO_NUMBERS[p] / (p - 1)
    dq = ref.derivative(ref.Q1)
    roots = ref.roots_mod(ref.Q1, p)
    cls = {"p": p, "verdict": "non_hensel", "roots": roots,
           "non_hensel_roots": [r for r in roots if ref.evaluate_mod(dq, r, p) == 0]}
    answer = {"slope": "57/812", "N_p": "57/29", "classification": cls, "empirical": []}
    assert checks.check_slope(json.dumps(answer), ref.Q1, p, expected) is None
    answer["slope"], answer["N_p"] = "1/14", "2/1"
    assert checks.check_slope(json.dumps(answer), ref.Q1, p, expected) is not None


def test_slope_check_when_p_divides_the_content():
    c, factors, p = 5, [(1, 1), (1, 6)], 5  # 5x^2+35x+30 = 5(x+1)(x+6)
    q, expected = ref.expand(c, factors), ref.linear_product_slope(c, factors, p)
    assert expected == Fraction(3, 2)
    cls = {"p": p, "verdict": "all_residues", "roots": [], "non_hensel_roots": []}
    answer = {"slope": "3/2", "N_p": "6/1", "classification": cls, "empirical": []}
    assert checks.check_slope(json.dumps(answer), q, p, expected) is None
    answer["slope"], answer["N_p"] = "1/2", "2/1"
    assert checks.check_slope(json.dumps(answer), q, p, expected) is not None


def test_classify_and_lift_checks():
    factors, p = [(1, 1), (2, -7), (1, 1 + 1000003)], 1000003
    roots, nh = ref.linear_product_roots(factors, p)
    coeffs = ref.expand(1, factors)
    answer = {"p": p, "verdict": "non_hensel", "roots": roots, "non_hensel_roots": nh}
    kwargs = dict(coeffs=coeffs, p=p, lc_disc=ref.lc_times_discriminant(coeffs),
                  roots=roots, non_hensel=nh)
    assert checks.check_classify(json.dumps(answer), **kwargs) is None
    answer["roots"] = roots[1:]
    assert checks.check_classify(json.dumps(answer), **kwargs) is not None

    digits = [2, 1, 2, 1, 3, 4, 2, 3, 0, 3, 2]  # sqrt(-1) in Z_5
    lift = {"p": 5, "digits": digits, "value": sum(d * 5**s for s, d in enumerate(digits))}
    assert checks.check_lift(json.dumps(lift), [1, 0, 1], 5, 2, 10) is None
    lift["digits"][4] = 2
    assert checks.check_lift(json.dumps(lift), [1, 0, 1], 5, 2, 10) is not None


@pytest.fixture
def series_files(tmp_path):
    coeffs, p, n_max = ref.Q1, 5, 3000
    values, v = [], 0
    for n in range(1, n_max + 1):
        v += ref.vp(ref.evaluate(coeffs, n), p)
        values.append(v)
    z = len(ref.roots_mod(coeffs, p))
    err = [z * n - (p - 1) * v for n, v in enumerate(values, start=1)]
    series = tmp_path / "s.csv"
    errors = tmp_path / "e.csv"

    def write(vals, errs):
        series.write_text("n,valuation\n" + "".join(f"{n},{x}\n" for n, x in enumerate(vals, 1)))
        errors.write_text("n,err,relerr\n" + "".join(
            f"{n},{e},{e - (errs[n - 2] if n > 1 else 0)}\n" for n, e in enumerate(errs, 1)))

    def case():
        return checks.SeriesCheck(coeffs, p, 0, n_max, sample={2503}, exact_prefix=100)

    return values, err, write, case, series, errors


def test_series_checks_reject_a_wrong_row(series_files):
    values, err, write, case, series, errors = series_files
    write(values, err)
    assert checks.check_series_file(series, case()) is None
    assert checks.check_errors_file(errors, case()) is None
    # 48 is in the exact prefix, 2501 = 1 mod 5 is off Q1's roots 3, 4 mod 5, 2503 is sampled
    for n in (48, 2501, 2503):
        bad = list(values)
        bad[n - 1] += 1
        write(bad, err)
        assert checks.check_series_file(series, case()) is not None, n
        bad_err = list(err)
        bad_err[n - 1] -= 4  # recovers v_n + 1
        write(values, bad_err)
        assert checks.check_errors_file(errors, case()) is not None, n
    write(values[:-1], err)
    assert checks.check_series_file(series, case()) is not None


def test_tracer_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer, inner = tracer._intern("a", "a"), tracer._intern("b", "b")
    # a [0, 10] holds b [1, 3] and b [4, 8]; b [4, 8] holds a [5, 6]
    for name, parent, start, end in ((outer, -1, 0, 10), (inner, 0, 1, 3), (inner, 0, 4, 8),
                                     (outer, 2, 5, 6)):
        tracer.name_id.append(name)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary()
    assert summary["a.calls"] == 2 and summary["b.calls"] == 2
    assert summary["a.self_s"] == (10 - 2 - 4) + 1
    assert summary["b.self_s"] == 2 + (4 - 1)


# -- timing and inputs -----------------------------------------------------


def test_host_speed_scales_wall_time_by_the_calibration_loop(monkeypatch):
    monkeypatch.setattr(run.HostSpeed, "loop", staticmethod(lambda: 2 * run.REFERENCE_LOOP_S))
    result, wall, scaled = run.HostSpeed().time(lambda: "done")
    assert result == "done"
    assert scaled == pytest.approx(wall / 2)


def test_host_speed_samples_during_a_long_execution():
    host = run.HostSpeed()
    host.start_sampling()
    try:
        def busy():
            t0 = perf_counter()
            while perf_counter() - t0 < 3.5 * run.SAMPLE_EVERY_S:
                pass

        _, wall, _ = host.time(busy)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert len(host.during) >= 2
    assert 0 < host.paused and 0 < wall < 3.5 * run.SAMPLE_EVERY_S


def test_queries_sized_requests_do_not_depend_on_the_seed():
    def sizes(seed):
        out = []
        for req in Queries(seed, "").round(0):
            if req.kind in Queries.SIZED:
                poly = req.argv[1].split("=", 1)[1]
                degree = max([int(e) for e in re.findall(r"x\^(\d+)", poly)] + [int("x" in poly)])
                out.append((req.kind, int(req.argv[req.argv.index("--prime") + 1]), degree))
        return sorted(out)

    assert len(sizes(1)) == 20
    assert sizes(1) == sizes(2)
