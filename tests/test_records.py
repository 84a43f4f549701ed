"""The record types behave as values: Prime, IntPolynomial,
PrimeClassification, RecurrenceSpec and SlopeReport."""

import copy
import pickle

import pytest

from padicval import (
    IntPolynomial,
    Prime,
    RecurrenceSpec,
    SlopeReport,
    Verdict,
    classify_prime,
    make_spec,
    slope_report,
)


class TestPrime:
    def test_composite_raises_naming_it(self):
        with pytest.raises(ValueError, match="4 is not prime"):
            Prime(4)

    def test_equal_hash_and_order(self):
        assert Prime(7) == Prime(7) and Prime(7) != Prime(11)
        assert hash(Prime(7)) == hash(Prime(7))
        assert len({Prime(7), Prime(7), Prime(11)}) == 2
        assert Prime(2) < Prime(3) <= Prime(3) < Prime(11)
        assert sorted([Prime(11), Prime(2), Prime(5), Prime(3)]) == [Prime(2), Prime(3), Prime(5), Prime(11)]

    def test_repr_str_and_proven(self):
        assert repr(Prime(7)) == "Prime(value=7)"
        assert str(Prime(7)) == "7"
        assert Prime._proven(7) == Prime(7)
        assert type(Prime._proven(7)) is Prime

    def test_immutable(self):
        p = Prime(7)
        with pytest.raises(AttributeError):
            p.value = 11
        assert p.value == 7


class TestIntPolynomial:
    def test_trimmed_equality_and_hash(self):
        a, b = IntPolynomial([1, 2, 0]), IntPolynomial([1, 2])
        assert a == b and a.coeffs == (1, 2)
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert IntPolynomial([1, 2]) != IntPolynomial([2, 1])
        assert IntPolynomial([0, 0]) == IntPolynomial()

    def test_immutable(self):
        q = IntPolynomial([1, 2])
        with pytest.raises(AttributeError):
            q.coeffs = (3,)
        with pytest.raises(AttributeError):
            del q.coeffs
        assert q.coeffs == (1, 2)

    def test_pickles_and_copies(self):
        q = IntPolynomial([3, 0, 1])
        assert pickle.loads(pickle.dumps(q)) == q
        assert copy.deepcopy(q) == copy.copy(q) == q


class TestRecurrenceSpec:
    def test_start_index_defaults_to_zero(self):
        q = IntPolynomial([1, 1])
        assert RecurrenceSpec(q).start_index == 0
        assert RecurrenceSpec(q) == RecurrenceSpec(q, 0) == make_spec(q)
        assert RecurrenceSpec(q, 3).start_index == 3
        assert RecurrenceSpec(poly=q, start_index=3).poly is q


@pytest.mark.parametrize("poly, p, verdict, z_p, simple", [
    ([1, 0, 1], 3, Verdict.NO_ROOTS, 0, True),              # x^2+1 at 3
    ([3, 0, 0, 2, 0, 1], 5, Verdict.HENSEL, 2, True),       # x^5+2x^3+3 at 5
    ([0, 0, 1], 5, Verdict.NON_HENSEL, 1, False),           # x^2 at 5
    ([10, 5], 5, Verdict.ALL_RESIDUES, 5, False),           # 5x+10 at 5
])
def test_classification_properties(poly, p, verdict, z_p, simple):
    cls = classify_prime(IntPolynomial(poly), Prime(p))
    assert cls.verdict is verdict
    assert cls.z_p == z_p
    assert cls.all_roots_simple is simple
    assert cls == classify_prime(IntPolynomial(poly), Prime(p))


def test_slope_report_fields():
    report = slope_report(make_spec(IntPolynomial([3, 0, 0, 2, 0, 1])), Prime(5), (10,))
    assert isinstance(report, SlopeReport)
    assert report.p == Prime(5) and report.classification.verdict is Verdict.HENSEL
    assert (report.predicted.numerator, report.predicted.denominator) == (1, 2)
    assert report.n_p == 2 and [n for n, _ in report.empirical] == [10]
