"""Prime valuations of product sequences t_n = Q(n) * t_{n-1}."""

from .analysis import (
    SlopeReport,
    asymptotic_zero_number,
    empirical_slope,
    error_series,
    exact_slope,
    scan_primes,
    slope_report,
)
from .errors import (
    HasIntegerRootError,
    NotARootError,
    NotHenselPrimeError,
    NotSimpleRootError,
    PadicValError,
    ParseError,
    PolynomialVanishesModP,
    ValuationOfZeroError,
    ZeroPolynomialError,
)
from .padic import (
    Prime,
    PrimeClassification,
    Verdict,
    classify_prime,
    digit_sum,
    hensel_lift,
    int_valuation,
    is_prime,
    legendre_factorial_valuation,
    primes_first,
    roots_mod_p,
)
from .parser import parse_poly
from .poly import IntPolynomial, format_poly, integer_poly_gcd, nonneg_integer_roots
from .recurrence import (
    RecurrenceSpec,
    count_congruent,
    make_spec,
    max_power_index,
    valuation_series,
    valuation_tn,
    valuation_tn_direct,
    valuation_tn_fast,
)

__version__ = "0.1.0"
