"""Exception types shared across the package."""


class PadicValError(Exception):
    """Base class for all domain errors raised by this package."""


class ValuationOfZeroError(PadicValError):
    """The valuation of 0 is undefined; there is no sentinel value."""


class ZeroPolynomialError(PadicValError):
    """Operation requires a nonzero polynomial."""


class PolynomialVanishesModP(PadicValError):
    """Every coefficient is divisible by p; every residue is a root."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"polynomial is identically zero mod {p}")


class NotARootError(PadicValError):
    """Lifting was attempted from a residue that is not a root mod p."""


class NotSimpleRootError(PadicValError):
    """The derivative vanishes mod p at the residue; the lift is not unique."""


class NotHenselPrimeError(PadicValError):
    """The fast engine requires every root mod p to be simple."""


class HasIntegerRootError(PadicValError):
    """Q vanishes at a positive integer, so some multiplier would be zero."""


class ParseError(PadicValError):
    """Polynomial text did not match the grammar."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")
