"""Exception types shared across the package."""


class BrlabError(Exception):
    """Base class for all library errors."""


class DivisionByZero(BrlabError, ZeroDivisionError):
    """Inversion of zero, or a zero denominator."""


class BadPrime(BrlabError, ArithmeticError):
    """Modulus is not a usable prime, or a value cannot be reduced mod p."""


class FieldMismatch(BrlabError, ValueError):
    """Operands live over incompatible fields."""


class InvalidDimension(BrlabError, ValueError):
    """A dimension or index parameter is outside its allowed range."""


class DimensionMismatch(BrlabError, ValueError):
    """Operands have incompatible shapes."""


class ZeroFactor(BrlabError, ValueError):
    """A rank-one factor vector is identically zero."""


class ZeroScalar(BrlabError, ValueError):
    """Scaling by zero is rejected: stored zeros are structurally forbidden."""


class OrderViolation(BrlabError, ValueError):
    """Parameters violate the required ordering n <= m."""


class FormatError(BrlabError, ValueError):
    """A tensor or matrix file (or entry list) violates the documented format."""
