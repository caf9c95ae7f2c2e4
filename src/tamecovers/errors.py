"""Domain errors with stable machine-readable codes.

Every contract violation raises a subclass of DomainError carrying a
stable ``code`` string.  The CLI maps these to JSON error documents and
exit code 2; the codes are part of the external interface and must not
be renamed.
"""


class DomainError(Exception):
    code = "DomainError"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = str(detail)


class UsageError(Exception):
    """Bad command line or malformed input literal (CLI exit code 1)."""


class InvariantViolated(DomainError):
    """An internal invariant failed; checked by a raise, so it holds under -O."""

    code = "InvariantViolated"


# field construction and arithmetic

class NotPrime(DomainError):
    code = "NotPrime"


class NoModulusFound(DomainError):
    code = "NoModulusFound"


class DivisionByZero(DomainError):
    code = "DivisionByZero"


class MixedContexts(DomainError):
    code = "MixedContexts"


class CharZero(DomainError):
    code = "CharZero"


# polynomials and rational functions

class ZeroDenominator(DomainError):
    code = "ZeroDenominator"


class ValueMismatch(DomainError):
    code = "ValueMismatch"


class ConstantMap(DomainError):
    code = "ConstantMap"


# ramification analysis

class Inseparable(DomainError):
    code = "Inseparable"


class InvalidType(DomainError):
    code = "InvalidType"


# permutation-tuple enumeration

class DegreeTooLarge(DomainError):
    code = "DegreeTooLarge"


class InvalidCycleLength(DomainError):
    code = "InvalidCycleLength"


class NotGenusZero(DomainError):
    code = "NotGenusZero"


# three-point solver

class NoSuchCover(DomainError):
    code = "NoSuchCover"


class KernelDimensionUnexpected(DomainError):
    code = "KernelDimensionUnexpected"


# multiplicative construction

class NoCovers(DomainError):
    code = "NoCovers"


class FormulaMismatch(DomainError):
    code = "FormulaMismatch"


class InvalidMu(DomainError):
    code = "InvalidMu"


class NotRamifiedHere(DomainError):
    code = "NotRamifiedHere"


class WrongIndex(DomainError):
    code = "WrongIndex"


class BranchValueExcluded(DomainError):
    code = "BranchValueExcluded"


class MinNotAtFirst(DomainError):
    code = "MinNotAtFirst"


# additive construction

class ExcludedC(DomainError):
    code = "ExcludedC"


class FrobeniusCollision(DomainError):
    code = "FrobeniusCollision"


class TypeDegenerates(DomainError):
    code = "TypeDegenerates"
