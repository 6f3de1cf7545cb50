"""Exception hierarchy shared across the package."""


class EiscongError(Exception):
    """Base class for all library errors."""


class NonFundamentalDiscriminant(EiscongError):
    pass


class InvalidDiscriminantResidue(EiscongError):
    pass


class IntegralityViolation(EiscongError):
    pass


class InvalidWeight(EiscongError):
    pass


class NotPositiveSemidefinite(EiscongError):
    pass


class SpaceMismatch(EiscongError):
    pass


class WeightMismatch(EiscongError):
    pass


class OutOfTruncation(EiscongError):
    pass


class ParseError(EiscongError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotInSpace(EiscongError):
    pass


class InsufficientTruncation(EiscongError, ValueError):
    """Too few coefficients for the computation asked of a valid input."""


class NonIntegralCoefficient(EiscongError):
    def __init__(self, key, modulus):
        super().__init__(f"coefficient at {key} is not integral for modulus {modulus}")
        self.key = key
        self.modulus = modulus


class AllZeroRhs(EiscongError):
    pass


class NonInvertibleReference(EiscongError):
    pass


class UnsupportedFieldForm(EiscongError):
    pass


class WitnessSearchExhausted(EiscongError):
    pass
