"""Exception types named by the operation contracts they guard."""


class ModrepError(Exception):
    """Base class for all contract violations raised by this package."""


# fieldcore
class NotPrime(ModrepError):
    pass


class ReducibleModulus(ModrepError):
    pass


class DegreeMismatch(ModrepError):
    pass


class ZeroPolynomial(ModrepError):
    pass


# linalg
class ShapeMismatch(ModrepError):
    pass


class AmbientMismatch(ModrepError):
    pass


# permgroup
class GroupTooLarge(ModrepError):
    pass


class UnknownGroup(ModrepError):
    pass


class InvalidGroupSpec(ModrepError):
    pass


class NotSubgroup(ModrepError):
    pass


# modalg
class DimensionMismatch(ModrepError):
    pass


class NotInvariant(ModrepError):
    pass


class AlgebraMismatch(ModrepError):
    pass


class ZeroModule(ModrepError):
    pass


class NoQuotientRecorded(ModrepError):
    pass


# structure
class SplittingFieldRequired(ModrepError):
    pass


class ChopInstability(ModrepError):
    pass


class IncompleteSimpleSet(ModrepError):
    pass


class NotIdempotentModRad(ModrepError):
    pass


class NoConvergence(ModrepError):
    pass


class MethodDisagreement(ModrepError):
    pass


# blocks
class NonCentralSum(ModrepError):
    pass


class NotCyclic(ModrepError):
    pass


class OrderDivisibleByP(ModrepError):
    pass


class NoSuitableRoot(ModrepError):
    pass
