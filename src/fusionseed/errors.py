"""Engine exceptions."""


class FusionseedError(Exception):
    pass


class DimensionMismatch(FusionseedError):
    pass


class PrimeMismatch(FusionseedError):
    pass


class CapExceeded(FusionseedError):
    """Group enumeration would exceed the element cap."""


class SubgroupViolation(FusionseedError):
    pass


class IndexTooLarge(FusionseedError):
    pass


class NotUnipotentOfOrderP(FusionseedError):
    pass


class FiltrationHypothesisFailed(FusionseedError):
    pass


class DimTooLarge(FusionseedError):
    pass


class Z0NotLine(FusionseedError):
    pass


class NotASubgroup(FusionseedError):
    pass


class UnknownName(FusionseedError):
    pass


class ExtractionFailed(FusionseedError):
    """An advertised direct summand was not found; signals a construction bug."""


class InvalidParams(FusionseedError):
    pass


class SplitFailed(FusionseedError):
    pass


class MuTooSmall(FusionseedError):
    pass


class InvalidInstance(FusionseedError):
    """Invalid input: an instance file that does not describe a valid
    instance, or a FUSIONSEED_CAP that is not a positive integer."""


class InvariantViolation(FusionseedError):
    """A result check failed: a theorem's conclusion or a computed
    invariant does not hold, which signals an engine bug."""
