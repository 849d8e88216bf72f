"""Exception hierarchy for fan validation, divisor arithmetic and the
stability pipeline.

Validation errors (bad fans, non-ample polarizations, scope violations,
malformed input files) derive from :class:`InputError`; they map to exit
code 2 on the command line.  :class:`InternalError` signals a broken
internal invariant and maps to exit code 1.
"""


class SyzstabError(Exception):
    """Base class for every error raised by this package."""


class InputError(SyzstabError):
    """Invalid user-supplied data (fan, divisor, surface, CLI argument)."""


class InternalError(SyzstabError):
    """An internal consistency check failed; this is a bug, not bad input."""


# ----------------------------------------------------------------------
# fan validation


class FanError(InputError):
    """Invalid fan data.  ``index`` points into the original input order."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NonPrimitiveRayError(FanError):
    pass


class RepeatedRayError(FanError):
    pass


class IncompleteFanError(FanError):
    pass


class NonSmoothFanError(FanError):
    pass


# ----------------------------------------------------------------------
# divisors and surfaces


class DimensionMismatchError(InputError):
    """Coefficient vector length does not match the ambient surface."""


class NonIntegralDivisorError(InputError):
    """An operation that needs integer coefficients got fractional ones."""


class NotNefError(InputError):
    """A divisor that must be nef is not nef."""


class NotAmpleError(InputError):
    """A divisor that must be ample is not ample."""


class NotEffectiveError(InputError):
    """A divisor that must be effective is not effective."""


class DegenerateBundleError(InputError):
    """The line bundle has h0 <= 1, so there is no syzygy bundle slope."""


# ----------------------------------------------------------------------
# stability pipeline


class PreconditionError(InputError):
    """An operation was called outside its documented precondition."""


class HypothesesViolatedError(InputError):
    """Surface fails the hypotheses of the polarization construction."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics) or "hypotheses violated")
        self.diagnostics = tuple(diagnostics)


class ConstructionFailedError(InputError):
    """The surface and divisor admit no boundary-plus-epsilon polarization:
    no negative generator, or no power-of-two epsilon on its interval."""


class OutOfTheoremScopeError(InputError):
    """The surface is one of the excluded cases (plane, quadric)."""


class EmptyGridError(InputError):
    """A sweep request produced no admissible parameter tuples."""
