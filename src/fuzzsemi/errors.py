"""Exception types raised across the package."""


class FuzzsemiError(Exception):
    """Base class for all library errors."""


class OrderViolation(FuzzsemiError):
    """Triangular endpoints are not ordered left <= center <= right."""


class HDifferenceError(FuzzsemiError):
    """The Hukuhara difference of the given pair does not exist."""


class DomainMismatch(FuzzsemiError):
    """Two sampled functions live on different intervals."""


class ArityMismatch(FuzzsemiError):
    """Product elements or derivative lists disagree in length."""


class LengthMismatch(FuzzsemiError):
    """Two fuzzy sequences have different numbers of terms."""


class SpaceMismatch(FuzzsemiError):
    """An operator was applied to an element outside its space."""


class ProbeNormViolation(FuzzsemiError):
    """A probe element exceeds the unit ball."""


class MuNotPositive(FuzzsemiError):
    """The generator constant has a non-positive growth coefficient."""


class MixedSignsError(FuzzsemiError):
    """The semigroup law is only asserted for same-sign time pairs."""


class SeriesOverflow(FuzzsemiError, OverflowError):
    """A value leaves the float range: the series terms (|t| times the
    operator's norm bound is too large), a flow or a forced solution at some
    t, or a coefficient of data near the float limit."""


class NegativeForcedTime(FuzzsemiError, ValueError):
    """A trajectory with a forcing or a nonzero initial velocity was asked for a
    time before 0: its Duhamel integral is taken over [0, t], for t >= 0 only."""


class ToleranceUnderflow(FuzzsemiError, ValueError):
    """A positive tol, taken relative to the norm of the data or to a derivative
    bound, underflows to a truncation target of 0."""


class QuadratureStall(FuzzsemiError):
    """Adaptive quadrature failed to converge within its interval budget."""


class NoApplicableForm(FuzzsemiError):
    """No one-sided difference quotient exists at a sample time."""


class MissingDerivativeBound(FuzzsemiError):
    """The wave solver needs a certified uniform bound on even derivatives."""


class SchemaError(FuzzsemiError):
    """A JSON document does not match the expected schema."""
