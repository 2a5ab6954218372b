"""Exception types shared across the library.

GuardExceeded and Infeasible map onto dedicated CLI exit codes; the rest
signal contract violations on individual operations.
"""


class RelaycapError(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(RelaycapError):
    """A factorization pivot fell at or below the positive-definiteness
    epsilon, or another quantity of the network is past double precision
    (a receiver's source-plus-noise floor that overflows).

    When a stack of matrices was factored, ``index`` is the failing
    matrix's position in the stack.
    """

    index: int | None = None


class DimensionMismatch(RelaycapError):
    """Array arguments have inconsistent shapes."""


class NonPositiveNoise(RelaycapError):
    """A receiver noise variance is zero or negative."""


class NegativePower(RelaycapError):
    """A transmit power is negative or not finite."""


class CoincidentNodes(RelaycapError):
    """Two nodes share a position; the path-loss model is singular at d=0."""


class InvalidScale(RelaycapError, ValueError):
    """Relay power scaling factor below 1, or a gamma list that is empty or
    not sorted ascending."""


class InvalidReceiver(RelaycapError):
    """The assigned receiver is a member of the block it should decode."""


class InvalidAlpha(RelaycapError):
    """Source-relay correlation coefficient outside the power-feasible interval."""


class GuardExceeded(RelaycapError):
    """Network has more nodes than the size guard allows, and the caller did
    not override the guard."""


class NonPositiveQ(RelaycapError):
    """A quantization noise variance is zero or negative."""


class Infeasible(RelaycapError):
    """No positive quantization vector satisfies the rate constraints."""


class VerificationFailure(RelaycapError):
    """A built-in numerical consistency check did not hold."""


class ConfigError(RelaycapError):
    """Run configuration is missing, malformed, or describes an invalid network."""
