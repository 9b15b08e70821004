"""Exception types shared across the package."""


class SpiderftError(Exception):
    """Base class for all package-specific errors."""


class AlignmentError(SpiderftError):
    """Two tensor collections do not share the same name/shape sequence."""


class ZeroNormError(SpiderftError):
    """A vector with (near-)zero norm was passed where a direction is required."""


class UninitializedError(SpiderftError):
    """An accumulator was read before it observed any gradient."""


class DimensionError(SpiderftError):
    """Layer/batch dimensions do not compose."""


class StaleCacheError(SpiderftError):
    """A backward pass was requested with a cache from a different forward."""


class DivergenceError(SpiderftError):
    """Training produced a non-finite loss, gradient or weight."""


class InvariantError(SpiderftError):
    """A run broke one of its method's own invariants (a bug, not a bad input)."""


class ConfigError(SpiderftError):
    """Invalid or inconsistent configuration."""


class DomainError(SpiderftError):
    """A metric was evaluated outside its mathematical domain."""


class FormatError(SpiderftError):
    """A checkpoint file is structurally malformed (bad magic, rank, size)."""


class CorruptCheckpointError(SpiderftError):
    """A checkpoint file failed its integrity check."""
