"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, missing
or stale stage checkpoints exit 3, data/format/contract problems exit 4 and
numerical failures exit 5.
"""


class UdeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UdeError):
    """Bad or unknown configuration value."""


class StageError(UdeError):
    """A required training-stage checkpoint is missing or stale."""


class DimensionError(UdeError):
    """Tensor or sequence shapes do not line up."""


class ContractError(UdeError):
    """A documented precondition was violated by the caller."""


class LengthError(ContractError):
    """A sequence exceeds the supported length."""


class NumericsError(UdeError):
    """A forward computation produced NaN or Inf."""


class TrainingError(UdeError):
    """Training aborted (non-finite loss or gradient)."""


class FormatError(UdeError):
    """A file does not follow its documented format."""


class PreprocessingError(UdeError):
    """Motion preprocessing failed (degenerate input pose)."""


class MetricError(UdeError):
    """A metric was called on inputs outside its domain."""


class TokenError(UdeError):
    """A token index is outside the codebook range."""
