"""Exception types shared across the package: one class per CLI exit code.

Each class names whose fault an error is, and carries the code and the
stderr label that `cli.main` reports it with:

* `ConfigError` (2): a bad config value or request, found before any work;
* `StageError` (3): a required stage checkpoint is missing or stale;
* `DataError` (4): an input file, tensor or sequence that does not fit its
  format, shape, length or a metric's domain;
* `NumericsError` (5): a computation or a training run went non-finite.
"""


class UdeError(Exception):
    """Base class for all errors raised by this package; each subclass sets
    `exit_code` and `label`."""


class ConfigError(UdeError):
    """Bad or unknown configuration value or request."""
    exit_code = 2
    label = "config error"


class StageError(UdeError):
    """A required training-stage checkpoint is missing or stale."""
    exit_code = 3
    label = "stage error"


class DataError(UdeError):
    """Data, a file or a caller's input violates its format or contract."""
    exit_code = 4
    label = "data error"


class NumericsError(UdeError):
    """A forward computation, loss or gradient produced NaN or Inf."""
    exit_code = 5
    label = "numerical failure"
