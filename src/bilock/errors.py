"""Exception types: one base per exit code, carrying the code and prefix.

A stage failure is a ``ConfigError`` (exit 2: the configs, world or arm
models cannot be served), a ``DataError`` (exit 3: an unusable dataset) or
a ``NumericalFailure`` (exit 4: a computation left its sound domain);
``cli.main`` prints ``f"{exc.prefix}: {exc}"`` and returns ``exc.code``.
A subclass exists only where a caller tells it apart or for an attribute.
"""

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4


class BilockError(Exception):
    """Root of the three bases; never raised itself."""


class ConfigError(BilockError):
    code, prefix = EXIT_CONFIG, "config error"


class DataError(BilockError):
    code, prefix = EXIT_DATA, "data error"


class NumericalFailure(BilockError):
    code, prefix = EXIT_NUMERIC, "numerical failure"


class IkFailure(ConfigError):
    """No analytic IK solution for a flange pose.  ``reason`` is
    ``unreachable``, ``elbow_singular``, ``degenerate_sew`` or
    ``joint_limits`` (offending 0-based joint ``indices``).  Only ``gen``
    lets one through, and its only inputs are the configs."""

    def __init__(self, reason, msg, indices=()):
        super().__init__(msg)
        self.reason = reason
        self.indices = tuple(indices)


class MalformedRecord(DataError):
    """Unparseable dataset record at 1-based file ``line``."""

    def __init__(self, msg, line):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class InsufficientCategory(DataError):
    """An outcome category has too few rollouts for density estimation."""


class RankDeficient(NumericalFailure):
    """Rank-deficient constraint Jacobian; smallest singular ``sigma_min``."""

    def __init__(self, msg, sigma_min):
        super().__init__(f"{msg} (sigma_min={sigma_min:.3e})")
        self.sigma_min = sigma_min
