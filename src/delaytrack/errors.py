"""Exception hierarchy shared across the package."""


class DelayTrackError(Exception):
    """Base class for all errors raised by delaytrack."""


class ConfigurationError(DelayTrackError):
    """Inconsistent or incomplete problem setup."""


class RangeError(DelayTrackError):
    """Continuation parameter outside the family's valid interval."""


class SingularityError(DelayTrackError):
    """Evaluation at or too close to a pole, branch cut, or overflow."""


class NonConvergenceError(DelayTrackError):
    """An iterative solver failed to reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DefectiveEigenvalueError(DelayTrackError):
    """Bordered Newton Jacobian is singular: defective eigenvalue (fold)."""


class SingularSystemError(DelayTrackError):
    """Bordered continuation system is singular or gave a nonfinite slope."""


class ReinitializationError(DelayTrackError):
    """No recomputed eigenpair overlaps the tracked branch."""


class ManifestError(ConfigurationError):
    """Manifest file rejected.  Carries a machine-readable code plus
    file/line anchoring for diagnostics."""

    def __init__(self, message, code="invalid", path=None, line=None):
        self.code = code
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(f"{prefix}{message} [{code}]")
