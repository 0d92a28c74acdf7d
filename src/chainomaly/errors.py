"""Exception hierarchy.

Every exception carries an ``exit_code`` used by the CLI:
1 for configuration problems, 2 for pipeline failures (a computation that
refused an input), 3 for internal invariant violations (a result that
contradicts something the code itself guarantees, i.e. a bug signal).
"""


class ChainomalyError(Exception):
    exit_code = 2


# -- configuration (exit 1) -------------------------------------------------

class ConfigError(ChainomalyError):
    exit_code = 1


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


# -- pipeline failures (exit 2) ---------------------------------------------

class PipelineError(ChainomalyError):
    exit_code = 2


class WindowCapExceeded(PipelineError):
    pass


class MatrixCap(PipelineError):
    pass


class NotACocycle(PipelineError):
    pass


class NonSquareRatio(PipelineError):
    pass


class NonZeroIndex(PipelineError):
    pass


class UnpairableShifts(PipelineError):
    pass


class ShiftsPresent(PipelineError):
    pass


class NotInner(PipelineError):
    pass


class NotAHomomorphism(PipelineError):
    pass


class NotScalar(PipelineError):
    pass


class NotProjective(PipelineError):
    pass


class SizeCap(PipelineError):
    pass


class NoConvergence(PipelineError):
    pass


class IoError(PipelineError):
    pass


# -- internal invariant violations (exit 3) ----------------------------------

class InvariantViolation(ChainomalyError):
    exit_code = 3


class IndexMismatch(InvariantViolation):
    pass
