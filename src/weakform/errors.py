"""Exception hierarchy shared by every weakform module.

Three bases matter to callers: :class:`ConfigError` (bad input documents
or CLI arguments, exit code 2), :class:`GuardExceeded` (a combinatorial
limit was hit, exit code 3) and everything else under
:class:`WeakformError` (domain violations, exit code 4 when they escape
the harness).
"""


class WeakformError(Exception):
    """Base class for all errors raised by this package."""


# --- guard limits -----------------------------------------------------------

class GuardExceeded(WeakformError):
    """A configured combinatorial guard threshold was exceeded."""


class VocabularyTooLarge(GuardExceeded):
    """Language enumeration over 2^|v| subsets was refused."""


class TruthSetTooLarge(GuardExceeded):
    """Inclusion-exclusion over truth-set subsets was refused."""


class TaskSpaceTooLarge(GuardExceeded):
    """Task-space enumeration or counting was refused."""


class StateSpaceTooLarge(GuardExceeded):
    """Full-powerset vocabulary construction was refused."""


# --- environment / statement violations -------------------------------------

class DuplicateProgram(WeakformError):
    """Two identical programs were supplied for one vocabulary."""


class StateOutOfRange(WeakformError):
    """A program mentions a state outside [0, state_count)."""


class IndexOutOfRange(WeakformError):
    """A statement mentions a vocabulary index that does not exist."""


class NotAStatement(WeakformError):
    """The candidate program set has an empty joint truth set."""


# --- task violations ---------------------------------------------------------

class InvalidTask(WeakformError):
    """Base class for task construction failures."""


class EmptyInputs(InvalidTask):
    """A task needs at least one input statement."""


class InputsNotStrictSubset(InvalidTask):
    """Task inputs must not cover the whole language."""


class OutputsNotInExtension(InvalidTask):
    """Some designated output completes none of the inputs."""


class OutputsNotStrict(InvalidTask):
    """Correct outputs must be a strict subset of the input extension."""


class EnvironmentMismatch(WeakformError):
    """Two tasks from different environments were combined."""


class InputNotInTask(WeakformError):
    """Inference was asked to complete a statement the task does not pose."""


class NoOutput(WeakformError):
    """The policy admits no completion of the presented input."""


class EmptyTaskSpace(WeakformError):
    """The environment admits no task at all."""


class InvalidSampleCount(WeakformError):
    """A sample count is no int in range: >= 1 for a Monte Carlo
    estimate, >= 0 for a batch of drawn tasks."""


# --- learning ----------------------------------------------------------------

class NoCorrectPolicy(WeakformError):
    """The task has no correct policy to learn or rank."""


class AmbiguousMaximum(WeakformError):
    """Proxy maximisation found ties and tie-breaking was disabled."""


# --- vocabulary instantiation --------------------------------------------------

class InvalidVocabulary(WeakformError):
    """A candidate vocabulary is not a subset of the base vocabulary."""


class EmptyInstantiation(WeakformError):
    """No input statement survives restriction to the chosen vocabulary."""


# --- harness / configuration ---------------------------------------------------

class ConfigError(WeakformError):
    """Base class for configuration document problems."""


class ParseError(ConfigError):
    """The configuration document could not be parsed or validated."""


class UnknownProxy(ConfigError):
    """A proxy name is not one of weakness|simplicity|random:<seed>|table:<path>."""


class GuardConflict(ConfigError):
    """A requested guard exceeds the hard maximum (or is not positive)."""


class EmptyReport(WeakformError):
    """Report writing requires at least one row."""


class IoError(WeakformError):
    """Wrapping of OS-level failures during report writing."""
