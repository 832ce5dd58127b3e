"""Exception hierarchy shared by every repro subpackage."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FormatError(ReproError):
    """A sparse-format container was constructed or used incorrectly."""


class ShapeError(ReproError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ReproError):
    """An architecture or simulator configuration is invalid."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class GraphError(ReproError):
    """A model graph is structurally invalid (cycle, dangling tensor,
    duplicate producer) or was scheduled inconsistently."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its budget."""


class CaseTimeoutError(ReproError):
    """A sweep case exceeded its wall-clock budget."""


class DataCorruptionError(ReproError):
    """Stored or in-flight data failed an integrity check."""


class CheckpointError(ReproError):
    """A checkpoint journal is unreadable or inconsistent with its sweep."""


class ThreadLeakError(ReproError):
    """Too many timed-out case threads have been abandoned in-process.

    Python cannot kill a runaway thread, so each in-thread timeout
    leaks one zombie thread.  Past the configured cap the process is no
    longer trustworthy and must fail fast (a supervised worker exits
    and is restarted; its leaked threads die with the process).
    """


class WorkerCrashError(ReproError):
    """A supervised worker process died without completing its shard."""


class TelemetryError(ReproError):
    """A campaign status document is malformed or inconsistent.

    (A corrupt shard journal raises :class:`CheckpointError`, like any
    other journal.)
    """
