"""Exception taxonomy shared across the package.

Every error raised by the library derives from :class:`HisimError` so callers
(and the CLI) can distinguish input problems from bugs with one except clause.
"""


class HisimError(Exception):
    """Base class for all errors raised by this package."""


class QasmError(HisimError):
    """Base class for problems with OpenQASM input."""


class QasmSyntaxError(QasmError):
    """Malformed statement. Carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnsupportedGateError(QasmError):
    """Gate or statement outside the supported subset."""


class QubitOutOfRangeError(QasmError):
    """Qubit index not in [0, num_qubits)."""


class DuplicateQubitError(QasmError):
    """The same qubit appears twice in one gate application."""


class InvalidQubitCountError(QasmError):
    """Register size or operand count is wrong for the gate."""


class InvalidParamError(QasmError):
    """A gate parameter is not a finite real that a float holds exactly."""


class PartitionError(HisimError):
    """Base class for partitioning failures."""


class LimitTooSmallError(PartitionError):
    """Qubit limit below the widest gate's arity; no valid partition exists."""

    def __init__(self, limit: int, max_arity: int):
        super().__init__(
            f"qubit limit {limit} is below the widest gate arity {max_arity}"
        )
        self.limit = limit
        self.max_arity = max_arity


class TooLargeForOracleError(PartitionError):
    """Exact search refused: the DAG exceeds the brute-force size guard."""


class SimulationError(HisimError):
    """Base class for state-vector and execution failures."""


class QubitCountOutOfRangeError(SimulationError):
    """Requested vector size is outside [1, cap]."""


class PartTooWideForLayoutError(SimulationError):
    """A part's working set exceeds the per-rank local qubit count."""


class LayoutMismatchError(SimulationError):
    """Redistribution endpoints disagree on qubit count or rank count."""


class VerificationError(SimulationError):
    """A --verify run diverged from the flat oracle beyond tolerance."""
