"""Exception hierarchy for the PEP reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class BytecodeError(ReproError):
    """Malformed bytecode: bad operands, dangling targets, bad registers."""


class VerificationError(BytecodeError):
    """A method failed the bytecode verifier."""


class CFGError(ReproError):
    """A control-flow-graph operation was applied to an unsuitable graph."""


class IrreducibleLoopError(CFGError):
    """The CFG contains a loop whose header does not dominate its body.

    Ball-Larus truncation (and Jikes RVM's yieldpoint placement) assume
    reducible control flow; the structured builder can only produce
    reducible graphs, so this error indicates hand-built bytecode.
    """


class NumberingError(ReproError):
    """Path numbering failed (cyclic P-DAG, missing edge values, ...)."""


class PathReconstructionError(ReproError):
    """A path number could not be mapped back to an edge sequence."""


class InstrumentationError(ReproError):
    """An instrumentation pass was misapplied."""


class VMError(ReproError):
    """Guest program failure: traps, stack overflow, fuel exhaustion."""


class LocatedVMError(VMError):
    """A VM failure annotated with where and when it happened.

    Carries the faulting compiled method (profile key), block label,
    instruction index within the block, and virtual cycles consumed, so a
    watchdog abort is diagnosable from the message alone.  All context
    fields are optional; missing ones are simply omitted from the message.
    """

    def __init__(
        self,
        message: str,
        method=None,
        block=None,
        instruction_index=None,
        cycles=None,
    ) -> None:
        self.base_message = message
        self.method = method
        self.block = block
        self.instruction_index = instruction_index
        self.cycles = cycles
        parts = []
        if method is not None:
            where = str(method)
            if block is not None:
                where += f" at {block}"
                if instruction_index is not None:
                    where += f"[{instruction_index}]"
            parts.append(f"in {where}")
        if cycles is not None:
            parts.append(f"after {cycles:.0f} cycles")
        if parts:
            message = f"{message} ({', '.join(parts)})"
        super().__init__(message)


class GuestTrapError(LocatedVMError):
    """The guest program performed an illegal operation (e.g. div by 0)."""


class FuelExhaustedError(LocatedVMError):
    """The interpreter hit its instruction budget before the guest halted."""


class CompilationError(ReproError):
    """The baseline or optimizing compiler rejected a method."""


class AdviceError(ReproError):
    """Replay-compilation advice was missing or inconsistent."""


class WorkloadError(ReproError):
    """A synthetic workload was configured with invalid parameters."""


class EngineError(ReproError):
    """The parallel experiment engine failed to run a sweep."""


class CellTimeoutError(EngineError):
    """An experiment cell exceeded its wall-clock budget."""


class CellExecutionError(EngineError):
    """A strict sweep stopped at a cell that failed or was quarantined."""


class WorkerCrashError(EngineError):
    """A worker process died (SIGKILL, OOM, segfault) with a cell in flight."""


class CellQuarantinedError(EngineError):
    """A cell was abandoned because no worker was left to run it.

    The supervisor respawns lost workers only while its
    ``max_worker_restarts`` budget lasts.  Once every worker is gone and
    the budget is spent, each cell still queued becomes an error
    :class:`~repro.engine.cells.CellResult` of this type.  A cell that
    takes its own worker down twice is quarantined too, but as a
    :class:`WorkerCrashError` or :class:`CellTimeoutError` result.
    """


class JournalError(EngineError):
    """A sweep journal could not be written, read, or matched to a sweep."""


class StatsError(ReproError, ValueError):
    """A statistics helper was given unusable input (empty, non-positive).

    Also a :class:`ValueError` so pre-existing callers keep working; the
    :class:`ReproError` base is what makes the "catch ``ReproError`` for
    any library failure" contract hold.
    """


class MissingBaseError(StatsError, KeyError):
    """Normalization was asked for a benchmark with no base measurement."""

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return Exception.__str__(self)


class TableError(ReproError, ValueError):
    """A table or figure renderer was given unusable input."""


class LangError(ReproError):
    """Base class for mini-language front-end failures."""


class LexError(LangError):
    """The lexer met an unexpected character."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class ParseError(LangError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class CompileError(LangError):
    """Semantic error while lowering the AST to bytecode."""
