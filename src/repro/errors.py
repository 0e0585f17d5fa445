"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without masking genuine Python bugs.  The split
between *static* errors (lexing, parsing, semantic analysis,
transformation) and *dynamic* errors (interpretation of a variant) matters
to the tuning harness: dynamic errors are a normal, expected outcome of
evaluating an aggressive mixed-precision variant and are classified as
``RUNTIME_ERROR`` rather than propagated.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Static (front-end / transformation) errors
# ---------------------------------------------------------------------------


class SourceError(ReproError):
    """A problem attributable to a location in Fortran source code."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)


class LexError(SourceError):
    """The lexer encountered a character sequence it cannot tokenize."""


class ParseError(SourceError):
    """The parser encountered an unexpected token or construct."""


class SemanticError(SourceError):
    """Name resolution or type checking failed."""


class TransformError(ReproError):
    """A precision assignment could not be applied to the program."""


# ---------------------------------------------------------------------------
# Dynamic (interpretation) errors — expected outcomes during tuning
# ---------------------------------------------------------------------------


class FortranRuntimeError(ReproError):
    """Base class for errors raised while interpreting a program variant."""


class FortranStopError(FortranRuntimeError):
    """An ``error stop`` (or ``stop`` with nonzero code) statement executed.

    Weather-model miniatures use ``error stop`` for positivity and
    convergence guards; in low precision these guards fire and the variant
    is classified as a runtime error, mirroring the paper's MOM6 results.
    """

    def __init__(self, message: str = "", code: int = 1):
        self.code = code
        super().__init__(message or f"ERROR STOP {code}")


class InterpreterLimitError(FortranRuntimeError):
    """The interpreter hit a configured resource cap (ops or statements).

    This is the interpreter-level analogue of the paper's per-variant
    timeout of 3x the baseline runtime.
    """


# ---------------------------------------------------------------------------
# Harness errors
# ---------------------------------------------------------------------------


class EvaluationError(ReproError):
    """The evaluation pipeline itself (not the variant) misbehaved."""


class SearchError(ReproError):
    """A search algorithm was misconfigured or reached an invalid state."""


class CampaignError(ReproError):
    """The campaign orchestrator was misconfigured."""


class TraceError(CampaignError):
    """A span-trace directory is missing, empty, or unreadable.

    Raised by the trace summarizer (``repro trace``) when the named
    directory holds no ``trace.jsonl`` — observability artifacts are
    advisory, so corruption *within* a trace file is tolerated line by
    line, but a wholly absent trace is operator error."""


class JournalError(CampaignError):
    """The campaign journal is missing, corrupt, or belongs to a
    different experiment.

    Raised in particular when a resume is attempted against a journal
    whose recorded model spec, machine, noise seed, search space, or
    search configuration does not match the running campaign — replaying
    such a journal would silently corrupt the search trajectory, so the
    resume is refused instead.
    """


class ConfigSchemaError(CampaignError):
    """A serialized :class:`~repro.core.campaign.CampaignConfig` payload
    violates the wire schema.

    Raised on unknown keys (a silently ignored knob is how override
    bugs hide), runtime-only fields (``chaos``/``subscribers`` never
    travel over the wire), values of the wrong type, payloads written
    by a *newer* schema version than this build understands, and a
    field v2 retired set to other than its v1 default.  Older versions
    load fine otherwise: absent fields take their pinned defaults,
    which is what lets old job files replay after upgrades.
    """


# ---------------------------------------------------------------------------
# Campaign-service errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """The campaign service (``repro.service``) misbehaved or was
    misused: a malformed submission, an unreachable server, a corrupt
    service journal."""


class SpecError(ServiceError):
    """A job submission (:class:`~repro.service.schema.JobSpec`) is
    invalid: unknown keys, a model name the server does not know, an
    unsupported algorithm, or a bad embedded campaign config."""


class JobNotFound(ServiceError):
    """The requested job id is not in the service's registry."""
