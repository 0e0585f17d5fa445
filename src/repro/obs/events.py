"""Typed campaign lifecycle events.

Every event is a frozen dataclass carrying only **deterministic**
payloads: variant ids, outcome names, simulated node-seconds, batch
indexes.  Real wall-clock measurements deliberately live in the span
trace (:mod:`repro.obs.tracing`), not here — the variant-level event
multiset is identical across serial, parallel, cached, and resumed
executions of the same campaign, which makes events safe to assert on
in determinism tests and safe to aggregate into reproducible metrics.

Parallel execution note: worker processes do not hold a bus.  The
:class:`~repro.core.evaluation.VariantRecord` that travels back over
the existing result pipe *is* the forwarded event payload — the parent
synthesizes the same :class:`VariantEvaluated` event a serial campaign
would have emitted, from the same record bytes.  Retry/backoff events
are parent-side by nature (the parent owns the retry loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "CampaignStarted", "BackendSelected", "PreprocessingDone",
    "ProfileComputed", "CacheWarnings", "BatchStarted", "BatchCompleted",
    "VariantEvaluated", "WorkerRetry", "WorkerBackoff", "WorkerFailure",
    "FaultInjected", "VariantQuarantined", "CircuitBreakerOpen",
    "CampaignFinished", "JobSubmitted", "JobStarted", "JobFinished",
    "JobFailed",
]


@dataclass(frozen=True)
class CampaignStarted:
    """A campaign began (before T0 preprocessing)."""

    model: str
    algorithm: str
    workers: int
    nodes: int
    wall_budget_seconds: float
    max_evaluations: int
    resumed_from_batch: Optional[int] = None


@dataclass(frozen=True)
class BackendSelected:
    """The campaign resolved its Fortran execution backend.

    ``backend`` is ``"compiled"`` (closure-lowered procedures, see
    :mod:`repro.fortran.compile`) or ``"batched"`` (lockstep variant
    waves with per-lane dtype masks, see :mod:`repro.fortran.batch`).
    Both are bit-identical in every deterministic payload, so this
    event is informational: it changes wall-clock, never the trajectory.
    Compile-time counters (procedures lowered, code-cache hits) are real
    wall-side measurements and therefore live in the span trace and the
    metrics export, not in deterministic result JSON.
    """

    model: str
    backend: str
    workers: int


@dataclass(frozen=True)
class PreprocessingDone:
    """T0 finished: flow graphs built, taint reduction attempted."""

    model: str
    sim_seconds: float
    note: str = ""


@dataclass(frozen=True)
class ProfileComputed:
    """A shadow-execution numerical profile (:mod:`repro.numerics`) was
    resolved for the campaign.  ``source`` states where it came from:
    ``"computed"`` (a fresh shadow run, charged ``sim_seconds`` against
    the budget), ``"loaded"`` (deserialized from
    ``CampaignConfig.profile_path``, ~0 cost), or ``"injected"``
    (already installed on the algorithm by the caller)."""

    model: str
    source: str
    digest: str
    sim_seconds: float
    variables: int
    cancellations: int


@dataclass(frozen=True)
class CacheWarnings:
    """The persistent result cache skipped unreadable entries while
    loading.  Surfaced as an event (and in ``repro tune`` / ``repro
    trace`` output) so silent cache corruption cannot silently change a
    campaign's cost profile."""

    count: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class BatchStarted:
    """A batch of assignments passed the budget gate and is about to be
    resolved (cache lookups, journal replay, dispatch)."""

    batch_index: int
    size: int


@dataclass(frozen=True)
class BatchCompleted:
    """A batch committed.  ``telemetry`` is the campaign's
    :class:`~repro.core.campaign.BatchTelemetry` record (duck-typed here
    to keep :mod:`repro.obs` import-free of :mod:`repro.core`)."""

    telemetry: object


@dataclass(frozen=True)
class VariantEvaluated:
    """One assignment resolved to a record — the variant-level event.

    ``source`` states where the record came from: ``"fresh"`` (a real
    transform/compile/run evaluation), ``"memory"`` (the evaluator's
    in-memory cache), ``"disk"`` (the persistent result cache),
    ``"replay"`` (the crash-recovery journal), or ``"worker-failure"``
    (synthesized after irrecoverable worker infrastructure failure).
    ``stages`` decomposes the simulated cost of a fresh evaluation into
    the paper's pipeline stages (transform/compile/run); hits carry an
    empty tuple and ``sim_seconds == 0.0``.
    """

    batch_index: int
    variant_id: int
    outcome: str
    source: str
    sim_seconds: float
    stages: tuple[tuple[str, float], ...] = ()
    speedup: Optional[float] = None
    fraction_lowered: float = 0.0


@dataclass(frozen=True)
class WorkerRetry:
    """A transient worker failure scheduled the variant for another
    attempt (parallel execution only)."""

    batch_index: int
    variant_id: int
    attempt: int
    reason: str


@dataclass(frozen=True)
class WorkerBackoff:
    """The parent slept between retry rounds (deterministic, jitterless
    exponential backoff)."""

    batch_index: int
    retry_round: int
    seconds: float


@dataclass(frozen=True)
class WorkerFailure:
    """Retries exhausted: the variant was downgraded to a synthesized
    failure outcome (never cached, never journaled)."""

    batch_index: int
    variant_id: int
    outcome: str
    reason: str


@dataclass(frozen=True)
class FaultInjected:
    """The chaos engine (:mod:`repro.chaos`) injected a scheduled fault.

    ``kind`` is ``"crash_point"`` (SIGKILL at a named kill site),
    ``"worker"`` (a worker-side crash/hang/raise armed for one
    variant), or ``"io"`` (a sabotaged state-file write).  ``site``
    names the crash point, ``variant:<id>``, or the I/O target;
    ``hit`` is the 1-based logical index the fault keyed on.  Only
    emitted under an installed fault plan — a chaos-free campaign
    never sees this event.
    """

    kind: str
    site: str
    mode: str
    hit: int = 1


@dataclass(frozen=True)
class VariantQuarantined:
    """A variant failed identically on every attempt and was recorded
    as a permanent typed failure (poison), letting the search continue
    instead of wedging or silently retrying forever.  The quarantine is
    journaled, so a resumed campaign serves the same failure record
    without re-poisoning its worker pool."""

    batch_index: int
    variant_id: int
    outcome: str
    attempts: int
    reason: str


@dataclass(frozen=True)
class CircuitBreakerOpen:
    """The parallel oracle saw too many consecutive pool deaths without
    a single completed evaluation and stopped rebuilding the pool for
    this batch: remaining variants are downgraded immediately rather
    than burning the retry budget against infrastructure that is down."""

    batch_index: int
    pool_failures: int
    pending: int


@dataclass(frozen=True)
class CampaignFinished:
    """The campaign returned (finished, budget-exhausted, or
    interrupted)."""

    model: str
    finished: bool
    interrupted: bool
    evaluations: int
    batches: int
    sim_seconds: float


# -- campaign service (repro.service) job lifecycle --------------------
#
# Emitted by the job-queue server on its own bus (one per service, not
# per campaign).  Each carries the content-addressed ``job_id`` so a
# client watching a job's SSE stream can correlate service-level
# transitions with the campaign events forwarded from the job's run.


@dataclass(frozen=True)
class JobSubmitted:
    """A job spec was accepted and made durable in the service journal.

    ``deduplicated`` is True when the spec's content digest matched an
    existing pending/running/finished job from the same tenant — the
    submission attached to that job instead of creating a duplicate.
    """

    job_id: str
    tenant: str
    model: str
    priority: int
    seq: int
    deduplicated: bool = False


@dataclass(frozen=True)
class JobStarted:
    """The scheduler dispatched the job to a worker slot.  ``resumed``
    marks a job whose campaign journal survived a previous server
    process — its completed work replays at ~0 cost."""

    job_id: str
    tenant: str
    model: str
    resumed: bool = False


@dataclass(frozen=True)
class JobFinished:
    """The job's campaign returned and ``result.json`` was atomically
    published.  ``result_digest`` is the sha256 of the exact result
    bytes — the value the byte-identity gates compare."""

    job_id: str
    tenant: str
    model: str
    finished: bool
    evaluations: int
    result_digest: str


@dataclass(frozen=True)
class JobFailed:
    """The job's campaign raised.  The job is terminal-failed (a fresh
    submission of the same spec re-queues it); the error text is
    journaled for ``repro jobs`` / ``repro doctor``."""

    job_id: str
    tenant: str
    model: str
    error: str
