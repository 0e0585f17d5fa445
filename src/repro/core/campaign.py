"""Campaign orchestration: the paper's full experiment driver.

One campaign = one row of Table II and one panel of Figures 5–6 (or 7):
run the T0 preprocessing (taint reduction, flow graphs), then iterate
T1→T4 — the search emits batches of assignments, each batch is
"transformed, compiled and executed" with a dedicated node per variant
(the paper used 20 Derecho nodes), measurements feed back — until the
search terminates with a 1-minimal variant or the 12-hour PBS job budget
expires (which is how the MOM6 search ended).

Wall-clock accounting is simulated: a batch costs the *maximum* of its
members' evaluation times over ceil(len/20) waves, plus the one-time T0
cost (~1% of the experiment, per the artifact appendix).  An assignment
already known to the evaluator (or the persistent result cache) costs
~0 node-seconds — nothing is rebuilt or rerun for it.

Set ``CampaignConfig.workers > 1`` to map the simulated node pool onto
real worker processes (see :mod:`repro.core.parallel`), and
``cache_dir`` to persist results across campaigns
(:mod:`repro.core.cache`).  Both paths are bit-identical to serial
in-process evaluation; the determinism suite in
``tests/test_parallel.py`` enforces this.

Observability (:mod:`repro.obs`): every campaign emits typed lifecycle
events — campaign/batch/variant, per-variant pipeline stages, cache and
journal provenance, worker retry/backoff — on an in-process
:class:`~repro.obs.EventBus`; attach subscribers via
``CampaignConfig.subscribers``.  Setting ``trace_dir`` additionally
writes a crash-safe JSON-lines span trace (wall *and* simulated
durations, reconciling exactly with the budget ledger) plus a
Prometheus-style ``metrics.prom``; ``repro trace <dir>`` summarizes a
trace into the per-stage time breakdown.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import signal as _signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..chaos import ChaosEngine, FaultPlan
from ..chaos import hooks as _chaos_hooks
from ..chaos.hooks import crash_point
from ..errors import CampaignError, ConfigSchemaError, ReproError
from ..obs.bus import EventBus
from ..obs.collectors import MetricsCollector
from ..obs.events import (BackendSelected, BatchCompleted, BatchStarted,
                          CacheWarnings, CampaignFinished, CampaignStarted,
                          PreprocessingDone, ProfileComputed,
                          VariantEvaluated)
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .assignment import PrecisionAssignment
from .cache import ResultCache
from .classification import Outcome
from .evaluation import STAGES, Evaluator, VariantRecord
from .journal import (CampaignJournal, JournalState, has_journal,
                      journal_header)
from .results import search_result_to_dict
from .search.base import (BatchOracle, BudgetExhausted, CampaignInterrupted,
                          SearchResult)
from .search.deltadebug import DeltaDebugSearch

__all__ = ["CONFIG_SCHEMA_VERSION", "MIN_SWEEP_LANES", "CampaignConfig",
           "CampaignSummary", "CampaignResult", "BatchTelemetry",
           "BudgetedOracle", "InterruptFlag", "make_oracle", "run_campaign",
           "run_or_resume"]

#: Version stamped into every serialized :class:`CampaignConfig`
#: (``schema_version`` in the wire payload).  Bump it when a wire
#: field's meaning changes; payloads written by *older* versions keep
#: loading (absent fields take their pinned defaults, so old job files
#: replay after upgrades), while payloads from a newer version are
#: refused rather than silently misread.
CONFIG_SCHEMA_VERSION = 1

#: Fields that never travel over the wire: live Python objects
#: (subscriber callables, an installed fault plan) are attached by the
#: process that runs the campaign, not by the process that submits it.
_RUNTIME_ONLY_FIELDS = ("subscribers", "chaos")


@dataclass(frozen=True)
class CampaignConfig:
    """Experiment-level constants (paper §IV-A) plus execution knobs.

    The config is the single home for everything :func:`run_campaign`
    needs besides the model and its (injectable) collaborators; derive
    variations with :meth:`overriding`.
    """

    nodes: int = 20
    wall_budget_seconds: float = 12 * 3600.0
    timeout_factor: float = 3.0
    min_speedup: float = 1.0
    max_evaluations: int = 2000   # safety net far above any real search
    seed: int = 2024              # the experiment seed (Eq.-1 noise draws)

    # -- real execution (repro.core.parallel / repro.core.cache) ----------
    #: Fortran execution backend: ``"compiled"`` (closure-lowered, the
    #: default) or ``"batched"`` (whole variant waves in one lockstep
    #: sweep with a leading lane axis; see :mod:`repro.fortran.batch`).
    #: Bit-identical by contract, so the backend appears in neither the
    #: evaluation context nor the journal trajectory fingerprint
    #: (``repro.core.journal._TRAJECTORY_CONFIG_FIELDS``) — artifacts
    #: written under one backend are valid under the other.
    backend: str = "compiled"
    workers: int = 1                        # >1 fans batches out to processes
    cache_dir: Optional[str] = None         # persistent result cache location
    worker_timeout_seconds: float = 120.0   # hard per-variant wall timeout
    worker_retries: int = 2                 # attempts beyond the first

    # -- crash safety (repro.core.journal) --------------------------------
    journal_dir: Optional[str] = None       # write-ahead campaign journal
    resume: bool = False                    # replay journal_dir's journal
    snapshot_every: int = 1                 # batches between state snapshots
    handle_signals: bool = True             # SIGINT/SIGTERM end the campaign
                                            # gracefully at the next variant
    #: Base of the deterministic (jitterless — replays must reproduce)
    #: exponential backoff between retries of *transient* worker
    #: failures.  Deterministic TIMEOUT/RUNTIME_ERROR outcomes are
    #: classified results, never retried, and never backed off.
    retry_backoff_seconds: float = 0.5
    retry_backoff_max_seconds: float = 8.0

    # -- fault hardening (repro.chaos) -------------------------------------
    #: Deterministic fault-injection schedule for this run
    #: (:class:`repro.chaos.FaultPlan`); None runs chaos-free.  An
    #: execution knob like ``workers``: excluded from the journal's
    #: trajectory fingerprint, so a campaign killed under chaos resumes
    #: chaos-free to byte-identical results.
    chaos: Optional[FaultPlan] = None
    #: Quarantine poison variants: a variant whose worker attempts all
    #: failed the *same* way is recorded as a permanent typed failure
    #: (journaled, replayed on resume) instead of a transient downgrade,
    #: so the search continues and never re-poisons a fresh allocation.
    quarantine: bool = True
    #: Consecutive worker-pool deaths (retry rounds with zero completed
    #: results) tolerated within one batch before the circuit breaker
    #: stops rebuilding the pool and downgrades the remaining variants
    #: immediately — infrastructure that is down stays down for the
    #: batch; burning the whole retry budget against it helps nobody.
    pool_breaker_threshold: int = 5
    #: Grace period for reaping worker processes on ``close()``.  A hung
    #: worker ignores its executor sentinel forever; after this many
    #: seconds it is terminated, then SIGKILLed — close never wedges.
    pool_reap_seconds: float = 5.0

    # -- numerical profiling (repro.numerics) ------------------------------
    #: Where to persist/load the shadow-execution numerical profile.
    #: When the file exists it is loaded (~0 simulated cost); otherwise a
    #: profile is computed (charged against the budget) and saved here.
    #: A path also opts plain delta-debugging searches into profile-aware
    #: candidate ordering (``atom_ranker``); profile-guided searches
    #: (``wants_profile``) get a profile with or without a path.
    profile_path: Optional[str] = None

    # -- observability (repro.obs) -----------------------------------------
    #: Directory for the crash-safe span trace (``trace.jsonl``) and the
    #: Prometheus metrics export (``metrics.prom``); None disables both.
    trace_dir: Optional[str] = None
    #: Event-bus subscribers attached for the campaign's duration.  A
    #: subscriber is any callable taking one event; restrict it to
    #: specific event types with :func:`repro.obs.subscribes_to`.
    #: Subscribers may abort the campaign by raising.
    subscribers: tuple = ()

    def __post_init__(self):
        # Accept any iterable of subscribers but store a tuple: configs
        # are frozen value objects and must stay safely shareable.
        if not isinstance(self.subscribers, tuple):
            object.__setattr__(self, "subscribers",
                               tuple(self.subscribers))

    def overriding(self, **overrides) -> "CampaignConfig":
        """A copy of this config with the given fields replaced.

        The config-first idiom for one-off variations::

            run_campaign(model, base_config.overriding(workers=8))

        Unknown field names raise ``TypeError`` immediately — silently
        ignored knobs are how override bugs hide.
        """
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - names
        if unknown:
            raise TypeError(
                f"unknown CampaignConfig field(s): {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)

    # -- wire format (the campaign service's submission schema) ------------

    @classmethod
    def wire_fields(cls) -> tuple[str, ...]:
        """Names of the serializable fields, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls)
                     if f.name not in _RUNTIME_ONLY_FIELDS)

    @classmethod
    def wire_defaults(cls) -> dict:
        """The pinned default for every wire field.

        These values are part of the wire contract: an old job file
        that omits a field replays with the default *that build pinned*,
        so ``tests/test_service_schema.py`` asserts this dict against a
        literal — changing a default without bumping
        :data:`CONFIG_SCHEMA_VERSION` fails there first.
        """
        defaults = {}
        for f in dataclasses.fields(cls):
            if f.name not in _RUNTIME_ONLY_FIELDS:
                defaults[f.name] = f.default
        return defaults

    def to_payload(self) -> dict:
        """The JSON-ready wire dict (``schema_version`` + wire fields).

        Refuses configs carrying runtime-only state: a config with live
        subscribers or an installed fault plan is not a value and must
        not silently lose them in transit.
        """
        for name in _RUNTIME_ONLY_FIELDS:
            if getattr(self, name):
                raise ConfigSchemaError(
                    f"CampaignConfig.{name} is runtime-only and cannot "
                    f"be serialized; attach it on the receiving side")
        payload = {"schema_version": CONFIG_SCHEMA_VERSION}
        for name in self.wire_fields():
            payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_payload(cls, payload: object) -> "CampaignConfig":
        """Validate a wire dict and build the config it describes.

        Unknown keys, runtime-only keys, wrong-typed values, and
        payloads from a newer schema version all raise
        :class:`~repro.errors.ConfigSchemaError` — a silently ignored
        knob is how a submitted job runs with the wrong budget.
        """
        if not isinstance(payload, dict):
            raise ConfigSchemaError(
                f"campaign config payload must be a JSON object, "
                f"got {type(payload).__name__}")
        version = payload.get("schema_version")
        if version is None:
            raise ConfigSchemaError(
                "campaign config payload has no schema_version field")
        if not isinstance(version, int) or version < 1:
            raise ConfigSchemaError(
                f"bad schema_version {version!r} (expected a positive "
                f"integer)")
        if version > CONFIG_SCHEMA_VERSION:
            raise ConfigSchemaError(
                f"campaign config payload uses schema version {version}; "
                f"this build reads versions <= {CONFIG_SCHEMA_VERSION} — "
                f"upgrade before replaying it")
        wire = set(cls.wire_fields())
        fields = {}
        for key, value in payload.items():
            if key == "schema_version":
                continue
            if key in _RUNTIME_ONLY_FIELDS:
                raise ConfigSchemaError(
                    f"config field {key!r} is runtime-only and may not "
                    f"appear in a wire payload")
            if key not in wire:
                raise ConfigSchemaError(
                    f"unknown campaign config field {key!r} "
                    f"(known: {sorted(wire)})")
            fields[key] = _check_wire_type(key, value)
        return cls(**fields)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigSchemaError(
                f"campaign config payload is not valid JSON: {exc}"
            ) from exc
        return cls.from_payload(payload)


def _check_wire_type(name: str, value: object) -> object:
    """Enforce the wire field's pinned type; int-for-float is widened.

    ``bool`` is checked first because it subclasses ``int`` — a config
    with ``workers: true`` is a bug, not a worker count.
    """
    expected = _WIRE_FIELD_TYPES[name]
    if expected is bool:
        if isinstance(value, bool):
            return value
    elif expected is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif expected is float:
        if (isinstance(value, (int, float))
                and not isinstance(value, bool)):
            return float(value)
    elif expected == "str?":
        if value is None or isinstance(value, str):
            return value
    elif expected is str:
        if isinstance(value, str):
            return value
    raise ConfigSchemaError(
        f"config field {name!r} expects "
        f"{'str or null' if expected == 'str?' else expected.__name__}, "
        f"got {value!r}")


#: Wire field -> pinned JSON type ("str?" = string or null).  A field
#: added to CampaignConfig must be classified here (or declared
#: runtime-only) before it can travel; tests assert the sets match.
_WIRE_FIELD_TYPES: dict[str, object] = {
    "nodes": int,
    "wall_budget_seconds": float,
    "timeout_factor": float,
    "min_speedup": float,
    "max_evaluations": int,
    "seed": int,
    "backend": str,
    "workers": int,
    "cache_dir": "str?",
    "worker_timeout_seconds": float,
    "worker_retries": int,
    "journal_dir": "str?",
    "resume": bool,
    "snapshot_every": int,
    "handle_signals": bool,
    "retry_backoff_seconds": float,
    "retry_backoff_max_seconds": float,
    "quarantine": bool,
    "pool_breaker_threshold": int,
    "pool_reap_seconds": float,
    "profile_path": "str?",
    "trace_dir": "str?",
}


@dataclass
class BatchTelemetry:
    """Structured observability record for one evaluated batch.

    Built when the batch starts; planning and execution count into it,
    and :meth:`BudgetedOracle.evaluate_batch` fills in the wall, sim and
    stage fields once the batch resolves."""

    batch_index: int
    size: int                 # assignments in the batch
    dispatched: int = 0       # cache misses sent for evaluation
    completed: int = 0        # dispatched variants that produced a record
    cache_hits: int = 0       # served from memory or disk (~0 node-seconds)
    disk_hits: int = 0        # subset of cache_hits served from disk
    retries: int = 0          # worker attempts repeated after crash/hang
    failures: int = 0         # variants downgraded to an error outcome
    wall_seconds: float = 0.0  # real elapsed time for the batch
    sim_seconds: float = 0.0  # simulated node-pool charge
    replayed: int = 0         # subset of cache_hits served from the journal
    backoff_seconds: float = 0.0   # real seconds slept between worker retries
    quarantined: int = 0      # subset of failures recorded as permanent
    vector_lanes: int = 0     # lanes the batched backend kept vectorized
    fallback_lanes: int = 0   # lanes re-run on the compiled scalar path
    stored_runs: int = 0      # dispatched variants finalized from a stored
                              # model run (a service's RunStore)
    #: Simulated charge decomposed over pipeline stages (the slowest
    #: member of each node-pool wave sets the wave's charge, so its
    #: stage split is the wave's stage split); values sum to
    #: ``sim_seconds``.
    stage_sim: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


#: Break-even wave width of the ``batched`` backend.  A serial batched
#: wave with at least this many fresh lanes (after cache hits, journal
#: replays and in-batch duplicates are resolved) runs as one
#: :class:`~repro.fortran.batch.VariantBatch` sweep; a narrower one runs
#: on the compiled scalar path, one variant at a time.  A sweep costs
#: about as much as its longest lane plus a fixed per-statement overhead
#: worth a few compiled runs, so narrow waves cannot pay it back.  The
#: value minimises the worst slowdown against the faster engine over
#: the four-model table in EXPERIMENTS.md ("Batched backend"), which
#: ``benchmarks/wave_break_even.py`` regenerates.
MIN_SWEEP_LANES = 8


#: A fresh variant left to execute: its assignment and reserved id.
_Task = tuple[PrecisionAssignment, int]
#: One plan entry per assignment: ``("rec", record, source)`` for a
#: variant resolved while planning, ``("task", index, None)`` for one
#: resolved by executing ``tasks[index]``.
_PlanEntry = tuple[str, object, Optional[str]]
#: A task's committed outcome: its record, its source (``"fresh"`` or
#: ``"worker-failure"``) and the evaluation's real wall in seconds, None
#: where unknown (a swept lane, a synthesized failure).
_Executed = tuple[VariantRecord, str, Optional[float]]


@dataclass
class InterruptFlag:
    """Cooperative shutdown request shared by the signal handler and the
    oracle.  The oracle polls it between batches and between variants
    (serial) / retry rounds (parallel) and raises
    :class:`CampaignInterrupted` — the in-flight work is drained, the
    journal is already flushed (every append is fsynced), and the
    campaign returns a partial result instead of a stack trace."""

    requested: bool = False
    reason: str = ""
    signals_seen: int = 0


@contextlib.contextmanager
def _signal_guard(flag: InterruptFlag, enabled: bool):
    """Install SIGINT/SIGTERM handlers that set *flag* for the duration.

    Only possible from the main thread (``signal.signal`` refuses
    elsewhere); campaigns run from worker threads simply keep the
    process's existing disposition.  A second signal restores impatient
    semantics: it raises ``KeyboardInterrupt`` immediately.
    """
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield flag
        return

    def handler(signum, frame):
        flag.signals_seen += 1
        flag.requested = True
        flag.reason = _signal.Signals(signum).name
        if flag.signals_seen > 1:
            raise KeyboardInterrupt(f"forced by repeated {flag.reason}")

    previous = {}
    try:
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            previous[sig] = _signal.signal(sig, handler)
    except (ValueError, OSError):      # pragma: no cover - exotic platforms
        pass
    try:
        yield flag
    finally:
        for sig, prev in previous.items():
            _signal.signal(sig, prev)


@dataclass
class BudgetedOracle:
    """Batch oracle enforcing the node pool and wall-clock budget.

    Every batch goes through :meth:`_evaluate` in three steps:
    :meth:`_plan` resolves what is already known and reserves variant
    ids, :meth:`_execute` runs the fresh variants, and :meth:`_resolve`
    walks the plan in batch order, emitting each record.  Only
    :meth:`_execute` differs between oracles: this one evaluates
    in-process (one variant at a time, or one batched sweep), and
    :class:`repro.core.parallel.ParallelOracle` overrides it to fan the
    variants out to a worker pool.  All honour the persistent result
    cache and charge ~0 simulated node-seconds for cache hits.
    """

    evaluator: Evaluator
    config: CampaignConfig
    cache: Optional[ResultCache] = None
    wall_seconds_used: float = 0.0
    evaluations: int = 0
    telemetry: list[BatchTelemetry] = field(default_factory=list)
    #: Crash-safety collaborators, wired up by :func:`run_campaign`.
    journal: Optional[CampaignJournal] = None
    replay: Optional[JournalState] = None
    interrupt: Optional[InterruptFlag] = None
    #: Observability collaborators.  The bus and tracer default to inert
    #: instances (an unsubscribed bus delivers to no one, ``Tracer(None)``
    #: writes nothing) so directly constructed oracles behave exactly as
    #: before; :func:`run_campaign` wires live ones.
    bus: EventBus = field(default_factory=EventBus)
    tracer: Tracer = field(default_factory=Tracer)

    def evaluate_batch(
        self, assignments: list[PrecisionAssignment]
    ) -> list[VariantRecord]:
        self._check_interrupt()
        # Budget semantics mirror PBS: each allocation (process) gets a
        # fresh wall budget.  Replayed batches charge ~0, so a resumed
        # campaign spends its budget only on genuinely new work — the
        # dead allocation's spend is reported via the journal instead.
        if self.wall_seconds_used >= self.config.wall_budget_seconds:
            raise BudgetExhausted(
                f"wall budget {self.config.wall_budget_seconds:.0f}s spent")
        if self.evaluations + len(assignments) > self.config.max_evaluations:
            raise BudgetExhausted(
                f"evaluation cap {self.config.max_evaluations} reached")

        started = time.perf_counter()
        batch_index = len(self.telemetry)
        if self.journal is not None:
            # Write-ahead intent: if we die past this point, the journal
            # names the batch that was in flight.
            self.journal.batch_intent(
                batch_index, [list(a.key()) for a in assignments])
        self.bus.emit(BatchStarted(batch_index=batch_index,
                                   size=len(assignments)))
        with self.tracer.span("batch", index=batch_index,
                              size=len(assignments)) as batch_span:
            records, hit_flags, telemetry = self._evaluate(assignments)
            self.evaluations += len(assignments)

            # Node-pool scheduling: variants run in waves of `nodes`; a
            # wave takes as long as its slowest member.  Cache hits occupy
            # no node (nothing is compiled or run for them), so they are
            # free.  The slowest member also sets the wave's stage split:
            # decomposing *its* cost attributes the batch charge over
            # transform/compile/run without changing the total.
            effective = [0.0 if hit else r.eval_wall_seconds
                         for r, hit in zip(records, hit_flags)]
            nodes = self.config.nodes
            waves = max(1, math.ceil(len(records) / nodes))
            batch_seconds = 0.0
            stage_sim: dict[str, float] = {}
            for w in range(waves):
                wave = effective[w * nodes:(w + 1) * nodes]
                wave_max = max(wave, default=0.0)
                batch_seconds += wave_max
                if wave_max <= 0.0:
                    continue
                slowest = records[w * nodes + wave.index(wave_max)]
                for stage, sim in self.evaluator.stage_timings(slowest):
                    stage_sim[stage] = stage_sim.get(stage, 0.0) + sim
            batch_span.set_sim(batch_seconds)
            batch_wall = time.perf_counter() - started
            for stage in STAGES:
                sim = stage_sim.get(stage, 0.0)
                if sim > 0.0:
                    # Wall time is attributed pro-rata: stages share the
                    # batch's real elapsed time as they share its charge.
                    self.tracer.emit_span(
                        stage, wall_seconds=batch_wall * sim / batch_seconds,
                        sim_seconds=sim, attrs={"batch": batch_index})
        self.wall_seconds_used += batch_seconds
        if self.journal is not None:
            self.journal.batch_done(batch_index, batch_seconds,
                                    self.wall_seconds_used, self.evaluations)
        telemetry.wall_seconds = batch_wall
        telemetry.sim_seconds = batch_seconds
        telemetry.stage_sim = stage_sim
        self.telemetry.append(telemetry)
        # Emitted after the journal's batch_done commit so a subscriber
        # that aborts the campaign (test kill hooks) leaves the batch
        # durably completed — the semantics the resume suite pins down.
        self.bus.emit(BatchCompleted(telemetry=telemetry))
        crash_point("campaign.batch_committed")
        return records

    # ------------------------------------------------------------------

    def _check_interrupt(self) -> None:
        """Raise :class:`CampaignInterrupted` if shutdown was requested.

        Polled between batches, between variants (while planning, and
        before each serial evaluation), and between retry rounds
        (parallel): the granularity at which in-flight work can be
        abandoned without losing journaled progress."""
        if self.interrupt is not None and self.interrupt.requested:
            raise CampaignInterrupted(
                f"campaign interrupted by {self.interrupt.reason or 'signal'}")

    def _external_record(self, key: tuple[int, ...], vid: int
                         ) -> tuple[Optional[VariantRecord], str]:
        """Resolve a variant from the journal replay or the persistent
        cache — ("replay"/"disk"), both under the variant-id contract.

        The journal is consulted first: on resume it is authoritative
        for the previous allocation's trajectory, and serving it keeps
        replayed batches at ~0 cost even without a shared cache dir.
        """
        if self.replay is not None:
            record = self.replay.lookup(key, vid)
            if record is not None:
                return record, "replay"
        if self.cache is not None:
            record = self.cache.get(key, vid)
            if record is not None:
                return record, "disk"
        return None, ""

    def _emit_variant(self, batch_index: int, record: VariantRecord,
                      source: str) -> None:
        """Publish one variant's resolution on the bus.

        The payload is deterministic by construction — ids, outcomes,
        provenance, and *simulated* seconds only — so serial and
        parallel runs of the same seed emit identical variant-level
        event multisets (real wall clock lives in the span trace).
        """
        charged = source in ("fresh", "worker-failure")
        self.bus.emit(VariantEvaluated(
            batch_index=batch_index,
            variant_id=record.variant_id,
            outcome=record.outcome.name,
            source=source,
            sim_seconds=record.eval_wall_seconds if charged else 0.0,
            stages=self.evaluator.stage_timings(record) if charged else (),
            speedup=record.speedup,
            fraction_lowered=record.fraction_lowered,
        ))

    # ------------------------------------------------------------------

    def _evaluate(
        self, assignments: list[PrecisionAssignment]
    ) -> tuple[list[VariantRecord], list[bool], BatchTelemetry]:
        """Resolve one batch: (records, per-record cache-hit flags, the
        batch's telemetry with its counters filled in).

        The one batch routine every oracle shares: plan the batch, run
        its fresh variants on this oracle's executor, then resolve the
        plan in batch order.  Records, events, spans, journal rows and
        cache writes are therefore the same bytes, in the same order,
        whatever executes the variants (the three-way differential
        fuzzer and the golden digests gate this).
        """
        batch_index = len(self.telemetry)
        stats = BatchTelemetry(batch_index=batch_index,
                               size=len(assignments))
        plan, tasks = self._plan(assignments, stats)
        executed = self._execute(batch_index, tasks, stats)
        records, hit_flags = self._resolve(batch_index, plan, tasks,
                                           executed, stats)
        return records, hit_flags, stats

    def _plan(self, assignments: list[PrecisionAssignment],
              stats: BatchTelemetry
              ) -> tuple[list[_PlanEntry], list[_Task]]:
        """Resolve everything the batch can without running a variant.

        Per assignment, in order: poll for an interrupt, look the variant
        up in memory, fold it onto an earlier miss of the same batch, or
        else reserve the next variant id and try the journal replay and
        the persistent cache.  Ids are reserved in batch order for
        first-occurrence misses only — the invariant every executor must
        preserve, because ids key the Eq.-1 noise sampling.

        Returns the plan, one entry per assignment, and the tasks left
        to execute.
        """
        plan: list[_PlanEntry] = []
        tasks: list[_Task] = []
        task_by_key: dict[tuple[int, ...], int] = {}
        for assignment in assignments:
            self._check_interrupt()
            record = self.evaluator.lookup(assignment)
            if record is not None:
                stats.cache_hits += 1
                plan.append(("rec", record, "memory"))
                continue
            key = assignment.key()
            if key in task_by_key:
                # Duplicate within the batch: one evaluation, both rows —
                # serial execution would serve the repeat from the
                # in-memory cache after the first evaluation.
                stats.cache_hits += 1
                plan.append(("task", task_by_key[key], None))
                continue
            vid = self.evaluator.reserve_id()
            record, source = self._external_record(key, vid)
            if record is not None:
                stats.cache_hits += 1
                if source == "replay":
                    stats.replayed += 1
                else:
                    stats.disk_hits += 1
                self.evaluator.admit(record)
                plan.append(("rec", record, source))
                continue
            task_by_key[key] = len(tasks)
            tasks.append((assignment, vid))
            plan.append(("task", len(tasks) - 1, None))
        stats.dispatched = len(tasks)
        return plan, tasks

    def _execute(self, batch_index: int,
                 tasks: list[_Task], stats: BatchTelemetry
                 ) -> Optional[list[_Executed]]:
        """Run the batch's fresh variants: the step oracles differ in.

        Returns one committed ``(record, source, wall)`` per task, in
        task order, or None to have :meth:`_resolve` evaluate each task
        on the scalar path at its first occurrence, so that events
        interleave with evaluation.  Serially, a ``batched`` wave of at
        least :data:`MIN_SWEEP_LANES` tasks runs as one vectorized
        sweep; a narrower one runs exactly as ``backend="compiled"``
        would.  Only the scalar path consults the evaluator's run
        store: a sweep, like the worker pool, runs every task.
        """
        if (self.evaluator.backend == "batched"
                and len(tasks) >= MIN_SWEEP_LANES):
            return self._sweep(batch_index, tasks, stats)
        return None

    def _resolve(self, batch_index: int,
                 plan: list[_PlanEntry], tasks: list[_Task],
                 executed: Optional[list[_Executed]],
                 stats: BatchTelemetry
                 ) -> tuple[list[VariantRecord], list[bool]]:
        """Walk the plan in batch order, emitting each record's
        resolution exactly as a scalar serial oracle would.

        A task's first occurrence is the miss that paid for the
        evaluation; its repeats within the batch are ``"memory"`` hits.
        Returns the records and their per-record cache-hit flags.
        """
        records: list[VariantRecord] = []
        hit_flags: list[bool] = []
        resolved: dict[int, VariantRecord] = {}
        for kind, payload, source in plan:
            if kind == "rec":
                record, hit = payload, True
            elif payload in resolved:
                record, hit, source = resolved[payload], True, "memory"
            else:
                hit = False
                if executed is None:
                    record = self._evaluate_scalar(batch_index,
                                                   *tasks[payload], stats)
                    source = "fresh"
                    stats.completed += 1
                else:
                    record, source, wall = executed[payload]
                    self._trace_variant(record, wall, stored=False)
                resolved[payload] = record
            records.append(record)
            hit_flags.append(hit)
            self._emit_variant(batch_index, record, source)
        return records, hit_flags

    def _evaluate_scalar(self, batch_index: int,
                         assignment: PrecisionAssignment, vid: int,
                         stats: BatchTelemetry) -> VariantRecord:
        """Evaluate one fresh variant on the scalar path and commit it.

        Polls for an interrupt first: a serial batch can be hours of
        real work, and completed variants are already journaled, so
        stopping here loses nothing.  A run the evaluator's store holds
        is finalized without running the model.  The variant span
        carries the evaluation's real wall time."""
        self._check_interrupt()
        started = time.perf_counter()
        run = self.evaluator.stored_run(assignment)
        if run is None:
            record = self.evaluator.evaluate_assigned(assignment, vid)
        else:
            stats.stored_runs += 1
            record = self.evaluator.finalize(assignment, vid, run)
        self._trace_variant(record, time.perf_counter() - started,
                            stored=run is not None)
        self._commit(batch_index, record)
        return record

    def _trace_variant(self, record: VariantRecord, wall: Optional[float],
                       stored: bool) -> None:
        self.tracer.emit_span(
            "variant", wall_seconds=wall,
            sim_seconds=record.eval_wall_seconds,
            attrs={"id": record.variant_id,
                   "outcome": record.outcome.name, "stored": stored})

    def _commit(self, batch_index: int, record: VariantRecord) -> None:
        """Admit a fresh record, then persist it to the cache and the
        journal."""
        self.evaluator.admit(record)
        if self.cache is not None:
            self.cache.put(record)
        if self.journal is not None:
            self.journal.variant(batch_index, record)

    def _sweep(self, batch_index: int, tasks: list[_Task],
               stats: BatchTelemetry) -> list[_Executed]:
        """Run *tasks* as one lockstep sweep in this process and commit
        its records."""
        started = time.perf_counter()
        records, sweep = self.evaluator.evaluate_assigned_batch(tasks)
        return self._commit_sweep(batch_index, records, sweep,
                                  time.perf_counter() - started, stats)

    def _commit_sweep(self, batch_index: int, records: list[VariantRecord],
                      sweep, wall_seconds: float,
                      stats: BatchTelemetry) -> list[_Executed]:
        """Account for a finished sweep and commit its records in task
        order, wherever it ran (this process, or one pool worker).

        The lowering span records the sweep's wall, the wave's width,
        how many lanes stayed on the vector path, and why the others
        fell back; how that wall split between the vector sweep and the
        fallback lanes' replay, and how many procedures the sweep
        lowered; and the longest and mean lane's op total (a sweep
        costs about as much as its longest lane).  Lanes interleave in
        a sweep, so its variants trace with unknown wall."""
        stats.completed = len(records)
        stats.vector_lanes = sweep.vector_lanes
        stats.fallback_lanes = sweep.fallback_lanes
        self.tracer.emit_span(
            "lowering", wall_seconds=wall_seconds,
            sim_seconds=0.0,
            attrs={"batch": batch_index, "width": len(records),
                   "vector_lanes": sweep.vector_lanes,
                   "fallback_lanes": sweep.fallback_lanes,
                   "fallback_reasons": dict(sweep.fallback_reasons),
                   "sweep_seconds": sweep.sweep_seconds,
                   "lane_ops_max": sweep.lane_ops_max,
                   "lane_ops_mean": sweep.lane_ops_mean,
                   "replay_seconds": sweep.replay_seconds,
                   "procedures_lowered": sweep.procedures_lowered})
        for record in records:
            self._commit(batch_index, record)
        return [(record, "fresh", None) for record in records]

    def close(self) -> None:
        """Release execution resources (worker pools); idempotent."""


def make_oracle(
    model,                                  # repro.models.base.ModelCase
    config: CampaignConfig,
    evaluator: Optional[Evaluator] = None,
) -> BudgetedOracle:
    """The oracle for *config*: serial, cached, and/or process-parallel."""
    if evaluator is None:
        evaluator = Evaluator.for_config(model, config)
    cache = None
    if config.cache_dir:
        cache = ResultCache.for_evaluator(config.cache_dir, evaluator)
    if config.workers > 1:
        from .parallel import ParallelOracle
        return ParallelOracle.for_model(model, config=config,
                                        evaluator=evaluator, cache=cache)
    return BudgetedOracle(evaluator=evaluator, config=config, cache=cache)


@dataclass
class CampaignSummary:
    """One Table-II row."""

    model: str
    total: int
    pass_pct: float
    fail_pct: float
    timeout_pct: float
    error_pct: float
    best_speedup: float
    finished: bool

    def as_row(self) -> tuple:
        return (self.model, self.total, self.pass_pct, self.fail_pct,
                self.timeout_pct, self.error_pct, self.best_speedup)


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    model_name: str
    search: SearchResult
    evaluator: Evaluator
    oracle: BudgetedOracle
    preprocessing_seconds: float = 0.0
    preprocessing_note: str = ""
    #: The campaign stopped early on SIGINT/SIGTERM (graceful shutdown:
    #: in-flight work drained, journal flushed, partial result returned).
    interrupted: bool = False
    #: First batch that needed fresh work after a journal resume (i.e.
    #: batches below this index were replayed); None for fresh runs.
    resumed_from_batch: Optional[int] = None
    journal_dir: Optional[str] = None
    #: Live metrics registry fed from the campaign's event bus; also
    #: exported as ``metrics.prom`` in ``trace_dir`` when tracing.
    metrics: Optional[MetricsRegistry] = None
    trace_dir: Optional[str] = None
    #: Numerical-profile provenance (empty when the search ran unguided):
    #: digest of the guiding profile, where it came from ("computed" /
    #: "loaded" / "injected"), and its simulated cost.  The cost is the
    #: profile's *as-if* charge — deterministic regardless of whether
    #: this particular run computed or merely loaded the profile (the
    #: actually-charged amount lives in the span trace).
    profile_digest: str = ""
    profile_source: str = ""
    profile_sim_seconds: float = 0.0
    #: Result-cache load warnings (unreadable entries skipped).
    cache_warnings: tuple = ()

    @property
    def records(self) -> list[VariantRecord]:
        return self.search.records

    def summary(self) -> CampaignSummary:
        recs = self.records
        n = len(recs)
        if n == 0:
            raise CampaignError("campaign evaluated no variants")

        def pct(outcome: Outcome) -> float:
            return 100.0 * sum(1 for r in recs if r.outcome is outcome) / n

        return CampaignSummary(
            model=self.model_name,
            total=n,
            pass_pct=pct(Outcome.PASS),
            fail_pct=pct(Outcome.FAIL),
            timeout_pct=pct(Outcome.TIMEOUT),
            error_pct=pct(Outcome.RUNTIME_ERROR),
            best_speedup=self.search.best_speedup(),
            finished=self.search.finished,
        )

    def charged_profiling_seconds(self) -> float:
        """Simulated seconds this run actually spent profiling (0.0 when
        the profile was loaded or injected rather than computed)."""
        return (self.profile_sim_seconds
                if self.profile_source == "computed" else 0.0)

    def wall_hours(self) -> float:
        return (self.oracle.wall_seconds_used + self.preprocessing_seconds
                + self.charged_profiling_seconds()) / 3600.0

    def deterministic_metrics(self) -> dict:
        """Search-derived metrics safe to embed in :meth:`to_json`.

        Computed from the search records alone — outcome counts,
        evaluation/batch totals, and the simulated spend decomposed over
        pipeline stages — so the values are identical across worker
        counts, cache states, and kill/resume cycles.  The live
        :attr:`metrics` registry (which also carries real wall clock and
        cache/retry counters) is deliberately *not* embedded.
        """
        recs = self.search.records
        outcomes = {o.name: 0 for o in Outcome}
        for r in recs:
            outcomes[r.outcome.name] += 1
        stage_sim = {"preprocess": self.preprocessing_seconds,
                     "profile": self.profile_sim_seconds}
        stage_sim.update({s: 0.0 for s in STAGES})
        for r in recs:
            for stage, sim in self.evaluator.stage_timings(r):
                stage_sim[stage] += sim
        return {
            "evaluations": len(recs),
            "batches": self.search.batches,
            "outcomes": outcomes,
            "sim_seconds_by_stage": stage_sim,
        }

    def to_json(self) -> str:
        """Canonical serialization of everything the search decided.

        Deliberately excludes execution telemetry (real wall times, cache
        and worker counters) and recovery metadata (``interrupted``,
        ``resumed_from_batch``): the payload must be byte-identical
        across worker counts, cache states, and kill/resume cycles —
        the determinism contract the tests pin down.  The embedded
        ``metrics`` section honours that contract (see
        :meth:`deterministic_metrics`).
        """
        return json.dumps({
            "model": self.model_name,
            "metrics": self.deterministic_metrics(),
            "preprocessing_note": self.preprocessing_note,
            "search": search_result_to_dict(self.search),
        }, sort_keys=True)


def _resolve_profile(model, config: CampaignConfig, algorithm):
    """Resolve the numerical profile the algorithm wants (or can use).

    Returns ``(profile, source, charged_sim_seconds, wall_seconds)``,
    or ``(None, "", 0.0, 0.0)`` when the algorithm takes no profile
    guidance.  An algorithm declares a hard requirement with a truthy
    ``wants_profile`` attribute (:class:`~repro.core.search
    .profile_guided.ProfileGuidedSearch`); an ``atom_ranker`` attribute
    (delta debugging and its screened wrapper) opts into guidance only
    when ``config.profile_path`` is set.  Loading an existing profile
    charges ~0 simulated seconds — the whole point of persisting it —
    while computing one charges its shadow-execution cost.
    """
    wants = bool(getattr(algorithm, "wants_profile", False))
    takes_ranker = hasattr(algorithm, "atom_ranker")
    if not wants and not (takes_ranker and config.profile_path):
        return None, "", 0.0, 0.0
    if wants and getattr(algorithm, "profile", None) is not None:
        return algorithm.profile, "injected", 0.0, 0.0
    from ..numerics import NumericalProfile, profile_model
    path = Path(config.profile_path) if config.profile_path else None
    started = time.perf_counter()
    if path is not None and path.exists():
        profile = NumericalProfile.load(path)
        if profile.model != model.name:
            raise CampaignError(
                f"profile at {path} was recorded for model "
                f"'{profile.model}', not '{model.name}'")
        return profile, "loaded", 0.0, time.perf_counter() - started
    profile = profile_model(model)
    if path is not None:
        profile.save(path)
    return (profile, "computed", profile.sim_seconds,
            time.perf_counter() - started)


def run_campaign(
    model,                                  # repro.models.base.ModelCase
    config: Optional[CampaignConfig] = None,
    algorithm=None,
    evaluator: Optional[Evaluator] = None,
) -> CampaignResult:
    """Run the full tuning campaign for one model case.

    The config-first API: everything about *how* the campaign executes —
    seed, workers, cache/journal/trace directories, resume, subscribers —
    lives on :class:`CampaignConfig` (derive one-off variations with
    :meth:`CampaignConfig.overriding`).  *algorithm* and *evaluator*
    remain injectable collaborators.

    With ``config.resume`` the journal directory written by a previous
    (killed, interrupted, or even finished) campaign is replayed: its
    completed work is served at ~0 cost and the search continues from
    the exact batch where the previous process died, producing a result
    byte-identical to an uninterrupted run.  Journaling continues into
    the same directory.
    """
    config = config or CampaignConfig()
    journal_dir = config.journal_dir
    if config.resume and not journal_dir:
        raise CampaignError("resume requested but no journal directory "
                            "given (journal_dir / --journal-dir)")
    if evaluator is None:
        evaluator = Evaluator.for_config(model, config)
    if algorithm is None:
        algorithm = DeltaDebugSearch(min_speedup=config.min_speedup)

    # Numerical profiling (repro.numerics): resolved before the journal
    # header is written so the profile's digest participates in the
    # algorithm fingerprint — a resumed campaign guided by a different
    # profile would follow a different trajectory and must be refused.
    profile, profile_source, profile_charge, profile_wall = \
        _resolve_profile(model, config, algorithm)
    profile_digest = ""
    if profile is not None:
        profile_digest = profile.digest()
        if getattr(algorithm, "wants_profile", False):
            algorithm.profile = profile
        else:
            algorithm.atom_ranker = profile.score_of
        if hasattr(algorithm, "profile_digest"):
            algorithm.profile_digest = profile_digest

    oracle = make_oracle(model, config, evaluator=evaluator)

    # Observability: one bus per campaign — the internal metrics
    # collector first, then the config's subscribers in order.  Worker
    # processes never see the bus; records returning over the result
    # pipe are re-emitted by the parent (see repro.core.parallel), so
    # parallel runs publish the same variant-level events as serial.
    bus = EventBus()
    registry = MetricsRegistry()
    MetricsCollector(registry).attach(bus)
    for subscriber in config.subscribers:
        bus.subscribe(subscriber)
    tracer = Tracer(config.trace_dir, model=model.name,
                    workers=config.workers, seed=config.seed)
    oracle.bus = bus
    oracle.tracer = tracer

    # Fault injection (repro.chaos): installed before the journal opens
    # so every registered crash point — journal.header included — is
    # live.  Uninstalled in the outermost finally; a SIGKILL delivered
    # by the engine needs no cleanup by design.
    chaos_engine: Optional[ChaosEngine] = None
    if config.chaos is not None and not config.chaos.empty:
        chaos_engine = ChaosEngine(config.chaos, bus=bus, tracer=tracer)
        _chaos_hooks.install(chaos_engine)

    # Crash safety: open (or resume) the write-ahead journal, refusing
    # to replay a journal written for a different campaign.
    journal: Optional[CampaignJournal] = None
    resumed_from_batch: Optional[int] = None
    if journal_dir:
        header = journal_header(evaluator, model.space, algorithm, config)
        if config.resume:
            state = JournalState.load(journal_dir)
            state.validate(header)
            resumed_from_batch = state.completed_batches
            journal = CampaignJournal.resume(journal_dir, header, state)
            oracle.replay = state
        else:
            journal = CampaignJournal.create(journal_dir, header)
        oracle.journal = journal
        if hasattr(algorithm, "snapshot_hook") and config.snapshot_every > 0:
            algorithm.snapshot_hook = _snapshot_cadence(
                journal, config.snapshot_every)
    flag = InterruptFlag()
    oracle.interrupt = flag

    bus.emit(CampaignStarted(
        model=model.name, algorithm=type(algorithm).__name__,
        workers=config.workers, nodes=config.nodes,
        wall_budget_seconds=config.wall_budget_seconds,
        max_evaluations=config.max_evaluations,
        resumed_from_batch=resumed_from_batch,
    ))
    backend = getattr(evaluator, "backend", config.backend)
    bus.emit(BackendSelected(model=model.name, backend=backend,
                             workers=config.workers))
    # Compile-time counters are wall-side observability (they depend on
    # process history through the shared code cache), so they go to the
    # trace/metrics only — never into deterministic result JSON.
    from ..fortran.compile import CODE_CACHE
    compile_stats0 = CODE_CACHE.stats()

    try:
        with tracer.span("campaign", model=model.name) as campaign_span:
            # T0: one-time preprocessing — search-space creation,
            # interprocedural flow graph, taint reduction.  Charged ~1% of
            # the budget, matching the artifact appendix's reported share.
            from ..fortran.callgraph import build_graphs
            from ..fortran.taint import reduce_program

            with tracer.span("preprocess") as pre_span:
                build_graphs(model.index)
                targets = {a.qualified for a in model.atoms}
                preprocessing_note = ""
                try:
                    reduce_program(model.index, targets)
                except ReproError as exc:
                    # Reduction failures must not kill a campaign: the
                    # full program can always be transformed directly in
                    # this implementation.  The failure is surfaced on
                    # the result instead of being swallowed.
                    preprocessing_note = (f"taint reduction failed "
                                          f"({type(exc).__name__}: {exc}); "
                                          f"tuning the unreduced program")
                preprocessing = 0.01 * config.wall_budget_seconds
                pre_span.set_sim(preprocessing)
            bus.emit(PreprocessingDone(model=model.name,
                                       sim_seconds=preprocessing,
                                       note=preprocessing_note))
            crash_point("campaign.preprocess")

            # One-time numerical-profile charge: a freshly computed
            # profile costs shadow-execution node time; a loaded or
            # injected one is free (sim_seconds 0.0) but still traced
            # for provenance.
            if profile is not None:
                tracer.emit_span(
                    "profile", wall_seconds=profile_wall,
                    sim_seconds=profile_charge,
                    attrs={"source": profile_source,
                           "digest": profile_digest})
                bus.emit(ProfileComputed(
                    model=model.name, source=profile_source,
                    digest=profile_digest, sim_seconds=profile_charge,
                    variables=len(profile.variables),
                    cancellations=profile.counters.get("cancellations", 0)))

            cache_warnings = (tuple(oracle.cache.load_warnings)
                              if oracle.cache is not None else ())
            if cache_warnings:
                tracer.emit_span(
                    "cache_warnings", wall_seconds=0.0, sim_seconds=0.0,
                    attrs={"count": len(cache_warnings),
                           "warnings": list(cache_warnings)})
                bus.emit(CacheWarnings(count=len(cache_warnings),
                                       warnings=cache_warnings))

            try:
                with _signal_guard(flag, config.handle_signals):
                    try:
                        search_result = algorithm.run(model.space, oracle)
                    finally:
                        oracle.close()
                # A signal that landed after the search's last batch did
                # not truncate anything; only a cut-short search is
                # "interrupted".
                interrupted = flag.requested and not search_result.finished
                if journal is not None:
                    if interrupted:
                        journal.mark_interrupted(flag.reason or "signal")
                    elif search_result.finished:
                        journal.mark_finished()
            finally:
                if journal is not None:
                    journal.close()
                compile_stats = CODE_CACHE.stats()
                tracer.emit_span(
                    "backend", wall_seconds=0.0, sim_seconds=0.0,
                    attrs={"backend": backend,
                           "procedures_compiled":
                               compile_stats["procedures_compiled"]
                               - compile_stats0["procedures_compiled"],
                           "code_cache_hits":
                               compile_stats["cache_hits"]
                               - compile_stats0["cache_hits"],
                           "code_cache_entries": compile_stats["entries"]})
                campaign_span.set_sim(oracle.wall_seconds_used
                                      + preprocessing + profile_charge)
        bus.emit(CampaignFinished(
            model=model.name, finished=search_result.finished,
            interrupted=interrupted, evaluations=oracle.evaluations,
            batches=len(oracle.telemetry),
            sim_seconds=(oracle.wall_seconds_used + preprocessing
                         + profile_charge),
        ))
        # Terminal kill site: the journal is finalized and closed, the
        # campaign finished — only the result hand-off (and advisory
        # trace/metrics export) remains.  A resume from here is a pure
        # replay.
        crash_point("campaign.finish")
    finally:
        # The trace artifacts must survive any exit — including a
        # subscriber aborting the campaign mid-search (that is the
        # crash-forensics case they exist for).
        if chaos_engine is not None and tracer.enabled:
            tracer.emit_span("chaos", wall_seconds=0.0, sim_seconds=0.0,
                             attrs=chaos_engine.summary())
        if config.trace_dir:
            from .ioutil import atomic_write
            Path(config.trace_dir).mkdir(parents=True, exist_ok=True)
            try:
                atomic_write(Path(config.trace_dir) / "metrics.prom",
                             registry.render_prometheus(), kind="metrics")
            except OSError:
                pass  # metrics export is advisory, like the trace itself
        tracer.close()
        # Uninstall last: the advisory trace/metrics exports above are
        # themselves fault-injection targets.
        if chaos_engine is not None:
            _chaos_hooks.uninstall()
    return CampaignResult(
        model_name=model.name,
        search=search_result,
        evaluator=evaluator,
        oracle=oracle,
        preprocessing_seconds=preprocessing,
        preprocessing_note=preprocessing_note,
        interrupted=interrupted,
        resumed_from_batch=resumed_from_batch,
        journal_dir=journal_dir,
        metrics=registry,
        trace_dir=config.trace_dir,
        profile_digest=profile_digest,
        profile_source=profile_source,
        profile_sim_seconds=(profile.sim_seconds
                             if profile is not None else 0.0),
        # Re-read, not the pre-search snapshot: put-time warnings (e.g.
        # "append failed, persistence disabled") accrue during the
        # search and belong in the operator-facing result too.
        cache_warnings=(tuple(oracle.cache.load_warnings)
                        if oracle.cache is not None else cache_warnings),
    )


def run_or_resume(
    model,
    config: Optional[CampaignConfig] = None,
    algorithm=None,
    evaluator: Optional[Evaluator] = None,
) -> CampaignResult:
    """Run a campaign, resuming automatically if its journal exists.

    The programmatic form of ``repro chaos``'s restart loop and the
    primitive the campaign service's workers call: the *caller* does not
    need to know whether a previous process already worked on this
    journal directory.  If ``config.journal_dir`` holds a non-empty
    journal the campaign resumes from it (replaying completed work at
    ~0 cost); otherwise it starts fresh.  Either way the result bytes
    are identical to an uninterrupted run.
    """
    config = config or CampaignConfig()
    if config.journal_dir:
        config = config.overriding(resume=has_journal(config.journal_dir))
    return run_campaign(model, config, algorithm=algorithm,
                        evaluator=evaluator)


def _snapshot_cadence(journal: CampaignJournal, every: int):
    """Wrap the journal's atomic snapshot writer with the configured
    cadence.  Terminal phases ("final"/"exhausted") are always written —
    they record where the search ended up."""
    calls = 0

    def write(state: dict) -> None:
        nonlocal calls
        calls += 1
        if state.get("phase") != "search" or calls % every == 0:
            journal.snapshot(state)
    return write
