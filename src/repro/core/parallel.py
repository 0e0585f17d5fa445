"""Process-parallel variant evaluation (the paper's 20-node pool, real).

The paper's T1→T4 cycle hands each batch of variants to a pool of
dedicated Derecho nodes; this module maps that pool onto real worker
processes via :class:`concurrent.futures.ProcessPoolExecutor`.  Each
worker rebuilds the model case from the registry by name
(:class:`WorkerSpec` carries the model spec, machine model, noise model
and timeout factor), so only assignment keys and the resulting
:class:`~repro.core.evaluation.VariantRecord` objects ever cross the
pipe.

A task is one variant on the compiled scalar path, with one exception:
under ``backend="batched"``, a wave whose fresh variants give each
worker at least :data:`~repro.core.campaign.MIN_SWEEP_LANES` of them
goes to one worker as a single lockstep sweep.  A sweep's wall barely
grows with its width, so one wide sweep beats the same variants run
one by one on every worker, while a narrower wave would leave workers
idle for too little gain.  The wave is one task, not one chunk per
worker, because concurrent sweeps slow each other (EXPERIMENTS.md,
"Sweeping in the worker pool").

Determinism contract (enforced by ``tests/test_parallel.py``): parallel,
cached, and serial execution are bit-identical.  The parent process
reserves variant ids in batch order *before* dispatch and workers
evaluate ``(kinds, vid)`` pairs; a worker's evaluator is rebuilt from
the same spec, so ``evaluate_assigned`` is a pure function of the pair.
Neither worker count, completion order, nor cache state can change
variant ids, Eq.-1 noise draws, speedups, or the search trajectory.

Fault tolerance: a hard per-variant wall timeout (hung workers are
killed, not waited on), crash detection (a worker dying takes the pool
down; the pool is rebuilt), and bounded retries separated by
deterministic, jitterless exponential backoff
(``CampaignConfig.retry_backoff_seconds``) — only *transient*
infrastructure failures are retried; a variant the worker's evaluator
deterministically classified TIMEOUT or RUNTIME_ERROR is a result, not
a failure.  A variant whose evaluation infrastructure fails
irrecoverably is downgraded to ``Outcome.RUNTIME_ERROR`` (crash) or
``Outcome.TIMEOUT`` (hang) instead of killing the campaign — the same
classification an on-node failure would have received on Derecho.  The
worker pool is torn down on *every* exception path out of a batch
(including ``KeyboardInterrupt``), so no worker processes are ever
leaked.

Observability: workers hold no event bus — the :class:`VariantRecord`
returning over the result pipe *is* the forwarded event payload.  The
parent re-emits :class:`~repro.obs.events.VariantEvaluated` in plan
(batch) order once the batch resolves, with the same deterministic
fields a serial oracle would publish, so serial and parallel runs of
one seed produce identical variant-level event multisets; worker
retry/backoff/failure additionally surface as their own events.  A
per-variant task also returns its worker-side evaluation wall, which
the variant's trace span carries; a swept wave returns its
:class:`~repro.fortran.batch.BatchStats`, which its ``lowering`` span
carries.  Neither enters the deterministic result.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import (BrokenExecutor, CancelledError,
                                ProcessPoolExecutor)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Optional

from ..chaos.hooks import active_engine
from ..obs.events import (CircuitBreakerOpen, VariantQuarantined,
                          WorkerBackoff, WorkerFailure, WorkerRetry)
from ..perf.machine import MachineModel
from ..perf.noise import NoiseModel
from .assignment import PrecisionAssignment
from .campaign import (MIN_SWEEP_LANES, BatchTelemetry, BudgetedOracle,
                       CampaignConfig)
from .cache import ResultCache
from .classification import Outcome
from .evaluation import Evaluator, VariantRecord

__all__ = ["WorkerSpec", "ParallelOracle"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild the evaluator.

    Workers evaluate one variant at a time on the compiled scalar path,
    or, for a wide enough ``batched`` wave, the whole wave as one sweep
    (the records are bit-identical either way).  Workers cannot be
    monkeypatched across the process boundary, so fault injection
    travels with the spec: ``chaos_faults`` is compiled from
    :attr:`CampaignConfig.chaos` by :meth:`ParallelOracle.for_model`
    into per-variant ``(variant_id, mode, marker_path)`` entries, where
    a non-empty marker path arms the fault once (the marker file records
    that it fired; the retry proceeds normally) and an empty one makes
    the variant *poison* — every attempt fails.  Production callers
    leave it empty.
    """

    model_name: str
    model_kwargs: tuple[tuple[str, object], ...]
    machine: MachineModel
    timeout_factor: float
    noise: NoiseModel
    chaos_faults: tuple[tuple[int, str, str], ...] = ()


# Worker-process state, populated once per worker by _worker_init.
_WORKER: dict = {}


def _bind_to_parent_death() -> None:
    """Ask the kernel to SIGKILL this worker when its parent dies.

    Without this, a ``kill -9`` of the campaign process orphans the
    pool workers: they inherit both ends of the executor's call-queue
    pipe, so EOF never arrives and they block in ``queue.get()``
    forever, pinning the parent's inherited stdio open.  Linux-only
    (``prctl(PR_SET_PDEATHSIG)``); elsewhere the bounded reaper in
    ``ParallelOracle.close()`` is the only line of defense.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)   # 1 == PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def _worker_init(spec: WorkerSpec) -> None:
    _bind_to_parent_death()
    # Workers fork from a campaign that may have installed its graceful
    # shutdown handlers (``_signal_guard``); the parent owns shutdown
    # and kills its own pool.  So SIGTERM ends a worker at once, and a
    # terminal's SIGINT, which reaches the whole process group, leaves
    # it alone.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Imported here: repro.models imports repro.core, so a module-level
    # import would be circular during package initialization.
    from ..models.registry import build_model

    case = build_model(spec.model_name, **dict(spec.model_kwargs))
    _WORKER["evaluator"] = Evaluator(
        case, machine=spec.machine, timeout_factor=spec.timeout_factor,
        noise=spec.noise)
    _WORKER["atoms"] = case.space.atoms
    _WORKER["chaos_faults"] = {vid: (mode, marker)
                               for vid, mode, marker in spec.chaos_faults}


def _arm_once(marker: str) -> bool:
    """Claim a one-shot fault via an O_EXCL marker file.  Returns True
    when this call armed the fault (it should fire now); False when a
    previous attempt already fired it (behave normally)."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        return True
    except FileExistsError:
        return False


def _maybe_fault(vid: int) -> None:
    """Fire the chaos fault armed for variant *vid*, if any."""
    entry = _WORKER["chaos_faults"].get(vid)
    if entry is None:
        return
    mode, marker = entry
    if marker and not _arm_once(marker):
        return
    if mode == "crash":
        os._exit(13)
    if mode == "hang":
        time.sleep(3600)
    if mode == "raise":
        raise RuntimeError(f"chaos fault armed for variant {vid}")


def _worker_evaluate(kinds: tuple[int, ...], vid: int
                     ) -> tuple[VariantRecord, float]:
    """One variant on the compiled scalar path: its record and the
    evaluation's wall."""
    _maybe_fault(vid)
    evaluator: Evaluator = _WORKER["evaluator"]
    assignment = PrecisionAssignment(atoms=_WORKER["atoms"], kinds=kinds)
    started = time.perf_counter()
    record = evaluator.evaluate_assigned(assignment, vid)
    return record, time.perf_counter() - started


def _worker_sweep(tasks: list[tuple[tuple[int, ...], int]]):
    """A whole wave as one lockstep sweep: its records in task order,
    the sweep's :class:`~repro.fortran.batch.BatchStats`, and its wall.

    Each variant's chaos fault fires first, in task order, as it would
    on the per-variant path."""
    for _, vid in tasks:
        _maybe_fault(vid)
    evaluator: Evaluator = _WORKER["evaluator"]
    pairs = [(PrecisionAssignment(atoms=_WORKER["atoms"], kinds=kinds), vid)
             for kinds, vid in tasks]
    started = time.perf_counter()
    records, sweep = evaluator.evaluate_assigned_batch(pairs)
    return records, sweep, time.perf_counter() - started


def _mp_context():
    # fork (where available) spares each worker the cost of re-importing
    # the package; workers rebuild their evaluator from the spec either
    # way, so start method cannot affect results.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:              # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


@dataclass
class ParallelOracle(BudgetedOracle):
    """Budgeted oracle that fans cache misses out to worker processes.

    It plans and resolves batches exactly as :class:`BudgetedOracle`
    does; apart from the pool's lifecycle it overrides only
    :meth:`_execute`."""

    workers: int = 2
    spec: Optional[WorkerSpec] = None
    _pool: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False)
    #: Pool-lifetime directory for chaos fault marker files; removed on
    #: close() (the satellite fix: markers must survive pool rebuilds
    #: between retries, but never outlive the oracle).
    _marker_dir: Optional[str] = field(
        default=None, init=False, repr=False, compare=False)
    #: variant_id -> (mode, once) for chaos worker faults, kept parent-
    #: side purely for accounting (FaultInjected events/metrics).
    _chaos_fault_info: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: variant_id -> outcome names of its failed attempts, driving the
    #: quarantine decision (all-identical failures = poison).
    _attempt_outcomes: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def for_model(
        cls,
        model,                              # repro.models.base.ModelCase
        config: CampaignConfig,
        evaluator: Optional[Evaluator] = None,
        cache: Optional[ResultCache] = None,
    ) -> "ParallelOracle":
        if evaluator is None:
            evaluator = Evaluator.for_config(model, config)
        chaos_faults: tuple[tuple[int, str, str], ...] = ()
        marker_dir: Optional[str] = None
        plan = getattr(config, "chaos", None)
        if plan is not None and plan.worker_faults:
            marker_dir = tempfile.mkdtemp(prefix="repro-chaos-")
            chaos_faults = tuple(
                (wf.variant_id, wf.mode,
                 os.path.join(marker_dir, f"wf-{wf.variant_id}.marker")
                 if wf.once else "")
                for wf in plan.worker_faults)
        name, kwargs = model.model_spec()
        spec = WorkerSpec(
            model_name=name,
            model_kwargs=tuple(sorted(kwargs.items())),
            machine=evaluator.machine,
            timeout_factor=evaluator.timeout_factor,
            noise=evaluator.noise,
            chaos_faults=chaos_faults,
        )
        oracle = cls(evaluator=evaluator, config=config, cache=cache,
                     workers=config.workers, spec=spec)
        oracle._marker_dir = marker_dir
        if plan is not None:
            oracle._chaos_fault_info = {wf.variant_id: (wf.mode, wf.once)
                                        for wf in plan.worker_faults}
        return oracle

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_mp_context(),
                initializer=_worker_init, initargs=(self.spec,))
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on hung workers.

        The process list must be captured before ``shutdown`` (which
        drops it), and the workers terminated before it too — the
        executor's manager thread only exits once every worker sentinel
        fires, and a hung worker never returns on its own.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:       # pragma: no cover - best-effort kill
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        self._reap(procs, grace=1.0)

    @staticmethod
    def _reap(procs, grace: float) -> None:
        """Wait briefly for workers to exit, then escalate: terminate,
        then SIGKILL.  Bounded by construction — a hung worker (one
        ignoring its executor sentinel forever) costs at most *grace*
        plus the escalation joins, never an indefinite wait."""
        deadline = time.monotonic() + max(0.0, grace)
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
            except Exception:       # pragma: no cover - best-effort reap
                pass
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:       # pragma: no cover
                pass
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.join(1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            except Exception:       # pragma: no cover
                pass

    def close(self) -> None:
        # Watchdog close: never `shutdown(wait=True)` — a hung worker
        # would wedge the campaign's own teardown.  Reap with a bounded
        # grace period and escalating force instead.
        pool, self._pool = self._pool, None
        if pool is not None:
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            self._reap(procs, grace=self.config.pool_reap_seconds)
        self._cleanup_fault_markers()

    def _cleanup_fault_markers(self) -> None:
        """Remove the chaos fault marker directory.  Markers are scoped
        to the oracle/pool lifetime: they must survive pool rebuilds
        between retries — that is how "once" is remembered — but never
        outlive the oracle in a shared tmp dir."""
        marker_dir, self._marker_dir = self._marker_dir, None
        if marker_dir:
            shutil.rmtree(marker_dir, ignore_errors=True)

    # -- batch evaluation -----------------------------------------------

    def _execute(self, batch_index, tasks, stats):
        """Run *tasks* on the worker pool, then commit the records in
        task order.

        Under ``backend="batched"``, a wave that gives every worker at
        least :data:`~repro.core.campaign.MIN_SWEEP_LANES` tasks goes to
        the pool as one sweep (:meth:`_pool_sweep`).  Any other wave, or
        one whose sweep failed, goes one variant per task from attempt
        0, so per-variant retries, backoff and poison quarantine keep
        their meaning.

        A synthesized failure record describes transient worker
        infrastructure, not the variant: it is admitted but never cached
        or journaled (a resumed campaign should re-attempt the
        evaluation instead), and resolves as ``"worker-failure"``.

        Workers hold no run store: every task runs its model in a
        worker, so a chaos worker fault always fires on the variant it
        names."""
        # Chaos accounting: worker faults fire inside the workers (no
        # engine there); note them parent-side so FaultInjected events
        # and the chaos metrics see them.
        engine = active_engine()
        if engine is not None and self._chaos_fault_info:
            for _, vid in tasks:
                info = self._chaos_fault_info.get(vid)
                if info is not None:
                    engine.note_worker_fault(vid, info[0], info[1])
        # The pool must never outlive an exception here — in particular
        # a KeyboardInterrupt mid-dispatch used to leak live worker
        # processes (the executor's atexit hook then blocked on them).
        try:
            if (self.evaluator.backend == "batched"
                    and len(tasks) >= MIN_SWEEP_LANES * self.workers):
                executed = self._pool_sweep(batch_index, tasks, stats)
                if executed is not None:
                    return executed
            results, synthesized = self._run_tasks(tasks, stats)
        except BaseException:
            self._kill_pool()
            raise
        executed = []
        for _, vid in tasks:
            record, wall = results[vid]
            if vid in synthesized:
                self.evaluator.admit(record)
                executed.append((record, "worker-failure", wall))
            else:
                self._commit(batch_index, record)
                executed.append((record, "fresh", wall))
        return executed

    def _pool_sweep(self, batch_index, tasks, stats):
        """Sweep the whole wave as one task on one worker, then commit it
        as a serial sweep.  Returns None when the task failed (a crash,
        a raise, the hard timeout or a cancel): the pool is killed if it
        broke, and the failure counts one retry."""
        self._check_interrupt()
        try:
            future = self._ensure_pool().submit(
                _worker_sweep, [(a.key(), vid) for a, vid in tasks])
            records, sweep, wall = future.result(
                timeout=self.config.worker_timeout_seconds)
        except (FutureTimeoutError, CancelledError, BrokenExecutor):
            self._kill_pool()
            stats.retries += 1
            return None
        except Exception:
            # The worker function raised; the pool is still healthy.
            stats.retries += 1
            return None
        return self._commit_sweep(batch_index, records, sweep, wall, stats)

    def _run_tasks(self, tasks, stats: BatchTelemetry
                   ) -> tuple[dict[int, tuple[VariantRecord,
                                              Optional[float]]], set[int]]:
        """Evaluate (assignment, vid) pairs with retry and downgrade.

        Retries of *transient* infrastructure failures (worker crash,
        hang, unexpected exception) are separated by deterministic
        exponential backoff — jitterless, so a replayed campaign waits
        identically.  Deterministic evaluation outcomes (a variant
        classified TIMEOUT or RUNTIME_ERROR by the worker's evaluator)
        come back as ordinary records and never pass through the retry
        path at all.

        Returns vid → (record, the worker's evaluation wall) plus the
        set of vids whose record was synthesized from an irrecoverable
        worker failure (their wall is None).
        """
        results: dict[int, tuple[VariantRecord, Optional[float]]] = {}
        synthesized: set[int] = set()
        max_attempts = 1 + max(0, self.config.worker_retries)
        pending = [(a, vid, 0) for a, vid in tasks]

        breaker = max(1, self.config.pool_breaker_threshold)
        pool_deaths = 0   # consecutive rounds: pool died, nothing finished
        while pending:
            # Between retry rounds: back off before re-attempting failed
            # work, and honour a pending graceful-shutdown request
            # (everything journaled so far survives for the resume).
            self._check_interrupt()
            if pool_deaths >= breaker:
                self._trip_breaker(pending, results, synthesized, stats,
                                   pool_deaths)
                break
            retry_round = max((att for _, _, att in pending), default=0)
            if retry_round > 0 and self.config.retry_backoff_seconds > 0:
                delay = min(
                    self.config.retry_backoff_seconds * 2 ** (retry_round - 1),
                    self.config.retry_backoff_max_seconds)
                stats.backoff_seconds += delay
                self.bus.emit(WorkerBackoff(
                    batch_index=len(self.telemetry),
                    retry_round=retry_round, seconds=delay))
                time.sleep(delay)
            pool = self._ensure_pool()
            completed_before = stats.completed
            try:
                futures = [(a, vid, attempts,
                            pool.submit(_worker_evaluate, a.key(), vid))
                           for a, vid, attempts in pending]
            except BrokenExecutor:
                # The pool broke between rounds without surfacing a
                # BrokenExecutor during the previous harvest.  Nothing
                # was dispatched; count a pool death and re-round.
                self._kill_pool()
                pool_deaths += 1
                continue
            pending = []
            pool_down = False
            for a, vid, attempts, fut in futures:
                if pool_down:
                    # The pool died earlier in this round.  Harvest
                    # results that completed before the failure; requeue
                    # the rest without penalty (not their fault).  A
                    # cancelled future (CancelledError is a
                    # BaseException since py3.8 — a bare `except
                    # Exception` would let it crash the campaign) counts
                    # as never-started: requeue.
                    if fut.done():
                        try:
                            results[vid] = fut.result(timeout=0)
                            stats.completed += 1
                            continue
                        except CancelledError:
                            pass
                        except Exception:
                            pass
                    pending.append((a, vid, attempts))
                    continue
                try:
                    results[vid] = fut.result(
                        timeout=self.config.worker_timeout_seconds)
                    stats.completed += 1
                except FutureTimeoutError:
                    self._kill_pool()
                    pool_down = True
                    self._record_failure(
                        a, vid, attempts, Outcome.TIMEOUT,
                        "worker exceeded the hard per-variant timeout",
                        pending, results, synthesized, stats, max_attempts)
                except CancelledError:
                    # The executor cancelled this future because a
                    # sibling broke the pool (the BrokenExecutor may
                    # surface on a *later* future, or on none at all):
                    # tear the pool down now so the next round rebuilds
                    # it, and requeue without penalty.
                    self._kill_pool()
                    pool_down = True
                    pending.append((a, vid, attempts))
                except BrokenExecutor:
                    self._kill_pool()
                    pool_down = True
                    self._record_failure(
                        a, vid, attempts, Outcome.RUNTIME_ERROR,
                        "worker process crashed",
                        pending, results, synthesized, stats, max_attempts)
                except Exception as exc:
                    # The worker function raised (pool still healthy):
                    # an error the worker-side evaluator could not
                    # classify.  Retry, then downgrade.
                    self._record_failure(
                        a, vid, attempts, Outcome.RUNTIME_ERROR,
                        f"worker raised {type(exc).__name__}: {exc}",
                        pending, results, synthesized, stats, max_attempts)
            if pool_down and stats.completed == completed_before:
                pool_deaths += 1
            else:
                pool_deaths = 0
        return results, synthesized

    def _record_failure(self, assignment, vid, attempts, outcome, reason,
                        pending, results, synthesized, stats,
                        max_attempts) -> None:
        attempts += 1
        self._attempt_outcomes.setdefault(vid, []).append(outcome.name)
        if attempts < max_attempts:
            stats.retries += 1
            self.bus.emit(WorkerRetry(
                batch_index=len(self.telemetry), variant_id=vid,
                attempt=attempts, reason=reason))
            pending.append((assignment, vid, attempts))
            return
        stats.failures += 1
        synthesized.add(vid)
        if (self.config.quarantine and attempts >= 2
                and len(set(self._attempt_outcomes[vid])) == 1):
            # Deterministic poison: every attempt failed the same way.
            # One failure could be transient; identical repeats mean the
            # variant itself is the trigger, so record a permanent typed
            # failure and journal it — a resumed campaign replays the
            # quarantine instead of re-poisoning a fresh pool.  (Still
            # in `synthesized`: the record must not enter the cache or
            # be double-journaled as an ordinary variant.)
            record = self.evaluator.quarantine_record(
                assignment, vid, outcome, attempts, reason)
            results[vid] = (record, None)
            stats.quarantined += 1
            if self.journal is not None:
                self.journal.quarantine(len(self.telemetry), record,
                                        reason=reason)
            self.bus.emit(VariantQuarantined(
                batch_index=len(self.telemetry), variant_id=vid,
                outcome=outcome.name, attempts=attempts, reason=reason))
            return
        self.bus.emit(WorkerFailure(
            batch_index=len(self.telemetry), variant_id=vid,
            outcome=outcome.name, reason=reason))
        results[vid] = (self.evaluator.failure_record(
            assignment, vid, outcome,
            note=f"{reason} ({attempts} attempts)"), None)

    def _trip_breaker(self, pending, results, synthesized, stats,
                      pool_deaths) -> None:
        """Stop fighting dead infrastructure: downgrade everything still
        pending in one step.  The records are synthesized (never cached
        or journaled), so a resumed campaign on healthy hardware simply
        re-evaluates them."""
        self.bus.emit(CircuitBreakerOpen(
            batch_index=len(self.telemetry), pool_failures=pool_deaths,
            pending=len(pending)))
        reason = (f"worker pool unavailable ({pool_deaths} consecutive "
                  f"pool failures); circuit breaker open")
        for assignment, vid, attempts in pending:
            stats.failures += 1
            synthesized.add(vid)
            self.bus.emit(WorkerFailure(
                batch_index=len(self.telemetry), variant_id=vid,
                outcome=Outcome.RUNTIME_ERROR.name, reason=reason))
            results[vid] = (self.evaluator.failure_record(
                assignment, vid, Outcome.RUNTIME_ERROR,
                note=f"{reason} ({attempts + 1} attempts)"), None)
        pending.clear()
