"""The campaign service core: queue, dedup, dispatch, execute.

:class:`CampaignService` is the synchronous heart of the job-queue
server — everything the HTTP layer does reduces to calls here, and the
tests exercise it directly (no sockets needed to prove scheduling
determinism or crash safety).  Responsibilities:

* **submit** — validate a :class:`~repro.service.schema.JobSpec`,
  content-address it, either create a new durable job or attach the
  submission to an existing one with the same digest (same tenant,
  same normalized spec ⇒ same job), and queue it;
* **next_job** — pop the deterministic fair-share scheduler and journal
  the ``started`` transition *before* handing the job to a worker, so
  dispatch order itself is durable and replayable;
* **execute** — run the job's campaign via
  :func:`~repro.core.campaign.run_or_resume` (each job owns a campaign
  journal under ``jobs/<id>/campaign``, so a job interrupted by a
  server kill resumes at ~0 cost), forward its
  :mod:`repro.obs` events into the job's history/live stream, publish
  ``result.json`` atomically, and journal the terminal transition.
  Every job's evaluator shares the service's
  :class:`~repro.core.evaluation.RunStore`, so jobs that evaluate the
  same variants of one model on the serial path (a job's default) run
  each once, whatever their seed, tenant, cap or algorithm; each job
  still finalizes, counts, journals and caches its own records.

Threading: one lock guards journal/scheduler/records/history.  Workers
call :meth:`execute` outside the lock (campaigns are long); all state
transitions inside it.  Event delivery to watchers is decoupled via
per-watcher queues captured under the lock, so a watcher subscribing
mid-job sees the full history exactly once, gap-free.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from pathlib import Path
from typing import Callable, Optional, Union

from ..chaos.hooks import crash_point
from ..core.algorithms import make_algorithm
from ..core.campaign import CampaignResult, run_or_resume
from ..core.evaluation import BACKENDS, Evaluator, RunStore
from ..core.ioutil import atomic_write
from ..errors import JobNotFound, ServiceError, SpecError
from ..models import get_model
from ..obs.bus import EventBus
from ..obs.collectors import MetricsCollector
from ..obs.events import (JobFailed, JobFinished, JobStarted, JobSubmitted)
from .journal import JobRecord, ServiceJournal
from .scheduler import FairShareScheduler
from .schema import JobSpec

__all__ = ["CampaignService", "RESULT_FILE"]

RESULT_FILE = "result.json"


def _event_payload(event: object) -> dict:
    """A JSON-safe ``{"event": ..., "data": ...}`` wire form."""
    if dataclasses.is_dataclass(event) and not isinstance(event, type):
        data = dataclasses.asdict(event)
    else:
        data = {"repr": repr(event)}
    # Nested non-JSON values (e.g. BatchCompleted.telemetry outcome
    # maps are fine, but be defensive) degrade to strings, never raise.
    data = json.loads(json.dumps(data, sort_keys=True, default=str))
    return {"event": type(event).__name__, "data": data}


class _JobEventForwarder:
    """Per-job campaign-bus subscriber feeding the job's event stream."""

    def __init__(self, service: "CampaignService", job_id: str):
        self._service = service
        self._job_id = job_id

    def __call__(self, event: object) -> None:
        self._service._record_event(self._job_id, _event_payload(event))


class CampaignService:
    """Durable multi-tenant campaign job queue (transport-agnostic)."""

    def __init__(self, state_dir: Union[str, Path], *,
                 model_factory: Callable[[str], object] = get_model,
                 bus: Optional[EventBus] = None):
        self.state_dir = Path(state_dir)
        self.model_factory = model_factory
        self.bus = bus if bus is not None else EventBus()
        self.metrics = MetricsCollector()
        self.metrics.attach(self.bus)
        self._lock = threading.RLock()
        self._journal = ServiceJournal(self.state_dir)
        self._scheduler = FairShareScheduler()
        # job_id -> ordered JSON-safe event payloads (service + campaign)
        self._history: dict[str, list[dict]] = {}
        # job_id -> list of watcher callbacks fed new payloads
        self._watchers: dict[str, list[Callable[[dict], None]]] = {}
        #: Seed-free model runs shared by every job's evaluator.
        self.runs = RunStore()
        # Reload: everything queued (including requeued orphans) goes
        # back on the scheduler in seq order — deterministic restart.
        for rec in sorted(self._journal.records.values(),
                          key=lambda r: r.seq):
            self._history[rec.job_id] = []
            if rec.state == "queued":
                self._scheduler.push(rec.spec.tenant, rec.spec.priority,
                                     rec.seq, rec.job_id)

    # -- introspection -------------------------------------------------

    @property
    def load_warnings(self) -> tuple[str, ...]:
        return tuple(self._journal.load_warnings)

    def job_dir(self, job_id: str) -> Path:
        return self.state_dir / "jobs" / job_id

    def jobs(self, tenant: Optional[str] = None) -> list[dict]:
        with self._lock:
            recs = sorted(self._journal.records.values(),
                          key=lambda r: r.seq)
            return [r.public() for r in recs
                    if tenant is None or r.spec.tenant == tenant]

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            rec = self._journal.records.get(job_id)
            if rec is None:
                raise JobNotFound(f"unknown job {job_id!r}")
            return rec

    def result_text(self, job_id: str) -> str:
        rec = self.job(job_id)
        if rec.state != "done":
            raise ServiceError(
                f"job {job_id} has no result (state: {rec.state})")
        path = self.job_dir(job_id) / RESULT_FILE
        try:
            return path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ServiceError(
                f"job {job_id} is marked done but {path} is unreadable: "
                f"{exc}") from exc

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._scheduler)

    def pending(self) -> bool:
        """True while any job is queued or running."""
        with self._lock:
            return any(not r.terminal
                       for r in self._journal.records.values())

    # -- event stream --------------------------------------------------

    def _record_event(self, job_id: str, payload: dict) -> None:
        with self._lock:
            self._history.setdefault(job_id, []).append(payload)
            watchers = tuple(self._watchers.get(job_id, ()))
        for push in watchers:
            push(payload)

    def _emit(self, job_id: str, event: object) -> None:
        """Publish on the service bus and into the job's stream."""
        self.bus.emit(event)
        self._record_event(job_id, _event_payload(event))

    def watch(self, job_id: str, push: Callable[[dict], None]
              ) -> Callable[[], None]:
        """Stream a job's events: full history first, then live.

        *push* is called under no lock for live events but the history
        snapshot + registration happen atomically, so the watcher sees
        every payload exactly once in order.  Returns an unsubscribe.
        """
        with self._lock:
            self.job(job_id)  # raises JobNotFound early
            history = tuple(self._history.get(job_id, ()))
            self._watchers.setdefault(job_id, []).append(push)
        for payload in history:
            push(payload)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._watchers.get(job_id, []).remove(push)
                except ValueError:
                    pass
        return unsubscribe

    def history(self, job_id: str) -> tuple[dict, ...]:
        with self._lock:
            self.job(job_id)
            return tuple(self._history.get(job_id, ()))

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Accept a spec; returns ``(record, deduplicated)``.

        The spec's model name, algorithm and backend are validated
        *before* anything becomes durable — a job that can never run
        must be refused at the door, not discovered by a worker.
        """
        try:
            self.model_factory(spec.model)
        except KeyError as exc:
            raise SpecError(str(exc.args[0]) if exc.args
                            else f"unknown model {spec.model!r}") from exc
        if spec.config.backend not in BACKENDS:
            raise SpecError(f"unknown backend {spec.config.backend!r} "
                            f"(known: {', '.join(BACKENDS)})")
        job_id = spec.digest()
        with self._lock:
            existing = self._journal.records.get(job_id)
            if existing is not None and existing.state != "failed":
                rec = self._journal.attach(job_id)
                self._emit(job_id, JobSubmitted(
                    job_id=job_id, tenant=rec.spec.tenant,
                    model=rec.spec.model, priority=rec.spec.priority,
                    seq=rec.seq, deduplicated=True))
                return rec, True
            if existing is not None:
                # A failed job re-submitted: queue a fresh attempt under
                # the same id (a new seq would break the id↔seq mapping,
                # so it re-enters the queue at its original position).
                rec = self._journal.requeue(job_id)
            else:
                rec = self._journal.submit(spec, job_id)
                self._history.setdefault(job_id, [])
            self._scheduler.push(rec.spec.tenant, rec.spec.priority,
                                 rec.seq, job_id)
            self._emit(job_id, JobSubmitted(
                job_id=job_id, tenant=rec.spec.tenant,
                model=rec.spec.model, priority=rec.spec.priority,
                seq=rec.seq, deduplicated=False))
            return rec, False

    # -- dispatch ------------------------------------------------------

    def next_job(self) -> Optional[JobRecord]:
        """Claim the next job (fair-share order) and journal its start.

        The ``started`` entry is appended under the lock, so the
        *dispatch order itself* is a durable, deterministic fact — two
        servers folding the same journal agree on what ran.
        """
        with self._lock:
            job_id = self._scheduler.pop()
            if job_id is None:
                return None
            rec = self._journal.start(job_id)
            self._emit(job_id, JobStarted(
                job_id=job_id, tenant=rec.spec.tenant,
                model=rec.spec.model, resumed=rec.resumed))
            return rec

    # -- execution -----------------------------------------------------

    def execute(self, rec: JobRecord) -> Optional[CampaignResult]:
        """Run one claimed job to its terminal state.

        Called outside the lock (campaigns are long-running); only the
        terminal transition re-acquires it.  The campaign journals into
        the job's own directory, so a SIGKILL anywhere in here leaves a
        resumable job, and :func:`~repro.core.campaign.run_or_resume`
        makes the retry byte-identical.
        """
        job_dir = self.job_dir(rec.job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        try:
            case = self.model_factory(rec.spec.model)
            algorithm = make_algorithm(rec.spec.algorithm, case,
                                       rec.spec.config.max_evaluations)
            forwarder = _JobEventForwarder(self, rec.job_id)
            config = rec.spec.config.overriding(
                journal_dir=str(job_dir / "campaign"),
                handle_signals=False,
                subscribers=(forwarder,))
            result = run_or_resume(
                case, config, algorithm=algorithm,
                evaluator=Evaluator.for_config(case, config, runs=self.runs))
            text = result.to_json()
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            error = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self._journal.fail(rec.job_id, error)
                self._emit(rec.job_id, JobFailed(
                    job_id=rec.job_id, tenant=rec.spec.tenant,
                    model=rec.spec.model, error=error))
            return None

        digest = hashlib.sha256(text.encode()).hexdigest()
        summary = result.summary()
        crash_point("service.result_write")
        atomic_write(job_dir / RESULT_FILE, text, kind="service")
        with self._lock:
            self._journal.finish(rec.job_id, result_digest=digest,
                                 evaluations=summary.total,
                                 finished=summary.finished)
            self._emit(rec.job_id, JobFinished(
                job_id=rec.job_id, tenant=rec.spec.tenant,
                model=rec.spec.model, finished=summary.finished,
                evaluations=summary.total, result_digest=digest))
        return result

    def run_pending(self) -> int:
        """Drain the queue serially (tests, `repro serve --drain`).

        Returns the number of jobs executed."""
        ran = 0
        while True:
            rec = self.next_job()
            if rec is None:
                return ran
            self.execute(rec)
            ran += 1

    def close(self) -> None:
        self._journal.close()
