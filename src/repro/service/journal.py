"""The service journal: write-ahead durability for the job queue.

Every job-state transition the server performs is appended to
``<state_dir>/service.jsonl`` *before* the transition takes effect —
the same write-ahead discipline, torn-tail tolerance, and
fsync-per-append the campaign journal uses (both ride
:class:`repro.core.ioutil.JsonlAppender`).  A server killed at any
instant restarts by folding the journal back into job records:

* ``submitted`` entries rebuild the queue (the client was only acked
  *after* this entry fsynced, so every acked job survives);
* a ``started`` entry with no terminal entry marks an **orphan** — a
  job whose worker died mid-campaign.  Orphans are re-queued with the
  resume flag: their campaign journal (under ``jobs/<id>/campaign``)
  replays completed work at ~0 cost, so a restarted job still produces
  byte-identical ``result.json``;
* ``finished``/``failed`` entries make jobs terminal.  ``finished``
  records the sha256 of the published result bytes, which ``repro
  doctor`` re-verifies against ``result.json`` on disk.

Entry order in the file *is* the submission order: ``seq`` values are
assigned by append position, so the scheduler's deterministic
tie-break survives restarts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..chaos.hooks import crash_point
from ..core.ioutil import JsonlAppender, log_begun, read_jsonl
from ..errors import ServiceError
from .schema import JobSpec

__all__ = ["SERVICE_JOURNAL_FILE", "JobRecord", "ServiceJournal",
           "load_service_state"]

SERVICE_JOURNAL_FILE = "service.jsonl"

#: Bumped when the entry vocabulary changes incompatibly.
SERVICE_JOURNAL_VERSION = 1

#: Job lifecycle states, in order of progress.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobRecord:
    """The durable facts about one job, folded from journal entries."""

    job_id: str
    seq: int
    spec: JobSpec
    state: str = "queued"
    attempts: int = 0
    submissions: int = 1
    resumed: bool = False
    error: str = ""
    result_digest: str = ""
    evaluations: int = 0
    finished: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def public(self) -> dict:
        """The JSON shape ``GET /jobs/<id>`` returns."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "model": self.spec.model,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "algorithm": self.spec.algorithm,
            "attempts": self.attempts,
            "submissions": self.submissions,
            "resumed": self.resumed,
            "error": self.error,
            "result_digest": self.result_digest,
            "evaluations": self.evaluations,
            "finished": self.finished,
        }


def load_service_state(state_dir: Union[str, Path]
                       ) -> tuple[dict[str, JobRecord], int, list[str]]:
    """Fold a service journal into ``(records, next_seq, warnings)``.

    Tolerant by design: an unparseable line (the canonical SIGKILL
    artifact) is skipped with a warning wherever it sits, exactly like
    the campaign journal's loader, and so is a line that parses to
    something other than an entry object.  A writer seals a torn tail and
    appends past it, so after a restart the tear is no longer last.
    """
    path = Path(state_dir) / SERVICE_JOURNAL_FILE
    records: dict[str, JobRecord] = {}
    warnings: list[str] = []
    next_seq = 0
    if not path.exists():
        return records, next_seq, warnings

    saw_header = False
    for lineno, entry in read_jsonl(path):
        if entry is None:
            warnings.append(
                f"torn journal line {lineno} skipped (crash mid-append)")
            continue
        if not isinstance(entry, dict):
            warnings.append(
                f"journal line {lineno} is not a journal entry; skipped")
            continue
        kind = entry.get("entry")
        if kind == "header":
            if entry.get("version", 0) > SERVICE_JOURNAL_VERSION:
                raise ServiceError(
                    f"service journal {path} written by a newer build "
                    f"(version {entry.get('version')})")
            saw_header = True
            continue
        if not saw_header:
            raise ServiceError(
                f"service journal {path} has entries before its header "
                f"(line {lineno})")
        job_id = entry.get("job_id")
        if kind == "submitted":
            spec = JobSpec.from_payload(entry["spec"])
            seq = int(entry["seq"])
            next_seq = max(next_seq, seq + 1)
            records[job_id] = JobRecord(job_id=job_id, seq=seq, spec=spec)
        elif kind == "attached":
            rec = _require(records, job_id, kind, path)
            rec.submissions += 1
        elif kind == "started":
            rec = _require(records, job_id, kind, path)
            rec.state = "running"
            rec.attempts += 1
        elif kind == "finished":
            rec = _require(records, job_id, kind, path)
            rec.state = "done"
            rec.result_digest = entry.get("result_digest", "")
            rec.evaluations = int(entry.get("evaluations", 0))
            rec.finished = bool(entry.get("finished", False))
        elif kind == "failed":
            rec = _require(records, job_id, kind, path)
            rec.state = "failed"
            rec.error = entry.get("error", "")
        elif kind == "requeued":
            rec = _require(records, job_id, kind, path)
            rec.state = "queued"
            rec.error = ""
            rec.resumed = False
            rec.submissions += 1
        else:
            raise ServiceError(
                f"service journal {path}: unknown entry kind {kind!r} "
                f"(line {lineno})")

    # A 'running' record at load time means the worker died mid-job:
    # requeue it flagged for campaign-journal resume.
    for rec in records.values():
        if rec.state == "running":
            rec.state = "queued"
            rec.resumed = True
            warnings.append(
                f"job {rec.job_id} was running when the server died; "
                f"requeued for resume")
    return records, next_seq, warnings


def _require(records: dict, job_id: Optional[str], kind: str,
             path: Path) -> JobRecord:
    if job_id not in records:
        raise ServiceError(
            f"service journal {path}: {kind!r} entry for unknown "
            f"job {job_id!r}")
    return records[job_id]


class ServiceJournal:
    """Append-side of the service journal (write-ahead, fsync-per-entry).

    Construction either starts a fresh journal (header appended
    immediately) or — once ``service.jsonl`` has begun
    (:func:`~repro.core.ioutil.log_begun`) — recovers the previous
    server's state first and continues appending to the same file.
    Either way the writer seals a torn tail, so a header torn by a
    kill is skipped and a fresh one written after it.
    """

    def __init__(self, state_dir: Union[str, Path]):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.state_dir / SERVICE_JOURNAL_FILE
        if log_begun(self.path):
            self.records, self.next_seq, self.load_warnings = \
                load_service_state(self.state_dir)
            self._writer = JsonlAppender(self.path, kind="service")
        else:
            self.records, self.next_seq, self.load_warnings = {}, 0, []
            crash_point("service.journal_header")
            self._writer = JsonlAppender(self.path, kind="service")
            self._append({"entry": "header",
                          "version": SERVICE_JOURNAL_VERSION})

    def _append(self, entry: dict) -> None:
        try:
            self._writer.append(entry)
        except OSError as exc:
            raise ServiceError(
                f"service journal append failed ({entry.get('entry')}): "
                f"{exc}") from exc

    # -- transitions (each durable before it takes effect) -------------

    def submit(self, spec: JobSpec, job_id: str) -> JobRecord:
        seq = self.next_seq
        crash_point("service.journal_submit")
        self._append({"entry": "submitted", "job_id": job_id, "seq": seq,
                      "spec": spec.to_payload()})
        self.next_seq = seq + 1
        rec = JobRecord(job_id=job_id, seq=seq, spec=spec)
        self.records[job_id] = rec
        return rec

    def attach(self, job_id: str) -> JobRecord:
        rec = self.records[job_id]
        self._append({"entry": "attached", "job_id": job_id})
        rec.submissions += 1
        return rec

    def start(self, job_id: str) -> JobRecord:
        rec = self.records[job_id]
        crash_point("service.journal_start")
        self._append({"entry": "started", "job_id": job_id})
        rec.state = "running"
        rec.attempts += 1
        return rec

    def finish(self, job_id: str, *, result_digest: str,
               evaluations: int, finished: bool) -> JobRecord:
        rec = self.records[job_id]
        crash_point("service.journal_finish")
        self._append({"entry": "finished", "job_id": job_id,
                      "result_digest": result_digest,
                      "evaluations": evaluations, "finished": finished})
        rec.state = "done"
        rec.result_digest = result_digest
        rec.evaluations = evaluations
        rec.finished = finished
        return rec

    def requeue(self, job_id: str) -> JobRecord:
        """A terminal-failed job re-submitted: back to the queue, same
        id and seq (the content address and fairness position are
        properties of the *spec*, not of the attempt)."""
        rec = self.records[job_id]
        self._append({"entry": "requeued", "job_id": job_id})
        rec.state = "queued"
        rec.error = ""
        rec.resumed = False
        rec.submissions += 1
        return rec

    def fail(self, job_id: str, error: str) -> JobRecord:
        rec = self.records[job_id]
        self._append({"entry": "failed", "job_id": job_id,
                      "error": error})
        rec.state = "failed"
        rec.error = error
        return rec

    def close(self) -> None:
        self._writer.close()
