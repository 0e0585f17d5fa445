"""Post-mortem triage for a campaign-service state directory.

``repro doctor DIR`` dispatches here when ``DIR`` holds a
``service.jsonl`` — the operator's question after a dead server is
*can I just restart it, and what will happen to the jobs?*  Severity
semantics match campaign triage (:mod:`repro.chaos.doctor`):

* **errors** — the journal lies: entries before the header, a journal
  from a newer build, an unknown entry kind or an entry for an unknown
  job, a job marked ``done`` whose ``result.json`` is missing or whose
  bytes no longer match the journaled sha256.  Exit 1.
* **warnings** — expected crash artifacts a restart absorbs: torn
  journal lines (the last one, or an earlier tear a restarted server
  sealed and appended past), orphaned jobs (``started`` with no
  terminal entry — requeued for resume), stray ``*.tmp`` files from an
  interrupted atomic result write.  Exit 0.
* **info** — queue census: jobs by state and tenant, submission
  counter, dedup tallies.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Union

from ..chaos.doctor import DoctorReport
from ..errors import ServiceError
from .core import RESULT_FILE
from .journal import SERVICE_JOURNAL_FILE, load_service_state

__all__ = ["is_service_dir", "diagnose_service"]


def is_service_dir(directory: Union[str, Path]) -> bool:
    """True when *directory* is a service state dir (has a journal)."""
    return (Path(directory) / SERVICE_JOURNAL_FILE).exists()


def diagnose_service(state_dir: Union[str, Path]) -> DoctorReport:
    state_dir = Path(state_dir)
    report = DoctorReport(journal_dir=state_dir)
    if not state_dir.exists():
        report.errors.append(f"{state_dir}: directory does not exist")
        return report

    try:
        records, next_seq, warnings = load_service_state(state_dir)
    except ServiceError as exc:
        report.errors.append(str(exc))
        return report
    for message in warnings:
        # The loader's warnings are exactly the absorbable artifacts:
        # torn tail, orphans requeued for resume.
        report.warnings.append(message)

    by_state: dict[str, int] = {}
    by_tenant: dict[str, int] = {}
    for rec in records.values():
        by_state[rec.state] = by_state.get(rec.state, 0) + 1
        by_tenant[rec.spec.tenant] = by_tenant.get(rec.spec.tenant, 0) + 1
        _check_job(report, state_dir, rec)

    report.info.append(
        f"service journal: {len(records)} job(s), "
        f"next seq {next_seq}")
    for state in ("queued", "running", "done", "failed"):
        if by_state.get(state):
            report.info.append(f"jobs {state}: {by_state[state]}")
    for tenant in sorted(by_tenant):
        report.info.append(f"tenant {tenant}: {by_tenant[tenant]} job(s)")
    dedups = sum(r.submissions - 1 for r in records.values())
    if dedups:
        report.info.append(
            f"{dedups} duplicate submission(s) attached by content digest")

    stray = sorted(p for p in state_dir.rglob("*.tmp") if p.is_file())
    for path in stray:
        report.warnings.append(
            f"stray temp file {path.relative_to(state_dir)} "
            f"(interrupted atomic write; safe to delete)")
    return report


def _check_job(report: DoctorReport, state_dir: Path, rec) -> None:
    job_dir = state_dir / "jobs" / rec.job_id
    if rec.state == "done":
        result = job_dir / RESULT_FILE
        if not result.exists():
            report.errors.append(
                f"job {rec.job_id} is journaled done but "
                f"{result.relative_to(state_dir)} is missing")
            return
        digest = hashlib.sha256(result.read_bytes()).hexdigest()
        if rec.result_digest and digest != rec.result_digest:
            report.errors.append(
                f"job {rec.job_id}: result.json sha256 {digest[:12]}… "
                f"does not match journaled {rec.result_digest[:12]}…")
    elif rec.state == "queued" and rec.resumed:
        campaign = job_dir / "campaign"
        if campaign.exists():
            report.info.append(
                f"job {rec.job_id}: campaign journal survives; restart "
                f"resumes it at ~0 cost")
