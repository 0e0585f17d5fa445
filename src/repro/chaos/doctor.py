"""Post-mortem triage for campaign state directories.

After a crash — injected by the chaos engine or delivered by a real
scheduler — an operator is left with a journal directory and, possibly,
cache and trace directories in unknown states.  ``diagnose`` reads all
of them the same forgiving way the resume path does and answers the
question the operator actually has: *is this directory resumable, and
what should I expect when I resume it?*

The report distinguishes three severities:

* **errors** — structural problems that would make a resume refuse or
  lie (``batch_done`` without a matching ``batch_intent``, an
  unreadable header).  Exit code 1 from ``repro doctor``.
* **warnings** — expected crash artifacts that resume tolerates (torn
  trailing lines, stray ``*.tmp`` files from an interrupted atomic
  write, a corrupt snapshot).  Exit code 0: the directory is healthy
  in the sense that matters.
* **info** — plain facts (batches completed, in-flight intent,
  quarantined variants, cache/trace tallies).

This module is imported lazily (by the CLI and tests), never from
``repro.chaos.__init__`` — it pulls in the core journal/cache/trace
readers, and the chaos package proper must stay importable from
``repro.core.ioutil`` without cycling back into core.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..core.ioutil import log_begun, read_jsonl

__all__ = ["DoctorReport", "diagnose"]


@dataclass
class DoctorReport:
    """Everything ``diagnose`` learned about one campaign's state files."""

    journal_dir: Path
    cache_dir: Optional[Path] = None
    trace_dir: Optional[Path] = None
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    info: list[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """No structural errors; warnings are expected crash artifacts."""
        return not self.errors

    def render(self) -> str:
        lines = [f"doctor report for {self.journal_dir}"]
        for label, bucket in (("ERROR", self.errors),
                              ("WARN", self.warnings),
                              ("INFO", self.info)):
            for message in bucket:
                lines.append(f"  {label:5s} {message}")
        verdict = ("resumable" if self.healthy
                   else "NOT safely resumable — see errors above")
        lines.append(f"  {'=' * 5} {verdict}")
        return "\n".join(lines)


def _stray_tmp_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.glob("*.tmp") if p.is_file())


def _check_journal(report: DoctorReport) -> None:
    from ..core.journal import JournalState, _JOURNAL_FILE, _SNAPSHOT_FILE
    from ..errors import JournalError

    directory = report.journal_dir
    path = directory / _JOURNAL_FILE
    if not directory.exists():
        report.errors.append(f"{directory}: directory does not exist")
        return
    if not path.exists():
        report.errors.append(
            f"{path.name}: no journal file; nothing to resume here")
        return
    if not log_begun(path):
        # A kill at the journal.header crash point, or one tearing the
        # header mid-append, lands here: no line parses.  Resume treats
        # this as "no campaign yet" and starts fresh.
        report.warnings.append(
            f"{path.name}: empty journal or torn header (killed before "
            f"the header landed); a resume starts the campaign from "
            f"scratch")
        return

    raw = path.read_bytes()
    if not raw.endswith(b"\n"):
        report.warnings.append(
            f"{path.name}: torn trailing line (no final newline); the "
            f"resume path seals and skips it")

    try:
        state = JournalState.load(directory)
    except JournalError as exc:
        report.errors.append(f"{path.name}: {exc}")
        return

    for warning in state.load_warnings:
        report.warnings.append(warning)

    report.info.append(
        f"{path.name}: {state.completed_batches} batch(es) committed, "
        f"{len(state.records)} variant record(s), "
        f"{state.evaluations} evaluation(s) journaled")
    if state.finished:
        report.info.append(
            f"{path.name}: campaign marked finished; resume replays to "
            f"the identical result without evaluating anything")
    if state.intent_batches > state.completed_batches:
        intent = state.intents.get(state.completed_batches, [])
        report.info.append(
            f"{path.name}: batch {state.completed_batches} was in flight "
            f"({len(intent)} variant(s) intended); resume finishes it")
    if state.quarantined:
        vids = sorted(rec.get("variant_id", -1)
                      for rec in (state.records[k] for k in state.quarantined))
        report.info.append(
            f"{path.name}: {len(state.quarantined)} variant(s) "
            f"quarantined as deterministic poison "
            f"(variant ids {vids}); they will not be re-attempted")
    if state.interruptions or state.resumes:
        report.info.append(
            f"{path.name}: {state.interruptions} interruption(s), "
            f"{state.resumes} prior resume(s)")

    # batch_done without a matching intent is a write-ahead violation:
    # the journal claims a batch committed that was never declared.
    done_without_intent = [
        b for b in range(state.completed_batches)
        if b not in state.intents]
    if done_without_intent:
        report.errors.append(
            f"{path.name}: batch_done without batch_intent for "
            f"batch(es) {done_without_intent}; write-ahead order was "
            f"violated — this journal cannot be trusted")

    snapshot = directory / _SNAPSHOT_FILE
    if snapshot.exists():
        try:
            json.loads(snapshot.read_text())
            report.info.append(
                f"{snapshot.name}: readable (advisory only; the journal "
                f"alone drives resume)")
        except (OSError, json.JSONDecodeError):
            report.warnings.append(
                f"{snapshot.name}: corrupt or half-written; safe to "
                f"delete — resume never reads it")
    stray = _stray_tmp_files(directory)
    if stray:
        report.warnings.append(
            f"{directory}: stray temp file(s) from an interrupted atomic "
            f"write: {[p.name for p in stray]}; safe to delete")


def _check_cache(report: DoctorReport) -> None:
    directory = report.cache_dir
    if directory is None:
        return
    if not directory.exists():
        report.warnings.append(
            f"{directory}: cache directory does not exist (nothing "
            f"cached yet, or it was deleted — both are safe)")
        return
    files = sorted(directory.glob("variants-*.jsonl"))
    if not files:
        report.info.append(f"{directory}: no cache files")
    total = 0
    for path in files:
        entries = [entry for _, entry in read_jsonl(path)]
        torn = entries.count(None)
        total += sum(isinstance(entry, dict) for entry in entries)
        if torn:
            report.warnings.append(
                f"{path.name}: {torn} torn line(s); the loader skips "
                f"them and those variants are re-evaluated")
        raw = path.read_bytes()
        if raw and not raw.endswith(b"\n"):
            report.warnings.append(
                f"{path.name}: torn trailing line; sealed on next use")
    if files:
        report.info.append(
            f"{directory}: {len(files)} cache file(s), "
            f"{total} readable record(s)")
    stray = _stray_tmp_files(directory)
    if stray:
        report.warnings.append(
            f"{directory}: stray temp file(s): "
            f"{[p.name for p in stray]}; safe to delete")


def _check_trace(report: DoctorReport) -> None:
    directory = report.trace_dir
    if directory is None:
        return
    if not directory.exists():
        report.warnings.append(
            f"{directory}: trace directory does not exist")
        return
    from ..obs.tracing import TRACE_FILE

    path = directory / TRACE_FILE
    if not path.exists():
        report.info.append(f"{directory}: no span trace")
    else:
        entries = [entry for _, entry in read_jsonl(path)]
        torn = entries.count(None)
        kinds = [e.get("type") for e in entries if isinstance(e, dict)]
        sessions, spans = kinds.count("header"), kinds.count("span")
        if torn:
            report.warnings.append(
                f"{path.name}: {torn} torn line(s); trace analysis "
                f"skips them")
        report.info.append(
            f"{path.name}: {sessions} session(s), {spans} span(s)")
    metrics = directory / "metrics.prom"
    if metrics.exists():
        report.info.append(
            f"metrics.prom: {metrics.stat().st_size} bytes (regenerated "
            f"every run; safe to delete)")
    stray = _stray_tmp_files(directory)
    if stray:
        report.warnings.append(
            f"{directory}: stray temp file(s): "
            f"{[p.name for p in stray]}; safe to delete")


def diagnose(journal_dir: str | Path,
             cache_dir: Optional[str | Path] = None,
             trace_dir: Optional[str | Path] = None) -> DoctorReport:
    """Triage one campaign's state directories after a crash.

    Reads the journal (and optionally cache and trace directories)
    exactly as forgivingly as the resume path does, and classifies what
    it finds into errors (resume would refuse or lie), warnings
    (expected crash artifacts that resume tolerates) and info.
    """
    report = DoctorReport(
        journal_dir=Path(journal_dir),
        cache_dir=Path(cache_dir) if cache_dir else None,
        trace_dir=Path(trace_dir) if trace_dir else None,
    )
    _check_journal(report)
    _check_cache(report)
    _check_trace(report)
    return report
