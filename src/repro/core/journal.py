"""Write-ahead campaign journal: crash-safe checkpoint/resume.

The paper's searches run as 12-hour PBS jobs on 20 Derecho nodes, and
the MOM6 campaign ended with budget expiry rather than a 1-minimal
variant — resuming a killed search in the *next* allocation is the
robustness the real workflow needs.  This module makes a campaign
restartable after any crash, ``kill -9``, or graceful SIGINT/SIGTERM:

* an append-only JSON-lines journal (``journal.jsonl``) records, in
  write-ahead order: a campaign **header** (evaluation context, search
  space fingerprint, algorithm and trajectory-relevant config), a
  **batch intent** before every batch is dispatched, one **variant**
  record per freshly evaluated variant as it completes, and a **batch
  done** marker once the whole batch is committed;
* periodic **snapshots** of the delta-debugging search state are written
  atomically (temp file + ``os.replace``) to ``snapshot.json`` for
  operator forensics — the journal alone is sufficient for resume;
* every append is flushed and fsynced, so the journal never lies about
  what completed.

Resume is replay-based: the searches are deterministic functions of the
evaluation results, so a resumed campaign re-runs the search from batch
0 while the oracle serves journaled records at ~0 simulated
node-seconds (and ~0 real seconds — nothing is re-evaluated), then
falls off the end of the journal and continues evaluating exactly where
the dead process stopped.  The final :class:`~repro.core.campaign
.CampaignResult` is byte-identical to an uninterrupted run; the
determinism suite in ``tests/test_journal.py`` pins this across serial
and parallel execution and multiple kill points.  A resumed allocation
gets a fresh wall-clock budget, mirroring a new PBS job; the prior
allocation's spend is reported separately.

Variant records are served under the same contract as the persistent
result cache: only when the journaled ``variant_id`` equals the id the
resumed campaign just reserved, so Eq.-1 noise draws can never diverge.
A journal whose header does not match the running campaign (different
model spec, machine, noise seed, search space, algorithm, or
trajectory-relevant config) is refused with a :class:`~repro.errors
.JournalError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..chaos.hooks import crash_point
from ..errors import JournalError
from .evaluation import VariantRecord
from .ioutil import JsonlAppender, atomic_write, log_begun, read_jsonl
from .results import record_from_dict, record_to_dict, validate_record_dict

__all__ = ["JOURNAL_FORMAT", "CampaignJournal", "JournalState",
           "journal_header", "space_fingerprint", "algorithm_fingerprint",
           "has_journal"]

JOURNAL_FORMAT = 1

_JOURNAL_FILE = "journal.jsonl"
_SNAPSHOT_FILE = "snapshot.json"

#: CampaignConfig fields that shape the search trajectory.  Execution
#: knobs (backend, workers, cache_dir, timeouts, backoff) deliberately
#: excluded: the engine guarantees bit-identical results across those —
#: a journal written under the compiled backend replays under the
#: batched backend and vice versa.
_TRAJECTORY_CONFIG_FIELDS = ("nodes", "wall_budget_seconds",
                             "timeout_factor", "min_speedup",
                             "max_evaluations")


def has_journal(directory) -> bool:
    """True when *directory* holds a begun campaign journal — the
    resumability test shared by ``repro chaos``, the campaign service,
    and :func:`~repro.core.campaign.run_or_resume`.  A journal killed
    before or while its header was written counts as "no journal"
    (:func:`~repro.core.ioutil.log_begun`): a fresh create accepts it
    and starts over."""
    return bool(directory) and log_begun(Path(directory) / _JOURNAL_FILE)


def space_fingerprint(space) -> dict:
    """Identity of a search space: the atom order and declared kinds."""
    atoms = [[a.qualified, a.declared_kind] for a in space.atoms]
    digest = hashlib.sha256(
        json.dumps(atoms).encode()).hexdigest()[:16]
    return {"atoms": len(atoms), "fingerprint": digest}


def algorithm_fingerprint(algorithm) -> dict:
    """Identity of a search algorithm: class name + scalar parameters.

    Non-scalar fields (hooks, nested algorithms) are excluded — they
    either cannot affect the trajectory (observability hooks) or are
    covered by the scalar knobs that configure them.
    """
    params = {}
    if dataclasses.is_dataclass(algorithm):
        for f in dataclasses.fields(algorithm):
            if f.name.endswith("_hook"):
                continue
            value = getattr(algorithm, f.name, None)
            if value is None or isinstance(value, (bool, int, float, str)):
                params[f.name] = value
    return {"name": type(algorithm).__name__, "params": params}


def journal_header(evaluator, space, algorithm, config) -> dict:
    """The campaign-identity record validated on resume."""
    return {
        "type": "header",
        "format": JOURNAL_FORMAT,
        "context": evaluator.context(),
        "space": space_fingerprint(space),
        "algorithm": algorithm_fingerprint(algorithm),
        "config": {name: getattr(config, name)
                   for name in _TRAJECTORY_CONFIG_FIELDS},
    }


@dataclass
class JournalState:
    """Everything recovered from one journal directory.

    The oracle uses :attr:`records` as a replay source; the campaign
    driver uses the batch counters for ``resumed_from_batch`` reporting
    and the header for fingerprint validation.
    """

    directory: Path
    header: dict
    records: dict[tuple[int, ...], dict] = field(default_factory=dict)
    intents: dict[int, list] = field(default_factory=dict)
    quarantined: dict[tuple[int, ...], str] = field(default_factory=dict)
    completed_batches: int = 0          # contiguous batch_done prefix
    intent_batches: int = 0             # contiguous batch_intent prefix
    wall_seconds_used: float = 0.0      # sim spend of the dead allocation
    evaluations: int = 0
    finished: bool = False
    interruptions: int = 0
    resumes: int = 0
    warnings: list[str] = field(default_factory=list)
    snapshot: Optional[dict] = None

    # ------------------------------------------------------------------

    @classmethod
    def load(cls, directory: str | Path) -> "JournalState":
        directory = Path(directory)
        path = directory / _JOURNAL_FILE
        if not path.exists():
            raise JournalError(
                f"no campaign journal at {path}; nothing to resume")

        header: Optional[dict] = None
        state: Optional[JournalState] = None
        done: set[int] = set()
        for lineno, entry in read_jsonl(path):
            if entry is None:
                # The expected artifact of a crash mid-append.
                if state is not None:
                    state.warnings.append(
                        f"{path.name}:{lineno}: torn journal line "
                        f"(interrupted write?); skipped")
                continue
            if not isinstance(entry, dict):
                continue
            kind = entry.get("type")
            if header is None:
                if kind != "header":
                    raise JournalError(
                        f"{path} does not start with a campaign header")
                if entry.get("format") != JOURNAL_FORMAT:
                    raise JournalError(
                        f"{path} uses journal format "
                        f"{entry.get('format')!r}; this build reads "
                        f"format {JOURNAL_FORMAT}")
                header = entry
                state = cls(directory=directory, header=header)
                continue
            assert state is not None
            if kind == "batch_intent":
                state.intents[entry.get("batch", -1)] = entry.get("keys", [])
            elif kind in ("variant", "quarantine"):
                data = entry.get("record")
                if not validate_record_dict(data):
                    state.warnings.append(
                        f"{path.name}:{lineno}: malformed {kind} "
                        f"record; skipped")
                    continue
                state.records[tuple(data["kinds"])] = data
                if kind == "quarantine":
                    state.quarantined[tuple(data["kinds"])] = entry.get(
                        "reason", "")
            elif kind == "batch_done":
                done.add(entry.get("batch", -1))
                state.wall_seconds_used = entry.get(
                    "wall_seconds_used", state.wall_seconds_used)
                state.evaluations = entry.get(
                    "evaluations", state.evaluations)
            elif kind == "interrupted":
                state.interruptions += 1
            elif kind == "resume":
                state.resumes += 1
            elif kind == "finished":
                state.finished = True
        if state is None:
            raise JournalError(f"{path} contains no readable records")

        while state.completed_batches in done:
            state.completed_batches += 1
        while state.intent_batches in state.intents:
            state.intent_batches += 1
        state._load_snapshot()
        return state

    def _load_snapshot(self) -> None:
        path = self.directory / _SNAPSHOT_FILE
        if not path.exists():
            return
        try:
            self.snapshot = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            # Snapshots are advisory; resume relies on the journal only.
            self.warnings.append(
                f"{path.name}: unreadable search-state snapshot; ignored")

    @property
    def load_warnings(self) -> list[str]:
        """Alias matching :attr:`ResultCache.load_warnings`: everything
        skipped or ignored while recovering this journal."""
        return self.warnings

    # ------------------------------------------------------------------

    def validate(self, header: dict) -> None:
        """Refuse to resume a campaign that is not the journaled one."""
        checks = (
            ("evaluation context (model spec / machine / noise seed)",
             self.header.get("context"), header["context"]),
            ("search space", self.header.get("space"), header["space"]),
            ("search algorithm", self.header.get("algorithm"),
             header["algorithm"]),
            ("campaign config", self.header.get("config"),
             header["config"]),
        )
        for label, recorded, current in checks:
            if recorded != current:
                raise JournalError(
                    f"journal at {self.directory} was written for a "
                    f"different {label}:\n  journaled: {recorded!r}\n"
                    f"  running:   {current!r}\n"
                    f"refusing to resume — replaying it would corrupt "
                    f"the search trajectory")

    def lookup(self, key: tuple[int, ...],
               variant_id: int) -> Optional[VariantRecord]:
        """Journaled record for *key*, under the cache's id contract."""
        data = self.records.get(tuple(key))
        if data is None or data["variant_id"] != variant_id:
            return None
        return record_from_dict(data)


class CampaignJournal:
    """Append-only writer for one campaign's journal directory.

    Exactly one campaign per directory.  A fresh campaign *creates* the
    journal (and refuses to clobber an existing one — it may be the only
    copy of hours of node time); a resumed campaign *continues* it,
    skipping re-appends for batches the dead process already committed.
    """

    def __init__(self, directory: str | Path, header: dict,
                 state: Optional[JournalState] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _JOURNAL_FILE
        self._state = state
        self._intents = state.intent_batches if state else 0
        self._dones = state.completed_batches if state else 0
        self._snapshots_written = 0
        self.snapshot_failures = 0
        if state is None and log_begun(self.path):
            raise JournalError(
                f"campaign journal already exists at {self.path}; "
                f"resume it (resume=True / --resume) or point "
                f"--journal-dir at a fresh directory")
        self._writer = JsonlAppender(self.path, kind="journal")
        if state is None:
            crash_point("journal.header")
            self._append(header)

    @classmethod
    def create(cls, directory: str | Path, header: dict) -> "CampaignJournal":
        return cls(directory, header)

    @classmethod
    def resume(cls, directory: str | Path, header: dict,
               state: JournalState) -> "CampaignJournal":
        journal = cls(directory, header, state=state)
        journal._append({"type": "resume",
                         "resumed_from_batch": state.completed_batches})
        return journal

    # ------------------------------------------------------------------

    def _append(self, entry: dict) -> None:
        try:
            self._writer.append(entry)
        except OSError as exc:
            # Unlike cache/trace/metrics, the journal may not degrade:
            # its durability IS the resume contract.  Fail the campaign
            # loudly; everything committed so far remains resumable.
            raise JournalError(
                f"journal append to {self.path} failed "
                f"({exc.strerror or exc}); refusing to continue without "
                f"a durable journal — free disk space and resume") from exc

    def batch_intent(self, batch: int, keys: list[list[int]]) -> None:
        """Write-ahead record: *keys* are about to be dispatched.

        Skipped for batches the journal already holds (replay), after
        checking that the replayed trajectory matches the journaled one
        — a divergence means the resume validation missed something and
        continuing would corrupt the campaign.
        """
        if batch < self._intents:
            recorded = self._state.intents.get(batch) if self._state else None
            if recorded is not None and recorded != keys:
                raise JournalError(
                    f"replayed batch {batch} diverged from the journal "
                    f"(journaled {len(recorded)} keys, replay produced "
                    f"{len(keys)}); refusing to continue")
            return
        crash_point("journal.batch_intent")
        self._append({"type": "batch_intent", "batch": batch, "keys": keys})
        self._intents = batch + 1

    def variant(self, batch: int, record: VariantRecord) -> None:
        """One freshly evaluated variant completed."""
        crash_point("journal.variant")
        self._append({"type": "variant", "batch": batch,
                      "record": record_to_dict(record)})

    def quarantine(self, batch: int, record: VariantRecord,
                   reason: str) -> None:
        """A poison variant's permanent typed failure.

        Journaled (unlike transient synthesized failures) so a resumed
        campaign replays the quarantine instead of re-poisoning its
        worker pool; served through :meth:`JournalState.lookup` under
        the same variant-id contract as ordinary records.
        """
        self._append({"type": "quarantine", "batch": batch,
                      "reason": reason,
                      "record": record_to_dict(record)})

    def batch_done(self, batch: int, sim_seconds: float,
                   wall_seconds_used: float, evaluations: int) -> None:
        if batch < self._dones:
            return
        crash_point("journal.batch_done")
        self._append({"type": "batch_done", "batch": batch,
                      "sim_seconds": sim_seconds,
                      "wall_seconds_used": wall_seconds_used,
                      "evaluations": evaluations})
        self._dones = batch + 1

    def mark_interrupted(self, reason: str) -> None:
        self._append({"type": "interrupted", "reason": reason})

    def mark_finished(self) -> None:
        crash_point("journal.finished")
        self._append({"type": "finished"})

    # ------------------------------------------------------------------

    def snapshot(self, state: dict) -> None:
        """Atomically replace the search-state snapshot.

        Written via :func:`~repro.core.ioutil.atomic_write` (temp file
        + fsync + ``os.replace``) so a crash mid-write can never leave
        a half-written snapshot — readers see either the previous
        snapshot or the new one.  Snapshots are advisory (the journal
        alone drives resume), so a refused write degrades instead of
        failing the campaign.
        """
        crash_point("journal.snapshot")
        target = self.directory / _SNAPSHOT_FILE
        try:
            atomic_write(target, json.dumps(state, sort_keys=True),
                         kind="snapshot")
        except OSError:
            self.snapshot_failures += 1
            return
        self._snapshots_written += 1

    def close(self) -> None:
        self._writer.close()
