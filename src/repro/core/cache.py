"""Persistent on-disk variant-result cache.

Evaluating one variant means transforming, compiling and running the
model — on the paper's Derecho setup several node-minutes per variant.
Repeated campaigns (bench reruns, threshold sweeps, interrupted jobs)
re-visit mostly the same assignments, so results are persisted as
JSON-lines keyed by the full evaluation context:

* the model spec — registry name plus constructor kwargs, which include
  workload size and correctness threshold (``ModelCase.model_spec``);
* the machine model name, timeout factor, and noise parameters
  (rsd + base seed — the experiment seed);
* the assignment key (kinds over the fixed atom order).

Changing any context component (a different machine, seed, workload, or
threshold) changes the context string, which lands the campaign in a
different cache file — stale entries are never served.

Determinism contract: a cached record is only served when its stored
``variant_id`` equals the id the running campaign just reserved for that
assignment.  Variant ids key the Eq.-1 noise sampling, so serving a
record minted at a different point of a different search trajectory
would change speedups; on id mismatch the variant is transparently
re-evaluated instead.  Warm reruns of the *same* campaign revisit
variants in the same order, so every lookup matches and the rerun is
bit-identical to the cold run (covered by ``tests/test_parallel.py``).

The file format is append-only: one self-describing JSON object per
line.  Concurrent appends from multiple campaigns are safe on POSIX
(single ``write`` of a line < PIPE_BUF); a torn or otherwise corrupt
trailing line — the expected artifact of a writer killed mid-append —
is dropped at load time and surfaced in :attr:`ResultCache
.load_warnings` rather than raised.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from ..chaos.hooks import crash_point
from ..errors import CampaignError
from .evaluation import VariantRecord, evaluation_context
from .ioutil import append_line, read_jsonl, seal_torn_tail
from .results import record_from_dict, record_to_dict, validate_record_dict

__all__ = ["ResultCache", "evaluation_context"]


class ResultCache:
    """JSON-lines store of evaluated variants for one context."""

    def __init__(self, directory: str | Path, context: str):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise CampaignError(
                f"cache path {self.directory} exists and is not a "
                f"directory") from exc
        self.context = context
        digest = hashlib.sha256(context.encode()).hexdigest()[:16]
        self.path = self.directory / f"variants-{digest}.jsonl"
        self._records: dict[tuple[int, ...], dict] = {}
        self.stale_hits = 0       # key present but variant id mismatched
        #: Human-readable notes about entries that could not be loaded
        #: (torn tail from a killed writer, malformed record bodies).
        #: Corruption never raises — a crashed campaign must always be
        #: able to warm-start from whatever survived.
        self.load_warnings: list[str] = []
        self._warned: set[str] = set()
        #: Set after a refused append (ENOSPC, failed fsync): the cache
        #: keeps serving and recording in memory, but stops touching a
        #: disk that is refusing writes.  Results are unaffected — the
        #: cache only changes cost, never trajectory.
        self._persist = True
        self._sealed = False
        self._load()

    @classmethod
    def for_evaluator(cls, directory: str | Path, evaluator) -> "ResultCache":
        return cls(directory, evaluation_context(
            evaluator.model, evaluator.machine, evaluator.noise,
            evaluator.timeout_factor))

    # ------------------------------------------------------------------

    def _warn(self, message: str) -> None:
        """Record a load warning exactly once (order-preserving).

        A resumed campaign re-reads the cache file the interrupted run
        already read, so the same corrupt line would otherwise be
        reported again every time the file is (re)loaded — duplicated
        warnings in ``repro tune`` output and the ``CacheWarnings``
        event for a single on-disk defect.
        """
        if message in self._warned:
            return
        self._warned.add(message)
        self.load_warnings.append(message)

    def _load(self) -> None:
        if not self.path.exists():
            return
        for lineno, entry in read_jsonl(self.path):
            if entry is None:
                # Torn line from a writer killed mid-append; a
                # concurrent writer may have appended past it.
                self._warn(
                    f"{self.path.name}:{lineno}: unparseable JSON "
                    f"(interrupted write?); entry skipped")
                continue
            if not isinstance(entry, dict):
                self._warn(
                    f"{self.path.name}:{lineno}: not a cache entry; skipped")
                continue
            if entry.get("context") != self.context:
                continue
            key = entry.get("key")
            record = entry.get("record")
            if (not isinstance(key, list)
                    or not validate_record_dict(record)):
                self._warn(
                    f"{self.path.name}:{lineno}: malformed cache record; "
                    f"entry skipped")
                continue
            self._records[tuple(key)] = record

    # ------------------------------------------------------------------

    def get(self, key: tuple[int, ...], variant_id: int
            ) -> Optional[VariantRecord]:
        """The cached record for *key*, or None if absent or minted under
        a different variant id (see the determinism contract above)."""
        data = self._records.get(tuple(key))
        if data is None:
            return None
        if data["variant_id"] != variant_id:
            self.stale_hits += 1
            return None
        try:
            return record_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            # Structurally valid at load time but still undeserializable
            # (e.g. mangled proc_perf payload): treat as a miss — the
            # variant is simply re-evaluated.
            self._warn(
                f"{self.path.name}: record for key {list(key)} "
                f"undeserializable ({type(exc).__name__}); re-evaluating")
            del self._records[tuple(key)]
            return None

    def contains(self, key: tuple[int, ...]) -> bool:
        return tuple(key) in self._records

    def put(self, record: VariantRecord) -> None:
        data = record_to_dict(record)
        self._records[tuple(record.kinds)] = data
        if not self._persist:
            return
        line = json.dumps({
            "context": self.context,
            "key": list(record.kinds),
            "record": data,
        }, sort_keys=True)
        crash_point("cache.put")
        if not self._sealed:
            # First append of this process: terminate any torn tail a
            # killed predecessor left, so this line cannot glue onto it.
            seal_torn_tail(self.path)
            self._sealed = True
        try:
            with self.path.open("a") as fh:
                append_line(fh, line, kind="cache")
        except OSError as exc:
            self._persist = False
            self._warn(
                f"{self.path.name}: cache append failed "
                f"({exc.strerror or exc}); persistence disabled for "
                f"this run — results are unaffected, later campaigns "
                f"will re-evaluate")

    def __len__(self) -> int:
        return len(self._records)
