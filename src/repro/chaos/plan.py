"""Seeded, serializable fault schedules.

A :class:`FaultPlan` is the deterministic description of *everything*
that will go wrong during one campaign: which worker evaluations
crash/hang/raise (the only worker fault-injection path), which named
crash point SIGKILLs the campaign process on which hit, and which
state-file writes are torn, refused (ENOSPC), fsync-degraded, or
corrupted.  Plans round-trip through JSON so a failure scenario found
by the seeded fuzzer can be replayed exactly (``repro chaos --plan
plan.json``) and referenced in bug reports by digest.

Determinism contract: the same plan against the same campaign config
injects the same faults at the same logical instants regardless of
wall-clock, host, or worker count — faults key on *logical* indices
(variant ids, nth append to a file kind, nth hit of a crash point),
never on timing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .hooks import campaign_crash_points, registered_crash_points

__all__ = ["KillAt", "WorkerFault", "IOFault", "FaultPlan",
           "WORKER_FAULT_MODES", "IO_FAULT_MODES", "IO_TARGETS"]

WORKER_FAULT_MODES = ("crash", "hang", "raise")

#: State-file kinds whose writes the engine can sabotage.  Each maps to
#: the ``kind=`` tag the owning layer passes to repro.core.ioutil.
#: ``service`` covers the job-queue server's state files (service
#: journal appends and result.json publication) — like ``journal``, a
#: refused service write is a correct hard error, not a recoverable one.
IO_TARGETS = ("journal", "cache", "trace", "snapshot", "metrics", "profile",
              "service")

#: ``torn_kill`` — write a prefix of the payload, fsync it, SIGKILL the
#: process (produces exactly the torn-tail artifact satellite 1 must
#: tolerate).  ``enospc`` — the write raises OSError(ENOSPC).
#: ``fsync_error`` — data is written but fsync raises OSError(EIO).
#: ``corrupt`` — the payload is replaced with garbage bytes (atomic
#: writes only: models a bad disk, not a torn append).
IO_FAULT_MODES = ("torn_kill", "enospc", "fsync_error", "corrupt")


@dataclass(frozen=True)
class KillAt:
    """SIGKILL the campaign process at the *hit*-th execution (1-based)
    of a registered crash point."""

    point: str
    hit: int = 1

    def __post_init__(self):
        if self.point not in registered_crash_points():
            raise ValueError(f"unknown crash point {self.point!r}")
        if self.hit < 1:
            raise ValueError("hit is 1-based")


@dataclass(frozen=True)
class WorkerFault:
    """Sabotage the worker-side evaluation of one variant id.

    ``once=True`` (transient) injects on the first attempt only — the
    retry succeeds and the campaign must recover bit-identically.
    ``once=False`` is a *poison* variant: every attempt fails the same
    way, which must trigger quarantine rather than wedge the campaign.
    """

    variant_id: int
    mode: str = "crash"
    once: bool = True

    def __post_init__(self):
        if self.mode not in WORKER_FAULT_MODES:
            raise ValueError(f"unknown worker fault mode {self.mode!r}")
        if self.variant_id < 0:
            raise ValueError("variant_id must be >= 0")


@dataclass(frozen=True)
class IOFault:
    """Sabotage the *index*-th (1-based) write of one state-file kind."""

    target: str
    mode: str = "enospc"
    index: int = 1

    def __post_init__(self):
        if self.target not in IO_TARGETS:
            raise ValueError(f"unknown io target {self.target!r}")
        if self.mode not in IO_FAULT_MODES:
            raise ValueError(f"unknown io fault mode {self.mode!r}")
        if self.index < 1:
            raise ValueError("index is 1-based")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, replayable fault schedule for one campaign run."""

    seed: int = 0
    kills: tuple[KillAt, ...] = ()
    worker_faults: tuple[WorkerFault, ...] = ()
    io_faults: tuple[IOFault, ...] = ()

    # -- serialization -------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "kills": [dataclasses.asdict(k) for k in self.kills],
            "worker_faults": [dataclasses.asdict(w)
                              for w in self.worker_faults],
            "io_faults": [dataclasses.asdict(f) for f in self.io_faults],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            kills=tuple(KillAt(**k) for k in payload.get("kills", ())),
            worker_faults=tuple(WorkerFault(**w)
                                for w in payload.get("worker_faults", ())),
            io_faults=tuple(IOFault(**f)
                            for f in payload.get("io_faults", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_payload(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def digest(self) -> str:
        """Stable short id for logs, traces, and bug reports."""
        blob = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    # -- introspection -------------------------------------------------

    @property
    def empty(self) -> bool:
        return not (self.kills or self.worker_faults or self.io_faults)

    def has_poison(self) -> bool:
        return any(not w.once for w in self.worker_faults)

    def describe(self) -> str:
        lines = [f"fault plan {self.digest()} (seed={self.seed})"]
        for k in self.kills:
            lines.append(f"  kill  SIGKILL at crash point {k.point} "
                         f"(hit {k.hit})")
        for w in self.worker_faults:
            kind = "once" if w.once else "poison"
            lines.append(f"  work  variant {w.variant_id}: {w.mode} "
                         f"({kind})")
        for f in self.io_faults:
            lines.append(f"  io    {f.target} write #{f.index}: {f.mode}")
        if self.empty:
            lines.append("  (no faults scheduled)")
        return "\n".join(lines)

    # -- generation ----------------------------------------------------

    @classmethod
    def random(cls, seed: int, allow_poison: bool = False) -> "FaultPlan":
        """Draw a deterministic plan from *seed*.

        Random plans are constrained to faults the engine guarantees
        are recoverable to byte-identical results: transient worker
        faults, one SIGKILL at a registered crash point, and advisory
        I/O degradation (cache/trace/metrics ENOSPC or fsync failure —
        the journal's durability path is exercised by the explicit
        matrix, not by random refusal, because a refused journal write
        is a *correct* hard error, not a recoverable one).  Poison
        variants change result bytes by design (typed permanent
        failure), so they are opt-in via ``allow_poison``.
        """
        rng = random.Random(seed)
        kills: list[KillAt] = []
        worker_faults: list[WorkerFault] = []
        io_faults: list[IOFault] = []

        if rng.random() < 0.8:
            # Random plans target a single campaign, so only the points
            # reachable inside one (service.* points need a server).
            point = rng.choice(campaign_crash_points())
            kills.append(KillAt(point=point, hit=rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            worker_faults.append(WorkerFault(
                variant_id=rng.randint(1, 24),
                mode=rng.choice(("crash", "raise")),
                once=False if (allow_poison and rng.random() < 0.3)
                else True))
        for _ in range(rng.randint(0, 2)):
            io_faults.append(IOFault(
                target=rng.choice(("cache", "trace", "metrics")),
                mode=rng.choice(("enospc", "fsync_error")),
                index=rng.randint(1, 8)))
        return cls(seed=seed, kills=tuple(kills),
                   worker_faults=tuple(worker_faults),
                   io_faults=tuple(io_faults))
