"""Live terminal rendering of a running campaign.

A :class:`ConsoleRenderer` subscribed to the campaign bus prints one
line per committed batch — progress, cache behaviour, the current best
accepted variant (the search frontier), budget spend and an ETA from
the budget ledger — and a closing summary.  ``repro tune --progress``
attaches one; it writes to *stderr* by default so machine-readable
stdout (``repro tune --json``) stays clean.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from .bus import EventBus
from .events import (BatchCompleted, CampaignFinished, CampaignStarted,
                     PreprocessingDone, VariantEvaluated, WorkerBackoff,
                     WorkerFailure, WorkerRetry)

__all__ = ["ConsoleRenderer"]


class ConsoleRenderer:
    """Operator-facing progress lines driven by bus events."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr
        self._budget: Optional[float] = None
        self._sim_spent = 0.0
        self._evaluations = 0
        self._best_speedup: Optional[float] = None
        self._best_fraction: Optional[float] = None

    def attach(self, bus: EventBus) -> None:
        bus.subscribe(self, (CampaignStarted, PreprocessingDone,
                             VariantEvaluated, BatchCompleted, WorkerRetry,
                             WorkerBackoff, WorkerFailure, CampaignFinished))

    def _print(self, line: str) -> None:
        print(line, file=self.stream, flush=True)

    # ------------------------------------------------------------------

    def __call__(self, event: object) -> None:
        if isinstance(event, CampaignStarted):
            self._budget = event.wall_budget_seconds
            resumed = (f"  resuming from batch {event.resumed_from_batch}"
                       if event.resumed_from_batch is not None else "")
            self._print(f"campaign {event.model}: {event.algorithm} search, "
                        f"{event.nodes} nodes, {event.workers} worker(s), "
                        f"budget {event.wall_budget_seconds / 3600:.1f}h"
                        f"{resumed}")
        elif isinstance(event, PreprocessingDone):
            note = f"  ({event.note})" if event.note else ""
            self._print(f"  T0 preprocessing: "
                        f"{event.sim_seconds:.0f}s simulated{note}")
        elif isinstance(event, VariantEvaluated):
            self._evaluations += 1
            if (event.outcome == "PASS" and event.speedup is not None
                    and (self._best_speedup is None
                         or event.speedup > self._best_speedup)):
                self._best_speedup = event.speedup
                self._best_fraction = event.fraction_lowered
        elif isinstance(event, BatchCompleted):
            self._render_batch(event.telemetry)
        elif isinstance(event, WorkerRetry):
            self._print(f"    retry: variant {event.variant_id} "
                        f"attempt {event.attempt + 1} ({event.reason})")
        elif isinstance(event, WorkerBackoff):
            self._print(f"    backoff: round {event.retry_round}, "
                        f"sleeping {event.seconds:.2f}s")
        elif isinstance(event, WorkerFailure):
            self._print(f"    failure: variant {event.variant_id} "
                        f"downgraded to {event.outcome} ({event.reason})")
        elif isinstance(event, CampaignFinished):
            self._render_final(event)

    # ------------------------------------------------------------------

    def _render_batch(self, bt) -> None:
        self._sim_spent += bt.sim_seconds
        frontier = "frontier -"
        if self._best_speedup is not None:
            frontier = (f"frontier {self._best_speedup:.3f}x "
                        f"@{100 * (self._best_fraction or 0):.0f}% lowered")
        budget = ""
        if self._budget:
            used = 100.0 * self._sim_spent / self._budget
            eta = ""
            if bt.batch_index >= 0 and self._sim_spent > 0:
                per_batch = self._sim_spent / (bt.batch_index + 1)
                if per_batch > 0:
                    left = (self._budget - self._sim_spent) / per_batch
                    eta = f"  ~{left:.0f} batches to budget"
            budget = f"  budget {used:.1f}%{eta}"
        extras = ""
        if bt.retries or bt.failures:
            extras = f"  retries {bt.retries} failures {bt.failures}"
        if bt.replayed:
            extras += f"  replayed {bt.replayed}"
        self._print(
            f"  batch {bt.batch_index:3d}: {bt.size:3d} variants  "
            f"dispatched {bt.dispatched:3d}  cache {bt.cache_hits:3d}  "
            f"sim {bt.sim_seconds:7.0f}s  {frontier}{budget}{extras}")

    def _render_final(self, event: CampaignFinished) -> None:
        state = ("interrupted" if event.interrupted
                 else "finished" if event.finished else "budget-exhausted")
        best = (f"  best {self._best_speedup:.3f}x"
                if self._best_speedup is not None else "")
        self._print(f"campaign {event.model} {state}: "
                    f"{event.evaluations} evaluations in "
                    f"{event.batches} batches, "
                    f"{event.sim_seconds / 3600:.2f}h simulated{best}")
