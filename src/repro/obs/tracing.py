"""Span tracing: nested timing scopes flushed as crash-safe JSON lines.

A :class:`Tracer` records a tree of named spans — ``campaign`` →
``preprocess`` / ``batch`` → per-stage charges (``transform`` /
``compile`` / ``run``) and per-variant evaluations — each carrying both
the **real** wall-clock duration and the **simulated** node-second
charge the campaign accounted for.  The two clocks answer different
questions: wall seconds say where this process spent its time; sim
seconds say where the paper's 12-hour Derecho allocation went, and they
sum exactly to the campaign's reported budget spend (the invariant
``repro trace`` verifies).

Spans are appended to ``<trace_dir>/trace.jsonl`` as each one
*completes*, with the same flush+fsync discipline as the campaign
journal: a killed campaign leaves a readable trace of everything that
finished, alongside the journal it can be resumed from.  A resumed
campaign appends a fresh session (new header line) to the same file;
the summarizer aggregates across sessions, so the per-stage totals keep
matching the summed budget spend.

A ``Tracer(None)`` is a no-op writer: spans still nest and time
themselves (cheaply), nothing touches disk.  That keeps the campaign
code free of ``if tracing:`` branches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..errors import TraceError

__all__ = ["TRACE_FORMAT", "TRACE_FILE", "Span", "Tracer", "load_trace"]

TRACE_FORMAT = 1
TRACE_FILE = "trace.jsonl"


@dataclass
class Span:
    """One live timing scope.  Completed spans exist only as JSON."""

    tracer: "Tracer"
    span_id: int
    parent_id: Optional[int]
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    started: float = 0.0                # perf_counter at entry
    sim_seconds: Optional[float] = None

    def set_sim(self, seconds: float) -> None:
        """Attach the simulated node-second charge for this scope."""
        self.sim_seconds = seconds


class Tracer:
    """Writer for one campaign's span trace (no-op when *trace_dir* is
    None)."""

    def __init__(self, trace_dir: Optional[str | Path] = None,
                 **session_attrs: Any):
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self._writer = None
        self._next_id = 0
        self._stack: list[Span] = []
        self.spans_written = 0
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self.path = self.trace_dir / TRACE_FILE
            # Late import: repro.obs stays import-free of repro.core at
            # module level; ioutil is a leaf with no obs dependency.
            from ..core.ioutil import JsonlAppender
            self._writer = JsonlAppender(self.path, kind="trace")
            self._write({"type": "header", "format": TRACE_FORMAT,
                         "session_start": time.time(),
                         "attrs": session_attrs})

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._writer is not None

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """Open a nested span; use as a context manager.

        The span is written when the ``with`` block exits — including
        on exceptions, so an interrupted batch still leaves its partial
        timing on disk."""
        return _SpanContext(self, name, attrs)

    def emit_span(self, name: str, wall_seconds: Optional[float],
                  sim_seconds: Optional[float],
                  attrs: Optional[dict[str, Any]] = None) -> None:
        """Record an already-measured (point) span under the current
        parent — used for charges computed after the fact, e.g. the
        per-stage decomposition of a batch's wave-max node charge, and
        for worker-evaluated variants whose wall time never crossed the
        result pipe (``wall_seconds=None``)."""
        parent = self.current
        self._finish(Span(
            tracer=self, span_id=self._claim_id(),
            parent_id=parent.span_id if parent else None,
            name=name, attrs=dict(attrs or {}),
            sim_seconds=sim_seconds,
        ), wall_seconds)

    # ------------------------------------------------------------------

    def _claim_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def _enter(self, name: str, attrs: dict[str, Any]) -> Span:
        parent = self.current
        span = Span(tracer=self, span_id=self._claim_id(),
                    parent_id=parent.span_id if parent else None,
                    name=name, attrs=dict(attrs),
                    started=time.perf_counter())
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        wall = time.perf_counter() - span.started
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self._finish(span, wall)

    def _finish(self, span: Span, wall_seconds: Optional[float]) -> None:
        self.spans_written += 1
        if self._writer is None:
            return
        self._write({
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "wall_seconds": wall_seconds,
            "sim_seconds": span.sim_seconds,
            "attrs": span.attrs,
        })

    def _write(self, entry: dict) -> None:
        try:
            self._writer.append(entry)
        except OSError:
            # Tracing is advisory: a full or failing disk degrades this
            # session to in-memory span accounting (spans_written keeps
            # counting) instead of killing the campaign.
            self.close()

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except OSError:
                pass
            self._writer = None


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._enter(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self._span)


def load_trace(trace_dir: str | Path) -> list[dict]:
    """All readable entries (headers + spans) from a trace directory.

    Torn or malformed lines — the expected artifact of a killed writer —
    are skipped, matching the journal's crash-tolerance posture.  A
    missing trace file raises :class:`~repro.errors.TraceError`.
    """
    path = Path(trace_dir) / TRACE_FILE
    if not path.exists():
        raise TraceError(
            f"no span trace at {path}; run a campaign with --trace-dir "
            f"(or CampaignConfig.trace_dir) first")
    from ..core.ioutil import read_jsonl
    entries = [entry for _, entry in read_jsonl(path)
               if isinstance(entry, dict)
               and entry.get("type") in ("header", "span")]
    if not entries:
        raise TraceError(f"{path} contains no readable trace entries")
    return entries
