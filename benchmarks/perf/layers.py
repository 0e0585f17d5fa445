"""Per-layer timing for the traced benchmark run, taken from outside.

A traced child replaces public callables of each ``repro`` layer with
timing wrappers (:func:`install`), keeps one span per call in memory
(name, start, end, parent, workload, sample), and restores the
originals before it exits.  Nothing under ``src/`` is edited, so the
untraced run measures exactly the code a user runs.

:func:`layer_metrics` reduces one child's spans to the per-layer
metrics below; ``run.py`` reports their median over traced samples.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

#: Per-layer metrics in report order: (name, unit, better).  The names
#: and units are the ``per_layer`` entries of ``BENCHMARK.json``.
LAYER_METRICS = (
    ("models.run_calls", "count", "lower"),
    ("models.run_s", "s", "lower"),
    ("models.run_share_pct", "%", "lower"),
    ("fortran.compile.code_for_s", "s", "lower"),
    ("fortran.compile.procedures_compiled", "count", "lower"),
    ("fortran.compile.code_cache_hits", "count", "higher"),
    ("fortran.batch.setup_s", "s", "lower"),
    ("fortran.batch.lane_call_s", "s", "lower"),
    ("fortran.batch.vector_lanes", "count", "higher"),
    ("fortran.batch.fallback_lanes", "count", "lower"),
    ("core.evaluation.setup_s", "s", "lower"),
    ("core.evaluation.evaluate_s", "s", "lower"),
    ("core.evaluation.self_s", "s", "lower"),
    ("core.campaign.batches", "count", "lower"),
    ("core.campaign.variants", "count", "lower"),
    ("core.campaign.wave_width_mean", "count", "higher"),
    ("core.campaign.evaluate_batch_s", "s", "lower"),
    ("core.campaign.oracle_self_s", "s", "lower"),
    ("core.search.self_s", "s", "lower"),
    ("core.parallel.setup_s", "s", "lower"),
    ("core.parallel.wait_s", "s", "lower"),
    ("core.parallel.close_s", "s", "lower"),
    ("core.parallel.retries", "count", "lower"),
    ("core.parallel.failures", "count", "lower"),
    ("core.cache.load_s", "s", "lower"),
    ("core.cache.gets", "count", "lower"),
    ("core.cache.get_s", "s", "lower"),
    ("core.cache.puts", "count", "lower"),
    ("core.cache.put_s", "s", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.journal.appends", "count", "lower"),
    ("core.journal.append_s", "s", "lower"),
    ("core.journal.snapshots", "count", "lower"),
    ("core.journal.snapshot_s", "s", "lower"),
    ("core.journal.load_s", "s", "lower"),
    ("core.ioutil.fsyncs", "count", "lower"),
    ("core.ioutil.fsync_s", "s", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.emit_s", "s", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.span_s", "s", "lower"),
    ("service.open_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.execute_s", "s", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.result_read_s", "s", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


class SpanRecorder:
    """Wraps callables and records one span per call, in memory."""

    def __init__(self, workload: str = "", sample: int = 0):
        self.workload = workload
        self.sample = sample
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span *name*.

        *owner* is a class (the attribute must be defined on it, not
        inherited) or a module.  ``note(args, result)`` returns extra
        attributes stored on the span after a successful call.
        """
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        spans, stack = self.spans, self._stack
        workload, sample = self.workload, self.sample

        @functools.wraps(func)
        def timed(*args, **kwargs):
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": stack[-1] if stack else None,
                    "workload": workload, "sample": sample}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
            if note is not None:
                span.update(note(args, result))
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public callables of every layer the benchmark reports."""
    import os

    from repro.core import (BudgetedOracle, CampaignJournal,
                            DeltaDebugSearch, Evaluator, JournalState,
                            ParallelOracle, RandomSearch, ResultCache)
    from repro.fortran import BatchLane, CodeCache, VariantBatch
    from repro.models import ModelCase
    from repro.obs import EventBus, Tracer
    from repro.service import CampaignService

    def batch_note(args, result):
        oracle = args[0]
        last = oracle.telemetry[-1]
        return {"size": len(args[1]),
                "pool": isinstance(oracle, ParallelOracle),
                "retries": last.retries, "failures": last.failures}

    wrap = recorder.wrap
    wrap(ModelCase, "run", "models:ModelCase.run")
    wrap(CodeCache, "code_for", "fortran.compile:CodeCache.code_for")
    wrap(VariantBatch, "__init__", "fortran.batch:VariantBatch.__init__")
    wrap(BatchLane, "call", "fortran.batch:BatchLane.call")
    wrap(VariantBatch, "stats", "fortran.batch:VariantBatch.stats",
         note=lambda args, s: {"vector_lanes": s.vector_lanes,
                               "fallback_lanes": s.fallback_lanes})
    wrap(Evaluator, "__init__", "core.evaluation:Evaluator.__init__")
    wrap(Evaluator, "evaluate_assigned",
         "core.evaluation:Evaluator.evaluate_assigned")
    wrap(Evaluator, "evaluate_assigned_batch",
         "core.evaluation:Evaluator.evaluate_assigned_batch")
    wrap(BudgetedOracle, "evaluate_batch",
         "core.campaign:BudgetedOracle.evaluate_batch", note=batch_note)
    wrap(DeltaDebugSearch, "run", "core.search:DeltaDebugSearch.run")
    wrap(RandomSearch, "run", "core.search:RandomSearch.run")
    wrap(ParallelOracle, "for_model", "core.parallel:ParallelOracle.for_model")
    wrap(ParallelOracle, "close", "core.parallel:ParallelOracle.close")
    wrap(ResultCache, "__init__", "core.cache:ResultCache.__init__")
    wrap(ResultCache, "get", "core.cache:ResultCache.get",
         note=lambda args, record: {"hit": record is not None})
    wrap(ResultCache, "put", "core.cache:ResultCache.put")
    for method in ("batch_intent", "variant", "batch_done"):
        wrap(CampaignJournal, method, f"core.journal:CampaignJournal.{method}")
    wrap(CampaignJournal, "snapshot", "core.journal:CampaignJournal.snapshot")
    wrap(JournalState, "load", "core.journal:JournalState.load")
    wrap(os, "fsync", "core.ioutil:os.fsync")
    wrap(EventBus, "emit", "obs:EventBus.emit")
    wrap(Tracer, "span", "obs:Tracer.span")
    wrap(Tracer, "emit_span", "obs:Tracer.emit_span")
    for method in ("__init__", "submit", "next_job", "execute", "result_text"):
        wrap(CampaignService, method, f"service:CampaignService.{method}")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = union_length(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children[i] if c["end"] > span["start"]
            and c["start"] < span["end"])
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_metrics(spans: list[dict], code_cache_delta: dict,
                  window: tuple[float, float]) -> dict:
    """Per-layer metrics (all but ``trace_overhead_pct``) of one child;
    *window* is the (start, end) of its timed operation."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)

    def picked(*names, where=None):
        return [i for n in names for i in by_name.get(n, ())
                if where is None or where(spans[i])]

    def count(*names, where=None):
        return float(len(picked(*names, where=where)))

    def busy(*names, where=None):
        return union_length((spans[i]["start"], spans[i]["end"])
                            for i in picked(*names, where=where))

    def self_sum(*names, where=None):
        return sum(selfs[i] for i in picked(*names, where=where))

    def layer(prefix):
        return [n for n in by_name if n.startswith(prefix + ":")]

    def total(attr, *names):
        # Spans of calls that raised (a budget refusal) carry no note.
        return float(sum(spans[i].get(attr, 0) for i in picked(*names)))

    run = "models:ModelCase.run"
    batch = "core.campaign:BudgetedOracle.evaluate_batch"
    evaluate = ("core.evaluation:Evaluator.evaluate_assigned",
                "core.evaluation:Evaluator.evaluate_assigned_batch")
    appends = tuple(f"core.journal:CampaignJournal.{m}"
                    for m in ("batch_intent", "variant", "batch_done"))
    lo, hi = window
    variants = total("size", batch)
    batches = count(batch, where=lambda s: "size" in s)
    gets = count("core.cache:ResultCache.get")
    return {
        "models.run_calls": count(run),
        "models.run_s": busy(run),
        "models.run_share_pct": 100.0 * _ratio(busy(
            run, where=lambda s: s["start"] >= lo and s["end"] <= hi),
            hi - lo),
        "fortran.compile.code_for_s": busy(
            "fortran.compile:CodeCache.code_for"),
        "fortran.compile.procedures_compiled":
            float(code_cache_delta["procedures_compiled"]),
        "fortran.compile.code_cache_hits":
            float(code_cache_delta["cache_hits"]),
        "fortran.batch.setup_s": busy("fortran.batch:VariantBatch.__init__"),
        "fortran.batch.lane_call_s": busy("fortran.batch:BatchLane.call"),
        "fortran.batch.vector_lanes":
            total("vector_lanes", "fortran.batch:VariantBatch.stats"),
        "fortran.batch.fallback_lanes":
            total("fallback_lanes", "fortran.batch:VariantBatch.stats"),
        "core.evaluation.setup_s": busy("core.evaluation:Evaluator.__init__"),
        "core.evaluation.evaluate_s": busy(*evaluate),
        "core.evaluation.self_s": self_sum(*layer("core.evaluation")),
        "core.campaign.batches": batches,
        "core.campaign.variants": variants,
        "core.campaign.wave_width_mean": _ratio(variants, batches),
        "core.campaign.evaluate_batch_s": busy(batch),
        "core.campaign.oracle_self_s": self_sum(
            batch, where=lambda s: not s.get("pool")),
        "core.search.self_s": self_sum(*layer("core.search")),
        "core.parallel.setup_s": busy("core.parallel:ParallelOracle.for_model"),
        "core.parallel.wait_s": self_sum(batch,
                                         where=lambda s: s.get("pool")),
        "core.parallel.close_s": busy("core.parallel:ParallelOracle.close"),
        "core.parallel.retries": total("retries", batch),
        "core.parallel.failures": total("failures", batch),
        "core.cache.load_s": busy("core.cache:ResultCache.__init__"),
        "core.cache.gets": gets,
        "core.cache.get_s": busy("core.cache:ResultCache.get"),
        "core.cache.puts": count("core.cache:ResultCache.put"),
        "core.cache.put_s": busy("core.cache:ResultCache.put"),
        "core.cache.hit_ratio": _ratio(
            count("core.cache:ResultCache.get", where=lambda s: s.get("hit")),
            gets),
        "core.journal.appends": count(*appends),
        "core.journal.append_s": busy(*appends),
        "core.journal.snapshots": count(
            "core.journal:CampaignJournal.snapshot"),
        "core.journal.snapshot_s": busy(
            "core.journal:CampaignJournal.snapshot"),
        "core.journal.load_s": busy("core.journal:JournalState.load"),
        "core.ioutil.fsyncs": count("core.ioutil:os.fsync"),
        "core.ioutil.fsync_s": busy("core.ioutil:os.fsync"),
        "obs.events": count("obs:EventBus.emit"),
        "obs.emit_s": busy("obs:EventBus.emit"),
        "obs.spans": count("obs:Tracer.span", "obs:Tracer.emit_span"),
        "obs.span_s": busy("obs:Tracer.span", "obs:Tracer.emit_span"),
        "service.open_s": busy("service:CampaignService.__init__"),
        "service.submit_s": busy("service:CampaignService.submit",
                                 "service:CampaignService.next_job"),
        "service.execute_s": busy("service:CampaignService.execute"),
        "service.self_s": self_sum(*layer("service")),
        "service.result_read_s": busy("service:CampaignService.result_text"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
