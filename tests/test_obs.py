"""The observability layer: bus, metrics, tracing, and their campaign
integration.

The determinism stakes mirror the engine's: the variant-level event
multiset is identical across serial/parallel execution, the span
trace's per-stage sim-second totals reconcile with the campaign's own
budget accounting (the ``repro trace`` invariant), and the
deterministic metrics embedded in ``CampaignResult.to_json()`` are
stable under persistent-cache replay.
"""

from __future__ import annotations

import json

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.errors import TraceError
from repro.models import FunarcCase
from repro.obs import (BatchCompleted, BatchStarted, EventBus,
                       MetricsRegistry, Tracer, VariantEvaluated, load_trace,
                       subscribes_to, summarize_trace)
from repro.obs.tracing import TRACE_FILE


def _funarc():
    # The multi-batch trajectory from the determinism suites: 27
    # evaluations over 6 batches.
    return FunarcCase(n=150, error_threshold=4.5e-8)


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


def _collect_variants():
    """A (subscriber, events) pair capturing VariantEvaluated events."""
    events: list[VariantEvaluated] = []

    @subscribes_to(VariantEvaluated)
    def subscriber(ev):
        events.append(ev)

    return subscriber, events


# ----------------------------------------------------------------------
# EventBus


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus, seen = EventBus(), []
        bus.subscribe(lambda ev: seen.append(("a", ev)))
        bus.subscribe(lambda ev: seen.append(("b", ev)))
        bus.emit("x")
        assert seen == [("a", "x"), ("b", "x")]
        assert bus.emitted == 1

    def test_typed_subscription_filters(self):
        bus, seen = EventBus(), []
        bus.subscribe(seen.append, (BatchStarted,))
        bus.emit(BatchStarted(batch_index=0, size=8))
        bus.emit(BatchCompleted(telemetry=None))
        assert seen == [BatchStarted(batch_index=0, size=8)]

    def test_subscribes_to_annotation_honoured(self):
        bus, seen = EventBus(), []

        @subscribes_to(BatchStarted)
        def handler(ev):
            seen.append(ev)

        bus.subscribe(handler)
        bus.emit("ignored")
        bus.emit(BatchStarted(batch_index=1, size=2))
        assert seen == [BatchStarted(batch_index=1, size=2)]

    def test_unsubscribe(self):
        bus, seen = EventBus(), []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit(1)
        unsubscribe()
        unsubscribe()  # idempotent
        bus.emit(2)
        assert seen == [1]
        assert len(bus) == 0

    def test_subscriber_exceptions_propagate(self):
        bus = EventBus()

        def boom(ev):
            raise RuntimeError("abort")

        bus.subscribe(boom)
        with pytest.raises(RuntimeError, match="abort"):
            bus.emit("x")


# ----------------------------------------------------------------------
# Metrics registry


class TestMetrics:
    def test_counter_get_or_create_and_monotonicity(self):
        reg = MetricsRegistry()
        c = reg.counter("evals", outcome="ok")
        reg.counter("evals", outcome="ok").inc(2)
        assert c.value == 2.0
        with pytest.raises(ValueError):
            c.inc(-1)
        # A different label set is a different instrument.
        assert reg.counter("evals", outcome="bad").value == 0.0

    def test_kind_clash_refused(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("cost", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3 and h.sum == pytest.approx(55.5)
        assert h.cumulative() == [("1", 1), ("10", 2), ("+Inf", 3)]

    def test_snapshot_deterministic_and_json_stable(self):
        def build(order):
            reg = MetricsRegistry()
            for name, label in order:
                reg.counter(name, stage=label).inc()
            return reg

        a = build([("s", "run"), ("s", "compile"), ("t", "x")])
        b = build([("t", "x"), ("s", "compile"), ("s", "run")])
        assert a.to_json() == b.to_json()

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_evaluations_total", "resolved variants",
                    outcome="PASS").inc(3)
        reg.gauge("repro_queue_depth").set(7)
        text = reg.render_prometheus()
        assert "# TYPE repro_evaluations_total counter" in text
        assert 'repro_evaluations_total{outcome="PASS"} 3' in text
        assert "repro_queue_depth 7" in text


# ----------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_disabled_tracer_is_a_cheap_noop(self, tmp_path):
        tracer = Tracer(None)
        assert not tracer.enabled
        with tracer.span("campaign") as outer:
            with tracer.span("batch") as inner:
                inner.set_sim(10.0)
            outer.set_sim(10.0)
        tracer.emit_span("run", wall_seconds=None, sim_seconds=1.0)
        tracer.close()
        assert tracer.spans_written == 3
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_schema(self, tmp_path):
        tracer = Tracer(tmp_path, model="funarc", workers=1)
        with tracer.span("campaign") as campaign:
            with tracer.span("batch", index=0) as batch:
                batch.set_sim(42.0)
                tracer.emit_span("run", wall_seconds=0.5, sim_seconds=42.0,
                                 attrs={"batch": 0})
            campaign.set_sim(42.0)
        tracer.close()

        entries = load_trace(tmp_path)
        header, *spans = entries
        assert header["type"] == "header"
        assert header["attrs"] == {"model": "funarc", "workers": 1}
        by_name = {s["name"]: s for s in spans}
        # Spans are written on completion: children precede parents.
        assert [s["name"] for s in spans] == ["run", "batch", "campaign"]
        assert by_name["campaign"]["parent"] is None
        assert by_name["batch"]["parent"] == by_name["campaign"]["id"]
        assert by_name["run"]["parent"] == by_name["batch"]["id"]
        assert by_name["run"]["wall_seconds"] == 0.5
        assert by_name["batch"]["sim_seconds"] == 42.0
        assert by_name["batch"]["attrs"] == {"index": 0}
        assert by_name["campaign"]["wall_seconds"] >= 0.0

    def test_exception_annotates_and_still_writes(self, tmp_path):
        tracer = Tracer(tmp_path)
        with pytest.raises(RuntimeError):
            with tracer.span("batch"):
                raise RuntimeError("mid-batch death")
        tracer.close()
        (span,) = [e for e in load_trace(tmp_path) if e["type"] == "span"]
        assert span["attrs"]["error"] == "RuntimeError"

    def test_torn_trailing_line_skipped(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("batch"):
            pass
        tracer.close()
        with (tmp_path / TRACE_FILE).open("a") as fh:
            fh.write('{"type": "span", "name": "ba')
        names = [e.get("name") for e in load_trace(tmp_path)
                 if e["type"] == "span"]
        assert names == ["batch"]

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(TraceError, match="no span trace"):
            load_trace(tmp_path / "absent")


# ----------------------------------------------------------------------
# Campaign integration


class TestCampaignEvents:
    def test_serial_and_parallel_emit_identical_variant_multisets(self):
        sub_serial, serial = _collect_variants()
        sub_parallel, parallel = _collect_variants()
        run_campaign(_funarc(), _config(subscribers=(sub_serial,)))
        run_campaign(_funarc(),
                     _config(workers=2, subscribers=(sub_parallel,)))

        assert serial, "serial campaign emitted no variant events"
        assert sorted(map(repr, serial)) == sorted(map(repr, parallel))

    def test_fresh_events_carry_stage_decomposition(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        subscriber, events = _collect_variants()
        result = run_campaign(_funarc(),
                              _config(cache_dir=cache_dir,
                                      subscribers=(subscriber,)))

        fresh = [ev for ev in events if ev.source == "fresh"]
        assert fresh
        for ev in fresh:
            assert ev.sim_seconds > 0
            assert dict(ev.stages).keys() <= {"transform", "compile", "run"}
            assert sum(s for _, s in ev.stages) == \
                pytest.approx(ev.sim_seconds)
        # Every resolved variant is announced exactly once per batch slot.
        assert len(events) == sum(b.size for b in result.oracle.telemetry)

        # A warm-cache rerun resolves the same variants as free disk
        # hits: zero sim charge, no stage decomposition.
        warm_sub, warm_events = _collect_variants()
        run_campaign(_funarc(),
                     _config(cache_dir=cache_dir, subscribers=(warm_sub,)))
        hits = [ev for ev in warm_events if ev.source == "disk"]
        assert len(hits) == len(fresh)
        for ev in hits:
            assert ev.sim_seconds == 0.0 and ev.stages == ()

    def test_trace_reconciles_with_budget_ledger(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        result = run_campaign(_funarc(), _config(trace_dir=trace_dir))

        summary = summarize_trace(trace_dir)
        campaign_sim = (result.oracle.wall_seconds_used
                        + result.preprocessing_seconds)
        assert summary.sessions == 1
        assert summary.batches == len(result.oracle.telemetry)
        assert summary.variants > 0
        assert summary.campaign_sim_seconds == pytest.approx(campaign_sim)
        # The acceptance bound is 1%; the decomposition is exact, so the
        # observed mismatch is floating-point-tiny.
        assert summary.mismatch_pct() < 1.0
        assert summary.stage_sim_total == pytest.approx(campaign_sim)
        assert summary.stages["preprocess"].sim_seconds == \
            pytest.approx(result.preprocessing_seconds)
        for stage in ("transform", "compile", "run"):
            assert summary.stages[stage].sim_seconds > 0

    def test_trace_survives_crash_and_resume_appends_session(self, tmp_path):
        class Boom(Exception):
            pass

        @subscribes_to(BatchCompleted)
        def kill_after_1(ev):
            if ev.telemetry.batch_index >= 1:
                raise Boom

        trace_dir = str(tmp_path / "trace")
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=journal_dir,
                                 trace_dir=trace_dir,
                                 subscribers=(kill_after_1,)))
        # The killed session left a readable trace of what finished.
        assert summarize_trace(trace_dir).batches == 2

        run_campaign(_funarc(),
                     _config(journal_dir=journal_dir, trace_dir=trace_dir,
                             resume=True))
        summary = summarize_trace(trace_dir)
        assert summary.sessions == 2
        # Both sessions charge T0 preprocessing, replayed batches cost 0,
        # and the stage totals keep reconciling with the summed campaign
        # accounting across sessions.
        assert summary.mismatch_pct() < 1.0

    def test_metrics_stable_under_cache_replay(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_campaign(_funarc(), _config(cache_dir=cache_dir))
        warm = run_campaign(_funarc(), _config(cache_dir=cache_dir))

        # The deterministic subset embedded in to_json() is identical —
        # to_json() byte-identity subsumes it, but pin the metrics dict
        # explicitly so a future exclusion is a deliberate choice.
        assert cold.deterministic_metrics() == warm.deterministic_metrics()
        assert cold.to_json() == warm.to_json()
        assert json.loads(cold.to_json())["metrics"] == \
            cold.deterministic_metrics()

        # The live registries differ exactly by provenance: warm served
        # every previously-fresh variant from disk.
        def by_source(result):
            return result.metrics.snapshot().get(
                "repro_variant_results_total", {})

        cold_sources, warm_sources = by_source(cold), by_source(warm)
        assert cold_sources.get('source="fresh"', 0) > 0
        assert 'source="fresh"' not in warm_sources
        assert warm_sources.get('source="disk"') == \
            cold_sources.get('source="fresh"')
        # Outcome counting is provenance-blind: identical either way.
        assert cold.metrics.snapshot()["repro_evaluations_total"] == \
            warm.metrics.snapshot()["repro_evaluations_total"]

    def test_campaign_writes_prometheus_export(self, tmp_path):
        trace_dir = tmp_path / "trace"
        run_campaign(_funarc(), _config(trace_dir=str(trace_dir)))
        text = (trace_dir / "metrics.prom").read_text()
        assert "# TYPE repro_evaluations_total counter" in text
        assert 'repro_sim_seconds_total{stage="run"}' in text
        assert "repro_campaign_finished 1" in text
