"""Bus → metrics bridge: the standard campaign instrument set.

One :class:`MetricsCollector` subscribed to the campaign bus maintains
the registry every campaign exports (Prometheus text file under the
trace directory, ``CampaignResult.metrics``):

* ``repro_evaluations_total{outcome=...}`` — variants by outcome class,
  counting every resolved variant exactly once (hits included), so the
  counter is identical across worker counts, cache states, and resumes;
* ``repro_variant_results_total{source=...}`` — where records came from
  (fresh / memory / disk / replay / worker-failure): the cache-hit-rate
  numerator and denominator;
* ``repro_sim_seconds_total{stage=...}`` — simulated node-seconds
  charged per pipeline stage (preprocess / profile / transform /
  compile / run);
* ``repro_worker_retries_total`` / ``repro_worker_failures_total`` /
  ``repro_backoff_seconds_total`` — fault-tolerance activity;
* ``repro_stored_runs_total`` — fresh evaluations finalized from a
  stored model run instead of running the model (a service job);
* ``repro_batches_total``, ``repro_batch_sim_seconds`` (histogram),
  ``repro_queue_depth`` (dispatched in the latest batch),
  ``repro_wall_seconds_total`` — batch pipeline shape;
* ``repro_backend_campaigns_total{backend=...}`` — which Fortran
  execution backend (compiled / batched) served the campaign;
* ``repro_batched_lanes_total`` / ``repro_batched_fallback_lanes_total``
  / ``repro_batch_width`` (histogram) — batched-backend wave shape:
  vectorized vs scalar-fallback lanes (absent unless batched ran);
* ``repro_campaign_finished`` / ``repro_campaign_interrupted`` gauges.
"""

from __future__ import annotations

from .bus import EventBus
from .events import (BackendSelected, BatchCompleted, CacheWarnings,
                     CampaignFinished, CircuitBreakerOpen, FaultInjected,
                     JobFailed, JobFinished, JobStarted, JobSubmitted,
                     PreprocessingDone, ProfileComputed, VariantEvaluated,
                     VariantQuarantined, WorkerBackoff, WorkerFailure,
                     WorkerRetry)
from .metrics import MetricsRegistry

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Subscriber that folds campaign events into a metrics registry."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def attach(self, bus: EventBus) -> None:
        bus.subscribe(self, (VariantEvaluated, BatchCompleted,
                             BackendSelected, PreprocessingDone,
                             ProfileComputed, CacheWarnings, WorkerRetry,
                             WorkerBackoff, WorkerFailure, FaultInjected,
                             VariantQuarantined, CircuitBreakerOpen,
                             CampaignFinished, JobSubmitted, JobStarted,
                             JobFinished, JobFailed))

    # ------------------------------------------------------------------

    def __call__(self, event: object) -> None:
        reg = self.registry
        if isinstance(event, VariantEvaluated):
            reg.counter("repro_evaluations_total",
                        "variants resolved, by outcome class",
                        outcome=event.outcome).inc()
            reg.counter("repro_variant_results_total",
                        "variant records by provenance",
                        source=event.source).inc()
            for stage, seconds in event.stages:
                reg.counter("repro_sim_seconds_total",
                            "simulated node-seconds by pipeline stage",
                            stage=stage).inc(seconds)
            if event.sim_seconds > 0:
                reg.histogram("repro_variant_sim_seconds",
                              "simulated cost of fresh evaluations"
                              ).observe(event.sim_seconds)
        elif isinstance(event, BatchCompleted):
            bt = event.telemetry
            reg.counter("repro_batches_total", "batches committed").inc()
            reg.counter("repro_worker_retries_total",
                        "worker attempts repeated after crash/hang"
                        ).inc(bt.retries)
            reg.counter("repro_worker_failures_total",
                        "variants downgraded after retry exhaustion"
                        ).inc(bt.failures)
            reg.counter("repro_backoff_seconds_total",
                        "real seconds slept between retry rounds"
                        ).inc(bt.backoff_seconds)
            reg.counter("repro_stored_runs_total",
                        "fresh evaluations finalized from a stored "
                        "model run").inc(bt.stored_runs)
            reg.counter("repro_wall_seconds_total",
                        "real seconds spent evaluating batches"
                        ).inc(bt.wall_seconds)
            reg.gauge("repro_queue_depth",
                      "cache misses dispatched in the latest batch"
                      ).set(bt.dispatched)
            reg.histogram("repro_batch_sim_seconds",
                          "simulated node-seconds charged per batch"
                          ).observe(bt.sim_seconds)
            if bt.vector_lanes or bt.fallback_lanes:
                # Batched-backend wave shape: how wide the lockstep
                # sweeps ran and how many lanes diverged to the scalar
                # fallback.  Counters exist only when the batched
                # backend ran, so other campaigns export unchanged.
                reg.counter("repro_batched_lanes_total",
                            "lanes evaluated on the vectorized path"
                            ).inc(bt.vector_lanes)
                reg.counter("repro_batched_fallback_lanes_total",
                            "lanes re-run on the compiled scalar path"
                            ).inc(bt.fallback_lanes)
                reg.histogram("repro_batch_width",
                              "fresh lanes per batched wave"
                              ).observe(bt.vector_lanes + bt.fallback_lanes)
        elif isinstance(event, BackendSelected):
            reg.counter("repro_backend_campaigns_total",
                        "campaigns run, by execution backend",
                        backend=event.backend).inc()
        elif isinstance(event, PreprocessingDone):
            reg.counter("repro_sim_seconds_total",
                        "simulated node-seconds by pipeline stage",
                        stage="preprocess").inc(event.sim_seconds)
        elif isinstance(event, ProfileComputed):
            reg.counter("repro_sim_seconds_total",
                        "simulated node-seconds by pipeline stage",
                        stage="profile").inc(event.sim_seconds)
            reg.counter("repro_profiles_total",
                        "numerical profiles resolved, by provenance",
                        source=event.source).inc()
        elif isinstance(event, CacheWarnings):
            reg.counter("repro_cache_warnings_total",
                        "unreadable entries skipped while loading the "
                        "persistent result cache").inc(event.count)
        elif isinstance(event, WorkerRetry):
            pass  # aggregated via BatchCompleted.telemetry.retries
        elif isinstance(event, WorkerBackoff):
            pass  # aggregated via BatchCompleted.telemetry.backoff_seconds
        elif isinstance(event, WorkerFailure):
            pass  # aggregated via BatchCompleted.telemetry.failures
        elif isinstance(event, FaultInjected):
            reg.counter("repro_chaos_faults_total",
                        "faults injected by the chaos engine",
                        kind=event.kind, mode=event.mode).inc()
        elif isinstance(event, VariantQuarantined):
            reg.counter("repro_quarantined_variants_total",
                        "poison variants recorded as permanent typed "
                        "failures", outcome=event.outcome).inc()
        elif isinstance(event, CircuitBreakerOpen):
            reg.counter("repro_circuit_breaker_opens_total",
                        "batches where pool rebuilding was abandoned "
                        "after consecutive pool deaths").inc()
        elif isinstance(event, CampaignFinished):
            reg.gauge("repro_campaign_finished",
                      "1 when the search ran to completion"
                      ).set(1.0 if event.finished else 0.0)
            reg.gauge("repro_campaign_interrupted",
                      "1 when the campaign stopped on SIGINT/SIGTERM"
                      ).set(1.0 if event.interrupted else 0.0)
        elif isinstance(event, JobSubmitted):
            reg.counter("repro_service_jobs_submitted_total",
                        "job specs accepted by the campaign service",
                        tenant=event.tenant).inc()
            if event.deduplicated:
                reg.counter("repro_service_jobs_deduplicated_total",
                            "submissions attached to an existing job by "
                            "content digest", tenant=event.tenant).inc()
        elif isinstance(event, JobStarted):
            reg.counter("repro_service_jobs_started_total",
                        "jobs dispatched to a worker slot",
                        tenant=event.tenant).inc()
            if event.resumed:
                reg.counter("repro_service_jobs_resumed_total",
                            "jobs resumed from a surviving campaign "
                            "journal after a server restart",
                            tenant=event.tenant).inc()
        elif isinstance(event, JobFinished):
            reg.counter("repro_service_jobs_finished_total",
                        "jobs whose result.json was published",
                        tenant=event.tenant).inc()
        elif isinstance(event, JobFailed):
            reg.counter("repro_service_jobs_failed_total",
                        "jobs whose campaign raised",
                        tenant=event.tenant).inc()
