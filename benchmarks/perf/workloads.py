"""Child-process bodies of the outside-in benchmark.

``run.py`` starts every task in a fresh interpreter::

    python3 benchmarks/perf/workloads.py '<task json>'

so each sample pays what one ``repro tune`` process pays: the ``repro``
import, lazy model parsing and a cold ``CODE_CACHE``.  The child prints
its result as one JSON line, last on stdout.  Only repro's public API is
used; a traced task (``"trace": true``) also wraps each layer's public
callables (see ``layers.py``) and returns the spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import layers

#: Workload sizes, fitted so several fresh-process samples fit in one
#: run of ``run_seconds`` (``BENCHMARK.json``).  The pinned digests in
#: ``digests.json`` hold for these sizes at the default seed.
SIZES = {
    # ddmin waves of width 1, 2 and 4: 7 evaluations per campaign.
    "mom6-ddmin": {"max_evaluations": 8},
    # One 256-lane wave.
    "mom6-wide": {"samples": 256, "batch_size": 256},
    # One 32-variant wave split over two worker processes.
    "mom6-pool": {"samples": 32, "batch_size": 32, "workers": 2},
    # Per sample: this many cold jobs, as many warm ones, one restart.
    # At a cap of 20 evaluations nearly every seed takes the same five
    # ddmin batches (19 evaluations); at 80 the trajectory splits into
    # 28 or 39 evaluations by seed, and job latency with it.
    "service-funarc": {"jobs": 6, "max_evaluations": 20},
}


#: RandomSearch seed of the mom6-wide and mom6-pool variant sets.
VARIANT_SEED = 2024


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb() -> float:
    """Largest ru_maxrss of this process and its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def campaign(task: dict) -> dict:
    """One MOM6 campaign: default ddmin, or a batched random search."""
    from repro.core import (CampaignConfig, Evaluator, RandomSearch,
                            run_campaign)
    from repro.models import Mom6Case

    size, seed = task["size"], task["seed"]
    if task["workload"] == "mom6-ddmin":
        config = CampaignConfig(seed=seed, backend=task["backend"],
                                max_evaluations=size["max_evaluations"])
        algorithm = None            # run_campaign's default DeltaDebugSearch
    else:
        # The variant set is fixed; the seed drives the Eq.-1 noise.  A
        # seeded set would vary the share of variants that crash early
        # (14 to 20 of 32, at ~0.06 s against ~0.45 s each), and with it
        # the campaign wall by up to 25% between seeds.
        config = CampaignConfig(seed=seed, backend="batched",
                                workers=size.get("workers", 1))
        algorithm = RandomSearch(samples=size["samples"],
                                 batch_size=size["batch_size"],
                                 seed=VARIANT_SEED)
    case = Mom6Case()
    evaluator = Evaluator(case, timeout_factor=config.timeout_factor,
                          seed=seed, backend=config.backend)
    ready = time.monotonic()
    result = run_campaign(case, config, algorithm=algorithm,
                          evaluator=evaluator)
    done = time.monotonic()
    return {
        "ready": ready, "window": [ready, done],
        "ops": {"campaign_s": done - ready},
        "digest": _sha(result.to_json()),
        "attempted": result.oracle.evaluations,
        "failed": sum(t.failures for t in result.oracle.telemetry),
        "errors": [],
    }


def service(task: dict) -> dict:
    """Cold jobs, warm jobs and a restart on one fresh state directory."""
    from repro.core import CampaignConfig
    from repro.errors import ServiceError
    from repro.service import CampaignService, JobSpec

    size, seed = task["size"], task["seed"]
    state = Path(task["state_dir"])
    svc = CampaignService(state / "service")
    ready = time.monotonic()
    specs = {tenant: [JobSpec(model="funarc", tenant=tenant,
                              config=CampaignConfig(
                                  max_evaluations=size["max_evaluations"],
                                  seed=seed + i,
                                  cache_dir=str(state / "cache")))
                      for i in range(size["jobs"])]
             for tenant in ("a", "b")}
    errors: list[str] = []

    def serve(spec) -> tuple[float, str]:
        started = time.monotonic()
        rec, _ = svc.submit(spec)
        svc.run_pending()
        try:
            text = svc.result_text(rec.job_id)
        except ServiceError as exc:
            errors.append(f"job {rec.job_id}: {exc}")
            text = ""
        return time.monotonic() - started, text

    cold = [serve(spec) for spec in specs["a"]]
    warm = [serve(spec) for spec in specs["b"]]
    for i, ((_, hot), (_, text)) in enumerate(zip(cold, warm)):
        if text != hot:
            errors.append(f"warm job {i} served other bytes than cold")
    svc.close()

    started = time.monotonic()
    svc = CampaignService(state / "service")
    for i, (spec, (_, hot)) in enumerate(zip(specs["a"], cold)):
        rec, deduplicated = svc.submit(spec)
        if not deduplicated or rec.state != "done":
            errors.append(f"restart: job {i} did not attach to its "
                          f"finished job (state {rec.state})")
        elif svc.result_text(rec.job_id) != hot:
            errors.append(f"restart: job {i} served other bytes")
    done = time.monotonic()
    svc.close()
    return {
        "ready": ready, "window": [ready, done],
        "ops": {"cold_s": [t for t, _ in cold], "warm_s": [t for t, _ in warm],
                "restart_s": done - started},
        "digest": _sha("".join(text for _, text in cold)),
        "job0_digest": _sha(cold[0][1]),
        # Three job operations per spec, plus the warm and restart checks.
        "attempted": 5 * size["jobs"],
        "failed": len(errors),
        "errors": errors,
    }


def direct(task: dict) -> dict:
    """Service job 0's spec run directly, for the served-bytes check."""
    from repro.core import CampaignConfig, make_algorithm, run_campaign
    from repro.models import get_model

    size = task["size"]
    case = get_model("funarc")
    config = CampaignConfig(max_evaluations=size["max_evaluations"],
                            seed=task["seed"])
    ready = time.monotonic()
    result = run_campaign(case, config, algorithm=make_algorithm(
        "dd", case, config.max_evaluations))
    done = time.monotonic()
    return {"ready": ready, "window": [ready, done], "ops": {},
            "digest": _sha(result.to_json()),
            "attempted": result.oracle.evaluations, "failed": 0, "errors": []}


def warmup(task: dict) -> dict:
    """Import what the workloads import, so bytecode compilation and
    cold page-cache reads happen before the first timed sample."""
    import numpy

    import repro.service  # noqa: F401
    now = time.monotonic()
    return {"ready": now, "window": [now, now], "ops": {},
            "numpy": numpy.__version__, "attempted": 0, "failed": 0,
            "errors": []}


ROLES = {"campaign": campaign, "service": service, "direct": direct,
         "warmup": warmup}


def run_task(task: dict) -> dict:
    """Run one task in this process and return its result dict."""
    import repro
    from repro.fortran import CODE_CACHE

    src = Path(task["src"]).resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {src}")
    recorder = None
    if task.get("trace"):
        recorder = layers.SpanRecorder(task["workload"], task["sample"])
        layers.install(recorder)
    compile0 = CODE_CACHE.stats()
    try:
        result = ROLES[task["role"]](task)
    finally:
        if recorder is not None:
            recorder.restore()
    compile1 = CODE_CACHE.stats()
    result["setup_s"] = result["ready"] - task["spawned"]
    result["rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        delta = {k: compile1[k] - compile0[k]
                 for k in ("procedures_compiled", "cache_hits")}
        result["layers"] = layers.layer_metrics(recorder.spans, delta,
                                                tuple(result["window"]))
        result["spans"] = recorder.spans
    return result


if __name__ == "__main__":
    print(json.dumps(run_task(json.loads(sys.argv[1]))))
