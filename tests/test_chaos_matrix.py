"""The crash-point matrix gate (the chaos engine's tentpole test).

For every crash point the engine registers, kill a funarc campaign at
that point with SIGKILL in a forked child process, then resume the
journal chaos-free and require the final ``CampaignResult.to_json()``
to be **byte-identical** to an uninterrupted run — serially and under
``--workers 2``.  This is the strongest statement the journal design
can make: no matter where in the write-ahead sequence the process
dies, nothing is lost and nothing is double-charged.

Also here (same harness, same model sizing):

* the poison-variant quarantine path end-to-end: a deterministic
  worker crash is retried, quarantined as a typed permanent failure,
  journaled, and the campaign *completes* around it — and a resume
  serves the quarantined record byte-identically without re-running
  the poison;
* a seeded chaos-fuzz case driven by ``--chaos-seed`` (CI pins one
  seed and adds a fresh one per workflow run, mirroring the backend
  differential-fuzzing job).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.chaos import (ChaosEngine, FaultPlan, IOFault, KillAt,
                         WorkerFault, campaign_crash_points,
                         registered_crash_points)
from repro.chaos import hooks as chaos_hooks
from repro.chaos.doctor import diagnose
from repro.core import (CampaignConfig, Outcome, has_journal, run_campaign,
                        run_or_resume)
from repro.core.journal import JournalState
from repro.models import FunarcCase
from repro.obs import VariantQuarantined, subscribes_to

# Same sizing as tests/test_journal.py: 27 evaluations, 6 batches.
_CASE_KW = dict(n=150, error_threshold=4.5e-8)
_DEFAULT_FUZZ_SEED = 20240824

#: ``--backend`` override for every campaign this module runs (clean
#: baseline, chaos victims, resumes, service jobs alike — so the
#: byte-identity assertions compare like with like).  Crash/resume
#: byte-identity must hold under every backend; CI smokes ``batched``.
_BACKEND: str | None = None


@pytest.fixture(scope="session", autouse=True)
def _chaos_backend(request):
    global _BACKEND
    _BACKEND = request.config.getoption("--backend")


def _funarc():
    return FunarcCase(**_CASE_KW)


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    if _BACKEND is not None:
        kw.setdefault("backend", _BACKEND)
    return CampaignConfig(**kw)


def _victim(config: CampaignConfig) -> None:  # pragma: no cover - forked
    """Child body: run the campaign under the chaos plan and report
    its fate through the exit code (the SIGKILL case never reaches
    the exit calls — the kernel reports it as ``-signal.SIGKILL``)."""
    try:
        run_campaign(_funarc(), config)
    except BaseException:
        os._exit(7)
    os._exit(0)


def _run_in_child(config: CampaignConfig, timeout: float = 120.0) -> int:
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_victim, args=(config,))
    proc.start()
    proc.join(timeout)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("chaos child wedged (watchdog timeout)")
    return proc.exitcode


def _resume_config(journal_dir, **kw) -> CampaignConfig:
    """Chaos-free resume; a kill at ``journal.header`` leaves an empty
    journal file and a kill mid-header a torn one, which the
    fresh-create path accepts (start over)."""
    return _config(journal_dir=str(journal_dir),
                   resume=has_journal(journal_dir), **kw)


@pytest.fixture(scope="module")
def clean_baseline():
    return run_campaign(_funarc(), _config())


class TestCrashPointMatrix:
    """SIGKILL at every registered point; resume must be byte-identical."""

    # Only the points reachable inside one campaign: the ``service.*``
    # partition needs a whole job-queue server around the campaign and
    # is exercised by TestServiceCrashMatrix below.
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
    @pytest.mark.parametrize("point", campaign_crash_points())
    def test_kill_and_resume(self, clean_baseline, tmp_path, point, workers):
        journal_dir = tmp_path / "journal"
        cache_dir = str(tmp_path / "cache")   # so cache.put fires
        plan = FaultPlan(kills=(KillAt(point, hit=1),))
        exitcode = _run_in_child(
            _config(chaos=plan, journal_dir=str(journal_dir),
                    cache_dir=cache_dir, workers=workers))
        assert exitcode == -signal.SIGKILL, (
            f"crash point {point} did not fire (child exit {exitcode})")

        resumed = run_campaign(_funarc(),
                               _resume_config(journal_dir,
                                              cache_dir=cache_dir))
        assert resumed.to_json() == clean_baseline.to_json(), (
            f"resume after SIGKILL at {point} diverged from the "
            f"uninterrupted run")

    def test_later_hit_of_a_hot_point(self, clean_baseline, tmp_path):
        # Kill deep into the campaign (the 15th variant append), not
        # just at the first opportunity.
        journal_dir = tmp_path / "journal"
        plan = FaultPlan(kills=(KillAt("journal.variant", hit=15),))
        exitcode = _run_in_child(
            _config(chaos=plan, journal_dir=str(journal_dir)))
        assert exitcode == -signal.SIGKILL

        state = JournalState.load(journal_dir)
        assert len(state.records) == 14     # the 15th append never landed

        resumed = run_campaign(_funarc(), _resume_config(journal_dir))
        assert resumed.to_json() == clean_baseline.to_json()

    def test_torn_header_starts_over(self, clean_baseline, tmp_path):
        # SIGKILL halfway through the header append: the file holds a
        # torn first line and nothing else, so there is no campaign to
        # resume.  The restart starts fresh past the sealed tear.
        journal_dir = tmp_path / "journal"
        plan = FaultPlan(io_faults=(
            IOFault(target="journal", mode="torn_kill", index=1),))
        exitcode = _run_in_child(
            _config(chaos=plan, journal_dir=str(journal_dir)))
        assert exitcode == -signal.SIGKILL
        torn = (journal_dir / "journal.jsonl").read_bytes()
        assert torn and b"\n" not in torn
        assert not has_journal(journal_dir)
        report = diagnose(journal_dir)
        assert report.healthy
        assert any("torn header" in w for w in report.warnings)

        restarted = run_or_resume(_funarc(),
                                  _config(journal_dir=str(journal_dir)))
        assert restarted.resumed_from_batch is None
        assert restarted.to_json() == clean_baseline.to_json()
        assert diagnose(journal_dir).healthy


class TestPoisonQuarantine:
    """A deterministic poison variant must not sink the campaign."""

    def test_quarantine_completes_and_resumes(self, clean_baseline,
                                              tmp_path):
        journal_dir = tmp_path / "journal"
        poison_vid = 3
        plan = FaultPlan(worker_faults=(
            WorkerFault(variant_id=poison_vid, mode="crash", once=False),))
        seen = []

        @subscribes_to(VariantQuarantined)
        def capture(event):
            seen.append(event)

        chaos = run_campaign(
            _funarc(),
            _config(chaos=plan, journal_dir=str(journal_dir), workers=2,
                    subscribers=(capture,)))

        # The campaign completed around the poison: every other variant
        # evaluated, exactly one typed permanent failure.
        assert chaos.search.finished
        poisoned = [r for r in chaos.records
                    if "quarantined" in (r.note or "")]
        assert len(poisoned) == 1
        record = poisoned[0]
        assert record.outcome is Outcome.RUNTIME_ERROR
        assert "deterministic poison variant" in record.note
        assert [e.variant_id for e in seen] == [poison_vid]
        assert seen[0].attempts == 3        # 1 + parallel.TASK_RETRIES

        # The quarantine is journaled as its own typed entry …
        state = JournalState.load(journal_dir)
        assert len(state.quarantined) == 1
        # … and a chaos-free resume serves it without re-running the
        # poison: byte-identical to the chaos run, nothing dispatched.
        resumed = run_campaign(_funarc(), _resume_config(journal_dir))
        assert resumed.to_json() == chaos.to_json()
        assert all(b.dispatched == 0 for b in resumed.oracle.telemetry)
        # And the poison genuinely changed the result (the quarantined
        # variant passes in the clean baseline).
        assert chaos.to_json() != clean_baseline.to_json()

    def test_one_shot_fault_is_retried_not_quarantined(self,
                                                       clean_baseline,
                                                       tmp_path):
        # A transient (once=True) crash is retried and succeeds: the
        # result is byte-identical to the clean run and nothing is
        # quarantined.
        plan = FaultPlan(worker_faults=(
            WorkerFault(variant_id=2, mode="crash", once=True),))
        seen = []

        @subscribes_to(VariantQuarantined)
        def capture(event):
            seen.append(event)

        result = run_campaign(
            _funarc(), _config(chaos=plan, workers=2,
                               subscribers=(capture,)))
        assert result.to_json() == clean_baseline.to_json()
        assert seen == []
        assert sum(b.retries for b in result.oracle.telemetry) >= 1
        assert sum(b.quarantined for b in result.oracle.telemetry) == 0


class TestSeededChaosFuzz:
    """One random-but-deterministic plan per run (``--chaos-seed``)."""

    def test_random_plan_is_recoverable(self, request, clean_baseline,
                                        tmp_path):
        seed = request.config.getoption("--chaos-seed")
        if seed is None:
            seed = _DEFAULT_FUZZ_SEED
        plan = FaultPlan.random(seed)
        journal_dir = tmp_path / "journal"
        config = _config(chaos=plan, journal_dir=str(journal_dir),
                         cache_dir=str(tmp_path / "cache"),
                         trace_dir=str(tmp_path / "trace"), workers=2)
        exitcode = _run_in_child(config)
        assert exitcode in (0, -signal.SIGKILL), (
            f"chaos plan {plan.digest()} (seed {seed}) broke the child "
            f"in an unplanned way: exit {exitcode}\n{plan.describe()}")

        resumed = run_campaign(
            _funarc(),
            _resume_config(journal_dir,
                           cache_dir=str(tmp_path / "cache")))
        assert resumed.to_json() == clean_baseline.to_json(), (
            f"chaos plan {plan.digest()} (seed {seed}) was not "
            f"recoverable to the clean result:\n{plan.describe()}")

    def test_plan_generation_is_deterministic(self):
        a, b = FaultPlan.random(99), FaultPlan.random(99)
        assert a.to_json() == b.to_json()
        assert json.loads(a.to_json()) == a.to_payload()


# -- the service partition ---------------------------------------------

def _service_victim(state_dir, point):  # pragma: no cover - forked
    """Child body: run a whole job-queue service under a kill plan.

    The engine is installed process-wide *before* the service exists,
    so even construction-time points (``service.journal_header``) are
    killable.  The campaign itself runs chaos-free in the sense that
    the plan schedules no campaign-point kills — only the service
    write path is sabotaged.
    """
    from repro.service import CampaignService, JobSpec

    chaos_hooks.install(
        ChaosEngine(FaultPlan(kills=(KillAt(point, hit=1),))))
    try:
        service = CampaignService(state_dir,
                                  model_factory=lambda name: _funarc())
        service.submit(JobSpec(model="funarc", config=_config()))
        service.run_pending()
        service.close()
    except BaseException:
        os._exit(7)
    os._exit(0)


def _run_service_child(state_dir, point, timeout: float = 120.0) -> int:
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_service_victim, args=(state_dir, point))
    proc.start()
    proc.join(timeout)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("service chaos child wedged (watchdog timeout)")
    return proc.exitcode


class TestServiceCrashMatrix:
    """SIGKILL the whole job-queue server at every ``service.`` point.

    Contract: a restarted server (plus an idempotent client
    resubmission, covering the one window where the ack never went
    out) loses no accepted job and publishes ``result.json`` bytes
    identical to a direct, never-interrupted ``run_campaign``.
    """

    def test_partition_is_total(self):
        service_points = registered_crash_points("service.")
        assert set(service_points) | set(campaign_crash_points()) == \
            set(registered_crash_points())
        assert not set(service_points) & set(campaign_crash_points())
        assert len(service_points) >= 5

    @pytest.mark.parametrize("point", registered_crash_points("service."))
    def test_server_kill_and_restart(self, clean_baseline, tmp_path, point):
        from repro.service import CampaignService, JobSpec

        state_dir = tmp_path / "service"
        exitcode = _run_service_child(state_dir, point)
        assert exitcode == -signal.SIGKILL, (
            f"service crash point {point} did not fire "
            f"(child exit {exitcode})")

        # Restart chaos-free.  The client's resubmission is idempotent:
        # either the job survived (dedup attaches) or the ack was never
        # sent (a fresh durable job is created).
        service = CampaignService(state_dir,
                                  model_factory=lambda name: _funarc())
        service.submit(JobSpec(model="funarc", config=_config()))
        service.run_pending()
        jobs = service.jobs()
        assert len(jobs) == 1
        assert jobs[0]["state"] == "done"
        text = service.result_text(jobs[0]["job_id"])
        assert text == clean_baseline.to_json(), (
            f"restart after SIGKILL at {point} diverged from the "
            f"uninterrupted run")
        service.close()

    def test_mid_campaign_kill_resumes_at_zero_cost(self, clean_baseline,
                                                    tmp_path):
        # Kill *inside* the job's campaign (a journal.variant hit), not
        # at a service point: the orphaned job must resume from its
        # campaign journal instead of re-evaluating from scratch.
        from repro.service import CampaignService, JobSpec

        state_dir = tmp_path / "service"
        exitcode = _run_service_child(state_dir, "journal.variant")
        assert exitcode == -signal.SIGKILL

        service = CampaignService(state_dir,
                                  model_factory=lambda name: _funarc())
        assert any("requeued for resume" in w
                   for w in service.load_warnings)
        jobs = service.jobs()
        assert jobs[0]["state"] == "queued" and jobs[0]["resumed"]
        service.run_pending()
        text = service.result_text(jobs[0]["job_id"])
        assert text == clean_baseline.to_json()
        service.close()
