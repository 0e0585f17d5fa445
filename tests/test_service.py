"""CampaignService (sync core): durability, dedup, byte-identity.

Exercises the transport-agnostic service engine directly — no sockets,
no event loop — which is where the durable-queue semantics live.  The
HTTP layer on top is covered by ``tests/test_service_http.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.errors import JobNotFound, ServiceError, SpecError
from repro.models import FunarcCase
from repro.service import (CampaignService, JobSpec, ServiceJournal,
                           load_service_state)
from repro.service.doctor import diagnose_service, is_service_dir

_CASE_KW = dict(n=150, error_threshold=4.5e-8)


def _funarc():
    return FunarcCase(**_CASE_KW)


def _factory(name):
    if name != "funarc":
        raise KeyError(f"unknown model {name!r}")
    return _funarc()


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


def _spec(**kw) -> JobSpec:
    kw.setdefault("model", "funarc")
    kw.setdefault("config", _config())
    return JobSpec(**kw)


@pytest.fixture(scope="module")
def clean_json():
    return run_campaign(_funarc(), _config()).to_json()


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(tmp_path / "state", model_factory=_factory)
    yield svc
    svc.close()


class TestSubmission:
    def test_submit_queues_and_journal_survives(self, tmp_path, service):
        rec, dedup = service.submit(_spec())
        assert not dedup
        assert rec.state == "queued" and rec.seq == 0
        records, next_seq, warnings = load_service_state(
            tmp_path / "state")
        assert next_seq == 1 and not warnings
        assert records[rec.job_id].spec == _spec()

    def test_unknown_model_refused_before_durability(self, tmp_path,
                                                     service):
        for spec in (JobSpec(model="nonesuch", config=_config()),
                     _spec(config=_config(backend="turbo"))):
            with pytest.raises(SpecError):
                service.submit(spec)
        assert service.jobs() == []
        records, next_seq, _ = load_service_state(tmp_path / "state")
        assert records == {} and next_seq == 0

    def test_duplicate_spec_attaches(self, service):
        rec, _ = service.submit(_spec())
        rec2, dedup = service.submit(_spec(priority=9))  # priority differs
        assert dedup and rec2.job_id == rec.job_id
        assert rec2.submissions == 2
        assert service.queue_depth() == 1

    def test_same_spec_other_tenant_is_a_new_job(self, service):
        rec, _ = service.submit(_spec())
        other, dedup = service.submit(_spec(tenant="other"))
        assert not dedup and other.job_id != rec.job_id
        assert service.queue_depth() == 2

    def test_unknown_job_raises(self, service):
        with pytest.raises(JobNotFound):
            service.job("feedfacecafebeef")
        with pytest.raises(JobNotFound):
            service.history("feedfacecafebeef")


class TestExecution:
    def test_serve_matches_direct_run_bytes(self, service, clean_json):
        rec, _ = service.submit(_spec())
        assert service.run_pending() == 1
        assert service.result_text(rec.job_id) == clean_json
        job = service.job(rec.job_id)
        assert job.state == "done" and job.finished
        assert job.result_digest

    def test_parallel_workers_config_matches_too(self, service,
                                                 clean_json):
        rec, _ = service.submit(_spec(config=_config(workers=2)))
        service.run_pending()
        assert service.result_text(rec.job_id) == clean_json

    def test_result_before_done_refused(self, service):
        rec, _ = service.submit(_spec())
        with pytest.raises(ServiceError, match="no result"):
            service.result_text(rec.job_id)

    def test_failed_job_records_error_and_can_be_resubmitted(
            self, tmp_path, clean_json):
        boom = {"armed": True}

        def factory(name):
            if boom["armed"]:
                raise RuntimeError("transform backend offline")
            return _funarc()

        svc = CampaignService(tmp_path / "state", model_factory=_factory)
        rec, _ = svc.submit(_spec())
        svc.model_factory = factory  # submit validated; execution fails
        svc.run_pending()
        job = svc.job(rec.job_id)
        assert job.state == "failed"
        assert "transform backend offline" in job.error

        boom["armed"] = False
        rec2, dedup = svc.submit(_spec())
        assert not dedup and rec2.job_id == rec.job_id
        assert rec2.state == "queued" and rec2.error == ""
        svc.run_pending()
        assert svc.result_text(rec.job_id) == clean_json
        svc.close()

    def test_event_history_frames_job_lifecycle(self, service):
        rec, _ = service.submit(_spec())
        service.run_pending()
        names = [p["event"] for p in service.history(rec.job_id)]
        assert names[0] == "JobSubmitted"
        assert names[1] == "JobStarted"
        assert names[-1] == "JobFinished"
        assert "CampaignStarted" in names and "CampaignFinished" in names
        # History is JSON-safe end to end (the SSE payloads).
        json.dumps(service.history(rec.job_id))

    def test_watch_snapshot_plus_live_has_no_gaps(self, service):
        rec, _ = service.submit(_spec())
        early = []
        unsubscribe = service.watch(rec.job_id, early.append)
        service.run_pending()
        unsubscribe()
        late = []
        service.watch(rec.job_id, late.append)()
        assert early == list(service.history(rec.job_id))
        assert late == early  # pure-history watcher sees the same stream

    def test_service_metrics_counters(self, service):
        rec, _ = service.submit(_spec())
        service.submit(_spec())
        service.run_pending()
        rendered = service.metrics.registry.render_prometheus()
        assert 'repro_service_jobs_submitted_total{tenant="default"} 2' \
            in rendered
        assert 'repro_service_jobs_deduplicated_total{tenant="default"} 1' \
            in rendered
        assert 'repro_service_jobs_finished_total{tenant="default"} 1' \
            in rendered


class TestRestart:
    def test_queued_jobs_survive_restart_in_order(self, tmp_path):
        state = tmp_path / "state"
        svc = CampaignService(state, model_factory=_factory)
        a, _ = svc.submit(_spec(tenant="alice"))
        b, _ = svc.submit(_spec(tenant="bob"))
        a2, _ = svc.submit(_spec(tenant="alice", priority=3,
                                 config=_config(seed=7)))
        svc.close()

        svc2 = CampaignService(state, model_factory=_factory)
        order = []
        while True:
            rec = svc2.next_job()
            if rec is None:
                break
            order.append(rec.job_id)
        # Fair share after restart: alice (priority 3 first), bob between.
        assert order == [a2.job_id, b.job_id, a.job_id]
        svc2.close()

    def test_restart_dispatch_order_equals_unrestarted(self, tmp_path):
        submissions = [("alice", 2), ("bob", 0), ("alice", 0),
                       ("carol", 1), ("bob", 9)]

        def submit_all(svc):
            ids = []
            for i, (tenant, priority) in enumerate(submissions):
                rec, _ = svc.submit(_spec(tenant=tenant, priority=priority,
                                          config=_config(seed=i)))
                ids.append(rec.job_id)
            return ids

        def drain_ids(svc):
            out = []
            while True:
                rec = svc.next_job()
                if rec is None:
                    return out
                out.append(rec.job_id)

        straight = CampaignService(tmp_path / "a", model_factory=_factory)
        submit_all(straight)
        want = drain_ids(straight)
        straight.close()

        restarted = CampaignService(tmp_path / "b", model_factory=_factory)
        submit_all(restarted)
        restarted.close()
        resumed = CampaignService(tmp_path / "b", model_factory=_factory)
        assert drain_ids(resumed) == want
        resumed.close()

    def test_torn_tail_is_sealed_and_survives(self, tmp_path, clean_json):
        state = tmp_path / "state"
        svc = CampaignService(state, model_factory=_factory)
        rec, _ = svc.submit(_spec())
        svc.close()
        # Tear the final line the way a mid-append SIGKILL would.
        journal = state / "service.jsonl"
        torn = journal.read_text()[:-20]
        journal.write_text(torn)

        svc2 = CampaignService(state, model_factory=_factory)
        assert any("torn" in w for w in svc2.load_warnings)
        # The torn entry is the submit — the job was never acked, so an
        # idempotent resubmission restores it.
        rec2, dedup = svc2.submit(_spec())
        assert not dedup
        svc2.run_pending()
        assert svc2.result_text(rec2.job_id) == clean_json
        svc2.close()

        # The sealed tear now sits mid-file: a second restart skips it
        # again and still serves the job.
        svc3 = CampaignService(state, model_factory=_factory)
        assert any("torn" in w for w in svc3.load_warnings)
        assert svc3.result_text(rec2.job_id) == clean_json
        svc3.close()
        assert diagnose_service(state).healthy

    def test_torn_header_is_rewritten(self, tmp_path, clean_json):
        # A server killed halfway through its header append leaves one
        # torn line: the journal has not begun, so the first restart
        # writes a header past the sealed tear.
        state = tmp_path / "state"
        state.mkdir()
        (state / "service.jsonl").write_text('{"entry": "heade')

        svc = CampaignService(state, model_factory=_factory)
        rec, dedup = svc.submit(_spec())
        assert not dedup
        svc.run_pending()
        assert svc.result_text(rec.job_id) == clean_json
        svc.close()

        svc2 = CampaignService(state, model_factory=_factory)
        assert any("torn" in w for w in svc2.load_warnings)
        assert svc2.result_text(rec.job_id) == clean_json
        svc2.close()
        assert diagnose_service(state).healthy

    def test_journal_requires_header_first(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "service.jsonl").write_text(
            json.dumps({"entry": "submitted", "job_id": "x", "seq": 0,
                        "spec": _spec().to_payload()}) + "\n")
        with pytest.raises(ServiceError, match="before its header"):
            load_service_state(state)


class TestServiceDoctor:
    def test_healthy_directory(self, tmp_path, service):
        rec, _ = service.submit(_spec())
        service.run_pending()
        state = tmp_path / "state"
        assert is_service_dir(state)
        report = diagnose_service(state)
        assert report.healthy
        assert any("jobs done: 1" in line for line in report.info)

    def test_missing_result_is_an_error(self, tmp_path, service):
        rec, _ = service.submit(_spec())
        service.run_pending()
        (tmp_path / "state" / "jobs" / rec.job_id / "result.json").unlink()
        report = diagnose_service(tmp_path / "state")
        assert not report.healthy
        assert any("missing" in e for e in report.errors)

    def test_tampered_result_is_an_error(self, tmp_path, service):
        rec, _ = service.submit(_spec())
        service.run_pending()
        path = tmp_path / "state" / "jobs" / rec.job_id / "result.json"
        path.write_text(path.read_text().replace("funarc", "funfair"))
        report = diagnose_service(tmp_path / "state")
        assert not report.healthy
        assert any("does not match" in e for e in report.errors)

    def test_orphan_is_a_warning_not_error(self, tmp_path):
        state = tmp_path / "state"
        journal = ServiceJournal(state)
        journal.submit(_spec(), "cafe0123cafe0123")
        journal.start("cafe0123cafe0123")
        journal.close()
        report = diagnose_service(state)
        assert report.healthy
        assert any("requeued for resume" in w for w in report.warnings)

    def test_non_object_line_is_a_warning_not_a_crash(self, tmp_path):
        # Valid JSON that is not an entry object counts as a torn line.
        state = tmp_path / "state"
        journal = ServiceJournal(state)
        journal.submit(_spec(), "cafe0123cafe0123")
        journal.close()
        with open(state / "service.jsonl", "a") as fh:
            fh.write("[1, 2]\n")
        report = diagnose_service(state)
        assert report.healthy
        assert any("line 3" in w and "not a journal entry" in w
                   for w in report.warnings), report.warnings
        assert any("1 job(s)" in line for line in report.info)

    def test_campaign_dir_is_not_service_dir(self, tmp_path):
        run_campaign(_funarc(),
                     _config(journal_dir=str(tmp_path / "journal")))
        assert not is_service_dir(tmp_path / "journal")
        assert not diagnose_service(tmp_path / "ghost").healthy
