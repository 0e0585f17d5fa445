"""The HTTP/SSE layer: server + client over a real socket.

The sync core is proven in ``tests/test_service.py``; here the asyncio
front-end runs in a background thread on an ephemeral port and the
stdlib client drives it exactly the way the CLI does.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.errors import JobNotFound, ServiceError, SpecError
from repro.models import FunarcCase
from repro.service import (CampaignService, JobSpec, ServiceClient,
                           ServiceServer)

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
def endpoint(tmp_path):
    """A live server on an ephemeral port; yields a ServiceClient."""
    service = CampaignService(tmp_path / "state", model_factory=_factory)
    server = ServiceServer(service, port=0, workers=2)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_forever()
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server failed to start"
    client = ServiceClient(port=server.port, timeout=60.0)
    yield client
    try:
        client.shutdown()
    except ServiceError:
        pass  # already stopped by the test
    thread.join(10)
    assert not thread.is_alive(), "server thread leaked"


class TestHttp:
    def test_health(self, endpoint):
        health = endpoint.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_submit_watch_result_roundtrip(self, endpoint, clean_json):
        resp = endpoint.submit(_spec())
        assert set(resp) == {"job_id", "seq", "state", "deduplicated"}
        assert not resp["deduplicated"]
        events = list(endpoint.watch(resp["job_id"]))
        names = [e["event"] for e in events]
        assert names[0] == "JobSubmitted"
        assert names[-1] == "JobFinished"
        assert "CampaignFinished" in names
        # The served bytes are exactly the direct-run bytes.
        assert endpoint.result_text(resp["job_id"]) == clean_json
        job = endpoint.job(resp["job_id"])
        assert job["state"] == "done"

    def test_cli_watch_prints_batch_telemetry(self, endpoint, capsys):
        from repro.cli import main

        resp = endpoint.submit(_spec())
        assert main(["watch", resp["job_id"], "--port", str(endpoint.port),
                     "--timeout", "60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        batches = [line for line in lines
                   if line.startswith("BatchCompleted: ")]
        assert len(batches) == 6        # funarc's ddmin campaign
        # Each batch's telemetry, flattened to dotted scalar fields.
        assert batches[0].startswith("BatchCompleted: "
                                     "telemetry.backoff_seconds=0.0, ")
        for field in ("batch_index", "dispatched", "cache_hits",
                      "retries", "failures", "stored_runs",
                      "wall_seconds", "stage_sim.run"):
            assert all(f"telemetry.{field}=" in line for line in batches)
        assert "telemetry.batch_index=5," in batches[-1]

    def test_duplicate_submission_attaches(self, endpoint):
        first = endpoint.submit(_spec())
        second = endpoint.submit(_spec())
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"]
        assert len(endpoint.jobs()) == 1

    def test_tenant_filter(self, endpoint):
        endpoint.submit(_spec(tenant="alice"))
        endpoint.submit(_spec(tenant="bob"))
        assert {j["tenant"] for j in endpoint.jobs()} == {"alice", "bob"}
        assert [j["tenant"] for j in endpoint.jobs("bob")] == ["bob"]

    def test_watch_after_completion_replays_history(self, endpoint):
        resp = endpoint.submit(_spec())
        live = [e["event"] for e in endpoint.watch(resp["job_id"])]
        replay = [e["event"] for e in endpoint.watch(resp["job_id"])]
        assert replay == live

    def test_bad_spec_is_400_with_server_text(self, endpoint):
        with pytest.raises(SpecError, match="unknown model"):
            endpoint.submit(_spec(model="nonesuch"))
        with pytest.raises(SpecError, match="algorithm"):
            endpoint._request("POST", "/jobs", body=json.dumps(
                {"model": "funarc", "algorithm": "quantum"}))
        with pytest.raises(SpecError, match="unknown backend 'turbo'"):
            endpoint.submit(_spec(config=_config(backend="turbo")))

    def test_unknown_job_is_404(self, endpoint):
        with pytest.raises(JobNotFound):
            endpoint.job("feedfacecafebeef")
        with pytest.raises(JobNotFound):
            list(endpoint.watch("feedfacecafebeef"))

    def test_unknown_route_is_404(self, endpoint):
        with pytest.raises(JobNotFound):
            endpoint._request("GET", "/nope")

    def test_concurrent_jobs_both_finish_identically(self, endpoint,
                                                     clean_json):
        a = endpoint.submit(_spec(tenant="alice"))
        b = endpoint.submit(_spec(tenant="bob"))
        for resp in (a, b):
            events = list(endpoint.watch(resp["job_id"]))
            assert events[-1]["event"] == "JobFinished"
            assert endpoint.result_text(resp["job_id"]) == clean_json

    def test_shutdown_then_unreachable(self, endpoint):
        endpoint.shutdown()
        # Allow the loop a moment to tear the listener down.
        import time
        for _ in range(50):
            try:
                endpoint.health()
                time.sleep(0.1)
            except ServiceError:
                break
        else:
            pytest.fail("server still answering after shutdown")
