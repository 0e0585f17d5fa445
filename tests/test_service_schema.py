"""The service wire schema: CampaignConfig + JobSpec JSON contracts.

The submission schema must round-trip in both directions, reject
unknown keys with a typed error, pin field defaults, and carry a
schema-version field so job files written by an old build replay after
upgrades.  Version 2 retired eight v1 fields (the worker pool's fault
policy and the snapshot cadence): a v1 payload loads when each of them
holds its pinned v1 default, which is what the code now always does,
and is refused otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import (CONFIG_SCHEMA_VERSION, CampaignConfig, parallel,
                        run_campaign)
from repro.errors import ConfigSchemaError, SpecError
from repro.models import FunarcCase
from repro.service import CampaignService, JobSpec


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = CampaignConfig()
        assert CampaignConfig.from_json(config.to_json()) == config

    def test_non_default_config_round_trips(self):
        config = CampaignConfig(nodes=7, wall_budget_seconds=3600.0,
                                max_evaluations=123, seed=99,
                                backend="batched", workers=3,
                                cache_dir="/tmp/c", resume=True,
                                handle_signals=False)
        assert CampaignConfig.from_json(config.to_json()) == config

    def test_json_to_config_to_json_is_stable(self):
        # The reverse direction: bytes -> config -> identical bytes.
        text = CampaignConfig(seed=42).to_json()
        assert CampaignConfig.from_json(text).to_json() == text

    def test_payload_carries_schema_version(self):
        payload = CampaignConfig().to_payload()
        assert payload["schema_version"] == CONFIG_SCHEMA_VERSION

    def test_int_widens_to_float_fields(self):
        config = CampaignConfig.from_payload(
            {"schema_version": 1, "timeout_factor": 2})
        assert config.timeout_factor == 2.0
        assert isinstance(config.timeout_factor, float)


class TestConfigRejections:
    def test_unknown_key_raises_typed_error(self):
        with pytest.raises(ConfigSchemaError, match="unknown campaign "
                                                    "config field 'nodez'"):
            CampaignConfig.from_payload({"schema_version": 1, "nodez": 8})

    def test_runtime_only_keys_refused_on_the_wire(self):
        for name in ("subscribers", "chaos"):
            with pytest.raises(ConfigSchemaError, match="runtime-only"):
                CampaignConfig.from_payload(
                    {"schema_version": 1, name: []})

    def test_config_with_runtime_state_refuses_to_serialize(self):
        config = CampaignConfig(subscribers=(print,))
        with pytest.raises(ConfigSchemaError, match="runtime-only"):
            config.to_payload()

    def test_missing_schema_version_refused(self):
        with pytest.raises(ConfigSchemaError, match="no schema_version"):
            CampaignConfig.from_payload({"nodes": 8})

    def test_newer_schema_version_refused(self):
        assert CONFIG_SCHEMA_VERSION == 2
        with pytest.raises(ConfigSchemaError, match="schema version 3"):
            CampaignConfig.from_payload({"schema_version": 3})

    def test_wrong_type_refused(self):
        with pytest.raises(ConfigSchemaError, match="'workers' expects"):
            CampaignConfig.from_payload(
                {"schema_version": 1, "workers": True})
        with pytest.raises(ConfigSchemaError, match="'backend' expects"):
            CampaignConfig.from_payload(
                {"schema_version": 1, "backend": 3})
        with pytest.raises(ConfigSchemaError, match="'cache_dir' expects"):
            CampaignConfig.from_payload(
                {"schema_version": 1, "cache_dir": 7})

    def test_non_object_payload_refused(self):
        with pytest.raises(ConfigSchemaError, match="JSON object"):
            CampaignConfig.from_payload([1, 2, 3])
        with pytest.raises(ConfigSchemaError, match="not valid JSON"):
            CampaignConfig.from_json("{nope")


#: The v2 wire fields and their pinned defaults.
V2_DEFAULTS = {
    "nodes": 20,
    "wall_budget_seconds": 12 * 3600.0,
    "timeout_factor": 3.0,
    "min_speedup": 1.0,
    "max_evaluations": 2000,
    "seed": 2024,
    "backend": "compiled",
    "workers": 1,
    "cache_dir": None,
    "journal_dir": None,
    "resume": False,
    "handle_signals": True,
    "profile_path": None,
    "trace_dir": None,
}

#: The eight fields version 2 retired, at their pinned v1 defaults.
RETIRED_V1_DEFAULTS = {
    "worker_timeout_seconds": 120.0,
    "worker_retries": 2,
    "snapshot_every": 1,
    "retry_backoff_seconds": 0.5,
    "retry_backoff_max_seconds": 8.0,
    "quarantine": True,
    "pool_breaker_threshold": 5,
    "pool_reap_seconds": 5.0,
}

#: A v1 payload as the last v1 build wrote ``CampaignConfig()``: all 22
#: keys at their defaults.
V1_DEFAULT_PAYLOAD = {
    "backend": "compiled", "cache_dir": None, "handle_signals": True,
    "journal_dir": None, "max_evaluations": 2000, "min_speedup": 1.0,
    "nodes": 20, "pool_breaker_threshold": 5, "pool_reap_seconds": 5.0,
    "profile_path": None, "quarantine": True, "resume": False,
    "retry_backoff_max_seconds": 8.0, "retry_backoff_seconds": 0.5,
    "schema_version": 1, "seed": 2024, "snapshot_every": 1,
    "timeout_factor": 3.0, "trace_dir": None,
    "wall_budget_seconds": 43200.0, "worker_retries": 2,
    "worker_timeout_seconds": 120.0, "workers": 1,
}


class TestPinnedDefaults:
    """A job file that omits fields must replay with *these* values
    forever.  Changing any default below is a wire-contract break and
    requires a CONFIG_SCHEMA_VERSION bump plus explicit migration."""

    def test_wire_defaults_are_pinned(self):
        assert CampaignConfig.wire_fields() == tuple(V2_DEFAULTS)
        assert CampaignConfig().to_payload() == {"schema_version": 2,
                                                 **V2_DEFAULTS}

    def test_minimal_old_payload_replays_with_pinned_defaults(self):
        # The oldest possible v1 job file: version stamp only.
        config = CampaignConfig.from_payload({"schema_version": 1})
        assert config == CampaignConfig()
        for name, value in V2_DEFAULTS.items():
            assert getattr(config, name) == value

    def test_every_wire_field_is_type_classified(self):
        from repro.core.campaign import _WIRE_FIELD_TYPES
        assert set(CampaignConfig.wire_fields()) == set(_WIRE_FIELD_TYPES)

    def test_runtime_fields_stay_off_the_wire(self):
        wire = set(CampaignConfig.wire_fields())
        all_fields = {f.name for f in dataclasses.fields(CampaignConfig)}
        assert all_fields - wire == {"subscribers", "chaos"}


class TestV1Payloads:
    def test_v1_payload_at_its_defaults_loads_as_the_default(self):
        assert len(V1_DEFAULT_PAYLOAD) == 1 + 22
        assert CampaignConfig.from_payload(V1_DEFAULT_PAYLOAD) == \
            CampaignConfig()
        # v1 widened an int to a float field; it still does.
        widened = dict(V1_DEFAULT_PAYLOAD, worker_timeout_seconds=120,
                       seed=7)
        assert CampaignConfig.from_payload(widened) == \
            CampaignConfig(seed=7)

    @pytest.mark.parametrize("name,value", [
        ("worker_timeout_seconds", 2.0),
        ("worker_retries", 5),
        ("snapshot_every", 3),
        ("retry_backoff_seconds", 0.0),
        ("retry_backoff_max_seconds", 0.08),
        ("quarantine", False),
        ("pool_breaker_threshold", 2),
        ("pool_reap_seconds", 1.0),
        # Values v1 itself would have refused as wrong-typed.
        ("worker_retries", 2.0),
        ("quarantine", 1),
        ("worker_timeout_seconds", True),
        ("snapshot_every", None),
    ])
    def test_retired_key_at_another_value_refused(self, name, value):
        payload = dict(V1_DEFAULT_PAYLOAD, **{name: value})
        with pytest.raises(ConfigSchemaError,
                           match=f"config field '{name}' was retired"):
            CampaignConfig.from_payload(payload)

    @pytest.mark.parametrize("name", sorted(RETIRED_V1_DEFAULTS))
    def test_v2_payload_with_a_retired_key_refused_as_unknown(self, name):
        payload = dict(CampaignConfig().to_payload(),
                       **{name: RETIRED_V1_DEFAULTS[name]})
        with pytest.raises(ConfigSchemaError,
                           match=f"unknown campaign config field '{name}'"):
            CampaignConfig.from_payload(payload)

    def test_retired_defaults_are_what_the_code_does(self):
        # A v1 payload at these values is honoured only because the
        # pool's fixed policy holds exactly them (and the journal
        # snapshots every round, with quarantine always on).
        from repro.core.campaign import _V1_RETIRED
        assert _V1_RETIRED == RETIRED_V1_DEFAULTS
        assert (parallel.TASK_TIMEOUT_SECONDS, parallel.TASK_RETRIES,
                parallel.BACKOFF_SECONDS, parallel.BACKOFF_MAX_SECONDS,
                parallel.BREAKER_DEAD_ROUNDS,
                parallel.REAP_GRACE_SECONDS) == (
            RETIRED_V1_DEFAULTS["worker_timeout_seconds"],
            RETIRED_V1_DEFAULTS["worker_retries"],
            RETIRED_V1_DEFAULTS["retry_backoff_seconds"],
            RETIRED_V1_DEFAULTS["retry_backoff_max_seconds"],
            RETIRED_V1_DEFAULTS["pool_breaker_threshold"],
            RETIRED_V1_DEFAULTS["pool_reap_seconds"])

    def test_v1_job_spec_refuses_a_retired_setting(self):
        payload = JobSpec(model="funarc").to_payload()
        payload["config"] = dict(V1_DEFAULT_PAYLOAD, worker_retries=5)
        with pytest.raises(SpecError, match="'worker_retries' was retired"):
            JobSpec.from_payload(payload)


def _v1_submitted(job_id: str, seq: int, seed: int) -> str:
    """A ``submitted`` line as the last v1 build journaled it, for a
    30-evaluation funarc job of tenant ``ops``."""
    return (
        '{"entry": "submitted", "job_id": "%s", "seq": %d, "spec": '
        '{"algorithm": "dd", "config": {"backend": "compiled", '
        '"cache_dir": null, "handle_signals": true, "journal_dir": null, '
        '"max_evaluations": 30, "min_speedup": 1.0, "nodes": 20, '
        '"pool_breaker_threshold": 5, "pool_reap_seconds": 5.0, '
        '"profile_path": null, "quarantine": true, "resume": false, '
        '"retry_backoff_max_seconds": 8.0, "retry_backoff_seconds": 0.5, '
        '"schema_version": 1, "seed": %d, "snapshot_every": 1, '
        '"timeout_factor": 3.0, "trace_dir": null, '
        '"wall_budget_seconds": 43200.0, "worker_retries": 2, '
        '"worker_timeout_seconds": 120.0, "workers": 1}, '
        '"model": "funarc", "priority": 0, "spec_version": 1, '
        '"tenant": "ops"}}' % (job_id, seq, seed))


#: A v1 service journal: job a80b… (seed 2024) finished, then job
#: 2016… (seed 2025) was submitted and left queued.
_V1_SERVICE_JOURNAL = "\n".join([
    '{"entry": "header", "version": 1}',
    _v1_submitted("a80ba87ccc89ccfa", 0, 2024),
    '{"entry": "started", "job_id": "a80ba87ccc89ccfa"}',
    '{"entry": "finished", "evaluations": 27, "finished": true, '
    '"job_id": "a80ba87ccc89ccfa", "result_digest": '
    '"acbf72e3329de8c9169d1c2963858fe63bd2fa7e0c9919f8ee4a42dbb0ecc947"}',
    _v1_submitted("20165a4d3194a6ec", 1, 2025),
]) + "\n"


class TestV1ServiceState:
    """A state directory written before the v2 upgrade reloads: its
    finished job still serves its result, and its queued job runs to a
    direct run's bytes."""

    @staticmethod
    def _direct(seed: int) -> str:
        return run_campaign(FunarcCase(n=150), CampaignConfig(
            max_evaluations=30, seed=seed)).to_json()

    def test_v1_jobs_reload_and_run(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "service.jsonl").write_text(_V1_SERVICE_JOURNAL)
        done = self._direct(2024)
        assert hashlib.sha256(done.encode()).hexdigest().startswith(
            "acbf72e3329d")
        (state / "jobs" / "a80ba87ccc89ccfa").mkdir(parents=True)
        (state / "jobs" / "a80ba87ccc89ccfa" / "result.json").write_text(
            done)

        service = CampaignService(
            state, model_factory=lambda name: FunarcCase(n=150))
        try:
            assert service.load_warnings == ()
            assert [(j["job_id"], j["state"]) for j in service.jobs()] == [
                ("a80ba87ccc89ccfa", "done"), ("20165a4d3194a6ec", "queued")]
            assert service.job("20165a4d3194a6ec").spec.config == \
                CampaignConfig(max_evaluations=30, seed=2025)
            assert service.result_text("a80ba87ccc89ccfa") == done
            assert service.run_pending() == 1
            assert service.result_text("20165a4d3194a6ec") == \
                self._direct(2025)

            # Job ids hash the v2 payload, so the same spec submitted
            # after the upgrade is a new job, with the same bytes.
            rec, deduplicated = service.submit(JobSpec(
                model="funarc", tenant="ops",
                config=CampaignConfig(max_evaluations=30)))
            assert rec.job_id != "a80ba87ccc89ccfa" and not deduplicated
            assert service.run_pending() == 1
            assert service.result_text(rec.job_id) == done
        finally:
            service.close()


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(model="funarc", tenant="ops", priority=5,
                       algorithm="screened",
                       config=CampaignConfig(max_evaluations=50))
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_unknown_field_refused(self):
        payload = JobSpec(model="funarc").to_payload()
        payload["flavour"] = "mint"
        with pytest.raises(SpecError, match="unknown job spec field"):
            JobSpec.from_payload(payload)

    def test_validation(self):
        with pytest.raises(SpecError, match="model"):
            JobSpec(model="")
        with pytest.raises(SpecError, match="tenant"):
            JobSpec(model="funarc", tenant="")
        with pytest.raises(SpecError, match="priority"):
            JobSpec(model="funarc", priority="high")
        with pytest.raises(SpecError, match="algorithm"):
            JobSpec(model="funarc", algorithm="quantum")
        with pytest.raises(SpecError, match="no model"):
            JobSpec.from_payload({"spec_version": 1})
        with pytest.raises(SpecError, match="bad campaign config"):
            JobSpec.from_payload({"model": "funarc",
                                  "config": {"schema_version": 1,
                                             "bogus": 1}})

    def test_digest_ignores_server_owned_fields(self):
        base = JobSpec(model="funarc")
        relocated = JobSpec(
            model="funarc",
            config=CampaignConfig(journal_dir="/tmp/j",
                                  trace_dir="/tmp/t", resume=True))
        assert relocated.digest() == base.digest()

    def test_digest_ignores_priority_but_not_tenant(self):
        base = JobSpec(model="funarc")
        assert JobSpec(model="funarc", priority=9).digest() == base.digest()
        assert JobSpec(model="funarc",
                       tenant="other").digest() != base.digest()

    def test_digest_sees_config_changes(self):
        base = JobSpec(model="funarc")
        tweaked = JobSpec(model="funarc",
                          config=CampaignConfig(max_evaluations=50))
        assert tweaked.digest() != base.digest()

    def test_wire_json_is_canonical(self):
        text = JobSpec(model="funarc").to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True)
