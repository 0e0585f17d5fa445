"""The service wire schema: CampaignConfig + JobSpec JSON contracts.

Satellite 1 of the service PR: the submission schema must round-trip
in both directions, reject unknown keys with a typed error, pin field
defaults, and carry a schema-version field so job files written by an
old build replay after upgrades.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import CONFIG_SCHEMA_VERSION, CampaignConfig
from repro.errors import ConfigSchemaError, SpecError
from repro.service import JobSpec


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = CampaignConfig()
        assert CampaignConfig.from_json(config.to_json()) == config

    def test_non_default_config_round_trips(self):
        config = CampaignConfig(nodes=7, wall_budget_seconds=3600.0,
                                max_evaluations=123, seed=99,
                                backend="batched", workers=3,
                                cache_dir="/tmp/c", resume=True,
                                quarantine=False)
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
        with pytest.raises(ConfigSchemaError, match="schema version"):
            CampaignConfig.from_payload(
                {"schema_version": CONFIG_SCHEMA_VERSION + 1})

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


class TestPinnedDefaults:
    """A v1 job file that omits fields must replay with *these* values
    forever.  Changing any default below is a wire-contract break and
    requires a CONFIG_SCHEMA_VERSION bump plus explicit migration."""

    V1_DEFAULTS = {
        "nodes": 20,
        "wall_budget_seconds": 12 * 3600.0,
        "timeout_factor": 3.0,
        "min_speedup": 1.0,
        "max_evaluations": 2000,
        "seed": 2024,
        "backend": "compiled",
        "workers": 1,
        "cache_dir": None,
        "worker_timeout_seconds": 120.0,
        "worker_retries": 2,
        "journal_dir": None,
        "resume": False,
        "snapshot_every": 1,
        "handle_signals": True,
        "retry_backoff_seconds": 0.5,
        "retry_backoff_max_seconds": 8.0,
        "quarantine": True,
        "pool_breaker_threshold": 5,
        "pool_reap_seconds": 5.0,
        "profile_path": None,
        "trace_dir": None,
    }

    def test_wire_defaults_are_pinned(self):
        assert CampaignConfig.wire_defaults() == self.V1_DEFAULTS

    def test_minimal_old_payload_replays_with_pinned_defaults(self):
        # The oldest possible v1 job file: version stamp only.
        config = CampaignConfig.from_payload({"schema_version": 1})
        for name, value in self.V1_DEFAULTS.items():
            assert getattr(config, name) == value

    def test_every_wire_field_is_type_classified(self):
        from repro.core.campaign import _WIRE_FIELD_TYPES
        assert set(CampaignConfig.wire_fields()) == set(_WIRE_FIELD_TYPES)

    def test_runtime_fields_stay_off_the_wire(self):
        wire = set(CampaignConfig.wire_fields())
        all_fields = {f.name for f in dataclasses.fields(CampaignConfig)}
        assert all_fields - wire == {"subscribers", "chaos"}


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
