"""The config-first ``run_campaign`` API.

Every execution knob lives on :class:`CampaignConfig`; ``run_campaign``
takes only the model, the config, and the injectable collaborators
(``algorithm``, ``evaluator``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import CampaignConfig, DeltaDebugSearch, run_campaign
from repro.models import FunarcCase


def _funarc():
    # Short trajectory: 12 evaluations.
    return FunarcCase(n=80, error_threshold=1e-6)


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


class TestOverriding:
    def test_returns_modified_copy(self):
        base = _config()
        derived = base.overriding(workers=4, seed=7)
        assert derived.workers == 4 and derived.seed == 7
        assert base.workers == 1 and base.seed == 2024
        assert derived.nodes == base.nodes

    def test_unknown_field_refused(self):
        with pytest.raises(TypeError, match="unknown CampaignConfig field"):
            _config().overriding(wrokers=4)

    def test_subscribers_normalized_to_tuple(self):
        marker = object()
        config = CampaignConfig(subscribers=[lambda ev: marker])
        assert isinstance(config.subscribers, tuple)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _config().workers = 4


class TestCollaborators:
    def test_algorithm_still_injectable(self):
        result = run_campaign(_funarc(), _config(),
                              algorithm=DeltaDebugSearch())
        assert result.search.algorithm == "delta-debug"

    def test_former_kwarg_is_a_typeerror(self):
        # Execution knobs are config fields, never run_campaign kwargs.
        with pytest.raises(TypeError, match="seed"):
            run_campaign(_funarc(), _config(), seed=7)

    def test_default_config_is_implicit(self):
        # run_campaign(model) alone must keep working (None config).
        result = run_campaign(_funarc())
        assert result.search.finished
