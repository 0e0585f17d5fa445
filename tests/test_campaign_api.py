"""The config-first ``run_campaign`` API.

Every execution knob lives on :class:`CampaignConfig`; ``run_campaign``
takes only the model, the config, and the injectable collaborators
(``algorithm``, ``evaluator``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (CampaignConfig, DeltaDebugSearch, Evaluator,
                        ParallelOracle, RandomSearch, run_campaign)
from repro.errors import CampaignError
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


class TestInjectedEvaluator:
    """An injected evaluator must agree with the config on the seed,
    the timeout factor and the backend; it used to win silently."""

    @pytest.mark.parametrize("field,config_kw,evaluator_kw,held,wanted", [
        ("seed", dict(seed=7), {}, 2024, 7),
        ("seed", {}, dict(seed=7), 7, 2024),
        ("timeout_factor", dict(timeout_factor=2.0), {}, 3.0, 2.0),
        ("backend", dict(backend="batched"), {}, "'compiled'", "'batched'"),
    ], ids=["config-seed", "evaluator-seed", "timeout_factor", "backend"])
    def test_contradicting_evaluator_refused(self, field, config_kw,
                                             evaluator_kw, held, wanted):
        case = FunarcCase(n=150)
        config = _config(max_evaluations=16, **config_kw)
        match = (f"evaluator's {field} is {held} but the campaign "
                 f"config's {field} is {wanted}")
        with pytest.raises(CampaignError, match=match):
            run_campaign(case, config,
                         algorithm=RandomSearch(samples=16, batch_size=16,
                                                seed=5),
                         evaluator=Evaluator(case, **evaluator_kw))
        with pytest.raises(CampaignError, match=match):
            ParallelOracle.for_model(case, config.overriding(workers=2),
                                     evaluator=Evaluator(case,
                                                         **evaluator_kw))

    def test_matching_evaluator_gives_the_config_s_bytes(self):
        case = FunarcCase(n=150)
        config = _config(max_evaluations=16, backend="batched", seed=7)

        def search():
            return RandomSearch(samples=16, batch_size=16, seed=5)

        injected = run_campaign(case, config, algorithm=search(),
                                evaluator=Evaluator.for_config(case, config))
        assert [t.vector_lanes for t in injected.oracle.telemetry] == [16]
        assert injected.to_json() == run_campaign(
            FunarcCase(n=150), config, algorithm=search()).to_json()
