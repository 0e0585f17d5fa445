"""Campaign orchestration tests: node pool, wall budget, Table-II summary."""

import pytest

from repro.core import (BudgetedOracle, CampaignConfig, DeltaDebugSearch,
                        Evaluator, Outcome, run_campaign)
from repro.core.search.base import BudgetExhausted
from repro.models import FunarcCase


@pytest.fixture(scope="module")
def funarc_campaign():
    # At this miniature n the fp32 rounding floor (~4e-7) dominates the
    # linear phase-error scaling, so the threshold is set explicitly.
    case = FunarcCase(n=150, error_threshold=4.5e-7)
    return run_campaign(case, CampaignConfig(nodes=20,
                                             wall_budget_seconds=12 * 3600))


class TestBudgetedOracle:
    def test_wave_scheduling(self, funarc_case, funarc_evaluator):
        config = CampaignConfig(nodes=2, wall_budget_seconds=1e9)
        oracle = BudgetedOracle(evaluator=funarc_evaluator, config=config)
        batch = [funarc_case.space.baseline(),
                 funarc_case.space.all_single(),
                 funarc_case.space.baseline().lower_all(
                     [funarc_case.space.atoms[0].qualified])]
        records = oracle.evaluate_batch(batch)
        assert len(records) == 3
        # 3 variants on 2 nodes = 2 waves; batch time >= 2x the slowest
        # member would be an overestimate, but >= 1 wave's max for sure.
        max_single = max(r.eval_wall_seconds for r in records)
        assert oracle.wall_seconds_used >= max_single

    def test_budget_exhaustion_raises(self, funarc_case):
        # A fresh evaluator: cache hits are free now, so reusing the
        # session evaluator would never spend the budget.
        config = CampaignConfig(nodes=20, wall_budget_seconds=1.0)
        oracle = BudgetedOracle(evaluator=Evaluator(funarc_case),
                                config=config)
        oracle.evaluate_batch([funarc_case.space.baseline()])
        with pytest.raises(BudgetExhausted):
            oracle.evaluate_batch([funarc_case.space.all_single()])

    def test_evaluation_cap(self, funarc_case, funarc_evaluator):
        config = CampaignConfig(max_evaluations=1, wall_budget_seconds=1e9)
        oracle = BudgetedOracle(evaluator=funarc_evaluator, config=config)
        with pytest.raises(BudgetExhausted):
            oracle.evaluate_batch([funarc_case.space.baseline(),
                                   funarc_case.space.all_single()])


class TestCampaign:
    def test_summary_percentages(self, funarc_campaign):
        summary = funarc_campaign.summary()
        total_pct = (summary.pass_pct + summary.fail_pct +
                     summary.timeout_pct + summary.error_pct)
        assert total_pct == pytest.approx(100.0)
        assert summary.total == len(funarc_campaign.records)

    def test_search_finished_within_budget(self, funarc_campaign):
        assert funarc_campaign.summary().finished
        assert funarc_campaign.wall_hours() < 12

    def test_funarc_search_finds_accepted_variant(self, funarc_campaign):
        best = funarc_campaign.search.best_accepted()
        assert best is not None
        assert best.speedup > 1.1

    def test_budget_kills_search(self):
        # A threshold nothing satisfies forces a long search; a tiny wall
        # budget must then terminate it unfinished (the MOM6 fate).
        case = FunarcCase(n=150, error_threshold=1e-12)
        config = CampaignConfig(wall_budget_seconds=40.0)
        result = run_campaign(case, config)
        assert not result.search.finished
        assert result.summary().finished is False

    def test_batch_log_recorded(self, funarc_campaign):
        telemetry = funarc_campaign.oracle.telemetry
        assert telemetry
        assert all(bt.size > 0 and bt.sim_seconds > 0 for bt in telemetry)

    def test_no_preprocessing_note_by_default(self, funarc_campaign):
        assert funarc_campaign.preprocessing_note == ""


class TestPreprocessingFailure:
    def test_poisoned_reduction_still_finishes(self, monkeypatch):
        # A taint-reduction failure must not kill the campaign: the full
        # program is tuned instead and the failure is surfaced on the
        # result (previously it was silently swallowed).
        from repro.errors import TransformError
        from repro.fortran import taint

        def poisoned(index, targets):
            raise TransformError("injected reduction failure")

        monkeypatch.setattr(taint, "reduce_program", poisoned)
        case = FunarcCase(n=150, error_threshold=4.5e-7)
        result = run_campaign(case, CampaignConfig(
            nodes=20, wall_budget_seconds=12 * 3600))
        assert result.search.finished
        assert "TransformError" in result.preprocessing_note
        assert "injected reduction failure" in result.preprocessing_note
        assert '"preprocessing_note"' in result.to_json()

    def test_non_repo_errors_propagate(self, monkeypatch):
        # Only the repo's own error types are campaign-survivable; a
        # genuine bug (e.g. TypeError) must not be masked.
        from repro.fortran import taint

        def broken(index, targets):
            raise TypeError("a real bug")

        monkeypatch.setattr(taint, "reduce_program", broken)
        case = FunarcCase(n=150, error_threshold=4.5e-7)
        with pytest.raises(TypeError):
            run_campaign(case, CampaignConfig(
                nodes=20, wall_budget_seconds=12 * 3600))


class TestCacheHitAccounting:
    def test_repeat_batch_costs_no_wall_time(self, funarc_case):
        # Regression: cache-hit variants used to be charged their full
        # original wall time, draining the simulated budget for work the
        # node pool never redid.
        config = CampaignConfig(nodes=20, wall_budget_seconds=1e9)
        oracle = BudgetedOracle(evaluator=Evaluator(funarc_case),
                                config=config)
        batch = [funarc_case.space.baseline(), funarc_case.space.all_single()]
        oracle.evaluate_batch(batch)
        first_wall = oracle.wall_seconds_used
        assert first_wall > 0.0

        repeat = oracle.evaluate_batch(batch)
        assert oracle.wall_seconds_used == first_wall
        assert len(repeat) == 2
        assert oracle.telemetry[1].cache_hits == 2
        assert oracle.telemetry[1].dispatched == 0
        assert oracle.telemetry[1].sim_seconds == 0.0

    def test_disk_hits_cost_no_wall_time(self, funarc_case, tmp_path):
        from repro.core import ResultCache
        config = CampaignConfig(nodes=20, wall_budget_seconds=1e9)
        batch = [funarc_case.space.baseline(), funarc_case.space.all_single()]

        cold_eval = Evaluator(funarc_case)
        cold = BudgetedOracle(
            evaluator=cold_eval, config=config,
            cache=ResultCache.for_evaluator(tmp_path, cold_eval))
        cold.evaluate_batch(batch)
        assert cold.wall_seconds_used > 0.0

        warm_eval = Evaluator(funarc_case)
        warm = BudgetedOracle(
            evaluator=warm_eval, config=config,
            cache=ResultCache.for_evaluator(tmp_path, warm_eval))
        warm.evaluate_batch(batch)
        assert warm.wall_seconds_used == 0.0
        assert warm.telemetry[0].disk_hits == 2
