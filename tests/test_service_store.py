"""The run store: one model run per distinct variant, same bytes.

A :class:`~repro.core.evaluation.RunStore` keeps seed-free model runs
(the artifacts, or the classified op-cap or runtime failure), and the
campaign service shares one across its jobs.  Each job still finalizes
its own records under its own seed, so a served result must be the
bytes of a direct :func:`~repro.core.run_campaign` of its spec, which
builds no store.  These tests pin that on every model, pin what the
store keys on, and pin the oracle paths around it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.chaos import FaultPlan, WorkerFault
from repro.core import (CampaignConfig, Evaluator, Outcome, ParallelOracle,
                        PrecisionAssignment, make_algorithm, run_campaign)
from repro.core.evaluation import RunFailure, RunStore
from repro.core.results import record_to_dict
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase
from repro.obs import load_trace
from repro.service import CampaignService, JobSpec

#: The small cases, one per registry name.  funarc and MPAS-A get
#: thresholds under which the search runs a multi-batch trajectory
#: (MPAS-A at ``MpasCase.small()``'s size accepts all-single at once).
_CASES = {
    "funarc": lambda: FunarcCase(n=150, error_threshold=4.5e-8),
    "mpas-a": lambda: MpasCase(ncells=12, nlev=4, nsteps=5, nwork=3,
                               error_threshold=1e-7),
    "adcirc": AdcircCase.small,
    "mom6": Mom6Case.small,
}

#: Two seeds per model: the second job finalizes the first job's runs
#: under other noise draws.
_SEEDS = (2024, 2025)
_MAX_EVALS = 10


def _factory(name):
    try:
        return _CASES[name]()
    except KeyError:
        raise KeyError(f"unknown model {name!r}") from None


def _spec(model, seed, tenant="a", **config) -> JobSpec:
    return JobSpec(model=model, tenant=tenant, config=CampaignConfig(
        max_evaluations=_MAX_EVALS, seed=seed, **config))


def _direct(spec: JobSpec) -> str:
    """A direct campaign of *spec*: no service, no run store."""
    case = _factory(spec.model)
    return run_campaign(case, spec.config, algorithm=make_algorithm(
        spec.algorithm, case, spec.config.max_evaluations)).to_json()


def _stored_runs(service, job_id) -> int:
    return sum(e["data"]["telemetry"]["stored_runs"]
               for e in service.history(job_id)
               if e["event"] == "BatchCompleted")


def _serve(service, spec) -> tuple[str, str]:
    rec, _ = service.submit(spec)
    service.run_pending()
    return rec.job_id, service.result_text(rec.job_id)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """model -> [(spec, served bytes, stored runs)] per seed, all from
    one service."""
    service = CampaignService(tmp_path_factory.mktemp("state"),
                              model_factory=_factory)
    out = {}
    try:
        for model in _CASES:
            out[model] = []
            for seed in _SEEDS:
                spec = _spec(model, seed)
                job_id, text = _serve(service, spec)
                out[model].append((spec, text,
                                   _stored_runs(service, job_id)))
    finally:
        service.close()
    return out


class TestServedBytesOnEveryModel:
    @pytest.mark.parametrize("model", list(_CASES))
    def test_each_job_is_its_direct_campaign(self, served, model):
        for spec, text, _ in served[model]:
            assert text == _direct(spec), (model, spec.config.seed)

    @pytest.mark.parametrize("model", list(_CASES))
    def test_second_job_finalizes_stored_runs(self, served, model):
        (_, first, cold), (_, second, warm) = served[model]
        assert cold == 0
        assert warm > 0
        # Another seed: the same runs, other Eq.-1 draws.
        assert first != second


def _records(evaluator, assignments):
    """Each assignment's record, finalized from the evaluator's stored
    run where its store holds one, as the serial oracle does."""
    records = []
    for vid, assignment in enumerate(assignments):
        run = evaluator.stored_run(assignment)
        if run is None:
            run = evaluator.run(assignment)
        records.append(record_to_dict(
            evaluator.finalize(assignment, vid, run)))
    return records


def _assignments(case):
    space = case.space
    return [space.all_single(),
            space.baseline().with_kinds({space.atoms[0].qualified: 4})]


class TestStoreKey:
    """Runs are keyed by the case's class, spec and source, the
    assignment's overlay and the op cap: nothing else ever serves."""

    def _shared(self, first, second):
        """Evaluate both cases' assignments over one store; the second
        case's records against a store-less evaluator's, and how many
        runs the second case added to the store."""
        store = RunStore()
        _records(Evaluator(first, runs=store), _assignments(first))
        before = len(store)
        got = _records(Evaluator(second, runs=store), _assignments(second))
        assert got == _records(Evaluator(second), _assignments(second))
        return len(store) - before

    def test_same_case_serves_every_run(self):
        # The baseline and both variants are served: nothing is added.
        assert self._shared(FunarcCase(n=150), FunarcCase(n=150)) == 0

    def test_two_sizes_never_share(self):
        assert self._shared(FunarcCase(n=150), FunarcCase(n=151)) == 3
        assert self._shared(Mom6Case.small(),
                            Mom6Case(ni=10, nk=3, nsteps=3, nwork=16)) == 3

    def test_same_name_other_source_never_shares(self):
        other = FunarcCase(n=150)
        other.source = FunarcCase.source.replace("1.0d0", "1.5d0", 1)
        assert other.source != FunarcCase.source
        assert other.name == "funarc"
        assert other.model_spec() == FunarcCase(n=150).model_spec()
        assert self._shared(FunarcCase(n=150), other) == 3

    def test_same_name_other_harness_never_shares(self):
        class HalfFunarc(FunarcCase):
            def _drive(self, interp):
                return 0.5 * super()._drive(interp)

        other = HalfFunarc(n=150)
        assert other.model_spec() == FunarcCase(n=150).model_spec()
        assert self._shared(FunarcCase(n=150), other) == 3

    def test_failures_are_stored_with_their_outcome(self):
        # A classified failure is a run outcome like any other: take the
        # first variant of a small MOM6 campaign that crashes.
        case = Mom6Case.small()
        crashed = next(r for r in run_campaign(
            case, CampaignConfig(max_evaluations=_MAX_EVALS)).records
            if r.outcome is Outcome.RUNTIME_ERROR)
        assignment = PrecisionAssignment(atoms=case.space.atoms,
                                         kinds=crashed.kinds)
        evaluator = Evaluator(case, runs=RunStore())
        record = evaluator.evaluate_assigned(assignment,
                                             crashed.variant_id)
        run = evaluator.stored_run(assignment)
        assert isinstance(run, RunFailure)
        assert (run.outcome, run.note) == (record.outcome, record.note)
        assert record_to_dict(record) == record_to_dict(crashed)
        assert record_to_dict(evaluator.finalize(
            assignment, crashed.variant_id, run)) == record_to_dict(record)


class TestStoreBound:
    def test_fifo_evicts_the_oldest(self):
        store = RunStore()
        for i in range(RunStore.MAXSIZE + 1):
            store.put(("key", i), RunFailure(Outcome.TIMEOUT, str(i)))
        assert len(store) == RunStore.MAXSIZE
        assert store.get(("key", 0)) is None
        assert store.get(("key", 1)).note == "1"
        # Re-putting a held key evicts nothing.
        store.put(("key", 1), RunFailure(Outcome.TIMEOUT, "again"))
        assert len(store) == RunStore.MAXSIZE
        assert store.get(("key", 2)) is not None

    def test_no_store_no_lookup(self):
        evaluator = Evaluator(FunarcCase(n=150))
        assert evaluator.runs is None
        assert evaluator.stored_run(evaluator.model.space.all_single()) \
            is None


class TestConcurrency:
    def test_concurrent_jobs_share_one_store(self, tmp_path):
        """``repro serve --workers 2`` runs ``execute`` in concurrent
        threads over the one store."""
        service = CampaignService(tmp_path / "state", model_factory=_factory)
        specs = [_spec("funarc", seed) for seed in (7, 8, 9, 10)]
        try:
            for spec in specs:
                service.submit(spec)
            claimed = [service.next_job() for _ in specs]
            threads = [threading.Thread(target=service.execute, args=(rec,))
                       for rec in claimed]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            for spec, rec in zip(specs, claimed):
                assert service.result_text(rec.job_id) == _direct(spec)
        finally:
            service.close()

    def test_concurrent_puts_lose_nothing_and_keep_the_bound(self):
        """Eight threads put and read back distinct keys with a short
        switch interval: below the bound every put is held, past it the
        store holds exactly ``MAXSIZE``."""
        per_thread = RunStore.MAXSIZE // 8
        store = RunStore()
        errors = []

        def fill(t, count):
            try:
                for i in range(count):
                    key = ("key", t, i)
                    store.put(key, RunFailure(Outcome.TIMEOUT, str(i)))
                    store.get(key)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def run(count):
            threads = [threading.Thread(target=fill, args=(t, count))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run(per_thread)
            assert not errors
            assert len(store) == 8 * per_thread
            assert all(store.get(("key", t, i)) is not None
                       for t in range(8) for i in range(per_thread))
            run(2 * per_thread)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(store) == RunStore.MAXSIZE


class TestOracleAroundTheStore:
    def test_worker_fault_still_fires_on_a_stored_variant(self):
        """The pool never consults the store, even for runs it holds: a
        chaos worker fault fires on the variant it names, and the retry
        gives the store-less record."""
        case = FunarcCase(n=150)
        batch = [case.space.all_single(), _assignments(case)[1]]
        store = RunStore()
        warm = Evaluator(case, runs=store)
        for assignment in batch:
            warm.run(assignment)
        config = CampaignConfig(workers=2,
                                chaos=FaultPlan(worker_faults=(
                                    WorkerFault(0, "raise", True),)))
        oracle = ParallelOracle.for_model(
            case, config=config, evaluator=Evaluator(case, runs=store))
        try:
            records = oracle.evaluate_batch(batch)
        finally:
            oracle.close()
        stats = oracle.telemetry[0]
        assert (stats.retries, stats.stored_runs, stats.completed) \
            == (1, 0, 2)
        assert [record_to_dict(r) for r in records] == \
            _records(Evaluator(case), batch)

    def test_variant_spans_say_which_runs_were_stored(self, tmp_path):
        case = FunarcCase(n=150)
        store = RunStore()
        Evaluator(case, runs=store).run(case.space.all_single())
        config = CampaignConfig(max_evaluations=_MAX_EVALS,
                                trace_dir=str(tmp_path / "trace"))
        result = run_campaign(case, config,
                              evaluator=Evaluator(case, runs=store))
        spans = [s for s in load_trace(tmp_path / "trace")
                 if s["type"] == "span" and s["name"] == "variant"]
        stored = [s["attrs"]["id"] for s in spans if s["attrs"]["stored"]]
        assert stored == [0]                  # all-single, tried first
        assert len(spans) == len(result.records)
        assert result.metrics.snapshot()["repro_stored_runs_total"] == \
            {"": 1}
        assert sum(b.stored_runs for b in result.oracle.telemetry) == 1
        assert result.to_json() == run_campaign(case, config.overriding(
            trace_dir=None)).to_json()
