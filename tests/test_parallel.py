"""Determinism suite: parallel, cached, and serial execution bit-identical.

The engine's crux (see ``repro.core.parallel``): variant ids, noise
sampling, Eq.-1 speedups, and the delta-debugging trajectory must not
depend on worker count, completion order, or cache state.  These tests
pin the contract by byte-comparing full campaign payloads across
execution backends, for the funarc miniature and one real model (MPAS).
"""

from __future__ import annotations

import random
import signal

import pytest

from repro.core import (CampaignConfig, CampaignJournal, DeltaDebugSearch,
                        Evaluator, ParallelOracle, ResultCache,
                        journal_header, make_oracle, run_campaign)
from repro.core.campaign import MIN_SWEEP_LANES, InterruptFlag, _signal_guard
from repro.core.results import record_to_dict
from repro.models import FunarcCase, MpasCase
from repro.obs import VariantEvaluated


def _funarc():
    # Threshold probed so the DD search runs a multi-batch trajectory
    # (27 evaluations over 6 batches) rather than accepting all-single.
    return FunarcCase(n=150, error_threshold=4.5e-8)


def _mpas():
    return MpasCase(ncells=12, nlev=4, nsteps=5, nwork=3,
                    error_threshold=1e-7)


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


@pytest.fixture(scope="module")
def funarc_serial():
    return run_campaign(_funarc(), _config())


@pytest.fixture(scope="module")
def mpas_serial():
    return run_campaign(_mpas(), _config(max_evaluations=30))


class TestFunarcDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_bit_identical(self, funarc_serial, workers):
        result = run_campaign(_funarc(), _config(workers=workers))
        assert result.to_json() == funarc_serial.to_json()

    def test_parallel_record_sequence(self, funarc_serial):
        result = run_campaign(_funarc(), _config(workers=2))
        serial = [record_to_dict(r) for r in funarc_serial.records]
        parallel = [record_to_dict(r) for r in result.records]
        assert parallel == serial

    def test_cache_warm_rerun_bit_identical(self, funarc_serial, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_campaign(_funarc(), _config(cache_dir=cache_dir))
        warm = run_campaign(_funarc(), _config(cache_dir=cache_dir))
        assert cold.to_json() == funarc_serial.to_json()
        assert warm.to_json() == funarc_serial.to_json()
        # The warm rerun dispatched nothing and charged ~0 node-seconds.
        telemetry = warm.oracle.telemetry
        assert sum(b.dispatched for b in telemetry) == 0
        assert sum(b.disk_hits for b in telemetry) > 0
        assert warm.oracle.wall_seconds_used == 0.0

    def test_parallel_with_warm_cache_bit_identical(self, funarc_serial,
                                                    tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(_funarc(), _config(workers=2, cache_dir=cache_dir))
        warm = run_campaign(_funarc(), _config(workers=2,
                                               cache_dir=cache_dir))
        assert warm.to_json() == funarc_serial.to_json()
        assert sum(b.dispatched for b in warm.oracle.telemetry) == 0

    def test_telemetry_accounts_for_every_variant(self, funarc_serial):
        telemetry = funarc_serial.oracle.telemetry
        assert telemetry
        assert sum(b.size for b in telemetry) == len(funarc_serial.records)
        for batch in telemetry:
            assert batch.dispatched == batch.completed + batch.failures
            assert batch.size == batch.dispatched + batch.cache_hits
            assert batch.wall_seconds >= 0.0


class TestMpasDeterminism:
    def test_workers_bit_identical(self, mpas_serial):
        result = run_campaign(_mpas(),
                              _config(max_evaluations=30, workers=2))
        assert result.to_json() == mpas_serial.to_json()

    def test_cache_warm_rerun_bit_identical(self, mpas_serial, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(_mpas(), _config(max_evaluations=30,
                                      cache_dir=cache_dir))
        warm = run_campaign(_mpas(), _config(max_evaluations=30,
                                             cache_dir=cache_dir))
        assert warm.to_json() == mpas_serial.to_json()
        assert sum(b.dispatched for b in warm.oracle.telemetry) == 0


#: Executors of one batch plan: the compiled scalar path, one batched
#: sweep in process, a worker pool of scalar variants, and a worker pool
#: that sweeps (the first batch gives each of its two workers
#: MIN_SWEEP_LANES fresh lanes).
_EXECUTORS = {"compiled": {"backend": "compiled"},
              "sweep": {"backend": "batched"},
              "pool": {"backend": "compiled", "workers": 2},
              "pool-sweep": {"backend": "batched", "workers": 2}}

#: Fresh variants in the plan's first batch.
_WIDE = 2 * MIN_SWEEP_LANES


def _plan_batches(case) -> list[list]:
    """Two batches: 2 * MIN_SWEEP_LANES fresh variants, then a batch
    with a memory hit, in-batch duplicates, and three fresh misses."""
    rng = random.Random(14)
    fresh, keys = [], set()
    while len(fresh) < _WIDE + 3:
        assignment = case.space.baseline().with_kinds(
            {a.qualified: 4 for a in case.space.atoms if rng.random() < 0.5})
        if assignment.key() not in keys:
            keys.add(assignment.key())
            fresh.append(assignment)
    first = fresh[:_WIDE]
    a, b, c = fresh[_WIDE:]
    return [first, [a, first[0], a, b, c, b]]


def _run_executor(executor: str, cache_dir, journal_dir) -> dict:
    case = _funarc()
    config = _config(cache_dir=str(cache_dir), **_EXECUTORS[executor])
    oracle = make_oracle(case, config)
    oracle.journal = CampaignJournal.create(
        str(journal_dir),
        journal_header(oracle.evaluator, case.space, DeltaDebugSearch(),
                       config))
    events = []
    oracle.bus.subscribe(
        lambda ev: events.append((ev.batch_index, ev.variant_id, ev.source)),
        (VariantEvaluated,))
    try:
        records = [record_to_dict(r) for batch in _plan_batches(case)
                   for r in oracle.evaluate_batch(batch)]
    finally:
        oracle.close()
        oracle.journal.close()
    return {
        "records": records,
        "counts": [(b.dispatched, b.completed, b.cache_hits, b.disk_hits)
                   for b in oracle.telemetry],
        "events": events,
        "journal": (journal_dir / "journal.jsonl").read_text().splitlines(),
        "swept": [b.vector_lanes + b.fallback_lanes
                  for b in oracle.telemetry],
    }


@pytest.fixture(scope="module")
def executor_runs(tmp_path_factory):
    """executor -> (cold run, warm rerun over the cold run's cache)."""
    runs = {}
    for executor in _EXECUTORS:
        root = tmp_path_factory.mktemp(executor)
        runs[executor] = tuple(
            _run_executor(executor, root / "cache", root / f"journal-{pass_}")
            for pass_ in ("cold", "warm"))
    return runs


class TestOnePlanAnyExecutor:
    """The shared batch planner resolves identically whatever executes
    its tasks: records, counters, the ordered variant events, and the
    journal are the same bytes for every executor, cold and over a
    warm cache."""

    @pytest.mark.parametrize("field", ["records", "counts", "events",
                                       "journal"])
    @pytest.mark.parametrize("executor", ["sweep", "pool", "pool-sweep"])
    def test_matches_compiled(self, executor_runs, executor, field):
        for run, reference in zip(executor_runs[executor],
                                  executor_runs["compiled"]):
            assert run[field] == reference[field]

    def test_cold_plan_folds_duplicates_and_memory_hits(self,
                                                        executor_runs):
        cold, _ = executor_runs["compiled"]
        n = _WIDE
        assert cold["counts"] == [(n, n, 0, 0), (3, 3, 3, 0)]
        assert [(vid, source) for batch, vid, source in cold["events"]
                if batch == 1] == [(n, "fresh"), (0, "memory"),
                                   (n, "memory"), (n + 1, "fresh"),
                                   (n + 2, "fresh"), (n + 1, "memory")]

    def test_warm_rerun_served_from_disk(self, executor_runs):
        _, warm = executor_runs["compiled"]
        n = _WIDE
        assert warm["counts"] == [(0, 0, n, n), (0, 0, 6, 3)]
        assert [source for batch, _, source in warm["events"]
                if batch == 1] == ["disk", "memory", "memory", "disk",
                                   "disk", "memory"]

    def test_batched_run_swept(self, executor_runs):
        # The second batch's three fresh lanes are too few to sweep, in
        # process or on the pool.
        for executor in ("sweep", "pool-sweep"):
            cold, warm = executor_runs[executor]
            assert cold["swept"] == [_WIDE, 0], executor
            assert warm["swept"] == [0, 0], executor
        for executor in ("compiled", "pool"):
            assert executor_runs[executor][0]["swept"] == [0, 0], executor


def _signal_dispositions() -> tuple[bool, bool]:
    """In a pool worker: is SIGTERM at its default, is SIGINT ignored?"""
    return (signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            signal.getsignal(signal.SIGINT) == signal.SIG_IGN)


class TestWorkerSignals:
    def test_workers_leave_graceful_shutdown_to_the_parent(self):
        # Workers fork while the campaign's handlers are installed.  An
        # inherited handler would turn a worker's SIGTERM into a flag
        # nothing reads, so every pool kill would wait out its grace.
        oracle = ParallelOracle.for_model(_funarc(), config=_config(workers=2))
        try:
            with _signal_guard(InterruptFlag(), enabled=True):
                dispositions = oracle._ensure_pool().submit(
                    _signal_dispositions).result(timeout=60)
        finally:
            oracle.close()
        assert dispositions == (True, True)


class TestCacheRoundTrip:
    """Property-style: assignment.key() round-trips the file format."""

    def test_random_assignments_round_trip(self, tmp_path):
        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        rng = random.Random(1234)
        atoms = case.space.atoms
        stored = []
        for vid in range(12):
            kinds = tuple(rng.choice((4, 8)) for _ in atoms)
            assignment = case.space.baseline().with_kinds(
                {a.qualified: k for a, k in zip(atoms, kinds) if k != 8})
            record = evaluator.evaluate_assigned(assignment, vid)
            cache.put(record)
            stored.append((assignment, vid, record))

        # A fresh cache instance reloads everything from disk.
        reloaded = ResultCache.for_evaluator(tmp_path, evaluator)
        assert len(reloaded) == len({a.key() for a, _, _ in stored})
        for assignment, vid, record in stored:
            got = reloaded.get(assignment.key(), vid)
            if got is None:
                # A later evaluation of the same key overwrote this one.
                assert any(a.key() == assignment.key() and v != vid
                           for a, v, _ in stored)
                continue
            assert record_to_dict(got) == record_to_dict(record)

    def test_variant_id_mismatch_is_a_miss(self, tmp_path):
        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        record = evaluator.evaluate_assigned(case.space.all_single(), 7)
        cache.put(record)

        reloaded = ResultCache.for_evaluator(tmp_path, evaluator)
        assert reloaded.get(record.kinds, 7) is not None
        assert reloaded.get(record.kinds, 8) is None
        assert reloaded.stale_hits == 1

    def test_context_isolation(self, tmp_path):
        # Same directory, different experiment seed: separate cache files.
        case = _funarc()
        a = ResultCache.for_evaluator(tmp_path, Evaluator(case))
        b = ResultCache.for_evaluator(tmp_path, Evaluator(case, seed=999))
        record = Evaluator(case).evaluate_assigned(case.space.all_single(), 0)
        a.put(record)
        assert ResultCache.for_evaluator(tmp_path, Evaluator(case)).contains(
            record.kinds)
        assert not ResultCache(tmp_path, b.context).contains(record.kinds)

    def test_cache_path_collision_raises_repo_error(self, tmp_path):
        from repro.errors import CampaignError
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        with pytest.raises(CampaignError, match="not a directory"):
            ResultCache(not_a_dir, "ctx")

    def test_torn_tail_tolerated(self, tmp_path):
        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        record = evaluator.evaluate_assigned(case.space.all_single(), 3)
        cache.put(record)
        with cache.path.open("a") as fh:
            fh.write('{"context": "truncated by a killed wr')

        reloaded = ResultCache.for_evaluator(tmp_path, evaluator)
        assert len(reloaded) == 1
        assert reloaded.get(record.kinds, 3) is not None
        assert any("interrupted write" in w for w in reloaded.load_warnings)

    def test_entries_after_torn_line_still_load(self, tmp_path):
        # A resumed writer appends complete records past the tear left
        # by its killed predecessor; both sides of the tear are served.
        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        first = evaluator.evaluate_assigned(case.space.all_single(), 0)
        cache.put(first)
        with cache.path.open("a") as fh:
            fh.write('{"context": "torn mid-append\n')
        second = evaluator.evaluate_assigned(case.space.baseline(), 1)
        cache.put(second)

        reloaded = ResultCache.for_evaluator(tmp_path, evaluator)
        assert reloaded.get(first.kinds, 0) is not None
        assert reloaded.get(second.kinds, 1) is not None
        assert len(reloaded.load_warnings) == 1

    def test_malformed_record_body_skipped_with_warning(self, tmp_path):
        import json

        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        good = evaluator.evaluate_assigned(case.space.all_single(), 0)
        cache.put(good)
        # Structurally broken entries: right context, wrong shapes.
        with cache.path.open("a") as fh:
            fh.write(json.dumps({"context": cache.context,
                                 "key": [8, 8],
                                 "record": {"variant_id": 1}}) + "\n")
            fh.write(json.dumps(["not", "a", "cache", "entry"]) + "\n")

        reloaded = ResultCache.for_evaluator(tmp_path, evaluator)
        assert reloaded.get(good.kinds, 0) is not None
        assert not reloaded.contains((8, 8))
        assert sum("malformed cache record" in w
                   for w in reloaded.load_warnings) == 1
        assert sum("not a cache entry" in w
                   for w in reloaded.load_warnings) == 1
