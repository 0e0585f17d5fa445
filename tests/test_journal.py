"""Crash-safe checkpoint/resume: the journal determinism suite.

The contract (see ``repro.core.journal``): kill a journaled campaign
after any batch — or mid-batch, or via SIGINT/SIGTERM — and the
resumed campaign replays the journal at ~0 simulated node-seconds,
continues from the exact batch where the dead process stopped, and
produces a ``CampaignResult.to_json()`` byte-identical to an
uninterrupted run.  A journal written for a different campaign
(model spec, algorithm, trajectory-relevant config) is refused.

Journal placement is ``CampaignConfig.journal_dir``/``resume``, and
crash injection rides the event bus as a ``BatchCompleted`` subscriber.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.chaos import FaultPlan, WorkerFault
from repro.core import (CampaignConfig, DeltaDebugSearch, Outcome,
                        ParallelOracle, RandomSearch, parallel, run_campaign)
from repro.core.journal import CampaignJournal, JournalState, journal_header
from repro.errors import CampaignError, JournalError
from repro.models import FunarcCase, MpasCase
from repro.obs import BatchCompleted, subscribes_to


def _funarc():
    # Same sizing as tests/test_parallel.py: 27 evaluations, 6 batches.
    return FunarcCase(n=150, error_threshold=4.5e-8)


def _mpas():
    return MpasCase(ncells=12, nlev=4, nsteps=5, nwork=3,
                    error_threshold=1e-7)


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


class Boom(Exception):
    """Stand-in for a hard crash (``kill -9``, OOM, node failure)."""


def _kill_after(k: int):
    """Bus subscriber that dies once batch *k* has been committed."""

    @subscribes_to(BatchCompleted)
    def subscriber(ev):
        if ev.telemetry.batch_index >= k:
            raise Boom(f"killed after batch {k}")

    return subscriber


def _on_batch(fn):
    """Wrap *fn* as a ``BatchCompleted`` subscriber taking the batch's
    telemetry."""

    @subscribes_to(BatchCompleted)
    def subscriber(ev):
        fn(ev.telemetry)

    return subscriber


def _assert_resumed(resumed, baseline, k: int) -> None:
    """The tentpole acceptance: byte-identity plus free replay."""
    assert resumed.to_json() == baseline.to_json()
    assert resumed.resumed_from_batch == k + 1
    telemetry = resumed.oracle.telemetry
    replayed_batches = [b for b in telemetry if b.batch_index <= k]
    assert replayed_batches, "resume replayed no batches"
    # Replayed work is free: nothing dispatched, ~0 node-seconds.
    assert all(b.dispatched == 0 for b in replayed_batches)
    assert sum(b.sim_seconds for b in replayed_batches) == 0.0
    assert sum(b.replayed for b in telemetry) > 0
    # The telemetry invariant holds through replay.
    for b in telemetry:
        assert b.size == b.dispatched + b.cache_hits


@pytest.fixture(scope="module")
def funarc_baseline():
    return run_campaign(_funarc(), _config())


@pytest.fixture(scope="module")
def mpas_baseline():
    return run_campaign(_mpas(), _config(max_evaluations=30))


class TestKillAndResume:
    """Death after batch k, for several k, serial and parallel."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_funarc_serial(self, funarc_baseline, tmp_path, k):
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=journal_dir,
                                 subscribers=(_kill_after(k),)))
        resumed = run_campaign(_funarc(),
                               _config(journal_dir=journal_dir, resume=True))
        _assert_resumed(resumed, funarc_baseline, k)

    @pytest.mark.parametrize("k", [0, 3])
    def test_funarc_workers(self, funarc_baseline, tmp_path, k):
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(workers=2, journal_dir=journal_dir,
                                 subscribers=(_kill_after(k),)))
        resumed = run_campaign(_funarc(),
                               _config(workers=2, journal_dir=journal_dir,
                                       resume=True))
        _assert_resumed(resumed, funarc_baseline, k)

    def test_killed_parallel_resumed_serial(self, funarc_baseline, tmp_path):
        # Worker count is an execution knob, not campaign identity: a
        # campaign killed under workers=2 resumes serially (and vice
        # versa) because the journal stores results, not schedules.
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(workers=2, journal_dir=journal_dir,
                                 subscribers=(_kill_after(1),)))
        resumed = run_campaign(_funarc(),
                               _config(journal_dir=journal_dir, resume=True))
        _assert_resumed(resumed, funarc_baseline, 1)

    @pytest.mark.parametrize("k", [0, 2])
    def test_mpas_serial(self, mpas_baseline, tmp_path, k):
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_mpas(),
                         _config(max_evaluations=30, journal_dir=journal_dir,
                                 subscribers=(_kill_after(k),)))
        resumed = run_campaign(_mpas(),
                               _config(max_evaluations=30,
                                       journal_dir=journal_dir, resume=True))
        _assert_resumed(resumed, mpas_baseline, k)

    def test_mpas_workers(self, mpas_baseline, tmp_path):
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_mpas(),
                         _config(max_evaluations=30, workers=2,
                                 journal_dir=journal_dir,
                                 subscribers=(_kill_after(1),)))
        resumed = run_campaign(_mpas(),
                               _config(max_evaluations=30, workers=2,
                                       journal_dir=journal_dir, resume=True))
        _assert_resumed(resumed, mpas_baseline, 1)

    def test_double_kill_double_resume(self, funarc_baseline, tmp_path):
        # Die, resume, die again further along, resume again: each
        # allocation extends the same journal.
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=journal_dir,
                                 subscribers=(_kill_after(0),)))
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=journal_dir, resume=True,
                                 subscribers=(_kill_after(2),)))
        resumed = run_campaign(_funarc(),
                               _config(journal_dir=journal_dir, resume=True))
        _assert_resumed(resumed, funarc_baseline, 2)
        state = JournalState.load(journal_dir)
        assert state.resumes == 2
        assert state.finished

    def test_resume_of_finished_campaign_is_pure_replay(
            self, funarc_baseline, tmp_path):
        journal_dir = str(tmp_path / "journal")
        first = run_campaign(_funarc(), _config(journal_dir=journal_dir))
        assert first.to_json() == funarc_baseline.to_json()
        resumed = run_campaign(_funarc(),
                               _config(journal_dir=journal_dir, resume=True))
        assert resumed.to_json() == funarc_baseline.to_json()
        telemetry = resumed.oracle.telemetry
        assert sum(b.dispatched for b in telemetry) == 0
        assert resumed.oracle.wall_seconds_used == 0.0


class TestMidBatchCrash:
    def test_crash_between_variant_appends(self, funarc_baseline, tmp_path):
        # Die partway through journaling batch 2 (after 5 of its
        # write-ahead variant records): the resume replays the complete
        # batches, serves the journaled half of batch 2, and freshly
        # evaluates only the remainder.
        journal_dir = str(tmp_path / "journal")
        original = CampaignJournal.variant
        appends = {"n": 0}

        def dying_variant(self, batch, record):
            appends["n"] += 1
            if appends["n"] > 5:
                raise Boom("crashed mid-batch")
            original(self, batch, record)

        CampaignJournal.variant = dying_variant
        try:
            with pytest.raises(Boom):
                run_campaign(_funarc(), _config(journal_dir=journal_dir))
        finally:
            CampaignJournal.variant = original

        state = JournalState.load(journal_dir)
        assert state.completed_batches < state.intent_batches

        resumed = run_campaign(_funarc(),
                               _config(journal_dir=journal_dir, resume=True))
        assert resumed.to_json() == funarc_baseline.to_json()
        assert resumed.resumed_from_batch == state.completed_batches

    def test_torn_trailing_line_tolerated(self, funarc_baseline, tmp_path):
        # A crash mid-append leaves a half-written JSON line; the loader
        # warns and skips it instead of refusing the whole journal.
        journal_dir = tmp_path / "journal"
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=str(journal_dir),
                                 subscribers=(_kill_after(1),)))
        with (journal_dir / "journal.jsonl").open("a") as fh:
            fh.write('{"type": "variant", "batch": 2, "rec')

        state = JournalState.load(journal_dir)
        assert any("torn journal line" in w for w in state.warnings)

        resumed = run_campaign(_funarc(),
                               _config(journal_dir=str(journal_dir),
                                       resume=True))
        _assert_resumed(resumed, funarc_baseline, 1)


class TestGracefulSignals:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_and_resumes(self, funarc_baseline, tmp_path,
                                       signum):
        journal_dir = str(tmp_path / "journal")

        @_on_batch
        def send_signal(bt):
            if bt.batch_index == 1:
                os.kill(os.getpid(), signum)

        result = run_campaign(_funarc(),
                              _config(journal_dir=journal_dir,
                                      subscribers=(send_signal,)))
        # Partial result, not a stack trace: batches 0-1 committed.
        assert result.interrupted
        assert not result.search.finished
        assert len(result.oracle.telemetry) == 2
        assert result.records
        # The previous signal dispositions are restored on exit.
        assert signal.getsignal(signum) is signal.default_int_handler \
            or signal.getsignal(signum) is signal.SIG_DFL

        state = JournalState.load(journal_dir)
        assert state.interruptions == 1
        assert not state.finished

        resumed = run_campaign(_funarc(),
                               _config(journal_dir=journal_dir, resume=True))
        assert not resumed.interrupted
        assert resumed.search.finished
        _assert_resumed(resumed, funarc_baseline, 1)

    def test_signal_without_journal_still_graceful(self):
        @_on_batch
        def send_signal(bt):
            if bt.batch_index == 0:
                os.kill(os.getpid(), signal.SIGINT)

        result = run_campaign(_funarc(),
                              _config(subscribers=(send_signal,)))
        assert result.interrupted
        assert len(result.oracle.telemetry) == 1

    def test_handlers_not_installed_when_disabled(self):
        before = signal.getsignal(signal.SIGTERM)
        seen = []

        @_on_batch
        def probe(bt):
            seen.append(signal.getsignal(signal.SIGTERM))
            raise Boom("stop after one batch")

        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(handle_signals=False,
                                 subscribers=(probe,)))
        assert seen == [before]


class TestResumeRefusal:
    """Fingerprint validation: never replay someone else's journal."""

    @pytest.fixture()
    def journal_dir(self, tmp_path):
        d = str(tmp_path / "journal")
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=d,
                                 subscribers=(_kill_after(0),)))
        return d

    def test_different_model_spec_refused(self, journal_dir):
        with pytest.raises(JournalError, match="evaluation context"):
            run_campaign(FunarcCase(n=150, error_threshold=1e-6),
                         _config(journal_dir=journal_dir, resume=True))

    def test_different_algorithm_refused(self, journal_dir):
        with pytest.raises(JournalError, match="algorithm"):
            run_campaign(_funarc(),
                         _config(journal_dir=journal_dir, resume=True),
                         algorithm=RandomSearch(samples=5))

    def test_different_config_refused(self, journal_dir):
        with pytest.raises(JournalError, match="config"):
            run_campaign(_funarc(),
                         _config(max_evaluations=17,
                                 journal_dir=journal_dir, resume=True))

    def test_worker_count_is_not_identity(self, journal_dir, funarc_baseline):
        resumed = run_campaign(_funarc(),
                               _config(workers=2, journal_dir=journal_dir,
                                       resume=True))
        assert resumed.to_json() == funarc_baseline.to_json()

    def test_resume_without_journal_dir_refused(self):
        config = CampaignConfig(resume=True)
        with pytest.raises(CampaignError, match="no journal directory"):
            run_campaign(_funarc(), config)

    def test_resume_of_missing_journal_refused(self, tmp_path):
        with pytest.raises(JournalError, match="nothing to resume"):
            run_campaign(_funarc(),
                         _config(journal_dir=str(tmp_path / "absent"),
                                 resume=True))

    def test_fresh_run_refuses_existing_journal(self, journal_dir):
        with pytest.raises(JournalError, match="already exists"):
            run_campaign(_funarc(), _config(journal_dir=journal_dir))


class TestJournalArtifacts:
    def test_writeahead_order_and_terminal_marker(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_campaign(_funarc(), _config(journal_dir=str(journal_dir)))
        lines = [json.loads(line) for line in
                 (journal_dir / "journal.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "finished"
        # Every batch: intent strictly precedes its variants and done.
        first_seen: dict[str, dict[int, int]] = {}
        for i, entry in enumerate(lines):
            kind, batch = entry.get("type"), entry.get("batch")
            if batch is not None:
                first_seen.setdefault(kind, {}).setdefault(batch, i)
        for batch, done_at in first_seen["batch_done"].items():
            assert first_seen["batch_intent"][batch] < done_at
        for batch, var_at in first_seen.get("variant", {}).items():
            assert first_seen["batch_intent"][batch] < var_at

        state = JournalState.load(journal_dir)
        assert state.finished
        assert state.completed_batches == len(first_seen["batch_done"])
        assert state.evaluations == 27

    def test_snapshot_written_atomically(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_campaign(_funarc(), _config(journal_dir=str(journal_dir)))
        snapshot = json.loads((journal_dir / "snapshot.json").read_text())
        assert snapshot["algorithm"] == "delta-debug"
        assert snapshot["phase"] == "final"
        assert not (journal_dir / "snapshot.json.tmp").exists()

    def test_every_search_snapshot_is_written(self, tmp_path, monkeypatch):
        # The journal writes each state the search hands it (one per
        # ddmin round, then the final one), through the class's own
        # method, so a wrapper on the class sees them all.
        phases = []
        write = CampaignJournal.snapshot

        def spy(journal, state):
            phases.append(state["phase"])
            write(journal, state)

        monkeypatch.setattr(CampaignJournal, "snapshot", spy)
        result = run_campaign(_funarc(), _config(
            journal_dir=str(tmp_path / "journal")))
        assert result.search.batches == 6
        assert phases == ["search"] * 3 + ["final"]

    def test_unreadable_snapshot_is_advisory(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=str(journal_dir),
                                 subscribers=(_kill_after(1),)))
        (journal_dir / "snapshot.json").write_text("{truncated")
        state = JournalState.load(journal_dir)
        assert state.snapshot is None
        assert any("snapshot" in w for w in state.warnings)


class TestTornTailSealing:
    """A crash mid-append can leave the journal's (or cache's) final
    line without a newline.  The loader already skips it; the *writer*
    must also seal it before appending, or the resumed process's first
    append would be swallowed into the torn line and lost."""

    def test_resumed_journal_seals_the_tear_before_appending(
            self, funarc_baseline, tmp_path):
        journal_dir = tmp_path / "journal"
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=str(journal_dir),
                                 subscribers=(_kill_after(1),)))
        path = journal_dir / "journal.jsonl"
        with path.open("a") as fh:
            fh.write('{"type": "variant", "batch": 2, "rec')
        assert not path.read_bytes().endswith(b"\n")

        resumed = run_campaign(_funarc(),
                               _config(journal_dir=str(journal_dir),
                                       resume=True))
        _assert_resumed(resumed, funarc_baseline, 1)
        # The resumed writer's appends landed on their own lines: the
        # file parses back to one torn line and nothing else lost.
        lines = path.read_text().splitlines()
        torn = sum(1 for line in lines
                   if _is_unparseable(line))
        assert torn == 1
        state = JournalState.load(journal_dir)
        assert sum("torn journal line" in w
                   for w in state.load_warnings) == 1
        assert state.finished

    def test_cache_seals_the_tear_before_appending(self, tmp_path):
        from repro.core import Evaluator, ResultCache

        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        first = evaluator.evaluate_assigned(case.space.all_single(), 0)
        cache.put(first)
        with cache.path.open("a") as fh:
            fh.write('{"context": "torn by a killed wr')

        resumed = ResultCache.for_evaluator(tmp_path, evaluator)
        second = evaluator.evaluate_assigned(case.space.baseline(), 1)
        resumed.put(second)

        reread = ResultCache.for_evaluator(tmp_path, evaluator)
        assert reread.get(first.kinds, 0) is not None
        assert reread.get(second.kinds, 1) is not None
        assert sum("interrupted write" in w
                   for w in reread.load_warnings) == 1


def _is_unparseable(line: str) -> bool:
    try:
        json.loads(line)
        return False
    except json.JSONDecodeError:
        return True


class TestCorruptSnapshotResume:
    """Satellite: resume must shrug off every snapshot failure mode —
    the journal alone is the source of truth."""

    @pytest.mark.parametrize("damage", [
        "",                                  # zero-byte (torn replace)
        '{"phase": "sea',                    # half-written JSON
        "\x00\x89CHAOS\xffgarbage",          # corrupted bytes
    ], ids=["empty", "truncated", "garbage"])
    def test_resume_with_damaged_snapshot(self, funarc_baseline, tmp_path,
                                          damage):
        journal_dir = tmp_path / "journal"
        with pytest.raises(Boom):
            run_campaign(_funarc(),
                         _config(journal_dir=str(journal_dir),
                                 subscribers=(_kill_after(2),)))
        (journal_dir / "snapshot.json").write_text(damage)
        # A stray tmp from an atomic replace the crash interrupted.
        (journal_dir / "snapshot.json.tmp").write_text('{"phase": ')

        resumed = run_campaign(_funarc(),
                               _config(journal_dir=str(journal_dir),
                                       resume=True))
        _assert_resumed(resumed, funarc_baseline, 2)
        # The completed resume replaced the damaged snapshot atomically.
        final = json.loads((journal_dir / "snapshot.json").read_text())
        assert final["phase"] == "final"


#: Every attempt at variant 0 (a lone batch's only fresh variant)
#: crashes its worker.
_POISON_CRASH = FaultPlan(worker_faults=(WorkerFault(0, "crash",
                                                     once=False),))


class TestRetryBackoff:
    def test_exponential_backoff_between_retry_rounds(self, monkeypatch):
        monkeypatch.setattr(parallel, "BACKOFF_SECONDS", 0.05)
        monkeypatch.setattr(parallel, "BACKOFF_MAX_SECONDS", 0.08)
        case = FunarcCase(n=150)
        config = _config(workers=2, chaos=_POISON_CRASH)
        oracle = ParallelOracle.for_model(case, config=config)
        try:
            oracle.evaluate_batch([case.space.all_single()])
        finally:
            oracle.close()
        batch = oracle.telemetry[0]
        assert batch.retries == 2
        # Jitterless: round 1 waits base, round 2 waits min(2*base, cap).
        assert batch.backoff_seconds == pytest.approx(0.05 + 0.08)

    def test_backoff_disabled(self, monkeypatch):
        # The policy is read where it is used, so a patched constant
        # takes effect in the next batch.
        monkeypatch.setattr(parallel, "BACKOFF_SECONDS", 0.0)
        case = FunarcCase(n=150)
        config = _config(workers=2, chaos=_POISON_CRASH)
        oracle = ParallelOracle.for_model(case, config=config)
        try:
            oracle.evaluate_batch([case.space.all_single()])
        finally:
            oracle.close()
        assert oracle.telemetry[0].backoff_seconds == 0.0

    def test_clean_batches_never_back_off(self, funarc_baseline):
        # Deterministic outcomes (including classified failures) skip
        # the retry path entirely, so a healthy campaign sleeps 0s.
        assert sum(b.backoff_seconds
                   for b in funarc_baseline.oracle.telemetry) == 0.0

    def test_synthesized_failures_not_journaled(self, tmp_path,
                                                monkeypatch):
        # An irrecoverable worker failure is downgraded for *this*
        # allocation but never journaled: the resumed campaign gets a
        # fresh chance to evaluate the variant on healthy hardware.
        # One attempt, so the failure is transient, not a quarantine.
        monkeypatch.setattr(parallel, "TASK_RETRIES", 0)
        case = FunarcCase(n=150)
        config = _config(workers=2, chaos=_POISON_CRASH)
        oracle = ParallelOracle.for_model(case, config=config)
        header = journal_header(oracle.evaluator, case.space,
                                DeltaDebugSearch(), config)
        journal = CampaignJournal.create(str(tmp_path / "journal"), header)
        oracle.journal = journal
        try:
            (record,) = oracle.evaluate_batch([case.space.all_single()])
        finally:
            oracle.close()
            journal.close()
        assert record.outcome is Outcome.RUNTIME_ERROR

        state = JournalState.load(tmp_path / "journal")
        assert state.records == {}          # no synthesized variant record
        assert state.quarantined == {}
        assert state.completed_batches == 1  # but the batch is committed

    def test_pool_shut_down_on_interrupt(self):
        # Regression: a KeyboardInterrupt mid-batch must not leak worker
        # processes — the pool is killed on *any* exception path.
        case = FunarcCase(n=150)
        oracle = ParallelOracle.for_model(case, config=_config(workers=2))

        def interrupt_mid_batch(tasks, stats):
            oracle._ensure_pool()
            raise KeyboardInterrupt

        oracle._run_tasks = interrupt_mid_batch
        try:
            with pytest.raises(KeyboardInterrupt):
                oracle.evaluate_batch([case.space.all_single()])
            assert oracle._pool is None
        finally:
            oracle.close()


class TestCacheWarningDedup:
    """Satellite fix: re-reading the cache file on resume must not
    duplicate ``load_warnings`` for the same on-disk corrupt line."""

    def test_reload_does_not_duplicate_warnings(self, tmp_path):
        from repro.core import Evaluator, ResultCache

        case = _funarc()
        evaluator = Evaluator(case)
        cache = ResultCache.for_evaluator(tmp_path, evaluator)
        record = evaluator.evaluate_assigned(case.space.all_single(), 0)
        cache.put(record)
        with cache.path.open("a") as fh:
            fh.write('{"context": "torn by a killed writer')

        resumed = ResultCache.for_evaluator(tmp_path, evaluator)
        assert sum("interrupted write" in w
                   for w in resumed.load_warnings) == 1
        # A resume re-reads the same file (e.g. to pick up entries a
        # concurrent writer appended); the corrupt line is still there
        # but its warning must not be reported a second time.
        resumed._load()
        assert sum("interrupted write" in w
                   for w in resumed.load_warnings) == 1
        assert resumed.get(record.kinds, 0) is not None

    def test_resumed_campaign_reports_corrupt_line_once(self, tmp_path):
        config = _config(cache_dir=str(tmp_path / "cache"),
                         journal_dir=str(tmp_path / "journal"),
                         subscribers=(_kill_after(2),))
        with pytest.raises(Boom):
            run_campaign(_funarc(), config)
        # Corrupt the shared cache file between the crash and the resume.
        (cache_file,) = (tmp_path / "cache").glob("variants-*.jsonl")
        with cache_file.open("a") as fh:
            fh.write('{"context": "torn by the crashed writer')

        resumed = run_campaign(_funarc(), config.overriding(
            subscribers=(), resume=True))
        assert sum("interrupted write" in w
                   for w in resumed.cache_warnings) == 1
