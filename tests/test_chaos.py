"""Unit coverage for the chaos engine and the hardening it gates.

The campaign-level guarantees (SIGKILL at every crash point resumes
byte-identically) live in ``tests/test_chaos_matrix.py``; this file
pins the building blocks: the fault-plan schema, the crash-point
registry, the engine's deterministic accounting, the shared atomic
write/append helpers, the advisory-vs-fatal split between state files,
the retry circuit breaker, the pool watchdog, and the ``repro chaos`` /
``repro doctor`` CLI surfaces.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.chaos import (CRASH_POINTS, ChaosEngine, FaultPlan, IOFault,
                         KillAt, WorkerFault, registered_crash_points)
from repro.chaos import hooks
from repro.chaos.doctor import diagnose
from repro.core import CampaignConfig, make_oracle, run_campaign
from repro.core.ioutil import append_line, atomic_write, seal_torn_tail
from repro.errors import JournalError
from repro.models import FunarcCase
from repro.obs import CircuitBreakerOpen, EventBus, FaultInjected

_CASE_KW = dict(n=150, error_threshold=4.5e-8)


def _funarc():
    return FunarcCase(**_CASE_KW)


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


# ---------------------------------------------------------------------------
# FaultPlan


class TestFaultPlan:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            kills=(KillAt("journal.variant", hit=3),),
            worker_faults=(WorkerFault(variant_id=7, mode="raise"),),
            io_faults=(IOFault(target="cache", mode="enospc", index=2),))
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.digest() == plan.digest()
        assert not plan.empty
        assert not plan.has_poison()
        assert "journal.variant" in plan.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            KillAt("no.such.point")
        with pytest.raises(ValueError):
            KillAt("journal.variant", hit=0)
        with pytest.raises(ValueError):
            WorkerFault(variant_id=1, mode="segfault")
        with pytest.raises(ValueError):
            IOFault(target="journal", mode="sharknado")
        with pytest.raises(ValueError):
            IOFault(target="floppy", mode="enospc")

    def test_empty_and_poison(self):
        assert FaultPlan().empty
        poison = FaultPlan(worker_faults=(
            WorkerFault(variant_id=1, mode="crash", once=False),))
        assert poison.has_poison()

    def test_random_plans_differ_across_seeds(self):
        plans = {FaultPlan.random(seed).digest() for seed in range(8)}
        assert len(plans) > 1


# ---------------------------------------------------------------------------
# Crash-point registry + engine


class TestRegistry:
    def test_every_point_is_documented(self):
        assert registered_crash_points() == tuple(sorted(CRASH_POINTS))
        for name, description in CRASH_POINTS.items():
            assert description, f"{name} has no description"

    def test_crash_point_is_noop_without_engine(self):
        assert hooks.active_engine() is None
        hooks.crash_point("journal.variant")     # must not raise

    def test_install_uninstall(self):
        engine = ChaosEngine(FaultPlan())
        with engine.installed():
            assert hooks.active_engine() is engine
        assert hooks.active_engine() is None


class TestEngine:
    def test_io_action_fires_at_the_nth_write(self):
        plan = FaultPlan(io_faults=(
            IOFault(target="cache", mode="enospc", index=2),))
        engine = ChaosEngine(plan)
        assert engine.io_action("cache") is None         # write #1
        assert engine.io_action("cache") == "enospc"     # write #2
        assert engine.io_action("cache") is None         # write #3
        assert engine.io_action("journal") is None       # other target
        assert engine.injected["io:cache:enospc"] == 1

    def test_worker_fault_noted_once_per_variant(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, (FaultInjected,))
        engine = ChaosEngine(FaultPlan(), bus=bus)
        engine.note_worker_fault(4, "crash", once=True)
        engine.note_worker_fault(4, "crash", once=True)
        assert len(seen) == 1
        assert seen[0].kind == "worker"
        assert seen[0].site == "variant:4"

    def test_summary_shape(self):
        plan = FaultPlan(seed=9, io_faults=(
            IOFault(target="trace", mode="fsync_error", index=1),))
        engine = ChaosEngine(plan)
        engine.io_action("trace")
        summary = engine.summary()
        assert summary["plan"] == plan.digest()
        assert summary["seed"] == 9
        assert summary["faults_injected"] == 1
        assert summary["injections"] == {"io:trace:fsync_error": 1}

    def test_kill_delivers_sigkill(self):
        def victim():                      # pragma: no cover - forked
            plan = FaultPlan(kills=(KillAt("cache.put", hit=2),))
            with ChaosEngine(plan).installed():
                hooks.crash_point("cache.put")
                hooks.crash_point("cache.put")
            os._exit(0)                    # unreachable: hit 2 kills us

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=victim)
        proc.start()
        proc.join(30)
        assert proc.exitcode == -signal.SIGKILL


# ---------------------------------------------------------------------------
# ioutil


class TestAtomicWrite:
    def test_plain_write_leaves_no_droppings(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write(target, '{"ok": true}')
        assert target.read_text() == '{"ok": true}'
        assert list(tmp_path.glob("*.tmp")) == []

    def test_enospc_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_text("old")
        plan = FaultPlan(io_faults=(
            IOFault(target="snapshot", mode="enospc", index=1),))
        with ChaosEngine(plan).installed():
            with pytest.raises(OSError) as exc:
                atomic_write(target, "new", kind="snapshot")
        assert exc.value.errno == errno.ENOSPC
        assert target.read_text() == "old"

    def test_fsync_error_leaves_stray_tmp_not_corruption(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_text("old")
        plan = FaultPlan(io_faults=(
            IOFault(target="snapshot", mode="fsync_error", index=1),))
        with ChaosEngine(plan).installed():
            with pytest.raises(OSError):
                atomic_write(target, "new", kind="snapshot")
        assert target.read_text() == "old"
        assert len(list(tmp_path.glob("*.tmp"))) == 1

    def test_corrupt_replaces_payload(self, tmp_path):
        target = tmp_path / "state.json"
        plan = FaultPlan(io_faults=(
            IOFault(target="snapshot", mode="corrupt", index=1),))
        with ChaosEngine(plan).installed():
            atomic_write(target, '{"ok": true}', kind="snapshot")
        with pytest.raises(json.JSONDecodeError):
            json.loads(target.read_text(errors="replace"))


class TestAppendAndSeal:
    def test_append_line_terminates_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with path.open("a") as fh:
            append_line(fh, '{"a": 1}')
            append_line(fh, '{"b": 2}')
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_seal_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2')       # torn mid-append
        assert seal_torn_tail(path) is True
        assert path.read_text().endswith("\n")
        assert seal_torn_tail(path) is False       # already sealed
        assert seal_torn_tail(tmp_path / "missing") is False
        # The sealed tear parses as exactly one bad line; later appends
        # are not swallowed into it.
        with path.open("a") as fh:
            append_line(fh, '{"c": 3}')
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1]) == {"c": 3}


# ---------------------------------------------------------------------------
# Advisory vs fatal state files, end to end


class TestStateFileSeverity:
    def test_cache_enospc_degrades_not_fails(self, tmp_path):
        clean = run_campaign(_funarc(), _config())
        plan = FaultPlan(io_faults=(
            IOFault(target="cache", mode="enospc", index=1),))
        result = run_campaign(
            _funarc(), _config(chaos=plan,
                               cache_dir=str(tmp_path / "cache")))
        assert result.to_json() == clean.to_json()
        assert any("cache append failed" in w
                   for w in result.cache_warnings)

    def test_journal_enospc_is_fatal(self, tmp_path):
        # Past the header (append #1): refuse to run un-journaled
        # rather than silently lose the resume guarantee.
        plan = FaultPlan(io_faults=(
            IOFault(target="journal", mode="enospc", index=3),))
        with pytest.raises(JournalError, match="free disk space"):
            run_campaign(
                _funarc(),
                _config(chaos=plan,
                        journal_dir=str(tmp_path / "journal")))

    def test_trace_fsync_error_degrades_not_fails(self, tmp_path):
        clean = run_campaign(_funarc(), _config())
        plan = FaultPlan(io_faults=(
            IOFault(target="trace", mode="fsync_error", index=2),))
        result = run_campaign(
            _funarc(), _config(chaos=plan,
                               trace_dir=str(tmp_path / "trace")))
        assert result.to_json() == clean.to_json()

    def test_metrics_enospc_degrades_not_fails(self, tmp_path):
        plan = FaultPlan(io_faults=(
            IOFault(target="metrics", mode="enospc", index=1),))
        result = run_campaign(
            _funarc(), _config(chaos=plan,
                               trace_dir=str(tmp_path / "trace")))
        assert result.search.finished
        assert not (tmp_path / "trace" / "metrics.prom").exists()


# ---------------------------------------------------------------------------
# Circuit breaker + pool watchdog + marker hygiene


class _AlwaysBrokenPool:
    def submit(self, *a, **kw):
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool("synthetic: every submit fails")


class TestCircuitBreaker:
    def test_opens_after_consecutive_dead_rounds(self):
        case = _funarc()
        oracle = make_oracle(case, _config(workers=2))
        oracle._ensure_pool = lambda: _AlwaysBrokenPool()
        opened = []
        oracle.bus = EventBus()
        oracle.bus.subscribe(opened.append, (CircuitBreakerOpen,))
        try:
            records = oracle.evaluate_batch(
                [case.space.baseline(), case.space.all_single()])
        finally:
            oracle.close()
        # Every submit fails before anything is attempted, so no
        # round backs off: the breaker opens after its five dead rounds.
        assert len(opened) == 1
        assert opened[0].pool_failures == 5
        assert opened[0].pending == 2
        assert all("circuit breaker open" in (r.note or "")
                   for r in records)
        # Downgrades are synthesized: never cached, so a later campaign
        # re-attempts them once the infrastructure recovers.
        assert oracle.telemetry[-1].failures == 2


class TestPoolWatchdog:
    def test_reap_escalates_past_sigterm_immune_workers(self):
        def stubborn():                    # pragma: no cover - forked
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(120)

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=stubborn)
        proc.start()
        time.sleep(0.2)                    # let it install the handler
        from repro.core.parallel import ParallelOracle

        start = time.monotonic()
        ParallelOracle._reap([proc], grace=0.2)
        elapsed = time.monotonic() - start
        assert not proc.is_alive()
        assert elapsed < 10.0

    def test_close_cleans_up_fault_markers(self):
        plan = FaultPlan(worker_faults=(
            WorkerFault(variant_id=2, mode="crash", once=True),))
        oracle = make_oracle(_funarc(), _config(workers=2, chaos=plan))
        marker_dir = oracle._marker_dir
        assert marker_dir and os.path.isdir(marker_dir)
        oracle.close()
        assert not os.path.exists(marker_dir)
        assert oracle._marker_dir is None


# ---------------------------------------------------------------------------
# Doctor


class TestDoctor:
    def test_healthy_campaign_directory(self, tmp_path):
        run_campaign(_funarc(),
                     _config(journal_dir=str(tmp_path / "journal"),
                             cache_dir=str(tmp_path / "cache"),
                             trace_dir=str(tmp_path / "trace")))
        report = diagnose(tmp_path / "journal",
                          cache_dir=tmp_path / "cache",
                          trace_dir=tmp_path / "trace")
        assert report.healthy
        assert not report.warnings
        assert any("committed" in line for line in report.info)
        assert any("trace.jsonl: 1 session(s)" in line
                   for line in report.info)
        assert "resumable" in report.render()

    def test_missing_journal_is_an_error(self, tmp_path):
        report = diagnose(tmp_path / "nope")
        assert not report.healthy

    def test_crash_artifacts_are_warnings_not_errors(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_campaign(_funarc(), _config(journal_dir=str(journal_dir)))
        # Simulate the classic post-kill -9 landscape: a torn trailing
        # append, a half-written snapshot, and a stray atomic-write tmp.
        with (journal_dir / "journal.jsonl").open("a") as fh:
            fh.write('{"type": "variant", "batch": 9, "rec')
        (journal_dir / "snapshot.json").write_text('{"phase": "sea')
        (journal_dir / "snapshot.json.tmp").write_text("{}")
        report = diagnose(journal_dir)
        assert report.healthy
        rendered = report.render()
        assert "torn" in rendered
        assert "snapshot.json" in rendered
        assert "safe to delete" in rendered

    def test_empty_journal_killed_before_header(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / "journal.jsonl").touch()
        report = diagnose(journal_dir)
        assert report.healthy
        assert any("empty journal" in w for w in report.warnings)

    def test_write_ahead_violation_is_an_error(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        lines = [{"type": "header", "format": 1, "context": "x",
                  "space": {}, "algorithm": {}, "config": {}},
                 {"type": "batch_done", "batch": 0}]
        (journal_dir / "journal.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in lines))
        report = diagnose(journal_dir)
        assert not report.healthy
        assert any("write-ahead order" in e for e in report.errors)


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_list_points(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--list-points"]) == 0
        out = capsys.readouterr().out
        for name in registered_crash_points():
            assert name in out

    def test_chaos_point_verify_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["chaos", "funarc",
                     "--point", "campaign.batch_committed:2",
                     "--journal-dir", str(tmp_path / "journal"),
                     "--verify", "--max-evals", "80"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SIGKILL delivered" in out
        assert "byte-identical" in out

    def test_chaos_rejects_conflicting_plan_sources(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["chaos", "funarc", "--seed", "3",
                  "--point", "journal.variant"])

    def test_doctor_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        run_campaign(_funarc(),
                     _config(journal_dir=str(tmp_path / "journal")))
        assert main(["doctor", str(tmp_path / "journal")]) == 0
        capsys.readouterr()
        assert main(["doctor", str(tmp_path / "empty")]) == 1
        assert "ERROR" in capsys.readouterr().out
