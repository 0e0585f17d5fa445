"""Bench: crash/resume overhead of the write-ahead campaign journal.

Two claims worth numbers (see ``repro.core.journal``):

* journaling a campaign costs little — the fsync-per-append overhead
  stays a small multiple of the unjournaled wall-clock;
* resuming replays completed work at ~0 cost — a resume after a
  late-campaign kill dispatches only the batches the dead process
  never committed, which is the whole point of surviving PBS budget
  expiry.
"""

from __future__ import annotations

import time

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.models import FunarcCase
from repro.obs import BatchCompleted, subscribes_to


def _case():
    # The multi-batch delta-debug trajectory from the determinism suite:
    # 27 evaluations over 6 batches.
    return FunarcCase(n=150, error_threshold=4.5e-8)


def _config() -> CampaignConfig:
    return CampaignConfig(nodes=20, wall_budget_seconds=12 * 3600)


class _KilledAfter(Exception):
    pass


def test_resume_replays_for_free(tmp_path):
    started = time.perf_counter()
    baseline = run_campaign(_case(), _config())
    base_wall = time.perf_counter() - started
    batches = len(baseline.oracle.telemetry)
    assert batches >= 3

    # Journaled run: same bytes, bounded fsync overhead.
    journal_dir = str(tmp_path / "journal")
    started = time.perf_counter()
    journaled = run_campaign(_case(),
                             _config().overriding(journal_dir=journal_dir))
    journaled_wall = time.perf_counter() - started
    assert journaled.to_json() == baseline.to_json()
    assert journaled_wall < 5 * base_wall + 1.0

    # Kill a campaign after its penultimate batch, then resume: the
    # replay dispatches only the final batch's fresh work.
    kill_after = batches - 2
    crash_dir = str(tmp_path / "crash-journal")

    @subscribes_to(BatchCompleted)
    def die_late(ev):
        if ev.telemetry.batch_index >= kill_after:
            raise _KilledAfter(str(ev.telemetry.batch_index))

    with pytest.raises(_KilledAfter):
        run_campaign(_case(),
                     _config().overriding(journal_dir=crash_dir,
                                          subscribers=(die_late,)))

    started = time.perf_counter()
    resumed = run_campaign(_case(),
                           _config().overriding(journal_dir=crash_dir,
                                                resume=True))
    resume_wall = time.perf_counter() - started

    assert resumed.to_json() == baseline.to_json()
    assert resumed.resumed_from_batch == kill_after + 1
    telemetry = resumed.oracle.telemetry
    replayed = [b for b in telemetry if b.batch_index <= kill_after]
    assert sum(b.sim_seconds for b in replayed) == 0.0
    assert sum(b.dispatched for b in replayed) == 0
    # Fresh work is exactly what the dead allocation never committed.
    expected = sum(b.dispatched for b in baseline.oracle.telemetry
                   if b.batch_index > kill_after)
    assert sum(b.dispatched for b in telemetry) == expected
    # Replay is cheap in real time too: most of the campaign is skipped.
    assert resume_wall < base_wall

    print(f"\nuninterrupted: {base_wall:.2f}s  "
          f"journaled: {journaled_wall:.2f}s  "
          f"resume (final batch only): {resume_wall:.2f}s  "
          f"[{batches} batches, kill after {kill_after}]")
