"""Worker fault tolerance: crashes, hangs, retries, and downgrades.

Faults are injected with chaos worker faults
(``CampaignConfig(chaos=FaultPlan(worker_faults=...))``): monkeypatching
cannot cross the process boundary, so the fault travels with the
worker spec.  An irrecoverable infrastructure failure must downgrade
the variant — ``RUNTIME_ERROR`` for a crash, ``TIMEOUT`` for a hang —
never kill the campaign, and never pollute the persistent cache.  The
downgrade tests give a variant one attempt (``TASK_RETRIES`` 0): they
pin the transient downgrade, while a failure repeated the same way on
every attempt quarantines the variant (tests/test_chaos_matrix.py).
The pool's policy is module constants of :mod:`repro.core.parallel`,
patched here where a test needs a short timeout or fewer attempts.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan, WorkerFault
from repro.core import (CampaignConfig, Evaluator, Outcome, ParallelOracle,
                        ResultCache, parallel)
from repro.core.results import record_to_dict
from repro.models import FunarcCase


def _faults(*faults) -> FaultPlan:
    """A plan of ``(variant_id, mode, once)`` worker faults."""
    return FaultPlan(worker_faults=tuple(WorkerFault(*f) for f in faults))


def _make_oracle(plan, cache=None):
    case = FunarcCase(n=150)
    config = CampaignConfig(nodes=20, wall_budget_seconds=12 * 3600,
                            workers=2, chaos=plan)
    oracle = ParallelOracle.for_model(case, config=config, cache=cache)
    return case, oracle


def test_worker_crash_downgrades_batch(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "TASK_RETRIES", 0)
    cache = ResultCache(tmp_path, "fault-test-context")
    case, oracle = _make_oracle(
        _faults((0, "crash", False), (1, "crash", False)), cache=cache)
    try:
        records = oracle.evaluate_batch([case.space.baseline(),
                                         case.space.all_single()])
    finally:
        oracle.close()

    assert len(records) == 2
    assert all(r.outcome is Outcome.RUNTIME_ERROR for r in records)
    assert all(r.note == "worker process crashed (1 attempts)"
               for r in records)

    batch = oracle.telemetry[0]
    assert batch.dispatched == 2
    assert batch.completed == 0
    assert batch.failures == 2
    # One attempt each: nothing retried, nothing quarantined.
    assert batch.retries == 0
    assert batch.quarantined == 0
    # Synthesized failure records never reach the persistent cache.
    assert len(cache) == 0
    assert len(ResultCache(tmp_path, "fault-test-context")) == 0


def test_worker_hang_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "TASK_RETRIES", 0)
    monkeypatch.setattr(parallel, "TASK_TIMEOUT_SECONDS", 1.5)
    case, oracle = _make_oracle(_faults((0, "hang", False)))
    try:
        records = oracle.evaluate_batch([case.space.all_single()])
    finally:
        oracle.close()

    (record,) = records
    assert record.outcome is Outcome.TIMEOUT
    assert "hard per-variant timeout" in record.note
    batch = oracle.telemetry[0]
    assert batch.retries == 0 and batch.failures == 1
    assert batch.quarantined == 0


def test_worker_exception_downgrades(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "TASK_RETRIES", 0)
    case, oracle = _make_oracle(_faults((0, "raise", False)))
    try:
        records = oracle.evaluate_batch([case.space.all_single()])
    finally:
        oracle.close()

    (record,) = records
    assert record.outcome is Outcome.RUNTIME_ERROR
    assert record.note == ("worker raised RuntimeError: chaos fault armed "
                           "for variant 0 (1 attempts)")
    batch = oracle.telemetry[0]
    assert batch.retries == 0 and batch.failures == 1
    assert batch.quarantined == 0


def test_transient_crash_recovers_bit_identically(tmp_path):
    case, oracle = _make_oracle(_faults((0, "crash", True)))
    assignment = case.space.all_single()
    try:
        records = oracle.evaluate_batch([assignment])
    finally:
        oracle.close()

    (record,) = records
    batch = oracle.telemetry[0]
    assert batch.retries == 1
    assert batch.failures == 0
    assert batch.completed == 1

    # The retried evaluation is indistinguishable from a serial one:
    # same variant id, same noise draws, same record bytes.
    serial = Evaluator(FunarcCase(n=150),
                       timeout_factor=oracle.config.timeout_factor)
    expected = serial.evaluate_assigned(assignment, 0)
    assert record_to_dict(record) == record_to_dict(expected)


def test_campaign_survives_transient_crash(tmp_path):
    # End to end: a one-shot crash mid-search must not change the
    # trajectory (the retry recomputes the identical record).
    from repro.core import DeltaDebugSearch, run_campaign

    def _case():
        return FunarcCase(n=150, error_threshold=4.5e-8)

    serial = run_campaign(
        _case(), CampaignConfig(nodes=20, wall_budget_seconds=12 * 3600))

    config = CampaignConfig(nodes=20, wall_budget_seconds=12 * 3600,
                            workers=2, chaos=_faults((0, "crash", True)))
    faulty = ParallelOracle.for_model(_case(), config=config)
    try:
        search = DeltaDebugSearch(min_speedup=config.min_speedup).run(
            faulty.evaluator.model.space, faulty)
    finally:
        faulty.close()

    serial_records = [record_to_dict(r) for r in serial.records]
    faulty_records = [record_to_dict(r) for r in search.records]
    assert faulty_records == serial_records
    assert sum(b.retries for b in faulty.telemetry) == 1
    assert sum(b.failures for b in faulty.telemetry) == 0


def _swept_wave_campaign(backend, fault):
    """A funarc RandomSearch wave of 16 fresh variants on two workers
    (under ``batched``, wide enough to sweep on the pool), with one
    worker fault."""
    from repro.core import RandomSearch, run_campaign

    config = CampaignConfig(nodes=20, wall_budget_seconds=12 * 3600,
                            workers=2, backend=backend,
                            chaos=_faults(fault))
    return run_campaign(FunarcCase(n=150), config,
                        algorithm=RandomSearch(samples=16, batch_size=16,
                                               seed=5))


class TestSweptWaveFaults:
    """A fault in a pool-swept wave fails the whole sweep: it counts one
    retry, and the wave then runs one variant per task from attempt 0,
    with per-variant retries and quarantine as under ``compiled``."""

    # Each fault sits on the wave's first variant.  When a crash takes
    # the pool down, the per-variant path charges the failure to the
    # future the parent is waiting on, and it waits in task order; a
    # poison further into the wave can get an innocent neighbour
    # charged and quarantined with it, depending on timing, under
    # either backend.
    @pytest.mark.parametrize("fault,timeout_seconds", [
        ((0, "crash", True), 15.0),
        ((0, "crash", False), 15.0),
        ((0, "raise", True), 15.0),
        ((0, "hang", True), 2.0),
    ], ids=["crash-once", "crash-poison", "raise-once", "hang-once"])
    def test_same_bytes_as_the_compiled_pool(self, fault, timeout_seconds,
                                             monkeypatch):
        monkeypatch.setattr(parallel, "TASK_TIMEOUT_SECONDS", timeout_seconds)
        compiled = _swept_wave_campaign("compiled", fault)
        batched = _swept_wave_campaign("batched", fault)
        assert batched.to_json() == compiled.to_json()

        (wave,) = batched.oracle.telemetry
        (reference,) = compiled.oracle.telemetry
        assert wave.dispatched == 16
        # The sweep never finished: every variant ran per task.
        assert wave.vector_lanes == wave.fallback_lanes == 0
        assert (wave.failures, wave.quarantined) == (
            reference.failures, reference.quarantined)

        if fault[2]:
            # The failed sweep spent the one-shot fault, so its retry is
            # the wave's only one, as the variant's own is under compiled.
            assert wave.retries == reference.retries == 1
            assert wave.failures == 0
            return
        # The poison is quarantined after all three attempts, as under
        # compiled, and the failed sweep adds one retry.
        assert wave.retries == reference.retries + 1
        record = batched.records[fault[0]]
        assert wave.quarantined == 1
        assert record.outcome is Outcome.RUNTIME_ERROR
        assert record.note.startswith("worker process crashed (3 attempts); "
                                      "quarantined")
