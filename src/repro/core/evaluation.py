"""Dynamic variant evaluation (the paper's T2/T3 pipeline stages).

For every precision assignment suggested by the search, the evaluator

1. executes the model under the assignment (precision overlay by
   default; the source-transformation path is available and equivalence
   between the two is covered by tests),
2. prices the execution on the machine model to get hotspot / whole-model
   CPU seconds,
3. samples Eq.-1 timing noise and computes median-of-*n* speedup against
   the 64-bit baseline,
4. computes the model's correctness error against the baseline
   observable, and
5. classifies the outcome (pass / fail / timeout / runtime error).

The simulated wall-clock cost of the evaluation (transform + compile +
n runs) is also recorded so the campaign driver can enforce the 12-hour
job budget that terminated the paper's MOM6 search.

Step 1 is seed-free: :meth:`Evaluator.run` gives the model's artifacts,
or the classified op-cap or runtime failure, as a function of the
model, the assignment and the op cap alone.  Steps 2-5 are
:meth:`Evaluator.finalize`, the only step that reads the variant id,
the experiment seed, the noise or the timeout factor.  So a run can be
kept in a :class:`RunStore` and finalized again under another seed:
the campaign service shares one store across its jobs.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import (EvaluationError, FortranRuntimeError,
                      InterpreterLimitError)
from ..perf.costmodel import CostBreakdown, compute_cost
from ..perf.machine import DERECHO, MachineModel
from ..perf.noise import NoiseModel
from .assignment import PrecisionAssignment
from .classification import Outcome
from .metrics import speedup_eq1

__all__ = ["BACKENDS", "STAGES", "ProcPerf", "VariantRecord", "Evaluator",
           "RunFailure", "RunStore", "evaluation_context", "run_identity"]

#: Execution backends for the Fortran interpreter.  ``compiled`` lowers
#: each procedure once into Python closures (see
#: :mod:`repro.fortran.compile`); ``batched`` evaluates waves of at least
#: :data:`~repro.core.campaign.MIN_SWEEP_LANES` fresh variants in one
#: lockstep sweep with a leading lane axis (see
#: :mod:`repro.fortran.batch`), falling back per-lane to the compiled
#: scalar path on divergence, and runs narrower waves on the compiled
#: scalar path one variant at a time.  Both are bit-identical in
#: observables and ledger charges to each other and to the reference
#: tree walker (:class:`~repro.fortran.interpreter.Interpreter`) — the
#: differential fuzz suite and the golden-digest tests pin this — so the
#: backend deliberately does NOT appear in :func:`evaluation_context`:
#: caches and journals written under one backend replay under the other.
BACKENDS = ("compiled", "batched")

#: The per-variant pipeline stages charged against the simulated
#: budget, in the paper's T1→T3 order.  ``Evaluator.stage_timings``
#: decomposes a record's simulated cost over exactly these names; the
#: observability layer (events, spans, ``repro trace``) reports them.
STAGES = ("transform", "compile", "run")

# Hard interpreter cap relative to baseline op count; catches divergent
# iterative kernels that the wall-clock timeout would kill on Derecho.
_OP_CAP_FACTOR = 14.0

# Bumped whenever the serialized evaluation-context schema changes, so
# persisted artifacts (result cache files, campaign journals) from an
# older schema are never matched against a newer one.
_CONTEXT_FORMAT = 1


def evaluation_context(model, machine, noise, timeout_factor: float) -> str:
    """Canonical context string identifying one evaluation setup.

    Everything that can change a :class:`VariantRecord` for a given
    (assignment, variant-id) pair appears here: the model spec (registry
    name + constructor kwargs, which carry workload size and correctness
    threshold), the machine model, the timeout factor, and the noise
    parameters including the experiment seed.  The persistent result
    cache and the campaign journal both key their artifacts on this
    string, so results produced under one setup are never replayed into
    another.
    """
    name, kwargs = model.model_spec()
    return json.dumps({
        "format": _CONTEXT_FORMAT,
        "model": name,
        "model_kwargs": kwargs,
        "machine": machine.name,
        "timeout_factor": timeout_factor,
        "noise_rsd": noise.rsd,
        "seed": noise.base_seed,
        "n_runs": model.n_runs,
    }, sort_keys=True)


def run_identity(model) -> tuple:
    """What one model run depends on besides the assignment and the op cap.

    The case's class (its harness, ``_drive``), its spec (registry name
    and constructor kwargs, which carry the workload size) and the
    digest of its Fortran source.  Unlike :func:`evaluation_context` it
    holds no seed, noise, machine or timeout factor: those enter only
    :meth:`Evaluator.finalize`.
    """
    name, kwargs = model.model_spec()
    return (type(model), name, json.dumps(kwargs, sort_keys=True),
            hashlib.sha256(model.source.encode()).hexdigest())


@dataclass(frozen=True)
class RunFailure:
    """A model run the interpreter stopped: the op cap (classified
    ``TIMEOUT``) or a Fortran runtime error (``RUNTIME_ERROR``), with
    the exception's message as the record's note."""

    outcome: Outcome
    note: str


#: What :meth:`Evaluator.run` gives: the model's artifacts
#: (:class:`~repro.models.base.RunArtifacts`) or the classified failure.
RunOutcome = Union["RunArtifacts", RunFailure]


class RunStore:
    """Bounded, thread-safe FIFO of seed-free model runs.

    Keyed by :func:`run_identity`, the assignment's overlay and the op
    cap, so runs of two workload sizes, or of two cases sharing a
    registry name but not their source or class, never serve each
    other.  An :class:`Evaluator` consults a store only when its caller
    hands it one; the campaign service owns one for its lifetime
    (DESIGN.md §6).  Entries are shared, never copied: finalizing reads
    a run's ledger and observable and writes neither.
    """

    #: Runs kept before the oldest is evicted (like ``CodeCache``'s
    #: bound, a constant rather than a setting).
    MAXSIZE = 1024

    def __init__(self):
        self._entries: dict[tuple, RunOutcome] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[RunOutcome]:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple, run: RunOutcome) -> None:
        with self._lock:
            if key not in self._entries and \
                    len(self._entries) >= self.MAXSIZE:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = run

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class ProcPerf:
    """Per-procedure performance of one variant (Figure 6 data)."""

    calls: int
    seconds: float

    @property
    def seconds_per_call(self) -> float:
        return self.seconds / self.calls if self.calls else self.seconds


@dataclass
class VariantRecord:
    """One evaluated point in the design space."""

    variant_id: int
    kinds: tuple[int, ...]              # over the space's atom order
    fraction_lowered: float
    outcome: Outcome
    error: float = math.inf             # correctness metric (inf if n/a)
    speedup: Optional[float] = None     # Eq. 1, on the configured scope
    hotspot_seconds: Optional[float] = None
    total_seconds: Optional[float] = None
    convert_seconds: Optional[float] = None
    wrapped_calls: int = 0
    proc_perf: dict[str, ProcPerf] = field(default_factory=dict)
    eval_wall_seconds: float = 0.0      # simulated node time consumed
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.outcome is Outcome.PASS

    def accepted(self, min_speedup: float = 1.0) -> bool:
        """The search's acceptance test: correct AND faster."""
        return (self.outcome is Outcome.PASS
                and self.speedup is not None
                and self.speedup > min_speedup)


class Evaluator:
    """Evaluates variants of one model against its 64-bit baseline."""

    def __init__(
        self,
        model,                       # repro.models.base.ModelCase
        machine: MachineModel = DERECHO,
        timeout_factor: float = 3.0,
        noise: Optional[NoiseModel] = None,
        seed: int = 2024,
        backend: str = "compiled",
        runs: Optional[RunStore] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of {BACKENDS})")
        self.model = model
        self.machine = machine
        self.timeout_factor = timeout_factor
        self.noise = noise if noise is not None else NoiseModel(
            rsd=model.noise_rsd, base_seed=seed)
        self.n_runs = model.n_runs
        self.backend = backend
        self._cache: dict[tuple[int, ...], VariantRecord] = {}
        self._next_id = 0
        #: Seed-free runs shared with other evaluators (None: run each).
        self.runs = runs
        self._identity = run_identity(model) if runs is not None else None

        # --- baseline execution -------------------------------------------
        base = self._stored(None, None)
        if base is None:
            base = model.run(None)
            self._store(None, None, base)
        self.baseline_observable = base.observable
        self.baseline_cost = self._price(base.ledger)
        self.baseline_total = self.baseline_cost.total_seconds
        self.baseline_hotspot = self.baseline_cost.seconds_for(
            model.hotspot_procedures)
        if self.baseline_total <= 0:
            raise EvaluationError("baseline produced no measurable work")
        self.op_cap = int(base.ledger.total_ops * _OP_CAP_FACTOR) + 10_000
        self.baseline_ledger = base.ledger
        self.baseline_times = self.noise.sample_times(
            self._target_seconds(self.baseline_cost), "baseline", self.n_runs)

    @classmethod
    def for_config(cls, model, config,
                   runs: Optional[RunStore] = None) -> "Evaluator":
        """The evaluator a :class:`~repro.core.campaign.CampaignConfig`
        describes: its timeout factor, seed and backend."""
        return cls(model, timeout_factor=config.timeout_factor,
                   seed=config.seed, backend=config.backend, runs=runs)

    # ------------------------------------------------------------------

    def context(self) -> str:
        """The canonical evaluation-context string for this evaluator
        (see :func:`evaluation_context`)."""
        return evaluation_context(self.model, self.machine, self.noise,
                                  self.timeout_factor)

    def _price(self, ledger) -> CostBreakdown:
        return compute_cost(
            ledger, self.machine,
            inlinable=self.model.vec_info.inlinable,
            timed_procs=self.model.timed_procedures,
        )

    def _target_seconds(self, cost: CostBreakdown) -> float:
        """The quantity Eq. 1 is computed on, per the experiment's scope."""
        if self.model.perf_scope == "hotspot":
            return cost.seconds_for(self.model.hotspot_procedures)
        return cost.total_seconds

    def _eval_wall_seconds(self, relative_runtime: float) -> float:
        """Simulated node wall time to evaluate one variant: rebuild the
        model, then run it n times (capped by the timeout)."""
        runtime = self.model.nominal_runtime_seconds * min(
            max(relative_runtime, 0.05), self.timeout_factor)
        return self.model.compile_seconds + self.n_runs * runtime

    def stage_timings(self, record: "VariantRecord"
                      ) -> tuple[tuple[str, float], ...]:
        """Decompose a record's simulated cost over :data:`STAGES`.

        The per-variant rebuild charge (``ModelCase.compile_seconds``)
        covers the T1 source transformation and the T2 compile;
        ``ModelCase.transform_seconds`` names the transformation's
        share, and everything beyond the rebuild is T3 run time.  The
        parts sum exactly to ``record.eval_wall_seconds``, which is
        what lets per-batch stage charges reconcile with the campaign's
        budget ledger.  Records that cost nothing (cache hits, journal
        replays) decompose to the empty tuple.
        """
        total = record.eval_wall_seconds
        if total <= 0:
            return ()
        rebuild = min(self.model.compile_seconds, total)
        transform = min(getattr(self.model, "transform_seconds", 0.0),
                        rebuild)
        return (("transform", transform),
                ("compile", rebuild - transform),
                ("run", total - rebuild))

    # ------------------------------------------------------------------

    def evaluate(self, assignment: PrecisionAssignment) -> VariantRecord:
        """Evaluate one variant (cached by assignment identity)."""
        cached = self.lookup(assignment)
        if cached is not None:
            return cached
        record = self.evaluate_assigned(assignment, self.reserve_id())
        self.admit(record)
        return record

    def lookup(self, assignment: PrecisionAssignment
               ) -> Optional[VariantRecord]:
        """The in-memory cache entry for *assignment*, if any."""
        return self._cache.get(assignment.key())

    def reserve_id(self) -> int:
        """Claim the next variant id.  Ids are assigned in first-miss
        order, which keys the Eq.-1 noise sampling — oracles that obtain
        records out-of-band (worker pools, the persistent result cache)
        must reserve ids in the same order a serial evaluation would."""
        vid = self._next_id
        self._next_id += 1
        return vid

    def admit(self, record: VariantRecord) -> None:
        """Install an externally produced record (worker pool result or
        persistent-cache hit) under its assignment key."""
        self._cache[record.kinds] = record

    def failure_record(self, assignment: PrecisionAssignment, vid: int,
                       outcome: Outcome, note: str = "") -> VariantRecord:
        """A record with no measurement: a run the interpreter stopped,
        or a variant whose evaluation infrastructure failed (worker
        crash or hang)."""
        relative = (self.timeout_factor if outcome is Outcome.TIMEOUT
                    else 1.0)
        return VariantRecord(
            variant_id=vid, kinds=assignment.key(),
            fraction_lowered=assignment.fraction_lowered,
            outcome=outcome,
            eval_wall_seconds=self._eval_wall_seconds(relative),
            note=note,
        )

    def quarantine_record(self, assignment: PrecisionAssignment, vid: int,
                          outcome: Outcome, attempts: int,
                          reason: str) -> VariantRecord:
        """A permanent typed failure for a poison variant: one that
        failed the *same* way on every attempt, so retrying it further
        (or ever again on resume) is pointless.  Identical cost model
        to :meth:`failure_record`; the note marks it as quarantined so
        the provenance survives in result JSON and the journal."""
        return self.failure_record(
            assignment, vid, outcome,
            note=(f"{reason} ({attempts} attempts); quarantined as "
                  f"deterministic poison variant"))

    def evaluate_assigned(self, assignment: PrecisionAssignment,
                          vid: int) -> VariantRecord:
        """Evaluate under a pre-reserved variant id, bypassing caches: the
        model runs (and its run is stored, if the evaluator has a store).
        Deterministic given (assignment, vid) and the construction
        parameters (model spec, machine, noise, timeout factor)."""
        return self.finalize(assignment, vid, self.run(assignment))

    def evaluate_assigned_batch(
        self, tasks: list[tuple[PrecisionAssignment, int]]
    ) -> tuple[list[VariantRecord], "BatchStats"]:
        """Evaluate a wave of (assignment, vid) pairs in one sweep.

        The whole wave executes in a single
        :class:`~repro.fortran.batch.VariantBatch` — per-variant kind
        overlays become per-lane dtype masks, and lanes whose control
        flow the lockstep engine cannot keep converged fall back
        individually to the compiled scalar path.  Every record is
        bit-identical to what :meth:`evaluate_assigned` produces for
        the same pair (the three-way differential fuzzer and the golden
        digests gate this).  Returns the records in task order together
        with the sweep's :class:`~repro.fortran.batch.BatchStats`.

        Whether a wave is worth sweeping is the oracle's decision
        (:data:`~repro.core.campaign.MIN_SWEEP_LANES`); this method
        sweeps whatever it is given, a single task included.
        """
        from ..fortran.batch import VariantBatch
        overlays = [a.overlay() for a, _ in tasks]
        batch = VariantBatch(self.model.index, overlays,
                             vec_info=self.model.vec_info,
                             max_ops=self.op_cap)
        records = []
        for lane, (assignment, vid) in enumerate(tasks):
            view = batch.lane(lane)
            run = self.run(
                assignment,
                lambda index, overlay=None, vec_info=None, max_ops=None,
                view=view: view)
            records.append(self.finalize(assignment, vid, run))
        return records, batch.stats()

    # -- run (seed-free) and finalize (seed-keyed) ----------------------

    def _stored(self, assignment: Optional[PrecisionAssignment],
                max_ops: Optional[int]) -> Optional[RunOutcome]:
        if self.runs is None:
            return None
        return self.runs.get(self._run_key(assignment, max_ops))

    def _store(self, assignment: Optional[PrecisionAssignment],
               max_ops: Optional[int], run: RunOutcome) -> None:
        if self.runs is not None:
            self.runs.put(self._run_key(assignment, max_ops), run)

    def _run_key(self, assignment: Optional[PrecisionAssignment],
                 max_ops: Optional[int]) -> tuple:
        overlay = assignment.overlay() if assignment is not None else {}
        return (self._identity, tuple(sorted(overlay.items())), max_ops)

    def stored_run(self, assignment: PrecisionAssignment
                   ) -> Optional[RunOutcome]:
        """The store's run of *assignment* under this evaluator's op
        cap, or None (no store, or not stored)."""
        return self._stored(assignment, self.op_cap)

    def run(self, assignment: PrecisionAssignment,
            interpreter_factory=None) -> RunOutcome:
        """Execute the model under *assignment* within the op cap: the
        seed-free step.  Gives the run's artifacts, or a
        :class:`RunFailure` for an interpreter stopped by the op cap or
        by a Fortran runtime error, and keeps it in the store, if any.
        *interpreter_factory* is :meth:`ModelCase.run`'s."""
        try:
            run = self.model.run(assignment, max_ops=self.op_cap,
                                 interpreter_factory=interpreter_factory)
        except InterpreterLimitError as exc:
            run = RunFailure(Outcome.TIMEOUT, str(exc))
        except FortranRuntimeError as exc:
            run = RunFailure(Outcome.RUNTIME_ERROR, str(exc))
        self._store(assignment, self.op_cap, run)
        return run

    def finalize(self, assignment: PrecisionAssignment, vid: int,
                 run: RunOutcome) -> VariantRecord:
        """The record of *run* under variant id *vid*: the seed-keyed
        step, and the only one that reads the id, the noise (whose seed
        is the experiment's) or the timeout factor."""
        if isinstance(run, RunFailure):
            return self.failure_record(assignment, vid, run.outcome,
                                       run.note)
        return self._record_from_artifacts(assignment, vid, run)

    def _record_from_artifacts(self, assignment: PrecisionAssignment,
                               vid: int, run) -> VariantRecord:
        frac = assignment.fraction_lowered
        cost = self._price(run.ledger)
        total = cost.total_seconds
        relative = total / self.baseline_total

        # Sorted: hotspot_procedures is a set, and set iteration order is
        # hash-randomized per process — worker and parent must serialize
        # the record identically.
        proc_perf = {
            proc: ProcPerf(calls=cost.proc_calls.get(proc, 0),
                           seconds=cost.proc_seconds.get(proc, 0.0))
            for proc in sorted(self.model.hotspot_procedures)
        }
        wrapped = sum(v[1] for v in run.ledger.calls.values())

        if relative > self.timeout_factor:
            return VariantRecord(
                variant_id=vid, kinds=assignment.key(),
                fraction_lowered=frac, outcome=Outcome.TIMEOUT,
                hotspot_seconds=cost.seconds_for(
                    self.model.hotspot_procedures),
                total_seconds=total, convert_seconds=cost.convert_seconds,
                wrapped_calls=wrapped, proc_perf=proc_perf,
                eval_wall_seconds=self._eval_wall_seconds(
                    self.timeout_factor),
                note=f"runtime {relative:.2f}x baseline",
            )

        error = self.model.correctness_error(self.baseline_observable,
                                             run.observable)
        variant_times = self.noise.sample_times(
            self._target_seconds(cost), vid, self.n_runs)
        speedup = speedup_eq1(self.baseline_times, variant_times)
        outcome = (Outcome.PASS if error <= self.model.error_threshold
                   else Outcome.FAIL)

        return VariantRecord(
            variant_id=vid, kinds=assignment.key(), fraction_lowered=frac,
            outcome=outcome, error=error, speedup=speedup,
            hotspot_seconds=cost.seconds_for(self.model.hotspot_procedures),
            total_seconds=total, convert_seconds=cost.convert_seconds,
            wrapped_calls=wrapped, proc_perf=proc_perf,
            eval_wall_seconds=self._eval_wall_seconds(relative),
        )

    # ------------------------------------------------------------------

    def records(self) -> list[VariantRecord]:
        return sorted(self._cache.values(), key=lambda r: r.variant_id)
