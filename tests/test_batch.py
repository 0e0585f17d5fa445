"""Property tests for the variant-batched backend (repro.fortran.batch).

The lockstep engine's contract is simple: every lane of a
:class:`VariantBatch` is **bit-identical** — observable bytes, stdout,
ledger fingerprint, raised errors — to a scalar compiled run of the
same precision overlay, no matter how the wave is shaped.  These tests
pin the three shape properties the campaign integration relies on:

* batch-of-one: a width-1 wave is the compiled backend, bit for bit;
* wave invariance: permuting lanes or re-chunking one wave into
  several must not move a single bit of any lane's artifacts (the
  oracle chunks waves by search-algorithm batch size, and resume can
  re-chunk differently than the original run);
* the fallback valve: lanes the engine sends to the scalar path (here:
  a NaN store, whose scalar/array bit semantics NumPy does not keep
  consistent) are byte-identical to a pure compiled run, and lanes
  that stay vectorized are unaffected by their fallen-back neighbours.

The oracle-level tests pin the executor choice: a batched wave sweeps
only when it has at least ``MIN_SWEEP_LANES`` fresh lanes and otherwise
runs on the compiled scalar path, with the same campaign bytes and with
lane telemetry and trace spans that say which executor ran.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import CampaignConfig, CampaignInterrupted, run_campaign
from repro.core.assignment import PrecisionAssignment
from repro.core.campaign import (MIN_SWEEP_LANES, BudgetedOracle,
                                 InterruptFlag)
from repro.core.evaluation import Evaluator
from repro.fortran import (CompiledInterpreter, OutBox, VariantBatch,
                           analyze, analyze_program, parse_source)
from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE
from repro.models import FunarcCase
from repro.models.base import ModelCase
from repro.obs.tracing import Tracer, load_trace
from repro.perf import ledger_fingerprint


def _artifacts(interp):
    """Full artifact set of one driver() run, bitwise-comparable."""
    box = OutBox(None)
    error = None
    try:
        interp.call("driver", [box])
    except Exception as exc:  # noqa: BLE001 - errors must match too
        error = (type(exc).__name__, str(exc))
    value = box.value
    observable = (value.tobytes(), str(value.dtype)) \
        if hasattr(value, "tobytes") else repr(value)
    return {
        "observable": observable,
        "stdout": tuple(interp.stdout),
        "ledger": ledger_fingerprint(interp.ledger),
        "error": error,
    }


_SOURCE = """\
module pb
  implicit none
  real(kind=8) :: acc
contains
  function step(x, y) result(r)
    implicit none
    real(kind=8) :: x
    real(kind=4) :: y
    real(kind=8) :: r
    r = x * 1.000001d0 + sin(y) * 0.125d0
    acc = acc + r * 1.0d-3
  end function step

  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t
    real(kind=4) :: s
    acc = 0.25d0
    t = 1.5d0
    s = 0.5
    do i = 1, 12
      t = step(t, s)
      s = s + 0.125
      if (s > 1.0) then
        t = t - 0.0625d0
      end if
    end do
    out = t + s + acc
  end subroutine driver
end module pb
"""

#: Overlay-targetable reals of the miniature above.
_ATOMS = ("pb::acc", "pb::step::x", "pb::step::y", "pb::step::r",
          "pb::driver::t", "pb::driver::s")

#: driver() stores sqrt(-t) when t's overlay kind makes epsilon large —
#: i.e. exactly the single-precision lanes hit the NaN store and must
#: take the scalar fallback while double lanes stay vectorized.
_FALLBACK_SOURCE = """\
module fb
  implicit none
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t, bad
    t = 2.0d0
    do i = 1, 6
      t = t * 1.25d0 - 0.5d0
    end do
    if (epsilon(t) > 1.0d-10) then
      bad = sqrt(-1.0d0)
      t = t + bad
    end if
    out = t
  end subroutine driver
end module fb
"""


def _analyzed(source):
    index = analyze(parse_source(source))
    return index, analyze_program(index)


def _overlays(seed, count):
    rng = random.Random(seed)
    return [
        {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
         for atom in _ATOMS if rng.random() < 0.6}
        for _ in range(count)
    ]


def _compiled(index, vec, overlay):
    return _artifacts(CompiledInterpreter(
        index, overlay=dict(overlay), vec_info=vec, max_ops=1_000_000))


def _wave(index, vec, overlays):
    batch = VariantBatch(index, [dict(o) for o in overlays],
                         vec_info=vec, max_ops=1_000_000)
    arts = [_artifacts(batch.lane(i)) for i in range(len(overlays))]
    return batch, arts


class TestBatchOfOne:
    def test_width_one_is_compiled_bit_for_bit(self):
        index, vec = _analyzed(_SOURCE)
        for overlay in _overlays("batch-of-one", 8):
            _, arts = _wave(index, vec, [overlay])
            assert arts[0] == _compiled(index, vec, overlay)

    def test_evaluator_batch_of_one_matches_scalar_record(self):
        model = FunarcCase(n=60)
        space = model.space
        rng = random.Random("batch-of-one-evaluator")
        kinds = tuple(rng.choice(space.levels) for _ in space.atoms)
        assignment = PrecisionAssignment(atoms=space.atoms, kinds=kinds)
        batched = Evaluator(model, backend="batched")
        compiled = Evaluator(model, backend="compiled")
        (record,), stats = batched.evaluate_assigned_batch(
            [(assignment, 7)])
        assert (stats.vector_lanes, stats.fallback_lanes) == (1, 0)
        assert record == compiled.evaluate_assigned(assignment, 7)


class TestWaveInvariance:
    def test_lane_results_invariant_under_permutation(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("permute", 9)
        _, base = _wave(index, vec, overlays)
        rng = random.Random("permute-order")
        perm = list(range(len(overlays)))
        rng.shuffle(perm)
        _, shuffled = _wave(index, vec, [overlays[i] for i in perm])
        for new_lane, old_lane in enumerate(perm):
            assert shuffled[new_lane] == base[old_lane], (
                f"lane {old_lane} drifted when moved to {new_lane}")

    def test_lane_results_invariant_under_rechunking(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("rechunk", 10)
        _, whole = _wave(index, vec, overlays)
        for split in (1, 4, 7):
            _, left = _wave(index, vec, overlays[:split])
            _, right = _wave(index, vec, overlays[split:])
            assert left + right == whole, f"re-chunk at {split} drifted"

    def test_every_lane_matches_compiled(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("vs-compiled", 12)
        _, arts = _wave(index, vec, overlays)
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")


class TestScalarFallback:
    def test_fallback_lanes_byte_identical_to_pure_compiled(self):
        index, vec = _analyzed(_FALLBACK_SOURCE)
        # Alternate double (vectorized) and single (NaN store ->
        # fallback) lanes within one wave.
        overlays = [
            {"fb::driver::t": KIND_DOUBLE, "fb::driver::bad": KIND_DOUBLE},
            {"fb::driver::t": KIND_SINGLE},
            {},
            {"fb::driver::t": KIND_SINGLE, "fb::driver::bad": KIND_SINGLE},
        ]
        batch, arts = _wave(index, vec, overlays)
        stats = batch.stats()
        assert stats.fallback_lanes == 2, vars(stats)
        assert stats.vector_lanes == 2
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")
        # The fallen-back lanes really did leave the vector path.
        assert batch.lanes[1].fell_back
        assert batch.lanes[3].fell_back
        assert not batch.lanes[0].fell_back
        assert not batch.lanes[2].fell_back

    def test_nan_observables_match_scalar_bitwise(self):
        # The NaN itself must round-trip bit-exactly through the
        # fallback (NumPy array ops would flip its sign bit).
        index, vec = _analyzed(_FALLBACK_SOURCE)
        overlay = {"fb::driver::t": KIND_SINGLE}
        _, arts = _wave(index, vec, [overlay, {}])
        compiled = _compiled(index, vec, overlay)
        obs_bytes, dtype = arts[0]["observable"]
        assert np.isnan(np.frombuffer(obs_bytes, dtype=dtype)[0])
        assert arts[0] == compiled


#: _FALLBACK_SOURCE's NaN store plus four harmless reals, so a campaign
#: wave can hold MIN_SWEEP_LANES distinct variants that keep ``t`` in
#: double precision (and stay vectorized) next to one that lowers it.
_NAN_STORE_SOURCE = """\
module ns
  implicit none
contains
  subroutine kernel(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t, bad, a, b, c, d
    a = 0.5d0
    b = 0.25d0
    c = 0.125d0
    d = 0.0625d0
    t = 2.0d0
    do i = 1, 6
      t = t * 1.25d0 - a * b + c * d
    end do
    if (epsilon(t) > 1.0d-10) then
      bad = sqrt(-1.0d0)
      t = t + bad
    end if
    out = t
  end subroutine kernel
end module ns
"""


class _NanStoreCase(ModelCase):
    """A model whose variants with ``t`` in single precision store a
    NaN, which sends their lanes to the scalar fallback."""

    name = "nan-store"
    source = _NAN_STORE_SOURCE
    hotspot_scopes = ("ns",)

    def _drive(self, interp):
        box = OutBox(None)
        interp.call("kernel", [box])
        return np.asarray([float(box.value)], dtype=np.float64)

    def correctness_error(self, baseline, variant):
        return float(abs(variant[0] - baseline[0]))


def _variants(space, count, lowered=(), kept=()):
    """*count* distinct assignments: each lowers the atoms named in
    *lowered*, keeps those in *kept* double, and lowers a distinct
    non-empty subset of the rest."""
    names = [atom.qualified for atom in space.atoms]
    fixed = {names.index(name) for name in lowered + kept}
    free = [i for i in range(len(names)) if i not in fixed]
    out = []
    for mask in range(1, count + 1):
        low = {names.index(name) for name in lowered} | {
            i for bit, i in enumerate(free) if mask >> bit & 1}
        out.append(PrecisionAssignment(
            atoms=space.atoms,
            kinds=tuple(KIND_SINGLE if i in low else KIND_DOUBLE
                        for i in range(len(names)))))
    return out


def _spans(trace_dir):
    return [e for e in load_trace(trace_dir) if e.get("type") == "span"]


class TestExecutorChoice:
    def test_waves_straddling_the_threshold_match_compiled(self, tmp_path):
        # funarc's default campaign sends waves of 1, 2, 4, 4, 8 and 8
        # fresh variants: some below MIN_SWEEP_LANES, some at or above.
        batched = run_campaign(FunarcCase(n=150), CampaignConfig(
            backend="batched", trace_dir=str(tmp_path)))
        compiled = run_campaign(FunarcCase(n=150),
                                CampaignConfig(backend="compiled"))
        assert batched.to_json() == compiled.to_json()

        telemetry = batched.oracle.telemetry
        narrow = [t for t in telemetry if t.dispatched < MIN_SWEEP_LANES]
        wide = [t for t in telemetry if t.dispatched >= MIN_SWEEP_LANES]
        assert narrow and wide, [t.dispatched for t in telemetry]
        for t in narrow:
            assert t.vector_lanes == t.fallback_lanes == 0
        for t in wide:
            assert t.vector_lanes > 0
            assert t.vector_lanes + t.fallback_lanes == t.dispatched

        # Only swept waves emit a lowering span; scalar-routed variants
        # carry their real wall time, swept ones cannot.
        spans = _spans(tmp_path)
        assert [s["attrs"]["batch"] for s in spans
                if s["name"] == "lowering"] == [t.batch_index for t in wide]
        walls = [s["wall_seconds"] for s in spans if s["name"] == "variant"]
        assert sum(w is not None for w in walls) == sum(
            t.dispatched for t in narrow)
        assert sum(w is None for w in walls) == sum(
            t.dispatched for t in wide)

    def test_narrow_waves_after_a_sweep_report_no_vector_lanes(self):
        # Regression: lane counts used to live in a shared evaluator
        # attribute that only a sweep set, so the waves after a sweep
        # reported its lanes again.
        model = FunarcCase(n=60)
        oracle = BudgetedOracle(
            evaluator=Evaluator(model, backend="batched"),
            config=CampaignConfig())
        variants = _variants(model.space, MIN_SWEEP_LANES + 2)
        oracle.evaluate_batch(variants[:MIN_SWEEP_LANES])
        oracle.evaluate_batch(variants[MIN_SWEEP_LANES:][:1])
        oracle.evaluate_batch(variants[MIN_SWEEP_LANES:][1:])
        assert [t.vector_lanes for t in oracle.telemetry] == [
            MIN_SWEEP_LANES, 0, 0]
        assert [t.dispatched for t in oracle.telemetry] == [
            MIN_SWEEP_LANES, 1, 1]

    def test_narrow_wave_polls_the_interrupt_between_variants(self):
        # Like the compiled backend, a scalar-routed wave stops between
        # variants, after the finished one is committed.
        model = FunarcCase(n=60)
        evaluator = Evaluator(model, backend="batched")
        flag = InterruptFlag()
        oracle = BudgetedOracle(evaluator=evaluator, config=CampaignConfig(),
                                interrupt=flag)
        evaluate = evaluator.evaluate_assigned

        def evaluate_then_interrupt(assignment, vid):
            flag.requested = True
            return evaluate(assignment, vid)

        evaluator.evaluate_assigned = evaluate_then_interrupt
        first, second = _variants(model.space, 2)
        with pytest.raises(CampaignInterrupted):
            oracle.evaluate_batch([first, second])
        assert evaluator.lookup(first) is not None
        assert evaluator.lookup(second) is None

    def test_lowering_span_lists_fallback_reasons(self, tmp_path):
        model = _NanStoreCase()
        oracle = BudgetedOracle(
            evaluator=Evaluator(model, backend="batched"),
            config=CampaignConfig(), tracer=Tracer(tmp_path))
        # One lane lowers ``t`` and stores a NaN; the rest keep it
        # double and stay vectorized.
        t = ("ns::kernel::t",)
        wave = (_variants(model.space, 1, lowered=t)
                + _variants(model.space, MIN_SWEEP_LANES - 1, kept=t))
        oracle.evaluate_batch(wave)
        oracle.tracer.close()
        (span,) = [s for s in _spans(tmp_path) if s["name"] == "lowering"]
        attrs = span["attrs"]
        assert (attrs["width"], attrs["vector_lanes"],
                attrs["fallback_lanes"]) == (MIN_SWEEP_LANES,
                                             MIN_SWEEP_LANES - 1, 1)
        assert attrs["fallback_reasons"] == {
            "nan store: scalar nan semantics": 1}
        assert oracle.telemetry[0].fallback_lanes == 1
