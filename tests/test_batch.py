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

The engine models only what the case-study models use.  The route
tests pin both ways out for everything else: intrinsics no model calls
run as each lane's native call and stay vectorized, and constructs no
model uses send the wave to the fallback with a reason naming them.
The model sweeps pin the other side: a random wave of every model
keeps every lane on the vector path.

The oracle-level tests pin the executor choice: a batched wave sweeps
only when it has at least ``MIN_SWEEP_LANES`` fresh lanes and otherwise
runs on the compiled scalar path, with the same campaign bytes and with
lane telemetry and trace spans that say which executor ran.
"""

from __future__ import annotations

import collections
import random

import numpy as np
import pytest

from repro.core import CampaignConfig, CampaignInterrupted, run_campaign
from repro.core.assignment import PrecisionAssignment
from repro.core.campaign import (MIN_SWEEP_LANES, BudgetedOracle,
                                 InterruptFlag)
from repro.core.classification import Outcome
from repro.core.evaluation import Evaluator
from repro.core.search import RandomSearch
from repro.errors import FortranRuntimeError
from repro.fortran import (CompiledInterpreter, FArray, Interpreter,
                           OutBox, VariantBatch, analyze, analyze_program,
                           parse_source)
from repro.fortran.batch import _LI, _Engine
from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase
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


def _overlays(seed, count, atoms=_ATOMS):
    rng = random.Random(seed)
    return [
        {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
         for atom in atoms if rng.random() < 0.6}
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

    def test_nan_outside_an_integer_store_stays_vectorized(self):
        # On the single-precision lanes ``x`` is 0, so they skip the
        # branch, but the vector engine still computes 0/0 there: only
        # the lanes that store into ``n`` may be checked for a NaN.
        index, vec = _analyzed(_INT_STORE_SOURCE)
        lowered = {atom: KIND_SINGLE for atom in _INT_STORE_ATOMS}
        overlays = [lowered if lane % 2 else {} for lane in range(8)]
        batch, arts = _wave(index, vec, overlays)
        stats = batch.stats()
        assert (stats.vector_lanes, stats.fallback_lanes) == (8, 0), (
            stats.fallback_reasons)
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")


#: ``x`` is 0 where ``a``, ``b`` and ``x`` are single precision (1e-10
#: vanishes next to 1) and 1e-10 where they are double.
_INT_STORE_SOURCE = """\
module ti
  implicit none
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: a, b, x
    integer :: n
    a = 1.0d0
    b = 1.0d-10
    x = (a + b) - a
    n = 7
    if (x > 0.0d0) then
      n = (x - x) / x
    end if
    out = x + n
  end subroutine driver
end module ti
"""

_INT_STORE_ATOMS = ("ti::driver::a", "ti::driver::b", "ti::driver::x")


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

        # On two workers none of these waves is wide enough to sweep (it
        # would need MIN_SWEEP_LANES per worker): each variant is its own
        # task and traces its worker's evaluation wall.
        pooled = run_campaign(FunarcCase(n=150), CampaignConfig(
            backend="batched", workers=2, trace_dir=str(tmp_path / "pool")))
        assert pooled.to_json() == compiled.to_json()
        spans = _spans(tmp_path / "pool")
        assert not [s for s in spans if s["name"] == "lowering"]
        walls = [s["wall_seconds"] for s in spans if s["name"] == "variant"]
        assert len(walls) == sum(t.dispatched for t in telemetry)
        assert all(w is not None and w > 0.0 for w in walls)

        # A wave of 16 is: it sweeps on one worker, and its lowering span
        # carries what a serial sweep's does.  Swept lanes interleave, so
        # their variant spans keep an unknown wall.
        lowering = {}
        for workers in (1, 2):
            trace = tmp_path / f"wide-{workers}"
            run_campaign(FunarcCase(n=150), CampaignConfig(
                backend="batched", workers=workers, trace_dir=str(trace)),
                algorithm=RandomSearch(samples=16, batch_size=16, seed=5))
            spans = _spans(trace)
            (lowering[workers],) = [s["attrs"] for s in spans
                                    if s["name"] == "lowering"]
            assert [s["wall_seconds"] for s in spans
                    if s["name"] == "variant"] == [None] * 16
        assert lowering[2]["width"] == lowering[2]["vector_lanes"] == 16
        timed = ("sweep_seconds", "replay_seconds")
        assert lowering[2].keys() == lowering[1].keys()
        assert ({k: v for k, v in lowering[2].items() if k not in timed}
                == {k: v for k, v in lowering[1].items() if k not in timed})

    def test_narrow_waves_after_a_sweep_report_no_vector_lanes(self):
        # Regression: lane counts used to live in a shared evaluator
        # attribute that only a sweep set, so the waves after a sweep
        # reported its lanes again.
        model = FunarcCase(n=60)
        oracle = BudgetedOracle(
            evaluator=Evaluator(model, backend="batched"),
            config=CampaignConfig(backend="batched"))
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
        oracle = BudgetedOracle(evaluator=evaluator,
                                config=CampaignConfig(backend="batched"),
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
            config=CampaignConfig(backend="batched"), tracer=Tracer(tmp_path))
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

    def test_lowering_span_splits_sweep_and_replay_wall(self, tmp_path):
        # One 16-lane wave in which the lanes that lower ``t`` store a
        # NaN and replay on the scalar path: the span splits the wave's
        # wall between sweep and replay, and none of it enters the
        # campaign bytes.
        search = RandomSearch(samples=16, batch_size=16, seed=3)
        batched = run_campaign(_NanStoreCase(), CampaignConfig(
            backend="batched", trace_dir=str(tmp_path)), algorithm=search)
        compiled = run_campaign(_NanStoreCase(), CampaignConfig(
            backend="compiled"), algorithm=search)
        assert batched.to_json() == compiled.to_json()
        (span,) = [s for s in _spans(tmp_path) if s["name"] == "lowering"]
        attrs = span["attrs"]
        assert attrs["width"] == 16 and attrs["fallback_lanes"] > 0, attrs
        assert attrs["sweep_seconds"] > 0.0
        assert attrs["replay_seconds"] > 0.0
        assert (attrs["sweep_seconds"] + attrs["replay_seconds"]
                <= span["wall_seconds"])
        assert attrs["procedures_lowered"] == 1
        # The lane op totals span vector and fallback lanes alike.
        model = _NanStoreCase()
        ops = [model.run(PrecisionAssignment(
            atoms=model.space.atoms, kinds=record.kinds)).ledger.total_ops
            for record in batched.search.records]
        assert len(ops) == 16
        assert attrs["lane_ops_max"] == max(ops) > min(ops)
        assert attrs["lane_ops_mean"] == sum(ops) / 16
        assert "lane_ops_max" not in batched.to_json()


#: Calls every intrinsic the engine leaves to the per-lane native call
#: although no model uses it.  The values keep integer results and the
#: branch conditions lane-uniform, so every lane stays vectorized.
_NATIVE_INTRINSICS_SOURCE = """\
module ni
  implicit none
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: a, b, t
    real(kind=4) :: s
    real(kind=8) :: v(4)
    integer :: i, k
    a = 1.75d0
    b = -0.5d0
    s = 2.5
    do i = 1, 4
      v(i) = a * i - b * i * i
    end do
    t = sign(a, b) + sign(s, a)
    t = t + mod(a * 3.0d0, 1.25d0) + mod(s, 0.75)
    k = mod(7, 3) + sign(2, -1)
    t = t + merge(a, b, a > b) + merge(s, 1.0, s < 1.0)
    t = t + real(a) + dble(s) + sngl(a) + float(k) + real(k, kind=8)
    k = k + int(a) + nint(s) + floor(b) + ceiling(a)
    k = k + size(v) + lbound(v, 1) + ubound(v, 1)
    if (ieee_is_nan(t)) then
      t = 0.0d0
    end if
    if (ieee_is_finite(t)) then
      t = t + 1.0d0
    end if
    t = t + maxval(v) - minval(v) + maxloc(v)
    print *, t
    print *, k
    out = t + k
  end subroutine driver
end module ni
"""

_NATIVE_ATOMS = ("ni::driver::a", "ni::driver::b", "ni::driver::t",
                 "ni::driver::s", "ni::driver::v")

#: The driver every refused-construct program shares; each case fills
#: in helper procedures, declarations and a body.
_CONSTRUCT_TEMPLATE = """\
module rc
  implicit none
contains
{helpers}
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i, k
    real(kind=8) :: a, t, v(4)
{decls}
    a = 1.25d0
    t = 0.5d0
    do i = 1, 4
      v(i) = a * i
    end do
{body}
    out = t + v(2)
  end subroutine driver
end module rc
"""

_CONSTRUCT_ATOMS = ("rc::driver::a", "rc::driver::t", "rc::driver::v")

_HALF_FUNCTION = """\
  function half(x) result(r)
    implicit none
    real(kind=8) :: x
    real(kind=8) :: r
    r = x * 0.5d0
    if (x > 0.0d0) return
    r = -r
  end function half
"""

_TALLY_SUBROUTINE = """\
  subroutine tally(x, r)
    implicit none
    real(kind=8), intent(in) :: x
    real(kind=8), intent(out) :: r
    real(kind=8), save :: total
    total = total + x
    r = total
  end subroutine tally
"""

_DBL_FUNCTION = """\
  function dbl(x) result(r)
    implicit none
    real(kind=8) :: x
    real(kind=8) :: r
    r = x + x
  end function dbl
"""

_TWICE_FUNCTION = """\
  function twice(n) result(r)
    implicit none
    integer :: n
    real(kind=8) :: r
    r = 2.0d0 * n
  end function twice
"""

_BUMP_SUBROUTINE = """\
  subroutine bump(x)
    implicit none
    real(kind=8), intent(inout) :: x
    x = x + 1.0d0
  end subroutine bump
"""

_INT_ARRAY = """\
    iv(1) = 1
    iv(2) = 2
    iv(3) = 3
"""

#: construct -> (fallback reason it must give, helpers, decls, body).
_REFUSED_CONSTRUCTS = {
    "whole-array-assignment": (
        "whole-array assignment", "", "", "    v = a * 0.5d0"),
    "array-constructor": (
        "ArrayCons", "", "", "    v(1:3) = (/ a, t, a /)"),
    "cycle": (
        "CycleStmt", "", "",
        "    do i = 1, 4\n"
        "      if (i == 2) cycle\n"
        "      t = t + v(i)\n"
        "    end do"),
    "return": (
        "ReturnStmt", _HALF_FUNCTION, "", "    t = t + half(a)"),
    "array-in-print": (
        "array item in print", "", "", "    print *, v"),
    "logical-scalar": (
        "logical scalar 'flag'", "", "    logical :: flag",
        "    flag = a > t\n"
        "    if (flag) then\n"
        "      t = t + 1.0d0\n"
        "    end if"),
    "character-scalar": (
        "character scalar 'label'", "", "    character(len=8) :: label",
        "    label = 'rc'\n"
        "    print *, label"),
    "initialized-scalar": (
        "initialized scalar 'half'", "",
        "    real(kind=8), parameter :: half = 0.5d0", "    t = t + half"),
    "save-local": (
        "SAVE local 'total'", _TALLY_SUBROUTINE, "",
        "    call tally(a, t)\n"
        "    call tally(a, t)"),
    "integer-array-arithmetic": (
        "integer-array arithmetic", "", "    integer :: iv(3)",
        _INT_ARRAY + "    t = t + sum(iv * 2)"),
    "gathered-element-argument": (
        "gathered array-element argument", _DBL_FUNCTION, "",
        "    k = nint(a)\n"
        "    t = t + dbl(v(k))"),
    "non-real-element-argument": (
        "non-real array-element argument", _TWICE_FUNCTION,
        "    integer :: iv(3)", _INT_ARRAY + "    t = t + twice(iv(2))"),
    "written-back-element-argument": (
        "written-back array-element argument", _BUMP_SUBROUTINE, "",
        "    call bump(v(2))"),
    "integer-abs": (
        "unsupported abs arguments", "", "",
        "    k = 2\n"
        "    t = t + abs(k) / 3.0"),
}


class TestRoutesOutOfTheVectorEngine:
    def test_native_intrinsics_stay_vectorized(self):
        index, vec = _analyzed(_NATIVE_INTRINSICS_SOURCE)
        overlays = [{}] + _overlays("native-intrinsics", 11, _NATIVE_ATOMS)
        batch, arts = _wave(index, vec, overlays)
        stats = batch.stats()
        assert (stats.vector_lanes, stats.fallback_lanes) == (
            len(overlays), 0), stats.fallback_reasons
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")

    @pytest.mark.parametrize("construct", sorted(_REFUSED_CONSTRUCTS))
    def test_refused_construct_falls_back_bit_for_bit(self, construct):
        reason, helpers, decls, body = _REFUSED_CONSTRUCTS[construct]
        index, vec = _analyzed(_CONSTRUCT_TEMPLATE.format(
            helpers=helpers, decls=decls, body=body))
        overlays = [{}] + _overlays(construct, 4, _CONSTRUCT_ATOMS)
        batch, arts = _wave(index, vec, overlays)
        stats = batch.stats()
        assert stats.fallback_lanes == len(overlays)
        assert stats.fallback_reasons, construct
        for named in stats.fallback_reasons:
            assert reason in named, stats.fallback_reasons
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")

    def test_numpy_integer_intrinsic_result_falls_back(self):
        # sum() of an integer array returns a NumPy integer, which
        # widens float32 ``t`` lanes to float64 in the scalar engine;
        # modeled as a weak lane integer, it would not.
        index, vec = _analyzed(_CONSTRUCT_TEMPLATE.format(
            helpers="", decls="    integer :: iv(3)",
            body=_INT_ARRAY + "    t = t + sum(iv)"))
        overlays = [{}, {"rc::driver::t": KIND_SINGLE},
                    {"rc::driver::t": KIND_SINGLE,
                     "rc::driver::a": KIND_SINGLE}]
        batch, arts = _wave(index, vec, overlays)
        assert batch.stats().fallback_reasons == {
            "sum: unsupported result type": len(overlays)}
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")


def _model_wave(model, count):
    """*count* seeded random (assignment, vid) pairs over the model's
    atoms, sweeping the lowering probability like RandomSearch."""
    rng = random.Random(f"model-sweep-{model.name}")
    atoms = model.space.atoms
    tasks = []
    for vid in range(count):
        p = rng.uniform(0.05, 0.95)
        kinds = tuple(KIND_SINGLE if rng.random() < p else KIND_DOUBLE
                      for _ in atoms)
        tasks.append((PrecisionAssignment(atoms=atoms, kinds=kinds), vid))
    return tasks


class TestModelSweepsStayVectorized:
    @pytest.mark.parametrize("make_case", [
        lambda: FunarcCase(n=150), MpasCase.small, AdcircCase.small,
        Mom6Case.small], ids=["funarc", "mpas-a", "adcirc", "mom6"])
    def test_random_wave_keeps_every_lane(self, make_case):
        model = make_case()
        evaluator = Evaluator(model, backend="batched")
        tasks = _model_wave(model, 16)
        records, stats = evaluator.evaluate_assigned_batch(tasks)
        assert (stats.vector_lanes, stats.fallback_lanes) == (16, 0), (
            stats.fallback_reasons)
        for record, (assignment, vid) in zip(records, tasks):
            assert record == evaluator.evaluate_assigned(assignment, vid)


def _ledger_rows(ledger):
    """Every ledger dict as its items in insertion order."""
    return (list(ledger.ops.items()),
            [(k, list(v)) for k, v in ledger.calls.items()],
            list(ledger.boundary_cast_elements.items()),
            [(k, list(v)) for k, v in ledger.allreduce.items()],
            ledger.total_ops)


def _drive_model(model, interp):
    try:
        model._drive(interp)
    except FortranRuntimeError:
        pass  # an error stop: the ledger up to it still counts
    return interp


class TestLoweredEngine:
    def test_each_procedure_is_lowered_once_per_wave(self):
        model = Mom6Case.small()
        evaluator = Evaluator(model, backend="batched")
        tasks = _model_wave(model, 16)
        batch = VariantBatch(model.index, [a.overlay() for a, _ in tasks],
                             vec_info=model.vec_info,
                             max_ops=evaluator.op_cap)
        ledger = _drive_model(model, batch.lane(0)).ledger
        calls = {key.callee: entry[0] for key, entry in ledger.calls.items()}
        stats = batch.stats()
        assert stats.vector_lanes == 16
        # zonal_flux_layer alone runs dozens of times per lane.
        assert max(calls.values()) > 10 * len(calls)
        assert stats.procedures_lowered == len(calls)

    def test_only_the_lane_over_budget_falls_back(self):
        model = Mom6Case.small()
        evaluator = Evaluator(model, backend="batched")
        atoms = model.space.atoms
        double = PrecisionAssignment(atoms=atoms,
                                     kinds=(KIND_DOUBLE,) * len(atoms))
        single = PrecisionAssignment(atoms=atoms,
                                     kinds=(KIND_SINGLE,) * len(atoms))
        # All-single runs the Newton flux adjustment to its iteration
        # cap, about 1.7x the all-double operations: a budget between
        # the two trips that lane alone, well before its sweep ends.
        evaluator.op_cap = 300_000
        tasks = [(double, 0), (single, 1), (double, 2), (double, 3)]
        records, stats = evaluator.evaluate_assigned_batch(tasks)
        assert stats.fallback_reasons == {"operation budget exceeded": 1}
        assert (stats.vector_lanes, stats.fallback_lanes) == (3, 1)
        assert records[1].outcome is Outcome.TIMEOUT
        for record, (assignment, vid) in zip(records, tasks):
            assert record == evaluator.evaluate_assigned(assignment, vid)

    def test_lane_ledgers_match_compiled_in_key_order(self):
        model = Mom6Case.small()
        overlays = [a.overlay() for a, _ in _model_wave(model, 64)]
        batch = VariantBatch(model.index, overlays, vec_info=model.vec_info,
                             max_ops=10_000_000)
        lanes = [_drive_model(model, batch.lane(i))
                 for i in range(len(overlays))]
        assert batch.stats().fallback_lanes == 0
        for lane, overlay in zip(lanes, overlays):
            compiled = _drive_model(model, CompiledInterpreter(
                model.index, overlay=dict(overlay),
                vec_info=model.vec_info, max_ops=10_000_000))
            assert _ledger_rows(lane.ledger) == _ledger_rows(
                compiled.ledger), f"lane {lane.lane} ledger differs"


#: A Newton iteration whose exit depends on ``x``'s precision: double
#: lanes converge in a few steps, single lanes stall until the cap.
#: ``record`` runs only for the lanes still iterating; it stores into
#: its dummy array (a view of ``hist``), adds to a module variable,
#: writes back an ``intent(inout)`` scalar and calls a function whose
#: result is set in branches that split by ``v``'s precision.  The
#: driver reads ``x`` after the divergent ``exit``.
_FRAME_RULE_SOURCE = """\
module fr
  implicit none
  real(kind=8) :: total
contains
  function damp(v) result(r)
    implicit none
    real(kind=8) :: v
    real(kind=8) :: r
    if (epsilon(v) > 1.0d-10) then
      r = v * 0.5d0
    else
      r = v * 0.25d0 + 0.125d0
    end if
  end function damp

  subroutine record(h, v, cnt)
    implicit none
    real(kind=8) :: h(4)
    real(kind=8), intent(in) :: v
    integer, intent(inout) :: cnt
    real(kind=8) :: w
    integer :: j
    w = damp(v)
    do j = 1, 4
      h(j) = h(j) * 0.5d0 + w
    end do
    total = total + w
    cnt = cnt + 1
  end subroutine record

  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: c, x, fx, dx, tol
    real(kind=8) :: hist(4)
    integer :: it, j, cnt
    total = 0.0d0
    cnt = 0
    do j = 1, 4
      hist(j) = 0.0d0
    end do
    c = 2.0d0
    x = 8.0d0
    tol = 1.0d-13
    do it = 1, 30
      fx = x * x - c
      dx = fx / (2.0d0 * x)
      x = x - dx
      if (abs(dx) <= tol * x) exit
      call record(hist, x, cnt)
    end do
    print *, x, cnt, hist(1), hist(4), total
    out = x + total + hist(1) + hist(4) + cnt
  end subroutine driver
end module fr
"""

#: The arrays stay double, so ``h`` is a view of ``hist`` on every lane.
_FRAME_RULE_ATOMS = (
    "fr::total", "fr::damp::v", "fr::damp::r", "fr::record::v",
    "fr::record::w", "fr::driver::c", "fr::driver::x", "fr::driver::fx",
    "fr::driver::dx", "fr::driver::tol")


class TestFrameRule:
    """A store into a frame's own scalar adopts its new value when it
    covers the frame's live lanes: lanes outside the call never read
    that frame.  Module variables, arrays and write-back do not."""

    def test_partial_calls_match_walker_and_compiled(self):
        index, vec = _analyzed(_FRAME_RULE_SOURCE)
        rng = random.Random("frame-rule-boundaries")
        overlays = [{}]
        for lane in range(1, 12):
            overlay = {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
                       for atom in _FRAME_RULE_ATOMS if rng.random() < 0.6}
            overlay["fr::driver::x"] = (KIND_SINGLE if lane % 3 == 0
                                        else KIND_DOUBLE)
            overlays.append(overlay)
        batch = VariantBatch(index, [dict(o) for o in overlays],
                             vec_info=vec, max_ops=1_000_000)
        calls = set()
        for lane, overlay in enumerate(overlays):
            walker = _artifacts(Interpreter(
                index, overlay=dict(overlay), vec_info=vec,
                max_ops=1_000_000))
            assert walker["error"] is None, walker["error"]
            assert _compiled(index, vec, overlay) == walker, (
                f"compiled drifts at lane {lane}")
            assert _artifacts(batch.lane(lane)) == walker, (
                f"batched lane {lane} drifts")
            calls.add(walker["stdout"][0].split()[1])
        # The lanes left the loop at different iterations.
        assert len(calls) > 1, calls
        stats = batch.stats()
        assert (stats.vector_lanes, stats.fallback_lanes) == (
            len(overlays), 0), stats.fallback_reasons

    def test_adcirc_helper_loop_indices_stay_lane_uniform(self, monkeypatch):
        # In a random ADCIRC wave the JCG iteration stops at different
        # iterations per lane, so pjac, peror and pmult run for part of
        # the wave.  Their do indices must still be stored as one value
        # for the wave; only jcg's own ``it`` may become per-lane.
        model = AdcircCase.small()
        evaluator = Evaluator(model, backend="batched")
        stack = []
        per_lane = collections.Counter()
        invoke = _Engine._binvoke
        store = _Engine._store_loop_var

        def spy_invoke(self, qual, *args, **kwargs):
            stack.append(qual)
            try:
                return invoke(self, qual, *args, **kwargs)
            finally:
                stack.pop()

        def spy_store(self, slot, var, *args):
            store(self, slot, var, *args)
            if type(slot[var]) is _LI:
                per_lane[stack[-1].rsplit("::", 1)[-1], var] += 1

        monkeypatch.setattr(_Engine, "_binvoke", spy_invoke)
        monkeypatch.setattr(_Engine, "_store_loop_var", spy_store)
        records, stats = evaluator.evaluate_assigned_batch(
            _model_wave(model, 16))
        assert (stats.vector_lanes, stats.fallback_lanes) == (16, 0), (
            stats.fallback_reasons)
        assert per_lane.pop(("jcg", "it")) > 0
        assert not per_lane, dict(per_lane)


#: ``check`` runs ``error stop`` on the lanes that lower ``y``; ``kernel``
#: stores into its array argument before and after calling it.
_STOP_SOURCE = """\
module sl
  implicit none
contains
  subroutine check()
    implicit none
    real(kind=8) :: y
    y = 0.1d0
    if (y /= 0.1d0) error stop 'check: y lowered'
  end subroutine check

  subroutine kernel(a)
    implicit none
    real(kind=8), intent(inout) :: a(2)
    a(1) = 1.5d0
    call check()
    a(2) = 2.5d0
  end subroutine kernel
end module sl
"""


class TestStoppedLane:
    def test_arrays_are_left_as_they_were_at_the_stop(self):
        # ``a(2) = 2.5d0`` runs for the live lanes after the middle one
        # stopped, and its mask covers them all, so the dead-lane rule
        # writes every lane's slot.  The stopped lane must still hand
        # back its array as compiled leaves it at the stop.
        index, vec = _analyzed(_STOP_SOURCE)
        overlays = [{}, {"sl::check::y": KIND_SINGLE}, {}]
        batch = VariantBatch(index, [dict(o) for o in overlays],
                             vec_info=vec, max_ops=1_000_000)

        def run(interp):
            a = FArray(np.zeros(2), (1,), KIND_DOUBLE)
            error = None
            try:
                interp.call("kernel", [a])
            except FortranRuntimeError as exc:
                error = (type(exc).__name__, str(exc))
            return a.data.tolist(), error

        lanes = [run(batch.lane(lane)) for lane in range(len(overlays))]
        assert lanes == [run(CompiledInterpreter(
            index, overlay=dict(overlay), vec_info=vec, max_ops=1_000_000))
            for overlay in overlays]
        assert lanes[1] == ([1.5, 0.0],
                            ("FortranStopError", "check: y lowered"))
        assert lanes[0] == lanes[2] == ([1.5, 2.5], None)
        stats = batch.stats()
        assert (stats.vector_lanes, stats.fallback_lanes) == (3, 0)
