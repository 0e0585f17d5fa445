"""Variant-batched lockstep execution of the Fortran subset.

One :class:`VariantBatch` evaluates a whole wave of precision variants
(overlays) in a single sweep: every real value carries a leading *lane*
axis (one lane per variant), per-variant kind overlays become per-lane
kind vectors, and each statement of the program executes once for all
lanes under an activity mask instead of once per variant.

Bit-identity contract
---------------------
The batched backend must be indistinguishable from the reference tree
walker and the compiled backend in every deterministic payload:
per-lane observables, stdout, ledger charges (including dict insertion
order) and, transitively, the campaign-result JSON bytes.  Three
mechanisms carry that contract:

* **Widened storage, native rounding.**  Real lane values are stored as
  ``float64`` but every operation result is rounded through the lane's
  kind (a kind-4 lane computes in ``float32`` and re-widens; for
  ``+ - * /`` on float32 operands, rounding the float64 result to
  float32 gives the same bits), so each lane holds exactly the bits the
  scalar interpreter would.  Operations
  that NumPy does not guarantee to be vectorization-invariant
  (transcendentals, ``**``, reductions) are evaluated per lane on the
  lane's native dtype — the same ufunc call the scalar backends make.
* **Charge events.**  Every ledger charge is recorded once with the
  activity mask it occurred under; a per-lane
  :class:`~repro.fortran.instrumentation.Ledger` is reconstructed at
  the end by replaying the lane's event subsequence in program order
  (every lane in one pass over the events), which reproduces both the
  counts and the first-touch key order of a scalar run.
* **The fallback valve.**  Any lane that diverges beyond what the
  lockstep engine models — a runtime error, an over-budget trip, a
  divergent loop bound, an unsupported construct, or any engine
  surprise at all — is *deactivated* and transparently re-run on a
  private :class:`~repro.fortran.compile.CompiledInterpreter`, which is
  bit-identical by the existing differential-fuzz gate.  Deactivation
  is always sound: it can cost wall-clock, never correctness.

What the vector engine models
-----------------------------
Only what the four case-study models reach (``tests/test_batch.py``
sweeps a random wave of each and requires every lane to stay
vectorized): assignment to scalars and to array elements and sections,
``call``, ``if`` blocks, ``do`` and ``do while`` with ``exit``,
``stop``, ``print`` of scalars; real scalars and arrays of per-lane
kind, integer scalars, integer and logical arrays; literals, names,
arithmetic, comparisons, logical operators, user functions; and the
intrinsics ``abs``, ``sqrt``, ``min``, ``max``, ``epsilon``, ``huge``
and ``tiny``.

Every other intrinsic goes **native**: each live lane makes the scalar
interpreter's own call, so bytes and ledger charges match by
construction and the lanes stay vectorized.  That is the
transcendentals and reductions (not exactly rounded under widening)
and those no model calls: ``sign``, ``mod``, ``merge``,
``real``/``dble``/``sngl``/``float``, ``int``, ``nint``, ``floor``,
``ceiling``, ``size``, ``lbound``, ``ubound``, ``ieee_is_nan``,
``ieee_is_finite``, ``maxval``, ``minval`` and ``maxloc``.  A native
result that is a NumPy integer falls back: it promotes unlike the
engine's lane integers.

Every other construct **falls back**: the engine raises
``_Unsupported`` and the wave re-runs on private compiled interpreters,
with a reason naming the construct in ``BatchStats.fallback_reasons``.
That is derived types, ``where``, ``select case``, ``allocate``,
whole-array assignment, array constructors, ``cycle``, ``return``,
arrays in ``print``, logical and character scalars, initialized
scalars (``parameter`` included), ``save`` locals, integer-array
arithmetic, ``abs`` of an integer (the scalar call returns a NumPy
integer), and array-element actual arguments that are gathered
(per-lane subscripts), non-real, or written back.

Lowering
--------
Each procedure body is lowered once per wave, at the procedure's first
call, into a tree of closures (:class:`_Lowerer`, the vector twin of
:mod:`repro.fortran.compile`), kept on the wave's engine and dropped
with it: a wave's kind vectors are its own.  Resolved at lowering:
node dispatch (the closure is the handler), each declared name's
values dict, literal lane vectors, procedure and intrinsic routing
(vector kernel or per-lane native call), ledger-key parts, static
statement vec flags, the binding plan of each procedure, and each
declared symbol's kind vector with the promote / convert-lane /
float32-lane decisions that follow from it (every site caches them
against the operand kind vectors it last saw, seeded from the
declarations).  Where a name lives, which symbol declares it and
which real operands fix an expression's kind come from
:class:`~repro.fortran.symbols.ScopeNames`, the scoping rules the
three engines share.  A construct the engine does not model lowers to a
closure that raises ``_Unsupported`` when it runs, so a wave falls back
where and why it reaches one.  Dynamic at run time: activity masks and
dead lanes, ``devec`` and ``vec_inherit``, values, the op budget (a
running per-lane total), deactivation and its reasons, and the NaN
guards at store boundaries.

Masked scalar stores
--------------------
A store under a mask merges its new value into the old one lane by
lane, except where no lane could tell the difference.  Dead lanes
never read engine state, so a mask covering every alive lane adopts
the new value outright (the dead-lane rule).  A frame's own scalars --
its locals, scalar dummies, function result and declared ``do``
indices, the names ``ScopeNames.lookup`` places in the frame with no
module -- are read only by the lanes of the call that made the frame,
so a store into one adopts when its mask covers the frame's live lanes
(the frame rule; ``_Engine._binvoke`` keeps the innermost frame's live
call mask).  SAVE locals and initialized scalars fall back, and a
scalar dummy reaches the caller only through its write-back setter
under the call mask.  Module variables, names on the chain walk,
arrays (a dummy array is a view of the caller's storage) and the
write-back setters keep the wave-wide dead-lane rule.  Lanes outside
a call may therefore hold any value in the callee's scalars, so every
check on a value (NaN guards, integer conversion, subscript bounds)
looks at the mask's lanes only.

The public surface mirrors the scalar interpreters: each
:meth:`VariantBatch.lane` exposes ``call``/``ledger``/``stdout`` like an
``Interpreter``, so the evaluator drives a lane exactly as it drives a
scalar backend.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Optional

import numpy as np

from ..errors import FortranRuntimeError, FortranStopError, SemanticError
from . import ast_nodes as F
from .compile import _BUILTIN_SUBS, _CMP_FNS, CompiledInterpreter, _raiser
from .instrumentation import CallKey, Ledger, OpKey
from .interpreter import _ARITH_CLASS, _BUDGET_CHECK_INTERVAL, Frame
from .intrinsics import INTRINSICS
from .symbols import (_CMP_OPS, KIND_DOUBLE, KIND_SINGLE, ProgramIndex,
                      ScopeNames, Symbol, effective_kind, int_pow)
from .values import FArray, dtype_for_kind, kind_of
from .vectorize import ProgramVecInfo

__all__ = ["VariantBatch", "BatchLane", "BatchStats"]

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)
_MINIMUM = np.minimum.reduce
_MAXIMUM = np.maximum.reduce


class _Unsupported(Exception):
    """A construct the lockstep engine does not model; triggers fallback."""


class _AllLanesDead(Exception):
    """Every lane has been deactivated; abandon the batched execution."""


# ---------------------------------------------------------------------------
# Interned per-lane vectors
# ---------------------------------------------------------------------------


class _KV:
    """An interned per-lane kind vector (values 4/8 per lane)."""

    __slots__ = ("arr", "u", "any4", "_m4")

    def __init__(self, arr: np.ndarray):
        self.arr = arr                       # int8[L], read-only
        u = int(arr[0]) if arr.size else KIND_DOUBLE
        self.u: Optional[int] = u if bool(np.all(arr == u)) else None
        self.any4: bool = (self.u == KIND_SINGLE if self.u is not None
                           else bool(np.any(arr == KIND_SINGLE)))
        self._m4: Optional[np.ndarray] = None

    @property
    def m4(self) -> np.ndarray:
        """bool[L]: lanes of kind 4."""
        if self._m4 is None:
            self._m4 = self.arr == KIND_SINGLE
        return self._m4

    def at(self, lane: int) -> int:
        return int(self.arr[lane])


class _Mask:
    """An interned boolean lane mask."""

    __slots__ = ("arr", "n")

    def __init__(self, arr: np.ndarray):
        self.arr = arr                       # bool[L], read-only
        self.n = int(arr.sum())


class _Intern:
    """Interning tables for kind vectors and masks (per batch)."""

    def __init__(self, width: int):
        self.width = width
        self._kvs: dict[bytes, _KV] = {}
        self._masks: dict[bytes, _Mask] = {}
        self._uniform: dict[int, _KV] = {}
        self.full = self.mask(np.ones(width, dtype=bool))
        self.empty = self.mask(np.zeros(width, dtype=bool))
        self.kv4 = self.kv_uniform(KIND_SINGLE)
        self.kv8 = self.kv_uniform(KIND_DOUBLE)

    def kv(self, arr: np.ndarray) -> _KV:
        arr = np.ascontiguousarray(arr, dtype=np.int8)
        key = arr.tobytes()
        got = self._kvs.get(key)
        if got is None:
            arr.setflags(write=False)
            got = _KV(arr)
            self._kvs[key] = got
        return got

    def kv_uniform(self, kind: int) -> _KV:
        got = self._uniform.get(kind)
        if got is None:
            got = self._uniform[kind] = self.kv(
                np.full(self.width, kind, dtype=np.int8))
        return got

    def mask(self, arr: np.ndarray) -> _Mask:
        arr = np.ascontiguousarray(arr, dtype=bool)
        key = arr.tobytes()
        got = self._masks.get(key)
        if got is None:
            arr.setflags(write=False)
            got = _Mask(arr)
            self._masks[key] = got
        return got


# ---------------------------------------------------------------------------
# Lane values
# ---------------------------------------------------------------------------


class _LF:
    """Per-lane real scalar: widened float64 values + kind vector.

    Invariant: lanes of kind 4 hold values exactly representable in
    float32 (they were rounded through float32 when produced).
    """

    __slots__ = ("data", "kv")

    def __init__(self, data: np.ndarray, kv: _KV):
        self.data = data                     # float64[L]
        self.kv = kv


class _LI:
    """Per-lane integer scalar (only when lanes disagree)."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr                       # int64[L]


class _LB:
    """Per-lane logical scalar (only when lanes disagree)."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr                       # bool[L]


class _BArr:
    """A batched Fortran array: storage with a leading lane axis.

    Real arrays are stored widened (float64) with a per-lane kind
    vector; integer arrays are int64 and logical arrays bool, both with
    ``kv is None`` (mirroring ``FArray.kind``).  Shapes are uniform
    across lanes by construction.
    """

    __slots__ = ("data", "lbounds", "kv")

    def __init__(self, data: np.ndarray, lbounds: tuple[int, ...],
                 kv: Optional[_KV]):
        self.data = data                     # [L, *shape]
        self.lbounds = lbounds
        self.kv = kv

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[1:]

    @property
    def size(self) -> int:
        n = 1
        for s in self.data.shape[1:]:
            n *= s
        return n

    @property
    def rank(self) -> int:
        return self.data.ndim - 1


def _elems(value: Any) -> int:
    return value.size if type(value) is _BArr else 1


_ARITH_FN = {"+": operator.add, "-": operator.sub,
             "*": operator.mul, "/": operator.truediv}
_MQ_CONST = {
    "epsilon": (np.float64(np.finfo(np.float32).eps),
                np.float64(np.finfo(np.float64).eps)),
    "huge": (np.float64(np.finfo(np.float32).max),
             np.float64(np.finfo(np.float64).max)),
    "tiny": (np.float64(np.finfo(np.float32).tiny),
             np.float64(np.finfo(np.float64).tiny)),
}


def _expand(arr1d: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a [L] vector for broadcasting against [L, *shape] data."""
    if ndim <= 1:
        return arr1d
    return arr1d.reshape(arr1d.shape + (1,) * (ndim - 1))


def _round_to(data: np.ndarray, kv: _KV) -> np.ndarray:
    """Round widened float64 data through the per-lane kind."""
    if kv.u == KIND_DOUBLE:
        return data
    r32 = data.astype(_F32).astype(_F64)
    if kv.u == KIND_SINGLE:
        return r32
    return np.where(_expand(kv.m4, data.ndim), r32, data)


class _LoopCtx:
    __slots__ = ("exit",)

    def __init__(self, empty: _Mask):
        self.exit = empty


class BatchStats:
    """Execution statistics for one :class:`VariantBatch`.

    ``sweep_seconds`` is the wall spent in vectorized calls (lowering
    included), ``replay_seconds`` the wall the fallback lanes spent on
    their private compiled interpreters, and ``procedures_lowered`` how
    many procedure bodies the wave lowered (each once, at its first
    call).  ``lane_ops_max`` and ``lane_ops_mean`` are the longest and
    the mean lane's ``Ledger.total_ops``, over vector and fallback lanes
    alike: a sweep costs about as much as its longest lane."""

    __slots__ = ("width", "vector_lanes", "fallback_lanes", "calls",
                 "fallback_reasons", "sweep_seconds", "replay_seconds",
                 "procedures_lowered", "lane_ops_max", "lane_ops_mean")

    def __init__(self) -> None:
        self.width = 0
        self.vector_lanes = 0
        self.fallback_lanes = 0
        self.calls = 0
        self.fallback_reasons: dict[str, int] = {}
        self.sweep_seconds = 0.0
        self.replay_seconds = 0.0
        self.procedures_lowered = 0
        self.lane_ops_max = 0
        self.lane_ops_mean = 0.0


def _op_parts(kv: _KV, vec: Any) -> list:
    """``(kind, vec flag, lanes)`` for each ledger key an op charged at
    kinds *kv* and vec context *vec* takes; lanes None means all."""
    if kv.u is not None and type(vec) is bool:
        return [(kv.u, vec, None)]
    vecs = np.full(kv.arr.size, vec) if type(vec) is bool else vec.arr
    parts = []
    for kind in np.unique(kv.arr).tolist():
        for v in (False, True):
            part = (kv.arr == kind) & (vecs == v)
            if part.any():
                parts.append((kind, v, part))
    return parts


class _Proc:
    """One procedure lowered for one wave: its binding plan and body."""

    __slots__ = ("qual", "name", "is_function", "result",
                 "inlinable", "chain", "scalars", "arrays", "locals",
                 "body")


# ---------------------------------------------------------------------------
# The lockstep engine
# ---------------------------------------------------------------------------


class _Engine:
    """Executes the program once for all lanes under activity masks.

    Each procedure body is lowered into closures (:class:`_Lowerer`) at
    the procedure's first call and kept in ``procs`` for the rest of the
    wave; the methods here are the run-time kernels those closures call.
    """

    def __init__(self, index: ProgramIndex,
                 overlays: list[dict[str, int]],
                 vec_info: Optional[ProgramVecInfo],
                 max_ops: Optional[int]):
        self.index = index
        self.overlays = overlays
        self.vec_info = vec_info
        self.max_ops = max_ops
        self.width = len(overlays)
        self.intern = _Intern(self.width)

        self.alive = np.ones(self.width, dtype=bool)
        self.lane_index = np.arange(self.width)
        self.epoch = 0
        self.dead = False
        self.fallback_reason: dict[int, str] = {}
        # Lanes that executed an ``error stop`` are finished, not fallen
        # back: their vector-side ledger/stdout prefix IS the scalar
        # history, and the harness re-raises the recorded error.
        self.stopped: dict[int, tuple[str, int]] = {}
        self.stopped_at: dict[int, int] = {}
        self.call_no = -1
        # The harness call's array arguments (argument position, lifted
        # array), and each stopped lane's slices of them as they were at
        # its stop: later stores in the call may write a dead lane's
        # slots (`_masked_array_store`).
        self.call_arrays: list[tuple[int, _BArr]] = []
        self.stopped_arrays: dict[int, dict[int, np.ndarray]] = {}

        # Charge-event journal: key -> [accumulated n, first sequence no].
        # Replayed into per-lane ledgers; see `ledger_for`.
        self.events: dict[tuple, list[int]] = {}
        self._seq = 0
        self._ledgers: list[Ledger] = []
        self._ledgers_seq = -1
        # Op totals per mask since the last budget check, folded into
        # the per-lane running totals at each check.
        self.totals: dict[_Mask, int] = {}
        self.lane_ops = np.zeros(self.width, dtype=np.int64)
        self.stdout: list[list[str]] = [[] for _ in range(self.width)]

        self.cur: Any = False                # vec context: False|True|_Mask
        # The innermost frame's live call mask (see `covers`).
        self.frame_mask = self.intern.full
        self.cur_sid = 0
        self.suppress = 0
        self.tick = 0
        self.devec: dict[int, np.ndarray] = {}
        self.loops: list[_LoopCtx] = []

        self.procs: dict[str, _Proc] = {}
        self.procedures_lowered = 0
        self._module_frames: dict[str, Frame] = {}
        self._elaborating: set[str] = set()
        self._kv_syms: dict[str, _KV] = {}
        self.n_dead = 0
        self._live_cache: dict[_Mask, _Mask] = {}
        self._covers_cache: dict[_Mask, bool] = {}
        self._live_epoch = -1
        self._promote_cache: dict[tuple, _KV] = {}
        self._m4_cache: dict[tuple, tuple] = {}
        self._cvt_cache: dict[tuple, tuple] = {}
        self._diff_cache: dict[tuple, Optional[_Mask]] = {}
        self._and_cache: dict[tuple, _Mask] = {}

    # -- lane lifecycle -------------------------------------------------

    def deactivate(self, lanes: np.ndarray, reason: str) -> None:
        """Send *lanes* to the scalar fallback path."""
        fresh = lanes & self.alive
        if not fresh.any():
            return
        for lane in np.flatnonzero(fresh):
            self.fallback_reason[int(lane)] = reason
        self.alive &= ~fresh
        self.n_dead = self.width - int(self.alive.sum())
        self.epoch += 1
        if not self.alive.any():
            raise _AllLanesDead()

    def deactivate_mask(self, mask: _Mask, reason: str) -> None:
        self.deactivate(mask.arr.copy(), reason)

    def deactivate_at(self, lane: int, reason: str) -> None:
        lanes = np.zeros(self.width, dtype=bool)
        lanes[lane] = True
        self.deactivate(lanes, reason)

    def stop_lanes(self, lanes: np.ndarray, message: str,
                   codes: np.ndarray) -> None:
        """Finish *lanes* with an ``error stop`` outcome (not fallback)."""
        fresh = lanes & self.alive
        if not fresh.any():
            return
        for lane in np.flatnonzero(fresh):
            code = int(codes[lane])
            self.stopped[int(lane)] = (message, code or 1)
            self.stopped_at[int(lane)] = self.call_no
            self.stopped_arrays[int(lane)] = {
                i: arr.data[lane].copy() for i, arr in self.call_arrays}
        self.alive &= ~fresh
        self.n_dead = self.width - int(self.alive.sum())
        self.epoch += 1
        if not self.alive.any():
            raise _AllLanesDead()

    # -- charge events --------------------------------------------------

    def _event(self, key: tuple, n: int) -> None:
        got = self.events.get(key)
        if got is None:
            self.events[key] = [n, self._seq]
        else:
            got[0] += n
        self._seq += 1

    def add_op(self, scope: str, opclass: str, kv: _KV, vec: Any, n: int,
               mask: _Mask) -> None:
        """*vec* is False, True, or an interned per-lane ``_Mask``."""
        if mask.n == 0 or n == 0:
            return
        key = ("op", scope, opclass, kv, vec, mask)
        got = self.events.get(key)
        if got is None:
            self.events[key] = [n, self._seq]
        else:
            got[0] += n
        self._seq += 1
        totals = self.totals
        totals[mask] = totals.get(mask, 0) + n

    def add_call(self, caller: str, callee: str, wrapped: Any,
                 mask: _Mask) -> None:
        if mask.n == 0:
            return
        self._event(("call", caller, callee, wrapped, mask), 1)

    def add_bc(self, caller: str, callee: str, elements: int,
               mask: _Mask) -> None:
        if mask.n == 0:
            return
        self._event(("bc", caller, callee, mask), elements)
        self.totals[mask] = self.totals.get(mask, 0) + elements

    def add_ar(self, scope: str, elements: int, mask: _Mask) -> None:
        if mask.n == 0:
            return
        self._event(("ar", scope, elements, mask), 1)
        self.totals[mask] = self.totals.get(mask, 0) + elements

    def ledger_for(self, lane: int) -> Ledger:
        """The lane's ledger: its charge-event subsequence, replayed.

        Events are keyed in first-touch order (a key enters ``events``
        with the then-current sequence number, which only grows), so
        one pass over them builds every lane's ledger with the dicts in
        the insertion order a scalar run produces.  The ledgers are
        rebuilt only when events arrived since the last build.
        """
        if self._ledgers_seq != self._seq:
            self._ledgers = self._replay_events()
            self._ledgers_seq = self._seq
        return self._ledgers[lane]

    def _replay_events(self) -> list[Ledger]:
        leds = [Ledger() for _ in range(self.width)]
        parts_of: dict[tuple, list] = {}
        for key, (n, _seq) in self.events.items():
            mask: _Mask = key[-1]
            tag = key[0]
            if tag == "op":
                _t, scope, opclass, kv, vec, _m = key
                parts = parts_of.get((kv, vec))
                if parts is None:
                    parts = parts_of[(kv, vec)] = _op_parts(kv, vec)
                for kind, v, part in parts:
                    lanes = np.flatnonzero(
                        mask.arr if part is None else part & mask.arr)
                    if not lanes.size:
                        continue
                    okey = OpKey(scope, opclass, kind, v)
                    for lane in lanes.tolist():
                        led = leds[lane]
                        led.ops[okey] += n
                        led.total_ops += n
                continue
            lanes = np.flatnonzero(mask.arr).tolist()
            if tag == "call":
                _t, caller, callee, wrapped, _m = key
                ckey = CallKey(caller, callee)
                for lane in lanes:
                    w = wrapped if type(wrapped) is bool \
                        else bool(wrapped.arr[lane])
                    e = leds[lane].calls[ckey]
                    e[0] += n
                    e[1] += n if w else 0
            elif tag == "bc":
                _t, caller, callee, _m = key
                for lane in lanes:
                    led = leds[lane]
                    led.add_boundary_cast(caller, callee, n)
                    led.total_ops += n
            else:  # ar
                _t, scope, elements, _m = key
                for lane in lanes:
                    led = leds[lane]
                    for _ in range(n):
                        led.add_allreduce(scope, elements)
        return leds

    def _check_budget(self) -> None:
        if self.max_ops is None:
            return
        ops = self.lane_ops
        for mask, n in self.totals.items():
            ops[mask.arr] += n
        self.totals.clear()
        over = self.alive & (ops > self.max_ops)
        if over.any():
            self.deactivate(over, "operation budget exceeded")

    # -- kind vectors ---------------------------------------------------

    def kv_for(self, sym: Symbol) -> Optional[_KV]:
        if sym.type_ != "real":
            return None
        qual = sym.qualified
        got = self._kv_syms.get(qual)
        if got is None:
            got = self.intern.kv(np.array(
                [effective_kind(sym, ov) for ov in self.overlays],
                dtype=np.int8))
            self._kv_syms[qual] = got
        return got

    def kv_of_type(self, static_type: Any) -> Optional[_KV]:
        """The kind vector a value of *static_type* (see
        :meth:`ScopeNames.static_type`) has in this wave: the per-lane
        join of its real operands' kinds, or None if it has none."""
        if type(static_type) is not tuple:
            return None
        kv = None
        for operand in static_type:
            k = (self.intern.kv_uniform(operand) if type(operand) is int
                 else self.kv_for(operand))
            kv = k if kv is None else self._m4(kv, k)[1]
        return kv

    def _promote_kv(self, a: Optional[_KV], b: Optional[_KV]) -> Optional[_KV]:
        if a is None:
            return b
        if b is None:
            return a
        if a is b:
            return a
        key = (a, b)
        got = self._promote_cache.get(key)
        if got is None:
            if b.u == KIND_SINGLE:
                got = a
            elif a.u == KIND_SINGLE:
                got = b
            else:
                got = self.intern.kv(np.maximum(a.arr, b.arr))
            self._promote_cache[key] = got
        return got

    def _kv_diff(self, a: _KV, b: _KV) -> Optional[_Mask]:
        """Lanes where two kind vectors differ, or None.  Kind vectors
        are interned, so they differ somewhere exactly when ``a is not
        b``."""
        if a is b:
            return None
        key = (a, b)
        got = self._diff_cache.get(key)
        if got is None:
            got = self._diff_cache[key] = self.intern.mask(a.arr != b.arr)
        return got

    def _cvt(self, kvl: _KV, kvr: _KV) -> tuple:
        """Lanes where the left / the right operand of a binary op is
        the narrower one and gets converted (interned masks or None)."""
        key = (kvl, kvr)
        got = self._cvt_cache.get(key)
        if got is None:
            lo = kvl.arr < kvr.arr
            hi = kvl.arr > kvr.arr
            got = (self.intern.mask(lo) if lo.any() else None,
                   self.intern.mask(hi) if hi.any() else None)
            self._cvt_cache[key] = got
        return got

    def _m4(self, kl: Optional[_KV], kr: Optional[_KV]) -> tuple:
        """``(m4c, kv_out)`` for real operands of kinds *kl*/*kr*: the
        lanes the scalar interpreter computes in float32 (None, True or
        a bool[L]) and the result's kind vector.  Exactly the lanes
        where every strong (non-weak) real operand is kind 4."""
        if ((kl is None and kr is None)
                or (kl is not None and not kl.any4)
                or (kr is not None and not kr.any4)):
            return None, self.intern.kv8
        key = (kl, kr)
        got = self._m4_cache.get(key)
        if got is None:
            if kl is None:
                m4c = kr.m4
            elif kr is None:
                m4c = kl.m4
            else:
                m4c = kl.m4 & kr.m4
            if not m4c.any():
                got = (None, self.intern.kv8)
            elif m4c.all():
                got = (True, self.intern.kv4)
            else:
                got = (m4c, self.intern.kv(
                    np.where(m4c, KIND_SINGLE, KIND_DOUBLE)))
            self._m4_cache[key] = got
        return got

    def _kv_val(self, v: Any) -> Optional[_KV]:
        t = type(v)
        if t is _LF or t is _BArr:
            return v.kv
        if t is int or t is _LI or t is _LB or t is bool:
            return None
        if t is float:
            return self.intern.kv8
        k = kind_of(v) if not isinstance(v, (int, bool, str)) else None
        return None if k is None else self.intern.kv_uniform(k)

    # -- masks ----------------------------------------------------------

    def _live(self, mask: _Mask) -> _Mask:
        if self.n_dead == 0:
            return mask
        if self._live_epoch != self.epoch:
            self._live_cache = {}
            self._covers_cache = {}
            self._live_epoch = self.epoch
        got = self._live_cache.get(mask)
        if got is None:
            got = self.intern.mask(mask.arr & self.alive)
            self._live_cache[mask] = got
        return got

    def covers_alive(self, mask: _Mask) -> bool:
        nd = self.n_dead
        if nd == 0:
            return mask.n == self.width
        if mask.n == self.width:
            return True
        if mask.n < self.width - nd:
            return False
        if self._live_epoch != self.epoch:
            self._live_cache = {}
            self._covers_cache = {}
            self._live_epoch = self.epoch
        got = self._covers_cache.get(mask)
        if got is None:
            got = self._covers_cache[mask] = bool(
                np.all(mask.arr[self.alive]))
        return got

    def covers(self, mask: _Mask, own: bool) -> bool:
        """Whether a store under *mask* may adopt its value outright:
        the mask covers every alive lane or, for a frame's *own* scalar
        (see :meth:`merge_lf`), the innermost frame's live lanes.

        Every statement mask of a body is a subset of its frame's call
        mask, so equal live counts mean equal live lanes."""
        if not own:
            return self.covers_alive(mask)
        frame = self.frame_mask
        if mask is frame:
            return True
        if self.n_dead == 0:
            return mask.n == frame.n
        return self._live(mask).n == self._live(frame).n

    def _and(self, a: _Mask, b: _Mask) -> _Mask:
        if a is b or b.n == self.width:
            return a
        if a.n == self.width:
            return b
        key = (a, b)
        got = self._and_cache.get(key)
        if got is None:
            got = self._and_cache[key] = self.intern.mask(a.arr & b.arr)
        return got

    def _or(self, a: _Mask, b: _Mask) -> _Mask:
        if a is b or b.n == 0:
            return a
        if a.n == 0:
            return b
        return self.intern.mask(a.arr | b.arr)

    def _andnot(self, a: _Mask, b: _Mask) -> _Mask:
        """``a & ~b``."""
        if b.n == 0:
            return a
        if a is b:
            return self.intern.empty
        return self.intern.mask(a.arr & ~b.arr)

    def _canon_vec(self, arr: np.ndarray) -> Any:
        if not arr.any():
            return False
        if arr.all():
            return True
        return self.intern.mask(arr)

    def _truthmask(self, cond: Any, mask: _Mask) -> _Mask:
        """Lanes of *mask* where *cond* is true (mirrors ``_truth``)."""
        t = type(cond)
        if t is _LB:
            return self.intern.mask(cond.arr & mask.arr)
        if t is bool or t is int or t is float or t is str:
            return mask if bool(cond) else self.intern.empty
        if t is _LI:
            return self.intern.mask((cond.arr != 0) & mask.arr)
        if t is _LF:
            return self.intern.mask((cond.data != 0.0) & mask.arr)
        self.deactivate_mask(mask, "array used as scalar condition")
        return self.intern.empty

    def _uniform_int(self, value: Any, mask: _Mask, what: str) -> int:
        """Collapse a value to one Python int; deactivates dissenters."""
        if type(value) is int:
            return value
        if type(value) is bool:
            return int(value)
        if type(value) is _LI:
            sub = value.arr[mask.arr]
            if sub.size == 0:
                return 0
            first = int(sub[0])
            if bool(np.all(sub == first)):
                return first
            diff = mask.arr & (value.arr != first)
            self.deactivate(diff, what)
            return first
        if type(value) is _LF:
            return self._uniform_int(
                _LI(np.trunc(value.data).astype(np.int64)), mask, what)
        raise _Unsupported(f"non-integer value for {what}")

    # -- value plumbing -------------------------------------------------

    def lift(self, value: Any) -> Any:
        """Lift a harness-level value into lane representation (copied)."""
        L = self.width
        if isinstance(value, FArray):
            if value.kind is None:
                data = np.repeat(value.data[None, ...], L, axis=0)
                return _BArr(np.ascontiguousarray(data), value.lbounds, None)
            kv = self.intern.kv_uniform(value.kind)
            data = np.repeat(value.data.astype(_F64)[None, ...], L, axis=0)
            return _BArr(np.ascontiguousarray(data), value.lbounds, kv)
        k = kind_of(value)
        if k is not None:
            return _LF(np.full(L, float(value), dtype=_F64),
                       self.intern.kv_uniform(k))
        return value

    def _placeholder(self) -> _LF:
        return _LF(np.zeros(self.width, dtype=_F64), self.intern.kv8)

    def merge_lf(self, old: Any, new: _LF, mask: _Mask,
                 own: bool = False) -> _LF:
        """Masked select of two real lane scalars.

        Dead-lane contents are never observed vector-side, so a mask
        covering every alive lane may simply adopt the new value.  The
        frame rule goes one step further for a frame's *own* scalars
        (its locals, scalar dummies, function result and declared
        ``do`` indices): lanes outside the frame's call never read
        them, so a mask covering the frame's live lanes adopts too.
        """
        if type(old) is not _LF or self.covers(mask, own):
            return new
        data = np.where(mask.arr, new.data, old.data)
        if new.kv is old.kv:
            kv = new.kv
        else:
            kv = self.intern.kv(np.where(mask.arr, new.kv.arr, old.kv.arr))
        return _LF(data, kv)

    def _merge_scalar(self, old: Any, new: Any, mask: _Mask,
                      own: bool = False) -> Any:
        """Masked select for real and integer scalar slots (*own*: see
        :meth:`merge_lf`)."""
        tn = type(new)
        if tn is _LF:
            return self.merge_lf(old, new, mask, own)
        if self.covers(mask, own):
            return new
        to = type(old)
        if tn is _LI or tn is int or tn is bool and to in (int, bool) \
                or to is _LI:
            if tn in (int, bool) and to in (int, bool) and int(new) == int(old):
                return old
            oarr = (old.arr if to is _LI
                    else np.full(self.width, int(old), dtype=np.int64)
                    if to in (int, bool)
                    else np.zeros(self.width, dtype=np.int64))
            narr = new.arr if tn is _LI else np.full(self.width, int(new),
                                                     dtype=np.int64)
            return _LI(np.where(mask.arr, narr, oarr))
        return new

    def cast_lf(self, value: Any, kv: _KV) -> _LF:
        """Mirror ``cast_real``: round a scalar value to per-lane kinds.

        A real lane scalar already of kind vector *kv* holds exactly
        those roundings (the ``_LF`` invariant), so it passes as is."""
        t = type(value)
        if t is _LF:
            if value.kv is kv:
                return value
            return _LF(_round_to(value.data, kv), kv)
        if t is _LI:
            return _LF(_round_to(value.arr.astype(_F64), kv), kv)
        if t in (int, float, bool):
            return _LF(_round_to(
                np.full(self.width, float(value), dtype=_F64), kv), kv)
        raise _Unsupported(f"cannot cast {t.__name__} to real")

    def to_int(self, value: Any, mask: _Mask) -> Any:
        """Mirror ``int()`` on a lane value; the mask's lanes holding
        a NaN fall back (lanes outside it never use the result)."""
        t = type(value)
        if t is int:
            return value
        if t is bool:
            return int(value)
        if t is _LI:
            return value
        if t is _LF:
            d = value.data
            if np.isnan(np.min(d)):
                self.deactivate(np.isnan(d) & mask.arr,
                                "nan store: scalar nan semantics")
            return _LI(np.trunc(d).astype(np.int64))
        if t is float:
            return int(value)
        if t is _LB:
            return _LI(value.arr.astype(np.int64))
        raise _Unsupported(f"cannot convert {t.__name__} to integer")

    def _store_loop_var(self, slot: dict, var: str, i: int,
                        cur: _Mask, own: bool) -> None:
        # Mirrors the scalar `slot[var] = i`: direct store, no charges.
        # Lanes that already left the loop keep their exit-time value
        # (*own*: the frame rule of `merge_lf`).
        if self.covers(cur, own):
            slot[var] = i
            return
        old = slot.get(var, 0)
        if type(old) is _LI:
            arr = old.arr.copy()
        else:
            arr = np.full(self.width,
                          int(old) if type(old) in (int, bool) else 0,
                          dtype=np.int64)
        arr[cur.arr] = i
        slot[var] = _LI(arr)

    def _name_setter(self, slot: dict, name: str) -> Callable:
        """Masked write-back into a named actual argument's slot."""

        def set_name(new: Any, wmask: _Mask) -> None:
            cur = slot[name]
            if type(cur) is _BArr and type(new) is _BArr:
                data = (new.data if cur.kv is None
                        else _round_to(new.data, cur.kv))
                if self.covers_alive(wmask):
                    cur.data[...] = data
                else:
                    cur.data[wmask.arr] = data[wmask.arr]
            else:
                slot[name] = self._merge_scalar(cur, new, wmask)

        return set_name

    # -- per-lane native reconstruction (for non-exactly-rounded ops) ---

    def _native_scalar(self, v: Any, lane: int) -> Any:
        """The value the scalar interpreter would hold at this lane."""
        t = type(v)
        if t is _LF:
            if v.kv.at(lane) == KIND_SINGLE:
                return np.float32(v.data[lane])
            return np.float64(v.data[lane])
        if t is _LI:
            return int(v.arr[lane])
        if t is _LB:
            return bool(v.arr[lane])
        return v

    def _native_array(self, v: _BArr, lane: int) -> np.ndarray:
        """Native-dtype lane slice.  C-contiguous by construction; a
        non-contiguous slice (an array section) may take a different
        ufunc path than the scalar interpreter's strided view would, so
        callers must only use this on contiguous slices."""
        sl = v.data[lane]
        if not sl.flags.c_contiguous:
            raise _Unsupported("non-contiguous lane slice in native op")
        if v.kv is None:
            return sl
        if v.kv.at(lane) == KIND_SINGLE:
            return sl.astype(_F32)
        return sl

    def _native_value(self, v: Any, lane: int) -> Any:
        if type(v) is _BArr:
            return FArray(self._native_array(v, lane), v.lbounds,
                          None if v.kv is None else v.kv.at(lane))
        return self._native_scalar(v, lane)

    # ------------------------------------------------------------------
    # Elaboration and invocation
    # ------------------------------------------------------------------

    def _module_frame(self, name: str, mask: _Mask) -> Frame:
        frame = self._module_frames.get(name)
        if frame is not None:
            return frame
        if name in self._elaborating:
            raise SemanticError(f"circular module dependency at {name!r}")
        self._elaborating.add(name)
        try:
            scope = self.index.modules.get(name)
            if scope is None:
                raise SemanticError(f"no module named {name!r}")
            chain = [self._module_frame(u, mask).values for u in scope.uses]
            frame = Frame(name, chain)
            self._module_frames[name] = frame
            lower = _Lowerer(self, scope, ScopeNames(self.index, None))
            for sym in scope.symbols.values():
                frame.values[sym.name] = lower.elaborator(sym)(frame, mask)
        finally:
            self._elaborating.discard(name)
        return frame

    def _lower(self, qual: str, proc: F.ProcedureUnit,
               mask: _Mask) -> _Proc:
        """Lower *proc* for this wave (its first call elaborates the
        modules its frames chain to, in the scalar interpreter's
        order)."""
        info = self.index.scopes[qual]
        names = ScopeNames(self.index, info)
        chain = [self._module_frame(m, mask).values for m in names.modules]
        code = _Lowerer(self, info, names).procedure(proc, chain)
        self.procs[qual] = code
        self.procedures_lowered += 1
        return code

    def _binvoke(self, qual: str, proc: F.ProcedureUnit, actuals: list,
                 caller_scope: str, vec_ctx: Any, mask: _Mask) -> Any:
        mask = self._live(mask)
        if mask.n == 0:
            return self._placeholder() if isinstance(proc, F.Function) \
                else None
        code = self.procs.get(qual)
        if code is None:
            code = self._lower(qual, proc, mask)
        is_function = code.is_function
        frame = Frame(qual, code.chain)
        values = frame.values
        wrapped_arr = np.zeros(self.width, dtype=bool)
        real_actual_kvs: list[_KV] = []
        writebacks: list[tuple] = []

        for pos, dummy_name, type_, kd_kv, writes_back in code.scalars:
            value, setter = actuals[pos]
            if type_ == "real":
                if value is None:
                    value = 0.0
                    ka_kv = kd_kv
                else:
                    ka_kv = self._kv_val(value)
                    if ka_kv is None:
                        ka_kv = kd_kv
                real_actual_kvs.append(ka_kv)
                if ka_kv is not kd_kv:
                    mm = self._and(self._kv_diff(ka_kv, kd_kv), mask)
                    if mm.n:
                        wrapped_arr |= mm.arr
                        self.add_bc(caller_scope, qual, 1, mm)
                values[dummy_name] = self.cast_lf(value, kd_kv)
                if setter is not None and writes_back:
                    writebacks.append(("rs", dummy_name, ka_kv, setter))
            elif type_ == "integer":
                # OutBox(None): bind the declared type's zero.
                values[dummy_name] = (0 if value is None
                                      else self.to_int(value, mask))
                if setter is not None and writes_back:
                    writebacks.append(("pl", dummy_name, None, setter))
            else:
                raise _Unsupported(f"{type_} scalar {dummy_name!r}")

        for pos, dummy_name, sym, kd_kv, writes_back, lbs in code.arrays:
            value = actuals[pos][0]
            if sym.type_ == "derived":
                values[dummy_name] = value
                continue
            if type(value) is not _BArr:
                self.deactivate_mask(
                    mask, f"argument {dummy_name!r} of {code.name!r} "
                    "must be an array")
                return self._placeholder() if is_function else None
            if len(lbs) != value.rank:
                self.deactivate_mask(
                    mask, f"rank mismatch binding {sym.name!r}: dummy rank "
                    f"{len(lbs)}, actual rank {value.rank}")
                return self._placeholder() if is_function else None
            lbounds = tuple(
                1 if lower is None else self._uniform_int(
                    lower(frame, mask), mask, "dummy array bound")
                for lower in lbs)
            if sym.type_ == "real":
                assert kd_kv is not None and value.kv is not None
                real_actual_kvs.append(value.kv)
                mm = self._and(self._kv_diff(value.kv, kd_kv), mask) \
                    if value.kv is not kd_kv else self.intern.empty
                if not mm.n:
                    values[dummy_name] = _BArr(value.data, lbounds, kd_kv)
                else:
                    wrapped_arr |= mm.arr
                    self.add_bc(caller_scope, qual, value.size, mm)
                    data = _round_to(value.data, kd_kv)
                    if data is value.data:
                        data = data.copy()
                    values[dummy_name] = _BArr(data, lbounds, kd_kv)
                    writebacks.append(
                        ("ra", dummy_name, value,
                         mm.arr.copy() if writes_back else None))
            else:
                values[dummy_name] = _BArr(value.data, lbounds, value.kv)

        for name, elaborate in code.locals:
            values[name] = elaborate(frame, mask)

        if vec_ctx is False or not code.inlinable:
            frame.vec_inherit = False
        else:
            base = (np.ones(self.width, dtype=bool) if vec_ctx is True
                    else vec_ctx.arr)
            frame.vec_inherit = self._canon_vec(base & ~wrapped_arr)
        if wrapped_arr.any() and self.cur_sid:
            dv = self.devec.get(self.cur_sid)
            if dv is None:
                self.devec[self.cur_sid] = wrapped_arr.copy()
            else:
                dv |= wrapped_arr
        sub = wrapped_arr[mask.arr]
        if not sub.any():
            w_canon: Any = False
        elif sub.all():
            w_canon = True
        else:
            w_canon = self.intern.mask(wrapped_arr & mask.arr)
        self.add_call(caller_scope, qual, w_canon, mask)

        outer = self.frame_mask
        self.frame_mask = body_mask = self._live(mask)
        code.body(frame, body_mask)
        self.frame_mask = outer

        wmask = self._live(mask)
        if wmask.n:
            for tag, dummy_name, extra, *rest in writebacks:
                final = values[dummy_name]
                if tag == "rs":
                    ka_kv = extra
                    setter = rest[0]
                    if type(final) is not _LF:
                        final = self.cast_lf(final, ka_kv)
                    mm2 = (final.kv.arr != ka_kv.arr) & wmask.arr
                    if mm2.any():
                        self.add_bc(caller_scope, qual, 1,
                                    self.intern.mask(mm2))
                    setter(self.cast_lf(final, ka_kv), wmask)
                elif tag == "pl":
                    rest[0](final, wmask)
                else:  # "ra"
                    orig = extra
                    mm = rest[0]
                    matched = (wmask.arr
                               & ~(final.kv.arr != orig.kv.arr))
                    if matched.any():
                        orig.data[matched] = final.data[matched]
                    if mm is not None:
                        sel2 = wmask.arr & mm
                        if sel2.any():
                            self.add_bc(caller_scope, qual, final.size,
                                        self.intern.mask(sel2))
                            orig.data[sel2] = _round_to(
                                final.data, orig.kv)[sel2]

        if is_function:
            result = values.get(code.result)
            if wrapped_arr.any() and real_actual_kvs:
                rkv = self._kv_val(result)
                if rkv is not None:
                    k0 = real_actual_kvs[0].arr
                    agree = np.ones(self.width, dtype=bool)
                    for kv in real_actual_kvs[1:]:
                        agree &= kv.arr == k0
                    cond = (wrapped_arr & agree & (k0 != rkv.arr)
                            & wmask.arr)
                    if cond.any():
                        k0_kv = self.intern.kv(k0)
                        self.add_op(caller_scope, "convert", k0_kv, False,
                                    _elems(result), self.intern.mask(cond))
                        out_kv = self.intern.kv(
                            np.where(cond, k0, rkv.arr))
                        if type(result) is _LF:
                            data = np.where(
                                cond, _round_to(result.data, k0_kv),
                                result.data)
                            result = _LF(data, out_kv)
                        elif type(result) is _BArr:
                            sel = _expand(cond, result.data.ndim)
                            data = np.where(
                                sel, _round_to(result.data, k0_kv),
                                result.data)
                            result = _BArr(data, result.lbounds, out_kv)
            return result
        return None

    def execute_call(self, name: str, pairs: list) -> Any:
        """Engine entry point: invoke *name* for every live lane.

        *pairs* is a list of ``(lifted value, masked setter or None)``;
        uniform structural errors (unknown procedure, arity) raise to
        the harness, which sends every lane to the scalar fallback.
        """
        scope = self.index.find_procedure(name)
        if scope is None:
            raise SemanticError(f"no procedure named {name!r}")
        proc = scope.node
        assert isinstance(proc, F.ProcedureUnit)
        if len(pairs) != len(proc.args):
            raise FortranRuntimeError(
                f"{name} expects {len(proc.args)} arguments, "
                f"got {len(pairs)}")
        self.call_no += 1
        mask = self.intern.mask(self.alive.copy())
        with np.errstate(all="ignore"):
            result = self._binvoke(scope.name, proc, pairs,
                                   caller_scope="<harness>",
                                   vec_ctx=False, mask=mask)
        self._check_budget()
        return result

    # ------------------------------------------------------------------
    # Run-time kernels of the lowered code
    # ------------------------------------------------------------------

    def _masked_array_store(self, arr: _BArr, key: tuple, raw: Any,
                            mask: _Mask, exact: bool = False) -> None:
        """Store *raw* into ``arr.data[:, *key]`` for the mask's lanes,
        rounding through the array's per-lane kind (unless *exact*: raw
        already holds those roundings)."""
        dest = arr.data[(slice(None), *key)] if key else arr.data
        try:
            if arr.kv is not None:
                self._nan_guard(raw, mask)
                if isinstance(raw, np.ndarray):
                    if exact:
                        src = raw
                    else:
                        src = _round_to(raw.astype(_F64, copy=False), arr.kv) \
                            if raw.dtype != _F64 else _round_to(raw, arr.kv)
                else:
                    src = _round_to(
                        np.full(self.width, float(raw), dtype=_F64), arr.kv)
                    src = _expand(src, dest.ndim)
            else:
                src = raw
            if self.covers_alive(mask):
                dest[...] = src
            elif isinstance(src, np.ndarray) and src.shape \
                    and src.shape[0] == self.width:
                dest[mask.arr] = src[mask.arr]
            else:
                dest[mask.arr] = src
        except (ValueError, IndexError, TypeError) as exc:
            self.deactivate_mask(mask, f"array store failed: {exc}")

    def _scatter(self, arr: _BArr, gather: tuple, value: Any,
                 mask: _Mask) -> None:
        """Per-lane store with divergent integer indices."""
        lanes = np.flatnonzero(mask.arr)
        where = (lanes, *(g[lanes] for g in gather))
        tv = type(value)
        if tv is _LF:
            vals = _round_to(value.data, arr.kv) if arr.kv is not None \
                else value.data
            arr.data[where] = vals[lanes]
        elif tv is _LI or tv is _LB:
            arr.data[where] = value.arr[lanes]
        elif tv in (int, float, bool):
            if arr.kv is not None:
                v = _round_to(np.full(self.width, float(value), dtype=_F64),
                              arr.kv)
                arr.data[where] = v[lanes]
            else:
                arr.data[where] = value
        else:
            self.deactivate_mask(mask, "unsupported scatter value")

    def _nan_guard(self, out: Any, mask: _Mask) -> None:
        """Send lanes about to *store* a NaN to the scalar fallback.

        NaN creation is bit-identical between NumPy's scalar and array
        inner loops (the invalid-operation QNaN), but propagation is
        not: with two NaN operands the scalar loop keeps the second
        NaN where the array loop keeps the first, and ``np.sin`` of a
        float32 scalar ``-nan`` returns ``+nan`` while the array loop
        preserves the sign.  A NaN therefore cannot feed any further
        vectorized op bit-exactly — so it must never enter engine
        state.  Guarding at the store boundary (scalar assignment,
        array store, int conversion) keeps the hot arithmetic path
        check-free: values that only pass *through* an expression
        (comparisons, prints, single-NaN chains) are payload-stable.
        NaNs mean the variant is numerically broken anyway, so this
        valve costs nothing on healthy campaigns.
        """
        if isinstance(out, np.ndarray):
            if out.dtype.kind != "f" or not out.size:
                return
            least = _MINIMUM(out, axis=None)     # NaN iff any NaN
            if least == least:
                return
            bad = np.isnan(out)
            if out.ndim and out.shape[0] == self.width:
                if bad.ndim > 1:
                    bad = bad.any(axis=tuple(range(1, bad.ndim)))
            else:
                bad = None          # uniform payload: all masked lanes
        elif isinstance(out, (float, np.floating)):
            if out == out:
                return
            bad = None
        else:
            return
        sel = mask.arr & self.alive
        if bad is not None:
            sel = sel & bad
        if sel.any():
            self.deactivate(sel, "nan store: scalar nan semantics")

    def _int_raw(self, v: Any) -> Any:
        t = type(v)
        if t is _LI:
            return v.arr
        if t is _LB:
            return v.arr.astype(np.int64)
        if t is bool:
            return int(v)
        return v

    def _int_binop(self, op: str, left: Any, right: Any,
                   mask: _Mask) -> Any:
        """Pure integer/logical arithmetic (free in the cost model)."""
        tl, tr = type(left), type(right)
        if tl is _BArr or tr is _BArr:
            raise _Unsupported("integer-array arithmetic")
        if tl in (_LI, _LB) or tr in (_LI, _LB):
            l = self._int_raw(left)
            r = self._int_raw(right)
            if op in _CMP_OPS:
                out = _CMP_FNS[op](l, r)
                if out.shape == (self.width,):
                    return _LB(out)
                return _LB(np.broadcast_to(out, (self.width,)).copy())
            if op == "/":
                l64 = np.asarray(l, dtype=np.int64)
                r64 = np.asarray(r, dtype=np.int64)
                zero = np.broadcast_to(r64 == 0, (self.width,)) & mask.arr
                if zero.any():
                    self.deactivate(zero.copy(), "integer division by zero")
                rsafe = np.where(r64 == 0, 1, r64)
                q = l64 // rsafe
                rem = l64 - q * rsafe
                q = q + ((rem != 0) & ((l64 < 0) != (rsafe < 0)))
                return _LI(np.broadcast_to(q, (self.width,)).astype(np.int64))
            if op == "**":
                l64 = np.broadcast_to(np.asarray(l, dtype=np.int64),
                                      (self.width,))
                r64 = np.broadcast_to(np.asarray(r, dtype=np.int64),
                                      (self.width,))
                neg = r64 < 0
                zero = neg & (l64 == 0) & mask.arr
                if zero.any():
                    self.deactivate(zero, "integer division by zero")
                # ``int_pow``'s rules for a negative exponent: a base of 1
                # gives 1 (here 1**0), -1 gives +-1 by parity, any other 0.
                out = l64 ** np.where(neg, 0, r64)
                out = np.where(neg & (l64 != 1),
                               np.where(l64 == -1, 1 - 2 * (r64 & 1), 0), out)
                return _LI(out)
            if op == "+":
                out = l + r
            elif op == "-":
                out = l - r
            elif op == "*":
                out = l * r
            else:
                self.deactivate_mask(
                    mask, f"unsupported integer operation {op!r}")
                out = np.zeros(self.width, dtype=np.int64)
            if out.shape == (self.width,) and out.dtype == np.int64:
                return _LI(out)
            return _LI(np.broadcast_to(out, (self.width,)).astype(np.int64))
        # Lane-uniform Python operands: exact Python semantics (unbounded
        # ints, truncating division).
        if op in _CMP_OPS:
            return bool(_CMP_FNS[op](left, right))
        if op == "/":
            if right == 0:
                self.deactivate_mask(mask, "integer division by zero")
                return 0
            return (int(left / right)
                    if (left < 0) != (right < 0) and left % right != 0
                    else left // right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "**":
            try:
                return int_pow(left, right)
            except FortranRuntimeError as exc:
                self.deactivate_mask(mask, str(exc))
                return 0
        self.deactivate_mask(mask, f"unsupported integer operation {op!r}")
        return 0

    def _wide_raw(self, v: Any, ndim: int) -> Any:
        """Raw widened operand for exactly-rounded float64 computation."""
        t = type(v)
        if t is _LF:
            return _expand(v.data, ndim)
        if t is _LI:
            return _expand(v.arr, ndim)
        if t is _LB:
            return _expand(v.arr.astype(np.int64), ndim)
        if t is _BArr:
            return v.data
        if t is bool:
            return int(v)
        return v

    def _f32_raw(self, v: Any, ndim: int) -> Any:
        """Raw operand for the float32 computation path.

        Lane integers mirror NEP 50 weak Python ints (cast to float32);
        Python scalars stay weak so NumPy applies the same promotion the
        scalar interpreter saw.
        """
        t = type(v)
        if t is _LF:
            return _expand(v.data.astype(_F32), ndim)
        if t is _LI:
            return _expand(v.arr.astype(_F32), ndim)
        if t is _LB:
            return _expand(v.arr.astype(np.int64), ndim)
        if t is _BArr:
            if v.kv is None:
                return v.data
            return v.data.astype(_F32)
        if t is bool:
            return int(v)
        return v

    def _real_compare(self, op: str, left: Any, right: Any) -> Any:
        tl, tr = type(left), type(right)
        has_arr = tl is _BArr or tr is _BArr
        if tl is _BArr:
            ndim = (left.data.ndim if tr is not _BArr
                    else max(left.data.ndim, right.data.ndim))
        elif tr is _BArr:
            ndim = right.data.ndim
        else:
            ndim = 1
        out = _CMP_FNS[op](self._wide_raw(left, ndim),
                           self._wide_raw(right, ndim))
        if has_arr:
            template = left if tl is _BArr else right
            return _BArr(out, template.lbounds, None)
        if isinstance(out, np.ndarray):
            return _LB(out)
        return bool(out)

    def _real_arith(self, op: str, left: Any, right: Any,
                    mask: _Mask) -> Any:
        if op == "**":
            return self._pow_native(left, right, mask)
        tl, tr = type(left), type(right)
        has_int_arr = ((tl is _BArr and left.kv is None)
                       or (tr is _BArr and right.kv is None))
        if tl is _BArr:
            ndim = (left.data.ndim if tr is not _BArr
                    else max(left.data.ndim, right.data.ndim))
        elif tr is _BArr:
            ndim = right.data.ndim
        else:
            ndim = 1
        fn = _ARITH_FN.get(op)
        if fn is None:
            raise _Unsupported(f"unsupported operation {op!r}")
        out = fn(self._wide_raw(left, ndim), self._wide_raw(right, ndim))
        kl = left.kv if (tl is _LF or tl is _BArr) else None
        kr = right.kv if (tr is _LF or tr is _BArr) else None
        if has_int_arr:
            kv_out = self.intern.kv8
        else:
            m4c, kv_out = self._m4(kl, kr)
            if m4c is not None and isinstance(out, np.ndarray) and out.ndim:
                out32 = fn(self._f32_raw(left, ndim),
                           self._f32_raw(right, ndim)).astype(_F64)
                if m4c is True:
                    out = out32
                else:
                    out = np.where(_expand(m4c, out.ndim), out32, out)
        if tl is _BArr or tr is _BArr:
            template = left if tl is _BArr else right
            return _BArr(out, template.lbounds, kv_out)
        if type(out) is np.ndarray and out.shape == (self.width,):
            if out.dtype != _F64:
                out = out.astype(_F64)
        else:
            out = np.full(self.width, float(out), dtype=_F64)
        return _LF(out, kv_out)

    def _pow_native(self, left: Any, right: Any, mask: _Mask) -> Any:
        """Per-lane native exponentiation (not exactly rounded)."""
        tl, tr = type(left), type(right)
        is_arr = tl is _BArr or tr is _BArr
        template = (left if tl is _BArr else right) if is_arr else None
        if is_arr:
            out = np.zeros((self.width, *template.shape), dtype=_F64)
        else:
            out = np.zeros(self.width, dtype=_F64)
        kvarr = np.full(self.width, KIND_DOUBLE, dtype=np.int8)
        for lane in np.flatnonzero(mask.arr & self.alive):
            lane = int(lane)
            try:
                l = self._native_value(left, lane)
                r = self._native_value(right, lane)
                lraw = l.data if isinstance(l, FArray) else l
                rraw = r.data if isinstance(r, FArray) else r
                res = lraw ** rraw
            except _Unsupported:
                self.deactivate_at(lane, "non-contiguous power operand")
                continue
            except Exception:
                self.deactivate_at(lane, "power operation failed")
                continue
            if isinstance(res, np.ndarray):
                if res.dtype == _F32:
                    kvarr[lane] = KIND_SINGLE
                out[lane] = res
            elif isinstance(res, (float, np.floating)):
                if isinstance(res, np.float32):
                    kvarr[lane] = KIND_SINGLE
                out[lane] = float(res)
            else:
                self.deactivate_at(lane, "non-real power result")
        if is_arr:
            return _BArr(out, template.lbounds, self.intern.kv(kvarr))
        return _LF(out, self.intern.kv(kvarr))

    # -- vectorized intrinsic kernels (exact under widening) ------------

    def _intr_abs(self, args: list, mask: _Mask) -> Any:
        (x,) = args
        t = type(x)
        if t is _LF:
            return _LF(np.abs(x.data), x.kv)
        if t is _BArr:
            return _BArr(np.abs(x.data), x.lbounds, x.kv)
        if t is _LI or t is bool or t is int:
            # The scalar call returns a NumPy integer, which widens a
            # float32 operand to float64; the engine's lane integers,
            # weak like Python ints, would not.
            raise _Unsupported("integer abs")
        return _LF(np.full(self.width, float(np.abs(x)), dtype=_F64),
                   self.intern.kv8)

    def _intr_sqrt(self, args: list, mask: _Mask) -> Any:
        (x,) = args
        t = type(x)
        if t is _LF:
            return _LF(self._sqrt_dual(x.data, x.kv), x.kv)
        if t is _BArr and x.kv is not None:
            return _BArr(self._sqrt_dual(x.data, x.kv), x.lbounds, x.kv)
        # Integer / Python operands: NumPy yields float64 either way.
        if t is _LI:
            return _LF(np.sqrt(x.arr.astype(_F64)), self.intern.kv8)
        if t is _BArr:
            return _BArr(np.sqrt(x.data.astype(_F64)), x.lbounds,
                         self.intern.kv8)
        return _LF(np.full(self.width, float(np.sqrt(x)), dtype=_F64),
                   self.intern.kv8)

    def _sqrt_dual(self, data: np.ndarray, kv: _KV) -> np.ndarray:
        if kv.u == KIND_SINGLE:
            return np.sqrt(data.astype(_F32)).astype(_F64)
        out = np.sqrt(data)
        if kv.u == KIND_DOUBLE:
            return out
        r32 = np.sqrt(data.astype(_F32)).astype(_F64)
        return np.where(_expand(kv.m4, data.ndim), r32, out)

    def _intr_minmax(self, name: str, args: list, mask: _Mask) -> Any:
        if len(args) < 2:
            self.deactivate_mask(mask,
                                 "min/max need at least two arguments")
            return self._placeholder()
        if any(type(a) is _BArr for a in args):
            raise _Unsupported("array min/max")
        if all(type(a) in (int, bool) or type(a) is _LI for a in args):
            if all(type(a) in (int, bool) for a in args):
                fn = min if name == "min" else max
                return fn(int(a) for a in args)
            out = None
            for a in args:
                r = self._int_raw(a)
                if out is None:
                    out = np.broadcast_to(np.asarray(r, dtype=np.int64),
                                          (self.width,)).copy()
                elif name == "min":
                    out = np.where(np.less(r, out), r, out)
                else:
                    out = np.where(np.greater(r, out), r, out)
            return _LI(out.astype(np.int64))
        # Python's min()/max() keeps the current value on a False
        # comparison, so NaNs stick only when they arrive first --
        # mirror that exactly (np.minimum would propagate them always).
        kvp = self.intern.kv4
        out = None
        for a in args:
            kv = self._kv_val(a)
            if kv is not None:
                kvp = self._promote_kv(kvp, kv)
            r = self._wide_raw(a, 1)
            if out is None:
                out = np.broadcast_to(
                    np.asarray(r, dtype=_F64), (self.width,)).copy()
            elif name == "min":
                out = np.where(np.less(r, out), r, out)
            else:
                out = np.where(np.greater(r, out), r, out)
        return _LF(_round_to(out, kvp), kvp)

    def _intr_model_query(self, name: str, args: list,
                          mask: _Mask) -> Any:
        (x,) = args
        kv = self._kv_val(x)
        if kv is None:
            self.deactivate_mask(mask, "numeric-model inquiry needs a real")
            return self._placeholder()
        v4, v8 = _MQ_CONST[name]
        data = np.where(kv.m4, v4, v8)
        return _LF(data, kv)

    # -- per-lane native calls: inexact and unmodeled intrinsics --------

    def _native_intrinsic(self, intr, args: list, kwargs: dict,
                          mask: _Mask) -> Any:
        lanes = np.flatnonzero(mask.arr & self.alive)
        results: dict[int, Any] = {}
        for lane in lanes:
            lane = int(lane)
            try:
                nargs = [self._native_value(a, lane) for a in args]
                nkw = {k: self._native_value(v, lane)
                       for k, v in kwargs.items()}
                res = intr.fn(*nargs, **nkw)
            except _Unsupported:
                self.deactivate_at(lane, f"{intr.name}: native fallback")
                continue
            except FortranRuntimeError as exc:
                self.deactivate_at(lane, str(exc))
                continue
            except Exception:
                self.deactivate_at(lane, f"{intr.name} failed")
                continue
            results[lane] = res
        if not results:
            return self._placeholder()
        first = next(iter(results.values()))
        if isinstance(first, FArray) or isinstance(first, np.ndarray):
            fr = first.data if isinstance(first, FArray) else first
            lbounds = (first.lbounds if isinstance(first, FArray)
                       else (1,) * fr.ndim)
            if fr.dtype.kind == "f":
                out = np.zeros((self.width, *fr.shape), dtype=_F64)
                kvarr = np.full(self.width, KIND_DOUBLE, dtype=np.int8)
                for lane, res in results.items():
                    raw = res.data if isinstance(res, FArray) else res
                    out[lane] = raw
                    if raw.dtype == _F32:
                        kvarr[lane] = KIND_SINGLE
                return _BArr(out, lbounds, self.intern.kv(kvarr))
            out = np.zeros((self.width, *fr.shape), dtype=fr.dtype)
            for lane, res in results.items():
                out[lane] = res.data if isinstance(res, FArray) else res
            return _BArr(out, lbounds, None)
        if isinstance(first, (float, np.floating)):
            data = np.zeros(self.width, dtype=_F64)
            kvarr = np.full(self.width, KIND_DOUBLE, dtype=np.int8)
            for lane, res in results.items():
                data[lane] = float(res)
                if isinstance(res, np.float32):
                    kvarr[lane] = KIND_SINGLE
            return _LF(data, self.intern.kv(kvarr))
        if isinstance(first, (bool, np.bool_)):
            arr = np.zeros(self.width, dtype=bool)
            for lane, res in results.items():
                arr[lane] = bool(res)
            return _LB(arr)
        # A NumPy integer (sum or maxval of an integer array, merge of
        # integers) widens a float32 operand to float64, which the
        # engine's per-lane integers, weak like Python ints, do not.
        if type(first) is int:
            arr = np.zeros(self.width, dtype=np.int64)
            for lane, res in results.items():
                arr[lane] = int(res)
            return _LI(arr)
        self.deactivate_mask(mask, f"{intr.name}: unsupported result type")
        return self._placeholder()

    # -- lane extraction ------------------------------------------------

    def lane_value(self, value: Any, lane: int) -> Any:
        """Project an engine value to the scalar value lane would see."""
        t = type(value)
        if t is _LF:
            k = int(value.kv.arr[lane])
            return dtype_for_kind(k).type(value.data[lane])
        if t is _LI:
            return int(value.arr[lane])
        if t is _BArr:
            if value.kv is None:
                return FArray(value.data[lane].copy(), value.lbounds, None)
            k = int(value.kv.arr[lane])
            return FArray(value.data[lane].astype(dtype_for_kind(k)),
                          value.lbounds, k)
        return value


# ---------------------------------------------------------------------------
# Lowering: procedure bodies become closures, once per wave
# ---------------------------------------------------------------------------

_LITERALS = (F.RealLit, F.IntLit)
#: ``general``'s marker for "no subscript evaluated yet".
_UNSET = object()


class _Lowerer:
    """Lowers one scope's statements and expressions into closures.

    Statement closures take ``(frame, mask)`` and return the mask of
    lanes that fall through; expression closures take ``(frame, mask)``
    and return a lane value.  Resolved here, once per wave: node
    dispatch, name to values dict, literal lane vectors, procedure and
    intrinsic routing, static vec flags, ledger-key parts, and the
    declared kind vectors with the promote / convert-lane / float32-lane
    decisions that follow from them (each site caches them against the
    operand kind vectors it last saw, which are seeded from the declared
    kinds).  Activity masks, dead lanes, ``devec``, ``vec_inherit``,
    values, the op budget and the NaN guards stay dynamic.

    *names* (:class:`ScopeNames`) places a procedure body's names; the
    elaboration lowerers get one that leaves every name to the frame's
    chain walk.
    """

    def __init__(self, engine: _Engine, info, names: ScopeNames):
        self.E = engine
        self.info = info
        self.scope = info.name
        self.names = names
        self.flags = (engine.vec_info.stmt_vec(info.name)
                      if engine.vec_info is not None else None)

    # -- names ----------------------------------------------------------

    def _fetch(self, name: str) -> Callable:
        sym, mod = self.names.lookup(name)
        if sym is None:
            return lambda frame: frame.find(name)
        if mod is None:
            return lambda frame: frame.values[name]
        values = self.E._module_frames[mod].values
        return lambda frame: values[name]

    def _slot(self, name: str) -> Callable:
        sym, mod = self.names.lookup(name)
        if sym is None:
            return lambda frame: frame.find_slot(name)
        if mod is None:
            return lambda frame: frame.values
        values = self.E._module_frames[mod].values
        return lambda frame: values

    def _own(self, name: str) -> bool:
        """Whether *name* is one of the frame's own scalars or arrays
        (placed in its values with no module): the frame rule's names,
        see :meth:`_Engine.merge_lf`."""
        sym, mod = self.names.lookup(name)
        return sym is not None and mod is None

    def _vec(self, s: F.Stmt) -> Callable:
        """Compiled ``_stmt_vec_mask``: the static flag, then the
        run-time ``vec_inherit`` and ``devec`` lanes."""
        E = self.E
        sid = id(s)
        static = self.flags is not None and self.flags.get(sid, False)
        devec = E.devec
        canon = E._canon_vec
        if static:
            def vec(frame):
                dv = devec.get(sid)
                if dv is None or not dv.any():
                    return True
                return canon(~dv)
        else:
            def vec(frame):
                base = frame.vec_inherit
                dv = devec.get(sid)
                if dv is None or not dv.any():
                    return base
                if base is False:
                    return False
                if base is True:
                    return canon(~dv)
                return canon(base.arr & ~dv)
        return vec

    # -- procedures and elaboration --------------------------------------

    def procedure(self, proc: F.ProcedureUnit, chain: list[dict]) -> _Proc:
        E = self.E
        info = self.info
        code = _Proc()
        code.qual = info.name
        code.name = proc.name
        code.is_function = isinstance(proc, F.Function)
        code.result = proc.result if code.is_function else None
        code.inlinable = (E.vec_info.is_inlinable(proc.name)
                          if E.vec_info is not None else False)
        code.chain = chain
        elab = _Lowerer(E, info, ScopeNames(E.index, None))
        code.scalars = []
        code.arrays = []
        for pos, dummy_name in enumerate(proc.args):
            sym = info.symbols[dummy_name]
            writes_back = (sym.intent in ("out", "inout")
                           or (sym.intent is None and not code.is_function))
            if sym.is_array or sym.type_ == "derived":
                lbs = None
                if sym.type_ != "derived":
                    lbs = [None if dim.assumed or dim.lower is None
                           else elab.expr(dim.lower) for dim in sym.dims]
                code.arrays.append((pos, dummy_name, sym, E.kv_for(sym),
                                    writes_back, lbs))
            else:
                code.scalars.append((pos, dummy_name, sym.type_,
                                     E.kv_for(sym), writes_back))
        code.locals = []
        bound = set(proc.args)
        for sym in info.symbols.values():
            if sym.is_argument or sym.name in bound:
                continue
            if sym.decl is not None and (
                    "save" in sym.decl.attrs
                    or (sym.init is not None and not sym.is_parameter)):
                code.locals.append(
                    (sym.name, _raiser(_Unsupported,
                                       f"SAVE local {sym.name!r}")))
            else:
                code.locals.append((sym.name, elab.elaborator(sym)))
        code.body = self.block(proc.body)
        return code

    def elaborator(self, sym: Symbol) -> Callable:
        """``(frame, mask) -> initial value`` of a declared symbol."""
        E = self.E
        kv = E.kv_for(sym)
        if sym.type_ == "derived":
            return _raiser(_Unsupported, "derived-type variables")
        if sym.is_array:
            if sym.is_allocatable:
                return lambda frame, mask: None
            return self._allocator(sym, kv)
        if sym.init is not None:
            return _raiser(_Unsupported, f"initialized scalar {sym.name!r}")
        if sym.type_ == "real":
            width = E.width
            return lambda frame, mask: _LF(np.zeros(width, dtype=_F64), kv)
        if sym.type_ == "integer":
            return lambda frame, mask: 0
        if sym.type_ in ("logical", "character"):
            return _raiser(_Unsupported, f"{sym.type_} scalar {sym.name!r}")
        return _raiser(SemanticError,
                       f"cannot elaborate symbol {sym.qualified}")

    def _allocator(self, sym: Symbol, kv: Optional[_KV]) -> Callable:
        E = self.E
        assumed = (f"array {sym.name!r} has assumed shape but no actual "
                   "argument to take it from")
        dims = [None if dim.assumed or dim.deferred else
                (None if dim.lower is None else self.expr(dim.lower),
                 self.expr(dim.upper))
                for dim in sym.dims]
        dtype = {"real": _F64, "integer": np.int64,
                 "logical": np.bool_}.get(sym.type_)
        arr_kv = kv if sym.type_ == "real" else None

        def alloc(frame, mask):
            shape = []
            lbounds = []
            for dim in dims:
                if dim is None:
                    raise FortranRuntimeError(assumed)
                lower, upper = dim
                lb = 1 if lower is None else E._uniform_int(
                    lower(frame, mask), mask, "array bound")
                ub = E._uniform_int(upper(frame, mask), mask, "array bound")
                lbounds.append(lb)
                shape.append(max(0, ub - lb + 1))
            if dtype is None:
                raise SemanticError(
                    f"cannot allocate array of type {sym.type_}")
            return _BArr(np.zeros((E.width, *shape), dtype=dtype),
                         tuple(lbounds), arr_kv)

        return alloc

    # -- statements -----------------------------------------------------

    def block(self, stmts: list) -> Callable:
        E = self.E
        fns = [self.stmt(s) for s in stmts]
        live = E._live

        def run(frame, mask):
            epoch = E.epoch
            for fn in fns:
                if E.epoch != epoch:
                    epoch = E.epoch
                    mask = live(mask)
                if mask.n == 0:
                    return mask
                E.tick += 1
                if E.tick >= _BUDGET_CHECK_INTERVAL:
                    E.tick = 0
                    E._check_budget()
                    if E.epoch != epoch:
                        epoch = E.epoch
                        mask = live(mask)
                        if mask.n == 0:
                            return mask
                mask = fn(frame, mask)
            return mask

        return run

    def stmt(self, s: F.Stmt) -> Callable:
        t = type(s)
        if t is F.Assignment:
            return self._assignment(s)
        if t is F.CallStmt:
            return self._call_stmt(s)
        if t is F.IfBlock:
            return self._if(s)
        if t is F.DoLoop:
            return self._do(s)
        if t is F.DoWhile:
            return self._do_while(s)
        if t is F.ExitStmt:
            return self._exit()
        if t is F.StopStmt:
            return self._stop(s)
        if t is F.PrintStmt:
            return self._print(s)
        return _raiser(_Unsupported, f"statement {t.__name__}")

    def _assignment(self, s: F.Assignment) -> Callable:
        E = self.E
        rhs = self.expr(s.value)
        store = self._target(s.target, isinstance(s.value, _LITERALS),
                             E.kv_of_type(self.names.static_type(s.value)))
        vec = self._vec(s)
        sid = id(s)
        live = E._live

        # An exception abandons the sweep (every lane re-runs on the
        # scalar path), so the saved context needs no ``finally``.
        def ex(frame, mask):
            prev, prev_sid = E.cur, E.cur_sid
            E.cur = vec(frame)
            E.cur_sid = sid
            store(frame, rhs(frame, mask), mask)
            E.cur, E.cur_sid = prev, prev_sid
            return live(mask)

        return ex

    def _target(self, target: F.Expr, rhs_lit: bool,
                rhs_kv: Optional[_KV]) -> Callable:
        if isinstance(target, F.Name):
            return self._store_name(target.name, rhs_lit, rhs_kv)
        if isinstance(target, F.Apply):
            E = self.E
            name = target.name
            fetch = self._fetch(name)
            store = self._store_indexed(target, rhs_lit, rhs_kv)
            message = f"subscripted assignment to non-array {name!r}"

            def assign(frame, value, mask):
                container = fetch(frame)
                if type(container) is not _BArr:
                    E.deactivate_mask(mask, message)
                    return
                store(frame, container, value, mask)

            return assign
        return _raiser(_Unsupported,
                       f"cannot assign to {type(target).__name__}")

    def _store_name(self, name: str, rhs_lit: bool,
                    rhs_kv: Optional[_KV]) -> Callable:
        """Compiled ``_convert_like`` into a named scalar: the value is
        cast to the slot's kinds, charging a convert on the lanes whose
        kinds differ (unless the RHS is a literal) and a store."""
        E = self.E
        scope = self.scope
        slot_of = self._slot(name)
        add_op = E.add_op
        nan_guard = E._nan_guard
        own = self._own(name)
        sym = self.names.lookup(name)[0]
        kd0 = E.kv_for(sym) if sym is not None and not sym.is_array else None
        # Site cache: the (value, slot) kind vectors last seen and the
        # lanes where they differ.
        c_kv, c_kd = rhs_kv, kd0
        c_diff = (E._kv_diff(rhs_kv, kd0)
                  if rhs_kv is not None and kd0 is not None else None)

        def assign(frame, value, mask):
            nonlocal c_kv, c_kd, c_diff
            slot = slot_of(frame)
            current = slot[name]
            tc = type(current)
            if tc is _LF:
                tv = type(value)
                if tv is _LF:
                    nan_guard(value.data, mask)
                    kv = value.kv
                else:
                    nan_guard(value, mask)
                    kv = E._kv_val(value)
                kd = current.kv
                cur = E.cur
                if kv is not None and not rhs_lit and kv is not kd:
                    if kv is not c_kv or kd is not c_kd:
                        c_kv, c_kd = kv, kd
                        c_diff = E._kv_diff(kv, kd)
                    add_op(scope, "convert", kd, cur, 1, E._and(c_diff, mask))
                add_op(scope, "store", kd, cur, 1, mask)
                slot[name] = E.merge_lf(current, E.cast_lf(value, kd), mask,
                                        own)
            elif tc is _BArr:
                raise _Unsupported("whole-array assignment")
            elif tc is int or tc is _LI:
                slot[name] = E._merge_scalar(current, E.to_int(value, mask),
                                             mask, own)
            elif type(value) is _LF:
                # Uninitialized slot: store as-is (mirrors the scalar
                # fallthrough).
                slot[name] = E._merge_scalar(current, value, mask, own)
            else:
                slot[name] = value

        return assign

    def _store_indexed(self, target: F.Apply, rhs_lit: bool,
                       rhs_kv: Optional[_KV]) -> Callable:
        """Compiled ``_assign_indexed``: store into an element or a
        section, charging convert / store like a scalar assignment."""
        E = self.E
        scope = self.scope
        index_key = self._index_key(target.args)
        add_op = E.add_op
        live = E._live
        sym = self.names.lookup(target.name)[0]
        kd0 = E.kv_for(sym) if sym is not None else None
        c_kv, c_kd = rhs_kv, kd0
        c_diff = (E._kv_diff(rhs_kv, kd0)
                  if rhs_kv is not None and kd0 is not None else None)

        def store(frame, arr, value, mask):
            nonlocal c_kv, c_kd, c_diff
            keyinfo = index_key(frame, mask, arr)
            if keyinfo is None:
                return
            key, n_elements, is_section, gather = keyinfo
            mask = live(mask)
            if mask.n == 0:
                return
            akv = arr.kv
            tv = type(value)
            if akv is not None:
                kv = value.kv if tv is _LF else E._kv_val(value)
                vec = True if is_section else E.cur
                if kv is not None and not rhs_lit and kv is not akv:
                    if kv is not c_kv or akv is not c_kd:
                        c_kv, c_kd = kv, akv
                        c_diff = E._kv_diff(kv, akv)
                    add_op(scope, "convert", akv, vec, n_elements,
                           E._and(c_diff, mask))
                add_op(scope, "store", akv, vec, n_elements, mask)
            if gather is not None:
                E._scatter(arr, gather, value, mask)
                return
            if tv is _BArr:
                raw: Any = value.data
                exact = value.kv is akv
            elif tv is _LF:
                raw = value.data if not is_section else _expand(
                    value.data, arr.data[(slice(None), *key)].ndim)
                exact = value.kv is akv
            elif tv is _LI or tv is _LB:
                raw = value.arr if not is_section else _expand(
                    value.arr, arr.data[(slice(None), *key)].ndim)
                exact = False
            else:
                raw = value
                exact = False
            E._masked_array_store(arr, key, raw, mask, exact)

        return store

    def _call_stmt(self, s: F.CallStmt) -> Callable:
        E = self.E
        scope = self.scope
        vec = self._vec(s)
        sid = id(s)
        live = E._live
        if s.name in _BUILTIN_SUBS:
            argfns = [self.expr(a) for a in s.args]

            def ex(frame, mask):
                prev, prev_sid = E.cur, E.cur_sid
                E.cur = vec(frame)
                E.cur_sid = sid
                args = [fn(frame, mask) for fn in argfns]
                if not args:
                    E.deactivate_mask(mask,
                                      "mpi_allreduce_* needs an argument")
                else:
                    E.add_ar(scope, _elems(args[0]), mask)
                E.cur, E.cur_sid = prev, prev_sid
                return live(mask)

            return ex
        pscope = E.index.find_procedure(s.name)
        if pscope is None:
            message = f"call to undefined subroutine {s.name!r}"

            def ex(frame, mask):
                E.deactivate_mask(mask, message)
                return live(mask)

            return ex
        qual, proc = pscope.name, pscope.node
        prepare = self._actuals(proc, s.args)

        def ex(frame, mask):
            prev, prev_sid = E.cur, E.cur_sid
            cur = E.cur = vec(frame)
            E.cur_sid = sid
            actuals = prepare(frame, mask)
            if actuals is not None:
                E._binvoke(qual, proc, actuals, scope, cur, live(mask))
            E.cur, E.cur_sid = prev, prev_sid
            return live(mask)

        return ex

    def _if(self, s: F.IfBlock) -> Callable:
        E = self.E
        vec = self._vec(s)
        arms = [(None if arm.cond is None else self.expr(arm.cond),
                 self.block(arm.body)) for arm in s.arms]
        live = E._live
        empty = E.intern.empty

        def ex(frame, mask):
            remaining = live(mask)
            done = empty
            for cond, body in arms:
                if remaining.n == 0:
                    break
                if cond is None:
                    done = E._or(done, body(frame, remaining))
                    remaining = empty
                    break
                prev = E.cur
                E.cur = vec(frame)
                value = cond(frame, remaining)
                E.cur = prev
                remaining = live(remaining)
                t = E._truthmask(value, remaining)
                if t.n:
                    done = E._or(done, body(frame, t))
                remaining = E._andnot(remaining, t)
            return live(E._or(done, remaining))

        return ex

    def _loop_slot(self, var: str) -> Callable:
        if self.names.lookup(var)[0] is None:
            return lambda frame: (frame.find_slot(var) if frame.has(var)
                                  else frame.values)
        return self._slot(var)

    def _do(self, s: F.DoLoop) -> Callable:
        E = self.E
        start = self.expr(s.start)
        stop = self.expr(s.stop)
        step = None if s.step is None else self.expr(s.step)
        body = self.block(s.body)
        var = s.var
        slot_of = self._loop_slot(var)
        own = self._own(var)
        live = E._live
        uniform = E._uniform_int
        empty = E.intern.empty
        loops = E.loops

        def ex(frame, mask):
            lo = start(frame, mask)
            if type(lo) is not int:
                lo = uniform(lo, mask, "divergent do-loop bound")
            mask = live(mask)
            if mask.n == 0:
                return mask
            hi = stop(frame, mask)
            if type(hi) is not int:
                hi = uniform(hi, mask, "divergent do-loop bound")
            mask = live(mask)
            if mask.n == 0:
                return mask
            if step is not None:
                inc = uniform(step(frame, mask), mask,
                              "divergent do-loop step")
                mask = live(mask)
                if mask.n == 0:
                    return mask
            else:
                inc = 1
            if inc == 0:
                E.deactivate_mask(mask, "do-loop step is zero")
                return live(mask)
            slot = slot_of(frame)
            ctx = _LoopCtx(empty)
            loops.append(ctx)
            cur = mask
            ft_exit = empty
            i = lo
            while (i <= hi) if inc > 0 else (i >= hi):
                cur = live(cur)
                if cur.n == 0:
                    break
                E._store_loop_var(slot, var, i, cur, own)
                cur = body(frame, cur)
                if ctx.exit.n:
                    ft_exit = E._or(ft_exit, ctx.exit)
                    ctx.exit = empty
                i += inc
            loops.pop()
            return live(E._or(cur, ft_exit))

        return ex

    def _do_while(self, s: F.DoWhile) -> Callable:
        E = self.E
        cond = self.expr(s.cond)
        body = self.block(s.body)
        live = E._live
        empty = E.intern.empty
        loops = E.loops

        def ex(frame, mask):
            ctx = _LoopCtx(empty)
            loops.append(ctx)
            cur = live(mask)
            ft = empty
            while True:
                cur = live(cur)
                if cur.n == 0:
                    break
                prev = E.cur
                E.cur = False
                value = cond(frame, cur)
                E.cur = prev
                cur = live(cur)
                t = E._truthmask(value, cur)
                ft = E._or(ft, E._andnot(cur, t))
                cur = t
                if cur.n == 0:
                    break
                cur = body(frame, cur)
                if ctx.exit.n:
                    ft = E._or(ft, ctx.exit)
                    ctx.exit = empty
            loops.pop()
            return live(ft)

        return ex

    def _exit(self) -> Callable:
        E = self.E
        loops = E.loops
        empty = E.intern.empty

        def ex(frame, mask):
            ctx = loops[-1]
            ctx.exit = E._or(ctx.exit, mask)
            return empty

        return ex

    def _stop(self, s: F.StopStmt) -> Callable:
        E = self.E
        code_of = None if s.code is None else self.expr(s.code)
        is_error = s.is_error
        message = s.message or ""
        live = E._live
        empty = E.intern.empty

        def ex(frame, mask):
            codes = np.zeros(E.width, dtype=np.int64)
            if code_of is not None:
                val = code_of(frame, mask)
                mask = live(mask)
                if mask.n == 0:
                    return mask
                t = type(val)
                if t is int or t is bool:
                    codes[:] = int(val)
                elif t is _LI:
                    codes = val.arr
                elif t is _LF:
                    codes = np.trunc(val.data).astype(np.int64)
                else:
                    raise _Unsupported("non-integer stop code")
            if is_error:
                err = mask.arr.copy()
            else:
                err = mask.arr & (codes != 0)
            if err.any():
                # The message is static and the code is recorded per
                # lane, so the harness re-raises the exact scalar
                # FortranStopError without leaving the vector path.
                E.stop_lanes(err, message, codes)
            return empty  # plain STOP behaves like RETURN

        return ex

    def _print(self, s: F.PrintStmt) -> Callable:
        E = self.E
        items = [self.expr(item) for item in s.items]
        live = E._live

        def ex(frame, mask):
            vals = [fn(frame, mask) for fn in items]
            if any(type(val) is _BArr for val in vals):
                raise _Unsupported("array item in print")
            mask = live(mask)
            for lane in np.flatnonzero(mask.arr):
                parts = []
                for val in vals:
                    t = type(val)
                    if t is _LF:
                        parts.append(str(E._native_scalar(val, int(lane))))
                    elif t is _LI:
                        parts.append(str(int(val.arr[lane])))
                    elif t is _LB:
                        parts.append(str(bool(val.arr[lane])))
                    else:
                        parts.append(str(val))
                E.stdout[int(lane)].append(" ".join(parts))
            return mask

        return ex

    # -- expressions ----------------------------------------------------

    def expr(self, e: F.Expr) -> Callable:
        E = self.E
        t = type(e)
        if t is F.IntLit or t is F.LogicalLit or t is F.StringLit:
            v = e.value
            return lambda frame, mask: v
        if t is F.RealLit:
            try:
                v = float(dtype_for_kind(e.kind).type(e.value))
            except Exception as exc:  # raised where the literal runs
                error = exc

                def bad_literal(frame, mask):
                    raise error

                return bad_literal
            lf = _LF(np.full(E.width, v, dtype=_F64),
                     E.intern.kv_uniform(e.kind))
            return lambda frame, mask: lf
        if t is F.Name:
            return self._name(e.name)
        if t is F.UnaryOp:
            return self._unary(e)
        if t is F.BinOp:
            return self._binop(e)
        if t is F.Apply:
            return self._apply(e)
        if t is F.RangeExpr:
            return self._deactivator("array section outside a subscript")
        if t is F.KeywordArg:
            return self._deactivator("keyword argument in invalid position")
        return _raiser(_Unsupported, f"cannot evaluate {t.__name__}")

    def _deactivator(self, reason: str) -> Callable:
        E = self.E

        def ev(frame, mask):
            E.deactivate_mask(mask, reason)
            return E._placeholder()

        return ev

    def _name(self, name: str) -> Callable:
        """A name read, charging a load for real values."""
        E = self.E
        scope = self.scope
        add_op = E.add_op
        sym, mod = self.names.lookup(name)

        def charge(val, t, mask):
            if t is _LF:
                add_op(scope, "load", val.kv, E.cur, 1, mask)
            elif t is _BArr:
                if val.kv is not None:
                    add_op(scope, "load", val.kv, True, val.size, mask)
            else:
                kv = E._kv_val(val)
                if kv is not None:
                    add_op(scope, "load", kv, E.cur, 1, mask)

        if sym is not None and mod is None:
            def ev(frame, mask):
                val = frame.values[name]
                t = type(val)
                if t is int or t is _LI or E.suppress:
                    return val
                if t is _LF:
                    add_op(scope, "load", val.kv, E.cur, 1, mask)
                else:
                    charge(val, t, mask)
                return val
            return ev
        fetch = self._fetch(name)

        def ev(frame, mask):
            val = fetch(frame)
            t = type(val)
            if t is not int and not E.suppress:
                charge(val, t, mask)
            return val

        return ev

    def _unary(self, e: F.UnaryOp) -> Callable:
        E = self.E
        scope = self.scope
        operand = self.expr(e.operand)
        if e.op == ".not.":
            def ev(frame, mask):
                t = E._truthmask(operand(frame, mask), mask)
                if t.n == 0:
                    return True
                if t.n == mask.n:
                    return False
                return _LB(mask.arr & ~t.arr)
            return ev
        if e.op == "+":
            return operand
        add_op = E.add_op

        def ev(frame, mask):
            val = operand(frame, mask)
            t = type(val)
            if t is int:
                return -val
            kv = val.kv if t is _LF else E._kv_val(val)
            if kv is not None:
                vec = True if t is _BArr else E.cur
                add_op(scope, "arith", kv, vec, _elems(val), mask)
            if t is _LF:
                return _LF(-val.data, val.kv)  # negation is exact
            if t is _LI:
                return _LI(-val.arr)
            if t is _BArr:
                if val.data.dtype == np.bool_:
                    E.deactivate_mask(mask, "negation of a logical value")
                    return val
                return _BArr(-val.data, val.lbounds, val.kv)
            if t is bool or t is _LB:
                E.deactivate_mask(mask, "negation of a logical value")
                return val
            return -val

        return ev

    def _logical(self, e: F.BinOp) -> Callable:
        E = self.E
        left = self.expr(e.left)
        right = self.expr(e.right)
        truth = E._truthmask
        if e.op == ".and.":
            def ev(frame, mask):
                lt = truth(left(frame, mask), mask)
                if lt.n == 0:
                    return False
                rt = truth(right(frame, lt), lt)
                if rt.n == 0:
                    return False
                if rt.n == mask.n:
                    return True
                return _LB(rt.arr.copy())
            return ev
        if e.op == ".or.":
            def ev(frame, mask):
                lt = truth(left(frame, mask), mask)
                if lt.n == mask.n:
                    return True
                sub = E.intern.mask(mask.arr & ~lt.arr)
                rt = truth(right(frame, sub), sub)
                out = lt.arr | rt.arr
                n = int((out & mask.arr).sum())
                if n == 0:
                    return False
                if n == mask.n:
                    return True
                return _LB(out)
            return ev
        eqv = e.op == ".eqv."

        def ev(frame, mask):
            lt = truth(left(frame, mask), mask)
            rt = truth(right(frame, mask), mask)
            eq = ~(lt.arr ^ rt.arr) if eqv else (lt.arr ^ rt.arr)
            n = int((eq & mask.arr).sum())
            if n == 0:
                return False
            if n == mask.n:
                return True
            return _LB(eq & mask.arr)

        return ev

    def _binop(self, e: F.BinOp) -> Callable:
        """Arithmetic and comparisons.  Two real lane scalars take the
        fast path: the promoted kinds, the converted lanes and the
        float32 lanes come from the site cache."""
        op = e.op
        if op in (".and.", ".or.", ".eqv.", ".neqv."):
            return self._logical(e)
        E = self.E
        scope = self.scope
        left = self.expr(e.left)
        right = self.expr(e.right)
        llit = isinstance(e.left, _LITERALS)
        rlit = isinstance(e.right, _LITERALS)
        is_cmp = op in _CMP_OPS
        opclass = "cmp" if is_cmp else _ARITH_CLASS.get(op)
        fn = _CMP_FNS[op] if is_cmp else _ARITH_FN.get(op)
        int_fast = fn if op in _CMP_FNS or op in ("+", "-", "*") else None
        fast = fn is not None and op != "**"
        add_op = E.add_op
        live_and = E._and

        def plan(kvl, kvr):
            wide = E._promote_kv(kvl, kvr)
            lo = hi = None
            if kvl is not kvr:
                lo, hi = E._cvt(kvl, kvr)
            return wide, lo, hi, *E._m4(kvl, kvr)

        c_l = E.kv_of_type(self.names.static_type(e.left))
        c_r = E.kv_of_type(self.names.static_type(e.right))
        if c_l is not None and c_r is not None:
            c_wide, c_lo, c_hi, c_m4, c_out = plan(c_l, c_r)
        else:
            c_l = c_r = c_wide = c_lo = c_hi = c_m4 = c_out = None

        def ev(frame, mask):
            nonlocal c_l, c_r, c_wide, c_lo, c_hi, c_m4, c_out
            lv = left(frame, mask)
            rv = right(frame, mask)
            tl = type(lv)
            tr = type(rv)
            if tl is _LF and tr is _LF and fast:
                kvl = lv.kv
                kvr = rv.kv
                if kvl is not c_l or kvr is not c_r:
                    c_wide, c_lo, c_hi, c_m4, c_out = plan(kvl, kvr)
                    c_l, c_r = kvl, kvr
                cur = E.cur
                if c_lo is not None and not llit:
                    add_op(scope, "convert", c_wide, cur, 1,
                           live_and(c_lo, mask))
                if c_hi is not None and not rlit:
                    add_op(scope, "convert", c_wide, cur, 1,
                           live_and(c_hi, mask))
                add_op(scope, opclass, c_wide, cur, 1, mask)
                out = fn(lv.data, rv.data)
                if is_cmp:
                    return _LB(out)
                if c_m4 is None:
                    return _LF(out, c_out)
                # The float32 lanes' operands are float32 values, and
                # for + - * / the float64 result rounded to float32 is
                # the float32 result (53 >= 2 * 24 + 2 bits: double
                # rounding is innocuous), so one float64 op serves all.
                r32 = out.astype(_F32).astype(_F64)
                return _LF(r32 if c_m4 is True else np.where(c_m4, r32, out),
                           c_out)
            if tl is int and tr is int and int_fast is not None:
                return int_fast(lv, rv)
            kvl = E._kv_val(lv)
            kvr = E._kv_val(rv)
            if kvl is None and kvr is None:
                return E._int_binop(op, lv, rv, mask)
            tl_b = tl is _BArr
            tr_b = tr is _BArr
            if tl_b or tr_b:
                n = max(lv.size if tl_b else 1, rv.size if tr_b else 1)
            else:
                n = 1
            vec = True if n > 1 else E.cur
            wide = E._promote_kv(kvl, kvr)
            if kvl is not None and kvr is not None and kvl is not kvr:
                lo, hi = E._cvt(kvl, kvr)
                if lo is not None and not llit:
                    add_op(scope, "convert", wide, vec, _elems(lv),
                           live_and(lo, mask))
                if hi is not None and not rlit:
                    add_op(scope, "convert", wide, vec, _elems(rv),
                           live_and(hi, mask))
            if is_cmp:
                add_op(scope, "cmp", wide, vec, n, mask)
                return E._real_compare(op, lv, rv)
            if opclass is None:
                raise KeyError(op)
            add_op(scope, opclass, wide, vec, n, mask)
            return E._real_arith(op, lv, rv, mask)

        return ev

    # -- application: arrays, functions, intrinsics ----------------------

    def _apply(self, e: F.Apply) -> Callable:
        E = self.E
        name = e.name
        tail = self._apply_tail(e)
        ref = self._array_ref(e.args)
        fetch = self._fetch(name)
        static = self.names.lookup(name)[0] is not None
        unallocated = f"use of unallocated array {name!r}"

        def ev(frame, mask):
            if static or frame.has(name):
                val = fetch(frame)
                if type(val) is _BArr:
                    return ref(frame, mask, val)
                if val is None:
                    E.deactivate_mask(mask, unallocated)
                    return E._placeholder()
            return tail(frame, mask)

        return ev

    def _apply_tail(self, e: F.Apply) -> Callable:
        """A user function, an intrinsic, or an unknown name."""
        E = self.E
        name = e.name
        pscope = E.index.find_procedure(name)
        if pscope is not None and isinstance(pscope.node, F.Function):
            qual, proc = pscope.name, pscope.node
            prepare = self._actuals(proc, e.args)
            scope = self.scope
            live = E._live

            def call(frame, mask):
                actuals = prepare(frame, mask)
                if actuals is None:
                    return E._placeholder()
                return E._binvoke(qual, proc, actuals, scope, E.cur,
                                  live(mask))

            return call
        intr = INTRINSICS.get(name)
        if intr is not None:
            return self._intrinsic(intr, e)
        return self._deactivator(f"unknown function or array {name!r}")

    def _intrinsic(self, intr, e: F.Apply) -> Callable:
        E = self.E
        scope = self.scope
        name = intr.name
        opclass = intr.opclass
        suppress = opclass == "none"
        argfns = [(a.name, self.expr(a.value)) if isinstance(a, F.KeywordArg)
                  else (None, self.expr(a)) for a in e.args]
        if name == "abs":
            kernel = E._intr_abs
        elif name == "sqrt":
            kernel = E._intr_sqrt
        elif name in ("min", "max"):
            kernel = lambda args, mask: E._intr_minmax(name, args, mask)
        elif name in _MQ_CONST:
            kernel = lambda args, mask: E._intr_model_query(name, args, mask)
        else:
            # The transcendentals and reductions (not exactly rounded
            # under widening) and every intrinsic the models never call:
            # each lane makes the scalar interpreter's own call.
            kernel = None
        add_op = E.add_op

        def ev(frame, mask):
            args: list[Any] = []
            kwargs: dict[str, Any] = {}
            if suppress:
                E.suppress += 1
            for kw, fn in argfns:
                if kw is None:
                    args.append(fn(frame, mask))
                else:
                    kwargs[kw] = fn(frame, mask)
            if suppress:
                E.suppress -= 1
            if kernel is None:
                result = E._native_intrinsic(intr, args, kwargs, mask)
            else:
                try:
                    result = kernel(args, mask)
                except _AllLanesDead:
                    raise
                except _Unsupported:
                    E.deactivate_mask(mask, f"unsupported {name} arguments")
                    result = E._placeholder()
                except Exception:
                    E.deactivate_mask(mask, f"intrinsic {name} failed")
                    result = E._placeholder()
            if not suppress:
                n = max((_elems(a) for a in args), default=1)
                kv = E._kv_val(result)
                if kv is None:
                    kv = next((E._kv_val(a) for a in args
                               if E._kv_val(a) is not None), None)
                if kv is not None:
                    vec = True if n > 1 else E.cur
                    add_op(scope, opclass, kv, vec, n, E._live(mask))
            return result

        return ev

    def _index_key(self, args: list) -> Callable:
        """Compiled ``_index_key``: ``(frame, mask, arr) -> (key,
        n_elements, is_section, gather)`` or None when every lane of
        *mask* was deactivated.  ``gather`` is non-None for divergent
        integer element indices: per-lane int64[L] index vectors, one
        per dimension."""
        E = self.E
        live = E._live
        uniform = E._uniform_int
        nargs = len(args)
        specs = []
        for arg in args:
            if isinstance(arg, F.RangeExpr):
                specs.append((True,
                              None if arg.lo is None else self.expr(arg.lo),
                              None if arg.hi is None else self.expr(arg.hi),
                              None if arg.step is None
                              else self.expr(arg.step)))
            else:
                specs.append((False, self.expr(arg), None, None))

        def general(frame, mask, arr, first=_UNSET):
            """Any subscripts; *first* is the value of a first element
            subscript the caller already evaluated."""
            if nargs != arr.rank:
                E.deactivate_mask(
                    mask, f"rank mismatch: {nargs} subscripts for "
                    f"rank-{arr.rank} array")
                return None
            key: list[Any] = []
            idx_vecs: list[Any] = []
            divergent = False
            is_section = False
            n_elements = 1
            for (is_range, a, b, c), lb, extent in zip(
                    specs, arr.lbounds, arr.shape):
                if is_range:
                    is_section = True
                    lo = (uniform(a(frame, mask), mask,
                                  "divergent section bound") - lb
                          if a is not None else 0)
                    hi = (uniform(b(frame, mask), mask,
                                  "divergent section bound") - lb + 1
                          if b is not None else extent)
                    step = (uniform(c(frame, mask), mask,
                                    "divergent section step")
                            if c is not None else 1)
                    if lo < 0 or hi > extent:
                        E.deactivate_mask(
                            mask, f"section [{lo + lb}:{hi + lb - 1}] out of "
                            f"bounds [{lb}:{lb + extent - 1}]")
                        return None
                    count = max(0, (hi - lo + (step - 1)) // step)
                    n_elements *= count
                    key.append(slice(lo, hi, step))
                    idx_vecs.append(None)
                    continue
                if first is _UNSET:
                    idx_val = a(frame, mask)
                else:
                    idx_val, first = first, _UNSET
                t = type(idx_val)
                if t is int:
                    j = idx_val - lb
                    if j < 0 or j >= extent:
                        E.deactivate_mask(
                            mask, f"index {idx_val} out of bounds "
                            f"[{lb}:{lb + extent - 1}]")
                        return None
                    key.append(j)
                    idx_vecs.append(None)
                    continue
                if t is _BArr:
                    # Vector subscript (gather) — must be lane-uniform.
                    if idx_val.kv is not None:
                        E.deactivate_mask(mask, "real vector subscript")
                        return None
                    first = idx_val.data[0]
                    if not bool(np.all(idx_val.data == first[None])):
                        E.deactivate_mask(mask, "divergent vector subscript")
                        return None
                    is_section = True
                    n_elements *= int(first.size)
                    key.append(first.astype(np.int64) - lb)
                    idx_vecs.append(None)
                    continue
                if t is _LF:
                    idx_val = E.to_int(idx_val, mask)
                    t = _LI
                if t is _LI or type(idx_val) is _LI:
                    j = idx_val.arr - lb
                    divergent = True
                    if _MINIMUM(j) < 0 or _MAXIMUM(j) >= extent:
                        oob = ((j < 0) | (j >= extent)) & mask.arr
                        if oob.any():
                            E.deactivate(oob.copy(), "index out of bounds")
                        hi = extent - 1 if extent > 0 else 0
                        j = np.minimum(np.maximum(j, 0), hi)
                    key.append(j)
                    idx_vecs.append(j)
                    continue
                j = int(idx_val) - lb
                if j < 0 or j >= extent:
                    E.deactivate_mask(
                        mask, f"index {int(idx_val)} out of bounds "
                        f"[{lb}:{lb + extent - 1}]")
                    return None
                key.append(j)
                idx_vecs.append(None)
            mask = live(mask)
            if mask.n == 0:
                return None
            if divergent:
                if is_section:
                    # Mixed divergent elements + sections: make them
                    # uniform.
                    for d, vec in enumerate(idx_vecs):
                        if vec is None or not isinstance(key[d], np.ndarray):
                            continue
                        first = int(vec[np.flatnonzero(mask.arr)[0]])
                        diff = mask.arr & (vec != first)
                        if diff.any():
                            E.deactivate(diff.copy(), "divergent index")
                        key[d] = first
                    mask = live(mask)
                    if mask.n == 0:
                        return None
                    return tuple(key), n_elements, is_section, None
                gather = tuple(
                    vec if vec is not None
                    else np.full(E.width, key[d], dtype=np.int64)
                    for d, vec in enumerate(idx_vecs))
                return tuple(key), n_elements, False, gather
            return tuple(key), n_elements, is_section, None

        if nargs != 1 or specs[0][0]:
            return general
        index = specs[0][1]

        def key1(frame, mask, arr):
            """One subscript into a rank-1 array: the common case."""
            data = arr.data
            if data.ndim != 2:
                return general(frame, mask, arr)
            idx_val = index(frame, mask)
            t = type(idx_val)
            if t is int:
                j = idx_val - arr.lbounds[0]
                if 0 <= j < data.shape[1]:
                    mask = live(mask)
                    if mask.n == 0:
                        return None
                    return (j,), 1, False, None
            elif t is _LI:
                # Per-lane subscripts all in bounds: a gather.
                j = idx_val.arr - arr.lbounds[0]
                if _MINIMUM(j) >= 0 and _MAXIMUM(j) < data.shape[1]:
                    mask = live(mask)
                    if mask.n == 0:
                        return None
                    return (j,), 1, False, (j,)
            return general(frame, mask, arr, idx_val)

        return key1

    def _array_ref(self, args: list) -> Callable:
        """Compiled ``_eval_array_ref``: an element (a real lane scalar
        copy), a section (a view), or a per-lane gather."""
        E = self.E
        scope = self.scope
        index_key = self._index_key(args)
        add_op = E.add_op
        width = E.width

        def ref(frame, mask, arr):
            keyinfo = index_key(frame, mask, arr)
            if keyinfo is None:
                return _LF(np.zeros(width, dtype=_F64), E.intern.kv8)
            key, n_elements, is_section, gather = keyinfo
            akv = arr.kv
            if akv is not None and E.suppress == 0:
                add_op(scope, "load", akv, True if is_section else E.cur,
                       n_elements, mask)
            if gather is not None:
                vals = arr.data[(E.lane_index, *gather)]
                if akv is not None:
                    return _LF(vals.astype(_F64, copy=False), akv)
                if arr.data.dtype == np.bool_:
                    return _LB(vals)
                return _LI(vals)
            vals = arr.data[(slice(None), *key)]
            if is_section:
                lbounds = tuple(1 for _ in range(vals.ndim - 1))
                return _BArr(vals, lbounds, akv)
            if akv is not None:
                return _LF(vals.copy(), akv)
            if arr.data.dtype == np.bool_:
                return _LB(vals.copy())
            return _LI(vals.copy())

        return ref

    # -- actual arguments -------------------------------------------------

    def _actuals(self, proc: F.ProcedureUnit, args: list) -> Callable:
        """Compiled ``_prepare_actuals``: ``(frame, mask) -> [(value,
        masked setter or None)]``, or None after deactivating the mask."""
        E = self.E
        if len(args) != len(proc.args):
            message = (f"{proc.name} expects {len(proc.args)} arguments, "
                       f"got {len(args)}")

            def refuse(frame, mask):
                E.deactivate_mask(mask, message)
                return None

            return refuse
        refs = []
        keyword = False
        for arg in args:
            if isinstance(arg, F.KeywordArg):
                keyword = True
                break
            refs.append(self._ref(arg))

        def prepare(frame, mask):
            actuals = [ref(frame, mask) for ref in refs]
            if keyword:
                E.deactivate_mask(mask, "keyword arguments to user "
                                  "procedures are not supported")
                return None
            return actuals

        return prepare

    def _ref(self, e: F.Expr) -> Callable:
        """Compiled ``_beval_ref``: ``(frame, mask) -> (value, masked
        setter or None)``."""
        E = self.E
        if isinstance(e, F.Name):
            name = e.name
            if self.names.lookup(name)[0] is None:
                def rf(frame, mask):
                    val = frame.find(name)
                    return val, E._name_setter(frame.find_slot(name), name)
                return rf
            slot_of = self._slot(name)

            def rf(frame, mask):
                slot = slot_of(frame)
                return slot[name], E._name_setter(slot, name)

            return rf
        ev = self.expr(e)
        if not isinstance(e, F.Apply):
            return lambda frame, mask: (ev(frame, mask), None)
        name = e.name
        scope = self.scope
        static = self.names.lookup(name)[0] is not None
        fetch = self._fetch(name)
        index_key = self._index_key(e.args)
        add_op = E.add_op

        def refuse_write_back(new: Any, wmask: _Mask) -> None:
            raise _Unsupported("written-back array-element argument")

        def rf(frame, mask):
            if static or frame.has(name):
                container = fetch(frame)
                if type(container) is _BArr:
                    keyinfo = index_key(frame, mask, container)
                    if keyinfo is None:
                        return E._placeholder(), None
                    key, _n, is_section, gather = keyinfo
                    if is_section:
                        # An array dummy writes through the view; a
                        # scalar dummy refuses a section before any
                        # write-back.
                        view = container.data[(slice(None), *key)]
                        lb = tuple(1 for _ in range(view.ndim - 1))
                        return _BArr(view, lb, container.kv), None
                    if gather is not None:
                        raise _Unsupported("gathered array-element argument")
                    if container.kv is None:
                        raise _Unsupported("non-real array-element argument")
                    val = _LF(container.data[(slice(None), *key)].astype(
                        _F64), container.kv)
                    if E.suppress == 0:
                        add_op(scope, "load", container.kv, E.cur, 1, mask)
                    return val, refuse_write_back
            return ev(frame, mask), None

        return rf


# ---------------------------------------------------------------------------
# Harness: argument templates
# ---------------------------------------------------------------------------

from .interpreter import OutBox  # noqa: E402  (cycle-free: values only)


def _snap_arg(arg: Any) -> tuple:
    """Immutable template snapshot of a harness-level argument."""
    if isinstance(arg, OutBox):
        return ("outbox", _snap_arg(arg.value))
    if isinstance(arg, FArray):
        return ("farray", arg.data.tobytes(), arg.data.shape,
                arg.data.dtype.str, tuple(arg.lbounds), arg.kind)
    return ("scalar", arg)


def _unsnap(snap: tuple) -> Any:
    """Rebuild a live argument from a snapshot (for scalar replay)."""
    tag = snap[0]
    if tag == "outbox":
        return OutBox(_unsnap(snap[1]))
    if tag == "farray":
        _, buf, shape, dt, lbounds, kind = snap
        data = np.frombuffer(buf, dtype=np.dtype(dt)).reshape(shape).copy()
        return FArray(data, lbounds, kind)
    return snap[1]


class _CallRecord:
    """One vectorized harness call: template, outputs, survivors."""

    __slots__ = ("name", "snaps", "outs", "result", "alive_after")

    def __init__(self, name: str, snaps: list, outs: list):
        self.name = name
        self.snaps = snaps
        self.outs = outs
        self.result: Any = None
        self.alive_after: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Harness: public surface
# ---------------------------------------------------------------------------


class BatchLane:
    """One lane of a :class:`VariantBatch`, duck-typed as an interpreter.

    Exposes ``call``/``ledger``/``stdout`` like
    :class:`~repro.fortran.interpreter.Interpreter`, so ``Model._drive``
    and the evaluator can use a lane wherever they would use a scalar
    backend.  The first lane to reach an unexecuted call index *drives*
    it (one vectorized sweep for every live lane); subsequent lanes
    validate their arguments against the recorded template and adopt
    their lane's outputs, or transparently fall back to a private
    :class:`~repro.fortran.compile.CompiledInterpreter`.
    """

    __slots__ = ("batch", "lane", "call_idx", "interp", "_ledger")

    def __init__(self, batch: "VariantBatch", lane: int):
        self.batch = batch
        self.lane = lane
        self.call_idx = 0
        self.interp: Optional[CompiledInterpreter] = None
        self._ledger: Optional[Ledger] = None

    # -- interpreter-compatible observables -----------------------------

    @property
    def fell_back(self) -> bool:
        return self.interp is not None

    @property
    def ledger(self) -> Ledger:
        if self.interp is not None:
            return self.interp.ledger
        if self._ledger is None:
            self._ledger = self.batch.engine.ledger_for(self.lane)
        return self._ledger

    @property
    def stdout(self) -> list[str]:
        if self.interp is not None:
            return self.interp.stdout
        return self.batch.engine.stdout[self.lane]

    # -- interpreter-compatible entry point -----------------------------

    def call(self, name: str, args: Optional[list[Any]] = None) -> Any:
        args = list(args or [])
        self._ledger = None
        idx = self.call_idx
        self.call_idx += 1
        if self.interp is not None:
            return self._go_scalar(name, args)
        batch = self.batch
        engine = batch.engine
        if idx < len(batch.records):
            rec = batch.records[idx]
            rec_ok = (rec.alive_after is not None
                      and rec.name == name
                      and len(rec.snaps) == len(args)
                      and all(s == _snap_arg(a)
                              for s, a in zip(rec.snaps, args)))
            if rec_ok and rec.alive_after[self.lane]:
                batch._adopt(rec, self.lane, args)
                return engine.lane_value(rec.result, self.lane)
            if rec_ok and engine.stopped_at.get(self.lane) == idx:
                # The lane finished this call with an ``error stop``;
                # its vector state at the stop is the scalar state, so
                # adopt outputs (mirroring argument aliasing) and
                # re-raise the recorded error.
                batch._adopt(rec, self.lane, args)
                msg, code = engine.stopped[self.lane]
                raise FortranStopError(msg, code=code)
            if engine.alive[self.lane]:
                batch._kill_lane(self.lane, "argument template mismatch")
            return self._go_scalar(name, args)
        if engine.dead or not engine.alive[self.lane]:
            return self._go_scalar(name, args)
        return batch._drive_call(self, name, args)

    # -- scalar fallback -------------------------------------------------

    def _go_scalar(self, name: str, args: list[Any]) -> Any:
        started = time.perf_counter()
        try:
            self._ensure_interp()
            return self.interp.call(name, args)
        finally:
            self.batch.replay_seconds += time.perf_counter() - started

    def _ensure_interp(self) -> None:
        """Build the private scalar interpreter and replay prior calls.

        Replay uses the recorded template snapshots — bit-identical to
        this lane's real arguments, which were validated against the
        template before every adopted call.  Replay outputs are
        discarded; ledger charges and stdout accrue, reconstructing the
        exact scalar history of this lane.
        """
        if self.interp is not None:
            return
        batch = self.batch
        self.interp = CompiledInterpreter(
            batch.index, overlay=dict(batch.overlays[self.lane]),
            vec_info=batch.vec_info, max_ops=batch.max_ops)
        for rec in batch.records[:self.call_idx - 1]:
            try:
                self.interp.call(rec.name, [_unsnap(s) for s in rec.snaps])
            except Exception:
                # The lane made further calls after this one, so the
                # model caught this error; replayed state (and the
                # charges up to the raise) is still the scalar history.
                pass


class VariantBatch:
    """Evaluate a whole batch of precision variants in lockstep.

    ``overlays`` is one kind-overlay dict per lane; each lane is driven
    through :meth:`lane`, whose :class:`BatchLane` mirrors the scalar
    interpreter surface.  Correctness never depends on lockstep: any
    lane the engine cannot model bit-exactly is deactivated and re-run
    on a private compiled interpreter.
    """

    def __init__(self, index: ProgramIndex,
                 overlays: list[dict[str, int]],
                 vec_info: Optional[ProgramVecInfo] = None,
                 max_ops: Optional[int] = None):
        if not overlays:
            raise ValueError("VariantBatch needs at least one overlay")
        self.index = index
        self.overlays = [dict(ov) for ov in overlays]
        self.vec_info = vec_info
        self.max_ops = max_ops
        self.width = len(overlays)
        self.engine = _Engine(index, self.overlays, vec_info, max_ops)
        self.records: list[_CallRecord] = []
        self.sweep_seconds = 0.0
        self.replay_seconds = 0.0
        self.lanes = [BatchLane(self, i) for i in range(self.width)]

    def lane(self, i: int) -> BatchLane:
        return self.lanes[i]

    # -- lane lifecycle --------------------------------------------------

    def _kill_lane(self, lane: int, reason: str) -> None:
        sel = np.zeros(self.width, dtype=bool)
        sel[lane] = True
        try:
            self.engine.deactivate(sel, reason)
        except _AllLanesDead:
            self.engine.dead = True

    def _kill_all(self, reason: str) -> None:
        engine = self.engine
        try:
            engine.deactivate(engine.alive.copy(), reason)
        except _AllLanesDead:
            pass
        engine.dead = True

    # -- vectorized execution --------------------------------------------

    def _drive_call(self, view: BatchLane, name: str,
                    args: list[Any]) -> Any:
        engine = self.engine
        snaps = [_snap_arg(a) for a in args]
        pairs: list[tuple[Any, Any]] = []
        outs: list[tuple[str, int, Any]] = []
        for i, a in enumerate(args):
            if isinstance(a, OutBox):
                holder: dict[str, Any] = {}

                def setter(new: Any, wmask: _Mask,
                           holder: dict = holder) -> None:
                    holder["val"] = new
                    holder["mask"] = wmask.arr.copy()

                inner = a.value
                lifted = None if inner is None else engine.lift(inner)
                pairs.append((lifted, setter))
                outs.append(("outbox", i, holder))
            elif isinstance(a, FArray):
                barr = engine.lift(a)
                pairs.append((barr, None))
                outs.append(("farray", i, barr))
            else:
                pairs.append((engine.lift(a), None))
        rec = _CallRecord(name, snaps, outs)
        engine.call_arrays = [(i, barr) for tag, i, barr in outs
                              if tag == "farray"]
        result: Any = None
        started = time.perf_counter()
        try:
            result = engine.execute_call(name, pairs)
        except _AllLanesDead:
            engine.dead = True
        except Exception as exc:
            # Uniform structural error (unknown procedure, arity) or an
            # engine surprise: either way every lane re-runs on the
            # scalar path, which reproduces the exact scalar outcome.
            self._kill_all(f"{type(exc).__name__}: {exc}")
        self.sweep_seconds += time.perf_counter() - started
        rec.result = result
        rec.alive_after = engine.alive.copy()
        self.records.append(rec)
        if engine.stopped_at.get(view.lane) == len(self.records) - 1:
            self._adopt(rec, view.lane, args)
            msg, code = engine.stopped[view.lane]
            raise FortranStopError(msg, code=code)
        if engine.dead or not engine.alive[view.lane]:
            return view._go_scalar(name, args)
        self._adopt(rec, view.lane, args)
        return engine.lane_value(result, view.lane)

    def _adopt(self, rec: _CallRecord, lane: int, args: list[Any]) -> None:
        """Copy lane's outputs of a recorded call into real arguments;
        a lane that stopped in the call gets its arrays as they were at
        the stop."""
        engine = self.engine
        frozen = engine.stopped_arrays.get(lane, {})
        for tag, i, payload in rec.outs:
            if tag == "farray":
                dest = args[i]
                src = frozen[i] if i in frozen else payload.data[lane]
                dest.data[...] = src.astype(dest.data.dtype, copy=False)
            else:
                if payload and payload["mask"][lane]:
                    args[i].set(engine.lane_value(payload["val"], lane))

    # -- statistics ------------------------------------------------------

    def stats(self) -> BatchStats:
        s = BatchStats()
        s.width = self.width
        s.calls = len(self.records)
        s.fallback_lanes = sum(
            1 for ln in self.lanes if ln.interp is not None)
        s.vector_lanes = s.width - s.fallback_lanes
        s.sweep_seconds = self.sweep_seconds
        s.replay_seconds = self.replay_seconds
        s.procedures_lowered = self.engine.procedures_lowered
        ops = [ln.ledger.total_ops for ln in self.lanes]
        s.lane_ops_max = max(ops)
        s.lane_ops_mean = sum(ops) / len(ops)
        for reason in self.engine.fallback_reason.values():
            s.fallback_reasons[reason] = \
                s.fallback_reasons.get(reason, 0) + 1
        return s
