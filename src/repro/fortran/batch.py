"""Variant-batched lockstep execution of the Fortran subset.

One :class:`VariantBatch` evaluates a whole wave of precision variants
(overlays) in a single sweep: every real value carries a leading *lane*
axis (one lane per variant), per-variant kind overlays become per-lane
kind vectors, and each statement of the program executes once for all
lanes under an activity mask instead of once per variant.

Bit-identity contract
---------------------
The batched backend must be indistinguishable from the tree and compiled
backends in every deterministic payload: per-lane observables, stdout,
ledger charges (including dict insertion order) and, transitively, the
campaign-result JSON bytes.  Three mechanisms carry that contract:

* **Widened storage, native rounding.**  Real lane values are stored as
  ``float64`` but every operation result is rounded through the lane's
  kind (a kind-4 lane computes in ``float32`` and re-widens), so each
  lane holds exactly the bits the scalar interpreter would.  Operations
  that NumPy does not guarantee to be vectorization-invariant
  (transcendentals, ``**``, reductions) are evaluated per lane on the
  lane's native dtype — the same ufunc call the scalar backends make.
* **Charge events.**  Every ledger charge is recorded once with the
  activity mask it occurred under; a per-lane
  :class:`~repro.fortran.instrumentation.Ledger` is reconstructed at
  the end by replaying the lane's event subsequence in program order,
  which reproduces both the counts and the first-touch key order of a
  scalar run.
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
arithmetic, and array-element actual arguments that are gathered
(per-lane subscripts), non-real, or written back.

The public surface mirrors the scalar interpreters: each
:meth:`VariantBatch.lane` exposes ``call``/``ledger``/``stdout`` like an
``Interpreter``, so the evaluator drives a lane exactly as it drives a
scalar backend.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional

import numpy as np

from ..errors import FortranRuntimeError, FortranStopError, SemanticError
from . import ast_nodes as F
from .compile import CompiledInterpreter
from .instrumentation import CallKey, Ledger
from .intrinsics import INTRINSICS
from .symbols import KIND_DOUBLE, KIND_SINGLE, ProgramIndex, Symbol
from .values import FArray, dtype_for_kind, kind_of
from .vectorize import ProgramVecInfo

__all__ = ["VariantBatch", "BatchLane", "BatchStats"]

_BUDGET_CHECK_INTERVAL = 512
_ARITH_CLASS = {"+": "arith", "-": "arith", "*": "arith", "/": "div",
                "**": "pow"}
_CMP_OPS = {"==", "/=", "<", "<=", ">", ">="}

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)


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
        return self.kv(np.full(self.width, kind, dtype=np.int8))

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
_CMP_FN = {"==": operator.eq, "/=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
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


def _expand_section(arr1d: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """Broadcast a [L] lane vector across a section destination."""
    return _expand(arr1d, dest.ndim)


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
    """Execution statistics for one :class:`VariantBatch`."""

    __slots__ = ("width", "vector_lanes", "fallback_lanes", "calls",
                 "fallback_reasons")

    def __init__(self) -> None:
        self.width = 0
        self.vector_lanes = 0
        self.fallback_lanes = 0
        self.calls = 0
        self.fallback_reasons: dict[str, int] = {}


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


class _BFrame:
    __slots__ = ("scope", "values", "chain", "vec_inherit")

    def __init__(self, scope: str, chain_dicts: list[dict],
                 vec_inherit: Any = False):
        self.scope = scope
        self.values: dict[str, Any] = {}
        self.chain: list[dict] = [self.values, *chain_dicts]
        self.vec_inherit = vec_inherit       # False | True | bool[L]

    def find(self, name: str) -> Any:
        for d in self.chain:
            if name in d:
                return d[name]
        raise FortranRuntimeError(f"reference to undefined name {name!r}")

    def find_slot(self, name: str) -> dict:
        for d in self.chain:
            if name in d:
                return d
        raise FortranRuntimeError(f"assignment to undeclared name {name!r}")

    def has(self, name: str) -> bool:
        return any(name in d for d in self.chain)


# ---------------------------------------------------------------------------
# The lockstep engine
# ---------------------------------------------------------------------------


class _Engine:
    """Executes the program once for all lanes under activity masks."""

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
        self.epoch = 0
        self.dead = False
        self.fallback_reason: dict[int, str] = {}
        # Lanes that executed an ``error stop`` are finished, not fallen
        # back: their vector-side ledger/stdout prefix IS the scalar
        # history, and the harness re-raises the recorded error.
        self.stopped: dict[int, tuple[str, int]] = {}
        self.stopped_at: dict[int, int] = {}
        self.call_no = -1

        # Charge-event journal: key -> [accumulated n, first sequence no].
        # Replayed per lane at finalize; see `ledger_for`.
        self.events: dict[tuple, list[int]] = {}
        self._seq = 0
        # Per-mask total_ops accumulation (budget checks only).
        self.totals: dict[_Mask, int] = {}
        self.stdout: list[list[str]] = [[] for _ in range(self.width)]

        self.cur: Any = False                # vec context: False|True|bool[L]
        self.cur_sid = 0
        self.rhs_literal = False
        self.suppress = 0
        self.tick = 0
        self.devec: dict[int, np.ndarray] = {}
        self.loops: list[_LoopCtx] = []

        self._module_frames: dict[str, _BFrame] = {}
        self._elaborating: set[str] = set()
        self._kv_syms: dict[str, _KV] = {}
        self._lits: dict[int, _LF] = {}
        self.n_dead = 0
        self._live_cache: dict[_Mask, _Mask] = {}
        self._live_epoch = -1
        self._promote_cache: dict[tuple, _KV] = {}
        self._m4_cache: dict[tuple, tuple] = {}
        self._cvt_cache: dict[tuple, tuple] = {}
        self._stmt_flags: dict[str, dict[int, bool]] = {}

        self._exec_table: dict[type, Callable[..., _Mask]] = {
            F.Assignment: self._exec_assignment,
            F.CallStmt: self._exec_call_stmt,
            F.IfBlock: self._exec_if,
            F.DoLoop: self._exec_do,
            F.DoWhile: self._exec_do_while,
            F.ExitStmt: self._exec_exit,
            F.StopStmt: self._exec_stop,
            F.PrintStmt: self._exec_print,
        }
        self._eval_table: dict[type, Callable[..., Any]] = {
            F.IntLit: self._eval_int_lit,
            F.RealLit: self._eval_real_lit,
            F.LogicalLit: self._eval_logical_lit,
            F.StringLit: self._eval_string_lit,
            F.Name: self._eval_name,
            F.UnaryOp: self._eval_unary,
            F.BinOp: self._eval_binop,
            F.Apply: self._eval_apply,
            F.RangeExpr: self._eval_range,
            F.KeywordArg: self._eval_keyword,
        }

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
        """Replay the lane's charge-event subsequence into a Ledger.

        Entries are applied in first-touch order so the reconstructed
        dicts have the same insertion order a scalar run produces.
        """
        rows = []
        for key, (n, seq) in self.events.items():
            mask: _Mask = key[-1]
            if not mask.arr[lane]:
                continue
            rows.append((seq, key, n))
        rows.sort()
        led = Ledger()
        for _seq, key, n in rows:
            tag = key[0]
            if tag == "op":
                _t, scope, opclass, kv, vec, _m = key
                v = vec if isinstance(vec, bool) else bool(vec.arr[lane])
                led.add_op(scope, opclass, kv.at(lane), v, n)
            elif tag == "call":
                _t, caller, callee, wrapped, _m = key
                w = wrapped if isinstance(wrapped, bool) \
                    else bool(wrapped.arr[lane])
                e = led.calls[CallKey(caller, callee)]
                e[0] += n
                e[1] += n if w else 0
            elif tag == "bc":
                _t, caller, callee, _m = key
                led.add_boundary_cast(caller, callee, n)
                led.total_ops += n
            else:  # ar
                _t, scope, elements, _m = key
                for _ in range(n):
                    led.add_allreduce(scope, elements)
        return led

    def lane_totals(self) -> np.ndarray:
        tt = np.zeros(self.width, dtype=np.int64)
        for mask, n in self.totals.items():
            tt[mask.arr] += n
        return tt

    # -- kind vectors ---------------------------------------------------

    def kv_for(self, sym: Symbol) -> Optional[_KV]:
        if sym.type_ != "real":
            return None
        got = self._kv_syms.get(sym.qualified)
        if got is None:
            qual = sym.qualified
            base = sym.kind
            got = self.intern.kv(np.array(
                [ov.get(qual, base) for ov in self.overlays], dtype=np.int8))
            self._kv_syms[qual] = got
        return got

    # -- uniform helpers ------------------------------------------------

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

    def merge_lf(self, old: Any, new: _LF, mask: _Mask) -> _LF:
        """Masked select of two real lane scalars.

        Dead-lane contents are never observed vector-side, so a mask
        covering every alive lane may simply adopt the new value.
        """
        if type(old) is not _LF or self.covers_alive(mask):
            return new
        data = np.where(mask.arr, new.data, old.data)
        if new.kv is old.kv:
            kv = new.kv
        else:
            kv = self.intern.kv(np.where(mask.arr, new.kv.arr, old.kv.arr))
        return _LF(data, kv)

    def covers_alive(self, mask: _Mask) -> bool:
        nd = self.n_dead
        if nd == 0:
            return mask.n == self.width
        if mask.n == self.width:
            return True
        if mask.n < self.width - nd:
            return False
        return bool(np.all(mask.arr[self.alive]))

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------

    def _module_frame(self, name: str, mask: _Mask) -> _BFrame:
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
            frame = _BFrame(name, chain)
            self._module_frames[name] = frame
            for sym in scope.symbols.values():
                frame.values[sym.name] = self._elaborate_symbol(
                    sym, frame, mask)
        finally:
            self._elaborating.discard(name)
        return frame

    def _elaborate_symbol(self, sym: Symbol, frame: _BFrame,
                          mask: _Mask) -> Any:
        kv = self.kv_for(sym)
        if sym.type_ == "derived":
            raise _Unsupported("derived-type variables")
        if sym.is_array:
            if sym.is_allocatable:
                return None
            return self._allocate_array(sym, kv, frame, mask)
        if sym.init is not None:
            raise _Unsupported(f"initialized scalar {sym.name!r}")
        if sym.type_ == "real":
            assert kv is not None
            return _LF(np.zeros(self.width, dtype=_F64), kv)
        if sym.type_ == "integer":
            return 0
        if sym.type_ in ("logical", "character"):
            raise _Unsupported(f"{sym.type_} scalar {sym.name!r}")
        raise SemanticError(f"cannot elaborate symbol {sym.qualified}")

    def cast_lf(self, value: Any, kv: _KV) -> _LF:
        """Mirror ``cast_real``: round a scalar value to per-lane kinds."""
        t = type(value)
        if t is _LF:
            return _LF(_round_to(value.data, kv), kv)
        if t is _LI:
            return _LF(_round_to(value.arr.astype(_F64), kv), kv)
        if t in (int, float, bool):
            return _LF(_round_to(
                np.full(self.width, float(value), dtype=_F64), kv), kv)
        raise _Unsupported(f"cannot cast {t.__name__} to real")

    def to_int(self, value: Any) -> Any:
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
                self.deactivate((np.isnan(d) & self.alive).copy(),
                                "nan store: scalar nan semantics")
            return _LI(np.trunc(d).astype(np.int64))
        if t is float:
            return int(value)
        if t is _LB:
            return _LI(value.arr.astype(np.int64))
        raise _Unsupported(f"cannot convert {t.__name__} to integer")

    def _allocate_array(self, sym: Symbol, kv: Optional[_KV],
                        frame: _BFrame, mask: _Mask) -> _BArr:
        assert sym.dims is not None
        shape = []
        lbounds = []
        for dim in sym.dims:
            if dim.assumed or dim.deferred:
                raise FortranRuntimeError(
                    f"array {sym.name!r} has assumed shape but no actual "
                    "argument to take it from"
                )
            lb = 1 if dim.lower is None else self._uniform_int(
                self._eval(dim.lower, frame, mask), mask, "array bound")
            ub = self._uniform_int(
                self._eval(dim.upper, frame, mask), mask, "array bound")
            lbounds.append(lb)
            shape.append(max(0, ub - lb + 1))
        full = (self.width, *shape)
        if sym.type_ == "real":
            assert kv is not None
            return _BArr(np.zeros(full, dtype=_F64), tuple(lbounds), kv)
        if sym.type_ == "integer":
            return _BArr(np.zeros(full, dtype=np.int64), tuple(lbounds), None)
        if sym.type_ == "logical":
            return _BArr(np.zeros(full, dtype=np.bool_), tuple(lbounds), None)
        raise SemanticError(f"cannot allocate array of type {sym.type_}")

    def _make_frame(self, scope_name: str, scope_info, vec_inherit: Any,
                    mask: _Mask) -> _BFrame:
        chain: list[dict] = []
        info = scope_info
        parent = info.parent
        while parent is not None:
            if parent.is_procedure:
                parent = parent.parent
                continue
            chain.append(self._module_frame(parent.name, mask).values)
            parent = parent.parent
        for used in info.uses:
            if used in self.index.modules:
                chain.append(self._module_frame(used, mask).values)
        for mod in self.index.modules:
            mf = self._module_frame(mod, mask).values
            if all(mf is not c for c in chain):
                chain.append(mf)
        return _BFrame(scope_name, chain, vec_inherit=vec_inherit)

    # ------------------------------------------------------------------
    # Mask / vec-context helpers
    # ------------------------------------------------------------------

    def _live(self, mask: _Mask) -> _Mask:
        if self.n_dead == 0:
            return mask
        if self._live_epoch != self.epoch:
            self._live_cache = {}
            self._live_epoch = self.epoch
        got = self._live_cache.get(mask)
        if got is None:
            got = self.intern.mask(mask.arr & self.alive)
            self._live_cache[mask] = got
        return got

    def _canon_vec(self, arr: np.ndarray) -> Any:
        if not arr.any():
            return False
        if arr.all():
            return True
        return self.intern.mask(arr)

    @staticmethod
    def _vec_or(vec: Any, n: int) -> Any:
        return True if n > 1 else vec

    def _scope_flags(self, scope: str) -> dict[int, bool]:
        flags = self._stmt_flags.get(scope)
        if flags is None:
            assert self.vec_info is not None
            flags = self.vec_info.stmt_vec(scope)
            self._stmt_flags[scope] = flags
        return flags

    def _stmt_vec_mask(self, stmt: F.Stmt, frame: _BFrame) -> Any:
        """Per-lane vectorization context: False, True, or a _Mask."""
        if self.vec_info is None:
            base = frame.vec_inherit
        elif self._scope_flags(frame.scope).get(id(stmt), False):
            base = True
        else:
            base = frame.vec_inherit
        dv = self.devec.get(id(stmt))
        if dv is None or not dv.any():
            return base
        if base is False:
            return False
        if base is True:
            return self._canon_vec(~dv)
        return self._canon_vec(base.arr & ~dv)

    def _check_budget(self) -> None:
        if self.max_ops is None:
            return
        over = self.alive & (self.lane_totals() > self.max_ops)
        if over.any():
            self.deactivate(over, "operation budget exceeded")

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

    def _kv_val(self, v: Any) -> Optional[_KV]:
        t = type(v)
        if t is _LF or t is _BArr:
            return v.kv
        if t is float:
            return self.intern.kv8
        k = kind_of(v) if not isinstance(v, (int, bool, str)) else None
        return None if k is None else self.intern.kv_uniform(k)

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

    def _native_value(self, v: Any, lane: int,
                      lbounds_out: Optional[list] = None) -> Any:
        if type(v) is _BArr:
            if lbounds_out is not None:
                lbounds_out.append(v.lbounds)
            return FArray(self._native_array(v, lane), v.lbounds,
                          None if v.kv is None else v.kv.at(lane))
        return self._native_scalar(v, lane)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def _exec_block(self, stmts: list, frame: _BFrame, mask: _Mask) -> _Mask:
        table = self._exec_table
        epoch = self.epoch
        for stmt in stmts:
            if self.epoch != epoch:
                epoch = self.epoch
                mask = self._live(mask)
            if mask.n == 0:
                return mask
            self.tick += 1
            if self.tick >= _BUDGET_CHECK_INTERVAL:
                self.tick = 0
                self._check_budget()
                if self.epoch != epoch:
                    epoch = self.epoch
                    mask = self._live(mask)
                    if mask.n == 0:
                        return mask
            handler = table.get(type(stmt))
            if handler is None:
                raise _Unsupported(
                    f"statement {type(stmt).__name__}")
            mask = handler(stmt, frame, mask)
        return mask

    def _exec_assignment(self, stmt: F.Assignment, frame: _BFrame,
                         mask: _Mask) -> _Mask:
        prev, prev_id, prev_lit = self.cur, self.cur_sid, self.rhs_literal
        self.cur = self._stmt_vec_mask(stmt, frame)
        self.cur_sid = id(stmt)
        self.rhs_literal = isinstance(stmt.value, (F.RealLit, F.IntLit))
        try:
            value = self._eval(stmt.value, frame, mask)
            self._assign(stmt.target, value, frame, mask)
        finally:
            self.cur, self.cur_sid, self.rhs_literal = prev, prev_id, prev_lit
        return self._live(mask)

    def _exec_call_stmt(self, stmt: F.CallStmt, frame: _BFrame,
                        mask: _Mask) -> _Mask:
        prev, prev_id = self.cur, self.cur_sid
        self.cur = self._stmt_vec_mask(stmt, frame)
        self.cur_sid = id(stmt)
        try:
            if stmt.name in ("mpi_allreduce_sum", "mpi_allreduce_max",
                             "mpi_allreduce_min"):
                args = [self._eval(a, frame, mask) for a in stmt.args]
                if not args:
                    self.deactivate_mask(mask,
                                         "mpi_allreduce_* needs an argument")
                    return self._live(mask)
                self.add_ar(frame.scope, _elems(args[0]), mask)
                return self._live(mask)
            scope = self.index.find_procedure(stmt.name)
            if scope is None:
                self.deactivate_mask(
                    mask, f"call to undefined subroutine {stmt.name!r}")
                return self._live(mask)
            proc = scope.node
            actuals = self._prepare_actuals(proc, stmt.args, frame, mask)
            if actuals is None:
                return self._live(mask)
            self._binvoke(scope.name, proc, actuals,
                          caller_scope=frame.scope, vec_ctx=self.cur,
                          mask=self._live(mask))
        finally:
            self.cur, self.cur_sid = prev, prev_id
        return self._live(mask)

    def _exec_if(self, stmt: F.IfBlock, frame: _BFrame,
                 mask: _Mask) -> _Mask:
        remaining = self._live(mask)
        done = self.intern.empty
        for arm in stmt.arms:
            if remaining.n == 0:
                break
            if arm.cond is None:
                ft = self._exec_block(arm.body, frame, remaining)
                done = self.intern.mask(done.arr | ft.arr)
                remaining = self.intern.empty
                break
            prev = self.cur
            self.cur = self._stmt_vec_mask(stmt, frame)
            try:
                cond = self._eval(arm.cond, frame, remaining)
            finally:
                self.cur = prev
            remaining = self._live(remaining)
            t = self._truthmask(cond, remaining)
            if t.n:
                ft = self._exec_block(arm.body, frame, t)
                done = self.intern.mask(done.arr | ft.arr)
            remaining = self.intern.mask(remaining.arr & ~t.arr)
        return self._live(self.intern.mask(done.arr | remaining.arr))

    def _store_loop_var(self, slot: dict, var: str, i: int,
                        cur: _Mask) -> None:
        # Mirrors the scalar `slot[var] = i`: direct store, no charges.
        # Lanes that already left the loop keep their exit-time value.
        if self.covers_alive(cur):
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

    def _exec_do(self, stmt: F.DoLoop, frame: _BFrame,
                 mask: _Mask) -> _Mask:
        start = self._uniform_int(self._eval(stmt.start, frame, mask),
                                  mask, "divergent do-loop bound")
        mask = self._live(mask)
        if mask.n == 0:
            return mask
        stop = self._uniform_int(self._eval(stmt.stop, frame, mask),
                                 mask, "divergent do-loop bound")
        mask = self._live(mask)
        if mask.n == 0:
            return mask
        if stmt.step is not None:
            step = self._uniform_int(self._eval(stmt.step, frame, mask),
                                     mask, "divergent do-loop step")
            mask = self._live(mask)
            if mask.n == 0:
                return mask
        else:
            step = 1
        if step == 0:
            self.deactivate_mask(mask, "do-loop step is zero")
            return self._live(mask)
        slot = (frame.find_slot(stmt.var) if frame.has(stmt.var)
                else frame.values)
        ctx = _LoopCtx(self.intern.empty)
        self.loops.append(ctx)
        try:
            cur = mask
            ft_exit = self.intern.empty
            i = start
            while (i <= stop) if step > 0 else (i >= stop):
                cur = self._live(cur)
                if cur.n == 0:
                    break
                self._store_loop_var(slot, stmt.var, i, cur)
                cur = self._exec_block(stmt.body, frame, cur)
                if ctx.exit.n:
                    ft_exit = self.intern.mask(ft_exit.arr | ctx.exit.arr)
                    ctx.exit = self.intern.empty
                i += step
        finally:
            self.loops.pop()
        return self._live(self.intern.mask(cur.arr | ft_exit.arr))

    def _exec_do_while(self, stmt: F.DoWhile, frame: _BFrame,
                       mask: _Mask) -> _Mask:
        ctx = _LoopCtx(self.intern.empty)
        self.loops.append(ctx)
        try:
            cur = self._live(mask)
            ft = self.intern.empty
            while True:
                cur = self._live(cur)
                if cur.n == 0:
                    break
                prev = self.cur
                self.cur = False
                try:
                    cond = self._eval(stmt.cond, frame, cur)
                finally:
                    self.cur = prev
                cur = self._live(cur)
                t = self._truthmask(cond, cur)
                ft = self.intern.mask(ft.arr | (cur.arr & ~t.arr))
                cur = t
                if cur.n == 0:
                    break
                cur = self._exec_block(stmt.body, frame, cur)
                if ctx.exit.n:
                    ft = self.intern.mask(ft.arr | ctx.exit.arr)
                    ctx.exit = self.intern.empty
        finally:
            self.loops.pop()
        return self._live(ft)

    def _exec_exit(self, stmt: F.ExitStmt, frame: _BFrame,
                   mask: _Mask) -> _Mask:
        if not self.loops:
            raise _Unsupported("exit outside a loop")
        ctx = self.loops[-1]
        ctx.exit = self.intern.mask(ctx.exit.arr | mask.arr)
        return self.intern.empty

    def _exec_stop(self, stmt: F.StopStmt, frame: _BFrame,
                   mask: _Mask) -> _Mask:
        codes = np.zeros(self.width, dtype=np.int64)
        if stmt.code is not None:
            val = self._eval(stmt.code, frame, mask)
            mask = self._live(mask)
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
        if stmt.is_error:
            err = mask.arr.copy()
        else:
            err = mask.arr & (codes != 0)
        if err.any():
            # The message is static and the code is recorded per lane,
            # so the harness re-raises the exact scalar FortranStopError
            # without leaving the vector path.
            self.stop_lanes(err, stmt.message or "", codes)
        return self.intern.empty  # plain STOP behaves like RETURN

    def _exec_print(self, stmt: F.PrintStmt, frame: _BFrame,
                    mask: _Mask) -> _Mask:
        vals = [self._eval(item, frame, mask) for item in stmt.items]
        if any(type(val) is _BArr for val in vals):
            raise _Unsupported("array item in print")
        mask = self._live(mask)
        for lane in np.flatnonzero(mask.arr):
            parts = []
            for val in vals:
                t = type(val)
                if t is _LF:
                    parts.append(str(self._native_scalar(val, int(lane))))
                elif t is _LI:
                    parts.append(str(int(val.arr[lane])))
                elif t is _LB:
                    parts.append(str(bool(val.arr[lane])))
                else:
                    parts.append(str(val))
            self.stdout[int(lane)].append(" ".join(parts))
        return mask

    # ------------------------------------------------------------------
    # Assignment targets
    # ------------------------------------------------------------------

    def _merge_scalar(self, old: Any, new: Any, mask: _Mask) -> Any:
        """Masked select for real and integer scalar slots."""
        tn = type(new)
        if tn is _LF:
            return self.merge_lf(old, new, mask)
        if self.covers_alive(mask):
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

    def _assign(self, target: Any, value: Any, frame: _BFrame,
                mask: _Mask) -> None:
        if isinstance(target, F.Name):
            self._assign_name(target.name, value, frame, mask)
            return
        if isinstance(target, F.Apply):
            container = frame.find(target.name)
            if type(container) is not _BArr:
                self.deactivate_mask(
                    mask,
                    f"subscripted assignment to non-array {target.name!r}")
                return
            self._assign_indexed(container, target.args, value, frame, mask)
            return
        raise _Unsupported(f"cannot assign to {type(target).__name__}")

    def _assign_name(self, name: str, value: Any, frame: _BFrame,
                     mask: _Mask) -> None:
        slot = frame.find_slot(name)
        current = slot[name]
        if type(current) is _BArr:
            raise _Unsupported("whole-array assignment")
        slot[name] = self._convert_like(current, value, frame.scope, mask)

    def _convert_like(self, current: Any, value: Any, scope: str,
                      mask: _Mask) -> Any:
        """Cast *value* to the slot's declared type; mirrors the scalar
        charges (convert iff the value kind differs, store always)."""
        if type(current) is _LF:
            if type(value) is _LF:
                self._nan_guard(value.data, mask)
            else:
                self._nan_guard(value, mask)
            kd = current.kv
            kv = self._kv_val(value)
            if kv is not None and not self.rhs_literal:
                diff = kv.arr != kd.arr
                if diff.any():
                    self.add_op(scope, "convert", kd, self.cur, 1,
                                self.intern.mask(diff & mask.arr))
            self.add_op(scope, "store", kd, self.cur, 1, mask)
            return self.merge_lf(current, self.cast_lf(value, kd), mask)
        if type(current) is int or type(current) is _LI:
            return self._merge_scalar(current, self.to_int(value), mask)
        # Uninitialized slot: store as-is (mirrors the scalar fallthrough).
        return self._merge_scalar(current, value, mask) \
            if type(value) is _LF else value

    def _masked_array_store(self, arr: _BArr, key: tuple, raw: Any,
                            mask: _Mask) -> None:
        """Store *raw* into ``arr.data[:, *key]`` for the mask's lanes,
        rounding through the array's per-lane kind."""
        dest = arr.data[(slice(None), *key)] if key else arr.data
        try:
            if arr.kv is not None:
                self._nan_guard(raw, mask)
                if isinstance(raw, np.ndarray):
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

    def _assign_indexed(self, arr: _BArr, args: list, value: Any,
                        frame: _BFrame, mask: _Mask) -> None:
        keyinfo = self._index_key(arr, args, frame, mask)
        if keyinfo is None:
            return
        key, n_elements, is_section, gather = keyinfo
        mask = self._live(mask)
        if mask.n == 0:
            return
        if arr.kv is not None:
            kv = self._kv_val(value)
            vec = True if is_section else self.cur
            if kv is not None and not self.rhs_literal:
                diff = kv.arr != arr.kv.arr
                if diff.any():
                    self.add_op(frame.scope, "convert", arr.kv, vec,
                                n_elements,
                                self.intern.mask(diff & mask.arr))
            self.add_op(frame.scope, "store", arr.kv, vec, n_elements, mask)
        tv = type(value)
        if gather is not None:
            # Per-lane scatter with divergent integer indices.
            lanes = np.flatnonzero(mask.arr)
            if tv is _LF:
                vals = _round_to(value.data, arr.kv) if arr.kv is not None \
                    else value.data
                arr.data[(lanes, *(g[lanes] for g in gather))] = vals[lanes]
            elif tv is _LI:
                arr.data[(lanes, *(g[lanes] for g in gather))] = \
                    value.arr[lanes]
            elif tv is _LB:
                arr.data[(lanes, *(g[lanes] for g in gather))] = \
                    value.arr[lanes]
            elif tv in (int, float, bool):
                if arr.kv is not None:
                    v = _round_to(np.full(self.width, float(value),
                                          dtype=_F64), arr.kv)
                    arr.data[(lanes, *(g[lanes] for g in gather))] = v[lanes]
                else:
                    arr.data[(lanes, *(g[lanes] for g in gather))] = value
            else:
                self.deactivate_mask(mask, "unsupported scatter value")
            return
        if tv is _BArr:
            raw: Any = value.data
        elif tv is _LF:
            raw = value.data if not is_section else \
                _expand_section(value.data, arr.data[(slice(None), *key)])
        elif tv in (_LI, _LB):
            raw = value.arr if not is_section else \
                _expand_section(value.arr, arr.data[(slice(None), *key)])
        else:
            raw = value
        self._masked_array_store(arr, key, raw, mask)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index_key(self, arr: _BArr, args: list, frame: _BFrame,
                   mask: _Mask):
        """Mirror of the scalar ``_index_key``.

        Returns ``(key, n_elements, is_section, gather)`` or None when
        every lane of *mask* was deactivated.  ``gather`` is non-None for
        divergent integer element indices: a tuple of per-lane int64[L]
        index vectors (one per dimension), used for per-lane
        gather/scatter instead of a uniform key.
        """
        data = arr.data
        if data.ndim == 2 and len(args) == 1 \
                and type(args[0]) is not F.RangeExpr:
            idx_val = self._eval(args[0], frame, mask)
            t = type(idx_val)
            extent = data.shape[1]
            lb = arr.lbounds[0]
            if t is _LF:
                idx_val = self.to_int(idx_val)
                t = _LI
            if t is _LI:
                j = idx_val.arr - lb
                oob = ((j < 0) | (j >= extent)) & mask.arr
                if oob.any():
                    self.deactivate(oob.copy(), "index out of bounds")
                hi = extent - 1 if extent > 0 else 0
                jc = np.minimum(np.maximum(j, 0), hi)
                mask = self._live(mask)
                if mask.n == 0:
                    return None
                return (jc,), 1, False, (jc,)
            if t is _BArr:
                if idx_val.kv is not None:
                    self.deactivate_mask(mask, "real vector subscript")
                    return None
                first = idx_val.data[0]
                if not bool(np.all(idx_val.data == first[None])):
                    self.deactivate_mask(mask, "divergent vector subscript")
                    return None
                mask = self._live(mask)
                if mask.n == 0:
                    return None
                return ((first.astype(np.int64) - lb,), int(first.size),
                        True, None)
            j = int(idx_val) - lb
            if 0 <= j < extent:
                mask = self._live(mask)
                if mask.n == 0:
                    return None
                return (j,), 1, False, None
            self.deactivate_mask(
                mask, f"index {int(idx_val)} out of bounds "
                f"[{lb}:{lb + extent - 1}]")
            return None
        if len(args) != arr.rank:
            self.deactivate_mask(
                mask, f"rank mismatch: {len(args)} subscripts for "
                f"rank-{arr.rank} array")
            return None
        key: list[Any] = []
        idx_vecs: list[np.ndarray] = []
        divergent = False
        is_section = False
        n_elements = 1
        for arg, lb, extent in zip(args, arr.lbounds, arr.shape):
            if isinstance(arg, F.RangeExpr):
                is_section = True
                lo = (self._uniform_int(self._eval(arg.lo, frame, mask),
                                        mask, "divergent section bound") - lb
                      if arg.lo is not None else 0)
                hi = (self._uniform_int(self._eval(arg.hi, frame, mask),
                                        mask, "divergent section bound")
                      - lb + 1 if arg.hi is not None else extent)
                step = (self._uniform_int(self._eval(arg.step, frame, mask),
                                          mask, "divergent section step")
                        if arg.step is not None else 1)
                if lo < 0 or hi > extent:
                    self.deactivate_mask(
                        mask, f"section [{lo + lb}:{hi + lb - 1}] out of "
                        f"bounds [{lb}:{lb + extent - 1}]")
                    return None
                count = max(0, (hi - lo + (step - 1)) // step)
                n_elements *= count
                key.append(slice(lo, hi, step))
                idx_vecs.append(None)  # type: ignore[arg-type]
                continue
            idx_val = self._eval(arg, frame, mask)
            t = type(idx_val)
            if t is _BArr:
                # Vector subscript (gather) — must be lane-uniform.
                if idx_val.kv is not None:
                    self.deactivate_mask(mask, "real vector subscript")
                    return None
                first = idx_val.data[0]
                if not bool(np.all(idx_val.data == first[None])):
                    self.deactivate_mask(mask, "divergent vector subscript")
                    return None
                is_section = True
                n_elements *= int(first.size)
                key.append(first.astype(np.int64) - lb)
                idx_vecs.append(None)  # type: ignore[arg-type]
                continue
            if t is _LF:
                idx_val = self.to_int(idx_val)
                t = _LI
            if t is _LI or type(idx_val) is _LI:
                j = idx_val.arr - lb
                oob = ((j < 0) | (j >= extent)) & mask.arr
                if oob.any():
                    self.deactivate(oob.copy(), "index out of bounds")
                divergent = True
                hi = extent - 1 if extent > 0 else 0
                key.append(np.minimum(np.maximum(j, 0), hi))
                idx_vecs.append(key[-1])
                continue
            j = int(idx_val) - lb
            if j < 0 or j >= extent:
                self.deactivate_mask(
                    mask, f"index {int(idx_val)} out of bounds "
                    f"[{lb}:{lb + extent - 1}]")
                return None
            key.append(j)
            idx_vecs.append(None)  # type: ignore[arg-type]
        mask = self._live(mask)
        if mask.n == 0:
            return None
        if divergent:
            if is_section:
                # Mixed divergent elements + sections: make them uniform.
                for d, vec in enumerate(idx_vecs):
                    if vec is None or not isinstance(key[d], np.ndarray):
                        continue
                    first = int(vec[np.flatnonzero(mask.arr)[0]])
                    diff = mask.arr & (vec != first)
                    if diff.any():
                        self.deactivate(diff.copy(), "divergent index")
                    key[d] = first
                mask = self._live(mask)
                if mask.n == 0:
                    return None
                return tuple(key), n_elements, is_section, None
            gather = tuple(
                vec if vec is not None
                else np.full(self.width, key[d], dtype=np.int64)
                for d, vec in enumerate(idx_vecs))
            return tuple(key), n_elements, False, gather
        return tuple(key), n_elements, is_section, None

    def _eval_array_ref(self, arr: _BArr, args: list, frame: _BFrame,
                        mask: _Mask) -> Any:
        keyinfo = self._index_key(arr, args, frame, mask)
        if keyinfo is None:
            return _LF(np.zeros(self.width, dtype=_F64), self.intern.kv8)
        key, n_elements, is_section, gather = keyinfo
        if arr.kv is not None and self.suppress == 0:
            self.add_op(frame.scope, "load", arr.kv,
                        True if is_section else self.cur, n_elements, mask)
        if gather is not None:
            lanes = np.arange(self.width)
            vals = arr.data[(lanes, *gather)]
            if arr.kv is not None:
                return _LF(vals.astype(_F64, copy=False), arr.kv)
            if arr.data.dtype == np.bool_:
                return _LB(vals)
            return _LI(vals)
        if is_section:
            view = arr.data[(slice(None), *key)]
            lbounds = tuple(1 for _ in range(view.ndim - 1))
            return _BArr(view, lbounds, arr.kv)
        vals = arr.data[(slice(None), *key)]
        if arr.kv is not None:
            return _LF(vals.copy(), arr.kv)
        if arr.data.dtype == np.bool_:
            return _LB(vals.copy())
        return _LI(vals.copy())

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _eval(self, expr: Any, frame: _BFrame, mask: _Mask) -> Any:
        method = self._eval_table.get(type(expr))
        if method is None:
            raise _Unsupported(f"cannot evaluate {type(expr).__name__}")
        return method(expr, frame, mask)

    def _eval_int_lit(self, expr: F.IntLit, frame: _BFrame,
                      mask: _Mask) -> int:
        return expr.value

    def _eval_real_lit(self, expr: F.RealLit, frame: _BFrame,
                       mask: _Mask) -> _LF:
        lf = self._lits.get(id(expr))
        if lf is None:
            v = float(dtype_for_kind(expr.kind).type(expr.value))
            lf = _LF(np.full(self.width, v, dtype=_F64),
                     self.intern.kv_uniform(expr.kind))
            self._lits[id(expr)] = lf
        return lf

    def _eval_logical_lit(self, expr: F.LogicalLit, frame: _BFrame,
                          mask: _Mask) -> bool:
        return expr.value

    def _eval_string_lit(self, expr: F.StringLit, frame: _BFrame,
                         mask: _Mask) -> str:
        return expr.value

    def _eval_name(self, expr: F.Name, frame: _BFrame, mask: _Mask) -> Any:
        val = frame.find(expr.name)
        if self.suppress == 0:
            t = type(val)
            if t is _LF:
                self.add_op(frame.scope, "load", val.kv, self.cur, 1, mask)
            elif t is _BArr:
                if val.kv is not None:
                    self.add_op(frame.scope, "load", val.kv, True,
                                val.size, mask)
            else:
                kv = self._kv_val(val)
                if kv is not None:
                    self.add_op(frame.scope, "load", kv, self.cur, 1, mask)
        return val

    def _eval_unary(self, expr: F.UnaryOp, frame: _BFrame,
                    mask: _Mask) -> Any:
        val = self._eval(expr.operand, frame, mask)
        if expr.op == ".not.":
            t = self._truthmask(val, mask)
            if t.n == 0:
                return True
            if t.n == mask.n:
                return False
            return _LB(mask.arr & ~t.arr)
        if expr.op == "+":
            return val
        t = type(val)
        kv = self._kv_val(val)
        if kv is not None:
            vec = True if t is _BArr else self.cur
            self.add_op(frame.scope, "arith", kv, vec, _elems(val), mask)
        if t is _LF:
            return _LF(-val.data, val.kv)  # negation is exact
        if t is _LI:
            return _LI(-val.arr)
        if t is _BArr:
            if val.data.dtype == np.bool_:
                self.deactivate_mask(mask, "negation of a logical value")
                return val
            return _BArr(-val.data, val.lbounds, val.kv)
        if t is bool or t is _LB:
            self.deactivate_mask(mask, "negation of a logical value")
            return val
        return -val  # python int

    def _eval_binop(self, expr: F.BinOp, frame: _BFrame,
                    mask: _Mask) -> Any:
        op = expr.op
        if op == ".and.":
            left = self._eval(expr.left, frame, mask)
            lt = self._truthmask(left, mask)
            if lt.n == 0:
                return False
            right = self._eval(expr.right, frame, lt)
            rt = self._truthmask(right, lt)
            if rt.n == 0:
                return False
            if rt.n == mask.n:
                return True
            return _LB(rt.arr.copy())
        if op == ".or.":
            left = self._eval(expr.left, frame, mask)
            lt = self._truthmask(left, mask)
            if lt.n == mask.n:
                return True
            sub = self.intern.mask(mask.arr & ~lt.arr)
            right = self._eval(expr.right, frame, sub)
            rt = self._truthmask(right, sub)
            out = lt.arr | rt.arr
            n = int((out & mask.arr).sum())
            if n == 0:
                return False
            if n == mask.n:
                return True
            return _LB(out)
        if op in (".eqv.", ".neqv."):
            lt = self._truthmask(self._eval(expr.left, frame, mask), mask)
            rt = self._truthmask(self._eval(expr.right, frame, mask), mask)
            eq = ~(lt.arr ^ rt.arr) if op == ".eqv." else (lt.arr ^ rt.arr)
            n = int((eq & mask.arr).sum())
            if n == 0:
                return False
            if n == mask.n:
                return True
            return _LB(eq & mask.arr)

        left = self._eval(expr.left, frame, mask)
        right = self._eval(expr.right, frame, mask)
        kvl = self._kv_val(left)
        kvr = self._kv_val(right)

        if kvl is None and kvr is None:
            return self._int_binop(op, left, right, frame, mask)

        tl_b = type(left) is _BArr
        tr_b = type(right) is _BArr
        if tl_b or tr_b:
            n = max(left.size if tl_b else 1,
                    right.size if tr_b else 1)
        else:
            n = 1
        vec = self._vec_or(self.cur, n)
        wide = self._promote_kv(kvl, kvr)
        assert wide is not None
        if kvl is not None and kvr is not None and kvl is not kvr:
            ckey = (kvl, kvr)
            got = self._cvt_cache.get(ckey)
            if got is None:
                lo = kvl.arr < kvr.arr
                hi = kvl.arr > kvr.arr
                got = (lo if lo.any() else None, hi if hi.any() else None)
                self._cvt_cache[ckey] = got
            lo, hi = got
            if lo is not None and not isinstance(expr.left,
                                                 (F.RealLit, F.IntLit)):
                self.add_op(frame.scope, "convert", wide, vec, _elems(left),
                            self.intern.mask(lo & mask.arr))
            if hi is not None and not isinstance(expr.right,
                                                 (F.RealLit, F.IntLit)):
                self.add_op(frame.scope, "convert", wide, vec, _elems(right),
                            self.intern.mask(hi & mask.arr))

        if op in _CMP_OPS:
            self.add_op(frame.scope, "cmp", wide, vec, n, mask)
            return self._real_compare(op, left, right, mask)
        self.add_op(frame.scope, _ARITH_CLASS[op], wide, vec, n, mask)
        return self._real_arith(op, expr, left, right, wide, frame, mask)

    # ------------------------------------------------------------------
    # Numeric kernels
    # ------------------------------------------------------------------

    @staticmethod
    def _np_compare(op: str, l: Any, r: Any) -> Any:
        return _CMP_FN[op](l, r)

    def _int_raw(self, v: Any) -> Any:
        t = type(v)
        if t is _LI:
            return v.arr
        if t is _LB:
            return v.arr.astype(np.int64)
        if t is bool:
            return int(v)
        return v

    def _int_binop(self, op: str, left: Any, right: Any, frame: _BFrame,
                   mask: _Mask) -> Any:
        """Pure integer/logical arithmetic (free in the cost model)."""
        tl, tr = type(left), type(right)
        if tl is _BArr or tr is _BArr:
            raise _Unsupported("integer-array arithmetic")
        if tl in (_LI, _LB) or tr in (_LI, _LB):
            l = self._int_raw(left)
            r = self._int_raw(right)
            if op in _CMP_OPS:
                return _LB(np.broadcast_to(
                    self._np_compare(op, l, r), (self.width,)).copy())
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
                l64 = np.asarray(l, dtype=np.int64)
                r64 = np.asarray(r, dtype=np.int64)
                neg = np.broadcast_to(r64 < 0, (self.width,)) & mask.arr
                if neg.any():
                    # Python yields a float for a negative exponent; the
                    # scalar fallback reproduces it.
                    self.deactivate(neg.copy(), "negative integer exponent")
                rsafe = np.where(r64 < 0, 0, r64)
                return _LI(np.broadcast_to(
                    l64 ** rsafe, (self.width,)).astype(np.int64))
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
            return _LI(np.broadcast_to(out, (self.width,)).astype(np.int64))
        # Lane-uniform Python operands: exact Python semantics (unbounded
        # ints, truncating division).
        if op in _CMP_OPS:
            return bool(self._np_compare(op, left, right))
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
            return left ** right
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

    def _real_compare(self, op: str, left: Any, right: Any,
                      mask: _Mask) -> Any:
        tl, tr = type(left), type(right)
        has_arr = tl is _BArr or tr is _BArr
        if tl is _BArr:
            ndim = (left.data.ndim if tr is not _BArr
                    else max(left.data.ndim, right.data.ndim))
        elif tr is _BArr:
            ndim = right.data.ndim
        else:
            ndim = 1
        out = _CMP_FN[op](self._wide_raw(left, ndim),
                          self._wide_raw(right, ndim))
        if has_arr:
            template = left if tl is _BArr else right
            return _BArr(out, template.lbounds, None)
        if isinstance(out, np.ndarray):
            return _LB(out)
        return bool(out)

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
            if out.dtype.kind != "f":
                return
            if out.size > 64:
                if not np.isnan(np.min(out)):
                    return
            bad = np.isnan(out)
            if not bad.any():
                return
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

    def _real_arith(self, op: str, expr: F.BinOp, left: Any, right: Any,
                    wide: _KV, frame: _BFrame, mask: _Mask) -> Any:
        if op == "**":
            return self._pow_native(left, right, frame, mask)
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
        # Which lanes did the scalar interpreter compute in float32?
        # Exactly those where every *strong* (non-weak) real operand is
        # kind 4; a strong int64 array promotes the whole op to float64.
        kl = left.kv if (tl is _LF or tl is _BArr) else None
        kr = right.kv if (tr is _LF or tr is _BArr) else None
        if (has_int_arr or (kl is None and kr is None)
                or (kl is not None and not kl.any4)
                or (kr is not None and not kr.any4)):
            kv_out = self.intern.kv8
        else:
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
            m4c, kv_out = got
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

    def _pow_native(self, left: Any, right: Any, frame: _BFrame,
                    mask: _Mask) -> Any:
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

    def deactivate_at(self, lane: int, reason: str) -> None:
        lanes = np.zeros(self.width, dtype=bool)
        lanes[lane] = True
        self.deactivate(lanes, reason)

    # ------------------------------------------------------------------
    # Function application and intrinsics
    # ------------------------------------------------------------------

    def _placeholder(self) -> _LF:
        return _LF(np.zeros(self.width, dtype=_F64), self.intern.kv8)

    def _eval_apply(self, expr: F.Apply, frame: _BFrame, mask: _Mask) -> Any:
        name = expr.name
        if frame.has(name):
            val = frame.find(name)
            if type(val) is _BArr:
                return self._eval_array_ref(val, expr.args, frame, mask)
            if val is None:
                self.deactivate_mask(
                    mask, f"use of unallocated array {name!r}")
                return self._placeholder()
        scope = self.index.find_procedure(name)
        if scope is not None and isinstance(scope.node, F.Function):
            proc = scope.node
            actuals = self._prepare_actuals(proc, expr.args, frame, mask)
            if actuals is None:
                return self._placeholder()
            return self._binvoke(scope.name, proc, actuals,
                                 caller_scope=frame.scope,
                                 vec_ctx=self.cur, mask=self._live(mask))
        intr = INTRINSICS.get(name)
        if intr is not None:
            return self._eval_intrinsic(intr, expr, frame, mask)
        self.deactivate_mask(mask, f"unknown function or array {name!r}")
        return self._placeholder()

    def _eval_intrinsic(self, intr, expr: F.Apply, frame: _BFrame,
                        mask: _Mask) -> Any:
        args: list[Any] = []
        kwargs: dict[str, Any] = {}
        suppress = intr.opclass == "none"
        if suppress:
            self.suppress += 1
        try:
            for a in expr.args:
                if isinstance(a, F.KeywordArg):
                    kwargs[a.name] = self._eval(a.value, frame, mask)
                else:
                    args.append(self._eval(a, frame, mask))
        finally:
            if suppress:
                self.suppress -= 1
        result = self._intrinsic_dispatch(intr, args, kwargs, frame, mask)
        if intr.opclass != "none":
            n = max((_elems(a) for a in args), default=1)
            kv = self._kv_val(result)
            if kv is None:
                kv = next((self._kv_val(a) for a in args
                           if self._kv_val(a) is not None), None)
            if kv is not None:
                vec = self._vec_or(self.cur, n)
                self.add_op(frame.scope, intr.opclass, kv, vec, n,
                            self._live(mask))
        return result

    def _intrinsic_dispatch(self, intr, args: list, kwargs: dict,
                            frame: _BFrame, mask: _Mask) -> Any:
        name = intr.name
        try:
            if name == "abs":
                return self._intr_abs(args, mask)
            if name == "sqrt":
                return self._intr_sqrt(args, mask)
            if name in ("min", "max"):
                return self._intr_minmax(name, args, mask)
            if name in ("epsilon", "huge", "tiny"):
                return self._intr_model_query(name, args, mask)
        except _AllLanesDead:
            raise
        except _Unsupported:
            self.deactivate_mask(mask, f"unsupported {name} arguments")
            return self._placeholder()
        except Exception:
            self.deactivate_mask(mask, f"intrinsic {name} failed")
            return self._placeholder()
        # The transcendentals and reductions (not exactly rounded under
        # widening) and every intrinsic the models never call: each
        # lane makes the scalar interpreter's own call.
        return self._native_intrinsic(intr, args, kwargs, mask)

    # -- vectorized intrinsic kernels (exact under widening) ------------

    def _intr_abs(self, args: list, mask: _Mask) -> Any:
        (x,) = args
        t = type(x)
        if t is _LF:
            return _LF(np.abs(x.data), x.kv)
        if t is _BArr:
            return _BArr(np.abs(x.data), x.lbounds, x.kv)
        if t is _LI:
            return _LI(np.abs(x.arr))
        if t is bool or t is int:
            return int(np.abs(x))
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
        out = np.sqrt(data)
        if kv.u == KIND_DOUBLE:
            return out
        r32 = np.sqrt(data.astype(_F32)).astype(_F64)
        if kv.u == KIND_SINGLE:
            return r32
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

    def _eval_range(self, expr: F.RangeExpr, frame: _BFrame,
                    mask: _Mask) -> Any:
        self.deactivate_mask(mask, "array section outside a subscript")
        return self._placeholder()

    def _eval_keyword(self, expr: F.KeywordArg, frame: _BFrame,
                      mask: _Mask) -> Any:
        self.deactivate_mask(mask, "keyword argument in invalid position")
        return self._placeholder()

    # ------------------------------------------------------------------
    # Argument references
    # ------------------------------------------------------------------

    def _prepare_actuals(self, proc: F.ProcedureUnit, args: list,
                         frame: _BFrame, mask: _Mask):
        """Mirror of the scalar ``_prepare_actuals``; None on failure."""
        if len(args) != len(proc.args):
            self.deactivate_mask(
                mask, f"{proc.name} expects {len(proc.args)} arguments, "
                f"got {len(args)}")
            return None
        actuals = []
        for arg in args:
            if isinstance(arg, F.KeywordArg):
                self.deactivate_mask(
                    mask, "keyword arguments to user procedures are "
                    "not supported")
                return None
            actuals.append(self._beval_ref(arg, frame, mask))
        return actuals

    def _beval_ref(self, expr: F.Expr, frame: _BFrame, mask: _Mask):
        """Evaluate an actual argument: (value, masked-setter-or-None)."""
        if isinstance(expr, F.Name):
            val = frame.find(expr.name)
            slot = frame.find_slot(expr.name)
            name = expr.name

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

            return val, set_name
        if isinstance(expr, F.Apply) and frame.has(expr.name):
            container = frame.find(expr.name)
            if type(container) is _BArr:
                keyinfo = self._index_key(container, expr.args, frame, mask)
                if keyinfo is None:
                    return self._placeholder(), None
                key, _n, is_section, gather = keyinfo
                if is_section:
                    # An array dummy writes through the view; a scalar
                    # dummy refuses a section before any write-back.
                    view = container.data[(slice(None), *key)]
                    lb = tuple(1 for _ in range(view.ndim - 1))
                    return _BArr(view, lb, container.kv), None
                if gather is not None:
                    raise _Unsupported("gathered array-element argument")
                if container.kv is None:
                    raise _Unsupported("non-real array-element argument")
                val = _LF(container.data[(slice(None), *key)].astype(_F64),
                          container.kv)
                if self.suppress == 0:
                    self.add_op(frame.scope, "load", container.kv,
                                self.cur, 1, mask)

                def refuse_write_back(new: Any, wmask: _Mask) -> None:
                    raise _Unsupported("written-back array-element argument")

                return val, refuse_write_back
        return self._eval(expr, frame, mask), None

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def _dummy_lbounds_b(self, sym: Symbol, actual: _BArr, frame: _BFrame,
                         mask: _Mask):
        assert sym.dims is not None
        if len(sym.dims) != actual.rank:
            self.deactivate_mask(
                mask, f"rank mismatch binding {sym.name!r}: dummy rank "
                f"{len(sym.dims)}, actual rank {actual.rank}")
            return None
        lbounds = []
        for dim in sym.dims:
            if dim.assumed or (dim.lower is None and dim.upper is None):
                lbounds.append(1)
            elif dim.lower is not None:
                lbounds.append(self._uniform_int(
                    self._eval(dim.lower, frame, mask), mask,
                    "dummy array bound"))
            else:
                lbounds.append(1)
        return tuple(lbounds)

    def _binvoke(self, qual: str, proc: F.ProcedureUnit, actuals: list,
                 caller_scope: str, vec_ctx: Any, mask: _Mask) -> Any:
        mask = self._live(mask)
        if mask.n == 0:
            return self._placeholder() if isinstance(proc, F.Function) \
                else None
        scope_info = self.index.scopes[qual]
        inlinable = (self.vec_info.is_inlinable(proc.name)
                     if self.vec_info is not None else False)
        is_function = isinstance(proc, F.Function)

        def writes_back(sym: Symbol) -> bool:
            if sym.intent in ("out", "inout"):
                return True
            return sym.intent is None and not is_function

        frame = self._make_frame(qual, scope_info, vec_inherit=False,
                                 mask=mask)
        wrapped_arr = np.zeros(self.width, dtype=bool)
        real_actual_kvs: list[_KV] = []
        writebacks: list[tuple] = []

        scalar_binds = []
        array_binds = []
        for dummy_name, (value, setter) in zip(proc.args, actuals):
            sym = scope_info.symbols[dummy_name]
            if sym.is_array or sym.type_ == "derived":
                array_binds.append((dummy_name, sym, value, setter))
            else:
                scalar_binds.append((dummy_name, sym, value, setter))

        for dummy_name, sym, value, setter in scalar_binds:
            if sym.type_ == "real":
                kd_kv = self.kv_for(sym)
                assert kd_kv is not None
                if value is None:
                    value = 0.0
                    ka_kv = kd_kv
                else:
                    ka_kv = self._kv_val(value)
                    if ka_kv is None:
                        ka_kv = kd_kv
                real_actual_kvs.append(ka_kv)
                mm = (ka_kv.arr != kd_kv.arr) & mask.arr
                if mm.any():
                    wrapped_arr |= mm
                    self.add_bc(caller_scope, qual, 1,
                                self.intern.mask(mm))
                frame.values[dummy_name] = self.cast_lf(value, kd_kv)
                if setter is not None and writes_back(sym):
                    writebacks.append(("rs", dummy_name, ka_kv, setter))
            elif sym.type_ == "integer":
                frame.values[dummy_name] = self.to_int(value)
                if setter is not None and writes_back(sym):
                    writebacks.append(("pl", dummy_name, None, setter))
            else:
                raise _Unsupported(f"{sym.type_} scalar {dummy_name!r}")

        for dummy_name, sym, value, setter in array_binds:
            if sym.type_ == "derived":
                frame.values[dummy_name] = value
                continue
            if type(value) is not _BArr:
                self.deactivate_mask(
                    mask, f"argument {dummy_name!r} of {proc.name!r} "
                    "must be an array")
                return self._placeholder() if is_function else None
            lbounds = self._dummy_lbounds_b(sym, value, frame, mask)
            if lbounds is None:
                return self._placeholder() if is_function else None
            if sym.type_ == "real":
                kd_kv = self.kv_for(sym)
                assert kd_kv is not None and value.kv is not None
                real_actual_kvs.append(value.kv)
                mm = (value.kv.arr != kd_kv.arr) & mask.arr
                if not mm.any():
                    frame.values[dummy_name] = _BArr(value.data, lbounds,
                                                     kd_kv)
                else:
                    wrapped_arr |= mm
                    self.add_bc(caller_scope, qual, value.size,
                                self.intern.mask(mm))
                    data = _round_to(value.data, kd_kv)
                    if data is value.data:
                        data = data.copy()
                    frame.values[dummy_name] = _BArr(data, lbounds, kd_kv)
                    writebacks.append(
                        ("ra", dummy_name, value,
                         mm.copy() if writes_back(sym) else None))
            else:
                frame.values[dummy_name] = _BArr(value.data, lbounds,
                                                 value.kv)

        for sym in scope_info.symbols.values():
            if sym.is_argument or sym.name in frame.values:
                continue
            if sym.decl is not None and (
                    "save" in sym.decl.attrs
                    or (sym.init is not None and not sym.is_parameter)):
                raise _Unsupported(f"SAVE local {sym.name!r}")
            frame.values[sym.name] = self._elaborate_symbol(sym, frame,
                                                            mask)

        if vec_ctx is False or not inlinable:
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

        self._exec_block(proc.body, frame, self._live(mask))

        wmask = self._live(mask)
        if wmask.n:
            for tag, dummy_name, extra, *rest in writebacks:
                final = frame.values[dummy_name]
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
            result = frame.values.get(proc.result)
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
            return self.interp.call(name, args)
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
        self._ensure_interp()
        return self.interp.call(name, args)

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
        result: Any = None
        try:
            result = engine.execute_call(name, pairs)
        except _AllLanesDead:
            engine.dead = True
        except Exception as exc:
            # Uniform structural error (unknown procedure, arity) or an
            # engine surprise: either way every lane re-runs on the
            # scalar path, which reproduces the exact scalar outcome.
            self._kill_all(f"{type(exc).__name__}: {exc}")
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
        """Copy lane's outputs of a recorded call into real arguments."""
        engine = self.engine
        for tag, i, payload in rec.outs:
            if tag == "farray":
                dest = args[i]
                dest.data[...] = payload.data[lane].astype(
                    dest.data.dtype, copy=False)
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
        for reason in self.engine.fallback_reason.values():
            s.fallback_reasons[reason] = \
                s.fallback_reasons.get(reason, 0) + 1
        return s
