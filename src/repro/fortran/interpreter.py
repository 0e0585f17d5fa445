"""Tree-walking interpreter for the Fortran subset, with full
mixed-precision semantics and operation-count instrumentation.

This is the substitute for "compile with ifort and run on Derecho":

* **Numerics** are IEEE-faithful.  Every real value is a NumPy
  ``float32``/``float64`` scalar or array; kind promotion, assignment
  casts and intrinsic kind propagation follow the Fortran rules, so a
  mixed-precision variant computes bit-for-bit what the compiled program
  would (modulo instruction scheduling, which also differs between real
  compilers).
* **Performance** is *counted*, not timed: every operation lands in a
  :class:`~repro.fortran.instrumentation.Ledger` bucket keyed by
  procedure, operation class, kind, and vector context.  The machine
  model turns the ledger into simulated CPU seconds.

Precision overlay
-----------------
``overlay`` maps qualified symbol names (``module::proc::var``) to a real
kind, overriding the declared kind — semantically identical to applying
the source-to-source transformation and re-parsing (the equivalence is
covered by tests), but hundreds of times faster for search loops.  Casts
that the transformation would introduce via wrappers (paper Fig. 4) are
performed *and counted* at call boundaries.

Runtime errors
--------------
``error stop``, NaN guards, iteration-cap guards and the op budget raise
:class:`~repro.errors.FortranRuntimeError` subclasses; the tuning harness
classifies them — they are expected outcomes for aggressive variants.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..errors import (FortranRuntimeError, FortranStopError,
                      InterpreterLimitError, SemanticError)
from . import ast_nodes as F
from .instrumentation import Ledger
from .intrinsics import INTRINSICS
from .symbols import (_CMP_OPS, KIND_SINGLE, ProgramIndex, Symbol,
                      chain_modules, effective_kind, int_pow)
from .values import (FArray, cast_real, dtype_for_kind, element_count,
                     kind_of, promote_kinds)
from .vectorize import ProgramVecInfo

__all__ = ["Interpreter", "make_array", "OutBox"]


class OutBox:
    """Mutable scalar box for retrieving ``intent(out)`` scalars from
    harness-level :meth:`Interpreter.call` invocations."""

    __slots__ = ("value",)

    def __init__(self, value: Any = 0.0):
        self.value = value

    def set(self, new: Any) -> None:
        self.value = new

_ARITH_CLASS = {"+": "arith", "-": "arith", "*": "arith", "/": "div",
                "**": "pow"}
_BUDGET_CHECK_INTERVAL = 512


class _ExitLoop(Exception):
    pass


class _CycleLoop(Exception):
    pass


class _ReturnSignal(Exception):
    pass


def make_array(shape, kind: int | None = KIND_SINGLE, lbounds=None,
               fill: float = 0.0) -> FArray:
    """Convenience constructor for harness code passing arrays in/out."""
    if isinstance(shape, int):
        shape = (shape,)
    if lbounds is None:
        lbounds = tuple(1 for _ in shape)
    if kind is None:
        data = np.full(shape, int(fill), dtype=np.int64)
    else:
        data = np.full(shape, fill, dtype=dtype_for_kind(kind))
    return FArray(data, tuple(lbounds), kind)


class Frame:
    """One activation record: local storage plus a lookup chain.

    The batched engine's frames hold per-lane values, and a lane mask
    may stand in ``vec_inherit``."""

    __slots__ = ("scope", "values", "chain", "vec_inherit")

    def __init__(self, scope: str, chain_dicts: list[dict],
                 vec_inherit: bool = False):
        self.scope = scope
        self.values: dict[str, Any] = {}
        self.chain: list[dict] = [self.values, *chain_dicts]
        self.vec_inherit = vec_inherit

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


class Interpreter:
    """Executes a semantically analyzed program."""

    def __init__(
        self,
        index: ProgramIndex,
        overlay: Optional[dict[str, int]] = None,
        vec_info: Optional[ProgramVecInfo] = None,
        ledger: Optional[Ledger] = None,
        max_ops: Optional[int] = None,
    ):
        self.index = index
        self.overlay = overlay or {}
        self.vec_info = vec_info
        self.ledger = ledger if ledger is not None else Ledger()
        self.max_ops = max_ops
        self.stdout: list[str] = []

        self._module_frames: dict[str, Frame] = {}
        self._elaborating: set[str] = set()
        self._saves: dict[str, dict[str, Any]] = {}
        self._cur_vec = False
        self._suppress_loads = 0
        self._stmt_tick = 0
        self._current_scope = "<init>"
        # Statements dynamically devectorized because a call they contain
        # needed a precision wrapper (wrappers prevent inlining, which
        # prevents vectorization of the surrounding loop).
        self._devec_stmts: set[int] = set()
        self._cur_stmt_id: int = 0
        self._rhs_literal = False

        self._exec_table: dict[type, Callable[[Any, Frame], None]] = {
            F.Assignment: self._exec_assignment,
            F.CallStmt: self._exec_call_stmt,
            F.IfBlock: self._exec_if,
            F.SelectCase: self._exec_select,
            F.WhereConstruct: self._exec_where,
            F.DoLoop: self._exec_do,
            F.DoWhile: self._exec_do_while,
            F.ExitStmt: self._exec_exit,
            F.CycleStmt: self._exec_cycle,
            F.ReturnStmt: self._exec_return,
            F.StopStmt: self._exec_stop,
            F.PrintStmt: self._exec_print,
            F.AllocateStmt: self._exec_allocate,
            F.DeallocateStmt: self._exec_deallocate,
        }

        self._builtin_subs: dict[str, Callable[[Frame, list[Any]], None]] = {
            "mpi_allreduce_sum": self._builtin_allreduce,
            "mpi_allreduce_max": self._builtin_allreduce,
            "mpi_allreduce_min": self._builtin_allreduce,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_main(self) -> None:
        """Execute the main program unit of the source file."""
        for unit in self.index.source.units:
            if isinstance(unit, F.MainProgram):
                scope = self.index.scopes[unit.name]
                frame = self._make_frame(scope.name, scope, vec_inherit=False)
                for sym in scope.symbols.values():
                    frame.values[sym.name] = self._elaborate_symbol(sym, frame)
                with np.errstate(all="ignore"):
                    self._run_body(unit, frame)
                return
        raise SemanticError("source file has no main program")

    def call(self, name: str, args: Optional[list[Any]] = None) -> Any:
        """Call procedure *name* (bare name) with already-built values.

        Arrays passed as :class:`FArray` are aliased when kinds match, so
        results written by the callee are visible to the caller — this is
        how harness code retrieves model output.
        """
        scope = self.index.find_procedure(name)
        if scope is None:
            raise SemanticError(f"no procedure named {name!r}")
        proc = scope.node
        assert isinstance(proc, F.ProcedureUnit)
        values = list(args or [])
        if len(values) != len(proc.args):
            raise FortranRuntimeError(
                f"{name} expects {len(proc.args)} arguments, got {len(values)}"
            )
        pairs: list[tuple[Any, Optional[Callable[[Any], None]]]] = [
            (v.value, v.set) if isinstance(v, OutBox) else (v, None)
            for v in values
        ]
        with np.errstate(all="ignore"):
            return self._invoke(scope.name, proc, pairs,
                                caller_scope="<harness>", vec_ctx=False)

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------

    def _module_frame(self, name: str) -> Frame:
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
            chain = [self._module_frame(u).values for u in scope.uses]
            frame = Frame(name, chain)
            self._module_frames[name] = frame
            for sym in scope.symbols.values():
                frame.values[sym.name] = self._elaborate_symbol(sym, frame)
        finally:
            self._elaborating.discard(name)
        return frame

    def _elaborate_symbol(self, sym: Symbol, frame: Frame) -> Any:
        kind = effective_kind(sym, self.overlay)
        if sym.type_ == "derived":
            return self._instantiate_derived(sym.derived_name, frame)
        if sym.is_array:
            if sym.is_allocatable:
                return None  # allocated later
            return self._allocate_array(sym, kind, frame)
        if sym.init is not None:
            val = self._eval(sym.init, frame)
            return self._coerce_scalar(val, sym, kind)
        if sym.type_ == "real":
            assert kind is not None
            return dtype_for_kind(kind).type(0.0)
        if sym.type_ == "integer":
            return 0
        if sym.type_ == "logical":
            return False
        if sym.type_ == "character":
            return ""
        raise SemanticError(f"cannot elaborate symbol {sym.qualified}")

    def _coerce_scalar(self, val: Any, sym: Symbol, kind: Optional[int]) -> Any:
        if sym.type_ == "real":
            assert kind is not None
            return cast_real(val, kind)
        if sym.type_ == "integer":
            return int(val)
        if sym.type_ == "logical":
            return bool(val)
        return val

    def _allocate_array(self, sym: Symbol, kind: Optional[int],
                        frame: Frame) -> FArray:
        assert sym.dims is not None
        shape = []
        lbounds = []
        for dim in sym.dims:
            if dim.assumed or dim.deferred:
                raise FortranRuntimeError(
                    f"array {sym.name!r} has assumed shape but no actual "
                    "argument to take it from"
                )
            lb = 1 if dim.lower is None else int(self._eval(dim.lower, frame))
            ub = int(self._eval(dim.upper, frame))
            lbounds.append(lb)
            shape.append(max(0, ub - lb + 1))
        if sym.type_ == "real":
            assert kind is not None
            data = np.zeros(tuple(shape), dtype=dtype_for_kind(kind))
            return FArray(data, tuple(lbounds), kind)
        if sym.type_ == "integer":
            return FArray(np.zeros(tuple(shape), dtype=np.int64),
                          tuple(lbounds), None)
        if sym.type_ == "logical":
            return FArray(np.zeros(tuple(shape), dtype=np.bool_),
                          tuple(lbounds), None)
        raise SemanticError(f"cannot allocate array of type {sym.type_}")

    def _instantiate_derived(self, type_name: Optional[str],
                             frame: Frame) -> dict[str, Any]:
        tdef = self.index.type_defs.get(type_name or "")
        if tdef is None:
            raise SemanticError(f"unknown derived type {type_name!r}")
        inst: dict[str, Any] = {}
        for decl in tdef.components:
            for ent in decl.entities:
                comp_sym = Symbol(
                    name=ent.name, type_=decl.spec.base,
                    kind=(KIND_SINGLE if decl.spec.kind is None
                          else int(self._eval(decl.spec.kind, frame))),
                    dims=ent.dims if ent.dims is not None else decl.dims,
                    init=ent.init, scope=f"type({type_name})",
                )
                inst[ent.name] = self._elaborate_symbol(comp_sym, frame)
        return inst

    # ------------------------------------------------------------------
    # Procedure invocation
    # ------------------------------------------------------------------

    def _make_frame(self, scope_name: str, scope_info, vec_inherit: bool) -> Frame:
        chain = [self._module_frame(mod).values
                 for mod in chain_modules(self.index, scope_info)]
        return Frame(scope_name, chain, vec_inherit=vec_inherit)

    def _invoke(self, qual: str, proc: F.ProcedureUnit,
                actuals: list[tuple[Any, Optional[Callable[[Any], None]]]],
                caller_scope: str, vec_ctx: bool) -> Any:
        scope_info = self.index.scopes[qual]
        inlinable = (self.vec_info.is_inlinable(proc.name)
                     if self.vec_info is not None else False)
        is_function = isinstance(proc, F.Function)

        def writes_back(sym: Symbol) -> bool:
            # Mirrors the wrapper generator: subroutines write back unless
            # intent(in); function dummies only with explicit out/inout.
            if sym.intent in ("out", "inout"):
                return True
            return sym.intent is None and not is_function

        # --- bind scalars first so array bounds can reference them -------
        frame = self._make_frame(qual, scope_info, vec_inherit=False)
        wrapped = False
        real_actual_kinds: list[int] = []
        writebacks: list[tuple[str, Symbol, int | None,
                               Callable[[Any], None]]] = []

        scalar_binds: list[tuple[str, Symbol, Any, Any]] = []
        array_binds: list[tuple[str, Symbol, Any, Any]] = []
        for dummy_name, (value, setter) in zip(proc.args, actuals):
            sym = scope_info.symbols[dummy_name]
            if sym.is_array or sym.type_ == "derived":
                array_binds.append((dummy_name, sym, value, setter))
            else:
                scalar_binds.append((dummy_name, sym, value, setter))

        for dummy_name, sym, value, setter in scalar_binds:
            kd = effective_kind(sym, self.overlay)
            if sym.type_ == "real":
                if value is None:
                    value = 0.0  # OutBox(None): adopt the dummy's kind
                    ka = kd
                else:
                    ka = kind_of(value)
                if ka is None:
                    value = float(value)
                    ka = kd
                assert kd is not None
                real_actual_kinds.append(ka)
                if ka != kd:
                    wrapped = True
                    self._charge_boundary_cast(caller_scope, qual, 1, kd)
                frame.values[dummy_name] = cast_real(value, kd)
                if setter is not None and writes_back(sym):
                    writebacks.append((dummy_name, sym, ka, setter))
            elif sym.type_ == "integer":
                frame.values[dummy_name] = int(value)
                if setter is not None and writes_back(sym):
                    writebacks.append((dummy_name, sym, None, setter))
            elif sym.type_ == "logical":
                frame.values[dummy_name] = bool(value)
                if setter is not None and writes_back(sym):
                    writebacks.append((dummy_name, sym, None, setter))
            else:
                frame.values[dummy_name] = value

        for dummy_name, sym, value, setter in array_binds:
            if sym.type_ == "derived":
                frame.values[dummy_name] = value  # reference semantics
                continue
            if not isinstance(value, FArray):
                raise FortranRuntimeError(
                    f"argument {dummy_name!r} of {proc.name!r} must be an "
                    f"array, got {type(value).__name__}"
                )
            kd = (effective_kind(sym, self.overlay) if sym.type_ == "real"
                  else None)
            lbounds = self._dummy_lbounds(sym, value, frame)
            if sym.type_ == "real":
                assert kd is not None
                real_actual_kinds.append(value.kind)
                if value.kind == kd:
                    frame.values[dummy_name] = FArray(value.data, lbounds, kd)
                else:
                    wrapped = True
                    self._charge_boundary_cast(caller_scope, qual,
                                               value.size, kd)
                    conv = FArray(
                        value.data.astype(dtype_for_kind(kd)), lbounds, kd
                    )
                    frame.values[dummy_name] = conv
                    if writes_back(sym):
                        original = value

                        def write_back_array(final: Any,
                                             _orig: FArray = original) -> None:
                            assert isinstance(final, FArray)
                            _orig.data[...] = final.data.astype(
                                _orig.data.dtype)

                        writebacks.append(
                            (dummy_name, sym, value.kind, write_back_array)
                        )
            else:
                frame.values[dummy_name] = FArray(value.data, lbounds,
                                                  value.kind)

        # --- elaborate locals ---------------------------------------------
        saves = self._saves.setdefault(qual, {})
        for sym in scope_info.symbols.values():
            if sym.is_argument or sym.name in frame.values:
                continue
            is_saved = sym.decl is not None and (
                "save" in sym.decl.attrs
                or (sym.init is not None and not sym.is_parameter)
            )
            if is_saved:
                if sym.name not in saves:
                    saves[sym.name] = self._elaborate_symbol(sym, frame)
                frame.values[sym.name] = saves[sym.name]
                continue
            frame.values[sym.name] = self._elaborate_symbol(sym, frame)

        frame.vec_inherit = vec_ctx and inlinable and not wrapped
        if wrapped and self._cur_stmt_id:
            # A wrapper at this call site prevents inlining, which in turn
            # prevents the enclosing loop statement from vectorizing.
            self._devec_stmts.add(self._cur_stmt_id)
        self.ledger.add_call(caller_scope, qual, wrapped)

        # --- execute --------------------------------------------------------
        self._run_body(proc, frame)

        # --- persist SAVE variables ------------------------------------------
        for name in saves:
            saves[name] = frame.values[name]

        # --- write back ------------------------------------------------------
        for dummy_name, sym, ka, setter in writebacks:
            final = frame.values[dummy_name]
            if sym.type_ == "real" and not isinstance(final, FArray):
                assert ka is not None
                kd = kind_of(final)
                if kd != ka:
                    self._charge_boundary_cast(caller_scope, qual, 1, ka)
                setter(cast_real(final, ka))
            elif isinstance(final, FArray) and sym.type_ == "real":
                kd = effective_kind(sym, self.overlay)
                assert ka is not None and kd is not None
                self._charge_boundary_cast(caller_scope, qual, final.size, ka)
                setter(final)
            else:
                setter(final)

        if isinstance(proc, F.Function):
            result = frame.values.get(proc.result)
            if wrapped:
                # The Fig.-4 wrapper declares its result at the caller-side
                # kind when all real actuals agree on one; mirror that
                # rounding (and its cost) so the overlay path is bitwise
                # identical to transformed source.
                rk = kind_of(result)
                if (rk is not None and real_actual_kinds
                        and all(k == real_actual_kinds[0]
                                for k in real_actual_kinds)
                        and real_actual_kinds[0] != rk):
                    out_kind = real_actual_kinds[0]
                    self.ledger.add_op(caller_scope, "convert", out_kind,
                                       False, element_count(result))
                    result = cast_real(result, out_kind)
            return result
        return None

    def _dummy_lbounds(self, sym: Symbol, actual: FArray,
                       frame: Frame) -> tuple[int, ...]:
        assert sym.dims is not None
        if len(sym.dims) != actual.rank:
            raise FortranRuntimeError(
                f"rank mismatch binding {sym.name!r}: dummy rank "
                f"{len(sym.dims)}, actual rank {actual.rank}"
            )
        lbounds = []
        for dim in sym.dims:
            if dim.assumed or (dim.lower is None and dim.upper is None):
                lbounds.append(1)
            elif dim.lower is not None:
                lbounds.append(int(self._eval(dim.lower, frame)))
            else:
                lbounds.append(1)
        return tuple(lbounds)

    def _charge_boundary_cast(self, caller: str, callee: str, elements: int,
                              kind: int) -> None:
        # Recorded separately from in-expression converts; the cost model
        # prices these as wrapper copy streams (machine model's
        # boundary_cast_cycles_per_element), attributed to the caller.
        self.ledger.add_boundary_cast(caller, callee, elements)
        self.ledger.total_ops += elements

    def _run_body(self, proc: F.ProcedureUnit, frame: Frame) -> None:
        try:
            self._exec_block(proc.body, frame)
        except _ReturnSignal:
            pass

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def _exec_block(self, stmts: list[F.Stmt], frame: Frame) -> None:
        table = self._exec_table
        for stmt in stmts:
            self._stmt_tick += 1
            if self._stmt_tick >= _BUDGET_CHECK_INTERVAL:
                self._stmt_tick = 0
                if (self.max_ops is not None
                        and self.ledger.total_ops > self.max_ops):
                    raise InterpreterLimitError(
                        f"operation budget exceeded "
                        f"({self.ledger.total_ops} > {self.max_ops})"
                    )
            handler = table.get(type(stmt))
            if handler is None:
                raise FortranRuntimeError(
                    f"cannot execute statement {type(stmt).__name__}"
                )
            handler(stmt, frame)

    def _stmt_vec(self, stmt: F.Stmt, frame: Frame) -> bool:
        if id(stmt) in self._devec_stmts:
            return False
        if self.vec_info is None:
            return frame.vec_inherit
        flags = self.vec_info.stmt_vec(frame.scope)
        return flags.get(id(stmt), False) or frame.vec_inherit

    def _exec_assignment(self, stmt: F.Assignment, frame: Frame) -> None:
        prev = self._cur_vec
        prev_id = self._cur_stmt_id
        prev_lit = self._rhs_literal
        self._cur_vec = self._stmt_vec(stmt, frame)
        self._cur_stmt_id = id(stmt)
        self._rhs_literal = isinstance(stmt.value, (F.RealLit, F.IntLit))
        try:
            value = self._eval(stmt.value, frame)
            self._assign(stmt.target, value, frame)
        finally:
            self._cur_vec = prev
            self._cur_stmt_id = prev_id
            self._rhs_literal = prev_lit

    def _exec_call_stmt(self, stmt: F.CallStmt, frame: Frame) -> None:
        prev = self._cur_vec
        prev_id = self._cur_stmt_id
        self._cur_vec = self._stmt_vec(stmt, frame)
        self._cur_stmt_id = id(stmt)
        try:
            builtin = self._builtin_subs.get(stmt.name)
            if builtin is not None:
                args = [self._eval(a, frame) for a in stmt.args]
                builtin(frame, args)
                return
            scope = self.index.find_procedure(stmt.name)
            if scope is None:
                raise FortranRuntimeError(
                    f"call to undefined subroutine {stmt.name!r}"
                )
            proc = scope.node
            assert isinstance(proc, F.ProcedureUnit)
            actuals = self._prepare_actuals(proc, stmt.args, frame)
            self._invoke(scope.name, proc, actuals, caller_scope=frame.scope,
                         vec_ctx=self._cur_vec)
        finally:
            self._cur_vec = prev
            self._cur_stmt_id = prev_id

    def _prepare_actuals(self, proc: F.ProcedureUnit, args: list[F.Expr],
                         frame: Frame):
        if len(args) != len(proc.args):
            raise FortranRuntimeError(
                f"{proc.name} expects {len(proc.args)} arguments, "
                f"got {len(args)}"
            )
        actuals = []
        for arg in args:
            if isinstance(arg, F.KeywordArg):
                raise FortranRuntimeError(
                    "keyword arguments to user procedures are not supported"
                )
            actuals.append(self._eval_ref(arg, frame))
        return actuals

    def _exec_if(self, stmt: F.IfBlock, frame: Frame) -> None:
        for arm in stmt.arms:
            if arm.cond is None:
                self._exec_block(arm.body, frame)
                return
            prev = self._cur_vec
            self._cur_vec = self._stmt_vec(stmt, frame)
            try:
                cond = self._eval(arm.cond, frame)
            finally:
                self._cur_vec = prev
            if self._truth(cond):
                self._exec_block(arm.body, frame)
                return

    @staticmethod
    def _truth(value: Any) -> bool:
        if isinstance(value, (FArray, np.ndarray)):
            raise FortranRuntimeError("array used as scalar condition")
        return bool(value)

    def _exec_select(self, stmt: F.SelectCase, frame: Frame) -> None:
        value = self._eval(stmt.selector, frame)
        if isinstance(value, (FArray, np.ndarray)):
            raise FortranRuntimeError("select case selector must be scalar")
        default: Optional[F.CaseBlock] = None
        for case in stmt.cases:
            if case.selectors is None:
                default = case
                continue
            for sel in case.selectors:
                if sel.is_range:
                    lo = self._eval(sel.lo, frame)
                    hi = self._eval(sel.hi, frame)
                    if lo <= value <= hi:
                        self._exec_block(case.body, frame)
                        return
                else:
                    if value == self._eval(sel.value, frame):
                        self._exec_block(case.body, frame)
                        return
        if default is not None:
            self._exec_block(default.body, frame)

    def _exec_where(self, stmt: F.WhereConstruct, frame: Frame) -> None:
        prev = self._cur_vec
        self._cur_vec = True  # masked array statements are vector ops
        try:
            remaining: Optional[np.ndarray] = None
            for arm in stmt.arms:
                if arm.mask is not None:
                    mask_val = self._eval(arm.mask, frame)
                    raw = (mask_val.data if isinstance(mask_val, FArray)
                           else np.asarray(mask_val))
                    if raw.dtype != np.bool_:
                        raise FortranRuntimeError(
                            "where mask must be a logical array")
                    mask = raw if remaining is None else raw & remaining
                else:
                    if remaining is None:
                        raise FortranRuntimeError(
                            "elsewhere without a preceding where mask")
                    mask = remaining
                remaining = (~mask if remaining is None
                             else remaining & ~mask)
                for inner in arm.body:
                    assert isinstance(inner, F.Assignment)
                    self._exec_masked_assignment(inner, mask, frame)
        finally:
            self._cur_vec = prev

    def _exec_masked_assignment(self, stmt: F.Assignment, mask: np.ndarray,
                                frame: Frame) -> None:
        self._store_masked(stmt.target, mask, self._eval(stmt.value, frame),
                           frame)

    def _store_masked(self, target: F.Expr, mask: np.ndarray, value: Any,
                      frame: Frame) -> tuple[FArray, Any]:
        """Charge and store the *mask*-selected elements of *value* into
        the array or array section *target* names; returns the array
        and the section's index key (``...`` for the whole array)."""
        if isinstance(target, (F.Name, F.Apply)):
            arr = frame.find(target.name)
        else:
            raise FortranRuntimeError("where assigns to whole arrays")
        if not isinstance(arr, FArray):
            raise FortranRuntimeError("where target must be an array")
        key: Any = ...
        if isinstance(target, F.Apply):
            key, _n, is_section = self._index_key(arr, target.args, frame)
            if not is_section:
                raise FortranRuntimeError("where target must be an array")
        section = arr.data[key]
        if section.shape != mask.shape:
            raise FortranRuntimeError(
                f"where mask shape {mask.shape} does not match target "
                f"shape {section.shape}")
        raw = value.data if isinstance(value, FArray) else value
        n = int(mask.sum())
        if arr.kind is not None:
            kv = kind_of(value)
            if kv is not None and kv != arr.kind and not self._rhs_literal:
                self.ledger.add_op(frame.scope, "convert", arr.kind, True, n)
            self.ledger.add_op(frame.scope, "store", arr.kind, True, n)
        if isinstance(raw, np.ndarray):
            section[mask] = raw[mask]
        else:
            section[mask] = raw
        arr.data[key] = section  # a gathered section is a copy
        return arr, key

    def _exec_do(self, stmt: F.DoLoop, frame: Frame) -> None:
        start = int(self._eval(stmt.start, frame))
        stop = int(self._eval(stmt.stop, frame))
        step = int(self._eval(stmt.step, frame)) if stmt.step is not None else 1
        if step == 0:
            raise FortranRuntimeError("do-loop step is zero")
        slot = frame.find_slot(stmt.var) if frame.has(stmt.var) else frame.values
        i = start
        if step > 0:
            while i <= stop:
                slot[stmt.var] = i
                try:
                    self._exec_block(stmt.body, frame)
                except _CycleLoop:
                    pass
                except _ExitLoop:
                    break
                i += step
        else:
            while i >= stop:
                slot[stmt.var] = i
                try:
                    self._exec_block(stmt.body, frame)
                except _CycleLoop:
                    pass
                except _ExitLoop:
                    break
                i += step

    def _exec_do_while(self, stmt: F.DoWhile, frame: Frame) -> None:
        while True:
            prev = self._cur_vec
            self._cur_vec = False
            try:
                cond = self._eval(stmt.cond, frame)
            finally:
                self._cur_vec = prev
            if not self._truth(cond):
                return
            try:
                self._exec_block(stmt.body, frame)
            except _CycleLoop:
                continue
            except _ExitLoop:
                return

    def _exec_exit(self, stmt: F.ExitStmt, frame: Frame) -> None:
        raise _ExitLoop()

    def _exec_cycle(self, stmt: F.CycleStmt, frame: Frame) -> None:
        raise _CycleLoop()

    def _exec_return(self, stmt: F.ReturnStmt, frame: Frame) -> None:
        raise _ReturnSignal()

    def _exec_stop(self, stmt: F.StopStmt, frame: Frame) -> None:
        code = 0
        if stmt.code is not None:
            code = int(self._eval(stmt.code, frame))
        if stmt.is_error or code != 0:
            raise FortranStopError(stmt.message or "", code=code or 1)
        raise _ReturnSignal()  # plain STOP in a model driver: quiet halt

    def _exec_print(self, stmt: F.PrintStmt, frame: Frame) -> None:
        parts = []
        for item in stmt.items:
            val = self._eval(item, frame)
            if isinstance(val, FArray):
                parts.append(" ".join(str(x) for x in val.data.ravel()))
            else:
                parts.append(str(val))
        self.stdout.append(" ".join(parts))

    def _exec_allocate(self, stmt: F.AllocateStmt, frame: Frame) -> None:
        for ap in stmt.items:
            sym = self.index.resolve(frame.scope, ap.name)
            if sym is None:
                raise FortranRuntimeError(f"allocate of undeclared {ap.name!r}")
            shape = []
            lbounds = []
            for arg in ap.args:
                if isinstance(arg, F.RangeExpr):
                    lb = int(self._eval(arg.lo, frame))
                    ub = int(self._eval(arg.hi, frame))
                else:
                    lb, ub = 1, int(self._eval(arg, frame))
                lbounds.append(lb)
                shape.append(max(0, ub - lb + 1))
            kind = effective_kind(sym, self.overlay)
            if sym.type_ == "real":
                assert kind is not None
                arr = FArray(np.zeros(tuple(shape),
                                      dtype=dtype_for_kind(kind)),
                             tuple(lbounds), kind)
            elif sym.type_ == "integer":
                arr = FArray(np.zeros(tuple(shape), dtype=np.int64),
                             tuple(lbounds), None)
            else:
                arr = FArray(np.zeros(tuple(shape), dtype=np.bool_),
                             tuple(lbounds), None)
            frame.find_slot(ap.name)[ap.name] = arr

    def _exec_deallocate(self, stmt: F.DeallocateStmt, frame: Frame) -> None:
        for name in stmt.names:
            frame.find_slot(name)[name] = None

    # ------------------------------------------------------------------
    # Assignment targets
    # ------------------------------------------------------------------

    def _assign(self, target: F.Expr, value: Any, frame: Frame) -> None:
        self._current_scope = frame.scope
        if isinstance(target, F.Name):
            self._assign_name(target.name, value, frame)
        elif isinstance(target, F.Apply):
            container = frame.find(target.name)
            if not isinstance(container, FArray):
                raise FortranRuntimeError(
                    f"subscripted assignment to non-array {target.name!r}"
                )
            self._assign_indexed(container, target.args, value, frame)
        elif isinstance(target, F.ComponentRef):
            base = self._eval_component_base(target, frame)
            comp = base.get(target.component)
            if target.args is not None:
                if not isinstance(comp, FArray):
                    raise FortranRuntimeError(
                        f"subscripted assignment to non-array component "
                        f"{target.component!r}"
                    )
                self._assign_indexed(comp, target.args, value, frame)
            elif isinstance(comp, FArray):
                self._assign_whole_array(comp, value)
            else:
                base[target.component] = self._convert_like(comp, value)
        else:
            raise FortranRuntimeError(
                f"cannot assign to {type(target).__name__}"
            )

    def _assign_name(self, name: str, value: Any, frame: Frame) -> None:
        slot = frame.find_slot(name)
        current = slot[name]
        if isinstance(current, FArray):
            self._assign_whole_array(current, value)
            return
        slot[name] = self._convert_like(current, value)

    def _convert_like(self, current: Any, value: Any) -> Any:
        """Cast *value* to the declared type/kind implied by *current*."""
        kd = kind_of(current)
        if kd is not None:
            kv = kind_of(value)
            if kv is None:
                value = float(value)
                kv = kd
            if kv != kd and not self._rhs_literal:
                self.ledger.add_op(self._attr_scope, "convert", kd,
                                   self._cur_vec, 1)
            self.ledger.add_op(self._attr_scope, "store", kd,
                               self._cur_vec, 1)
            return cast_real(value, kd)
        if isinstance(current, bool):
            return bool(value)
        if isinstance(current, int):
            return int(value)
        if isinstance(current, str):
            return str(value)
        # Uninitialized slot (e.g. deallocated): store as-is.
        return value

    def _assign_whole_array(self, arr: FArray, value: Any) -> None:
        raw = value.data if isinstance(value, FArray) else value
        if isinstance(raw, np.ndarray) and raw.shape != arr.data.shape:
            raise FortranRuntimeError(
                f"shape mismatch in array assignment: {raw.shape} -> "
                f"{arr.data.shape}"
            )
        if arr.kind is not None:
            kv = kind_of(value)
            if kv is not None and kv != arr.kind and not self._rhs_literal:
                self.ledger.add_op(self._attr_scope, "convert", arr.kind,
                                   True, arr.size)
            self.ledger.add_op(self._attr_scope, "store", arr.kind, True,
                               arr.size)
        arr.data[...] = raw

    def _assign_indexed(self, arr: FArray, args: list[F.Expr], value: Any,
                        frame: Frame) -> None:
        key, n_elements, is_section = self._index_key(arr, args, frame)
        self._store_indexed(arr, key, n_elements, is_section, value)

    def _store_indexed(self, arr: FArray, key: tuple, n_elements: int,
                       is_section: bool, value: Any) -> None:
        """Charge and store *value* at the evaluated index *key*."""
        if arr.kind is not None:
            kv = kind_of(value)
            if kv is not None and kv != arr.kind and not self._rhs_literal:
                self.ledger.add_op(self._attr_scope, "convert", arr.kind,
                                   self._cur_vec or is_section, n_elements)
            self.ledger.add_op(self._attr_scope, "store", arr.kind,
                               self._cur_vec or is_section, n_elements)
        raw = value.data if isinstance(value, FArray) else value
        if is_section:
            arr.data[key] = raw
        else:
            try:
                arr.data[key] = raw
            except IndexError:
                raise FortranRuntimeError(
                    f"index {key} out of bounds for shape {arr.data.shape}"
                ) from None

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    @property
    def _attr_scope(self) -> str:
        return self._current_scope

    def _eval(self, expr: F.Expr, frame: Frame) -> Any:
        self._current_scope = frame.scope
        method = self._eval_table.get(type(expr))
        if method is None:
            raise FortranRuntimeError(
                f"cannot evaluate {type(expr).__name__}"
            )
        return method(self, expr, frame)

    def _eval_int_lit(self, expr: F.IntLit, frame: Frame) -> int:
        return expr.value

    def _eval_real_lit(self, expr: F.RealLit, frame: Frame):
        return dtype_for_kind(expr.kind).type(expr.value)

    def _eval_logical_lit(self, expr: F.LogicalLit, frame: Frame) -> bool:
        return expr.value

    def _eval_string_lit(self, expr: F.StringLit, frame: Frame) -> str:
        return expr.value

    def _eval_name(self, expr: F.Name, frame: Frame) -> Any:
        val = frame.find(expr.name)
        if self._suppress_loads == 0:
            k = kind_of(val)
            if k is not None:
                self.ledger.add_op(frame.scope, "load", k,
                                   self._cur_vec or isinstance(val, FArray),
                                   element_count(val))
        return val

    def _eval_unary(self, expr: F.UnaryOp, frame: Frame) -> Any:
        val = self._eval(expr.operand, frame)
        if expr.op == ".not.":
            return not self._truth(val)
        if expr.op == "+":
            return val
        raw = val.data if isinstance(val, FArray) else val
        out = -raw
        k = kind_of(val)
        if k is not None:
            self.ledger.add_op(frame.scope, "arith", k,
                               self._cur_vec or isinstance(val, FArray),
                               element_count(val))
        if isinstance(val, FArray):
            return FArray(out, val.lbounds, val.kind)
        if isinstance(val, bool):
            raise FortranRuntimeError("negation of a logical value")
        return out if k is not None else int(out)

    def _eval_binop(self, expr: F.BinOp, frame: Frame) -> Any:
        op = expr.op
        if op == ".and.":
            left = self._eval(expr.left, frame)
            if not self._truth(left):
                return False
            return self._truth(self._eval(expr.right, frame))
        if op == ".or.":
            left = self._eval(expr.left, frame)
            if self._truth(left):
                return True
            return self._truth(self._eval(expr.right, frame))
        if op in (".eqv.", ".neqv."):
            left = self._truth(self._eval(expr.left, frame))
            right = self._truth(self._eval(expr.right, frame))
            return left == right if op == ".eqv." else left != right

        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        kl, kr = kind_of(left), kind_of(right)

        if kl is None and kr is None:
            # Pure integer (or logical-comparison) arithmetic: free in the
            # cost model (address math).
            lraw = left.data if type(left) is FArray else left
            rraw = right.data if type(right) is FArray else right
            return self._int_binop(op, lraw, rraw)

        lraw = left.data if type(left) is FArray else left
        rraw = right.data if type(right) is FArray else right
        n = max(element_count(left), element_count(right))
        is_vec = self._cur_vec or n > 1

        wide = promote_kinds(kl, kr)
        if kl is not None and kr is not None and kl != kr:
            # Promoting a *literal* operand is free: the compiler folds the
            # constant to the wider kind at compile time.  Only a variable
            # value needs a runtime convert instruction.
            narrow_node = expr.left if kl < kr else expr.right
            if not isinstance(narrow_node, (F.RealLit, F.IntLit)):
                narrow_elems = element_count(left if kl < kr else right)
                self.ledger.add_op(frame.scope, "convert", wide, is_vec,
                                   narrow_elems)

        if op in _CMP_OPS:
            self.ledger.add_op(frame.scope, "cmp", wide, is_vec, n)
            out = self._compare(op, lraw, rraw)
        else:
            self.ledger.add_op(frame.scope, _ARITH_CLASS[op], wide, is_vec, n)
            out = self._arith(op, lraw, rraw)

        template = left if type(left) is FArray else (
            right if type(right) is FArray else None)
        if template is not None and isinstance(out, np.ndarray):
            return FArray(out, template.lbounds, kind_of(out))
        if type(out) is np.bool_:
            return bool(out)
        return out

    @staticmethod
    def _int_binop(op: str, l: Any, r: Any) -> Any:
        if op in _CMP_OPS:
            return Interpreter._compare(op, l, r)
        if op == "/":
            if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
                return (np.asarray(l) // np.asarray(r))
            if r == 0:
                raise FortranRuntimeError("integer division by zero")
            return int(l / r) if (l < 0) != (r < 0) and l % r != 0 else l // r
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "**":
            return int_pow(l, r)
        raise FortranRuntimeError(f"unsupported integer operation {op!r}")

    @staticmethod
    def _compare(op: str, l: Any, r: Any) -> Any:
        if op == "==":
            out = l == r
        elif op == "/=":
            out = l != r
        elif op == "<":
            out = l < r
        elif op == "<=":
            out = l <= r
        elif op == ">":
            out = l > r
        else:
            out = l >= r
        if isinstance(out, np.ndarray):
            return out
        return bool(out)

    @staticmethod
    def _arith(op: str, l: Any, r: Any) -> Any:
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            return l / r
        if op == "**":
            return l ** r
        raise FortranRuntimeError(f"unsupported operation {op!r}")

    def _eval_apply(self, expr: F.Apply, frame: Frame) -> Any:
        name = expr.name
        # 1. array (or derived array) reference
        if frame.has(name):
            val = frame.find(name)
            if isinstance(val, FArray):
                return self._eval_array_ref(val, expr.args, frame)
            if val is None:
                raise FortranRuntimeError(
                    f"use of unallocated array {name!r}"
                )
            # A scalar symbol used with parens would be a semantic bug in
            # the source; fall through to procedure lookup only if one
            # exists (statement functions are unsupported).
        # 2. user function
        scope = self.index.find_procedure(name)
        if scope is not None and isinstance(scope.node, F.Function):
            proc = scope.node
            actuals = self._prepare_actuals(proc, expr.args, frame)
            return self._invoke(scope.name, proc, actuals,
                                caller_scope=frame.scope,
                                vec_ctx=self._cur_vec)
        # 3. intrinsic
        intr = INTRINSICS.get(name)
        if intr is not None:
            return self._eval_intrinsic(intr, expr, frame)
        raise FortranRuntimeError(f"unknown function or array {name!r}")

    def _eval_intrinsic(self, intr, expr: F.Apply, frame: Frame) -> Any:
        args = []
        kwargs: dict[str, Any] = {}
        suppress = intr.opclass == "none"
        if suppress:
            self._suppress_loads += 1
        try:
            for a in expr.args:
                if isinstance(a, F.KeywordArg):
                    kwargs[a.name] = self._eval(a.value, frame)
                else:
                    args.append(self._eval(a, frame))
        finally:
            if suppress:
                self._suppress_loads -= 1
        result = intr.fn(*args, **kwargs)
        if intr.opclass != "none":
            n = max((element_count(a) for a in args), default=1)
            k = kind_of(result)
            if k is None:
                k = next((kind_of(a) for a in args
                          if kind_of(a) is not None), None)
            if k is not None:
                vec = self._cur_vec or n > 1
                self.ledger.add_op(frame.scope, intr.opclass, k, vec, n)
        return result

    def _eval_array_ref(self, arr: FArray, args: list[F.Expr],
                        frame: Frame) -> Any:
        key, n_elements, is_section = self._index_key(arr, args, frame)
        if arr.kind is not None and self._suppress_loads == 0:
            self.ledger.add_op(frame.scope, "load", arr.kind,
                               self._cur_vec or is_section, n_elements)
        if is_section:
            view = arr.data[key]
            lbounds = tuple(1 for _ in range(view.ndim))
            return FArray(view, lbounds, arr.kind)
        try:
            val = arr.data[key]
        except IndexError:
            raise FortranRuntimeError(
                f"index {key} out of bounds for shape {arr.data.shape}"
            ) from None
        if arr.kind is not None:
            return val
        if arr.data.dtype == np.bool_:
            return bool(val)
        return int(val)

    def _index_key(self, arr: FArray, args: list[F.Expr], frame: Frame):
        """Build a NumPy index key; returns (key, element_count, is_section)."""
        if len(args) != arr.rank:
            raise FortranRuntimeError(
                f"rank mismatch: {len(args)} subscripts for rank-{arr.rank} "
                "array"
            )
        key: list[Any] = []
        is_section = False
        n_elements = 1
        for arg, lb, extent in zip(args, arr.lbounds, arr.data.shape):
            if isinstance(arg, F.RangeExpr):
                is_section = True
                lo = (int(self._eval(arg.lo, frame)) - lb
                      if arg.lo is not None else 0)
                hi = (int(self._eval(arg.hi, frame)) - lb + 1
                      if arg.hi is not None else extent)
                step = (int(self._eval(arg.step, frame))
                        if arg.step is not None else 1)
                if lo < 0 or hi > extent:
                    raise FortranRuntimeError(
                        f"section [{lo + lb}:{hi + lb - 1}] out of bounds "
                        f"[{lb}:{lb + extent - 1}]"
                    )
                count = max(0, (hi - lo + (step - 1)) // step)
                n_elements *= count
                key.append(slice(lo, hi, step))
            else:
                idx_val = self._eval(arg, frame)
                if isinstance(idx_val, (FArray, np.ndarray)):
                    # Vector subscript (gather).
                    raw = idx_val.data if isinstance(idx_val, FArray) else idx_val
                    is_section = True
                    n_elements *= int(raw.size)
                    key.append(raw.astype(np.int64) - lb)
                else:
                    j = int(idx_val) - lb
                    if j < 0 or j >= extent:
                        raise FortranRuntimeError(
                            f"index {int(idx_val)} out of bounds "
                            f"[{lb}:{lb + extent - 1}]"
                        )
                    key.append(j)
        return tuple(key), n_elements, is_section

    def _eval_component_base(self, expr: F.ComponentRef,
                             frame: Frame) -> dict[str, Any]:
        base = expr.base
        if isinstance(base, F.Name):
            val = frame.find(base.name)
        elif isinstance(base, F.ComponentRef):
            outer = self._eval_component_base(base, frame)
            val = outer.get(base.component)
        else:
            raise FortranRuntimeError(
                "arrays of derived type are not supported"
            )
        if not isinstance(val, dict):
            raise FortranRuntimeError(
                f"component access on non-derived value"
            )
        return val

    def _eval_component(self, expr: F.ComponentRef, frame: Frame) -> Any:
        base = self._eval_component_base(expr, frame)
        if expr.component not in base:
            raise FortranRuntimeError(
                f"derived type has no component {expr.component!r}"
            )
        val = base[expr.component]
        if expr.args is not None:
            if not isinstance(val, FArray):
                raise FortranRuntimeError(
                    f"subscript on scalar component {expr.component!r}"
                )
            return self._eval_array_ref(val, expr.args, frame)
        if isinstance(val, FArray) or kind_of(val) is None:
            return val
        if self._suppress_loads == 0:
            self.ledger.add_op(frame.scope, "load", kind_of(val),
                               self._cur_vec, 1)
        return val

    def _eval_range(self, expr: F.RangeExpr, frame: Frame) -> Any:
        raise FortranRuntimeError("array section outside a subscript")

    def _eval_array_cons(self, expr: F.ArrayCons, frame: Frame) -> FArray:
        items = [self._eval(i, frame) for i in expr.items]
        kinds = [kind_of(i) for i in items]
        if any(k is not None for k in kinds):
            kind = KIND_SINGLE
            for k in kinds:
                if k is not None:
                    kind = promote_kinds(kind, k)
            data = np.array([float(i) for i in items],
                            dtype=dtype_for_kind(kind))
            return FArray(data, (1,), kind)
        data = np.array([int(i) for i in items], dtype=np.int64)
        return FArray(data, (1,), None)

    def _eval_keyword(self, expr: F.KeywordArg, frame: Frame) -> Any:
        raise FortranRuntimeError("keyword argument in invalid position")

    _eval_table: dict[type, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    # References (for argument passing)
    # ------------------------------------------------------------------

    def _eval_ref(self, expr: F.Expr, frame: Frame):
        """Evaluate an actual argument: (value, setter-or-None)."""
        if isinstance(expr, F.Name):
            # No load accrual here: argument passing is by reference.
            val = frame.find(expr.name)
            slot = frame.find_slot(expr.name)
            name = expr.name

            def set_name(new: Any) -> None:
                if isinstance(slot[name], FArray) and isinstance(new, FArray):
                    slot[name].data[...] = new.data.astype(
                        slot[name].data.dtype)
                else:
                    slot[name] = new

            return val, set_name
        if isinstance(expr, F.Apply) and frame.has(expr.name):
            container = frame.find(expr.name)
            if isinstance(container, FArray):
                key, n, is_section = self._index_key(container, expr.args,
                                                     frame)
                if is_section:
                    view = container.data[key]
                    lb = tuple(1 for _ in range(view.ndim))
                    val = FArray(view, lb, container.kind)

                    def set_section(new: Any) -> None:
                        raw = new.data if isinstance(new, FArray) else new
                        container.data[key] = raw

                    return val, set_section
                val = container.data[key]

                def set_element(new: Any) -> None:
                    container.data[key] = new

                if container.kind is not None and self._suppress_loads == 0:
                    self.ledger.add_op(frame.scope, "load", container.kind,
                                       self._cur_vec, 1)
                return val, set_element
        if isinstance(expr, F.ComponentRef):
            base = self._eval_component_base(expr, frame)
            comp = expr.component
            if expr.args is None:
                val = base.get(comp)

                def set_comp(new: Any) -> None:
                    cur = base.get(comp)
                    if isinstance(cur, FArray) and isinstance(new, FArray):
                        cur.data[...] = new.data.astype(cur.data.dtype)
                    else:
                        base[comp] = new

                return val, set_comp
        # General expression: value only, no write-back.
        return self._eval(expr, frame), None

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------

    def _builtin_allreduce(self, frame: Frame, args: list[Any]) -> None:
        if not args:
            raise FortranRuntimeError("mpi_allreduce_* needs an argument")
        self.ledger.add_allreduce(frame.scope, element_count(args[0]))


Interpreter._eval_table = {
    F.IntLit: Interpreter._eval_int_lit,
    F.RealLit: Interpreter._eval_real_lit,
    F.LogicalLit: Interpreter._eval_logical_lit,
    F.StringLit: Interpreter._eval_string_lit,
    F.Name: Interpreter._eval_name,
    F.UnaryOp: Interpreter._eval_unary,
    F.BinOp: Interpreter._eval_binop,
    F.Apply: Interpreter._eval_apply,
    F.ComponentRef: Interpreter._eval_component,
    F.RangeExpr: Interpreter._eval_range,
    F.ArrayCons: Interpreter._eval_array_cons,
    F.KeywordArg: Interpreter._eval_keyword,
}
