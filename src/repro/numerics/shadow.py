"""Shadow execution: one interpreter pass, two numerical universes.

The :class:`ShadowInterpreter` subclasses the tree-walking Fortran
interpreter and carries every real value as a **triple** SV(p, s, m):

* ``p`` — the *primary* value at its effective (possibly overlaid) kind.
  The primary side is bit-identical to a plain :class:`Interpreter` run
  under the same assignment, including every ledger charge: control
  flow, comparisons, subscripts, loop bounds and intrinsic argument
  handling are all driven by ``p`` alone, so the shadow never perturbs
  what it measures.
* ``s`` — a float64 *reference* computed from the shadow values of the
  operands: the value the whole program would have produced in double
  precision along the primary's control-flow path (RAPTOR-style).
* ``m`` — a float64 *statement-local* reference computed from the
  float64 images of the primary leaf operands, reset at variable loads
  and call boundaries.  Comparing ``p`` against ``m`` isolates the
  rounding error a single statement *introduces*; comparing ``m``
  against ``s`` isolates the error *propagated* from upstream
  (CHEF-FP's local/propagated decomposition).

Per-assignment the engine records relative error, ulp distance at the
target kind, the local/propagated split, and catastrophic-cancellation
events (a subtraction whose exact result loses ≥ ``CANCEL_BITS`` bits
against its larger operand), aggregated per variable and per statement
(``scope:line`` labels — stable across runs because they come from the
source, not from object identity).

Shadow state lives beside the primary state: scalar shadows are stored
in the same frame/module dicts under a ``"\\x00sh"``-mangled key (no
Fortran identifier can collide, and the shadow dies with its frame);
array shadows are float64 buffers keyed by the identity of the primary
NumPy buffer, with keep-alive references so ids are never recycled.

Calls and array stores run through :class:`Interpreter`'s own code, and
the shadow engine only adds its side around it: ``Interpreter._invoke``
binds and casts the dummies, elaborates and persists SAVE locals,
writes back, and rounds a wrapped function's result;
``_store_indexed`` and ``_store_masked`` charge and store elements.  A
shadow crosses a call beside its primary.  ``_prepare_actuals`` stages
each actual's shadow and a setter for it, and ``_invoke`` pairs that
setter with the primary's, so a shadow is written back exactly when its
primary is.  Before the body runs, ``_run_body`` gives each real scalar
dummy the unrounded reference of its actual (the float64 run has no
boundary cast, so the cast is observed as a ``:bind`` statement), lets
a kind-conversion copy alias the original buffer's shadow, and
restores the shadows of saved scalars; after it, it saves those shadows
and keeps the function result's shadow for the caller.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..errors import FortranRuntimeError
from ..fortran import ast_nodes as F
from ..fortran.instrumentation import Ledger
from ..fortran.interpreter import Frame, Interpreter, _ARITH_CLASS
from ..fortran.intrinsics import INTRINSICS
from ..fortran.symbols import _CMP_OPS, ProgramIndex, effective_kind
from ..fortran.values import (FArray, dtype_for_kind, element_count,
                              kind_of, promote_kinds, relative_gap,
                              ulp_distance)
from ..fortran.vectorize import ProgramVecInfo

__all__ = ["CANCEL_BITS", "ShadowInterpreter", "ShadowRecorder", "SV"]

#: A +/- whose exact result is smaller than its larger operand by this
#: many binary orders of magnitude counts as catastrophic cancellation.
CANCEL_BITS = 16
_CANCEL_FACTOR = 2.0 ** -CANCEL_BITS

#: Relative errors are floored at this denominator (smallest normal
#: float64) so references near zero don't blow the statistics up.
_REL_FLOOR = float(np.finfo(np.float64).tiny)

#: Mangled dict-key suffix for scalar shadows ("\x00" cannot appear in a
#: Fortran identifier, so primary lookups can never collide).
_SH = "\x00sh"


class SV:
    """One shadow triple: primary / float64 reference / statement-exact."""

    __slots__ = ("p", "s", "m")

    def __init__(self, p: Any, s: Any, m: Any):
        self.p = p
        self.s = s
        self.m = m

    def __repr__(self) -> str:  # debugging aid only
        return f"SV(p={self.p!r}, s={self.s!r}, m={self.m!r})"


class _Stats:
    """Error aggregate for one variable or one statement."""

    __slots__ = ("observations", "elements", "max_rel", "sum_rel",
                 "last_rel", "max_ulp", "max_local", "max_prop",
                 "cancellations", "nonfinite", "kind")

    def __init__(self, kind: int):
        self.observations = 0
        self.elements = 0
        self.max_rel = 0.0
        self.sum_rel = 0.0
        self.last_rel = 0.0
        self.max_ulp = 0.0
        self.max_local = 0.0
        self.max_prop = 0.0
        self.cancellations = 0
        self.nonfinite = 0
        self.kind = kind

    def to_dict(self) -> dict[str, float]:
        mean = self.sum_rel / self.observations if self.observations else 0.0
        return {
            "observations": self.observations,
            "elements": self.elements,
            "max_rel_error": self.max_rel,
            "mean_rel_error": mean,
            "last_rel_error": self.last_rel,
            "max_ulp_error": self.max_ulp,
            "max_local_error": self.max_local,
            "max_propagated_error": self.max_prop,
            "cancellations": self.cancellations,
            "nonfinite": self.nonfinite,
            "kind": self.kind,
        }


class ShadowRecorder:
    """Accumulates per-variable / per-statement error observations."""

    def __init__(self) -> None:
        self.variables: dict[str, _Stats] = {}
        self.statements: dict[str, _Stats] = {}
        self.assignments = 0
        self.cancellations = 0
        self.nonfinite = 0
        self.untracked = 0

    # ------------------------------------------------------------------

    def _stats(self, table: dict[str, _Stats], key: Optional[str],
               kind: int) -> Optional[_Stats]:
        if key is None:
            return None
        st = table.get(key)
        if st is None:
            st = table[key] = _Stats(kind)
        return st

    def observe(self, qual: Optional[str], label: Optional[str], kind: int,
                stored: Any, shadow: Any, exact: Any) -> None:
        """One committed assignment: primary *stored* (as float64)
        against the float64 reference *shadow* and the statement-exact
        value *exact*."""
        self.assignments += 1
        p, s, m = np.broadcast_arrays(
            np.atleast_1d(np.asarray(stored, dtype=np.float64)),
            np.atleast_1d(np.asarray(shadow, dtype=np.float64)),
            np.atleast_1d(np.asarray(exact, dtype=np.float64)))
        finite = np.isfinite(p) & np.isfinite(s) & np.isfinite(m)
        n_bad = int(p.size - np.count_nonzero(finite))
        self.nonfinite += n_bad
        targets = [t for t in (self._stats(self.variables, qual, kind),
                               self._stats(self.statements, label, kind))
                   if t is not None]
        for st in targets:
            st.observations += 1
            st.elements += int(p.size)
            st.nonfinite += n_bad
        if not np.any(finite):
            return
        p, s, m = p[finite], s[finite], m[finite]
        rel = float(np.max(relative_gap(p, s)))
        local = float(np.max(relative_gap(p, m)))
        prop = float(np.max(relative_gap(m, s)))
        ulp = float(np.max(ulp_distance(p, s, kind)))
        for st in targets:
            st.max_rel = max(st.max_rel, rel)
            st.sum_rel += rel
            st.last_rel = rel
            st.max_ulp = max(st.max_ulp, ulp)
            st.max_local = max(st.max_local, local)
            st.max_prop = max(st.max_prop, prop)

    def cancellation(self, qual: Optional[str], label: Optional[str],
                     kind: int, count: int) -> None:
        self.cancellations += count
        for table, key in ((self.variables, qual),
                           (self.statements, label)):
            st = self._stats(table, key, kind)
            if st is not None:
                st.cancellations += count

    # ------------------------------------------------------------------

    def variables_dict(self) -> dict[str, dict[str, float]]:
        return {q: st.to_dict() for q, st in sorted(self.variables.items())}

    def statements_dict(self) -> dict[str, dict[str, float]]:
        return {s: st.to_dict() for s, st in sorted(self.statements.items())}

    def counters_dict(self) -> dict[str, int]:
        return {
            "assignments": self.assignments,
            "cancellations": self.cancellations,
            "nonfinite": self.nonfinite,
            "untracked": self.untracked,
        }


class _Call:
    """One call in flight: the caller's actuals and their staged shadows,
    and the callee's frame once the body is about to run."""

    __slots__ = ("actuals", "shadows", "frame")

    def __init__(self, actuals: list, shadows: list):
        self.actuals = actuals
        self.shadows = shadows
        self.frame: Optional[Frame] = None

    def write_back(self, dummy: str, setter: Callable[[Any], None],
                   ssetter: Callable[[Any], None]) -> Callable[[Any], None]:
        """*setter*, then *ssetter* with the dummy's final shadow."""
        def both(new: Any) -> None:
            setter(new)
            assert self.frame is not None
            s = self.frame.values.get(dummy + _SH)
            if s is not None:               # None: the dummy is not real
                ssetter(s)
        return both


def _f64(value: Any) -> Any:
    """Float64 image of a primary raw value (scalar or ndarray)."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    return np.float64(value)


class ShadowInterpreter(Interpreter):
    """Interpreter whose primary side is bit- and charge-identical to
    :class:`Interpreter` while a float64 reference runs alongside."""

    def __init__(
        self,
        index: ProgramIndex,
        overlay: Optional[dict[str, int]] = None,
        vec_info: Optional[ProgramVecInfo] = None,
        ledger: Optional[Ledger] = None,
        max_ops: Optional[int] = None,
    ):
        super().__init__(index, overlay=overlay, vec_info=vec_info,
                         ledger=ledger, max_ops=max_ops)
        self.recorder = ShadowRecorder()
        #: id(primary ndarray buffer) -> float64 shadow buffer.
        self._sh_arr: dict[int, np.ndarray] = {}
        #: Keep-alive anchors so registered buffer ids never recycle.
        self._sh_keep: list[Any] = []
        #: Per-actual (shadow value, shadow setter) pairs staged by
        #: :meth:`_prepare_actuals` for the immediately following
        #: :meth:`_invoke`; ``None`` for harness-level calls.
        self._next_call_shadows: Optional[list[tuple[Any, Any]]] = None
        #: Calls in flight, innermost last.
        self._calls: list[_Call] = []
        #: Float64 shadow of the most recent function result.
        self._ret_shadow: Any = None
        #: Attribution context of the assignment currently executing.
        self._cur_assign_qual: Optional[str] = None
        self._cur_stmt_label: Optional[str] = None
        self._cur_assign_kind: int = 8

    # ------------------------------------------------------------------
    # Shadow storage
    # ------------------------------------------------------------------

    def _sh_get(self, slot: dict, name: str, primary: Any) -> np.float64:
        """Scalar shadow for *name* in *slot*, lazily seeded from the
        primary (an untracked value entered the shadow universe)."""
        key = name + _SH
        s = slot.get(key)
        if s is None:
            s = np.float64(primary)
            slot[key] = s
            self.recorder.untracked += 1
        return s

    def _sh_arr_get(self, arr: FArray) -> np.ndarray:
        buf = arr.data
        s = self._sh_arr.get(id(buf))
        if s is None:
            s = buf.astype(np.float64)
            self._sh_arr[id(buf)] = s
            self._sh_keep.append(buf)
            self.recorder.untracked += 1
        return s

    def _sh_arr_alias(self, buf: np.ndarray, shadow: np.ndarray) -> None:
        self._sh_arr[id(buf)] = shadow
        self._sh_keep.append(buf)

    @staticmethod
    def _sraw(sv: SV) -> Any:
        """Shadow value as a raw float64-compatible scalar/ndarray."""
        s = sv.s
        if isinstance(s, FArray):            # non-real array passthrough
            return s.data
        return s

    @staticmethod
    def _mraw(sv: SV) -> Any:
        m = sv.m
        if isinstance(m, FArray):
            return m.data
        return m

    # ------------------------------------------------------------------
    # Shadow expression evaluation
    # ------------------------------------------------------------------

    def _seval(self, expr: F.Expr, frame: Frame) -> SV:
        self._current_scope = frame.scope
        method = self._seval_table.get(type(expr))
        if method is None:
            raise FortranRuntimeError(
                f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, frame)

    def _seval_int_lit(self, expr: F.IntLit, frame: Frame) -> SV:
        return SV(expr.value, expr.value, expr.value)

    def _seval_real_lit(self, expr: F.RealLit, frame: Frame) -> SV:
        p = dtype_for_kind(expr.kind).type(expr.value)
        f = np.float64(p)
        return SV(p, f, f)

    def _seval_logical_lit(self, expr: F.LogicalLit, frame: Frame) -> SV:
        return SV(expr.value, expr.value, expr.value)

    def _seval_string_lit(self, expr: F.StringLit, frame: Frame) -> SV:
        return SV(expr.value, expr.value, expr.value)

    def _seval_name(self, expr: F.Name, frame: Frame) -> SV:
        val = frame.find(expr.name)
        if self._suppress_loads == 0:
            k = kind_of(val)
            if k is not None:
                self.ledger.add_op(frame.scope, "load", k,
                                   self._cur_vec or isinstance(val, FArray),
                                   element_count(val))
        if isinstance(val, FArray):
            if val.kind is not None:
                return SV(val, self._sh_arr_get(val),
                          val.data.astype(np.float64))
            return SV(val, val, val)
        k = kind_of(val)
        if k is not None:
            slot = frame.find_slot(expr.name)
            return SV(val, self._sh_get(slot, expr.name, val),
                      np.float64(val))
        return SV(val, val, val)

    def _seval_unary(self, expr: F.UnaryOp, frame: Frame) -> SV:
        sv = self._seval(expr.operand, frame)
        if expr.op == ".not.":
            out = not self._truth(sv.p)
            return SV(out, out, out)
        if expr.op == "+":
            return sv
        val = sv.p
        raw = val.data if isinstance(val, FArray) else val
        out = -raw
        k = kind_of(val)
        if k is not None:
            self.ledger.add_op(frame.scope, "arith", k,
                               self._cur_vec or isinstance(val, FArray),
                               element_count(val))
        if isinstance(val, FArray):
            prim = FArray(out, val.lbounds, val.kind)
            if val.kind is not None:
                return SV(prim, -self._sraw(sv), -self._mraw(sv))
            return SV(prim, prim, prim)
        if isinstance(val, bool):
            raise FortranRuntimeError("negation of a logical value")
        if k is not None:
            return SV(out, -sv.s, -sv.m)
        out = int(out)
        return SV(out, out, out)

    def _seval_binop(self, expr: F.BinOp, frame: Frame) -> SV:
        op = expr.op
        if op == ".and.":
            left = self._seval(expr.left, frame)
            if not self._truth(left.p):
                return SV(False, False, False)
            out = self._truth(self._seval(expr.right, frame).p)
            return SV(out, out, out)
        if op == ".or.":
            left = self._seval(expr.left, frame)
            if self._truth(left.p):
                return SV(True, True, True)
            out = self._truth(self._seval(expr.right, frame).p)
            return SV(out, out, out)
        if op in (".eqv.", ".neqv."):
            left = self._truth(self._seval(expr.left, frame).p)
            right = self._truth(self._seval(expr.right, frame).p)
            out = left == right if op == ".eqv." else left != right
            return SV(out, out, out)

        lsv = self._seval(expr.left, frame)
        rsv = self._seval(expr.right, frame)
        left, right = lsv.p, rsv.p
        kl, kr = kind_of(left), kind_of(right)

        if kl is None and kr is None:
            lraw = left.data if type(left) is FArray else left
            rraw = right.data if type(right) is FArray else right
            out = self._int_binop(op, lraw, rraw)
            return SV(out, out, out)

        lraw = left.data if type(left) is FArray else left
        rraw = right.data if type(right) is FArray else right
        n = max(element_count(left), element_count(right))
        is_vec = self._cur_vec or n > 1

        wide = promote_kinds(kl, kr)
        if kl is not None and kr is not None and kl != kr:
            narrow_node = expr.left if kl < kr else expr.right
            if not isinstance(narrow_node, (F.RealLit, F.IntLit)):
                narrow_elems = element_count(left if kl < kr else right)
                self.ledger.add_op(frame.scope, "convert", wide, is_vec,
                                   narrow_elems)

        if op in _CMP_OPS:
            self.ledger.add_op(frame.scope, "cmp", wide, is_vec, n)
            out = self._compare(op, lraw, rraw)
            template = left if type(left) is FArray else (
                right if type(right) is FArray else None)
            if template is not None and isinstance(out, np.ndarray):
                prim = FArray(out, template.lbounds, kind_of(out))
                return SV(prim, prim, prim)
            if type(out) is np.bool_:
                out = bool(out)
            return SV(out, out, out)

        self.ledger.add_op(frame.scope, _ARITH_CLASS[op], wide, is_vec, n)
        out = self._arith(op, lraw, rraw)

        # Shadow sides: a non-real operand contributes its primary value
        # (the reference run computes the same integer either way).
        ls = self._sraw(lsv) if kl is not None else lraw
        rs = self._sraw(rsv) if kr is not None else rraw
        lm = self._mraw(lsv) if kl is not None else lraw
        rm = self._mraw(rsv) if kr is not None else rraw
        s_out = self._arith(op, ls, rs)
        m_out = self._arith(op, lm, rm)
        if op in ("+", "-"):
            self._note_cancellation(lm, rm, m_out)

        template = left if type(left) is FArray else (
            right if type(right) is FArray else None)
        if template is not None and isinstance(out, np.ndarray):
            prim = FArray(out, template.lbounds, kind_of(out))
            return SV(prim, _f64(s_out), _f64(m_out))
        if type(out) is np.bool_:
            out = bool(out)
            return SV(out, out, out)
        return SV(out, np.float64(s_out), np.float64(m_out))

    def _note_cancellation(self, lm: Any, rm: Any, m_out: Any) -> None:
        """CHEF-FP-style catastrophic-cancellation detector on the
        statement-exact side: the *exact* sum lost >= CANCEL_BITS bits
        against its larger operand, so the primary result is dominated
        by previously committed rounding error."""
        amax = np.maximum(np.abs(np.asarray(lm, dtype=np.float64)),
                          np.abs(np.asarray(rm, dtype=np.float64)))
        out = np.abs(np.asarray(m_out, dtype=np.float64))
        with np.errstate(invalid="ignore"):
            mask = (amax > 0.0) & np.isfinite(amax) \
                & (out < amax * _CANCEL_FACTOR)
        count = int(np.count_nonzero(mask))
        if count:
            self.recorder.cancellation(self._cur_assign_qual,
                                       self._cur_stmt_label,
                                       self._cur_assign_kind, count)

    def _seval_apply(self, expr: F.Apply, frame: Frame) -> SV:
        name = expr.name
        if frame.has(name):
            val = frame.find(name)
            if isinstance(val, FArray):
                return self._seval_array_ref(val, expr.args, frame)
            if val is None:
                raise FortranRuntimeError(
                    f"use of unallocated array {name!r}")
        scope = self.index.find_procedure(name)
        if scope is not None and isinstance(scope.node, F.Function):
            proc = scope.node
            actuals = self._prepare_actuals(proc, expr.args, frame)
            result = self._invoke(scope.name, proc, actuals,
                                  caller_scope=frame.scope,
                                  vec_ctx=self._cur_vec)
            return self._result_sv(result)
        intr = INTRINSICS.get(name)
        if intr is not None:
            return self._seval_intrinsic(intr, expr, frame)
        raise FortranRuntimeError(f"unknown function or array {name!r}")

    def _result_sv(self, result: Any) -> SV:
        """Wrap a user-function result: the call boundary resets the
        statement-exact side to the primary's float64 image."""
        if isinstance(result, FArray):
            if result.kind is None:
                return SV(result, result, result)
            m = result.data.astype(np.float64)
            s = self._ret_shadow
            if not (isinstance(s, np.ndarray)
                    and s.shape == result.data.shape):
                s = m
            return SV(result, s, m)
        k = kind_of(result)
        if k is None:
            return SV(result, result, result)
        m = np.float64(result)
        s = self._ret_shadow
        s = np.float64(s) if s is not None and not isinstance(
            s, np.ndarray) else m
        return SV(result, s, m)

    def _seval_intrinsic(self, intr, expr: F.Apply, frame: Frame) -> SV:
        args_sv: list[SV] = []
        kwargs: dict[str, Any] = {}
        suppress = intr.opclass == "none"
        if suppress:
            self._suppress_loads += 1
        try:
            for a in expr.args:
                if isinstance(a, F.KeywordArg):
                    kwargs[a.name] = self._seval(a.value, frame).p
                else:
                    args_sv.append(self._seval(a, frame))
        finally:
            if suppress:
                self._suppress_loads -= 1
        args = [sv.p for sv in args_sv]
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
        if kind_of(result) is None:
            # Integer/logical result (size, int, nint, ieee_is_nan, ...):
            # the shadow follows the primary so control stays in lockstep.
            return SV(result, result, result)
        s = self._intr_shadow(intr, args_sv, kwargs, "s", result)
        m = self._intr_shadow(intr, args_sv, kwargs, "m", result)
        return SV(result, s, m)

    def _intr_shadow(self, intr, args_sv: list[SV], kwargs: dict[str, Any],
                     side: str, fallback: Any) -> Any:
        raws = []
        for sv in args_sv:
            if isinstance(sv.p, FArray) and sv.p.kind is None:
                raws.append(sv.p)              # logical mask etc.
            elif kind_of(sv.p) is not None:
                raws.append(self._sraw(sv) if side == "s"
                            else self._mraw(sv))
            else:
                raws.append(sv.p)
        try:
            with np.errstate(all="ignore"):
                out = intr.fn(*raws, **kwargs)
        except Exception:
            self.recorder.untracked += 1
            return _f64(fallback.data if isinstance(fallback, FArray)
                        else fallback)
        if isinstance(out, FArray):
            out = out.data
        return _f64(out)

    def _seval_array_ref(self, arr: FArray, args: list[F.Expr],
                         frame: Frame) -> SV:
        key, n_elements, is_section = self._index_key(arr, args, frame)
        if arr.kind is not None and self._suppress_loads == 0:
            self.ledger.add_op(frame.scope, "load", arr.kind,
                               self._cur_vec or is_section, n_elements)
        if is_section:
            view = arr.data[key]
            lbounds = tuple(1 for _ in range(view.ndim))
            prim = FArray(view, lbounds, arr.kind)
            if arr.kind is not None:
                sh = self._sh_arr_get(arr)[key]
                self._sh_arr_alias(view, sh)
                return SV(prim, sh, view.astype(np.float64))
            return SV(prim, prim, prim)
        try:
            val = arr.data[key]
        except IndexError:
            raise FortranRuntimeError(
                f"index {key} out of bounds for shape {arr.data.shape}"
            ) from None
        if arr.kind is not None:
            sh = self._sh_arr_get(arr)[key]
            return SV(val, np.float64(sh), np.float64(val))
        if arr.data.dtype == np.bool_:
            val = bool(val)
        else:
            val = int(val)
        return SV(val, val, val)

    def _seval_component(self, expr: F.ComponentRef, frame: Frame) -> SV:
        base = self._eval_component_base(expr, frame)
        if expr.component not in base:
            raise FortranRuntimeError(
                f"derived type has no component {expr.component!r}")
        val = base[expr.component]
        if expr.args is not None:
            if not isinstance(val, FArray):
                raise FortranRuntimeError(
                    f"subscript on scalar component {expr.component!r}")
            return self._seval_array_ref(val, expr.args, frame)
        if isinstance(val, FArray):
            if val.kind is not None:
                return SV(val, self._sh_arr_get(val),
                          val.data.astype(np.float64))
            return SV(val, val, val)
        if kind_of(val) is None:
            return SV(val, val, val)
        if self._suppress_loads == 0:
            self.ledger.add_op(frame.scope, "load", kind_of(val),
                               self._cur_vec, 1)
        return SV(val, self._sh_get(base, expr.component, val),
                  np.float64(val))

    def _seval_array_cons(self, expr: F.ArrayCons, frame: Frame) -> SV:
        items_sv = [self._seval(i, frame) for i in expr.items]
        items = [sv.p for sv in items_sv]
        kinds = [kind_of(i) for i in items]
        if any(k is not None for k in kinds):
            from ..fortran.symbols import KIND_SINGLE
            kind = KIND_SINGLE
            for k in kinds:
                if k is not None:
                    kind = promote_kinds(kind, k)
            data = np.array([float(i) for i in items],
                            dtype=dtype_for_kind(kind))
            prim = FArray(data, (1,), kind)
            s = np.array([float(sv.s) if kind_of(sv.p) is not None
                          else float(sv.p) for sv in items_sv],
                         dtype=np.float64)
            m = np.array([float(sv.m) if kind_of(sv.p) is not None
                          else float(sv.p) for sv in items_sv],
                         dtype=np.float64)
            return SV(prim, s, m)
        data = np.array([int(i) for i in items], dtype=np.int64)
        prim = FArray(data, (1,), None)
        return SV(prim, prim, prim)

    def _seval_range(self, expr: F.RangeExpr, frame: Frame) -> SV:
        raise FortranRuntimeError("array section outside a subscript")

    def _seval_keyword(self, expr: F.KeywordArg, frame: Frame) -> SV:
        raise FortranRuntimeError("keyword argument in invalid position")

    _seval_table: dict[type, Callable[..., SV]] = {}

    # ------------------------------------------------------------------
    # Shadow argument references
    # ------------------------------------------------------------------

    def _seval_ref(self, expr: F.Expr, frame: Frame):
        """Shadow analogue of ``_eval_ref``: returns the primary
        ``(value, setter)`` pair plus a ``(shadow, shadow-setter)``
        pair (both ``None`` when the shadow travels by aliasing)."""
        if isinstance(expr, F.Name):
            val = frame.find(expr.name)
            slot = frame.find_slot(expr.name)
            name = expr.name

            def set_name(new: Any) -> None:
                if isinstance(slot[name], FArray) and isinstance(new, FArray):
                    slot[name].data[...] = new.data.astype(
                        slot[name].data.dtype)
                else:
                    slot[name] = new

            if isinstance(val, FArray):
                return (val, set_name), (None, None)
            k = kind_of(val)
            if k is not None:
                sval = self._sh_get(slot, name, val)

                def sset(new: Any, _slot: dict = slot,
                         _name: str = name) -> None:
                    _slot[_name + _SH] = np.float64(new)

                return (val, set_name), (sval, sset)
            return (val, set_name), (None, None)

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

                    if container.kind is not None:
                        self._sh_arr_alias(view,
                                           self._sh_arr_get(container)[key])
                    return (val, set_section), (None, None)
                val = container.data[key]

                def set_element(new: Any) -> None:
                    container.data[key] = new

                if container.kind is not None and self._suppress_loads == 0:
                    self.ledger.add_op(frame.scope, "load", container.kind,
                                       self._cur_vec, 1)
                if container.kind is not None:
                    sh = self._sh_arr_get(container)
                    sval = np.float64(sh[key])

                    def sset(new: Any, _sh: np.ndarray = sh,
                             _key: Any = key) -> None:
                        _sh[_key] = np.float64(new)

                    return (val, set_element), (sval, sset)
                return (val, set_element), (None, None)

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

                if not isinstance(val, FArray) and kind_of(val) is not None:
                    sval = self._sh_get(base, comp, val)

                    def scset(new: Any, _base: dict = base,
                              _comp: str = comp) -> None:
                        _base[_comp + _SH] = np.float64(new)

                    return (val, set_comp), (sval, scset)
                return (val, set_comp), (None, None)

        sv = self._seval(expr, frame)
        if (isinstance(sv.p, FArray) and sv.p.kind is not None
                and isinstance(sv.s, np.ndarray)):
            # A temporary array expression passed by value: register its
            # shadow so the callee's binding finds it by buffer id.
            self._sh_arr_alias(sv.p.data, sv.s)
            return (sv.p, None), (None, None)
        if not isinstance(sv.p, FArray) and kind_of(sv.p) is not None:
            return (sv.p, None), (np.float64(sv.s), None)
        return (sv.p, None), (None, None)

    def _prepare_actuals(self, proc: F.ProcedureUnit, args: list[F.Expr],
                         frame: Frame):
        if len(args) != len(proc.args):
            raise FortranRuntimeError(
                f"{proc.name} expects {len(proc.args)} arguments, "
                f"got {len(args)}")
        actuals = []
        shadows = []
        for arg in args:
            if isinstance(arg, F.KeywordArg):
                raise FortranRuntimeError(
                    "keyword arguments to user procedures are not supported")
            pair, shadow = self._seval_ref(arg, frame)
            actuals.append(pair)
            shadows.append(shadow)
        self._next_call_shadows = shadows
        return actuals

    # ------------------------------------------------------------------
    # Call boundary: Interpreter._invoke binds, saves, writes back and
    # rounds the primary; the shadow seeds and collects around the body.
    # ------------------------------------------------------------------

    def _invoke(self, qual: str, proc: F.ProcedureUnit,
                actuals: list, caller_scope: str, vec_ctx: bool) -> Any:
        shadows = self._next_call_shadows
        self._next_call_shadows = None
        if shadows is None or len(shadows) != len(actuals):
            shadows = [(None, None)] * len(actuals)
        call = _Call(actuals, shadows)
        # A dummy's shadow rides on its primary setter, so it is written
        # back exactly when, and in the order, the primary is.
        paired = [(value, setter if ssetter is None
                   else call.write_back(dummy, setter, ssetter))
                  for dummy, (value, setter), (_, ssetter)
                  in zip(proc.args, actuals, shadows)]
        self._calls.append(call)
        try:
            return super()._invoke(qual, proc, paired, caller_scope,
                                   vec_ctx)
        finally:
            self._calls.pop()

    def _run_body(self, proc: F.ProcedureUnit, frame: Frame) -> None:
        if not self._calls:                  # the main program
            super()._run_body(proc, frame)
            return
        call = self._calls[-1]
        call.frame = frame
        self._bind_shadows(proc, frame, call)
        saves = self._saves[frame.scope]
        for key, s in saves.items():
            if key.endswith(_SH):
                frame.values[key] = s
        super()._run_body(proc, frame)
        # The primary's SAVE loop persists every key of ``saves`` after
        # the body, so the shadows of saved scalars only need adding.
        for name in list(saves):
            if name + _SH in frame.values:
                saves[name + _SH] = frame.values[name + _SH]
        self._ret_shadow = None
        if isinstance(proc, F.Function):
            result = frame.values.get(proc.result)
            if isinstance(result, FArray) and result.kind is not None:
                self._ret_shadow = self._sh_arr_get(result).copy()
            elif kind_of(result) is not None:
                s = frame.values.get(proc.result + _SH)
                self._ret_shadow = np.float64(
                    s if s is not None else result)

    def _bind_shadows(self, proc: F.ProcedureUnit, frame: Frame,
                      call: _Call) -> None:
        """Seed the shadows of the real dummies the primary just bound
        and observe the rounding each binding introduced."""
        symbols = self.index.scopes[frame.scope].symbols
        for dummy, (value, _), (sval, _) in zip(proc.args, call.actuals,
                                                call.shadows):
            sym = symbols[dummy]
            if sym.type_ != "real":
                continue
            bound = frame.values[dummy]
            label = f"{sym.qualified}:bind"
            if not sym.is_array:
                # The unrounded reference of the actual: the float64 run
                # has no boundary cast.
                actual = np.float64(0.0 if value is None else value)
                s_in = np.float64(sval if sval is not None else actual)
                frame.values[dummy + _SH] = s_in
                self.recorder.observe(sym.qualified, label,
                                      effective_kind(sym, self.overlay),
                                      np.float64(bound), s_in, actual)
            elif bound.data is not value.data:
                # A kind-conversion copy shares the original's shadow.
                sh = self._sh_arr_get(value)
                self._sh_arr_alias(bound.data, sh)
                self.recorder.observe(sym.qualified, label, bound.kind,
                                      bound.data.astype(np.float64), sh,
                                      value.data.astype(np.float64))

    # ------------------------------------------------------------------
    # Assignment with shadow recording
    # ------------------------------------------------------------------

    def _target_identity(self, target: F.Expr, frame: Frame,
                         stmt: F.Stmt) -> tuple[Optional[str],
                                                Optional[str]]:
        """(qualified variable name, statement label) for attribution.
        Both are derived purely from the source, so they are stable
        across runs and worker configurations."""
        if isinstance(target, (F.Name, F.Apply)):
            name = target.name
            sym = self.index.resolve(frame.scope, name)
            qual = sym.qualified if sym is not None \
                else f"{frame.scope}::{name}"
        elif isinstance(target, F.ComponentRef):
            base = target.base
            base_name = base.name if isinstance(base, F.Name) else "?"
            qual = f"{frame.scope}::{base_name}%{target.component}"
        else:
            qual = None
        label = f"{frame.scope}:{getattr(stmt, 'line', 0)}"
        return qual, label

    def _exec_assignment(self, stmt: F.Assignment, frame: Frame) -> None:
        prev = self._cur_vec
        prev_id = self._cur_stmt_id
        prev_lit = self._rhs_literal
        prev_qual = self._cur_assign_qual
        prev_label = self._cur_stmt_label
        prev_kind = self._cur_assign_kind
        self._cur_vec = self._stmt_vec(stmt, frame)
        self._cur_stmt_id = id(stmt)
        self._rhs_literal = isinstance(stmt.value, (F.RealLit, F.IntLit))
        self._cur_assign_qual, self._cur_stmt_label = \
            self._target_identity(stmt.target, frame, stmt)
        try:
            sv = self._seval(stmt.value, frame)
            self._shadow_assign(stmt.target, sv, frame)
        finally:
            self._cur_vec = prev
            self._cur_stmt_id = prev_id
            self._rhs_literal = prev_lit
            self._cur_assign_qual = prev_qual
            self._cur_stmt_label = prev_label
            self._cur_assign_kind = prev_kind

    def _shadow_assign(self, target: F.Expr, sv: SV, frame: Frame) -> None:
        self._current_scope = frame.scope
        value = sv.p
        if isinstance(target, F.Name):
            slot = frame.find_slot(target.name)
            current = slot[target.name]
            if isinstance(current, FArray):
                self._assign_whole_array(current, value)
                if current.kind is not None:
                    self._commit_array_shadow(current, Ellipsis, sv,
                                              current.kind)
                return
            slot[target.name] = self._convert_like(current, value)
            kd = kind_of(current)
            if kd is not None:
                stored = slot[target.name]
                if not isinstance(stored, FArray):
                    s = np.float64(self._scalar_side(sv, "s", value))
                    slot[target.name + _SH] = s
                    self._cur_assign_kind = kd
                    self.recorder.observe(
                        self._cur_assign_qual, self._cur_stmt_label, kd,
                        np.float64(stored), s,
                        np.float64(self._scalar_side(sv, "m", value)))
            return
        if isinstance(target, F.Apply):
            container = frame.find(target.name)
            if not isinstance(container, FArray):
                raise FortranRuntimeError(
                    f"subscripted assignment to non-array {target.name!r}")
            self._shadow_assign_indexed(container, target.args, sv, frame)
            return
        if isinstance(target, F.ComponentRef):
            base = self._eval_component_base(target, frame)
            comp = base.get(target.component)
            if target.args is not None:
                if not isinstance(comp, FArray):
                    raise FortranRuntimeError(
                        f"subscripted assignment to non-array component "
                        f"{target.component!r}")
                self._shadow_assign_indexed(comp, target.args, sv, frame)
            elif isinstance(comp, FArray):
                self._assign_whole_array(comp, value)
                if comp.kind is not None:
                    self._commit_array_shadow(comp, Ellipsis, sv, comp.kind)
            else:
                base[target.component] = self._convert_like(comp, value)
                kd = kind_of(comp)
                if kd is not None:
                    stored = base[target.component]
                    if not isinstance(stored, FArray):
                        s = np.float64(self._scalar_side(sv, "s", value))
                        base[target.component + _SH] = s
                        self._cur_assign_kind = kd
                        self.recorder.observe(
                            self._cur_assign_qual, self._cur_stmt_label, kd,
                            np.float64(stored), s,
                            np.float64(self._scalar_side(sv, "m", value)))
            return
        raise FortranRuntimeError(
            f"cannot assign to {type(target).__name__}")

    def _scalar_side(self, sv: SV, side: str, value: Any) -> Any:
        raw = sv.s if side == "s" else sv.m
        if isinstance(raw, (FArray, np.ndarray)):
            # Degenerate (array stored into a scalar slot would have
            # failed upstream); fall back to the primary's image.
            return _f64(value.data if isinstance(value, FArray) else value)
        return raw

    def _shadow_assign_indexed(self, arr: FArray, args: list[F.Expr],
                               sv: SV, frame: Frame) -> None:
        key, n_elements, is_section = self._index_key(arr, args, frame)
        self._store_indexed(arr, key, n_elements, is_section, sv.p)
        if arr.kind is not None:
            self._commit_array_shadow(arr, key, sv, arr.kind)

    def _commit_array_shadow(self, arr: FArray, key: Any, sv: SV,
                             kind: int) -> None:
        sh = self._sh_arr_get(arr)
        sraw = self._sraw(sv)
        mraw = self._mraw(sv)
        if isinstance(sraw, FArray):
            sraw = sraw.data
        if isinstance(mraw, FArray):
            mraw = mraw.data
        try:
            sh[key] = sraw
        except (ValueError, TypeError):
            # Shape-incompatible shadow (untracked path): resynchronize
            # from the committed primary.
            sh[key] = arr.data[key].astype(np.float64) \
                if isinstance(arr.data[key], np.ndarray) \
                else np.float64(arr.data[key])
            mraw = sh[key]
            self.recorder.untracked += 1
        self._cur_assign_kind = kind
        stored = arr.data[key]
        self.recorder.observe(
            self._cur_assign_qual, self._cur_stmt_label, kind,
            _f64(stored), _f64(sh[key]), _f64(mraw))

    def _exec_masked_assignment(self, stmt: F.Assignment, mask: np.ndarray,
                                frame: Frame) -> None:
        prev_qual = self._cur_assign_qual
        prev_label = self._cur_stmt_label
        prev_kind = self._cur_assign_kind
        self._cur_assign_qual, self._cur_stmt_label = \
            self._target_identity(stmt.target, frame, stmt)
        try:
            sv = self._seval(stmt.value, frame)
            arr, key = self._store_masked(stmt.target, mask, sv.p, frame)
            if arr.kind is not None and mask.any():
                sh_all = self._sh_arr_get(arr)
                sh = sh_all[key]
                sraw = self._sraw(sv)
                mraw = self._mraw(sv)
                if isinstance(sraw, np.ndarray) and sraw.shape == mask.shape:
                    sh[mask] = sraw[mask]
                    m_sel = (mraw[mask]
                             if isinstance(mraw, np.ndarray)
                             and mraw.shape == mask.shape else mraw)
                else:
                    sh[mask] = sraw
                    m_sel = mraw
                sh_all[key] = sh  # a gathered section is a copy
                self._cur_assign_kind = arr.kind
                self.recorder.observe(
                    self._cur_assign_qual, self._cur_stmt_label, arr.kind,
                    arr.data[key][mask].astype(np.float64),
                    sh[mask], _f64(m_sel))
        finally:
            self._cur_assign_qual = prev_qual
            self._cur_stmt_label = prev_label
            self._cur_assign_kind = prev_kind


ShadowInterpreter._seval_table = {
    F.IntLit: ShadowInterpreter._seval_int_lit,
    F.RealLit: ShadowInterpreter._seval_real_lit,
    F.LogicalLit: ShadowInterpreter._seval_logical_lit,
    F.StringLit: ShadowInterpreter._seval_string_lit,
    F.Name: ShadowInterpreter._seval_name,
    F.UnaryOp: ShadowInterpreter._seval_unary,
    F.BinOp: ShadowInterpreter._seval_binop,
    F.Apply: ShadowInterpreter._seval_apply,
    F.ComponentRef: ShadowInterpreter._seval_component,
    F.RangeExpr: ShadowInterpreter._seval_range,
    F.ArrayCons: ShadowInterpreter._seval_array_cons,
    F.KeywordArg: ShadowInterpreter._seval_keyword,
}
