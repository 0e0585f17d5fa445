"""Compiled execution backend: closure-lowered procedure bodies.

The tree-walking :class:`~repro.fortran.interpreter.Interpreter` pays a
dispatch, symbol-lookup and table-lookup cost at every AST node visit,
on every execution.  This module removes that cost by *lowering* each
procedure body once into a tree of Python closures — one closure per
statement/expression node — resolving at compile time everything that
is invariant across executions:

* statement/expression dispatch (the closure *is* the handler),
* symbol lookups (local slot vs. module frame) and the statically
  int/bool expressions, both decided by
  :class:`~repro.fortran.symbols.ScopeNames`, the scoping rules the
  walker, this backend and the batched one share,
* procedure/intrinsic resolution and intrinsic opclass selection,
* literal values (NumPy scalars are built once),
* static vectorization flags,
* the operand types of each real binop, each store to a declared real
  scalar and each elementwise intrinsic of a real scalar, with the
  ledger keys they charge (``_ProcCompiler._expect``: the declared
  types under the overlay, and the types NumPy gives their results).

Only what the registered models contain is lowered: assignments to
declared names and to array elements or sections, ``call``, ``if``,
``do``, ``do while``, ``exit`` and ``stop``; literals, declared names,
unary and binary operators (logical ones too: a few lines each, and
the fuzzer's conditions use them), array references and sections, and
user-function and intrinsic calls.  Every other construct runs on the
walker's own code, on the same interpreter and frame (``_walker_stmt``,
``_walker_expr``, ``_walker_ref``): ``select case``, ``where``,
``print``, ``allocate``, ``deallocate``, ``cycle``, ``return``,
derived-type components, array constructors, names ``ScopeNames``
leaves to the frame's chain walk (undeclared names), and a ``call`` or
user-function call with a keyword argument.  A hot loop nested inside
such a construct runs at the walker's speed; no registered model has
one.

The handoff is exact by construction.  ``CompiledInterpreter`` is an
``Interpreter`` whose frames are the walker's ``Frame`` s, so a walker
handler reads and writes the same values dicts and module frames; both
engines keep their statement state in the same interpreter fields
(``_cur_vec``, ``_cur_stmt_id``, ``_rhs_literal``, ``_devec_stmts``,
``_suppress_loads`` and the budget tick ``_stmt_tick``); control flow
crosses as the same exceptions (a walker ``cycle`` or ``return``
raises what a compiled ``do`` loop or ``_run_body`` catches); and
``_current_scope``, which the walker's ``_eval`` sets, is read only by
the walker's own stores, which set it again first.  A delegating
closure captures only its node and takes the interpreter as an
argument, so cached code stays shareable across interpreters and
variants.  The statement flags the walker reads come from the flags
the running code was lowered with (``CompiledInterpreter._stmt_vec``),
since a cached body may serve another parse of the same source.

Expectations are lowered, and a guard keeps them honest.  Each such
site checks its operands with an exact ``type()`` test; on a miss (an
array, a value whose kind changed at a call boundary) it calls its
construct's one slow path, the kind dispatch on runtime types
(``_binop``, ``_store``, ``_intrinsic``), so a wrong expectation costs
speed, never bits.  An expectation reads only the procedure's own and
module symbols (``ScopeNames``), which are exactly the overlay entries
:func:`relevant_overlay` keys the cache on, so a cached body never
carries a neighbour variant's expectation.

Other runtime-dependent behaviour stays dynamic so the backend is
*bit-identical* to the reference interpreter: the ``_devec_stmts`` set
(wrapped calls devectorize their enclosing statement mid-run), and the
op-budget check at every statement boundary.  Call binding,
write-back, and local elaboration reuse the inherited tree-interpreter
``_invoke`` verbatim, so boundary-cast charges and wrapper semantics
cannot drift by construction.

Compiled bodies are cached in :data:`CODE_CACHE`, keyed by
:func:`cache_key` — the canonical four-part tuple ``(source digest,
procedure, vectorization flag, sorted restricted overlay)``.  The
restriction keeps only overlay entries the procedure body can observe
(its own scope, ancestor scopes, and module symbols), so delta-debug
neighbors that differ only in *other* procedures' precisions share
compiled code and skip re-lowering; the sorted ordering makes the key
independent of overlay dict insertion order.

The contract (pinned by ``tests/test_fuzz_differential.py``,
``tests/test_golden_digest.py`` and the equivalence suite):
observables, ledger charges, stdout, and error messages are
bit-identical between backends.  ``tests/test_fast_paths.py`` pins the
handoff both ways: the models' procedures lower with nothing handed to
the walker, and each construct above is handed over.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Callable, Optional

import numpy as np

from ..errors import (FortranRuntimeError, FortranStopError,
                      InterpreterLimitError)
from . import ast_nodes as F
from .instrumentation import OpKey
from .interpreter import (_ARITH_CLASS, _BUDGET_CHECK_INTERVAL, Frame,
                          Interpreter, _CycleLoop, _ExitLoop, _ReturnSignal)
from .intrinsics import INTRINSICS
from .symbols import (_CMP_OPS, KIND_DOUBLE, KIND_SINGLE, ProgramIndex,
                      ScopeNames, effective_kind, int_pow)
from .unparser import unparse
from .values import (FArray, cast_real, dtype_for_kind, element_count,
                     kind_of)

__all__ = ["CompiledInterpreter", "CodeCache", "CODE_CACHE",
           "cache_key", "source_digest", "relevant_overlay"]

#: Subroutine names the interpreter implements natively (mirrors
#: ``Interpreter._builtin_subs``; all of them charge an allreduce).
_BUILTIN_SUBS = frozenset(
    {"mpi_allreduce_sum", "mpi_allreduce_max", "mpi_allreduce_min"})

_CMP_FNS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "/=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH_FNS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
}


def _key_pairs(scope: str, opclass: str) -> dict:
    """Precomputed ledger keys for one charge site.

    Real kinds form a closed two-element universe (float32/float64 are
    the only dtypes the value model constructs), so every dynamic
    ``OpKey(scope, opclass, kind, vec)`` a site can ever need is one of
    four instances.  Indexing ``pairs[kind][is_vec]`` replaces a
    NamedTuple construction per charge with a dict lookup.
    """
    return {
        KIND_SINGLE: (OpKey(scope, opclass, KIND_SINGLE, False),
                      OpKey(scope, opclass, KIND_SINGLE, True)),
        KIND_DOUBLE: (OpKey(scope, opclass, KIND_DOUBLE, False),
                      OpKey(scope, opclass, KIND_DOUBLE, True)),
    }


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def source_digest(index: ProgramIndex) -> str:
    """sha256 of the unparsed source, memoized on the index object."""
    dig = getattr(index, "_compile_digest", None)
    if dig is None:
        dig = hashlib.sha256(unparse(index.source).encode()).hexdigest()
        index._compile_digest = dig  # type: ignore[attr-defined]
    return dig


def relevant_overlay(index: ProgramIndex, qual: str,
                     overlay: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """The overlay restricted to entries the body of *qual* can observe.

    A compiled body consults the overlay only through operand-type
    expectations, whose symbols resolve in the procedure's own scope,
    its ancestor (host) scopes, or a module (the walker, which runs the
    constructs left to it, reads the interpreter's own overlay).
    Entries for *other* procedures' symbols cannot affect the lowered
    code, so they are excluded from the cache key — delta-debug
    neighbors that differ only there share compiled code.
    """
    if not overlay:
        return ()
    consulted = set(index.modules)
    consulted.add(qual)
    info = index.scopes.get(qual)
    info = info.parent if info is not None else None
    while info is not None:
        consulted.add(info.name)
        info = info.parent
    items = [(q, k) for q, k in overlay.items()
             if q.rsplit("::", 1)[0] in consulted]
    items.sort()
    return tuple(items)


def cache_key(index: ProgramIndex, qual: str, vec_info,
              overlay: dict[str, int]) -> tuple:
    """Canonical :data:`CODE_CACHE` key for one lowered procedure body.

    Exactly four parts, in order:

    1. **source digest** — sha256 of the unparsed program, so the cache
       never serves code across edited sources;
    2. **procedure** — the qualified name being lowered;
    3. **vectorization flag** — whether vector analysis was supplied
       (``vec_info is not None``): vectorized and devectorized
       lowerings of the same body differ, so they must not share an
       entry;
    4. **restricted overlay** — :func:`relevant_overlay`'s **sorted**
       tuple of the overlay entries the body can observe.  Sorting
       makes the key independent of overlay dict insertion order:
       delta-debug neighbors built in different orders, workers
       rebuilding assignments from wire kinds, and batched-backend
       lane overlays all hit the same entry.

    Every cache consumer must build keys through this function —
    hand-rolled tuples are how the docs and the implementation drift
    apart (``tests/test_perf.py`` pins the shape and the ordering
    invariance).
    """
    return (source_digest(index), qual, vec_info is not None,
            relevant_overlay(index, qual, overlay))


class CodeCache:
    """Process-wide cache of lowered procedure bodies.

    A bounded FIFO (so long campaigns cannot grow it without limit)
    mapping :func:`cache_key`'s ``(source digest, procedure,
    vectorization flag, sorted restricted overlay)`` to the compiled
    body closure.  Counters feed the observability layer; they never
    enter deterministic campaign output.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._entries: dict[tuple, Callable[[Any, Frame], None]] = {}
        self.compiled = 0
        self.hits = 0

    def code_for(self, index: ProgramIndex, vec_info,
                 overlay: dict[str, int],
                 qual: str) -> Callable[[Any, Frame], None]:
        key = cache_key(index, qual, vec_info, overlay)
        body = self._entries.get(key)
        if body is not None:
            self.hits += 1
            return body
        scope_info = index.scopes[qual]
        compiler = _ProcCompiler(index, vec_info, overlay, scope_info)
        body = compiler.block(scope_info.node.body)
        # The walker's statement handlers read these (see
        # ``CompiledInterpreter._stmt_vec``).
        body.stmt_flags = compiler.stmt_flags  # type: ignore[attr-defined]
        if len(self._entries) >= self.maxsize:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = body
        self.compiled += 1
        return body

    def stats(self) -> dict[str, int]:
        return {"procedures_compiled": self.compiled,
                "cache_hits": self.hits,
                "entries": len(self._entries)}

    def clear(self) -> None:
        self._entries.clear()
        self.compiled = 0
        self.hits = 0


#: Default process-wide cache (each worker process gets its own copy).
CODE_CACHE = CodeCache()


# ---------------------------------------------------------------------------
# Shared runtime helpers (semantics identical to the tree interpreter)
# ---------------------------------------------------------------------------


def _truth(value: Any) -> bool:
    if isinstance(value, (FArray, np.ndarray)):
        raise FortranRuntimeError("array used as scalar condition")
    return bool(value)


def _int_div(l: Any, r: Any) -> Any:
    if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
        return np.asarray(l) // np.asarray(r)
    if r == 0:
        raise FortranRuntimeError("integer division by zero")
    return int(l / r) if (l < 0) != (r < 0) and l % r != 0 else l // r


#: Integer arithmetic: ``/`` truncates and ``**`` stays an integer.
_INT_FNS = {**_ARITH_FNS, "/": _int_div, "**": int_pow}

#: Scalar constructors per kind (identical to ``dtype_for_kind(k).type``).
_SCALAR_CTOR = {KIND_SINGLE: np.float32, KIND_DOUBLE: np.float64}
_KIND_OF_TYPE = {np.float32: KIND_SINGLE, np.float64: KIND_DOUBLE}


def _convert_like(I: Interpreter, store_keys: dict, convert_keys: dict,
                  current: Any, value: Any) -> Any:
    tc = type(current)
    if tc is np.float64:
        kd = KIND_DOUBLE
    elif tc is np.float32:
        kd = KIND_SINGLE
    elif tc is bool:
        return bool(value)
    elif tc is int:
        return int(value)
    else:
        kd = kind_of(current)
    if kd is not None:
        tv = type(value)
        if tv is np.float64:
            kv = KIND_DOUBLE
        elif tv is np.float32:
            kv = KIND_SINGLE
        else:
            kv = kind_of(value)
            if kv is None:
                value = float(value)
                kv = kd
        led = I.ledger
        vec = I._cur_vec
        if kv != kd and not I._rhs_literal:
            led.ops[convert_keys[kd][vec]] += 1
            led.total_ops += 1
        led.ops[store_keys[kd][vec]] += 1
        led.total_ops += 1
        if kv == kd and (tv is np.float64 or tv is np.float32):
            return value  # already the exact scalar dtype
        if tv is FArray or tv is np.ndarray:
            return cast_real(value, kd)
        return _SCALAR_CTOR[kd](value)
    if isinstance(current, bool):
        return bool(value)
    if isinstance(current, int):
        return int(value)
    if isinstance(current, str):
        return str(value)
    # Uninitialized slot (e.g. deallocated): store as-is.
    return value


def _assign_whole_array(I: Interpreter, store_keys: dict, convert_keys: dict,
                        arr: FArray, value: Any) -> None:
    raw = value.data if isinstance(value, FArray) else value
    if isinstance(raw, np.ndarray) and raw.shape != arr.data.shape:
        raise FortranRuntimeError(
            f"shape mismatch in array assignment: {raw.shape} -> "
            f"{arr.data.shape}"
        )
    ak = arr.kind
    if ak is not None:
        kv = kind_of(value)
        led = I.ledger
        n = arr.data.size
        if kv is not None and kv != ak and not I._rhs_literal:
            led.ops[convert_keys[ak][True]] += n
            led.total_ops += n
        led.ops[store_keys[ak][True]] += n
        led.total_ops += n
    arr.data[...] = raw


def _assign_indexed(I: Interpreter, store_keys: dict, convert_keys: dict,
                    arr: FArray, key: tuple, n: int, is_section: bool,
                    value: Any) -> None:
    ak = arr.kind
    if ak is not None:
        kv = kind_of(value)
        led = I.ledger
        vec = I._cur_vec or is_section
        if kv is not None and kv != ak and not I._rhs_literal:
            led.ops[convert_keys[ak][vec]] += n
            led.total_ops += n
        led.ops[store_keys[ak][vec]] += n
        led.total_ops += n
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


# ---------------------------------------------------------------------------
# Slow paths: the kind dispatch on runtime types
# ---------------------------------------------------------------------------
#
# A lowered site whose operand types the declarations fix checks them
# with an exact ``type()`` test and charges ledger keys chosen at
# lowering; on a miss (an array, an undeclared name, a value whose kind
# changed at a call boundary) it calls its construct's slow path below.


def _operand(value: Any) -> tuple:
    """``(kind, raw value, element count)`` of a binop operand."""
    t = type(value)
    if t is FArray:
        return value.kind, value.data, value.data.size
    if t is np.float64:
        return KIND_DOUBLE, value, 1
    if t is np.float32:
        return KIND_SINGLE, value, 1
    if t is int or t is bool:
        return None, value, 1
    return kind_of(value), value, element_count(value)


def _binop(I: Interpreter, left: Any, right: Any, site: tuple) -> Any:
    """A real (or undeclared) binop's operands dispatched by type."""
    fn, int_fn, is_cmp, op_keys, convert_keys, left_lit, right_lit = site
    kl, lraw, nl = _operand(left)
    kr, rraw, nr = _operand(right)
    if kl is None:
        if kr is None:
            # Pure integer (or logical-comparison) arithmetic:
            # free in the cost model (address math).
            return int_fn(lraw, rraw)
        wide = kr
    elif kr is None or kl >= kr:
        wide = kl
    else:
        wide = kr
    n = nr if nr > nl else nl
    is_vec = I._cur_vec or n > 1
    led = I.ledger
    if kl is not None and kr is not None and kl != kr:
        if kl < kr:
            if not left_lit:
                led.ops[convert_keys[wide][is_vec]] += nl
                led.total_ops += nl
        elif not right_lit:
            led.ops[convert_keys[wide][is_vec]] += nr
            led.total_ops += nr
    led.ops[op_keys[wide][is_vec]] += n
    led.total_ops += n
    out = fn(lraw, rraw)
    if is_cmp and not isinstance(out, np.ndarray):
        out = bool(out)
    template = left if type(left) is FArray else (
        right if type(right) is FArray else None)
    if template is not None and isinstance(out, np.ndarray):
        return FArray(out, template.lbounds, kind_of(out))
    if type(out) is np.bool_:
        return bool(out)
    return out


def _store(I: Interpreter, store_keys: dict, convert_keys: dict, slot: dict,
           name: str, value: Any) -> None:
    """A store to a named variable, dispatched on its current value."""
    current = slot[name]
    if isinstance(current, FArray):
        _assign_whole_array(I, store_keys, convert_keys, current, value)
    else:
        slot[name] = _convert_like(I, store_keys, convert_keys, current,
                                   value)


def _intrinsic(I: Interpreter, fn, op_keys: dict, args: list,
               kwargs: Optional[dict] = None) -> Any:
    """A charged intrinsic call: the charge's kind comes from the
    result's type (else its first real argument's), its count from the
    largest argument."""
    result = fn(*args, **kwargs) if kwargs else fn(*args)
    k = kind_of(result)
    if k is None:
        for a in args:
            k = kind_of(a)
            if k is not None:
                break
    if k is not None:
        n = max(map(element_count, args), default=1)
        led = I.ledger
        led.ops[op_keys[k][I._cur_vec or n > 1]] += n
        led.total_ops += n
    return result


def _raiser(exc_type, message: str):
    """A closure that raises only when it runs, so an error lowered from
    a construct surfaces where and when the reference's would."""
    def raise_it(*_ignored):
        raise exc_type(message)
    return raise_it


# ---------------------------------------------------------------------------
# The handoff: constructs left to the walker's own handlers
# ---------------------------------------------------------------------------
#
# Each closure captures only its node and runs the walker's code on the
# executing interpreter and frame (see the module docstring for why the
# handoff is exact).


def _walker_stmt(s: F.Stmt):
    """*s* through its walker handler in ``I._exec_table``."""
    t = type(s)

    def ex(I, frame):
        handler = I._exec_table.get(t)
        if handler is None:
            raise FortranRuntimeError(
                f"cannot execute statement {t.__name__}")
        handler(s, frame)
    return ex


def _walker_expr(e: F.Expr):
    """*e*'s value through ``I._eval``."""
    return lambda I, frame: I._eval(e, frame)


def _walker_ref(e: F.Expr):
    """*e* as an actual argument through ``I._eval_ref``."""
    return lambda I, frame: I._eval_ref(e, frame)


# ---------------------------------------------------------------------------
# Per-procedure compiler
# ---------------------------------------------------------------------------


class _ProcCompiler:
    """Lowers one procedure's statements/expressions into closures.

    Every closure takes ``(I, frame)`` — the executing interpreter and
    the activation record — so compiled code is shared across
    interpreter instances (and thus across runs and campaign variants
    whose restricted overlays agree).
    """

    def __init__(self, index: ProgramIndex, vec_info, overlay: dict[str, int],
                 scope_info):
        self.index = index
        self.overlay = overlay
        self.scope = scope_info.name
        self.names = ScopeNames(index, scope_info)
        self.stmt_flags = (vec_info.stmt_vec(self.scope)
                           if vec_info is not None else {})
        self._key_tables: dict[str, dict] = {}
        # _expect's answers, by name for a Name and by node id otherwise.
        self._expected: dict[Any, Any] = {}

    def _keys(self, opclass: str) -> dict:
        """Per-procedure memo of :func:`_key_pairs` tables."""
        tab = self._key_tables.get(opclass)
        if tab is None:
            tab = self._key_tables[opclass] = _key_pairs(self.scope, opclass)
        return tab

    def _declared(self, name: str) -> bool:
        """Whether *name* has a declared symbol; any other name is left
        to the frame's chain walk, which the walker does."""
        return self.names.lookup(name)[0] is not None

    def _fetch(self, name: str):
        """Compiled ``frame.find(name)`` for a declared name."""
        mod = self.names.lookup(name)[1]
        if mod is None:
            return lambda I, frame: frame.values[name]
        return lambda I, frame: I._module_frames[mod].values[name]

    def _vec_closure(self, stmt):
        """Compiled ``Interpreter._stmt_vec`` for one statement."""
        sid = id(stmt)
        static_vec = self.stmt_flags.get(sid, False)

        def vec(I, frame):
            if sid in I._devec_stmts:
                return False
            return static_vec or frame.vec_inherit
        return vec

    # -- expressions -----------------------------------------------------

    def expr(self, e: F.Expr):
        t = type(e)
        if t is F.IntLit:
            v = e.value
            return lambda I, frame: v
        if t is F.RealLit:
            v = dtype_for_kind(e.kind).type(e.value)
            return lambda I, frame: v
        if t is F.LogicalLit:
            v = e.value
            return lambda I, frame: v
        if t is F.StringLit:
            v = e.value
            return lambda I, frame: v
        if t is F.Name and self._declared(e.name):
            return self._compile_name(e.name)
        if t is F.UnaryOp:
            return self._compile_unary(e)
        if t is F.BinOp:
            return self._compile_binop(e)
        if t is F.Apply:
            return self._compile_apply(e)
        return _walker_expr(e)

    def _compile_name(self, name: str):
        sym, mod = self.names.lookup(name)
        if not sym.is_array and sym.type_ in (
                "integer", "logical", "character"):
            # Non-real scalar: kind is None, the reference interpreter
            # never charges a load — the closure is a bare slot read.
            if mod is None:
                return lambda I, frame: frame.values[name]
            return lambda I, frame: I._module_frames[mod].values[name]
        load_keys = self._keys("load")
        key_f64 = load_keys[KIND_DOUBLE]
        key_f32 = load_keys[KIND_SINGLE]
        if mod is None:
            def ev(I, frame):
                val = frame.values[name]
                if I._suppress_loads == 0:
                    tv = type(val)
                    if tv is np.float64:
                        led = I.ledger
                        led.ops[key_f64[I._cur_vec]] += 1
                        led.total_ops += 1
                    elif tv is np.float32:
                        led = I.ledger
                        led.ops[key_f32[I._cur_vec]] += 1
                        led.total_ops += 1
                    elif tv is FArray:
                        k = val.kind
                        if k is not None:
                            n = val.data.size
                            led = I.ledger
                            led.ops[load_keys[k][True]] += n
                            led.total_ops += n
                    elif tv is not int and tv is not bool:
                        k = kind_of(val)
                        if k is not None:
                            n = element_count(val)
                            led = I.ledger
                            led.ops[load_keys[k][I._cur_vec]] += n
                            led.total_ops += n
                return val
            return ev

        def ev(I, frame):
            val = I._module_frames[mod].values[name]
            if I._suppress_loads == 0:
                tv = type(val)
                if tv is np.float64:
                    led = I.ledger
                    led.ops[key_f64[I._cur_vec]] += 1
                    led.total_ops += 1
                elif tv is np.float32:
                    led = I.ledger
                    led.ops[key_f32[I._cur_vec]] += 1
                    led.total_ops += 1
                elif tv is FArray:
                    k = val.kind
                    if k is not None:
                        n = val.data.size
                        led = I.ledger
                        led.ops[load_keys[k][True]] += n
                        led.total_ops += n
                elif tv is not int and tv is not bool:
                    k = kind_of(val)
                    if k is not None:
                        n = element_count(val)
                        led = I.ledger
                        led.ops[load_keys[k][I._cur_vec]] += n
                        led.total_ops += n
            return val
        return ev

    def _slot_or_const(self, e: F.Expr):
        """``("s", name)`` for a charge-free local scalar Name,
        ``("c", value)`` for an int/logical literal, else None.

        These operands a parent closure can read inline — one frame-dict
        lookup or a captured constant — without changing charges: the
        reference interpreter never charges loads for non-real scalars
        or literals.
        """
        t = type(e)
        if t is F.IntLit or t is F.LogicalLit:
            return ("c", e.value)
        if t is F.Name:
            sym, mod = self.names.lookup(e.name)
            if (sym is not None and mod is None and not sym.is_array
                    and sym.type_ in ("integer", "logical", "character")):
                return ("s", e.name)
        return None

    def _compile_unary(self, e: F.UnaryOp):
        op = e.op
        ov = self.expr(e.operand)
        if op == ".not.":
            return lambda I, frame: not _truth(ov(I, frame))
        if op == "+":
            return ov
        if self.names.static_type(e.operand) == "int":
            # Free integer negation (kind None, never a bool).
            return lambda I, frame: -ov(I, frame)
        arith_keys = self._keys("arith")

        def ev(I, frame):
            val = ov(I, frame)
            raw = val.data if isinstance(val, FArray) else val
            out = -raw
            k = kind_of(val)
            if k is not None:
                n = element_count(val)
                led = I.ledger
                led.ops[arith_keys[k][
                    I._cur_vec or isinstance(val, FArray)]] += n
                led.total_ops += n
            if isinstance(val, FArray):
                return FArray(out, val.lbounds, val.kind)
            if isinstance(val, bool):
                raise FortranRuntimeError("negation of a logical value")
            return out if k is not None else int(out)
        return ev

    def _compile_binop(self, e: F.BinOp):
        op = e.op
        lev, rev = self.expr(e.left), self.expr(e.right)
        if op == ".and.":
            def ev(I, frame):
                if not _truth(lev(I, frame)):
                    return False
                return _truth(rev(I, frame))
            return ev
        if op == ".or.":
            def ev(I, frame):
                if _truth(lev(I, frame)):
                    return True
                return _truth(rev(I, frame))
            return ev
        if op in (".eqv.", ".neqv."):
            want_eq = op == ".eqv."

            def ev(I, frame):
                left = _truth(lev(I, frame))
                right = _truth(rev(I, frame))
                return left == right if want_eq else left != right
            return ev

        lt, rt = self._expect(e.left), self._expect(e.right)
        if ((lt is int or lt is None
             and self.names.static_type(e.left) == "bool")
                and (rt is int or rt is None
                     and self.names.static_type(e.right) == "bool")):
            # Both operands are int/bool scalars: the reference
            # interpreter's free integer path, with no kind dispatch.
            fn = _CMP_FNS.get(op) or _INT_FNS[op]
            # Loop-control idioms (``i + 1``, ``i <= n``) dominate this
            # path; reading slot/constant operands inline skips their
            # leaf closure calls.
            lk = self._slot_or_const(e.left)
            rk = self._slot_or_const(e.right)
            if lk is not None and rk is not None:
                ltag, lv = lk
                rtag, rv = rk
                if ltag == "s":
                    if rtag == "s":
                        return lambda I, frame: fn(frame.values[lv],
                                                   frame.values[rv])
                    return lambda I, frame: fn(frame.values[lv], rv)
                if rtag == "s":
                    return lambda I, frame: fn(lv, frame.values[rv])
                return lambda I, frame: fn(lv, rv)
            if lk is not None:
                ltag, lv = lk
                if ltag == "s":
                    return lambda I, frame: fn(frame.values[lv],
                                               rev(I, frame))
                return lambda I, frame: fn(lv, rev(I, frame))
            if rk is not None:
                rtag, rv = rk
                if rtag == "s":
                    return lambda I, frame: fn(lev(I, frame),
                                               frame.values[rv])
                return lambda I, frame: fn(lev(I, frame), rv)
            return lambda I, frame: fn(lev(I, frame), rev(I, frame))

        is_cmp = op in _CMP_OPS
        fn = _CMP_FNS[op] if is_cmp else _ARITH_FNS[op]
        op_keys = self._keys("cmp" if is_cmp else _ARITH_CLASS[op])
        convert_keys = self._keys("convert")
        if is_cmp:
            def int_fn(l, r):
                out = fn(l, r)
                if isinstance(out, np.ndarray):
                    return out
                return bool(out)
        else:
            int_fn = _INT_FNS[op]
        # A literal operand promotes for free (the compiler folds the
        # constant); only variable operands charge a convert.
        left_lit = isinstance(e.left, (F.RealLit, F.IntLit))
        right_lit = isinstance(e.right, (F.RealLit, F.IntLit))
        site = (fn, int_fn, is_cmp, op_keys, convert_keys, left_lit,
                right_lit)
        if lt is None or rt is None:
            return lambda I, frame: _binop(I, lev(I, frame), rev(I, frame),
                                           site)
        # The expected types fix the charges: the narrower operand's
        # convert unless it is a literal, then the op at the wide kind.
        kl, kr = _KIND_OF_TYPE.get(lt), _KIND_OF_TYPE.get(rt)
        wide = kl if kr is None or (kl is not None and kl >= kr) else kr
        conv = None
        if (kl is not None and kr is not None and kl != kr
                and not (left_lit if kl < kr else right_lit)):
            conv = convert_keys[wide]
        opk = op_keys[wide]

        def ev(I, frame):
            left = lev(I, frame)
            right = rev(I, frame)
            if type(left) is lt and type(right) is rt:
                led = I.ledger
                vec = I._cur_vec
                if conv is not None:
                    led.ops[conv[vec]] += 1
                    led.total_ops += 1
                led.ops[opk[vec]] += 1
                led.total_ops += 1
                if is_cmp:
                    return bool(fn(left, right))
                return fn(left, right)
            return _binop(I, left, right, site)
        return ev

    def _expect(self, e: F.Expr):
        """The type the declarations under this overlay give *e*'s
        value: ``int``, ``np.float32`` or ``np.float64``; None when they
        fix none or the value may be an array.  A fast path checks it
        with an exact ``type()`` test before it acts on it."""
        t = type(e)
        key = e.name if t is F.Name else id(e)
        out = self._expected.get(key, self)
        if out is not self:
            return out
        if t is F.BinOp and e.op in _ARITH_FNS:
            lt, rt = self._expect(e.left), self._expect(e.right)
            # NumPy's result: the wider real (a Python int operand is
            # weak), or an int from two ints.
            out = (None if lt is None or rt is None else lt if rt is int
                   or lt is not int and _KIND_OF_TYPE[lt] >= _KIND_OF_TYPE[rt]
                   else rt)
        elif t is F.UnaryOp and e.op in ("-", "+"):
            out = self._expect(e.operand)
        elif (t is F.Apply and self.names.lookup(e.name)[0] is None
              and self.index.find_procedure(e.name) is None):
            # An elementwise intrinsic keeps a real argument's type.
            ufunc = getattr(getattr(INTRINSICS.get(e.name), "fn", None),
                            "ufunc", None)
            at = (self._expect(e.args[0])
                  if ufunc is not None and len(e.args) == 1 else None)
            out = None if at is int else at
        elif t is F.RealLit:
            out = _SCALAR_CTOR.get(e.kind)
        else:
            # A name or an element: what its declaration fixes, unless it
            # is a whole array or an element under a vector subscript.
            st = self.names.static_type(e)
            out = int if st == "int" else None
            if type(st) is tuple and not (
                    st[0].is_array if t is F.Name else any(
                        type(n) is F.Name and getattr(
                            self.names.lookup(n.name)[0], "is_array", False)
                        for n in F.walk(e))):
                out = _SCALAR_CTOR.get(effective_kind(st[0], self.overlay))
        self._expected[key] = out
        return out

    # -- subscripts ------------------------------------------------------

    def _compile_index_key(self, args: list[F.Expr]):
        """Compiled ``Interpreter._index_key``: ``(I, frame, arr) ->
        (key, n_elements, is_section)``."""
        plans = []
        for arg in args:
            if isinstance(arg, F.RangeExpr):
                plans.append(
                    (True,
                     self.expr(arg.lo) if arg.lo is not None else None,
                     self.expr(arg.hi) if arg.hi is not None else None,
                     self.expr(arg.step) if arg.step is not None else None))
            else:
                plans.append((False, self.expr(arg), None, None))
        nargs = len(args)
        if nargs == 1 and not plans[0][0]:
            sk = self._slot_or_const(args[0])
            if sk is not None and sk[0] == "s":
                # ``a(i)`` with an integer local subscript — the hottest
                # subscript shape by far: read the slot inline.
                slot = sk[1]

                def index_key1_slot(I, frame, arr):
                    data = arr.data
                    if data.ndim != 1:
                        raise FortranRuntimeError(
                            f"rank mismatch: 1 subscripts for "
                            f"rank-{data.ndim} array"
                        )
                    idx_val = frame.values[slot]
                    lb = arr.lbounds[0]
                    if type(idx_val) is int:
                        j = idx_val - lb
                    elif isinstance(idx_val, (FArray, np.ndarray)):
                        # Vector subscript (gather).
                        raw = (idx_val.data if isinstance(idx_val, FArray)
                               else idx_val)
                        return ((raw.astype(np.int64) - lb,),
                                int(raw.size), True)
                    else:
                        j = int(idx_val) - lb
                    extent = data.shape[0]
                    if j < 0 or j >= extent:
                        raise FortranRuntimeError(
                            f"index {int(idx_val)} out of bounds "
                            f"[{lb}:{lb + extent - 1}]"
                        )
                    return (j,), 1, False
                return index_key1_slot
            idx_ev = plans[0][1]

            def index_key1(I, frame, arr):
                data = arr.data
                if data.ndim != 1:
                    raise FortranRuntimeError(
                        f"rank mismatch: 1 subscripts for rank-{data.ndim} "
                        "array"
                    )
                idx_val = idx_ev(I, frame)
                lb = arr.lbounds[0]
                if type(idx_val) is int:
                    j = idx_val - lb
                elif isinstance(idx_val, (FArray, np.ndarray)):
                    # Vector subscript (gather).
                    raw = (idx_val.data if isinstance(idx_val, FArray)
                           else idx_val)
                    return ((raw.astype(np.int64) - lb,), int(raw.size), True)
                else:
                    j = int(idx_val) - lb
                extent = data.shape[0]
                if j < 0 or j >= extent:
                    raise FortranRuntimeError(
                        f"index {int(idx_val)} out of bounds "
                        f"[{lb}:{lb + extent - 1}]"
                    )
                return (j,), 1, False
            return index_key1

        def index_key(I, frame, arr):
            if nargs != arr.data.ndim:
                raise FortranRuntimeError(
                    f"rank mismatch: {nargs} subscripts for "
                    f"rank-{arr.data.ndim} array"
                )
            key: list[Any] = []
            is_section = False
            n_elements = 1
            for (is_range, a, b, c), lb, extent in zip(plans, arr.lbounds,
                                                       arr.data.shape):
                if is_range:
                    is_section = True
                    lo = int(a(I, frame)) - lb if a is not None else 0
                    hi = (int(b(I, frame)) - lb + 1 if b is not None
                          else extent)
                    step = int(c(I, frame)) if c is not None else 1
                    if lo < 0 or hi > extent:
                        raise FortranRuntimeError(
                            f"section [{lo + lb}:{hi + lb - 1}] out of "
                            f"bounds [{lb}:{lb + extent - 1}]"
                        )
                    count = max(0, (hi - lo + (step - 1)) // step)
                    n_elements *= count
                    key.append(slice(lo, hi, step))
                else:
                    idx_val = a(I, frame)
                    if isinstance(idx_val, (FArray, np.ndarray)):
                        # Vector subscript (gather).
                        raw = (idx_val.data if isinstance(idx_val, FArray)
                               else idx_val)
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
        return index_key

    # -- calls -----------------------------------------------------------

    def _compile_apply(self, e: F.Apply):
        name = e.name
        sym, mod = self.names.lookup(name)
        fallback = self._compile_apply_fallback(e)
        if sym is None:
            # Not a declared symbol: the only runtime values under this
            # name are undeclared do-loop scalars, which the reference
            # interpreter also falls through to procedure/intrinsic
            # lookup for.
            return fallback
        fetch = None if mod is None else self._fetch(name)
        index_key = self._compile_index_key(e.args)
        load_keys = self._keys("load")

        def ev(I, frame):
            if fetch is None:
                val = frame.values[name]
            else:
                val = fetch(I, frame)
            if type(val) is FArray:
                key, n, is_section = index_key(I, frame, val)
                ak = val.kind
                data = val.data
                if ak is not None and I._suppress_loads == 0:
                    led = I.ledger
                    led.ops[load_keys[ak][I._cur_vec or is_section]] += n
                    led.total_ops += n
                if is_section:
                    view = data[key]
                    return FArray(view, (1,) * view.ndim, ak)
                try:
                    out = data[key]
                except IndexError:
                    raise FortranRuntimeError(
                        f"index {key} out of bounds for shape {data.shape}"
                    ) from None
                if ak is not None:
                    return out
                if data.dtype == np.bool_:
                    return bool(out)
                return int(out)
            if val is None:
                raise FortranRuntimeError(
                    f"use of unallocated array {name!r}"
                )
            return fallback(I, frame)
        return ev

    def _compile_apply_fallback(self, e: F.Apply):
        """Procedure-or-intrinsic lookup for an Apply that is not an
        array reference (steps 2-3 of ``_eval_apply``)."""
        name = e.name
        pscope = self.index.find_procedure(name)
        if pscope is not None and isinstance(pscope.node, F.Function):
            if any(type(a) is F.KeywordArg for a in e.args):
                return _walker_expr(e)
            return self._compile_invoke(pscope, e.args)
        intr = INTRINSICS.get(name)
        if intr is not None:
            return self._compile_intrinsic(intr, e)
        return _raiser(FortranRuntimeError,
                       f"unknown function or array {name!r}")

    def _compile_invoke(self, pscope, args: list[F.Expr]):
        """Compiled user-procedure call: evaluates actual-argument
        references and delegates to the (inherited, tree) ``_invoke``
        for binding, execution and write-back."""
        proc = pscope.node
        qual = pscope.name
        scope = self.scope
        if len(args) != len(proc.args):
            return _raiser(
                FortranRuntimeError,
                f"{proc.name} expects {len(proc.args)} arguments, "
                f"got {len(args)}")
        refs = [self._compile_ref(a) for a in args]

        def ev(I, frame):
            actuals = [r(I, frame) for r in refs]
            return I._invoke(qual, proc, actuals, caller_scope=scope,
                             vec_ctx=I._cur_vec)
        return ev

    def _compile_intrinsic(self, intr, e: F.Apply):
        steps = []
        for a in e.args:
            if isinstance(a, F.KeywordArg):
                steps.append((a.name, self.expr(a.value)))
            else:
                steps.append((None, self.expr(a)))
        suppress = intr.opclass == "none"
        fn = intr.fn
        op_keys = None if suppress else self._keys(intr.opclass)

        if not suppress and all(kwn is None for kwn, _ in steps):
            # Positional-only charged intrinsic — the hot shape (sin,
            # sqrt, min, abs...).
            evs = tuple(c for _, c in steps)
            ufunc = getattr(fn, "ufunc", None)
            t = (self._expect(e.args[0])
                 if ufunc is not None and len(evs) == 1 else None)
            if t is np.float32 or t is np.float64:
                # An elementwise intrinsic of a real scalar keeps its
                # argument's type: one charge at that kind.
                keys = op_keys[_KIND_OF_TYPE[t]]
                arg_ev = evs[0]

                def ev_real(I, frame):
                    a = arg_ev(I, frame)
                    if type(a) is t:
                        out = ufunc(a)
                        led = I.ledger
                        led.ops[keys[I._cur_vec]] += 1
                        led.total_ops += 1
                        return out
                    return _intrinsic(I, fn, op_keys, [a])
                return ev_real
            return lambda I, frame: _intrinsic(
                I, fn, op_keys, [c(I, frame) for c in evs])

        def ev(I, frame):
            args: list[Any] = []
            kwargs: dict[str, Any] = {}
            if suppress:
                I._suppress_loads += 1
            try:
                for kwn, c in steps:
                    if kwn is None:
                        args.append(c(I, frame))
                    else:
                        kwargs[kwn] = c(I, frame)
            finally:
                if suppress:
                    I._suppress_loads -= 1
            if suppress:
                return fn(*args, **kwargs)
            return _intrinsic(I, fn, op_keys, args, kwargs)
        return ev

    # -- argument references (value, setter) -----------------------------

    def _compile_ref(self, e: F.Expr):
        """Compiled ``_eval_ref``: ``(I, frame) -> (value, setter)``."""
        if type(e) is F.ComponentRef or (
                type(e) is F.Name and not self._declared(e.name)):
            return _walker_ref(e)
        if isinstance(e, F.Name):
            name = e.name
            mod = self.names.lookup(name)[1]
            if mod is None:
                def rf(I, frame):
                    vals = frame.values
                    val = vals[name]

                    def set_name(new):
                        cur = vals[name]
                        if isinstance(cur, FArray) and isinstance(new, FArray):
                            cur.data[...] = new.data.astype(cur.data.dtype)
                        else:
                            vals[name] = new
                    return val, set_name
                return rf

            def rf(I, frame):
                vals = I._module_frames[mod].values
                val = vals[name]

                def set_name(new):
                    cur = vals[name]
                    if isinstance(cur, FArray) and isinstance(new, FArray):
                        cur.data[...] = new.data.astype(cur.data.dtype)
                    else:
                        vals[name] = new
                return val, set_name
            return rf
        if isinstance(e, F.Apply):
            apply_ev = self._compile_apply(e)
            if not self._declared(e.name):
                return lambda I, frame: (apply_ev(I, frame), None)
            fetch = self._fetch(e.name)
            index_key = self._compile_index_key(e.args)
            load_keys = self._keys("load")

            def rf(I, frame):
                container = fetch(I, frame)
                if isinstance(container, FArray):
                    key, n, is_section = index_key(I, frame, container)
                    if is_section:
                        view = container.data[key]
                        val = FArray(view, (1,) * view.ndim, container.kind)

                        def set_section(new):
                            raw = (new.data if isinstance(new, FArray)
                                   else new)
                            container.data[key] = raw
                        return val, set_section
                    val = container.data[key]

                    def set_element(new):
                        container.data[key] = new

                    if (container.kind is not None
                            and I._suppress_loads == 0):
                        led = I.ledger
                        led.ops[load_keys[container.kind][I._cur_vec]] += 1
                        led.total_ops += 1
                    return val, set_element
                return apply_ev(I, frame), None
            return rf
        ev = self.expr(e)
        return lambda I, frame: (ev(I, frame), None)

    # -- statements ------------------------------------------------------

    def block(self, stmts: list[F.Stmt]):
        """Compiled ``_exec_block``: budget tick + statement sequence."""
        steps = [self.stmt(s) for s in stmts]
        if len(steps) == 1:
            step = steps[0]

            def run1(I, frame):
                I._stmt_tick += 1
                if I._stmt_tick >= _BUDGET_CHECK_INTERVAL:
                    I._stmt_tick = 0
                    if (I.max_ops is not None
                            and I.ledger.total_ops > I.max_ops):
                        raise InterpreterLimitError(
                            f"operation budget exceeded "
                            f"({I.ledger.total_ops} > {I.max_ops})"
                        )
                step(I, frame)
            return run1

        def run(I, frame):
            for step in steps:
                I._stmt_tick += 1
                if I._stmt_tick >= _BUDGET_CHECK_INTERVAL:
                    I._stmt_tick = 0
                    if (I.max_ops is not None
                            and I.ledger.total_ops > I.max_ops):
                        raise InterpreterLimitError(
                            f"operation budget exceeded "
                            f"({I.ledger.total_ops} > {I.max_ops})"
                        )
                step(I, frame)
        return run

    def stmt(self, s: F.Stmt):
        t = type(s)
        if t is F.Assignment:
            return self._compile_assignment(s)
        if t is F.CallStmt:
            return self._compile_call_stmt(s)
        if t is F.IfBlock:
            return self._compile_if(s)
        if t is F.DoLoop:
            return self._compile_do(s)
        if t is F.DoWhile:
            return self._compile_do_while(s)
        if t is F.ExitStmt:
            return _raiser(_ExitLoop, "")
        if t is F.StopStmt:
            return self._compile_stop(s)
        return _walker_stmt(s)

    def _compile_assignment(self, s: F.Assignment):
        target = s.target
        if type(target) not in (F.Name, F.Apply) or not self._declared(
                target.name):
            # A derived-type component or an undeclared name.
            return _walker_stmt(s)
        sid = id(s)
        static_vec = self.stmt_flags.get(sid, False)
        rhs_lit = isinstance(s.value, (F.RealLit, F.IntLit))
        value_ev = self.expr(s.value)
        assign = self._compile_assign_target(target, s.value)

        def ex(I, frame):
            prev = I._cur_vec
            prev_id = I._cur_stmt_id
            prev_lit = I._rhs_literal
            if sid in I._devec_stmts:
                I._cur_vec = False
            else:
                I._cur_vec = static_vec or frame.vec_inherit
            I._cur_stmt_id = sid
            I._rhs_literal = rhs_lit
            try:
                assign(I, frame, value_ev(I, frame))
            finally:
                I._cur_vec = prev
                I._cur_stmt_id = prev_id
                I._rhs_literal = prev_lit
        return ex

    def _compile_assign_target(self, target: F.Expr, rhs: F.Expr):
        """Compiled ``_assign`` to a declared name or element:
        ``(I, frame, value) -> None``."""
        store_keys = self._keys("store")
        convert_keys = self._keys("convert")
        if type(target) is F.Name:
            name = target.name
            sym, mod = self.names.lookup(name)
            slot_fn = (None if mod is None else
                       lambda I, frame: I._module_frames[mod].values)
            st = (_SCALAR_CTOR.get(effective_kind(sym, self.overlay))
                  if sym.type_ == "real" and not sym.is_array else None)
            if st is None:
                def assign(I, frame, value):
                    _store(I, store_keys, convert_keys,
                           frame.values if slot_fn is None
                           else slot_fn(I, frame), name, value)
                return assign
            # A declared real scalar: the stored value's expected type
            # fixes the charges (a literal converts for free).
            vt = self._expect(rhs) or st
            kd = _KIND_OF_TYPE[st]
            keys = store_keys[kd]
            conv = None
            if vt is not st and vt is not int and not isinstance(
                    rhs, (F.RealLit, F.IntLit)):
                conv = convert_keys[kd]
            cast = (None if vt is st else st if vt is not int
                    else lambda v: st(float(v)))

            def assign(I, frame, value):
                slot = frame.values if slot_fn is None else slot_fn(I, frame)
                if type(value) is vt and type(slot[name]) is st:
                    led = I.ledger
                    vec = I._cur_vec
                    if conv is not None:
                        led.ops[conv[vec]] += 1
                        led.total_ops += 1
                    led.ops[keys[vec]] += 1
                    led.total_ops += 1
                    slot[name] = value if cast is None else cast(value)
                else:
                    _store(I, store_keys, convert_keys, slot, name, value)
            return assign
        name = target.name
        fetch = (None if self.names.lookup(name)[1] is None
                 else self._fetch(name))
        index_key = self._compile_index_key(target.args)

        def assign(I, frame, value):
            container = (frame.values[name] if fetch is None
                         else fetch(I, frame))
            if not isinstance(container, FArray):
                raise FortranRuntimeError(
                    f"subscripted assignment to non-array {name!r}"
                )
            key, n, is_section = index_key(I, frame, container)
            _assign_indexed(I, store_keys, convert_keys, container,
                            key, n, is_section, value)
        return assign

    def _compile_call_stmt(self, s: F.CallStmt):
        if any(type(a) is F.KeywordArg for a in s.args):
            return _walker_stmt(s)
        sid = id(s)
        vec = self._vec_closure(s)
        if s.name in _BUILTIN_SUBS:
            arg_evs = [self.expr(a) for a in s.args]

            def ex(I, frame):
                prev = I._cur_vec
                prev_id = I._cur_stmt_id
                I._cur_vec = vec(I, frame)
                I._cur_stmt_id = sid
                try:
                    args = [ev(I, frame) for ev in arg_evs]
                    if not args:
                        raise FortranRuntimeError(
                            "mpi_allreduce_* needs an argument")
                    I.ledger.add_allreduce(frame.scope,
                                           element_count(args[0]))
                finally:
                    I._cur_vec = prev
                    I._cur_stmt_id = prev_id
            return ex
        pscope = self.index.find_procedure(s.name)
        if pscope is None:
            return _raiser(FortranRuntimeError,
                           f"call to undefined subroutine {s.name!r}")
        invoke = self._compile_invoke(pscope, s.args)

        def ex(I, frame):
            prev = I._cur_vec
            prev_id = I._cur_stmt_id
            I._cur_vec = vec(I, frame)
            I._cur_stmt_id = sid
            try:
                invoke(I, frame)
            finally:
                I._cur_vec = prev
                I._cur_stmt_id = prev_id
        return ex

    def _compile_if(self, s: F.IfBlock):
        vec = self._vec_closure(s)
        arms = []
        for arm in s.arms:
            cond_ev = self.expr(arm.cond) if arm.cond is not None else None
            arms.append((cond_ev, self.block(arm.body)))

        def ex(I, frame):
            for cond_ev, body in arms:
                if cond_ev is None:
                    body(I, frame)
                    return
                prev = I._cur_vec
                I._cur_vec = vec(I, frame)
                try:
                    cond = cond_ev(I, frame)
                finally:
                    I._cur_vec = prev
                if _truth(cond):
                    body(I, frame)
                    return
        return ex

    def _compile_do(self, s: F.DoLoop):
        start_ev = self.expr(s.start)
        stop_ev = self.expr(s.stop)
        step_ev = self.expr(s.step) if s.step is not None else None
        var = s.var
        mod = self.names.lookup(var)[1]
        body = self.block(s.body)

        def ex(I, frame):
            start = int(start_ev(I, frame))
            stop = int(stop_ev(I, frame))
            step = int(step_ev(I, frame)) if step_ev is not None else 1
            if step == 0:
                raise FortranRuntimeError("do-loop step is zero")
            if mod is not None:
                slot = I._module_frames[mod].values
            else:
                # Locals and undeclared loop scalars both live (and,
                # for undeclared names, appear) in ``frame.values``.
                slot = frame.values
            i = start
            if step > 0:
                while i <= stop:
                    slot[var] = i
                    try:
                        body(I, frame)
                    except _CycleLoop:
                        pass
                    except _ExitLoop:
                        break
                    i += step
            else:
                while i >= stop:
                    slot[var] = i
                    try:
                        body(I, frame)
                    except _CycleLoop:
                        pass
                    except _ExitLoop:
                        break
                    i += step
        return ex

    def _compile_do_while(self, s: F.DoWhile):
        cond_ev = self.expr(s.cond)
        body = self.block(s.body)

        def ex(I, frame):
            while True:
                prev = I._cur_vec
                I._cur_vec = False
                try:
                    cond = cond_ev(I, frame)
                finally:
                    I._cur_vec = prev
                if not _truth(cond):
                    return
                try:
                    body(I, frame)
                except _CycleLoop:
                    continue
                except _ExitLoop:
                    return
        return ex

    def _compile_stop(self, s: F.StopStmt):
        code_ev = self.expr(s.code) if s.code is not None else None
        is_error = s.is_error
        message = s.message or ""

        def ex(I, frame):
            code = int(code_ev(I, frame)) if code_ev is not None else 0
            if is_error or code != 0:
                raise FortranStopError(message, code=code or 1)
            raise _ReturnSignal()  # plain STOP in a driver: quiet halt
        return ex


# ---------------------------------------------------------------------------
# The compiled interpreter
# ---------------------------------------------------------------------------


class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` running closure-compiled bodies.

    Only procedure-body execution is replaced; call binding, write-back,
    local/module elaboration and the public API (``run_main``/``call``)
    are inherited, so boundary semantics are the reference
    implementation's by construction.
    """

    def __init__(
        self,
        index: ProgramIndex,
        overlay: Optional[dict[str, int]] = None,
        vec_info=None,
        ledger=None,
        max_ops: Optional[int] = None,
        code_cache: Optional[CodeCache] = None,
    ):
        super().__init__(index, overlay=overlay, vec_info=vec_info,
                         ledger=ledger, max_ops=max_ops)
        self._code_cache = code_cache if code_cache is not None else CODE_CACHE
        self._code: dict[str, Callable[[Any, Frame], None]] = {}
        self._chain_memo: dict[str, list[dict]] = {}

    def _make_frame(self, scope_name: str, scope_info,
                    vec_inherit: bool) -> Frame:
        chain = self._chain_memo.get(scope_name)
        if chain is None:
            # First build may elaborate module frames (charging their
            # init ops exactly once, as the tree walker does); the
            # chained dicts are stable afterwards.
            frame = super()._make_frame(scope_name, scope_info, vec_inherit)
            self._chain_memo[scope_name] = frame.chain[1:]
            return frame
        return Frame(scope_name, chain, vec_inherit=vec_inherit)

    def _stmt_vec(self, stmt: F.Stmt, frame: Frame) -> bool:
        """The walker's rule for a statement left to its handlers, read
        from the flags the running body was lowered with: a cached body
        may hold the nodes of another parse of the same source, whose
        ids this interpreter's ``vec_info`` does not know."""
        if id(stmt) in self._devec_stmts:
            return False
        flags = self._code[frame.scope].stmt_flags
        return flags.get(id(stmt), False) or frame.vec_inherit

    def _run_body(self, proc: F.ProcedureUnit, frame: Frame) -> None:
        body = self._code.get(frame.scope)
        if body is None:
            body = self._code_cache.code_for(self.index, self.vec_info,
                                             self.overlay, frame.scope)
            self._code[frame.scope] = body
        try:
            body(self, frame)
        except _ReturnSignal:
            pass
