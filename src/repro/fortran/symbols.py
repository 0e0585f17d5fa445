"""Symbol tables and semantic analysis for the Fortran subset.

:func:`analyze` walks a parsed :class:`~repro.fortran.ast_nodes.SourceFile`
and produces a :class:`ProgramIndex`:

* one :class:`ScopeInfo` per module and per procedure (including internal
  procedures hosted in a ``contains`` block),
* a :class:`Symbol` per declared entity with its *resolved* kind (named
  kind constants such as ``integer, parameter :: r8 = 8`` are folded),
* the set of floating-point variable symbols — the **search atoms** of
  precision tuning (paper Section III-A).

Scoping model: a procedure scope sees its own declarations, then its host
(module or containing procedure) declarations, then declarations of
``use``-d modules in the same source file.  This matches the subset of
Fortran semantics the miniatures rely on.

It is also the one home of the scoping rules the execution engines (the
tree walker, the compiled closures and the batched lanes) must agree on
for their results to stay bit-identical: the order in which a frame
chains module frames (:func:`chain_modules`), where a name lives and
which symbol declares it, and what the declarations fix about an
expression's type (:class:`ScopeNames`), and a symbol's kind under a
precision overlay (:func:`effective_kind`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..errors import FortranRuntimeError, SemanticError
from . import ast_nodes as F

__all__ = [
    "Symbol", "ScopeInfo", "ProgramIndex", "analyze", "qualified_name",
    "KIND_SINGLE", "KIND_DOUBLE", "ScopeNames", "chain_modules",
    "effective_kind", "int_pow",
]

KIND_SINGLE = 4
KIND_DOUBLE = 8


@dataclass
class Symbol:
    """One declared entity (variable, named constant, or dummy argument)."""

    name: str
    type_: str                      # real | integer | logical | character | derived
    kind: Optional[int]             # resolved kind for real/integer
    dims: Optional[list[F.ArrayDim]]
    is_parameter: bool = False
    is_argument: bool = False
    is_allocatable: bool = False
    intent: Optional[str] = None
    init: Optional[F.Expr] = None
    derived_name: Optional[str] = None
    scope: str = ""                 # qualified scope name
    decl: Optional[F.TypeDecl] = None
    entity: Optional[F.EntityDecl] = None

    @property
    def is_real(self) -> bool:
        return self.type_ == "real"

    @property
    def is_array(self) -> bool:
        return self.dims is not None

    @property
    def qualified(self) -> str:
        return f"{self.scope}::{self.name}" if self.scope else self.name

    @property
    def rank(self) -> int:
        return len(self.dims) if self.dims else 0


@dataclass
class ScopeInfo:
    """Symbols and metadata for one module or procedure scope."""

    name: str                       # qualified: "mod" or "mod::proc"
    node: F.Node = None             # type: ignore[assignment]
    parent: Optional["ScopeInfo"] = None
    symbols: dict[str, Symbol] = field(default_factory=dict)
    uses: list[str] = field(default_factory=list)  # used module names
    is_procedure: bool = False

    def lookup(self, name: str) -> Optional[Symbol]:
        """Local lookup only (no host/use association)."""
        return self.symbols.get(name)


@dataclass
class ProgramIndex:
    """Semantic index over one parsed source file."""

    source: F.SourceFile = None     # type: ignore[assignment]
    scopes: dict[str, ScopeInfo] = field(default_factory=dict)
    modules: dict[str, ScopeInfo] = field(default_factory=dict)
    procedures: dict[str, ScopeInfo] = field(default_factory=dict)
    # Derived-type definitions by lower-case name.
    type_defs: dict[str, F.TypeDef] = field(default_factory=dict)
    # Map from bare procedure name to qualified scope names defining it.
    proc_by_name: dict[str, list[str]] = field(default_factory=dict)

    # -- resolution ---------------------------------------------------------

    def resolve(self, scope: str, name: str) -> Optional[Symbol]:
        """Resolve *name* from *scope* via local → host → use association."""
        info = self.scopes.get(scope)
        seen_modules: set[str] = set()
        while info is not None:
            sym = info.lookup(name)
            if sym is not None:
                return sym
            for mod in info.uses:
                seen_modules.add(mod)
            info = info.parent
        for mod in seen_modules:
            minfo = self.modules.get(mod)
            if minfo is not None:
                sym = minfo.lookup(name)
                if sym is not None:
                    return sym
        # Fall back: search all modules (single-file programs in this repo
        # always have unambiguous module-level names).
        for minfo in self.modules.values():
            sym = minfo.lookup(name)
            if sym is not None:
                return sym
        return None

    def find_procedure(self, name: str) -> Optional[ScopeInfo]:
        quals = self.proc_by_name.get(name)
        if not quals:
            return None
        return self.procedures[quals[0]]

    # -- atoms ---------------------------------------------------------------

    def fp_symbols(self, scope_filter: Optional[set[str]] = None) -> Iterator[Symbol]:
        """Yield every non-parameter real symbol — the tuning search atoms.

        Named real constants (``parameter``) are excluded: Precimonious-style
        tools tune storage declarations, and constants fold away anyway.
        """
        for info in self.scopes.values():
            if scope_filter is not None and info.name not in scope_filter:
                continue
            for sym in info.symbols.values():
                if sym.is_real and not sym.is_parameter:
                    yield sym


def qualified_name(*parts: str) -> str:
    return "::".join(p for p in parts if p)


# ---------------------------------------------------------------------------
# Constant folding for kind expressions and named constants
# ---------------------------------------------------------------------------


def _fold_int(expr: F.Expr, consts: dict[str, int]) -> Optional[int]:
    """Best-effort integer constant folding (kinds, array bounds)."""
    if isinstance(expr, F.IntLit):
        return expr.value
    if isinstance(expr, F.Name):
        return consts.get(expr.name)
    if isinstance(expr, F.UnaryOp):
        val = _fold_int(expr.operand, consts)
        if val is None:
            return None
        return -val if expr.op == "-" else val
    if isinstance(expr, F.BinOp):
        left = _fold_int(expr.left, consts)
        right = _fold_int(expr.right, consts)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left // right if right else None
        if expr.op == "**":
            return int_pow(left, right) if left or right >= 0 else None
    if isinstance(expr, F.Apply):
        # selected_real_kind(p) → 4 for p <= 6 else 8, matching the two
        # precision levels this study considers.
        if expr.name == "selected_real_kind" and expr.args:
            p = _fold_int(expr.args[0], consts)
            if p is not None:
                return KIND_SINGLE if p <= 6 else KIND_DOUBLE
        if expr.name == "kind" and expr.args:
            arg = expr.args[0]
            if isinstance(arg, F.RealLit):
                return arg.kind
            if isinstance(arg, F.IntLit):
                return KIND_SINGLE
    return None


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(self, source: F.SourceFile):
        self.index = ProgramIndex(source=source)
        # Integer named constants per scope chain, for kind folding.
        self._module_consts: dict[str, dict[str, int]] = {}

    def run(self) -> ProgramIndex:
        for unit in self.index.source.units:
            if isinstance(unit, F.Module):
                self._do_module(unit)
            elif isinstance(unit, F.ProcedureUnit):
                self._do_procedure(unit, parent=None, consts={})
            else:
                raise SemanticError(
                    f"unsupported top-level unit {type(unit).__name__}",
                    line=unit.line,
                )
        return self.index

    # -- helpers -------------------------------------------------------------

    def _do_module(self, mod: F.Module) -> None:
        if mod.name in self.index.modules:
            raise SemanticError(f"duplicate module {mod.name!r}", line=mod.line)
        info = ScopeInfo(name=mod.name, node=mod)
        self.index.scopes[info.name] = info
        self.index.modules[mod.name] = info
        consts: dict[str, int] = {}
        self._module_consts[mod.name] = consts
        self._collect_decls(mod.decls, info, consts)
        for proc in mod.procedures:
            self._do_procedure(proc, parent=info, consts=consts)

    def _do_procedure(self, proc: F.ProcedureUnit, parent: Optional[ScopeInfo],
                      consts: dict[str, int]) -> None:
        qual = qualified_name(parent.name if parent else "", proc.name)
        if qual in self.index.procedures:
            raise SemanticError(f"duplicate procedure {qual!r}", line=proc.line)
        info = ScopeInfo(name=qual, node=proc, parent=parent, is_procedure=True)
        self.index.scopes[qual] = info
        self.index.procedures[qual] = info
        self.index.proc_by_name.setdefault(proc.name, []).append(qual)

        local_consts = dict(consts)
        self._collect_decls(proc.decls, info, local_consts)

        # Mark dummy arguments; the function result is also a symbol.
        for arg in proc.args:
            sym = info.symbols.get(arg)
            if sym is None:
                raise SemanticError(
                    f"dummy argument {arg!r} of {proc.name!r} is not declared",
                    line=proc.line,
                )
            sym.is_argument = True
        if isinstance(proc, F.Function):
            res = proc.result
            if res not in info.symbols:
                if proc.prefix_spec is not None:
                    kind = None
                    if proc.prefix_spec.kind is not None:
                        kind = _fold_int(proc.prefix_spec.kind, local_consts)
                    info.symbols[res] = Symbol(
                        name=res, type_=proc.prefix_spec.base,
                        kind=kind if kind is not None else KIND_SINGLE,
                        dims=None, scope=qual,
                        derived_name=proc.prefix_spec.derived_name,
                    )
                else:
                    raise SemanticError(
                        f"result {res!r} of function {proc.name!r} is not declared",
                        line=proc.line,
                    )

        _check_loop_control(proc.body, in_loop=False)
        for inner in proc.contains:
            self._do_procedure(inner, parent=info, consts=local_consts)

    def _collect_decls(self, decls: list[F.Stmt], info: ScopeInfo,
                       consts: dict[str, int]) -> None:
        for stmt in decls:
            if isinstance(stmt, F.UseStmt):
                info.uses.append(stmt.module)
                # Import integer constants of already-analyzed modules so
                # kind names like r8 resolve across module boundaries.
                imported = self._module_consts.get(stmt.module)
                if imported:
                    if stmt.only is None:
                        consts.update(imported)
                    else:
                        for local, use_name in stmt.only:
                            if use_name in imported:
                                consts[local] = imported[use_name]
            elif isinstance(stmt, F.ImplicitNone):
                continue
            elif isinstance(stmt, F.TypeDef):
                self.index.type_defs[stmt.name] = stmt
            elif isinstance(stmt, F.TypeDecl):
                self._collect_type_decl(stmt, info, consts)
            else:
                raise SemanticError(
                    f"unexpected statement in specification part: "
                    f"{type(stmt).__name__}", line=stmt.line,
                )

    def _collect_type_decl(self, stmt: F.TypeDecl, info: ScopeInfo,
                           consts: dict[str, int]) -> None:
        base = stmt.spec.base
        kind: Optional[int] = None
        if base in ("real", "integer"):
            if stmt.spec.kind is not None:
                kind = _fold_int(stmt.spec.kind, consts)
                if kind is None:
                    raise SemanticError(
                        "could not resolve kind expression", line=stmt.line
                    )
            else:
                kind = KIND_SINGLE
        is_param = "parameter" in stmt.attrs
        is_alloc = "allocatable" in stmt.attrs
        for ent in stmt.entities:
            dims = ent.dims if ent.dims is not None else stmt.dims
            if ent.name in info.symbols:
                raise SemanticError(
                    f"duplicate declaration of {ent.name!r} in {info.name!r}",
                    line=stmt.line,
                )
            sym = Symbol(
                name=ent.name, type_="derived" if base == "type" else base,
                kind=kind, dims=dims, is_parameter=is_param,
                is_allocatable=is_alloc, intent=stmt.intent, init=ent.init,
                derived_name=stmt.spec.derived_name, scope=info.name,
                decl=stmt, entity=ent,
            )
            info.symbols[ent.name] = sym
            if is_param and base == "integer" and ent.init is not None:
                val = _fold_int(ent.init, consts)
                if val is not None:
                    consts[ent.name] = val


def _check_loop_control(body: list[F.Stmt], in_loop: bool) -> None:
    """Refuse an ``exit`` or ``cycle`` outside every DO construct of its
    own procedure: such a statement is invalid Fortran, and the engines
    would each let it act on a loop of the caller in their own way."""
    for stmt in body:
        if isinstance(stmt, (F.ExitStmt, F.CycleStmt)) and not in_loop:
            word = "exit" if isinstance(stmt, F.ExitStmt) else "cycle"
            raise SemanticError(f"{word} outside a DO construct",
                                line=stmt.line)
        if isinstance(stmt, (F.DoLoop, F.DoWhile)):
            _check_loop_control(stmt.body, in_loop=True)
        elif isinstance(stmt, (F.IfBlock, F.WhereConstruct)):
            for arm in stmt.arms:
                _check_loop_control(arm.body, in_loop)
        elif isinstance(stmt, F.SelectCase):
            for case in stmt.cases:
                _check_loop_control(case.body, in_loop)


def _check_intrinsic_calls(index: ProgramIndex) -> None:
    """Refuse a call the engines would take for an intrinsic whose
    implementation cannot take its arguments.  NumPy would read an
    elementwise intrinsic's extra argument as its ``out`` buffer and
    overwrite it; any other mismatch would surface only when the call
    runs, as a Python ``TypeError`` rather than a Fortran error."""
    from .intrinsics import INTRINSICS  # intrinsics imports this module

    for info in index.scopes.values():
        names = ScopeNames(index, info)
        node = info.node
        for stmt in (*node.decls, *getattr(node, "body", ())):
            for call in F.walk(stmt):
                if (type(call) is not F.Apply or call.name not in INTRINSICS
                        or names.lookup(call.name)[0] is not None
                        or index.find_procedure(call.name) is not None):
                    continue
                fn = INTRINSICS[call.name].fn
                keywords = [a.name for a in call.args
                            if type(a) is F.KeywordArg]
                n_pos = len(call.args) - len(keywords)
                ufunc = getattr(fn, "ufunc", None)
                try:
                    if ufunc is not None and (keywords or n_pos != ufunc.nin):
                        raise TypeError(f"takes {ufunc.nin} positional "
                                        f"argument(s) and no keyword")
                    inspect.signature(fn).bind(*[None] * n_pos,
                                               **dict.fromkeys(keywords))
                except TypeError as exc:
                    raise SemanticError(
                        f"intrinsic {call.name!r}: {exc}",
                        line=call.line or stmt.line) from None


def analyze(source: F.SourceFile) -> ProgramIndex:
    """Build the semantic index for a parsed source file."""
    index = _Analyzer(source).run()
    _check_intrinsic_calls(index)
    return index


# ---------------------------------------------------------------------------
# Execution scoping: what every engine decides alike
# ---------------------------------------------------------------------------

_CMP_OPS = frozenset({"==", "/=", "<", "<=", ">", ">="})
_LOGICAL_OPS = frozenset({".and.", ".or.", ".eqv.", ".neqv."})
#: Integer arithmetic stays a Python int (``/`` truncates).
_INT_ARITH_OPS = frozenset({"+", "-", "*", "/", "**"})
#: Real arithmetic whose result kind is its operands' join.  ``**`` is
#: left out: the batched engine evaluates it per lane.
_REAL_JOIN_OPS = frozenset({"+", "-", "*", "/"})


def int_pow(l, r):
    """Fortran's integer ``l ** r``, which stays an integer: a negative
    exponent truncates ``1 / l**-r`` toward zero, so only a base of 1
    or -1 survives it.  Arrays and non-integers keep Python's ``**``."""
    if type(l) is not int or type(r) is not int or r >= 0:
        return l ** r
    if l == 0:
        raise FortranRuntimeError("integer division by zero")
    if l == 1 or l == -1:
        return l ** -r
    return 0


def effective_kind(sym: Symbol, overlay: dict[str, int]) -> Optional[int]:
    """*sym*'s kind under a precision *overlay*; only reals are tuned."""
    if sym.type_ != "real":
        return sym.kind
    return overlay.get(sym.qualified, sym.kind)


def chain_modules(index: ProgramIndex, info: ScopeInfo) -> list[str]:
    """The modules whose frames a frame of *info* searches after its own
    values, in order: its host module, the modules it uses, then every
    other module (single-file programs have unambiguous module names)."""
    chain: list[str] = []
    parent = info.parent
    while parent is not None:
        # Host-associated procedure locals are not supported (the
        # miniatures pass data explicitly): module hosts only.
        if not parent.is_procedure:
            chain.append(parent.name)
        parent = parent.parent
    for mod in (*info.uses, *index.modules):
        if mod in index.modules and mod not in chain:
            chain.append(mod)
    return chain


class ScopeNames:
    """Where a frame of one scope finds its names, decided before it runs.

    The tree walker looks each name up at run time along the frame's
    chain (its own values, then the frames of :func:`chain_modules`);
    the compiled and batched lowerers resolve here, once, where that
    walk ends, and read that dict directly.  With no *info* every name
    is left to the walk, for expressions evaluated while a frame is
    still being elaborated.
    """

    __slots__ = ("index", "symbols", "modules")

    def __init__(self, index: ProgramIndex, info: Optional[ScopeInfo]):
        self.index = index
        self.symbols = info.symbols if info is not None else {}
        self.modules = chain_modules(index, info) if info is not None else []

    def lookup(self, name: str) -> tuple[Optional[Symbol], Optional[str]]:
        """``(declared symbol, module)`` for *name*, module None for a
        local.  ``(None, None)`` leaves *name* to the chain walk: an
        undeclared loop index (stored in the frame's own values), or a
        procedure or intrinsic name."""
        sym = self.symbols.get(name)
        if sym is not None:
            return sym, None
        for mod in self.modules:
            sym = self.index.modules[mod].symbols.get(name)
            if sym is not None:
                return sym, mod
        return None, None

    def static_type(self, e: F.Expr) -> Union[str, tuple, None]:
        """What the declarations fix about *e*'s value: ``"int"`` or
        ``"bool"`` for a Python int or bool scalar (integer and logical
        kinds are never tuned, so these carry no kind and no charge), a
        tuple of the real operands whose join fixes its kind (declared
        real :class:`Symbol` s and literal kinds), or None."""
        t = type(e)
        if t is F.IntLit:
            return "int"
        if t is F.LogicalLit:
            return "bool"
        if t is F.RealLit:
            return (e.kind,)
        if t is F.Name or t is F.Apply:
            sym = self.lookup(e.name)[0]
            if sym is None:
                return None
            if sym.type_ == "real":
                # A real name, or an element (not a section) of a real
                # array.
                if t is F.Name or (sym.is_array and not any(
                        isinstance(a, F.RangeExpr) for a in e.args)):
                    return (sym,)
                return None
            if t is F.Apply or sym.is_array:
                return None
            return {"integer": "int", "logical": "bool"}.get(sym.type_)
        if t is F.UnaryOp:
            inner = self.static_type(e.operand)
            if e.op == ".not.":
                return "bool" if inner in ("int", "bool") else None
            if inner == "int" or (e.op == "-" and type(inner) is tuple):
                return inner
            return None
        if t is F.BinOp:
            lt = self.static_type(e.left)
            rt = self.static_type(e.right)
            if type(lt) is tuple and type(rt) is tuple:
                return lt + rt if e.op in _REAL_JOIN_OPS else None
            if lt not in ("int", "bool") or rt not in ("int", "bool"):
                return None
            if e.op in _CMP_OPS or e.op in _LOGICAL_OPS:
                return "bool"
            if lt == "int" and rt == "int" and e.op in _INT_ARITH_OPS:
                return "int"
        return None
