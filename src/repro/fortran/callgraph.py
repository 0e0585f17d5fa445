"""Call graph and precision-flow graph construction (paper Section III-C).

Two graphs are built from the semantic index:

* the **call graph**: procedures as nodes, call sites as edges, with the
  static count of textual call sites per edge (dynamic counts come from
  the interpreter's ledger);
* the **precision-flow graph**: the paper's graph "whose nodes are FP
  variables annotated with their precisions and whose edges represent
  instances of parameter-passing".  After applying a precision
  assignment, the wrapper generator restores the invariant that adjacent
  nodes have matching annotations by inserting Fig.-4 wrappers, and the
  static screening cost model penalizes edges whose endpoint kinds
  differ, weighted by call count and array element count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import networkx as nx

from . import ast_nodes as F
from .kinds import infer_kind
from .symbols import ProgramIndex, Symbol

__all__ = ["CallSite", "ArgBinding", "CallGraphs", "build_graphs"]


@dataclass(frozen=True)
class ArgBinding:
    """One actual→dummy binding at a call site."""

    actual_qualified: Optional[str]  # qualified var name, or None for exprs
    actual_kind: Optional[int]       # statically inferred kind of the actual
    dummy_qualified: str
    dummy_kind: Optional[int]
    elements_hint: int               # 1 for scalars; static array size if known


@dataclass
class CallSite:
    caller: str                      # qualified caller scope
    callee: str                      # qualified callee scope
    node: F.Node                     # CallStmt or Apply
    line: int
    bindings: list[ArgBinding] = field(default_factory=list)

    def mismatched(self, overlay: Optional[dict[str, int]] = None) -> list[ArgBinding]:
        """Bindings whose actual/dummy kinds differ under *overlay*."""
        out = []
        for b in self.bindings:
            ak, dk = b.actual_kind, b.dummy_kind
            if overlay is not None:
                if b.actual_qualified is not None:
                    ak = overlay.get(b.actual_qualified, ak)
                if b.dummy_qualified is not None:
                    dk = overlay.get(b.dummy_qualified, dk)
            if ak is not None and dk is not None and ak != dk:
                out.append(b)
        return out


@dataclass
class CallGraphs:
    """Bundle of the call graph, precision-flow graph, and call sites."""

    call_graph: nx.MultiDiGraph
    flow_graph: nx.Graph
    sites: list[CallSite]

    def sites_for_callee(self, callee: str) -> list[CallSite]:
        return [s for s in self.sites if s.callee == callee]


def _static_array_size(sym: Symbol, index: ProgramIndex) -> int:
    """Best-effort static element count for penalty weighting."""
    if sym.dims is None:
        return 1
    from .symbols import _fold_int  # reuse the module's constant folder
    total = 1
    consts: dict[str, int] = {}
    # Gather integer parameters visible from the symbol's scope.
    scope = index.scopes.get(sym.scope)
    while scope is not None:
        for s in scope.symbols.values():
            if s.is_parameter and s.type_ == "integer" and s.init is not None:
                val = _fold_int(s.init, consts)
                if val is not None:
                    consts.setdefault(s.name, val)
        scope = scope.parent
    for mod in index.modules.values():
        for s in mod.symbols.values():
            if s.is_parameter and s.type_ == "integer" and s.init is not None:
                val = _fold_int(s.init, consts)
                if val is not None:
                    consts.setdefault(s.name, val)
    for dim in sym.dims:
        if dim.assumed or dim.deferred or dim.upper is None:
            return 64  # unknown extent: assume a moderate array
        hi = _fold_int(dim.upper, consts)
        lo = _fold_int(dim.lower, consts) if dim.lower is not None else 1
        if hi is None or lo is None:
            return 64
        total *= max(1, hi - lo + 1)
    return total


def _collect_call_sites(index: ProgramIndex) -> list[CallSite]:
    sites: list[CallSite] = []
    for qual, scope in index.procedures.items():
        proc = scope.node
        assert isinstance(proc, F.ProcedureUnit)
        for stmt_node in F.walk(proc):
            name: Optional[str] = None
            args: list[F.Expr] = []
            if isinstance(stmt_node, F.CallStmt):
                name, args = stmt_node.name, stmt_node.args
            elif isinstance(stmt_node, F.Apply):
                # Could be an array reference; only keep user procedures.
                if index.find_procedure(stmt_node.name) is None:
                    continue
                sym = index.resolve(qual, stmt_node.name)
                if sym is not None and sym.is_array:
                    continue
                name, args = stmt_node.name, stmt_node.args
            if name is None:
                continue
            callee_scope = index.find_procedure(name)
            if callee_scope is None:
                continue
            callee_proc = callee_scope.node
            assert isinstance(callee_proc, F.ProcedureUnit)
            site = CallSite(caller=qual, callee=callee_scope.name,
                            node=stmt_node, line=stmt_node.line)
            for actual, dummy_name in zip(args, callee_proc.args):
                dummy = callee_scope.symbols.get(dummy_name)
                if dummy is None or dummy.type_ != "real":
                    continue
                actual_qual: Optional[str] = None
                elements = 1
                if isinstance(actual, F.Name):
                    asym = index.resolve(qual, actual.name)
                    if asym is not None and asym.type_ == "real":
                        actual_qual = asym.qualified
                        if asym.is_array:
                            elements = _static_array_size(asym, index)
                elif isinstance(actual, F.Apply):
                    asym = index.resolve(qual, actual.name)
                    if asym is not None and asym.is_array and asym.type_ == "real":
                        actual_qual = asym.qualified
                        if any(isinstance(a, F.RangeExpr) for a in actual.args):
                            elements = max(
                                1, _static_array_size(asym, index) // 2
                            )
                site.bindings.append(ArgBinding(
                    actual_qualified=actual_qual,
                    actual_kind=infer_kind(actual, index, qual),
                    dummy_qualified=dummy.qualified,
                    dummy_kind=dummy.kind,
                    elements_hint=(
                        elements if not dummy.is_array
                        else max(elements, _static_array_size(dummy, index))
                    ),
                ))
            sites.append(site)
    return sites


def build_graphs(index: ProgramIndex) -> CallGraphs:
    """Build the call graph and precision-flow graph for a program."""
    sites = _collect_call_sites(index)

    cg = nx.MultiDiGraph()
    for qual in index.procedures:
        cg.add_node(qual)
    for site in sites:
        cg.add_edge(site.caller, site.callee, line=site.line)

    fg = nx.Graph()
    for sym in index.fp_symbols():
        fg.add_node(sym.qualified, kind=sym.kind,
                    is_array=sym.is_array, scope=sym.scope)
    for site in sites:
        for b in site.bindings:
            if b.actual_qualified is None:
                continue
            if not fg.has_node(b.actual_qualified):
                fg.add_node(b.actual_qualified, kind=b.actual_kind,
                            is_array=False, scope=site.caller)
            if not fg.has_node(b.dummy_qualified):
                fg.add_node(b.dummy_qualified, kind=b.dummy_kind,
                            is_array=False, scope=site.callee)
            if fg.has_edge(b.actual_qualified, b.dummy_qualified):
                fg[b.actual_qualified][b.dummy_qualified]["count"] += 1
                fg[b.actual_qualified][b.dummy_qualified]["elements"] = max(
                    fg[b.actual_qualified][b.dummy_qualified]["elements"],
                    b.elements_hint,
                )
            else:
                fg.add_edge(b.actual_qualified, b.dummy_qualified,
                            count=1, elements=b.elements_hint,
                            caller=site.caller, callee=site.callee)
    return CallGraphs(call_graph=cg, flow_graph=fg, sites=sites)
