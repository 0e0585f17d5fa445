"""Static loop-vectorization analysis.

Stands in for the compiler's auto-vectorizer and its optimization report
(``-qopt-report`` / ``-fopt-info-vec``), which the paper's Lessons
Learned recommend consulting both when *selecting* hotspots (criterion 1:
"source code that supports compiler auto-vectorization") and when
*statically filtering* mixed-precision variants.

The analysis classifies every executable statement of every procedure as
executing in a vectorizable context or not, and explains each innermost
loop's verdict in a compiler-style report.  The interpreter attaches these
flags to its operation counts; the machine model prices vector and scalar
operations differently, which is where reduced precision's 2x vector
throughput (or the lack of it, for ADCIRC's ``peror``/``pjac``) comes
from.

Rules (deliberately close to what production compilers do):

* only *innermost* counted ``do`` loops are candidates (outer loops and
  ``do while`` loops are scalar);
* a call to any user procedure that is not inlinable disqualifies the
  loop; calls to inlinable procedures are allowed but flagged, because a
  precision mismatch at the call interface at run time forces an
  out-of-line wrapper and re-disqualifies the loop (handled dynamically
  by the interpreter);
* a loop-carried dependency disqualifies: an array written at one
  loop-var subscript and read at a *different* loop-var subscript
  (e.g. ``x(i) = x(i-1) + ...``, the recurrence in ADCIRC's ``pjac``);
* scalar reductions (``s = s + expr``) are allowed (compilers vectorize
  reductions under fast-math, which HPC builds enable);
* an indirectly indexed *store* (``y(idx(i)) = ...``) disqualifies
  (scatter); indirect loads (gather) are permitted but reported;
* whole-array assignments are vectorizable wherever they appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as F
from .symbols import ProgramIndex

__all__ = [
    "LoopVerdict", "ProcVecInfo", "ProgramVecInfo",
    "analyze_procedure", "analyze_program", "INLINE_STMT_LIMIT",
]

# Procedures with at most this many executable statements are considered
# inlinable by the modeled compiler (matches small flux-style kernels).
INLINE_STMT_LIMIT = 16


@dataclass
class LoopVerdict:
    """One innermost loop's vectorization analysis, report-style."""

    line: int
    vectorizable: bool
    reasons: list[str] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)
    has_gather: bool = False

    def render(self) -> str:
        status = "VECTORIZED" if self.vectorizable else "NOT VECTORIZED"
        msg = f"loop at line {self.line}: {status}"
        if self.reasons:
            msg += " (" + "; ".join(self.reasons) + ")"
        return msg


@dataclass
class ProcVecInfo:
    """Per-procedure analysis results."""

    name: str
    # id(stmt) -> True if the statement executes in a vectorizable context.
    stmt_vec: dict[int, bool] = field(default_factory=dict)
    # id(stmt) -> names of user procedures referenced by the statement.
    stmt_calls: dict[int, list[str]] = field(default_factory=dict)
    loops: list[LoopVerdict] = field(default_factory=list)
    n_statements: int = 0

    def report(self) -> str:
        lines = [f"procedure {self.name}:"]
        if not self.loops:
            lines.append("  no innermost loops")
        for verdict in self.loops:
            lines.append("  " + verdict.render())
        return "\n".join(lines)


@dataclass
class ProgramVecInfo:
    """Whole-program analysis: per-procedure info plus inlinability."""

    procs: dict[str, ProcVecInfo] = field(default_factory=dict)
    inlinable: dict[str, bool] = field(default_factory=dict)

    def stmt_vec(self, qualproc: str) -> dict[int, bool]:
        info = self.procs.get(qualproc)
        return info.stmt_vec if info else {}

    def is_inlinable(self, bare_name: str) -> bool:
        return self.inlinable.get(bare_name, False)

    def report(self) -> str:
        return "\n".join(info.report() for info in self.procs.values())


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _count_statements(stmts: list[F.Stmt]) -> int:
    n = 0
    for s in stmts:
        n += 1
        if isinstance(s, F.IfBlock):
            for arm in s.arms:
                n += _count_statements(arm.body)
        elif isinstance(s, (F.DoLoop, F.DoWhile)):
            n += _count_statements(s.body)
        elif isinstance(s, F.SelectCase):
            for case in s.cases:
                n += _count_statements(case.body)
        elif isinstance(s, F.WhereConstruct):
            for arm in s.arms:
                n += _count_statements(arm.body)
    return n


def _contains_loop(stmts: list[F.Stmt]) -> bool:
    for s in stmts:
        if isinstance(s, (F.DoLoop, F.DoWhile)):
            return True
        if isinstance(s, F.IfBlock):
            if any(_contains_loop(arm.body) for arm in s.arms):
                return True
        if isinstance(s, F.SelectCase):
            if any(_contains_loop(c.body) for c in s.cases):
                return True
    return False


def _called_names(node: F.Node, index: ProgramIndex) -> list[str]:
    """User procedures referenced anywhere below *node*."""
    names = []
    for sub in F.walk(node):
        if isinstance(sub, F.Apply) and index.find_procedure(sub.name):
            names.append(sub.name)
        elif isinstance(sub, F.CallStmt):
            names.append(sub.name)
    return names


def _uses_var(expr: F.Expr, var: str) -> bool:
    return any(isinstance(n, F.Name) and n.name == var
               for n in F.walk(expr))


def _subscript_key(args: list[F.Expr]) -> str:
    from .unparser import unparse_expr
    return ",".join(unparse_expr(a) for a in args)


def _has_indirect_index(args: list[F.Expr], index: ProgramIndex,
                        scope: str) -> bool:
    for a in args:
        for sub in F.walk(a):
            if isinstance(sub, F.Apply):
                sym = index.resolve(scope, sub.name)
                if sym is not None and sym.is_array:
                    return True
    return False


# ---------------------------------------------------------------------------
# Loop analysis
# ---------------------------------------------------------------------------


def _analyze_loop(loop: F.DoLoop, index: ProgramIndex, scope: str,
                  inlinable: dict[str, bool]) -> LoopVerdict:
    verdict = LoopVerdict(line=loop.line, vectorizable=True)
    var = loop.var

    writes: dict[str, set[str]] = {}
    reads: dict[str, set[str]] = {}
    scalar_writes: set[str] = set()
    # Scalars read before any write in iteration order: candidates for a
    # loop-carried scalar recurrence (e.g. pjac's running dprev).
    scalar_read_first: set[str] = set()

    def visit(stmts: list[F.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, F.IfBlock):
                for arm in s.arms:
                    if arm.cond is not None:
                        record_reads(arm.cond)
                    visit(arm.body)
                continue
            if isinstance(s, (F.DoLoop, F.DoWhile)):
                # Caller guarantees innermost; defensive anyway.
                verdict.vectorizable = False
                verdict.reasons.append("nested loop")
                continue
            if isinstance(s, F.CallStmt):
                verdict.calls.append(s.name)
                if not inlinable.get(s.name, False):
                    verdict.vectorizable = False
                    verdict.reasons.append(
                        f"call to non-inlinable subroutine {s.name}"
                    )
                continue
            if isinstance(s, (F.ExitStmt, F.CycleStmt, F.ReturnStmt,
                              F.StopStmt)):
                verdict.vectorizable = False
                verdict.reasons.append("data-dependent control-flow exit")
                continue
            if isinstance(s, F.PrintStmt):
                verdict.vectorizable = False
                verdict.reasons.append("I/O inside loop")
                continue
            if isinstance(s, F.Assignment):
                record_assignment(s)
                continue

    def record_reads(expr: F.Expr, exclude: str | None = None) -> None:
        for sub in F.walk(expr):
            if isinstance(sub, F.Name):
                nm = sub.name
                if nm == var or nm == exclude:
                    continue
                nsym = index.resolve(scope, nm)
                if (nsym is not None and not nsym.is_array
                        and not nsym.is_parameter
                        and nm not in scalar_writes):
                    scalar_read_first.add(nm)
                continue
            if isinstance(sub, F.Apply):
                sym = index.resolve(scope, sub.name)
                if sym is not None and sym.is_array:
                    if any(_uses_var(a, var) for a in sub.args):
                        reads.setdefault(sub.name, set()).add(
                            _subscript_key(sub.args))
                elif index.find_procedure(sub.name) is not None:
                    verdict.calls.append(sub.name)
                    if not inlinable.get(sub.name, False):
                        verdict.vectorizable = False
                        verdict.reasons.append(
                            f"call to non-inlinable function {sub.name}"
                        )
                if sym is not None and sym.is_array and _has_indirect_index(
                        sub.args, index, scope):
                    verdict.has_gather = True

    def record_assignment(s: F.Assignment) -> None:
        tgt = s.target
        # `s = s + expr` is a reduction: the self-reference does not make
        # the scalar a recurrence (compilers vectorize reductions).
        exclude = tgt.name if isinstance(tgt, F.Name) else None
        record_reads(s.value, exclude=exclude)
        if isinstance(tgt, F.Apply):
            sym = index.resolve(scope, tgt.name)
            if sym is not None and sym.is_array:
                if _has_indirect_index(tgt.args, index, scope):
                    verdict.vectorizable = False
                    verdict.reasons.append(
                        f"indirect store to {tgt.name} (scatter)"
                    )
                if any(_uses_var(a, var) for a in tgt.args):
                    writes.setdefault(tgt.name, set()).add(
                        _subscript_key(tgt.args))
                else:
                    # Loop-invariant element store: every iteration writes
                    # the same location — serializing unless a reduction.
                    scalar_writes.add(tgt.name)
            record_reads(tgt)  # subscript expressions are reads
        elif isinstance(tgt, F.Name):
            sym = index.resolve(scope, tgt.name)
            if sym is not None and sym.is_array:
                # Whole-array store inside a loop: fine (vector store).
                writes.setdefault(tgt.name, set()).add(":")
            else:
                scalar_writes.add(tgt.name)
                # Scalar reduction (s = s op ...) is vectorizable; a scalar
                # assigned and then consumed later in the same iteration is
                # a privatizable temporary — also fine.

    visit(loop.body)

    # Loop-carried dependency: same array written and read at different
    # loop-var-dependent subscripts.
    for arr, wkeys in writes.items():
        rkeys = reads.get(arr, set())
        if any(rk not in wkeys for rk in rkeys):
            verdict.vectorizable = False
            verdict.reasons.append(
                f"loop-carried dependency on array {arr}"
            )

    # Scalar recurrence: a scalar read before any write in iteration
    # order that the loop also writes carries a value across iterations
    # (e.g. pjac's running dprev) — not vectorizable.
    recurrent = scalar_read_first & scalar_writes
    if recurrent:
        verdict.vectorizable = False
        verdict.reasons.append(
            "loop-carried scalar recurrence on "
            + ", ".join(sorted(recurrent))
        )

    if verdict.vectorizable and verdict.has_gather:
        verdict.reasons.append("gather loads (vectorized with gather)")
    if verdict.vectorizable and verdict.calls:
        verdict.reasons.append(
            "contains inlinable calls: " + ", ".join(sorted(set(verdict.calls)))
        )
    return verdict


# ---------------------------------------------------------------------------
# Procedure / program analysis
# ---------------------------------------------------------------------------


def _mark(stmts: list[F.Stmt], flag: bool, info: ProcVecInfo) -> None:
    for s in stmts:
        info.stmt_vec[id(s)] = flag
        if isinstance(s, F.IfBlock):
            for arm in s.arms:
                _mark(arm.body, flag, info)
        elif isinstance(s, (F.DoLoop, F.DoWhile)):
            _mark(s.body, flag, info)


def analyze_procedure(proc: F.ProcedureUnit, index: ProgramIndex,
                      scope: str, inlinable: dict[str, bool]) -> ProcVecInfo:
    info = ProcVecInfo(name=scope)
    info.n_statements = _count_statements(proc.body)

    def walk_stmts(stmts: list[F.Stmt], in_vec: bool) -> None:
        for s in stmts:
            info.stmt_vec[id(s)] = in_vec
            info.stmt_calls[id(s)] = _called_names(s, index)
            if isinstance(s, F.DoLoop):
                if _contains_loop(s.body):
                    walk_stmts(s.body, False)
                else:
                    verdict = _analyze_loop(s, index, scope, inlinable)
                    info.loops.append(verdict)
                    _mark(s.body, verdict.vectorizable, info)
                    for inner in s.body:
                        _fill_calls(inner)
            elif isinstance(s, F.DoWhile):
                walk_stmts(s.body, False)
            elif isinstance(s, F.IfBlock):
                for arm in s.arms:
                    walk_stmts(arm.body, in_vec)
            elif isinstance(s, F.SelectCase):
                for case in s.cases:
                    walk_stmts(case.body, in_vec)
            elif isinstance(s, F.WhereConstruct):
                for arm in s.arms:
                    # Masked array assignments are vector statements.
                    for inner in arm.body:
                        info.stmt_vec[id(inner)] = True
                        info.stmt_calls[id(inner)] = _called_names(inner,
                                                                   index)

    def _fill_calls(s: F.Stmt) -> None:
        info.stmt_calls[id(s)] = _called_names(s, index)
        if isinstance(s, F.IfBlock):
            for arm in s.arms:
                for inner in arm.body:
                    _fill_calls(inner)
        elif isinstance(s, (F.DoLoop, F.DoWhile)):
            for inner in s.body:
                _fill_calls(inner)

    walk_stmts(proc.body, False)
    return info


def analyze_program(index: ProgramIndex) -> ProgramVecInfo:
    """Analyze every procedure in the program."""
    result = ProgramVecInfo()
    # First pass: inlinability by bare name (size-based, like compilers'
    # inline heuristics at -O2/-O3).
    for qual, scope_info in index.procedures.items():
        proc = scope_info.node
        assert isinstance(proc, F.ProcedureUnit)
        bare = proc.name
        small = _count_statements(proc.body) <= INLINE_STMT_LIMIT
        has_loop = _contains_loop(proc.body)
        result.inlinable[bare] = small and not has_loop
    # Second pass: per-procedure loop analysis.
    for qual, scope_info in index.procedures.items():
        proc = scope_info.node
        assert isinstance(proc, F.ProcedureUnit)
        result.procs[qual] = analyze_procedure(
            proc, index, qual, result.inlinable
        )
    return result
