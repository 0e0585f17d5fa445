"""Execution ledger: dynamic operation counts gathered by the interpreter.

The paper measures variants by running them natively and timing hotspots
with GPTL.  We cannot compile Fortran here, so the interpreter instead
*counts* every operation it performs — attributed to the executing
procedure, classified by operation class, real kind, and whether the
operation executed in a vectorizable context.  The machine model in
:mod:`repro.perf.costmodel` converts these counts into simulated CPU
seconds; the simulated times play the role of the paper's GPTL readings.

Operation classes
-----------------
``arith``     add/sub/mul (and unary negate)
``div``       division
``pow``       exponentiation
``cmp``       relational comparison on reals
``intr_cheap`` abs/min/max/sign/mod/merge-style intrinsics
``intr_sqrt`` square root
``intr_trans`` transcendental intrinsics (sin, exp, log, ...)
``load``      real element loads (memory traffic)
``store``     real element stores
``convert``   precision conversions — the paper's *casting overhead*
``reduce``    array reduction operations (sum, maxval, dot_product)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["OpKey", "CallKey", "Ledger", "OP_CLASSES"]

OP_CLASSES = (
    "arith", "div", "pow", "cmp", "intr_cheap", "intr_sqrt", "intr_trans",
    "load", "store", "convert", "reduce",
)


class OpKey(NamedTuple):
    """Key for an operation-count bucket.  NamedTuple so the interpreter's
    hot path pays plain-tuple hashing costs."""

    proc: str        # qualified procedure name the op executed in
    opclass: str     # one of OP_CLASSES
    kind: int        # real kind the op operated at (result kind)
    vec: bool        # executed in a vectorizable context


class CallKey(NamedTuple):
    caller: str
    callee: str


@dataclass
class Ledger:
    """Aggregated dynamic counts for one program execution."""

    ops: dict[OpKey, int] = field(default_factory=lambda: defaultdict(int))
    # (caller, callee) -> [total calls, calls needing a precision wrapper]
    calls: dict[CallKey, list[int]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0])
    )
    # Per-callee converted elements at call boundaries (wrapper casts);
    # separate from in-expression converts so the interprocedural-flow
    # penalty of the paper's Section IV-B analyses can be read directly.
    boundary_cast_elements: dict[CallKey, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    # Allreduce events: (proc) -> [count, total elements].
    allreduce: dict[str, list[int]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0])
    )
    total_ops: int = 0  # raw count, used for the interpreter's op budget

    # -- accrual (hot path: keep minimal) -----------------------------------

    def add_op(self, proc: str, opclass: str, kind: int, vec: bool,
               count: int) -> None:
        self.ops[OpKey(proc, opclass, kind, vec)] += count
        self.total_ops += count

    def add_call(self, caller: str, callee: str, wrapped: bool) -> None:
        entry = self.calls[CallKey(caller, callee)]
        entry[0] += 1
        if wrapped:
            entry[1] += 1

    def add_boundary_cast(self, caller: str, callee: str, elements: int) -> None:
        self.boundary_cast_elements[CallKey(caller, callee)] += elements

    def add_allreduce(self, proc: str, elements: int) -> None:
        entry = self.allreduce[proc]
        entry[0] += 1
        entry[1] += elements
        self.total_ops += elements

    # -- queries -------------------------------------------------------------

    def procedures(self) -> set[str]:
        procs = {k.proc for k in self.ops}
        procs.update(k.callee for k in self.calls)
        procs.update(self.allreduce)
        return procs

    def call_count(self, callee: str) -> int:
        return sum(v[0] for k, v in self.calls.items() if k.callee == callee)

    def convert_elements(self, proc: str | None = None) -> int:
        """Total converted elements (in-expression + boundary casts)."""
        total = sum(
            v for k, v in self.ops.items()
            if k.opclass == "convert" and (proc is None or k.proc == proc)
        )
        total += sum(
            v for k, v in self.boundary_cast_elements.items()
            if proc is None or k.caller == proc
        )
        return total

    def merge(self, other: "Ledger") -> None:
        """Accumulate *other* into this ledger (multi-run aggregation)."""
        for k, v in other.ops.items():
            self.ops[k] += v
        for ck, (n, w) in other.calls.items():
            entry = self.calls[ck]
            entry[0] += n
            entry[1] += w
        for ck, v in other.boundary_cast_elements.items():
            self.boundary_cast_elements[ck] += v
        for p, (n, e) in other.allreduce.items():
            entry = self.allreduce[p]
            entry[0] += n
            entry[1] += e
        self.total_ops += other.total_ops
