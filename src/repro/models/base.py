"""Model-case abstraction: a tunable weather/climate miniature.

A :class:`ModelCase` bundles everything one of the paper's experiments
needs: the Fortran source of the model, which module is the targeted
hotspot, how to drive a representative simulation, the domain-expert
correctness observable and threshold, the measured timing noise, and the
campaign-level constants (nominal runtime, compile time, MPI ranks) used
for wall-clock budget accounting.

Concrete cases live in :mod:`repro.models.funarc`, ``.mpas``, ``.adcirc``
and ``.mom6``; they are registered in :mod:`repro.models.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ..fortran import (CompiledInterpreter, Interpreter, Ledger,
                       ProgramIndex, analyze, analyze_program, parse_source)
from ..fortran.vectorize import ProgramVecInfo
from ..core.atoms import SearchAtom, collect_atoms
from ..core.assignment import PrecisionAssignment
from ..core.searchspace import SearchSpace

__all__ = ["RunArtifacts", "ModelCase"]


@dataclass
class RunArtifacts:
    """Everything produced by one model execution."""

    ledger: Ledger
    observable: np.ndarray
    stdout: list[str] = field(default_factory=list)


class ModelCase:
    """Base class for tunable model miniatures.

    Subclasses set the class attributes and implement :meth:`_drive` (run
    the simulation through an interpreter and return the correctness
    observable) and :meth:`correctness_error` (reduce baseline/variant
    observables to the scalar compared against ``error_threshold``).
    """

    # -- identification -------------------------------------------------
    name: str = "base"
    paper_module: str = ""            # the module name as in Table I
    description: str = ""

    # -- tuning target ----------------------------------------------------
    source: str = ""                  # Fortran source text
    hotspot_scopes: tuple[str, ...] = ()   # qualified scopes holding atoms
    hotspot_proc_names: tuple[str, ...] = ()  # bare names for Fig. 6 plots
    excluded_atom_names: tuple[str, ...] = ()  # qualified names kept fixed
    #: Bare names of procedures wrapped in GPTL timers.  Defaults to every
    #: hotspot procedure; models override to time only the coarse work
    #: routines (timing tiny inlined flux functions would distort them).
    timed_proc_names: tuple[str, ...] = ()

    # -- correctness ------------------------------------------------------
    error_threshold: float = 1e-3

    # -- performance ------------------------------------------------------
    noise_rsd: float = 0.01
    n_runs: int = 1
    perf_scope: str = "hotspot"       # "hotspot" (Fig. 5/6) or "model" (Fig. 7)

    # -- campaign accounting (simulated wall clock) -------------------------
    nominal_runtime_seconds: float = 90.0   # the paper's reported run time
    compile_seconds: float = 240.0          # per-variant rebuild cost
    #: The T1 source-transformation share of the per-variant rebuild
    #: (``compile_seconds`` covers transform + compile; this names the
    #: split so stage accounting can report them separately).
    transform_seconds: float = 30.0
    mpi_ranks: int = 64

    # ------------------------------------------------------------------
    # Lazily built program artifacts (shared across variants)
    # ------------------------------------------------------------------

    @cached_property
    def ast(self):
        return parse_source(self.source)

    @cached_property
    def index(self) -> ProgramIndex:
        return analyze(self.ast)

    @cached_property
    def vec_info(self) -> ProgramVecInfo:
        return analyze_program(self.index)

    @cached_property
    def atoms(self) -> list[SearchAtom]:
        scopes = set(self.hotspot_scopes) if self.hotspot_scopes else None
        collected = collect_atoms(self.index, scopes=scopes)
        excluded = set(self.excluded_atom_names)
        return [a for a in collected if a.qualified not in excluded]

    @cached_property
    def space(self) -> SearchSpace:
        return SearchSpace(self.atoms)

    @cached_property
    def hotspot_procedures(self) -> set[str]:
        """Qualified names of all procedures inside the hotspot scopes."""
        out: set[str] = set()
        for qual in self.index.procedures:
            for scope in self.hotspot_scopes:
                if qual == scope or qual.startswith(scope + "::"):
                    out.add(qual)
        return out

    @cached_property
    def timed_procedures(self) -> set[str]:
        """Qualified names of the GPTL-timed procedures."""
        if not self.timed_proc_names:
            return set(self.hotspot_procedures)
        names = set(self.timed_proc_names)
        return {q for q in self.hotspot_procedures
                if q.rpartition("::")[2] in names}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, assignment: Optional[PrecisionAssignment] = None,
            max_ops: Optional[int] = None,
            interpreter_factory=None) -> RunArtifacts:
        """Execute the model under *assignment* (None = declared kinds).

        Runs on the compiled engine unless *interpreter_factory* is
        given: it is called with the same keyword arguments as
        :class:`Interpreter` and must return an interpreter — this is
        how the shadow-execution profiler (:mod:`repro.numerics`)
        substitutes its instrumented engine without the model knowing.

        Raises :class:`repro.errors.FortranRuntimeError` subclasses when
        the variant crashes — callers classify these.
        """
        overlay = assignment.overlay() if assignment is not None else {}
        factory = interpreter_factory or CompiledInterpreter
        interp = factory(self.index, overlay=overlay,
                         vec_info=self.vec_info, max_ops=max_ops)
        observable = self._drive(interp)
        if not isinstance(observable, np.ndarray):
            observable = np.asarray(observable, dtype=np.float64)
        return RunArtifacts(ledger=interp.ledger, observable=observable,
                            stdout=interp.stdout)

    def _drive(self, interp: Interpreter) -> np.ndarray:
        """Run the representative workload; return the observable."""
        raise NotImplementedError

    def correctness_error(self, baseline: np.ndarray,
                          variant: np.ndarray) -> float:
        """Scalar relative-error metric compared against the threshold."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Worker reconstruction (parallel evaluation / result cache)
    # ------------------------------------------------------------------

    def spec_kwargs(self) -> dict:
        """Constructor kwargs that reproduce this exact case.  Subclasses
        with workload parameters must override; the values also key the
        persistent result cache, so anything that changes evaluation
        results (workload size, threshold) must appear here."""
        return {"error_threshold": self.error_threshold}

    def model_spec(self) -> tuple[str, dict]:
        """(registry name, constructor kwargs) — enough for a worker
        process to rebuild the case via ``registry.build_model``."""
        return self.name, self.spec_kwargs()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def atom_count(self) -> int:
        return len(self.atoms)

    def describe(self) -> str:
        return (f"{self.name}: module {self.paper_module}, "
                f"{self.atom_count()} FP variables, "
                f"threshold {self.error_threshold:g}, "
                f"n={self.n_runs}, rsd={self.noise_rsd:.0%}")
