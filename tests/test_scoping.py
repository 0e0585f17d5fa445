"""The engines' shared scoping rules (repro.fortran.symbols).

The tree walker resolves every name at run time along its frame's
chain; the compiled and batched engines decide once, at lowering, where
each name lives and what the declarations fix about each expression
(``ScopeNames``).  Two pins keep those decisions honest:

* **Lowering decisions.**  A drifted decision only costs speed (a lost
  static-int path in compiled, a cold kind cache in batched), so no
  bit-identity gate sees it.  Every expression of the four models is
  walked, and its placement, declared symbol, compiled static type and
  batched kind vector under four seeded overlays are pinned by digest.
  The digests were computed with the engines' own resolvers before they
  moved into one module.
* **Multi-module resolution.**  The fuzzer generates one module, so it
  never reaches the chain order.  A program with a local shadowing a
  host-module variable, names in a used module and in the host module
  that a later module also declares, a name reached only through the
  all-modules fallback, and an undeclared loop index must give the same
  bytes in all three engines, with every batched lane vectorized.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.assignment import PrecisionAssignment
from repro.fortran import (CompiledInterpreter, Interpreter, OutBox,
                           VariantBatch, analyze, analyze_program,
                           parse_source)
from repro.fortran import ast_nodes as F
from repro.fortran.batch import _Engine
from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE, ScopeNames
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase
from repro.perf import ledger_fingerprint


def _seeded_overlays(model, count=4):
    rng = random.Random(f"lowering-decisions-{model.name}")
    atoms = model.space.atoms
    overlays = []
    for _ in range(count):
        p = rng.uniform(0.05, 0.95)
        kinds = tuple(KIND_SINGLE if rng.random() < p else KIND_DOUBLE
                      for _ in atoms)
        overlays.append(
            PrecisionAssignment(atoms=atoms, kinds=kinds).overlay())
    return overlays


def _decision_lines(model):
    """One line per expression (and do-loop variable) of every procedure
    body: placement, declared symbol, the static type the compiled
    engine acts on and the kind vector the batched engine seeds."""
    index = model.index
    engine = _Engine(index, _seeded_overlays(model), model.vec_info, None)
    lines = []
    for qual, info in index.procedures.items():
        names = ScopeNames(index, info)

        def place(name):
            sym, mod = names.lookup(name)
            if sym is None:
                return "dynamic -"
            return f"{mod or 'local'} {sym.qualified}"

        pos = 0
        for stmt in info.node.body:
            for node in F.walk(stmt):
                if isinstance(node, F.DoLoop):
                    lines.append(f"{qual} {pos} do {place(node.var)}")
                elif isinstance(node, F.Expr):
                    t = names.static_type(node)
                    compiled = t if t in ("int", "bool") else "-"
                    kv = engine.kv_of_type(t)
                    batched = ("-" if kv is None else
                               "".join(str(k) for k in kv.arr.tolist()))
                    where = (place(node.name)
                             if isinstance(node, (F.Name, F.Apply)) else "-")
                    lines.append(f"{qual} {pos} {type(node).__name__} "
                                 f"{compiled} {batched} {where}")
                else:
                    continue
                pos += 1
    return lines


#: (records, sha256 of the records) per model, computed with the
#: compiled engine's ``_category``/``_scalar_symbol``/``_static_type``
#: and the batched engine's ``_where``/``_symbol``/``_static_kv``.
_DECISION_DIGESTS = {
    "funarc": (59, "2551b8e654cd50ef95f6b13f1525ef96"
                   "401c509fe1605ae0a75e96193df65ac6"),
    "mpas-a": (1059, "696490ea95aeed04dd1a99bde1a32619"
                     "b8c0e3780d0e6cd88ef6ac65af07ef18"),
    "adcirc": (630, "271ab2dac8f904da7a3f46948c488fca"
                    "f6f5046ed7c20afd91ad1126e958a5d9"),
    "mom6": (809, "ac254bb2bc9824810a37f0017d90d3dc"
                  "c6aad9550a7611c2768c9e39d3bc94a5"),
}


class TestLoweringDecisions:
    @pytest.mark.parametrize("make_case", [
        FunarcCase, MpasCase.small, AdcircCase.small, Mom6Case.small],
        ids=["funarc", "mpas-a", "adcirc", "mom6"])
    def test_decisions_match_the_pinned_digest(self, make_case):
        model = make_case()
        lines = _decision_lines(model)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == _DECISION_DIGESTS[model.name]


#: ``extra`` comes first, so the all-modules fallback alone would find
#: its ``scale`` and ``gain``; the use of ``consts`` and the host module
#: ``host`` must win.  ``report`` prints ``extra``'s own copies, which
#: nothing assigns, and ``driver``'s loop index ``k`` is undeclared.
_MULTI_MODULE_SOURCE = """\
module extra
  implicit none
  real(kind=8) :: bias
  real(kind=8) :: scale
  real(kind=8) :: gain
contains
  subroutine report()
    implicit none
    print *, scale, gain
  end subroutine report
end module extra

module consts
  implicit none
  real(kind=8) :: scale
end module consts

module host
  implicit none
  real(kind=8) :: gain
  real(kind=8) :: offset
  real(kind=4) :: acc
contains
  subroutine setup()
    use consts
    implicit none
    scale = 1.5d0
    gain = 0.75d0
    offset = 0.125d0
    bias = 0.0625d0
    acc = 0.0
  end subroutine setup

  function blend(x) result(r)
    use consts
    implicit none
    real(kind=8) :: x
    real(kind=8) :: r
    real(kind=8) :: offset
    offset = x * 0.5d0
    r = x * scale + offset * gain + bias
  end function blend

  subroutine driver(out)
    use consts
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: t
    call setup()
    t = 1.0d0
    do k = 1, 6
      t = blend(t) - offset * k
      acc = acc + t * 0.001d0
    end do
    print *, scale, gain, bias
    call report()
    out = t + acc
  end subroutine driver
end module host
"""

_MULTI_MODULE_ATOMS = (
    "extra::bias", "extra::scale", "extra::gain", "consts::scale",
    "host::gain", "host::offset", "host::acc", "host::blend::x",
    "host::blend::r", "host::blend::offset", "host::driver::out",
    "host::driver::t")


def _run_driver(interp):
    box = OutBox(None)
    interp.call("driver", [box])
    return (box.value.tobytes(), str(box.value.dtype), tuple(interp.stdout),
            ledger_fingerprint(interp.ledger))


class TestMultiModuleResolution:
    def test_engines_agree_on_every_overlay(self):
        index = analyze(parse_source(_MULTI_MODULE_SOURCE))
        vec = analyze_program(index)
        rng = random.Random("multi-module-resolution")
        overlays = [{}] + [
            {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
             for atom in _MULTI_MODULE_ATOMS if rng.random() < 0.6}
            for _ in range(11)]
        batch = VariantBatch(index, [dict(o) for o in overlays],
                             vec_info=vec, max_ops=1_000_000)
        for lane, overlay in enumerate(overlays):
            walker = _run_driver(Interpreter(
                index, overlay=dict(overlay), vec_info=vec,
                max_ops=1_000_000))
            compiled = _run_driver(CompiledInterpreter(
                index, overlay=dict(overlay), vec_info=vec,
                max_ops=1_000_000))
            assert compiled == walker, f"compiled drifts at lane {lane}"
            assert _run_driver(batch.lane(lane)) == walker, (
                f"batched lane {lane} drifts")
        stats = batch.stats()
        assert (stats.vector_lanes, stats.fallback_lanes) == (
            len(overlays), 0), stats.fallback_reasons

    def test_names_resolve_by_chain_order(self):
        index = analyze(parse_source(_MULTI_MODULE_SOURCE))
        interp = Interpreter(index, vec_info=analyze_program(index))
        interp.call("driver", [OutBox(None)])
        # consts' scale (used) and host's gain beat extra's, which
        # report() shows untouched; bias exists only in extra.
        assert interp.stdout == ["1.5 0.75 0.0625", "0.0 0.0"]
        names = ScopeNames(index, index.scopes["host::blend"])
        assert names.modules == ["host", "consts", "extra"]
        assert names.lookup("offset")[1] is None
        assert names.lookup("scale")[1] == "consts"
        assert names.lookup("gain")[1] == "host"
        assert names.lookup("bias")[1] == "extra"
        driver = ScopeNames(index, index.scopes["host::driver"])
        assert driver.lookup("k") == (None, None)
