"""The compiled engine's fast paths and its handoff to the walker keep
their reach.

The compiled engine lowers each real binop, each store to a declared
real scalar and each elementwise intrinsic of a real scalar with the
operand types the declarations give it under the variant's overlay,
checks them with an exact ``type()`` test, and calls its construct's
slow path (``repro.fortran.compile._binop``, ``_store`` and
``_intrinsic``) on a miss.  It lowers only the constructs the models
contain and leaves every other one to the walker's own handler
(``_walker_stmt``, ``_walker_expr``, ``_walker_ref``).  A slow-path
visit or a construct that drifts onto the walker costs only speed:
every byte gate still holds, so it would show only as a slower run.
This pins, for one baseline compiled run of each model, how many visits
with a real operand took each slow path (array arithmetic is meant to),
that lowering the models' procedures hands nothing to the walker, and
that each construct left to it is handed over with the walker's bytes.
It is the compiled counterpart of
``tests/test_batch.py::TestModelSweepsStayVectorized``.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.fortran.compile as compiled
from repro.fortran import (CompiledInterpreter, Interpreter, OutBox, analyze,
                           analyze_program, make_array, parse_source)
from repro.fortran.compile import CodeCache
from repro.fortran.symbols import KIND_SINGLE
from repro.fortran.values import kind_of
from repro.models import (MODEL_FACTORIES, AdcircCase, FunarcCase, Mom6Case,
                          MpasCase)
from repro.perf import ledger_fingerprint

#: Slow-path visits with a real operand (for a store: into a slot that
#: holds a real) in one baseline compiled run.
_SLOW_VISITS = {
    "funarc": {},
    "mpas-a": {"binop": 1655, "intrinsic": 75},
    "adcirc": {"binop": 1275, "intrinsic": 453},
    "mom6": {"binop": 800, "intrinsic": 324},
}


def _real(*values) -> bool:
    return any(kind_of(v) is not None for v in values)


#: Which arguments of each slow path make its visit a real one.
_IS_REAL = {
    "_binop": lambda I, left, right, site: _real(left, right),
    "_store": lambda I, store_keys, convert_keys, slot, name, value:
        _real(slot[name]),
    "_intrinsic": lambda I, fn, op_keys, args, kwargs=None: _real(*args),
}


def slow_path_visits(model, monkeypatch) -> dict[str, int]:
    """Real visits per slow path in one baseline compiled run, lowered
    afresh so no other test's cached code is reused."""
    counts: Counter = Counter()
    for name, is_real in _IS_REAL.items():
        def counting(*args, _slow=getattr(compiled, name), _name=name,
                     _is_real=is_real):
            if _is_real(*args):
                counts[_name.lstrip("_")] += 1
            return _slow(*args)
        monkeypatch.setattr(compiled, name, counting)
    model.run(interpreter_factory=lambda index, **kw: CompiledInterpreter(
        index, code_cache=CodeCache(), **kw))
    return dict(counts)


class TestModelRunsStayOnFastPaths:
    @pytest.mark.parametrize("make_case", [
        FunarcCase, MpasCase.small, AdcircCase.small, Mom6Case.small],
        ids=["funarc", "mpas-a", "adcirc", "mom6"])
    def test_slow_path_visits_are_pinned(self, make_case, monkeypatch):
        model = make_case()
        assert slow_path_visits(model, monkeypatch) == (
            _SLOW_VISITS[model.name])


# ---------------------------------------------------------------------------
# The handoff to the walker
# ---------------------------------------------------------------------------

#: Every construct the compiled engine leaves to the walker, each where
#: the lowerer meets it (not nested in another construct it leaves).
#: ``driver``'s first loop stores a derived-type component in a loop the
#: analysis vectorizes, so the statement flag the walker reads matters.
HANDOFF_SOURCE = """\
module handoff
  implicit none
  type :: state
    real(kind=8) :: t
    real(kind=8), dimension(4) :: v
  end type state
  real(kind=8), dimension(:), allocatable :: buf
  real(kind=8) :: acc
contains
  subroutine bump(x)
    implicit none
    real(kind=8) :: x
    x = x * 2.0d0 + acc
  end subroutine bump

  subroutine scale_all(v, f)
    implicit none
    real(kind=8), dimension(2) :: v
    real(kind=8) :: f
    v = v * f
  end subroutine scale_all

  function blend(a, b) result(r)
    implicit none
    real(kind=8) :: a, b
    real(kind=8) :: r
    r = 2.0d0 * a + b
  end function blend

  subroutine first_positive(a, n, idx)
    implicit none
    integer :: n
    real(kind=8), dimension(n) :: a
    integer, intent(out) :: idx
    integer :: i
    idx = 0
    do i = 1, n
      if (a(i) > 0.0d0) then
        idx = i
        return
      end if
    end do
  end subroutine first_positive

  subroutine driver(x, out)
    implicit none
    real(kind=8), dimension(4) :: x
    real(kind=8), intent(out) :: out
    type(state) :: s
    real(kind=4), dimension(3) :: w
    real(kind=8) :: t
    integer :: i, code, idx
    logical :: flag
    acc = 0.5d0
    s%t = 1.5d0
    s%v = x
    s%v(2:3) = 0.25d0
    do i = 1, 4
      s%v(i) = s%v(i) + x(i) * 2.0d0
    end do
    call bump(s%t)
    call scale_all(s%v(3:4), s%t)
    t = s%t + sum(s%v) + s%v(4)
    w = (/ t, 2.5, 3 /)
    flag = t > 1.0d0
    print *, t, code, w, flag, 'done'
    do i = 1, 4
      if (x(i) < 0.0d0) cycle
      t = t + x(i)
    end do
    call first_positive(x, 4, idx)
    allocate(buf(0:3))
    buf = x * 0.5d0
    do k = 0, 3
      buf(k) = buf(k) + k
    end do
    k = k + 1
    t = t + sum(buf) + k
    call bump(k)
    deallocate(buf)
    where (x > 0.0d0)
      x = x * t
    elsewhere
      x = 0.0d0
    end where
    code = idx + 1
    select case (code)
    case (1)
      t = t - 1.0d0
    case (2:3)
      t = t + sum(x)
    case default
      t = t + 100.0d0
    end select
    out = t + sum(x) + sum(w) + idx
  end subroutine driver

  subroutine keyword_call(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8), dimension(2) :: a
    a = 1.0d0
    out = a(1) + blend(a(1), b=a(2))
  end subroutine keyword_call

  subroutine keyword_call_stmt(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8), dimension(2) :: a
    a = 1.0d0
    call scale_all(a(1:2), f=a(2))
    out = a(1)
  end subroutine keyword_call_stmt

  subroutine pointer_stmt(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: p
    out = 1.0d0
    p => out
  end subroutine pointer_stmt
end module handoff
"""

#: ``(helper, node type)`` -> how often lowering HANDOFF_SOURCE once
#: hands such a node to the walker.
_HANDED_OVER = {
    # Four stores to components of ``s`` and ``k = k + 1``.
    ("walker_stmt", "Assignment"): 5,
    ("walker_stmt", "PrintStmt"): 1,
    ("walker_stmt", "CycleStmt"): 1,
    ("walker_stmt", "ReturnStmt"): 1,
    ("walker_stmt", "AllocateStmt"): 1,
    ("walker_stmt", "DeallocateStmt"): 1,
    ("walker_stmt", "WhereConstruct"): 1,
    ("walker_stmt", "SelectCase"): 1,
    # ``call scale_all(..., f=...)``.
    ("walker_stmt", "CallStmt"): 1,
    # No walker handler either: the same error from both engines.
    ("walker_stmt", "PointerAssignment"): 1,
    # ``s%t`` twice and ``s%v(3:4)`` as actual arguments; ``k``.
    ("walker_ref", "ComponentRef"): 3,
    ("walker_ref", "Name"): 1,
    ("walker_expr", "ComponentRef"): 3,
    ("walker_expr", "ArrayCons"): 1,
    # ``k`` in ``buf(k) = buf(k) + k`` and in ``t = t + sum(buf) + k``.
    ("walker_expr", "Name"): 4,
    # ``blend(a(1), b=a(2))``.
    ("walker_expr", "Apply"): 1,
}

_HANDOFFS = ("_walker_stmt", "_walker_expr", "_walker_ref")


def _overlay(index, single: bool) -> dict:
    """Declared kinds, or every real single."""
    return ({sym.qualified: KIND_SINGLE for sym in index.fp_symbols()}
            if single else {})


def handed_over(monkeypatch, index, vec_info, single: bool) -> Counter:
    """``(helper, node type)`` of each node that lowering every
    procedure of *index* afresh hands to the walker, under declared
    kinds or with every real single."""
    seen: Counter = Counter()
    for name in _HANDOFFS:
        def counting(node, _helper=getattr(compiled, name), _name=name):
            seen[_name.lstrip("_"), type(node).__name__] += 1
            return _helper(node)
        monkeypatch.setattr(compiled, name, counting)
    overlay = _overlay(index, single)
    cache = CodeCache()
    for qual in index.procedures:
        cache.code_for(index, vec_info, overlay, qual)
    return seen


def _handoff_artifacts(interp, entry: str) -> dict:
    """Outputs, stdout, error and ledger (charges and the order its
    keys were first charged in) of one run of *entry*."""
    x = make_array(4, kind=8)
    x.data[:] = [-1.0, 2.0, 0.5, -3.0]
    box = OutBox(None)
    error = None
    try:
        interp.call(entry, [x, box] if entry == "driver" else [box])
    except Exception as exc:  # noqa: BLE001 - errors must match too
        error = (type(exc).__name__, str(exc))
    ledger = interp.ledger
    return {
        "out": None if box.value is None else (
            box.value.tobytes(), str(box.value.dtype)),
        "x": x.data.tobytes(),
        "stdout": tuple(interp.stdout),
        "error": error,
        "ledger": ledger_fingerprint(ledger),
        "ledger_order": tuple(tuple(keys) for keys in (
            ledger.ops, ledger.calls, ledger.boundary_cast_elements,
            ledger.allreduce)),
    }


_OVERLAYS = pytest.mark.parametrize("single", [False, True],
                                    ids=["declared", "all-single"])


class TestHandoffToTheWalker:
    @_OVERLAYS
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_models_hand_nothing_to_the_walker(self, name, single,
                                               monkeypatch):
        model = MODEL_FACTORIES[name]()
        assert handed_over(monkeypatch, model.index, model.vec_info,
                           single) == {}

    @_OVERLAYS
    def test_each_construct_left_is_handed_over(self, single, monkeypatch):
        index = analyze(parse_source(HANDOFF_SOURCE))
        assert handed_over(monkeypatch, index, analyze_program(index),
                           single) == _HANDED_OVER

    @_OVERLAYS
    @pytest.mark.parametrize("entry", [
        "driver", "keyword_call", "keyword_call_stmt", "pointer_stmt"])
    def test_handoff_gives_the_walkers_bytes(self, entry, single):
        index = analyze(parse_source(HANDOFF_SOURCE))
        vec = analyze_program(index)
        overlay = _overlay(index, single)
        # The compiled run executes bodies lowered from another parse of
        # the same source, as cached code can be.
        cache = CodeCache()
        other = analyze(parse_source(HANDOFF_SOURCE))
        _handoff_artifacts(CompiledInterpreter(
            other, overlay=dict(overlay), vec_info=analyze_program(other),
            code_cache=cache), entry)
        walker = _handoff_artifacts(
            Interpreter(index, overlay=dict(overlay), vec_info=vec), entry)
        compiled_run = _handoff_artifacts(CompiledInterpreter(
            index, overlay=dict(overlay), vec_info=vec, code_cache=cache),
            entry)
        assert cache.hits > 0
        assert compiled_run == walker
