"""The compiled engine's declared-kind fast paths keep their reach.

The compiled engine lowers each real binop, each store to a declared
real scalar and each elementwise intrinsic of a real scalar with the
operand types the declarations give it under the variant's overlay,
checks them with an exact ``type()`` test, and calls its construct's
slow path (``repro.fortran.compile._binop``, ``_store`` and
``_intrinsic``) on a miss.  A miss costs only speed: every byte gate
still holds, so a fast path that stopped firing would show only as a
slower run.  This pins, for one baseline compiled run of each model,
how many visits with a real operand took each slow path; array
arithmetic is meant to.  It is the compiled counterpart of
``tests/test_batch.py::TestModelSweepsStayVectorized``.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.fortran.compile as compiled
from repro.fortran import CompiledInterpreter
from repro.fortran.compile import CodeCache
from repro.fortran.values import kind_of
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase

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
