"""Static semantic analyses: kind inference, call graphs, and the
static-vs-dynamic kind equivalence property."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import SemanticError
from repro.fortran import (Interpreter, OutBox, analyze, parse_source)
from repro.fortran.callgraph import build_graphs
from repro.fortran.kinds import infer_kind
from repro.fortran.values import kind_of
from repro.models.mpas import MPAS_SOURCE

KIND_SRC = """
module km
  implicit none
  real(kind=8) :: d_mod
  real(kind=4) :: s_mod
contains
  function dfun(x) result(y)
    implicit none
    real(kind=8) :: x, y
    y = x
  end function dfun

  subroutine host(n, arr4, arr8, out)
    implicit none
    integer :: n
    real(kind=4), dimension(n) :: arr4
    real(kind=8), dimension(n) :: arr8
    real(kind=8), intent(out) :: out
    real(kind=4) :: s_loc
    real(kind=8) :: d_loc
    s_loc = 1.0
    d_loc = 2.0d0
    out = d_loc + s_loc
  end subroutine host
end module km
"""


@pytest.fixture(scope="module")
def km_index():
    return analyze(parse_source(KIND_SRC))


def infer(km_index, text, scope="km::host"):
    src = f"subroutine t()\nx = {text}\nend subroutine t\n"
    expr = parse_source(src).units[0].body[0].value
    return infer_kind(expr, km_index, scope)


class TestInferKind:
    @pytest.mark.parametrize("text,expected", [
        ("1.0", 4),
        ("1.0d0", 8),
        ("42", None),
        ("s_loc", 4),
        ("d_loc", 8),
        ("s_mod", 4),
        ("d_mod", 8),
        ("s_loc + d_loc", 8),
        ("s_loc * 2.0", 4),
        ("arr4(1)", 4),
        ("arr8(2) + arr4(1)", 8),
        ("sin(s_loc)", 4),
        ("sqrt(d_loc)", 8),
        ("dble(s_loc)", 8),
        ("sngl(d_loc)", 4),
        ("real(d_loc)", 4),
        ("real(s_loc, kind=8)", 8),
        ("max(s_loc, d_loc)", 8),
        ("dot_product(arr4, arr8)", 8),
        ("dfun(d_loc)", 8),
        ("size(arr4)", None),
        ("s_loc < d_loc", None),
        ("-s_loc", 4),
        ("sum(arr4)", 4),
        ("epsilon(d_loc)", 8),
    ])
    def test_cases(self, km_index, text, expected):
        assert infer(km_index, text) == expected

    def test_overlay_applies(self, km_index):
        src = "subroutine t()\nx = d_loc\nend subroutine t\n"
        expr = parse_source(src).units[0].body[0].value
        assert infer_kind(expr, km_index, "km::host",
                          overlay={"km::host::d_loc": 4}) == 4


# ---------------------------------------------------------------------------
# Property: static inference == dynamic kind for random expressions.
# ---------------------------------------------------------------------------

_LEAVES = ["s_loc", "d_loc", "s_mod", "d_mod", "1.0", "2.0d0", "3"]


@st.composite
def kind_exprs(draw):
    return draw(st.recursive(
        st.sampled_from(_LEAVES),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "*", "-"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda e: f"sin({e})"),
            inner.map(lambda e: f"abs({e})"),
            inner.map(lambda e: f"dble({e})"),
            inner.map(lambda e: f"sngl({e})"),
        ),
        max_leaves=6,
    ))


@given(kind_exprs())
@settings(max_examples=120, deadline=None)
def test_static_kind_matches_dynamic(text):
    src = f"""
module km
  implicit none
  real(kind=8) :: d_mod
  real(kind=4) :: s_mod
contains
  subroutine host(out8)
    implicit none
    real(kind=8), intent(out) :: out8
    real(kind=4) :: s_loc
    real(kind=8) :: d_loc
    real(kind=8) :: probe8
    real(kind=4) :: probe4
    s_loc = 0.5
    d_loc = 0.25d0
    d_mod = 0.75d0
    s_mod = 1.5
    probe8 = {text}
    out8 = probe8
  end subroutine host
end module km
"""
    index = analyze(parse_source(src))
    stmt = index.procedures["km::host"].node.body[4]
    static_kind = infer_kind(stmt.value, index, "km::host")

    interp = Interpreter(index)
    frame_probe = {}

    # Evaluate the expression dynamically by calling host and capturing
    # the expression value through a direct evaluation.
    expr = stmt.value
    scope = index.scopes["km::host"]
    box = OutBox(None)
    interp.call("host", [box])
    # Re-evaluate the expression in a fresh frame with the same values.
    frame = interp._make_frame("km::host", scope, vec_inherit=False)
    for name, value in [("s_loc", np.float32(0.5)),
                        ("d_loc", np.float64(0.25))]:
        frame.values[name] = value
    interp._module_frame("km").values["d_mod"] = np.float64(0.75)
    interp._module_frame("km").values["s_mod"] = np.float32(1.5)
    dynamic_kind = kind_of(interp._eval(expr, frame))
    if static_kind is None:
        # Only non-conforming programs land here (e.g. sin(3), which real
        # Fortran rejects but NumPy promotes to float64); a conforming
        # integer expression stays integer.
        assert dynamic_kind in (None, 8)
    else:
        assert dynamic_kind == static_kind


class TestCallGraphs:
    @pytest.fixture(scope="class")
    def graphs(self):
        return build_graphs(analyze(parse_source(MPAS_SOURCE)))

    def test_call_graph_edges(self, graphs):
        cg = graphs.call_graph
        assert cg.has_edge("atm_time_integration::atm_compute_dyn_tend_work",
                           "atm_time_integration::flux3")
        assert cg.has_edge("atm_time_integration::flux3",
                           "atm_time_integration::flux4")
        assert cg.has_edge("mpas_driver::run_mpas",
                           "atm_time_integration::atm_advance_acoustic_step_work")

    def test_bindings_track_dummies(self, graphs):
        sites = graphs.sites_for_callee("atm_time_integration::flux4")
        assert sites
        for site in sites:
            dummies = {b.dummy_qualified for b in site.bindings}
            assert "atm_time_integration::flux4::ua" in dummies

    def test_mismatched_under_overlay(self, graphs):
        overlay = {"atm_time_integration::flux4::ua": 4}
        mismatched_sites = [s for s in graphs.sites if s.mismatched(overlay)]
        assert mismatched_sites
        assert all(not s.mismatched({}) for s in graphs.sites)

    def test_flow_graph_has_array_elements_hint(self, graphs):
        fg = graphs.flow_graph
        heavy = [
            (u, v, d) for u, v, d in fg.edges(data=True)
            if d.get("elements", 1) > 1
        ]
        assert heavy  # array arguments carry element hints


class TestSearchResultSerialization:
    def test_search_result_to_dict(self, funarc_case, funarc_evaluator):
        from repro.core import DeltaDebugSearch, FunctionOracle
        from repro.core.results import search_result_to_dict
        res = DeltaDebugSearch().run(
            funarc_case.space, FunctionOracle(fn=funarc_evaluator.evaluate))
        payload = search_result_to_dict(res)
        assert payload["algorithm"] == "delta-debug"
        assert payload["evaluations"] == len(payload["records"])
        assert isinstance(payload["best_speedup"], float)


#: ``leave`` ends with an ``exit`` or ``cycle`` that no DO construct of
#: its own encloses, and its caller calls it from inside a loop.
_LOOP_CONTROL_SRC = """\
module lv
  implicit none
contains
  subroutine leave(x)
    implicit none
    real(kind=8), intent(inout) :: x
    x = x + 1.0d0
    if (x > 2.5d0) {word}
  end subroutine leave

  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: x
    integer :: i
    x = 0.0d0
    do i = 1, 5
      call leave(x)
      x = x + 0.125d0
    end do
    out = x
  end subroutine driver
end module lv
"""


class TestLoopControl:
    @pytest.mark.parametrize("word", ["exit", "cycle"])
    def test_outside_its_procedures_loops_is_refused(self, word):
        # Invalid Fortran, which the engines used to run differently:
        # the walker and compiled engines left the caller's loop (2.25),
        # a batched lane kept looping (5.625).
        source = _LOOP_CONTROL_SRC.format(word=word)
        with pytest.raises(SemanticError,
                           match=f"{word} outside a DO construct at line 8"):
            analyze(parse_source(source))

    @pytest.mark.parametrize("word", ["exit", "cycle"])
    def test_inside_a_loop_of_its_own_procedure_is_accepted(self, word):
        source = _LOOP_CONTROL_SRC.format(word=word).replace(
            f"    if (x > 2.5d0) {word}\n",
            f"    do k = 1, 3\n"
            f"      select case (k)\n"
            f"      case (2)\n"
            f"        if (x > 2.5d0) {word}\n"
            f"      end select\n"
            f"      x = x + 0.5d0\n"
            f"    end do\n").replace(
            "    real(kind=8), intent(inout) :: x\n",
            "    real(kind=8), intent(inout) :: x\n    integer :: k\n")
        index = analyze(parse_source(source))
        box = OutBox(None)
        Interpreter(index).call("driver", [box])
        assert box.value > 0.0


_INTRINSIC_CALL_SRC = """
subroutine calls(x, y, o)
  implicit none
  real(kind=8), dimension(3) :: x, y, o
  real(kind=8), dimension(3) :: sum
  integer :: n
  o = x
  {stmt}
end subroutine calls
"""


class TestIntrinsicCalls:
    @pytest.mark.parametrize("stmt,reason", [
        # NumPy took ``y`` as sqrt's ``out`` buffer and overwrote it.
        ("o = sqrt(x, y)", "takes 1 positional argument"),
        ("o(1) = abs()", "takes 1 positional argument"),
        ("o(1) = maxval(x, dim=1)", "unexpected keyword argument 'dim'"),
    ])
    def test_call_its_implementation_cannot_take_is_refused(self, stmt,
                                                            reason):
        with pytest.raises(SemanticError,
                           match=f"intrinsic '\\w+': .*{reason}.* at line 8"):
            analyze(parse_source(_INTRINSIC_CALL_SRC.format(stmt=stmt)))

    @pytest.mark.parametrize("stmt", [
        "n = size(x, dim=1)", "o = sqrt(x)", "o(1) = sum(2)"])
    def test_calls_it_can_take_are_accepted(self, stmt):
        # A declared array named ``sum`` stays an array reference.
        analyze(parse_source(_INTRINSIC_CALL_SRC.format(stmt=stmt)))
