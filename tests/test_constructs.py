"""Tests for the select-case and where constructs across the pipeline."""

import numpy as np
import pytest

from repro.errors import ParseError
from repro.fortran import (CompiledInterpreter, Interpreter, OutBox, analyze,
                           analyze_program, make_array, parse_source, unparse)
from repro.numerics import ShadowInterpreter
from repro.perf import ledger_fingerprint


def run(src, name, args):
    index = analyze(parse_source(src))
    interp = Interpreter(index, vec_info=analyze_program(index))
    return interp.call(name, args), interp


SELECT_SRC = """
subroutine classify(code, label)
  implicit none
  integer :: code
  integer, intent(out) :: label
  select case (code)
  case (1)
    label = 100
  case (2, 3)
    label = 200
  case (10:19)
    label = 300
  case default
    label = -1
  end select
end subroutine classify
"""


class TestSelectCase:
    @pytest.mark.parametrize("code,expected", [
        (1, 100), (2, 200), (3, 200), (10, 300), (15, 300), (19, 300),
        (4, -1), (20, -1), (0, -1),
    ])
    def test_dispatch(self, code, expected):
        box = OutBox(0)
        run(SELECT_SRC, "classify", [code, box])
        assert box.value == expected

    def test_no_default_no_match_is_noop(self):
        src = """
subroutine pick(code, label)
  implicit none
  integer :: code
  integer, intent(out) :: label
  label = 7
  select case (code)
  case (1)
    label = 1
  end select
end subroutine pick
"""
        box = OutBox(0)
        run(src, "pick", [99, box])
        assert box.value == 7

    def test_round_trip(self):
        once = unparse(parse_source(SELECT_SRC))
        assert "select case (code)" in once
        assert "case (2, 3)" in once
        assert "case (10:19)" in once
        assert "case default" in once
        assert unparse(parse_source(once)) == once

    def test_statement_before_case_rejected(self):
        with pytest.raises(ParseError):
            parse_source("""
subroutine s(code)
  integer :: code
  select case (code)
  code = 1
  end select
end subroutine s
""")

    def test_nested_in_loop(self):
        src = """
subroutine tally(n, total)
  implicit none
  integer :: n, i
  integer, intent(out) :: total
  total = 0
  do i = 1, n
    select case (mod(i, 3))
    case (0)
      total = total + 100
    case default
      total = total + 1
    end select
  end do
end subroutine tally
"""
        box = OutBox(0)
        run(src, "tally", [6, box])
        assert box.value == 2 * 100 + 4 * 1


WHERE_SRC = """
subroutine clip(n, x, floor_val)
  implicit none
  integer :: n
  real(kind=8) :: floor_val
  real(kind=8), dimension(n) :: x
  where (x < floor_val)
    x = floor_val
  elsewhere
    x = x * 2.0d0
  end where
end subroutine clip
"""


class TestWhere:
    def test_block_where_elsewhere(self):
        x = make_array(4, kind=8)
        x.data[:] = [-1.0, 0.5, 2.0, -3.0]
        run(WHERE_SRC, "clip", [4, x, np.float64(0.0)])
        np.testing.assert_allclose(x.data, [0.0, 1.0, 4.0, 0.0])

    def test_one_line_where(self):
        src = """
subroutine mask_neg(n, x)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x
  where (x < 0.0d0) x = 0.0d0
end subroutine mask_neg
"""
        x = make_array(3, kind=8)
        x.data[:] = [-1.0, 2.0, -3.0]
        run(src, "mask_neg", [3, x])
        np.testing.assert_allclose(x.data, [0.0, 2.0, 0.0])

    def test_masked_elsewhere_chain(self):
        src = """
subroutine bands(n, x, y)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x, y
  where (x > 1.0d0)
    y = 2.0d0
  elsewhere (x > 0.0d0)
    y = 1.0d0
  elsewhere
    y = 0.0d0
  end where
end subroutine bands
"""
        x = make_array(3, kind=8)
        x.data[:] = [2.0, 0.5, -1.0]
        y = make_array(3, kind=8)
        run(src, "bands", [3, x, y])
        np.testing.assert_allclose(y.data, [2.0, 1.0, 0.0])

    def test_where_counts_as_vector_ops(self):
        x = make_array(8, kind=8, fill=-1.0)
        _, interp = run(WHERE_SRC, "clip", [8, x, np.float64(0.0)])
        stores = [k for k in interp.ledger.ops if k.opclass == "store"]
        assert stores and all(k.vec for k in stores)

    def test_round_trip(self):
        once = unparse(parse_source(WHERE_SRC))
        assert "where (x < floor_val)" in once
        assert "elsewhere" in once
        assert "end where" in once
        assert unparse(parse_source(once)) == once

    def test_where_respects_precision(self):
        src = """
subroutine scale_pos(n, x)
  implicit none
  integer :: n
  real(kind=4), dimension(n) :: x
  where (x > 0.0) x = x * 0.1
end subroutine scale_pos
"""
        x = make_array(3, kind=4)
        x.data[:] = [1.0, -1.0, 2.0]
        run(src, "scale_pos", [3, x])
        assert x.data.dtype == np.float32
        np.testing.assert_allclose(
            x.data, np.float32([1.0, -1.0, 2.0]) * np.float32([0.1, 1, 0.1]))


#: Subscripted where targets: a slice with an elsewhere arm, a vector
#: subscript (a gather, whose selection NumPy returns as a copy), and a
#: strided slice storing a kind-8 section into a kind-4 one.
SECTION_WHERE_SRC = """
subroutine clip_tail(x, y)
  implicit none
  real(kind=8), dimension(4) :: x
  real(kind=4), dimension(4) :: y
  integer, dimension(2) :: idx
  idx(1) = 4
  idx(2) = 1
  where (x(3:4) < 0.0d0)
    x(3:4) = 0.0d0
  elsewhere
    x(3:4) = x(3:4) * 2.0d0
  end where
  where (x(idx) > 0.0d0) x(idx) = -x(idx)
  where (y(1:3:2) > 1.0) y(1:3:2) = x(1:2)
end subroutine clip_tail
"""

_ENGINES = [Interpreter, CompiledInterpreter, ShadowInterpreter]


def _clip_tail(engine):
    index = analyze(parse_source(SECTION_WHERE_SRC))
    interp = engine(index, vec_info=analyze_program(index))
    x = make_array(4, kind=8)
    x.data[:] = [-1.0, -2.0, -3.0, 0.5]
    y = make_array(4, kind=4)
    y.data[:] = [2.0, 5.0, 0.5, 7.0]
    interp.call("clip_tail", [x, y])
    return interp, x, y


class TestSectionWhere:
    """A subscripted where target masks and stores its section only."""

    @pytest.mark.parametrize("engine", _ENGINES,
                             ids=[e.__name__ for e in _ENGINES])
    def test_stores_only_the_section(self, engine):
        _, x, y = _clip_tail(engine)
        np.testing.assert_array_equal(x.data, [-1.0, -2.0, 0.0, -1.0])
        np.testing.assert_array_equal(
            y.data, np.float32([-1.0, 5.0, 0.5, 7.0]))

    def test_engines_charge_alike(self):
        prints = {engine.__name__: ledger_fingerprint(
            _clip_tail(engine)[0].ledger) for engine in _ENGINES}
        assert len(set(prints.values())) == 1, prints

    def test_shadow_writes_the_same_section(self):
        interp, x, y = _clip_tail(ShadowInterpreter)
        np.testing.assert_array_equal(interp._sh_arr_get(x), x.data)
        np.testing.assert_array_equal(interp._sh_arr_get(y),
                                      [-1.0, 5.0, 0.5, 7.0])
