"""Interpreter tests: execution semantics, arrays, calls, errors."""

import numpy as np
import pytest

from repro.errors import (FortranRuntimeError, FortranStopError,
                          InterpreterLimitError)
from repro.fortran import (CompiledInterpreter, Interpreter, OutBox,
                           VariantBatch, analyze, analyze_program, make_array,
                           parse_source)
from repro.perf import ledger_fingerprint


def run_proc(src, name, args, overlay=None, max_ops=None):
    index = analyze(parse_source(src))
    vec = analyze_program(index)
    interp = Interpreter(index, overlay=overlay, vec_info=vec,
                         max_ops=max_ops)
    result = interp.call(name, args)
    return result, interp


class TestBasics:
    def test_function_result(self, simple_index, simple_vec):
        interp = Interpreter(simple_index, vec_info=simple_vec)
        out = interp.call("square", [np.float64(3.0)])
        assert out == 9.0 and out.dtype == np.float64

    def test_out_argument_via_box(self, simple_index, simple_vec):
        interp = Interpreter(simple_index, vec_info=simple_vec)
        values = make_array(3, kind=8)
        values.data[:] = [1.0, 2.0, 3.0]
        box = OutBox(None)
        interp.call("accumulate", [3, values, box])
        assert float(box.value) == 14.0

    def test_module_variable_state(self):
        src = """
module m
  implicit none
  real(kind=8) :: counter
contains
  subroutine bump()
    counter = counter + 1.0d0
  end subroutine bump
  function read_counter() result(c)
    real(kind=8) :: c
    c = counter
  end function read_counter
end module m
"""
        index = analyze(parse_source(src))
        interp = Interpreter(index)
        interp.call("bump")
        interp.call("bump")
        assert float(interp.call("read_counter")) == 2.0

    def test_main_program(self):
        src = """
program demo
  implicit none
  integer :: i
  real(kind=8) :: s
  s = 0.0d0
  do i = 1, 4
    s = s + i
  end do
  print *, s
end program demo
"""
        index = analyze(parse_source(src))
        interp = Interpreter(index)
        interp.run_main()
        assert interp.stdout == ["10.0"]


class TestControlFlow:
    SRC = """
subroutine classify(x, label)
  implicit none
  real(kind=8) :: x
  integer, intent(out) :: label
  if (x > 1.0d0) then
    label = 1
  else if (x < -1.0d0) then
    label = -1
  else
    label = 0
  end if
end subroutine classify
"""

    @pytest.mark.parametrize("x,expected", [(2.0, 1), (-2.0, -1), (0.5, 0)])
    def test_if_chain(self, x, expected):
        box = OutBox(0)
        run_proc(self.SRC, "classify", [np.float64(x), box])
        assert box.value == expected

    def test_exit_and_cycle(self):
        src = """
subroutine count_odd(n, total)
  implicit none
  integer :: n, i
  integer, intent(out) :: total
  total = 0
  do i = 1, n
    if (mod(i, 2) == 0) cycle
    if (i > 7) exit
    total = total + 1
  end do
end subroutine count_odd
"""
        box = OutBox(0)
        run_proc(src, "count_odd", [100, box])
        assert box.value == 4  # 1, 3, 5, 7

    def test_do_while(self):
        src = """
subroutine halve(x, steps)
  implicit none
  real(kind=8) :: x
  integer, intent(out) :: steps
  steps = 0
  do while (x > 1.0d0)
    x = x * 0.5d0
    steps = steps + 1
  end do
end subroutine halve
"""
        box = OutBox(0)
        run_proc(src, "halve", [np.float64(10.0), box])
        assert box.value == 4

    def test_negative_step_loop(self):
        src = """
subroutine countdown(n, seq)
  implicit none
  integer :: n, i, j
  integer, dimension(n) :: seq
  j = 0
  do i = n, 1, -1
    j = j + 1
    seq(j) = i
  end do
end subroutine countdown
"""
        seq = make_array(4, kind=None)
        run_proc(src, "countdown", [4, seq])
        assert list(seq.data) == [4, 3, 2, 1]


class TestArrays:
    def test_whole_array_ops(self):
        src = """
subroutine axpy(n, a, x, y)
  implicit none
  integer :: n
  real(kind=8) :: a
  real(kind=8), dimension(n) :: x, y
  y(:) = y(:) + a * x(:)
end subroutine axpy
"""
        x = make_array(3, kind=8, fill=2.0)
        y = make_array(3, kind=8, fill=1.0)
        run_proc(src, "axpy", [3, np.float64(10.0), x, y])
        np.testing.assert_allclose(y.data, [21.0, 21.0, 21.0])

    def test_sections_with_shift(self):
        src = """
subroutine diff(n, x, d)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x, d
  d(1:n-1) = x(2:n) - x(1:n-1)
  d(n) = 0.0d0
end subroutine diff
"""
        x = make_array(4, kind=8)
        x.data[:] = [1.0, 3.0, 6.0, 10.0]
        d = make_array(4, kind=8)
        run_proc(src, "diff", [4, x, d])
        np.testing.assert_allclose(d.data, [2.0, 3.0, 4.0, 0.0])

    def test_2d_array_and_column_section(self):
        src = """
subroutine colsum(ni, nk, a, s)
  implicit none
  integer :: ni, nk, k
  real(kind=8), dimension(ni, nk) :: a
  real(kind=8), dimension(ni) :: s
  s(:) = 0.0d0
  do k = 1, nk
    s(:) = s(:) + a(1:ni, k)
  end do
end subroutine colsum
"""
        a = make_array((2, 3), kind=8)
        a.data[:] = [[1, 2, 3], [4, 5, 6]]
        s = make_array(2, kind=8)
        run_proc(src, "colsum", [2, 3, a, s])
        np.testing.assert_allclose(s.data, [6.0, 15.0])

    def test_vector_subscript_gather(self):
        src = """
subroutine gather(n, idx, x, y)
  implicit none
  integer :: n, i
  integer, dimension(n) :: idx
  real(kind=8), dimension(n) :: x, y
  do i = 1, n
    y(i) = x(idx(i))
  end do
end subroutine gather
"""
        idx = make_array(3, kind=None)
        idx.data[:] = [3, 1, 2]
        x = make_array(3, kind=8)
        x.data[:] = [10.0, 20.0, 30.0]
        y = make_array(3, kind=8)
        run_proc(src, "gather", [3, idx, x, y])
        np.testing.assert_allclose(y.data, [30.0, 10.0, 20.0])

    def test_allocatable_lifecycle(self):
        src = """
subroutine use_alloc(n, total)
  implicit none
  integer :: n, i
  real(kind=8), intent(out) :: total
  real(kind=8), dimension(:), allocatable :: work
  allocate(work(n))
  do i = 1, n
    work(i) = i
  end do
  total = sum(work)
  deallocate(work)
end subroutine use_alloc
"""
        box = OutBox(None)
        run_proc(src, "use_alloc", [4, box])
        assert float(box.value) == 10.0

    def test_out_of_bounds_is_runtime_error(self):
        src = """
subroutine oob(n, x)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x
  x(n + 1) = 1.0d0
end subroutine oob
"""
        with pytest.raises(FortranRuntimeError):
            run_proc(src, "oob", [3, make_array(3, kind=8)])


class TestCallsAndWriteback:
    def test_array_aliasing_matched_kinds(self):
        src = """
subroutine fill(n, x)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x
  x(:) = 5.0d0
end subroutine fill
"""
        x = make_array(3, kind=8)
        run_proc(src, "fill", [3, x])
        np.testing.assert_allclose(x.data, 5.0)

    def test_mismatched_array_copy_in_out(self):
        src = """
subroutine fill(n, x)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x
  x(:) = 0.1d0
end subroutine fill
"""
        x = make_array(3, kind=4)
        _, interp = run_proc(src, "fill", [3, x],
                             overlay=None)
        # dummy is fp64, actual fp32: results come back rounded to fp32
        np.testing.assert_allclose(x.data, np.float32(0.1))
        assert sum(v[1] for v in interp.ledger.calls.values()) == 1

    def test_section_actual_argument_writeback(self):
        src = """
subroutine bump(n, x)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x
  x(:) = x(:) + 1.0d0
end subroutine bump

subroutine driver(m, y)
  implicit none
  integer :: m
  real(kind=8), dimension(m) :: y
  call bump(2, y(2:3))
end subroutine driver
"""
        y = make_array(4, kind=8)
        run_proc(src, "driver", [4, y])
        np.testing.assert_allclose(y.data, [0.0, 1.0, 1.0, 0.0])

    def test_intent_in_scalar_not_written_back(self):
        src = """
subroutine reads(x, y)
  implicit none
  real(kind=8), intent(in) :: x
  real(kind=8), intent(out) :: y
  y = x * 2.0d0
end subroutine reads
"""
        xbox = OutBox(np.float64(3.0))
        ybox = OutBox(None)
        run_proc(src, "reads", [xbox, ybox])
        assert float(ybox.value) == 6.0

    def test_save_variable_persists(self):
        src = """
subroutine counter(c)
  implicit none
  integer, intent(out) :: c
  real(kind=8), save :: state = 0.0d0
  state = state + 1.0d0
  c = int(state)
end subroutine counter
"""
        index = analyze(parse_source(src))
        interp = Interpreter(index)
        box = OutBox(0)
        interp.call("counter", [box])
        interp.call("counter", [box])
        interp.call("counter", [box])
        assert box.value == 3

    def test_wrong_arity_rejected(self, simple_index):
        interp = Interpreter(simple_index)
        with pytest.raises(FortranRuntimeError):
            interp.call("square", [np.float64(1.0), np.float64(2.0)])


class TestErrorsAndLimits:
    def test_error_stop_raises(self):
        src = """
subroutine guard(x)
  implicit none
  real(kind=8) :: x
  if (x < 0.0d0) error stop 'negative input'
end subroutine guard
"""
        with pytest.raises(FortranStopError, match="negative input"):
            run_proc(src, "guard", [np.float64(-1.0)])
        run_proc(src, "guard", [np.float64(1.0)])  # no raise

    def test_op_budget_enforced(self):
        src = """
subroutine spin(x)
  implicit none
  real(kind=8) :: x
  do while (x >= 0.0d0)
    x = x + 1.0d0
  end do
end subroutine spin
"""
        with pytest.raises(InterpreterLimitError):
            run_proc(src, "spin", [np.float64(0.0)], max_ops=5000)

    def test_allreduce_builtin_recorded(self):
        src = """
subroutine reduce_it(n, x, total)
  implicit none
  integer :: n
  real(kind=8), dimension(n) :: x
  real(kind=8), intent(out) :: total
  total = sum(x)
  call mpi_allreduce_sum(total)
end subroutine reduce_it
"""
        x = make_array(4, kind=8, fill=1.0)
        box = OutBox(None)
        _, interp = run_proc(src, "reduce_it", [4, x, box])
        assert float(box.value) == 4.0
        assert sum(v[0] for v in interp.ledger.allreduce.values()) == 1

    def test_derived_type_components(self):
        src = """
module m
  implicit none
  type :: state
    real(kind=8) :: t
    real(kind=8), dimension(3) :: v
  end type state
contains
  subroutine use_state(out)
    implicit none
    real(kind=8), intent(out) :: out
    type(state) :: s
    s%t = 2.0d0
    s%v(1) = 1.0d0
    s%v(2) = 2.0d0
    s%v(3) = 3.0d0
    out = s%t * sum(s%v)
  end subroutine use_state
end module m
"""
        box = OutBox(None)
        run_proc(src, "use_state", [box])
        assert float(box.value) == 12.0


#: ``j`` reaches the power as a lane-uniform integer; ``k``, rounded
#: from a real whose kind the wave tunes, as a per-lane one.
_INT_POW_SRC = """
subroutine ipow(i, j, out, out_k)
  implicit none
  integer :: i, j, k
  real(kind=8) :: x
  real(kind=8), intent(out) :: out, out_k
  out = i ** j
  x = j
  k = nint(x)
  out_k = i ** k
end subroutine ipow
"""

#: The same powers, the per-lane one first: a zero base then meets its
#: negative exponent on the wave's per-lane path.
_PER_LANE_FIRST_SRC = """
subroutine ipow(i, j, out, out_k)
  implicit none
  integer :: i, j, k
  real(kind=8) :: x
  real(kind=8), intent(out) :: out, out_k
  x = j
  k = nint(x)
  out_k = i ** k
  out = i ** j
end subroutine ipow
"""


def _int_pow_everywhere(i, j, source=_INT_POW_SRC):
    """(out, out_k) or the error message, and the ledger, of the walker,
    the compiled engine and a lane of one 2-lane wave, per lane's
    overlay; and the wave's vector lanes, fallback lanes and reasons."""
    index = analyze(parse_source(source))
    vec = analyze_program(index)
    overlays = [{}, {"ipow::x": 4}]
    batch = VariantBatch(index, overlays, vec_info=vec)
    results = []
    for lane, overlay in enumerate(overlays):
        for interp in (Interpreter(index, overlay=overlay, vec_info=vec),
                       CompiledInterpreter(index, overlay=overlay,
                                           vec_info=vec),
                       batch.lane(lane)):
            boxes = [OutBox(None), OutBox(None)]
            try:
                interp.call("ipow", [i, j, *boxes])
                got = tuple(float(b.value) for b in boxes)
            except FortranRuntimeError as exc:
                got = str(exc)
            results.append((lane, got, ledger_fingerprint(interp.ledger)))
    stats = batch.stats()
    return results, (stats.vector_lanes, stats.fallback_lanes,
                     stats.fallback_reasons)


class TestIntegerPower:
    """An integer ``**`` stays an integer for a negative exponent:
    ``1/i**-j`` truncated toward zero, as Fortran computes it.  The wave
    keeps a per-lane negative exponent vectorized."""

    @pytest.mark.parametrize("i,j,expected", [
        (2, -1, 0.0), (-1, -1, -1.0), (-1, -2, 1.0), (1, -3, 1.0),
        (3, 2, 9.0), (-3, -1, 0.0)])
    def test_engines_give_the_integer_result(self, i, j, expected):
        results, wave = _int_pow_everywhere(i, j)
        assert [got for _, got, _ in results] == [(expected, expected)] * 6
        assert len({(lane, ledger) for lane, _, ledger in results}) == 2
        assert wave == (2, 0, {})

    def test_zero_base_divides_by_zero(self):
        results, wave = _int_pow_everywhere(0, -1)
        assert [got for _, got, _ in results] == [
            "integer division by zero"] * 6
        assert wave == (0, 2, {"integer division by zero": 2})

    def test_zero_base_with_a_per_lane_exponent_divides_by_zero(self):
        results, wave = _int_pow_everywhere(0, -1, _PER_LANE_FIRST_SRC)
        assert [got for _, got, _ in results] == [
            "integer division by zero"] * 6
        assert wave == (0, 2, {"integer division by zero": 2})


_OUTBOX_SRC = """
module m
  implicit none
contains
  subroutine drv(x, k)
    real(kind=8), intent(in) :: x
    integer, intent(out) :: k
    k = nint(x) + 2
  end subroutine drv
  subroutine test(x, flag)
    real(kind=8), intent(in) :: x
    logical, intent(out) :: flag
    flag = x > 1.0d0
  end subroutine test
end module m
"""


class TestOutBoxOfNothing:
    """``OutBox(None)`` binds an integer or logical dummy as its
    declared type's zero, as it binds a real dummy in the dummy's kind:
    every engine returns the procedure's value, not a TypeError."""

    def _everywhere(self, name):
        index = analyze(parse_source(_OUTBOX_SRC))
        vec = analyze_program(index)
        batch = VariantBatch(index, [{}, {"m::drv::x": 4}], vec_info=vec)
        got = []
        for interp in (Interpreter(index, vec_info=vec),
                       CompiledInterpreter(index, vec_info=vec),
                       batch.lane(0), batch.lane(1)):
            box = OutBox(None)
            interp.call(name, [np.float64(2.5), box])
            got.append((box.value, type(box.value),
                        ledger_fingerprint(interp.ledger)))
        stats = batch.stats()
        return got, (stats.vector_lanes, stats.fallback_lanes)

    def test_integer_dummy(self):
        got, wave = self._everywhere("drv")
        assert [(v, t) for v, t, _ in got] == [(4, int)] * 4
        assert len({ledger for *_, ledger in got[:3]}) == 1
        assert wave == (2, 0)

    def test_logical_dummy(self):
        got, wave = self._everywhere("test")
        assert [(v, t) for v, t, _ in got] == [(True, bool)] * 4
        assert len({ledger for *_, ledger in got[:3]}) == 1
        # The batched engine leaves logical dummies to the scalar path.
        assert wave == (0, 2)
