"""Static vectorization analysis tests — the compiler-report stand-in."""

from repro.fortran import analyze, analyze_program, parse_source


def analyze_src(src):
    index = analyze(parse_source(src))
    return analyze_program(index), index


def loop_verdicts(vec, qual):
    return vec.procs[qual].loops


class TestLoopVerdicts:
    def test_clean_elementwise_loop_vectorizes(self):
        vec, _ = analyze_src("""
subroutine s(n, x, y)
  implicit none
  integer :: n, i
  real(kind=8), dimension(n) :: x, y
  do i = 1, n
    y(i) = 2.0d0 * x(i) + 1.0d0
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert v.vectorizable

    def test_recurrence_blocks_vectorization(self):
        vec, _ = analyze_src("""
subroutine s(n, x)
  implicit none
  integer :: n, i
  real(kind=8), dimension(n) :: x
  do i = 2, n
    x(i) = x(i - 1) * 0.5d0
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert not v.vectorizable
        assert any("loop-carried dependency" in r for r in v.reasons)

    def test_scalar_reduction_allowed(self):
        vec, _ = analyze_src("""
subroutine s(n, x, total)
  implicit none
  integer :: n, i
  real(kind=8), dimension(n) :: x
  real(kind=8), intent(out) :: total
  total = 0.0d0
  do i = 1, n
    total = total + x(i)
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert v.vectorizable

    def test_call_to_large_procedure_blocks(self):
        vec, _ = analyze_src("""
module m
contains
  subroutine big(v)
    implicit none
    real(kind=8) :: v
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
    v = v * 2.0d0
    v = v + 1.0d0
  end subroutine big

  subroutine loop(n, x)
    implicit none
    integer :: n, i
    real(kind=8), dimension(n) :: x
    do i = 1, n
      call big(x(i))
    end do
  end subroutine loop
end module m
""")
        assert not vec.inlinable["big"]  # 17 statements > limit
        (v,) = loop_verdicts(vec, "m::loop")
        assert not v.vectorizable

    def test_inlinable_call_allows_vectorization(self):
        vec, _ = analyze_src("""
module m
contains
  function f(v) result(w)
    implicit none
    real(kind=8) :: v, w
    w = v * 2.0d0
  end function f

  subroutine loop(n, x, y)
    implicit none
    integer :: n, i
    real(kind=8), dimension(n) :: x, y
    do i = 1, n
      y(i) = f(x(i))
    end do
  end subroutine loop
end module m
""")
        assert vec.inlinable["f"]
        (v,) = loop_verdicts(vec, "m::loop")
        assert v.vectorizable
        assert "f" in v.calls

    def test_indirect_store_blocks(self):
        vec, _ = analyze_src("""
subroutine s(n, idx, x, y)
  implicit none
  integer :: n, i
  integer, dimension(n) :: idx
  real(kind=8), dimension(n) :: x, y
  do i = 1, n
    y(idx(i)) = x(i)
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert not v.vectorizable
        assert any("scatter" in r for r in v.reasons)

    def test_gather_load_permitted(self):
        vec, _ = analyze_src("""
subroutine s(n, idx, x, y)
  implicit none
  integer :: n, i
  integer, dimension(n) :: idx
  real(kind=8), dimension(n) :: x, y
  do i = 1, n
    y(i) = x(idx(i))
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert v.vectorizable
        assert v.has_gather

    def test_exit_blocks_vectorization(self):
        vec, _ = analyze_src("""
subroutine s(n, x)
  implicit none
  integer :: n, i
  real(kind=8), dimension(n) :: x
  do i = 1, n
    if (x(i) < 0.0d0) exit
    x(i) = sqrt(x(i))
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert not v.vectorizable

    def test_outer_loop_not_a_candidate(self):
        vec, _ = analyze_src("""
subroutine s(n, a)
  implicit none
  integer :: n, i, j
  real(kind=8), dimension(n, n) :: a
  do j = 1, n
    do i = 1, n
      a(i, j) = 0.0d0
    end do
  end do
end subroutine s
""")
        verdicts = loop_verdicts(vec, "s")
        assert len(verdicts) == 1  # only the innermost loop
        assert verdicts[0].vectorizable

    def test_predicated_body_vectorizes(self):
        vec, _ = analyze_src("""
subroutine s(n, x)
  implicit none
  integer :: n, i
  real(kind=8), dimension(n) :: x
  do i = 1, n
    if (x(i) < 0.0d0) then
      x(i) = 0.0d0
    end if
  end do
end subroutine s
""")
        (v,) = loop_verdicts(vec, "s")
        assert v.vectorizable


#: A loop whose ``select case`` calls a non-inlinable subroutine in one
#: case and carries a dependency on ``x`` in the other.
_CASE_LOOP_SRC = """
module m
  implicit none
contains
  subroutine heavy(a)
    real(kind=8), intent(inout) :: a
    integer :: j
    do j = 1, 3
      a = a + 1.0d0
    end do
  end subroutine heavy
  subroutine s(n, mode, x)
    integer, intent(in) :: n, mode
    real(kind=8), dimension(n), intent(inout) :: x
    integer :: i
    do i = 2, n
      select case (mode)
      case (1)
        call heavy(x(i))
      case default
        x(i) = x(i - 1) + 1.0d0
      end select
    end do
  end subroutine s
end module m
"""

#: A loop whose ``where`` mask reads a scalar the loop also carries.
_WHERE_LOOP_SRC = """
subroutine s(n, x, y)
  implicit none
  integer :: n, i
  real(kind=8) :: t
  real(kind=8), dimension(n) :: x, y
  t = 0.0d0
  do i = 1, n
    where (y > t)
      y = 0.0d0
    end where
    t = x(i)
  end do
end subroutine s
"""


def _loop_body_flags(vec, index, qual):
    """The vectorization flag of each statement in *qual*'s first loop
    and in the case or where blocks nested there."""
    from repro.fortran import ast_nodes as F

    loop = next(s for s in index.scopes[qual].node.body
                if isinstance(s, F.DoLoop))
    flags = vec.stmt_vec(qual)
    out = []
    for stmt in loop.body:
        out.append(flags.get(id(stmt)))
        arms = (stmt.cases if isinstance(stmt, F.SelectCase)
                else stmt.arms if isinstance(stmt, F.WhereConstruct)
                else ())
        out.extend(flags.get(id(inner)) for arm in arms
                   for inner in arm.body)
    return out


class TestNestedConstructsInLoops:
    """A ``select case`` or ``where`` in a loop body counts toward the
    loop's verdict, and every statement nested in it carries that
    verdict, so the report and the charged keys agree."""

    def test_select_case_calls_and_dependencies_count(self):
        vec, index = analyze_src(_CASE_LOOP_SRC)
        (v,) = loop_verdicts(vec, "m::s")
        assert not v.vectorizable
        assert v.reasons == ["call to non-inlinable subroutine heavy",
                             "loop-carried dependency on array x"]
        assert "NOT VECTORIZED" in v.render()
        assert _loop_body_flags(vec, index, "m::s") == [False] * 3

    def test_where_mask_reads_count(self):
        vec, index = analyze_src(_WHERE_LOOP_SRC)
        (v,) = loop_verdicts(vec, "s")
        assert not v.vectorizable
        assert v.reasons == ["loop-carried scalar recurrence on t"]
        assert _loop_body_flags(vec, index, "s") == [False] * 3


class TestModelExpectations:
    def test_mpas_dyn_tend_vectorizes(self, mpas_small):
        vec = mpas_small.vec_info
        info = vec.procs[
            "atm_time_integration::atm_compute_dyn_tend_work"]
        assert all(v.vectorizable for v in info.loops)
        assert vec.inlinable["flux3"] and vec.inlinable["flux4"]

    def test_adcirc_pjac_does_not_vectorize(self, adcirc_small):
        vec = adcirc_small.vec_info
        info = vec.procs["itpackv::pjac"]
        assert any(not v.vectorizable for v in info.loops)

    def test_report_renders(self, mpas_small):
        report = mpas_small.vec_info.report()
        assert "VECTORIZED" in report
