"""Shared fixtures.

Model cases build parser/analyzer artifacts lazily and cache them per
instance, so session-scoped fixtures keep the suite fast.  Baseline
executions (the expensive part) are likewise shared.
"""

from __future__ import annotations

import pytest

from repro.core import Evaluator
from repro.core.evaluation import BACKENDS
from repro.fortran import analyze, analyze_program, parse_source
from repro.models import AdcircCase, FunarcCase, Mom6Case, MpasCase

FUNARC_N = 200


def pytest_addoption(parser):
    group = parser.getgroup("fuzz", "backend differential fuzzing")
    group.addoption(
        "--fuzz-seed", type=int, default=None,
        help="seed for tests/test_fuzz_differential.py's random program "
             "generator (default: the suite's fixed seed; CI also runs "
             "one fresh seed per workflow run)")
    group.addoption(
        "--fuzz-count", type=int, default=None,
        help="number of random programs to run through both execution "
             "backends (default: the suite's standard budget)")
    chaos = parser.getgroup("chaos", "fault-injection chaos testing")
    chaos.addoption(
        "--chaos-seed", type=int, default=None,
        help="seed for tests/test_chaos_matrix.py's random fault-plan "
             "generator (default: the suite's fixed seed; CI also runs "
             "one fresh seed per workflow run)")
    chaos.addoption(
        "--backend", default=None, choices=BACKENDS,
        help="execution backend for tests/test_chaos_matrix.py's "
             "campaigns (default: the CampaignConfig default; CI smokes "
             "the batched backend to prove crash/resume byte-identity "
             "is backend-agnostic)")


@pytest.fixture(scope="session")
def funarc_case() -> FunarcCase:
    return FunarcCase(n=FUNARC_N)


@pytest.fixture(scope="session")
def funarc_evaluator(funarc_case) -> Evaluator:
    return Evaluator(funarc_case)


@pytest.fixture(scope="session")
def mpas_small() -> MpasCase:
    return MpasCase.small()


@pytest.fixture(scope="session")
def adcirc_small() -> AdcircCase:
    return AdcircCase.small()


@pytest.fixture(scope="session")
def mom6_small() -> Mom6Case:
    return Mom6Case.small()


SIMPLE_MODULE = """
module simple
  implicit none
  integer, parameter :: r8 = 8
  real(kind=r8) :: accum
contains
  function square(x) result(y)
    implicit none
    real(kind=8) :: x, y
    y = x * x
  end function square

  subroutine accumulate(n, values, total)
    implicit none
    integer :: n, i
    real(kind=8), dimension(n) :: values
    real(kind=8), intent(out) :: total
    total = 0.0d0
    do i = 1, n
      total = total + square(values(i))
    end do
  end subroutine accumulate
end module simple
"""


@pytest.fixture(scope="session")
def simple_ast():
    return parse_source(SIMPLE_MODULE)


@pytest.fixture(scope="session")
def simple_index(simple_ast):
    return analyze(simple_ast)


@pytest.fixture(scope="session")
def simple_vec(simple_index):
    return analyze_program(simple_index)
