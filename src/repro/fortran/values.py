"""Runtime value model for the Fortran interpreter.

Reals are NumPy scalars/arrays (``float32`` for kind 4, ``float64`` for
kind 8) so mixed-precision arithmetic is bit-faithful to IEEE 754 — the
correctness side of every tuning experiment rests on this.  Integers are
Python ints (integer precision is never tuned), logicals are Python
bools, characters are Python strings.

Arrays are wrapped in :class:`FArray`, which carries per-dimension lower
bounds (Fortran arrays commonly start at 0 or custom bounds in the
miniature models) and the declared real kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..errors import FortranRuntimeError
from .symbols import KIND_DOUBLE, KIND_SINGLE

__all__ = [
    "FArray", "dtype_for_kind", "kind_of", "real_scalar", "cast_real",
    "element_count", "is_real_value", "promote_kinds", "relative_gap",
    "ulp_distance",
]

_DTYPES = {KIND_SINGLE: np.float32, KIND_DOUBLE: np.float64}
_KIND_BY_DTYPE = {np.dtype(np.float32): KIND_SINGLE, np.dtype(np.float64): KIND_DOUBLE}


def dtype_for_kind(kind: int) -> np.dtype:
    try:
        return np.dtype(_DTYPES[kind])
    except KeyError:
        raise FortranRuntimeError(f"unsupported real kind {kind}") from None


@dataclass
class FArray:
    """A Fortran array value: NumPy storage plus lower bounds and kind.

    ``kind`` is the declared real kind for real arrays and ``None`` for
    integer/logical arrays.  Storage is always C-contiguous NumPy; index
    mapping subtracts the per-dimension lower bound.
    """

    data: np.ndarray
    lbounds: tuple[int, ...]
    kind: int | None = None

    def __post_init__(self) -> None:
        if len(self.lbounds) != self.data.ndim:
            raise FortranRuntimeError(
                f"rank mismatch: {len(self.lbounds)} lower bounds for "
                f"{self.data.ndim}-d data"
            )

    # -- shape -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def lbound(self, dim: int) -> int:
        """1-based dim."""
        return self.lbounds[dim - 1]

    def ubound(self, dim: int) -> int:
        return self.lbounds[dim - 1] + self.data.shape[dim - 1] - 1

    # -- indexing ----------------------------------------------------------

    def _offset(self, indices: Iterable[int]) -> tuple[int, ...]:
        out = []
        for i, (idx, lb, n) in enumerate(zip(indices, self.lbounds, self.data.shape)):
            j = int(idx) - lb
            if j < 0 or j >= n:
                raise FortranRuntimeError(
                    f"index {idx} out of bounds [{lb}, {lb + n - 1}] "
                    f"in dimension {i + 1}"
                )
            out.append(j)
        return tuple(out)

    def get(self, indices: tuple[int, ...]):
        val = self.data[self._offset(indices)]
        if self.kind is not None:
            return val  # numpy scalar of the right dtype
        if self.data.dtype == np.bool_:
            return bool(val)
        return int(val)

    def set(self, indices: tuple[int, ...], value: Any) -> None:
        self.data[self._offset(indices)] = value

    def copy(self) -> "FArray":
        return FArray(self.data.copy(), self.lbounds, self.kind)

    def astype_kind(self, kind: int) -> "FArray":
        return FArray(self.data.astype(dtype_for_kind(kind)), self.lbounds, kind)


# Exact-type fast path: the interpreter calls kind_of on every operand.
_KIND_BY_EXACT_TYPE: dict[type, int | None] = {
    np.float32: KIND_SINGLE,
    np.float64: KIND_DOUBLE,
    float: KIND_DOUBLE,
    int: None,
    bool: None,
    np.bool_: None,
    np.int64: None,
    str: None,
}


def kind_of(value: Any) -> int | None:
    """Return the real kind of *value*, or None for non-real values."""
    t = type(value)
    if t is FArray:
        return value.kind
    try:
        return _KIND_BY_EXACT_TYPE[t]
    except KeyError:
        pass
    if isinstance(value, np.ndarray):
        return _KIND_BY_DTYPE.get(value.dtype)
    if isinstance(value, np.floating):
        return _KIND_BY_DTYPE.get(value.dtype)
    if isinstance(value, float):
        return KIND_DOUBLE
    _KIND_BY_EXACT_TYPE[t] = None
    return None


def is_real_value(value: Any) -> bool:
    return kind_of(value) is not None


def real_scalar(value: float, kind: int):
    """Build a real scalar of the given kind."""
    return dtype_for_kind(kind).type(value)


def cast_real(value: Any, kind: int):
    """Cast a real scalar or array payload to *kind* (IEEE rounding)."""
    dt = dtype_for_kind(kind)
    if isinstance(value, FArray):
        return value.astype_kind(kind)
    if isinstance(value, np.ndarray):
        return value.astype(dt)
    return dt.type(value)


def element_count(value: Any) -> int:
    """Number of elements an operation on *value* touches (1 for scalars)."""
    t = type(value)
    if t is FArray:
        return int(value.data.size)
    if isinstance(value, np.ndarray):
        return int(value.size)
    return 1


def promote_kinds(k1: int | None, k2: int | None) -> int:
    """Fortran mixed-kind promotion: the wider kind wins."""
    if k1 is None:
        return k2 if k2 is not None else KIND_SINGLE
    if k2 is None:
        return k1
    return max(k1, k2)


def relative_gap(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Elementwise relative error of *value* against *reference*.

    The denominator is floored at the smallest normal float64 so
    references at (or near) zero yield a large-but-finite error instead
    of dividing by zero; callers mask non-finite inputs beforehand.
    """
    ref = np.asarray(reference, dtype=np.float64)
    floor = np.finfo(np.float64).tiny
    return (np.abs(np.asarray(value, dtype=np.float64) - ref)
            / np.maximum(np.abs(ref), floor))


def ulp_distance(value: np.ndarray, reference: np.ndarray,
                 kind: int) -> np.ndarray:
    """Elementwise |value - reference| in units in the last place of the
    reference *at the storage kind* — i.e. how many representable
    numbers of ``kind`` the stored value is away from the float64 truth.
    """
    ref = np.asarray(reference, dtype=np.float64)
    dt = dtype_for_kind(kind)
    spacing = np.abs(np.spacing(np.abs(ref).astype(dt))).astype(np.float64)
    spacing = np.maximum(spacing, float(np.finfo(dt).tiny))
    return np.abs(np.asarray(value, dtype=np.float64) - ref) / spacing
