"""Fortran intrinsic procedures for the interpreter.

Each intrinsic is registered with the *operation class* the machine model
charges for it (``intr_cheap`` / ``intr_sqrt`` / ``intr_trans`` /
``reduce`` / ``none`` for inquiry functions that cost nothing at run
time).  Numeric intrinsics preserve the argument kind — NumPy's dtype
propagation implements exactly Fortran's rule that ``sin(x)`` of a
``real(4)`` is computed in single precision, which is where much of a
reduced-precision variant's speed and error comes from.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import FortranRuntimeError
from .values import (FArray, cast_real, dtype_for_kind, is_real_value,
                     kind_of, promote_kinds)
from .symbols import KIND_DOUBLE, KIND_SINGLE

__all__ = ["INTRINSICS", "IntrinsicDef", "is_intrinsic"]


class IntrinsicDef:
    """An intrinsic function: implementation plus cost classification."""

    __slots__ = ("name", "fn", "opclass")

    def __init__(self, name: str, fn: Callable[..., Any], opclass: str):
        self.name = name
        self.fn = fn
        self.opclass = opclass


def _unwrap(v: Any) -> Any:
    return v.data if isinstance(v, FArray) else v


def _rewrap(result: Any, template: Any) -> Any:
    """Rewrap an elementwise ndarray result with the template's bounds."""
    if isinstance(template, FArray) and isinstance(result, np.ndarray):
        return FArray(result, template.lbounds, kind_of(result))
    return result


def _elementwise(np_fn: Callable[..., Any]) -> Callable[..., Any]:
    def impl(*args: Any) -> Any:
        raw = [_unwrap(a) for a in args]
        out = np_fn(*raw)
        for a in args:
            if isinstance(a, FArray):
                return _rewrap(out, a)
        return out
    impl.ufunc = np_fn  # what a scalar argument reduces the call to
    return impl


def _fmin(*args: Any) -> Any:
    return _minmax(min, np.minimum, args)


def _fmax(*args: Any) -> Any:
    return _minmax(max, np.maximum, args)


def _minmax(scalar_fn, np_fn, args: tuple) -> Any:
    if len(args) < 2:
        raise FortranRuntimeError("min/max need at least two arguments")
    raw = [_unwrap(a) for a in args]
    if any(isinstance(r, np.ndarray) for r in raw):
        out = raw[0]
        for r in raw[1:]:
            out = np_fn(out, r)
        for a in args:
            if isinstance(a, FArray):
                return _rewrap(out, a)
        return out
    if all(isinstance(r, (int, np.integer)) and not isinstance(r, np.floating)
           for r in raw):
        return scalar_fn(int(r) for r in raw)
    kind = KIND_SINGLE
    for r in raw:
        kind = promote_kinds(kind_of(r), kind) if kind_of(r) else kind
    vals = [float(r) for r in raw]
    return dtype_for_kind(kind).type(scalar_fn(vals))


def _sign(a: Any, b: Any) -> Any:
    ra, rb = _unwrap(a), _unwrap(b)
    out = np.where(np.greater_equal(rb, 0), np.abs(ra), -np.abs(ra))
    if isinstance(ra, np.ndarray) or isinstance(rb, np.ndarray):
        template = a if isinstance(a, FArray) else b
        return _rewrap(out, template)
    ka = kind_of(a)
    if ka is not None:
        return dtype_for_kind(ka).type(out)
    return int(out)


def _mod(a: Any, b: Any) -> Any:
    ra, rb = _unwrap(a), _unwrap(b)
    out = np.fmod(ra, rb)
    if isinstance(out, np.ndarray):
        return _rewrap(out, a if isinstance(a, FArray) else b)
    if kind_of(a) is None and kind_of(b) is None:
        return int(out)
    return out


def _merge(tsource: Any, fsource: Any, mask: Any) -> Any:
    rt, rf, rm = _unwrap(tsource), _unwrap(fsource), _unwrap(mask)
    out = np.where(rm, rt, rf)
    for a in (tsource, fsource, mask):
        if isinstance(a, FArray):
            return _rewrap(out, a)
    if out.ndim == 0:
        item = out[()]
        return item
    return out


def _reduction(np_fn) -> Callable[..., Any]:
    def impl(a: Any) -> Any:
        raw = _unwrap(a)
        if not isinstance(raw, np.ndarray):
            raise FortranRuntimeError("reduction intrinsic needs an array")
        return np_fn(raw)
    return impl


def _dot_product(a: Any, b: Any) -> Any:
    ra, rb = _unwrap(a), _unwrap(b)
    k = promote_kinds(kind_of(a), kind_of(b))
    dt = dtype_for_kind(k)
    return dt.type(np.dot(ra.astype(dt, copy=False), rb.astype(dt, copy=False)))


def _size(a: Any, dim: Any = None) -> int:
    if isinstance(a, FArray):
        if dim is None:
            return a.size
        return a.data.shape[int(dim) - 1]
    if isinstance(a, np.ndarray):
        if dim is None:
            return int(a.size)
        return a.shape[int(dim) - 1]
    raise FortranRuntimeError("size() argument is not an array")


def _lbound(a: Any, dim: Any) -> int:
    if isinstance(a, FArray):
        return a.lbound(int(dim))
    return 1


def _ubound(a: Any, dim: Any) -> int:
    if isinstance(a, FArray):
        return a.ubound(int(dim))
    if isinstance(a, np.ndarray):
        return a.shape[int(dim) - 1]
    raise FortranRuntimeError("ubound() argument is not an array")


def _model_query(fn: Callable[[np.dtype], Any]) -> Callable[..., Any]:
    def impl(x: Any) -> Any:
        k = kind_of(x)
        if k is None:
            raise FortranRuntimeError("numeric-model inquiry needs a real")
        dt = dtype_for_kind(k)
        return dt.type(fn(dt))
    return impl


def _real(x: Any, kind: Any = None) -> Any:
    k = int(kind) if kind is not None else KIND_SINGLE
    if isinstance(x, FArray):
        return x.astype_kind(k)
    return cast_real(float(_unwrap(x)) if not is_real_value(x) else x, k)


def _dble(x: Any) -> Any:
    return _real(x, KIND_DOUBLE)


def _int(x: Any) -> Any:
    raw = _unwrap(x)
    if isinstance(raw, np.ndarray):
        out = np.trunc(raw).astype(np.int64)
        return _rewrap(out, x) if isinstance(x, FArray) else out
    return int(raw)


def _nint(x: Any) -> Any:
    raw = _unwrap(x)
    if isinstance(raw, np.ndarray):
        return np.rint(raw).astype(np.int64)
    return int(np.rint(raw))


def _floor(x: Any) -> Any:
    return int(np.floor(_unwrap(x)))


def _ceiling(x: Any) -> Any:
    return int(np.ceil(_unwrap(x)))


def _ieee_is_nan(x: Any) -> Any:
    raw = _unwrap(x)
    out = np.isnan(raw)
    if isinstance(raw, np.ndarray):
        return out
    return bool(out)


def _isfinite(x: Any) -> Any:
    raw = _unwrap(x)
    out = np.isfinite(raw)
    if isinstance(raw, np.ndarray):
        return bool(np.all(out))
    return bool(out)


def _maxloc(a: Any) -> int:
    raw = _unwrap(a)
    idx = int(np.argmax(raw))
    if isinstance(a, FArray):
        return idx + a.lbounds[0]
    return idx + 1


INTRINSICS: dict[str, IntrinsicDef] = {}


def _register(name: str, fn: Callable[..., Any], opclass: str) -> None:
    INTRINSICS[name] = IntrinsicDef(name, fn, opclass)


for _nm, _np_fn in [
    ("sin", np.sin), ("cos", np.cos), ("tan", np.tan),
    ("asin", np.arcsin), ("acos", np.arccos), ("atan", np.arctan),
    ("sinh", np.sinh), ("cosh", np.cosh), ("tanh", np.tanh),
    ("exp", np.exp), ("log", np.log), ("log10", np.log10),
]:
    _register(_nm, _elementwise(_np_fn), "intr_trans")

_register("atan2", _elementwise(np.arctan2), "intr_trans")
_register("sqrt", _elementwise(np.sqrt), "intr_sqrt")
_register("abs", _elementwise(np.abs), "intr_cheap")
_register("min", _fmin, "intr_cheap")
_register("max", _fmax, "intr_cheap")
_register("sign", _sign, "intr_cheap")
_register("mod", _mod, "intr_cheap")
_register("merge", _merge, "intr_cheap")
_register("sum", _reduction(np.sum), "reduce")
_register("product", _reduction(np.prod), "reduce")
_register("maxval", _reduction(np.max), "reduce")
_register("minval", _reduction(np.min), "reduce")
_register("dot_product", _dot_product, "reduce")
_register("maxloc", _maxloc, "reduce")
_register("size", _size, "none")
_register("lbound", _lbound, "none")
_register("ubound", _ubound, "none")
_register("epsilon", _model_query(lambda dt: np.finfo(dt).eps), "none")
_register("huge", _model_query(lambda dt: np.finfo(dt).max), "none")
_register("tiny", _model_query(lambda dt: np.finfo(dt).tiny), "none")
_register("real", _real, "convert")
_register("dble", _dble, "convert")
_register("sngl", lambda x: _real(x, KIND_SINGLE), "convert")
_register("float", lambda x: _real(x, KIND_SINGLE), "convert")
_register("int", _int, "intr_cheap")
_register("nint", _nint, "intr_cheap")
_register("floor", _floor, "intr_cheap")
_register("ceiling", _ceiling, "intr_cheap")
_register("ieee_is_nan", _ieee_is_nan, "cmp")
_register("ieee_is_finite", _isfinite, "cmp")


def is_intrinsic(name: str) -> bool:
    return name in INTRINSICS
