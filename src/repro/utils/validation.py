"""Lightweight argument-validation helpers.

These helpers centralize the repetitive bounds / type checks used across the
library so error messages stay uniform.  Every helper raises
:class:`~repro.utils.exceptions.ConfigurationError` on failure and returns
the (possibly normalized) value on success, which keeps call sites terse::

    b = check_positive_int("tile_size", b)
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from typing import Any

import numpy as np

from .exceptions import ConfigurationError

__all__ = [
    "check_positive_int",
    "check_nonnegative_int",
    "check_band_size",
    "check_positive_float",
    "check_probability",
    "check_in",
    "check_matrix",
    "check_finite",
    "check_rhs",
    "check_square_matrix",
    "check_index",
]


def check_positive_int(name: str, value: Any) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it as int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def check_band_size(value: Any) -> int | str:
    """Validate a dense-band request: ``"auto"`` or an integer ``>= 1``.

    Integers come back as a Python ``int``, so ``2`` and ``np.int64(2)``
    name the same band (and the same cached factor).
    """
    if isinstance(value, str) and value == "auto":
        return value
    return check_positive_int("band_size ('auto' or an int)", value)


def check_nonnegative_int(name: str, value: Any) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it as int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_float(name: str, value: Any) -> float:
    """Validate that ``value`` is a finite float ``> 0`` and return it."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    return value


def check_probability(name: str, value: Any) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in(name: str, value: Any, allowed: Sequence[Any]) -> Any:
    """Validate that ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {list(allowed)!r}, got {value!r}"
        )
    return value


def check_matrix(name: str, a: Any, dtype=np.float64) -> np.ndarray:
    """Coerce ``a`` to a 2-D contiguous ndarray of ``dtype``."""
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def check_finite(name: str, a: Any) -> np.ndarray:
    """Coerce ``a`` to a float64 ndarray with no NaN or infinite entry."""
    try:
        arr = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be numeric") from None
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite (no NaN/inf)")
    return arr


def check_rhs(name: str, a: Any) -> np.ndarray:
    """Coerce a right-hand side to a finite 1-D or 2-D float64 ndarray.

    Only real integer or floating data is accepted (integers are cast to
    float64): a complex array would lose its imaginary part and a string
    or object array would be converted silently, so both are refused.
    """
    arr = np.asarray(a)
    if arr.dtype.kind not in "iuf":
        raise ConfigurationError(
            f"{name} must be a real integer or floating array, got dtype {arr.dtype}"
        )
    if arr.ndim not in (1, 2):
        raise ConfigurationError(
            f"{name} must be a vector or a matrix of columns, got {arr.ndim}-D"
        )
    return check_finite(name, arr)


def check_square_matrix(name: str, a: Any, dtype=np.float64) -> np.ndarray:
    """Coerce ``a`` to a square 2-D ndarray of ``dtype``."""
    arr = check_matrix(name, a, dtype=dtype)
    if arr.shape[0] != arr.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_index(name: str, value: Any, upper: int) -> int:
    """Validate that ``value`` is an integer index in ``[0, upper)``."""
    value = check_nonnegative_int(name, value)
    if value >= upper:
        raise ConfigurationError(f"{name} must be < {upper}, got {value}")
    return value
