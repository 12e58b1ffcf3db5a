"""Shared coercion of count-valued inputs to ``int64`` arrays.

The simulation engines (:mod:`repro.core.fastsim`,
:mod:`repro.core.popsim`) and the columnar trace store
(:mod:`repro.workload.store`) all consume instance counts — demands and
reservation schedules — as integer arrays. Historically ``run_fast``
coerced with a bare ``.astype(np.int64)``, which silently *truncates*
fractional values (``1.9 → 1``) and lets non-finite floats through as
garbage. :func:`as_count_array` is the single strict replacement: float
inputs are accepted only when every value is finite and exactly
integral, anything else raises the caller's error type with a message
naming the offending argument. Values outside ``int64`` are refused for
that reason, before a cast could wrap them or warn.

:func:`as_int` is the scalar counterpart for integer arguments (hours,
counts, seeds): Python and NumPy integers only, never a ``bool``, a float
or a string, with one message shape for every caller.
"""

from __future__ import annotations

from typing import Type

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max
# float64 scalars: any float dtype compares in at least double precision.
_FLOAT_LOW, _FLOAT_HIGH = np.float64(-(2**63)), np.float64(2**63)
_OUT_OF_RANGE = "must lie in the int64 range [-2**63, 2**63)"


def as_count_array(
    values: object,
    name: str,
    error: "Type[Exception]",
) -> np.ndarray:
    """Coerce ``values`` to an ``int64`` array of instance counts.

    Integer (and boolean) arrays pass through with a dtype cast only;
    ``uint64`` values past ``int64``'s maximum raise ``error``. Object
    arrays whose items are all integers (``bool`` included) convert
    exactly, inside the same range.
    Floating-point arrays, and object arrays holding anything else, must
    be finite, exactly integral and inside ``[-2**63, 2**63)`` — ``1.0``
    is accepted, ``1.9``, ``nan``, ``inf`` and ``1e19`` raise ``error``.
    Shape and sign are *not* checked here; callers keep their own
    (message-stable) dimensionality and non-negativity validation.
    """
    array = np.asarray(values)
    if array.dtype == object:
        items = array.ravel().tolist()
        if all(isinstance(item, (int, np.integer)) for item in items):
            # Exact: a float view would round integers past 2**53.
            try:
                exact = np.array([int(item) for item in items], dtype=np.int64)
            except OverflowError:
                raise error(f"{name} {_OUT_OF_RANGE}") from None
            return exact.reshape(array.shape)
    if array.dtype == object or np.issubdtype(array.dtype, np.bool_):
        # Mixed object arrays and explicit booleans: go through a
        # best-effort float view so mixed garbage fails loudly below.
        try:
            array = array.astype(np.float64)
        except (TypeError, ValueError):
            raise error(f"{name} must be numeric, got dtype object") from None
    if np.issubdtype(array.dtype, np.integer):
        if array.dtype == np.uint64 and array.size and array.max() > _INT64_MAX:
            raise error(f"{name} {_OUT_OF_RANGE}")
        return array.astype(np.int64, copy=False)
    if not np.issubdtype(array.dtype, np.floating):
        raise error(f"{name} must be integer-valued, got dtype {array.dtype}")
    if not np.all((array >= _FLOAT_LOW) & (array < _FLOAT_HIGH)):
        if not np.all(np.isfinite(array)):
            raise error(f"{name} must be finite (no nan/inf values)")
        raise error(f"{name} {_OUT_OF_RANGE}")
    rounded = np.rint(array)
    if not np.array_equal(rounded, array):
        raise error(
            f"{name} must be whole instance counts; fractional values would "
            "be silently truncated (e.g. 1.9 -> 1)"
        )
    return rounded.astype(np.int64)


def as_int(
    value: object,
    name: str,
    error: "Type[Exception]",
    minimum: "int | None" = None,
) -> int:
    """``value`` as an ``int``: a Python or NumPy integer, not a ``bool``,
    and at least ``minimum`` when one is given; anything else raises
    ``error`` naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
