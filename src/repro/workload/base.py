"""Demand traces: the common currency of the whole library.

The paper's algorithms consume a single signal per user: the number of
instances ``d_t`` demanded at each hour ``t`` (Section III-C). A
:class:`DemandTrace` wraps that hourly series (a non-negative integer
numpy array) with validation, statistics, and slicing utilities, and
:class:`WorkloadGenerator` is the protocol every synthesizer implements.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro.errors import TraceLengthError, WorkloadError

_INT64_MAX = np.iinfo(np.int64).max


class DemandTrace:
    """An hourly instance-demand series ``d_0, d_1, ..., d_{H-1}``.

    Immutable; the underlying array is copied on construction and marked
    read-only, so traces can be shared between simulations safely.
    """

    __slots__ = ("_values", "name", "_cv")

    def __init__(self, values: Iterable[int], name: str = "") -> None:
        array = np.asarray(values)
        if array.ndim != 1:
            raise WorkloadError(f"a demand trace must be 1-D, got shape {array.shape}")
        if array.size == 0:
            raise WorkloadError("a demand trace must contain at least one hour")
        if not np.issubdtype(array.dtype, np.number):
            raise WorkloadError(f"demands must be numeric, got dtype {array.dtype}")
        if np.issubdtype(array.dtype, np.integer):
            # Taken exactly: a float round trip would round past 2**53.
            if array.dtype.kind == "u" and array.max() > np.uint64(_INT64_MAX):
                raise WorkloadError(
                    f"demands must lie in the int64 range [0, {_INT64_MAX}]"
                )
            if array.dtype.kind == "i" and array.min() < 0:
                raise WorkloadError("demands must be non-negative")
            exact = array.astype(np.int64)
        else:
            as_float = array.astype(np.float64)
            if np.any(~np.isfinite(as_float)):
                raise WorkloadError("demands must be finite")
            if np.any(as_float < 0):
                raise WorkloadError("demands must be non-negative")
            exact = np.rint(as_float).astype(np.int64)
            if not np.allclose(as_float, exact):
                raise WorkloadError("demands must be whole instance counts")
        exact.flags.writeable = False
        self._values = exact
        self.name = name
        self._cv: "float | None" = None

    # ------------------------------------------------------------------
    # Container behaviour
    # ------------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The read-only ``int64`` demand array."""
        return self._values

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DemandTrace(self._values[index], name=self.name)
        return int(self._values[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DemandTrace):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self) -> int:
        return hash((self._values.tobytes(), len(self)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<DemandTrace{label} horizon={len(self)} mean={self.mean:.2f} "
            f"cv={self.cv:.2f}>"
        )

    @property
    def horizon(self) -> int:
        """Number of hours covered by the trace."""
        return len(self)

    # ------------------------------------------------------------------
    # Statistics (Fig. 2 of the paper groups users by sigma/mu)
    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return float(self._values.mean())

    @property
    def std(self) -> float:
        return float(self._values.std())

    @property
    def cv(self) -> float:
        """Coefficient of variation σ/μ — the paper's fluctuation measure.

        A trace of all zeros has undefined σ/μ; we report ``inf`` (it is
        maximally pointless to reserve for, like an extremely bursty user).
        Computed once: the values never change, and every sweep reports
        each user's σ/μ.
        """
        if self._cv is None:
            mean = self.mean
            self._cv = float("inf") if mean == 0 else self.std / mean
        return self._cv

    @property
    def peak(self) -> int:
        return int(self._values.max())

    @property
    def total_demand_hours(self) -> int:
        """Sum of d_t over the horizon — total instance-hours requested."""
        return int(self._values.sum())

    def busy_fraction(self) -> float:
        """Fraction of hours with non-zero demand."""
        return float(np.count_nonzero(self._values)) / len(self)

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------

    def require_horizon(self, hours: int) -> None:
        """Raise :class:`TraceLengthError` when shorter than ``hours``."""
        if len(self) < hours:
            raise TraceLengthError(
                f"trace {self.name or '<unnamed>'} covers {len(self)} hours "
                f"but {hours} are required"
            )

    def truncated(self, hours: int) -> "DemandTrace":
        """The first ``hours`` hours of this trace."""
        self.require_horizon(hours)
        return DemandTrace(self._values[:hours], name=self.name)

    def scaled(self, factor: float) -> "DemandTrace":
        """Demands multiplied by ``factor`` and rounded (factor > 0)."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be > 0, got {factor!r}")
        return DemandTrace(np.rint(self._values * factor), name=self.name)

    def shifted(self, hours: int) -> "DemandTrace":
        """The trace rotated left by ``hours`` (wraps around)."""
        return DemandTrace(np.roll(self._values, -hours), name=self.name)

    @classmethod
    def constant(cls, level: int, horizon: int, name: str = "") -> "DemandTrace":
        """A flat trace: ``level`` instances demanded every hour."""
        if horizon <= 0:
            raise WorkloadError(f"horizon must be positive, got {horizon!r}")
        if level < 0:
            raise WorkloadError(f"level must be non-negative, got {level!r}")
        return cls(np.full(horizon, level, dtype=np.int64), name=name)

    @classmethod
    def zeros(cls, horizon: int, name: str = "") -> "DemandTrace":
        """An all-zero trace of ``horizon`` hours."""
        return cls.constant(0, horizon, name=name)


@runtime_checkable
class WorkloadGenerator(Protocol):
    """Anything that can synthesize a demand trace of a given horizon."""

    def generate(self, horizon: int, rng: np.random.Generator) -> DemandTrace:
        """Produce a trace covering ``horizon`` hours using ``rng``."""
        ...


#: Anything accepted where a demand trace is expected: a ready-made
#: :class:`DemandTrace` or any integer sequence (list, tuple, ndarray).
TraceLike = Union[Sequence[int], "DemandTrace"]


def as_trace(demands: TraceLike, name: str = "") -> DemandTrace:
    """Coerce a plain sequence to a :class:`DemandTrace` (no-op for traces)."""
    if isinstance(demands, DemandTrace):
        return demands
    return DemandTrace(demands, name=name)
