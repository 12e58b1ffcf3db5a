"""Liquidity-aware sale clearing: listings, hazards, and delay draws.

The paper's Algorithms 1/2 assume a SELL decision clears instantly at
``a ×`` the prorated cap. "No Reservations: A First Look at Amazon's
Reserved Instance Marketplace" (arXiv 2005.12249) measures the real
marketplace and finds none of that holds: listings sit on the book for
hours to weeks, the probability of selling in any given hour rises
steeply with the offered discount, and liquidity varies by orders of
magnitude across instance types. This module is the seeded,
checkpoint-safe model of that clearing process shared by every
execution layer (``run_fast``, ``run_population``, the sweep runner,
and ``repro.serve``):

* a SELL decision opens a *listing* instead of completing a sale;
* while the listing is open the seller keeps paying the hourly and
  amortised costs (the instance still serves demand);
* each open hour ``w`` the listing clears with hazard
  ``h(w) = min(liquidity · h₀ · exp(s · (1 − a(w))), 1)`` where
  ``a(w)`` is the discount schedule (fixed, adaptive decay, or a
  re-list ladder) — the exponential-in-discount shape and the per-type
  liquidity multiplier are the calibrated forms of arXiv 2005.12249;
* a listing that has not cleared by its window's end (the reservation
  expiry, or an explicit ``max_open_hours`` cap) *expires* and the
  decision reverts to KEEP — no income, the instance serves out its
  term.

Determinism contract: exactly **one** uniform draw is consumed per
listing, taken from a per-key :class:`numpy.random.Generator` stream
(:meth:`ClearingModel.stream`), and the delay is recovered by inverting
the clearing CDF with ``searchsorted``. Because
``Generator.random(size=k)`` consumes the stream identically to ``k``
scalar draws, the vectorised population engine and the per-user engine
see the same delays — the differential tests in
``tests/core/test_clearing.py`` pin this. The ``instant`` regime is the
degenerate limit ``h ≡ 1``: every draw yields delay 0 and the engines
reproduce the paper's instant-sale outputs bit-identically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro._arrays import as_int
from repro.core.streams import key_to_int as _key_to_int  # noqa: F401 - re-export
from repro.core.streams import stream as _stream
from repro.errors import SimulationError

#: Per-instance-type liquidity tiers: multipliers on the base hazard.
#: ``instant`` is the degenerate paper limit (hazard ≡ 1, delay 0);
#: ``deep`` ≈ popular Linux/us-east types that clear within hours;
#: ``frozen`` ≈ the long tail where listings sit for weeks
#: (arXiv 2005.12249 §4: sale latency spans orders of magnitude by type).
LIQUIDITY_REGIMES: "Dict[str, float]" = {
    "instant": math.inf,
    "deep": 5.0,
    "normal": 1.0,
    "thin": 0.3,
    "frozen": 0.05,
}

#: Discount-schedule kinds (see :class:`DiscountSchedule`).
SCHEDULE_FIXED = "fixed"
SCHEDULE_ADAPTIVE = "adaptive"
SCHEDULE_LADDER = "ladder"
_SCHEDULE_KINDS = (SCHEDULE_FIXED, SCHEDULE_ADAPTIVE, SCHEDULE_LADDER)


def _require_finite(name: str, value: object) -> float:
    """A finite real number; bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise SimulationError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise SimulationError(f"{name} must be finite, got {number!r}")
    return number


def _require_fraction(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise SimulationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _require_count(name: str, value: object) -> int:
    """A non-negative integral count; fractional floats are rejected."""
    return as_int(value, name, SimulationError, minimum=0)


def _payload_fields(payload: object, label: str, keys: "Tuple[str, ...]") -> dict:
    """The values of ``keys`` in ``payload``, unconverted; every key
    ``to_payload`` writes must be there."""
    if not isinstance(payload, dict):
        raise SimulationError(f"{label} payload must be an object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise SimulationError(f"{label} payload lacks {', '.join(missing)}")
    return {key: payload[key] for key in keys}


@dataclass(frozen=True)
class DiscountSchedule:
    """The discount ``a(w)`` offered after ``w`` open hours.

    * ``fixed`` — the cost model's discount (or ``start_discount``)
      forever; the paper's pricing, just no longer guaranteed to clear.
    * ``adaptive`` — the promoted
      :class:`repro.marketplace.seller.AdaptiveDiscountSeller` rule:
      ``max(start · (1 − decay_per_day)^(w/24), floor)``.
    * ``ladder`` — the promoted re-list ladder: step down through the
      ``ladder`` discounts every ``step_hours`` open hours, holding the
      last rung.

    ``start_discount=None`` (fixed only) defers to the cost model's
    ``selling_discount`` — required for the instant limit to reproduce
    the paper's income expression bit-identically.
    """

    kind: str = SCHEDULE_FIXED
    start_discount: Optional[float] = None
    floor_discount: float = 0.5
    decay_per_day: float = 0.05
    ladder: Tuple[float, ...] = ()
    step_hours: int = 168

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_KINDS:
            raise SimulationError(
                f"discount schedule kind must be one of {_SCHEDULE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.start_discount is not None:
            _require_fraction("start_discount", self.start_discount)
        elif self.kind == SCHEDULE_ADAPTIVE:
            raise SimulationError(
                "an adaptive discount schedule needs an explicit start_discount"
            )
        _require_fraction("floor_discount", self.floor_discount)
        decay = _require_fraction("decay_per_day", self.decay_per_day)
        if decay >= 1.0:
            raise SimulationError(
                f"decay_per_day must lie in [0, 1), got {decay!r}"
            )
        if not isinstance(self.ladder, (tuple, list)):
            raise SimulationError(
                f"ladder must be a sequence of discounts, got {self.ladder!r}"
            )
        object.__setattr__(
            self,
            "ladder",
            tuple(
                _require_fraction(f"ladder[{i}]", rung)
                for i, rung in enumerate(self.ladder)
            ),
        )
        step = _require_count("step_hours", self.step_hours)
        if self.kind == SCHEDULE_LADDER:
            if not self.ladder:
                raise SimulationError(
                    "a ladder discount schedule needs a non-empty ladder"
                )
            if step == 0:
                raise SimulationError("step_hours must be >= 1")

    def profile(self, base_discount: float, hours: int) -> np.ndarray:
        """``a(w)`` for ``w = 0 .. hours-1`` as a float64 array.

        ``profile(...)[0]`` equals the first asking discount exactly —
        for the default fixed schedule that is ``base_discount`` itself,
        which keeps the instant limit's income expression identical to
        :meth:`repro.core.account.CostModel.sale_income`.
        """
        hours = _require_count("hours", hours)
        base = _require_fraction("base_discount", base_discount)
        if self.kind == SCHEDULE_FIXED:
            start = base if self.start_discount is None else self.start_discount
            return np.full(hours, float(start), dtype=np.float64)
        if self.kind == SCHEDULE_ADAPTIVE:
            days = np.arange(hours, dtype=np.float64) / 24.0
            decayed = self.start_discount * (1.0 - self.decay_per_day) ** days
            return np.maximum(decayed, self.floor_discount)
        rungs = np.asarray(self.ladder, dtype=np.float64)
        steps = np.minimum(
            np.arange(hours, dtype=np.int64) // self.step_hours,
            len(rungs) - 1,
        )
        return rungs[steps]

    def to_payload(self) -> dict:
        """JSON-ready form (checkpoints, cache keys)."""
        return {
            "kind": self.kind,
            "start_discount": self.start_discount,
            "floor_discount": self.floor_discount,
            "decay_per_day": self.decay_per_day,
            "ladder": list(self.ladder),
            "step_hours": self.step_hours,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DiscountSchedule":
        """The inverse of :meth:`to_payload`: every key it writes is
        required and every value reaches the constructor's checks as
        written, so a fractional, bool or non-integer count is refused
        rather than rounded."""
        fields = _payload_fields(
            payload,
            "discount schedule",
            ("kind", "start_discount", "floor_discount", "decay_per_day",
             "ladder", "step_hours"),
        )
        return cls(**fields)


@dataclass(frozen=True)
class ClearingProfile:
    """Precomputed per-listing clearing law for one ``(period, φ)``.

    ``window`` is the number of hours a listing may stay open (it must
    clear strictly before the reservation expires, and before any
    ``max_open_hours`` cap); ``cdf[w]`` is the probability of clearing
    within ``w`` open hours; ``discounts[w]`` is the discount in force
    if it clears after waiting ``w`` hours.
    """

    window: int
    cdf: np.ndarray
    discounts: np.ndarray

    def sample_delay(self, uniform: float) -> int:
        """Invert the CDF: delay in ``[0, window]``; ``window`` = expired."""
        return int(np.searchsorted(self.cdf, uniform, side="right"))

    def sample_delays(self, uniforms: np.ndarray) -> np.ndarray:
        """Vector form of :meth:`sample_delay` (same stream semantics)."""
        return np.searchsorted(self.cdf, uniforms, side="right")


@dataclass(frozen=True)
class ClearingModel:
    """The seeded clearing process one simulation run draws from.

    Parameters
    ----------
    liquidity:
        A :data:`LIQUIDITY_REGIMES` tier name; multiplies the base
        hazard. ``instant`` reproduces the paper's instant sales.
    base_hazard:
        Per-hour clearing probability of a zero-information listing at
        full price in the ``normal`` regime (``h₀``).
    sensitivity:
        Exponential steepness ``s`` of the hazard in the offered
        discount: ``h ∝ exp(s · (1 − a))`` — deeper discounts clear
        faster (arXiv 2005.12249 §5).
    schedule:
        The :class:`DiscountSchedule` sellers follow while listed.
    max_open_hours:
        Optional cap on open hours; past it the listing expires and the
        unit reverts to KEEP. ``None`` lets it ride to the reservation
        expiry.
    seed:
        Root of every per-key stream; two runs with the same seed and
        keys draw identical delays.
    """

    liquidity: str = "normal"
    base_hazard: float = 0.02
    sensitivity: float = 4.0
    schedule: DiscountSchedule = field(default_factory=DiscountSchedule)
    max_open_hours: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.liquidity, str) or self.liquidity not in LIQUIDITY_REGIMES:
            raise SimulationError(
                f"unknown liquidity regime {self.liquidity!r}; expected one "
                f"of {sorted(LIQUIDITY_REGIMES)}"
            )
        hazard = _require_finite("base_hazard", self.base_hazard)
        if not 0.0 < hazard <= 1.0:
            raise SimulationError(
                f"base_hazard must lie in (0, 1], got {hazard!r}"
            )
        sensitivity = _require_finite("sensitivity", self.sensitivity)
        if sensitivity < 0.0:
            raise SimulationError(
                f"sensitivity must be >= 0, got {sensitivity!r}"
            )
        if not isinstance(self.schedule, DiscountSchedule):
            raise SimulationError(
                "schedule must be a DiscountSchedule, got "
                f"{type(self.schedule).__name__}"
            )
        if self.max_open_hours is not None:
            _require_count("max_open_hours", self.max_open_hours)
        as_int(self.seed, "seed", SimulationError, minimum=0)

    # ------------------------------------------------------------------

    @property
    def is_instant(self) -> bool:
        """True for the degenerate paper limit (every sale clears now)."""
        return self.liquidity == "instant"

    @classmethod
    def instant(cls, seed: int = 0) -> "ClearingModel":
        """The paper's instant-sale limit as a clearing model."""
        return cls(liquidity="instant", seed=seed)

    @classmethod
    def for_regime(cls, liquidity: str, seed: int = 0, **overrides: object) -> "ClearingModel":
        """A model in one named liquidity regime (defaults elsewhere)."""
        return cls(liquidity=liquidity, seed=seed, **overrides)  # type: ignore[arg-type]

    def with_seed(self, seed: int) -> "ClearingModel":
        """The same clearing process re-rooted on another seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------

    def hazards(self, discounts: np.ndarray) -> np.ndarray:
        """Per-hour clearing hazard for each scheduled discount."""
        if self.is_instant:
            return np.ones(len(discounts), dtype=np.float64)
        raw = (
            LIQUIDITY_REGIMES[self.liquidity]
            * self.base_hazard
            * np.exp(self.sensitivity * (1.0 - np.asarray(discounts)))
        )
        return np.minimum(raw, 1.0)

    def profile(
        self, base_discount: float, period: int, decision_age: int
    ) -> ClearingProfile:
        """The clearing law for listings opened at age ``decision_age``."""
        period = _require_count("period", period)
        decision_age = _require_count("decision_age", decision_age)
        if not 0 < decision_age < period:
            raise SimulationError(
                f"decision_age must lie strictly inside (0, {period}), "
                f"got {decision_age!r}"
            )
        window = period - decision_age
        if self.max_open_hours is not None:
            window = min(window, self.max_open_hours + 1)
        discounts = self.schedule.profile(base_discount, window)
        hazards = self.hazards(discounts)
        if self.is_instant:
            cdf = np.ones(window, dtype=np.float64)
        else:
            cdf = 1.0 - np.cumprod(1.0 - hazards)
        return ClearingProfile(window=window, cdf=cdf, discounts=discounts)

    def stream(self, key: object) -> np.random.Generator:
        """The seeded per-key delay stream (one uniform per listing).

        Delegates to :func:`repro.core.streams.stream`, the shared
        per-key randomness contract.
        """
        return _stream(int(self.seed), key)

    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready form (checkpoints, cache keys)."""
        return {
            "liquidity": self.liquidity,
            "base_hazard": self.base_hazard,
            "sensitivity": self.sensitivity,
            "schedule": self.schedule.to_payload(),
            "max_open_hours": self.max_open_hours,
            "seed": int(self.seed),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ClearingModel":
        """The inverse of :meth:`to_payload`, as strict as the
        constructor (see :meth:`DiscountSchedule.from_payload`)."""
        fields = _payload_fields(
            payload,
            "clearing",
            ("liquidity", "base_hazard", "sensitivity", "schedule",
             "max_open_hours", "seed"),
        )
        return cls(
            **{**fields, "schedule": DiscountSchedule.from_payload(fields["schedule"])}
        )

    def content_digest(self) -> str:
        """Stable identity for :func:`repro.parallel.hashing.stable_hash`."""
        parts = [
            "clearing",
            self.liquidity,
            repr(float(self.base_hazard)),
            repr(float(self.sensitivity)),
            self.schedule.kind,
            repr(self.schedule.start_discount),
            repr(float(self.schedule.floor_discount)),
            repr(float(self.schedule.decay_per_day)),
            repr(tuple(float(r) for r in self.schedule.ladder)),
            repr(int(self.schedule.step_hours)),
            repr(self.max_open_hours),
            repr(int(self.seed)),
        ]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
