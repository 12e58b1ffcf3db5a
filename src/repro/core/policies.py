"""Selling policies: the paper's three online algorithms and baselines.

A policy answers two questions per reserved instance:

1. *When* to evaluate it — a decision fraction φ of the period (or never).
2. *Whether* to sell — given the instance's measured working time during
   its first φT hours.

The paper's algorithms ``A_{3T/4}``, ``A_{T/2}`` and ``A_{T/4}`` share one
rule (Algorithm 1/2): sell iff the working time is below the break-even
point β = φ·a·R/(p(1−α)). The evaluation's two benchmarks are
:class:`KeepReservedPolicy` (never sell) and :class:`AllSellingPolicy`
(always sell at the decision spot). :class:`RandomizedSellingPolicy`
implements the paper's future-work sketch: each instance is evaluated at
a random spot.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.breakeven import (
    PHI_3T4,
    PHI_T2,
    PHI_T4,
    break_even_working_hours,
    validate_phi,
    validate_threshold_scale,
)
from repro.core.clearing import (
    SCHEDULE_ADAPTIVE,
    SCHEDULE_LADDER,
    ClearingModel,
    DiscountSchedule,
)
from repro.core.cancellation import CancellationModel
from repro.core.instance import ReservedInstance
from repro.core.randomized import SpotDistribution
from repro.core.streams import stream as _stream
from repro.core.streams import validate_seed
from repro.errors import PolicyError
from repro.pricing.plan import PricingPlan

# ----------------------------------------------------------------------
# Canonical policy names
# ----------------------------------------------------------------------
# Every experiment output, CSV column, advisory response and report keys
# policies by these exact strings. They live here — next to the policy
# classes that own the naming scheme — and everything else imports them
# (lint rule REP011 flags hard-coded copies elsewhere).

#: The paper's three online algorithms.
POLICY_A_3T4 = "A_{3T/4}"
POLICY_A_T2 = "A_{T/2}"
POLICY_A_T4 = "A_{T/4}"
#: The two benchmarks of Section VI-B.
POLICY_KEEP = "Keep-Reserved"
POLICY_ALL_3T4 = "All-Selling@3T/4"
POLICY_ALL_T2 = "All-Selling@T/2"
POLICY_ALL_T4 = "All-Selling@T/4"
#: The offline optimum.
POLICY_OPT = "OPT"
#: The randomized §VII policy (default name; spec-built instances may
#: carry a parameterised name derived from this prefix).
POLICY_RANDOMIZED = "Randomized"
#: The cancellation-aware (sell-then-rebuy) family at the paper's spots.
POLICY_CANCEL_3T4 = "Cancel@3T/4"
POLICY_CANCEL_T2 = "Cancel@T/2"
POLICY_CANCEL_T4 = "Cancel@T/4"

#: The three online algorithms with their decision fractions.
ONLINE_POLICIES: "dict[str, float]" = {
    POLICY_A_3T4: PHI_3T4,
    POLICY_A_T2: PHI_T2,
    POLICY_A_T4: PHI_T4,
}

#: The All-Selling benchmark at each spot.
ALL_SELLING_POLICIES: "dict[str, float]" = {
    POLICY_ALL_3T4: PHI_3T4,
    POLICY_ALL_T2: PHI_T2,
    POLICY_ALL_T4: PHI_T4,
}

#: The cancellation-aware family at each paper spot.
CANCELLATION_POLICIES: "dict[str, float]" = {
    POLICY_CANCEL_3T4: PHI_3T4,
    POLICY_CANCEL_T2: PHI_T2,
    POLICY_CANCEL_T4: PHI_T4,
}


@dataclass(frozen=True)
class DecisionContext:
    """Everything a policy may consult when deciding on one instance."""

    plan: PricingPlan
    selling_discount: float
    phi: float
    beta: float
    decision_hour: int
    instance: ReservedInstance


class SellingPolicy(abc.ABC):
    """Interface of all selling policies."""

    #: Human-readable name used in reports and result tables.
    name: str = "selling-policy"

    @abc.abstractmethod
    def decision_fraction(self, instance: ReservedInstance) -> "float | None":
        """φ at which ``instance`` is evaluated, or None to never evaluate."""

    @abc.abstractmethod
    def should_sell(self, working_hours: float, context: DecisionContext) -> bool:
        """Decide given the working time during the first φT hours."""

    def decision_hour(self, instance: ReservedInstance) -> "int | None":
        """Hour at which ``instance`` is evaluated (scheduling primitive).

        Defaults to ``reserved_at + round(φ·T)``; policies that need an
        exact hour (e.g. the scripted replay of an offline optimum) may
        override this directly.
        """
        phi = self.decision_fraction(instance)
        if phi is None:
            return None
        return instance.decision_hour(phi)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class OnlineSellingPolicy(SellingPolicy):
    """The paper's deterministic online algorithm ``A_{φT}``.

    Sells an instance at age φT iff its working time is strictly below
    the break-even point β = φ·a·R/(p(1−α)) (Algorithm 1 line 15).

    ``threshold_scale`` multiplies β; 1.0 is the paper's rule, other
    values support the sensitivity ablation.
    """

    def __init__(self, phi: float, threshold_scale: float = 1.0) -> None:
        validate_phi(phi)
        validate_threshold_scale(threshold_scale, PolicyError)
        self.phi = phi
        self.threshold_scale = threshold_scale
        self.name = f"A_{{{self._spot_label(phi)}}}"

    @staticmethod
    def _spot_label(phi: float) -> str:
        named = {PHI_3T4: "3T/4", PHI_T2: "T/2", PHI_T4: "T/4"}
        return named.get(phi, f"{phi:g}T")

    def decision_fraction(self, instance: ReservedInstance) -> float:
        return self.phi

    def should_sell(self, working_hours: float, context: DecisionContext) -> bool:
        return working_hours < self.threshold_scale * context.beta

    # The paper's three named algorithms -----------------------------------

    @classmethod
    def a_3t4(cls) -> "OnlineSellingPolicy":
        """``A_{3T/4}`` — decide at 3/4 of the period (Section IV)."""
        return cls(PHI_3T4)

    @classmethod
    def a_t2(cls) -> "OnlineSellingPolicy":
        """``A_{T/2}`` — decide at half the period (Section V)."""
        return cls(PHI_T2)

    @classmethod
    def a_t4(cls) -> "OnlineSellingPolicy":
        """``A_{T/4}`` — decide at a quarter of the period (Section V)."""
        return cls(PHI_T4)

    @classmethod
    def paper_policies(cls) -> "list[OnlineSellingPolicy]":
        """The three algorithms in the paper's presentation order."""
        return [cls.a_3t4(), cls.a_t2(), cls.a_t4()]


class ListedSellingPolicy(OnlineSellingPolicy):
    """The break-even rule plus a managed listing-price schedule.

    Promotes the price-cutting sellers of
    :mod:`repro.marketplace.seller` into first-class policies: the
    *sell decision* stays the paper's Algorithm 1/2 at φ (so decision
    sequences — and the reference simulator — are unchanged), while the
    attached :class:`~repro.core.clearing.DiscountSchedule` governs the
    asking discount while the listing waits on the marketplace. Every
    execution layer runs it the same way: pass ``policy.phi`` as the
    decision fraction and ``policy.clearing_model(...)`` as the
    ``clearing=`` argument of ``run_fast`` / ``run_population`` /
    ``run_sweep`` / the serve layer.
    """

    def __init__(
        self,
        phi: float,
        schedule: DiscountSchedule,
        threshold_scale: float = 1.0,
        name: "str | None" = None,
    ) -> None:
        super().__init__(phi, threshold_scale)
        if not isinstance(schedule, DiscountSchedule):
            raise PolicyError(
                f"schedule must be a DiscountSchedule, got {type(schedule).__name__}"
            )
        self.schedule = schedule
        self.name = name if name is not None else f"{self.name}/{schedule.kind}"

    def clearing_model(
        self, liquidity: str = "normal", seed: int = 0, **overrides: object
    ) -> ClearingModel:
        """This policy's clearing process in one liquidity regime."""
        return ClearingModel.for_regime(
            liquidity, seed=seed, schedule=self.schedule, **overrides
        )

    # The promoted marketplace sellers -------------------------------------

    @classmethod
    def adaptive(
        cls,
        phi: float,
        start_discount: float = 1.0,
        floor_discount: float = 0.5,
        decay_per_day: float = 0.05,
    ) -> "ListedSellingPolicy":
        """The promoted ``AdaptiveDiscountSeller``: start near the cap,
        decay toward a floor while unsold."""
        return cls(
            phi,
            DiscountSchedule(
                kind=SCHEDULE_ADAPTIVE,
                start_discount=start_discount,
                floor_discount=floor_discount,
                decay_per_day=decay_per_day,
            ),
        )

    @classmethod
    def ladder(
        cls,
        phi: float,
        rungs: "tuple[float, ...]" = (1.0, 0.85, 0.7),
        step_hours: int = 168,
    ) -> "ListedSellingPolicy":
        """The promoted re-list ladder: step down through ``rungs`` every
        ``step_hours`` open hours, holding the last rung."""
        return cls(
            phi,
            DiscountSchedule(
                kind=SCHEDULE_LADDER, ladder=tuple(rungs), step_hours=step_hours
            ),
        )


class KeepReservedPolicy(SellingPolicy):
    """Benchmark: never sell (the normalisation baseline of Fig. 3/4)."""

    name = POLICY_KEEP

    def decision_fraction(self, instance: ReservedInstance) -> None:
        return None

    def should_sell(self, working_hours: float, context: DecisionContext) -> bool:
        return False


class AllSellingPolicy(SellingPolicy):
    """Benchmark: sell every instance at the decision spot (Section VI-B)."""

    def __init__(self, phi: float) -> None:
        validate_phi(phi)
        self.phi = phi
        self.name = f"All-Selling@{OnlineSellingPolicy._spot_label(phi)}"

    def decision_fraction(self, instance: ReservedInstance) -> float:
        return self.phi

    def should_sell(self, working_hours: float, context: DecisionContext) -> bool:
        return True


class RandomizedSellingPolicy(SellingPolicy):
    """The paper's §VII randomized algorithm, production form.

    Each entity (a sweep user, a serve instance) draws its decision
    fraction from ``spots`` — uniformly, or with the given ``weights`` —
    then applies the break-even rule at the drawn spot. The draw is one
    uniform from the shared per-key stream
    (:func:`repro.core.streams.stream` on ``(seed, key)``), inverted
    through the cumulative weights with ``searchsorted`` — exactly the
    clearing model's delay-draw idiom. That contract is what makes the
    per-user engine, the population tensor engine, and a
    killed-and-restored server agree bit-for-bit on every drawn spot;
    the old per-call ``np.random.default_rng((seed, instance_id))``
    construction (pinned by the migration test in
    ``tests/core/test_randomized_production.py``) could not be
    reproduced from a vectorised path and is gone.

    ``spots=(phi,)`` degenerates to the deterministic ``A_{φT}`` rule —
    every draw yields ``phi`` — which the differential tests use as the
    reduction property.
    """

    def __init__(
        self,
        spots: "tuple[float, ...]" = (PHI_T4, PHI_T2, PHI_3T4),
        weights: "tuple[float, ...] | None" = None,
        seed: int = 0,
        name: "str | None" = None,
    ) -> None:
        if not spots:
            raise PolicyError("spots must be a non-empty tuple of decision fractions")
        for phi in spots:
            validate_phi(phi)
        if weights is not None:
            if len(weights) != len(spots):
                raise PolicyError("weights must match spots in length")
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise PolicyError("weights must be non-negative and sum to > 0")
            total = float(sum(weights))
            self._probabilities = tuple(w / total for w in weights)
        else:
            self._probabilities = tuple(1.0 / len(spots) for _ in spots)
        self.spots = tuple(float(phi) for phi in spots)
        self.seed = validate_seed(seed)
        # CDF of the spot menu; the last entry is forced to 1.0 so a
        # uniform arbitrarily close to 1 still maps into the menu.
        cumulative = np.cumsum(np.asarray(self._probabilities, dtype=np.float64))
        cumulative[-1] = 1.0
        self._cumulative = cumulative
        self.name = POLICY_RANDOMIZED if name is None else name

    @classmethod
    def from_distribution(
        cls,
        distribution: SpotDistribution,
        seed: int = 0,
        name: "str | None" = None,
    ) -> "RandomizedSellingPolicy":
        """Adopt an (LP-optimised) :class:`SpotDistribution` verbatim."""
        if not isinstance(distribution, SpotDistribution):
            raise PolicyError(
                "distribution must be a SpotDistribution, got "
                f"{type(distribution).__name__}"
            )
        return cls(
            spots=distribution.spots,
            weights=distribution.probabilities,
            seed=seed,
            name=name,
        )

    @property
    def probabilities(self) -> "tuple[float, ...]":
        """The normalised spot probabilities, menu order."""
        return self._probabilities

    @property
    def distribution(self) -> SpotDistribution:
        """This policy's spot menu as an analysable distribution."""
        return SpotDistribution(self.spots, self._probabilities)

    def draw_spot(self, key: object) -> float:
        """The decision spot drawn for one entity key.

        One uniform from ``stream(seed, key)``, inverted through the
        cumulative menu weights — deterministic per key across
        processes, engines, and restarts.
        """
        u = _stream(self.seed, key).random()
        index = int(np.searchsorted(self._cumulative, u, side="right"))
        return self.spots[min(index, len(self.spots) - 1)]

    def draw_spots(self, keys: "list[object]") -> np.ndarray:
        """Per-key drawn spots, one stream per key (vector convenience).

        Consumes exactly one draw per key, so it agrees bit-for-bit
        with repeated :meth:`draw_spot` calls.
        """
        return np.asarray([self.draw_spot(key) for key in keys], dtype=np.float64)

    def decision_fraction(self, instance: ReservedInstance) -> float:
        return self.draw_spot(instance.instance_id)

    def should_sell(self, working_hours: float, context: DecisionContext) -> bool:
        return working_hours < context.beta


class CancellationAwareSellingPolicy(OnlineSellingPolicy):
    """Sell now, optionally re-buy at a penalty when demand returns.

    The "Online Resource Allocation with Cancellations" (arXiv
    2210.11570) direction grafted onto the paper's rule: the *sell
    decision* is exactly Algorithm 1/2 at ``phi`` (decision sequences
    are unchanged — the invariant the clearing engine established), but
    a sold unit is watched for the rest of its term. If unmet demand
    returns for ``trigger_hours`` distinct hours inside the sold unit's
    watch window, the seller *cancels the sale economically*: a
    replacement reservation is bought back at the prorated upfront plus
    a ``penalty`` surcharge, and the unit serves again to term end. The
    re-buy rule itself is the static rank rule of
    :mod:`repro.core.cancellation`, shared verbatim by ``run_fast``,
    ``run_population``, and the serving fleet.
    """

    def __init__(
        self,
        phi: float,
        penalty: float = 0.25,
        trigger_hours: int = 1,
        threshold_scale: float = 1.0,
        name: "str | None" = None,
    ) -> None:
        super().__init__(phi, threshold_scale)
        self.cancellation = CancellationModel(
            penalty=penalty, trigger_hours=trigger_hours
        )
        self.name = (
            f"Cancel@{self._spot_label(phi)}" if name is None else name
        )

    @property
    def penalty(self) -> float:
        return self.cancellation.penalty

    @property
    def trigger_hours(self) -> int:
        return self.cancellation.trigger_hours


class ScriptedSellingPolicy(SellingPolicy):
    """Replays a precomputed sell schedule (instance id → sale hour).

    Used by the offline optimum so its cost accounting goes through the
    exact same simulator path as every online policy.
    """

    name = "Scripted"

    def __init__(self, sale_hours: "dict[int, int]", name: str = "Scripted") -> None:
        self.sale_hours = dict(sale_hours)
        self.name = name

    def decision_fraction(self, instance: ReservedInstance) -> "float | None":
        hour = self.sale_hours.get(instance.instance_id)
        if hour is None:
            return None
        return (hour - instance.reserved_at) / instance.period

    def decision_hour(self, instance: ReservedInstance) -> "int | None":
        return self.sale_hours.get(instance.instance_id)

    def should_sell(self, working_hours: float, context: DecisionContext) -> bool:
        return True


def beta_for(
    plan: PricingPlan, selling_discount: float, policy: SellingPolicy, phi: float
) -> float:
    """β for one decision; thin wrapper kept for symmetry with the paper."""
    return break_even_working_hours(plan, selling_discount, phi)
