"""Break-even points of the online selling algorithms (Eqs. (8)–(9)).

For decision fraction φ (the paper's spots are 3/4, 1/2, 1/4 of the
period), the break-even working time solves Eq. (8) generalised::

    φ·R + α·p·x  =  φ·R − a·φ·R + p·x      =>      x = φ·a·R / (p·(1 − α))

An instance whose working time during its first φT hours is below this β
should have been skipped in favour of on-demand capacity; the online
algorithm sells it at φT "to compensate for this mistake".
"""

from __future__ import annotations

import math
from typing import Type

from repro.errors import PolicyError
from repro.pricing.plan import PricingPlan

#: The paper's three decision fractions.
PHI_3T4 = 0.75
PHI_T2 = 0.5
PHI_T4 = 0.25

#: All of them, in the order the paper presents the algorithms.
PAPER_DECISION_FRACTIONS = (PHI_3T4, PHI_T2, PHI_T4)


def validate_phi(phi: float) -> float:
    """Check a decision fraction is usable; returns it for chaining."""
    if not 0.0 < phi < 1.0:
        raise PolicyError(f"decision fraction phi must lie in (0, 1), got {phi!r}")
    return phi


def validate_threshold_scale(
    threshold_scale: float, error: "Type[Exception]"
) -> float:
    """Reject negative and non-finite β multipliers; returns the value.

    ``nan`` passes a bare ``< 0`` guard and then poisons every
    ``working < scale·β`` comparison (all False), silently disabling
    selling — so non-finite values are rejected loudly instead, as
    ``error`` (each caller keeps its own module's error type). Every
    constructor and engine that takes a ``threshold_scale`` calls this.
    """
    if not math.isfinite(threshold_scale):
        raise error(f"threshold_scale must be finite, got {threshold_scale!r}")
    if threshold_scale < 0:
        raise error(f"threshold_scale must be >= 0, got {threshold_scale!r}")
    return threshold_scale


def break_even_working_hours(
    plan: PricingPlan, selling_discount: float, phi: float
) -> float:
    """The paper's β = φ·a·R / (p·(1 − α)).

    Working time below β during the first φT hours means selling at φT
    (and covering residual demand on demand) beats keeping.
    """
    validate_phi(phi)
    if not 0.0 <= selling_discount <= 1.0:
        raise PolicyError(
            f"selling_discount must lie in [0, 1], got {selling_discount!r}"
        )
    return (
        phi
        * selling_discount
        * plan.upfront
        / (plan.on_demand_hourly * (1.0 - plan.alpha))
    )


def decision_age_hours(plan: PricingPlan, phi: float) -> int:
    """Age, in hours, at which an ``A_{φT}`` policy evaluates an instance."""
    validate_phi(phi)
    return round(phi * plan.period_hours)


def remaining_fraction_at_decision(phi: float) -> float:
    """Fraction of the period left when selling at the decision spot."""
    validate_phi(phi)
    return 1.0 - phi
