"""The *All-Reserved* imitator (Section VI-A, first behaviour).

"A user chooses reserved instances to serve all workloads": whenever
demand exceeds the active reserved pool, the gap is reserved immediately.
Imitates users with stable demands — and, on fluctuating demands,
produces exactly the over-reservation the selling algorithms monetise.

The rule tops the pool up to the demand every hour, so the schedule is
:func:`~repro.purchasing.base.top_up_schedule` of the demand itself: one
running maximum per period instead of a pool update per hour.
"""

from __future__ import annotations

import numpy as np

from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    PurchasingAlgorithm,
    demands_array,
    top_up_schedule,
    validated_schedule,
)


class AllReserved(PurchasingAlgorithm):
    """Reserve the full demand gap every hour."""

    name = "All-Reserved"

    def schedule(self, demands, plan: PricingPlan) -> np.ndarray:
        trace, values = demands_array(demands, plan)
        return validated_schedule(
            top_up_schedule(values, plan.period_hours), len(trace)
        )
