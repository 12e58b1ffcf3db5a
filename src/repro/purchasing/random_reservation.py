"""The *Random-Reservation* imitator (Section VI-A, second behaviour).

"Takes a random number that is not greater than the demands' quantity as
the targeted number of active reserved instances at each time": each hour
with demand, a target in ``[0, d_t]`` is drawn and the pool is topped up
toward it. Imitates users who reserve ad hoc, without a policy.

The targets are the draws of one ``np.random.default_rng(seed)``, a
PCG64 generator that, on every hour with demand, calls ``random()``
(consumed, never used) and then ``integers(0, d + 1)``. They are
replayed exactly from the generator's raw 64-bit words:

* ``random()`` takes one word and neither uses nor clears the half-word
  buffer of PCG64's ``next_uint32``.
* For ``d < 2³² − 1``, ``integers`` runs Lemire's bounded method on
  ``next_uint32``, which returns the low half of a fresh word and
  buffers the high half for the next 32-bit request. The method takes
  ``m = x·(d + 1)``, draws ``x`` again while
  ``m mod 2³² < 2³² mod (d + 1)``, and returns ``m >> 32``.

Without redraws, the hours with demand therefore read the words in a
fixed pattern, three words per two hours: ``random()`` takes w₀ and
``integers`` the low half of w₁; the next hour's ``random()`` takes w₂
and its ``integers`` the buffered high half of w₁. One ``random_raw``
call draws them all, and every target follows in ``uint64`` arithmetic.
A redraw (probability below ``(d + 1)/2³²`` per hour) is finished in
scalar code, and the vector pass restarts after it. Larger demands take
other numpy code paths and are refused. The targets, 0 on hours without
demand, go through :func:`~repro.purchasing.base.top_up_schedule`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    PurchasingAlgorithm,
    demands_array,
    top_up_schedule,
    validated_schedule,
)

#: ``integers(0, d + 1)`` runs Lemire's 32-bit method only below this.
DEMAND_LIMIT = 2**32 - 1

_LOW = np.uint64(0xFFFFFFFF)
_HIGH = np.uint64(32)


def _replayed_draws(demands: np.ndarray, seed: int) -> np.ndarray:
    """``integers(0, d + 1)`` for each demand in turn, each call after
    one ``random()``, on ``np.random.default_rng(seed)``.

    ``demands`` must lie in ``[1, DEMAND_LIMIT)``.
    """
    bit_generator = np.random.default_rng(seed).bit_generator
    spans = demands.astype(np.uint64) + np.uint64(1)
    thresholds = np.uint64(2**32) % spans
    draws = np.empty(spans.size, dtype=np.uint64)
    words = np.empty(0, dtype=np.uint64)
    position = 0  # the next word no call has read
    buffered = None  # the high half next_uint32 holds, if any
    index = 0
    while index < spans.size:
        # Without redraws: if next_uint32 holds a high half, the next
        # call reads its random() word and then that half. Each later
        # pair of calls reads three words: the first call's random(),
        # a word whose low half serves the first integers() and whose
        # high half the second, and the second call's random().
        lead = 0 if buffered is None else 1
        pairs = (spans.size - index - lead + 1) // 2
        end = position + lead + 3 * pairs
        if words.size < end:
            words = np.concatenate((words, bit_generator.random_raw(end - words.size)))
        shared = words[position + lead + 1:end:3]
        candidates = np.empty(lead + 2 * pairs, dtype=np.uint64)
        if lead:
            candidates[0] = buffered
        candidates[lead::2] = shared & _LOW
        candidates[lead + 1::2] = shared >> _HIGH
        products = candidates[:spans.size - index] * spans[index:]
        redrawn = np.flatnonzero((products & _LOW) < thresholds[index:])
        accepted = int(redrawn[0]) if redrawn.size else products.size
        draws[index:index + accepted] = products[:accepted] >> _HIGH
        if not redrawn.size:
            break
        # Step past the accepted calls and the first draw of the
        # rejected one, then finish that call draw by draw.
        paired = accepted + 1 - lead
        position += lead + 3 * (paired // 2)
        buffered = None
        if paired % 2:
            buffered = int(words[position + 1]) >> 32
            position += 2
        index += accepted
        span, threshold = int(spans[index]), int(thresholds[index])
        while True:
            if buffered is None:
                if position == words.size:
                    words = np.concatenate((words, bit_generator.random_raw(1)))
                word = int(words[position])
                position += 1
                low, buffered = word & 0xFFFFFFFF, word >> 32
            else:
                low, buffered = buffered, None
            product = low * span
            if product & 0xFFFFFFFF >= threshold:
                break
        draws[index] = product >> 32
        index += 1
    return draws.astype(np.int64)


class RandomReservation(PurchasingAlgorithm):
    """Top the reserved pool up to a random target ≤ demand each hour.

    The draws are deterministic in ``seed``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.name = "Random-Reservation"

    def schedule(self, demands, plan: PricingPlan) -> np.ndarray:
        trace, values = demands_array(demands, plan)
        too_large = np.flatnonzero(values >= DEMAND_LIMIT)
        if too_large.size:
            hour = int(too_large[0])
            raise SimulationError(
                f"Random-Reservation draws targets only for demands below "
                f"{DEMAND_LIMIT}; hour {hour} has {int(values[hour])}"
            )
        busy = np.flatnonzero(values)
        targets = np.zeros(len(trace), dtype=np.int64)
        targets[busy] = _replayed_draws(values[busy], self.seed)
        return validated_schedule(
            top_up_schedule(targets, plan.period_hours), len(trace)
        )
