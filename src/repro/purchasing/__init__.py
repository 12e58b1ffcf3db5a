"""Purchasing substrate: the paper's four reservation-behaviour imitators."""

from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.base import (
    ActiveReservationTracker,
    PurchasingAlgorithm,
)
from repro.purchasing.ondemand_only import OnDemandOnly
from repro.purchasing.online_breakeven import (
    OnlineBreakEven,
    aggressive_online_purchasing,
    wang_online_purchasing,
)
from repro.purchasing.random_reservation import RandomReservation
from repro.purchasing.runner import (
    ReservationSchedule,
    imitate,
    paper_imitators,
)
from repro.purchasing.stepper import (
    AllReservedStepper,
    BreakEvenStepper,
    OnDemandOnlyStepper,
    PurchasingStepper,
    RandomReservationStepper,
    stepper_for,
)

__all__ = [
    "PurchasingAlgorithm",
    "ActiveReservationTracker",
    "AllReserved",
    "RandomReservation",
    "OnlineBreakEven",
    "wang_online_purchasing",
    "aggressive_online_purchasing",
    "OnDemandOnly",
    "ReservationSchedule",
    "imitate",
    "paper_imitators",
    "PurchasingStepper",
    "AllReservedStepper",
    "RandomReservationStepper",
    "BreakEvenStepper",
    "OnDemandOnlyStepper",
    "stepper_for",
]
