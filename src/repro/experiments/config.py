"""Experiment configuration (Section VI-A's settings, scalable).

The paper's setup: 300 users (100 per fluctuation group), d2.xlarge
(Linux, US East) with upfront $1506, on-demand $0.69/h, α = 0.25, 1-year
reservations, selling discount chosen by the seller (the worked example
uses 20% off, a = 0.8), reservation behaviour imitated by four purchasing
algorithms.

Because every quantity in the model is expressed in fractions of the
period ``T`` (β, the decision spots, the prorated income), the period can
be scaled down — with the upfront scaled proportionally, preserving θ —
without changing any algorithmic behaviour. Three presets:

* ``quick()`` — CI-size: T = 336 h, 15 users/group;
* ``default()`` — bench-size: T = 672 h, 50 users/group;
* ``paper_scale()`` — the full Section VI setup: T = 8760 h, 100/group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.account import CostModel, HourlyFeeMode
from repro.errors import ExperimentError
from repro.pricing.catalog import paper_experiment_plan
from repro.pricing.plan import HOURS_PER_YEAR, PricingPlan

#: The paper's experiment instance parameters (Section VI-A).
PAPER_ALPHA = 0.25
PAPER_SELLING_DISCOUNT = 0.8


def _canonical_policy_specs(specs: "tuple[str, ...]") -> "tuple[str, ...]":
    """Parse, canonicalise, and name-check extra sweep policy specs."""
    from repro.core import policies as _policies
    from repro.core.policyspec import PolicySpec

    standard = {
        _policies.POLICY_KEEP,
        _policies.POLICY_OPT,
        *_policies.ONLINE_POLICIES,
        *_policies.ALL_SELLING_POLICIES,
    }
    canonical: "list[str]" = []
    names: "list[str]" = []
    for spec in specs:
        parsed = PolicySpec(spec)
        name = parsed.build().name
        if name in standard:
            raise ExperimentError(
                f"policy spec {parsed.canonical()!r} produces the display "
                f"name {name!r}, which collides with the standard sweep "
                "set; give it a distinct name=... parameter"
            )
        if name in names:
            raise ExperimentError(
                f"policy specs produce the duplicate display name {name!r}; "
                "give each a distinct name=... parameter"
            )
        canonical.append(parsed.canonical())
        names.append(name)
    return tuple(canonical)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scalable rendition of the paper's experimental settings."""

    users_per_group: int = 50
    period_hours: int = 672
    horizon_periods: float = 2.0
    seed: int = 2018  # the paper's publication year; any value works
    selling_discount: float = PAPER_SELLING_DISCOUNT
    alpha: float = PAPER_ALPHA
    mean_demand: float = 5.0
    marketplace_fee: float = 0.0
    fee_mode: HourlyFeeMode = HourlyFeeMode.ACTIVE
    #: Extra policy specs (see :mod:`repro.core.policyspec`) appended
    #: after the standard sweep set — canonical spec strings, stored
    #: declaratively so the configuration (and the cache key derived
    #: from :meth:`content_hash`) never carries pickled policy objects.
    policies: "tuple[str, ...]" = ()
    label: str = "default"

    def __post_init__(self) -> None:
        if self.users_per_group <= 0:
            raise ExperimentError(
                f"users_per_group must be positive, got {self.users_per_group!r}"
            )
        if self.period_hours < 8 or self.period_hours % 4 != 0:
            raise ExperimentError(
                "period_hours must be a multiple of 4 (the decision spots "
                f"T/4, T/2, 3T/4 must be whole hours), got {self.period_hours!r}"
            )
        if self.horizon_periods < 1.0:
            raise ExperimentError(
                f"horizon_periods must be >= 1, got {self.horizon_periods!r}"
            )
        if not 0.0 <= self.selling_discount <= 1.0:
            raise ExperimentError(
                f"selling_discount must lie in [0, 1], got {self.selling_discount!r}"
            )
        # Always a tuple, empty included, so a config stays hashable and
        # equal to its canonical form whatever sequence it was given.
        object.__setattr__(
            self,
            "policies",
            _canonical_policy_specs(self.policies) if self.policies else (),
        )

    # ------------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Simulated hours; reservations made in the first period always
        complete their decision spot inside the horizon."""
        return round(self.horizon_periods * self.period_hours)

    @property
    def total_users(self) -> int:
        return 3 * self.users_per_group

    def plan(self) -> PricingPlan:
        """The d2.xlarge plan at this config's scale (θ preserved)."""
        base = paper_experiment_plan(alpha=self.alpha)
        if self.period_hours == base.period_hours:
            return base
        return base.with_period(self.period_hours)

    def cost_model(self) -> CostModel:
        """The Eq. (1) cost model implied by this configuration."""
        return self._cost_model

    @cached_property
    def _cost_model(self) -> CostModel:
        # Built on first use and kept: the configuration and the model
        # are both immutable, and every sweep of the configuration asks.
        return CostModel(
            plan=self.plan(),
            selling_discount=self.selling_discount,
            marketplace_fee=self.marketplace_fee,
            fee_mode=self.fee_mode,
        )

    def scaled(self, **overrides: object) -> "ExperimentConfig":
        """A copy with some fields replaced."""
        return replace(self, **overrides)

    def content_hash(self) -> str:
        """Stable digest of every field that can influence a result.

        Deterministic across processes and sessions (unlike ``hash``),
        this is the configuration component of the sweep cache key — any
        field change, including the ``label``-excluded ones below, must
        produce a different digest or the cache would serve stale
        outcomes. ``label`` is presentation-only and deliberately left
        out so renaming a preset does not cold-start the cache.
        """
        from repro.parallel.hashing import stable_hash

        key: "dict[str, object]" = {
            "users_per_group": self.users_per_group,
            "period_hours": self.period_hours,
            "horizon_periods": self.horizon_periods,
            "seed": self.seed,
            "selling_discount": self.selling_discount,
            "alpha": self.alpha,
            "mean_demand": self.mean_demand,
            "marketplace_fee": self.marketplace_fee,
            "fee_mode": self.fee_mode,
        }
        if self.policies:
            # Only added when present, so configurations predating the
            # policy-spec field keep their historical digests (an empty
            # tuple and an absent field must hash identically).
            key["policies"] = self.policies
        return stable_hash(key)

    # Presets --------------------------------------------------------------

    @classmethod
    def quick(cls, seed: int = 2018) -> "ExperimentConfig":
        """Small and fast: suitable for tests and CI."""
        return cls(users_per_group=15, period_hours=336, seed=seed, label="quick")

    @classmethod
    def default(cls, seed: int = 2018) -> "ExperimentConfig":
        """The benchmark default: minutes, not hours."""
        return cls(users_per_group=50, period_hours=672, seed=seed, label="default")

    @classmethod
    def paper_scale(cls, seed: int = 2018) -> "ExperimentConfig":
        """The paper's full setting: 300 users, 1-year period."""
        return cls(
            users_per_group=100,
            period_hours=HOURS_PER_YEAR,
            seed=seed,
            label="paper",
        )
