"""The declarative policy-spec grammar behind ``repro.api.make_policy``.

Before this module, every layer grew its own policy-construction idiom:
the CLI hard-wired the paper's three online policies, sweep configs
enumerated constructor calls, the serve layer took bare ``--phi``
floats, and tests instantiated classes directly. A policy is now named
by one **spec** — a short string (or equivalent typed dict) that parses,
validates, canonicalises, and round-trips through ``repr`` and JSON —
so cache keys, checkpoints, HTTP provenance fields, and CLI flags all
store the *same* declarative value instead of pickled objects.

String grammar::

    kind[:key=value[,key=value...]]

    keep
    online:phi=0.75[,scale=1.0][,name=...]
    all-selling:phi=0.5[,name=...]
    randomized:seed=7,spots=0.25|0.5|0.75[,weights=0.2|0.3|0.5][,name=...]
    cancellation:phi=0.75[,penalty=0.25][,trigger=1][,scale=1.0][,name=...]

Floats use Python ``repr`` formatting (exact shortest round-trip);
float lists are ``|``-separated. The dict form mirrors the string form:
``{"kind": "randomized", "seed": 7, "spots": [0.25, 0.5, 0.75]}``.

Canonical form: parameters in the kind's declaration order with
defaulted entries omitted, so two specs that build the same policy
compare, hash, and digest identically — the property the sweep cache
key and the serve checkpoint rely on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Tuple

from repro.core.breakeven import PAPER_DECISION_FRACTIONS
from repro.core.policies import (
    AllSellingPolicy,
    CancellationAwareSellingPolicy,
    KeepReservedPolicy,
    ListedSellingPolicy,
    OnlineSellingPolicy,
    RandomizedSellingPolicy,
    SellingPolicy,
)
from repro.errors import PolicyError, SimulationError

#: Spec kinds (the grammar's first token).
SPEC_KEEP = "keep"
SPEC_ONLINE = "online"
SPEC_ALL_SELLING = "all-selling"
SPEC_RANDOMIZED = "randomized"
SPEC_CANCELLATION = "cancellation"

#: Per-kind parameter declarations: ``name -> (type tag, default)``.
#: ``REQUIRED`` marks parameters without a default. Declaration order is
#: the canonical emission order.
_REQUIRED = object()
_PARAMS: "Dict[str, Tuple[Tuple[str, str, object], ...]]" = {
    SPEC_KEEP: (),
    SPEC_ONLINE: (
        ("phi", "float", _REQUIRED),
        ("scale", "float", 1.0),
        ("name", "str", None),
    ),
    SPEC_ALL_SELLING: (
        ("phi", "float", _REQUIRED),
        ("name", "str", None),
    ),
    SPEC_RANDOMIZED: (
        ("seed", "int", 0),
        ("spots", "floats", tuple(sorted(PAPER_DECISION_FRACTIONS))),
        ("weights", "floats", None),
        ("name", "str", None),
    ),
    SPEC_CANCELLATION: (
        ("phi", "float", _REQUIRED),
        ("penalty", "float", 0.25),
        ("trigger", "int", 1),
        ("scale", "float", 1.0),
        ("name", "str", None),
    ),
}


def _format_value(tag: str, value: object) -> str:
    if tag == "floats":
        return "|".join(repr(float(v)) for v in value)  # type: ignore[union-attr]
    if tag == "float":
        return repr(float(value))  # type: ignore[arg-type]
    if tag == "int":
        return repr(int(value))  # type: ignore[call-overload]
    return str(value)


def _parse_value(kind: str, key: str, tag: str, raw: object) -> object:
    try:
        if tag == "floats":
            if isinstance(raw, str):
                parts = [part for part in raw.split("|") if part != ""]
                return tuple(float(part) for part in parts)
            return tuple(float(v) for v in raw)  # type: ignore[union-attr]
        if tag == "float":
            return float(raw)  # type: ignore[arg-type]
        if tag == "int":
            if isinstance(raw, float) and not raw.is_integer():
                raise ValueError(raw)
            return int(raw)  # type: ignore[call-overload]
        if not isinstance(raw, str) or not raw:
            raise ValueError(raw)
        return raw
    except (TypeError, ValueError):
        raise PolicyError(
            f"policy spec {kind!r}: parameter {key}={raw!r} is not a valid {tag}"
        ) from None


class PolicySpec:
    """One parsed, validated, canonical policy specification.

    Accepts the string grammar, the dict form, or another
    :class:`PolicySpec` (copied). Instances are immutable, hashable,
    compare by canonical form, and ``repr`` round-trips::

        >>> PolicySpec("randomized:seed=7")
        PolicySpec('randomized:seed=7')
    """

    __slots__ = ("kind", "params", "_canonical")

    def __init__(self, spec: "str | Mapping[str, object] | PolicySpec") -> None:
        if isinstance(spec, PolicySpec):
            kind, raw_params = spec.kind, dict(spec.params)
        elif isinstance(spec, str):
            kind, raw_params = self._split_text(spec)
        elif isinstance(spec, Mapping):
            payload = dict(spec)
            kind = payload.pop("kind", None)
            if not isinstance(kind, str):
                raise PolicyError(
                    f"policy spec dict needs a string 'kind', got {kind!r}"
                )
            raw_params = payload
        else:
            raise PolicyError(
                "policy spec must be a string, a dict, or a PolicySpec, got "
                f"{type(spec).__name__}"
            )
        if kind not in _PARAMS:
            raise PolicyError(
                f"unknown policy spec kind {kind!r}; expected one of "
                f"{sorted(_PARAMS)}"
            )
        declared = _PARAMS[kind]
        known = {name for name, _tag, _default in declared}
        unknown = set(raw_params) - known
        if unknown:
            raise PolicyError(
                f"policy spec {kind!r} got unknown parameter(s) "
                f"{sorted(unknown)}; expected {sorted(known)}"
            )
        params: "Dict[str, object]" = {}
        for name, tag, default in declared:
            if name in raw_params and raw_params[name] is not None:
                params[name] = _parse_value(kind, name, tag, raw_params[name])
            elif default is _REQUIRED:
                raise PolicyError(
                    f"policy spec {kind!r} requires parameter {name!r}"
                )
            else:
                params[name] = default
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "params", tuple(sorted(params.items()))
        )
        object.__setattr__(self, "_canonical", self._render(kind, params))
        # Validate eagerly: a spec that parses must also build, so bad
        # parameter values fail at spec-construction time, not later in
        # a worker process or on checkpoint restore.
        try:
            self.build()
        except SimulationError as error:
            raise PolicyError(
                f"policy spec {self._canonical!r}: {error}"
            ) from error

    # -- parsing helpers ------------------------------------------------

    @staticmethod
    def _split_text(text: str) -> "Tuple[str, Dict[str, object]]":
        text = text.strip()
        if not text:
            raise PolicyError("policy spec string must be non-empty")
        kind, _sep, tail = text.partition(":")
        kind = kind.strip()
        raw_params: "Dict[str, object]" = {}
        if tail.strip():
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise PolicyError(
                        f"policy spec parameter {item!r} must look like "
                        "key=value"
                    )
                if key in raw_params:
                    raise PolicyError(
                        f"policy spec repeats parameter {key!r}"
                    )
                raw_params[key] = value.strip()
        return kind, raw_params

    @staticmethod
    def _render(kind: str, params: "Mapping[str, object]") -> str:
        parts = []
        for name, tag, default in _PARAMS[kind]:
            value = params[name]
            if default is not _REQUIRED and value == default:
                continue
            if value is None:
                continue
            parts.append(f"{name}={_format_value(tag, value)}")
        return kind if not parts else f"{kind}:{','.join(parts)}"

    # -- the public surface ---------------------------------------------

    def get(self, name: str) -> object:
        """One normalised parameter (defaults applied)."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def canonical(self) -> str:
        """The canonical string form (defaults omitted, fixed order)."""
        return self._canonical

    def to_payload(self) -> dict:
        """JSON-ready dict form; ``from_payload`` round-trips it."""
        payload: "Dict[str, object]" = {"kind": self.kind}
        for key, value in self.params:
            if value is None:
                continue
            payload[key] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, payload: "Mapping[str, object]") -> "PolicySpec":
        return cls(payload)

    def content_digest(self) -> str:
        """Stable identity for cache keys and checkpoints."""
        return hashlib.sha256(self._canonical.encode("utf-8")).hexdigest()

    def build(self) -> SellingPolicy:
        """Construct the policy this spec names."""
        params = dict(self.params)
        name = params.get("name")
        if self.kind == SPEC_KEEP:
            return KeepReservedPolicy()
        if self.kind == SPEC_ONLINE:
            policy = OnlineSellingPolicy(
                params["phi"], threshold_scale=params["scale"]
            )
            if name is not None:
                policy.name = str(name)
            return policy
        if self.kind == SPEC_ALL_SELLING:
            policy = AllSellingPolicy(params["phi"])
            if name is not None:
                policy.name = str(name)
            return policy
        if self.kind == SPEC_RANDOMIZED:
            return RandomizedSellingPolicy(
                spots=params["spots"],
                weights=params["weights"],
                seed=params["seed"],
                name=name,
            )
        return CancellationAwareSellingPolicy(
            params["phi"],
            penalty=params["penalty"],
            trigger_hours=params["trigger"],
            threshold_scale=params["scale"],
            name=name,
        )

    # -- dunder plumbing ------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolicySpec is immutable")

    def __repr__(self) -> str:
        return f"PolicySpec({self._canonical!r})"

    def __str__(self) -> str:
        return self._canonical

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicySpec):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)


def spec_for(policy: SellingPolicy) -> PolicySpec:
    """The declarative spec of a constructed policy instance.

    The reverse mapping used for provenance (serve decision rows);
    raises :class:`PolicyError` for policies with no declarative form
    (e.g. scripted replays).
    """
    if isinstance(policy, RandomizedSellingPolicy):
        weights: "Tuple[float, ...] | None" = tuple(policy.probabilities)
        if len(set(weights)) == 1:
            weights = None  # uniform is the default; keep the spec canonical
        return PolicySpec(
            {
                "kind": SPEC_RANDOMIZED,
                "seed": policy.seed,
                "spots": policy.spots,
                "weights": weights,
            }
        )
    if isinstance(policy, CancellationAwareSellingPolicy):
        return PolicySpec(
            {
                "kind": SPEC_CANCELLATION,
                "phi": policy.phi,
                "penalty": policy.penalty,
                "trigger": policy.trigger_hours,
                "scale": policy.threshold_scale,
            }
        )
    if isinstance(policy, ListedSellingPolicy):
        # The decision rule is the online rule at phi; the listing
        # schedule travels via the clearing model, not the policy spec.
        return PolicySpec(
            {"kind": SPEC_ONLINE, "phi": policy.phi, "scale": policy.threshold_scale}
        )
    if isinstance(policy, OnlineSellingPolicy):
        return PolicySpec(
            {"kind": SPEC_ONLINE, "phi": policy.phi, "scale": policy.threshold_scale}
        )
    if isinstance(policy, AllSellingPolicy):
        return PolicySpec({"kind": SPEC_ALL_SELLING, "phi": policy.phi})
    if isinstance(policy, KeepReservedPolicy):
        return PolicySpec(SPEC_KEEP)
    raise PolicyError(
        f"policy {policy!r} has no declarative spec form"
    )


def make_policy(spec: object) -> SellingPolicy:
    """Build a selling policy from any accepted spec form.

    The one construction entry point (exported as
    ``repro.api.make_policy``):

    * a spec string or dict — the declarative grammar above;
    * a :class:`PolicySpec` — built directly;
    * an already-constructed :class:`SellingPolicy` — passed through
      unchanged (composition-friendly).

    Anything else — a bare decision fraction, a policy display name such
    as ``A_{T/2}`` — raises :class:`~repro.errors.PolicyError`.
    """
    if isinstance(spec, SellingPolicy):
        return spec
    if isinstance(spec, PolicySpec):
        return spec.build()
    return PolicySpec(spec).build()  # type: ignore[arg-type]


def parse_policies(text: str) -> "Tuple[PolicySpec, ...]":
    """Parse a ``;``-separated list of specs (the CLI ``--policies`` form).

    Specs contain commas, so the list separator is ``;``. Duplicate
    display names are rejected — result tables, cache entries, and serve
    responses key policies by name.
    """
    specs = tuple(
        PolicySpec(part.strip())
        for part in text.split(";")
        if part.strip()
    )
    if not specs:
        raise PolicyError("--policies must name at least one policy spec")
    names = [spec.build().name for spec in specs]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise PolicyError(
            f"policy specs produce duplicate display name(s) "
            f"{sorted(duplicates)}; give each a distinct name=... parameter"
        )
    return specs
