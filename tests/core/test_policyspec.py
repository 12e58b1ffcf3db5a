"""The declarative policy-spec grammar: parse, validate, canonicalise,
round-trip (string ↔ dict ↔ JSON ↔ repr), build the right policy, and
reverse-map constructed policies back to their specs."""

import json

import pytest

from repro.core.policies import (
    POLICY_A_T2,
    POLICY_KEEP,
    POLICY_RANDOMIZED,
    AllSellingPolicy,
    CancellationAwareSellingPolicy,
    KeepReservedPolicy,
    OnlineSellingPolicy,
    RandomizedSellingPolicy,
    ScriptedSellingPolicy,
)
from repro.core.policyspec import (
    PolicySpec,
    make_policy,
    parse_policies,
    spec_for,
)
from repro.errors import PolicyError

#: (input string, canonical form) — the grammar's happy paths.
CANONICAL_CASES = [
    ("keep", "keep"),
    ("online:phi=0.75", "online:phi=0.75"),
    ("online:phi=0.75,scale=1.0", "online:phi=0.75"),  # default omitted
    ("online:phi=0.5,scale=1.25", "online:phi=0.5,scale=1.25"),
    ("all-selling:phi=0.25", "all-selling:phi=0.25"),
    ("randomized", "randomized"),
    ("randomized:seed=0", "randomized"),  # default seed omitted
    ("randomized:seed=7", "randomized:seed=7"),
    # the default menu spelled out still canonicalises away
    ("randomized:seed=7,spots=0.25|0.5|0.75", "randomized:seed=7"),
    (
        "randomized:spots=0.5|0.75,weights=0.25|0.75",
        "randomized:spots=0.5|0.75,weights=0.25|0.75",
    ),
    ("cancellation:phi=0.5", "cancellation:phi=0.5"),
    (
        "cancellation:phi=0.5,penalty=0.25,trigger=1,scale=1.0",
        "cancellation:phi=0.5",
    ),
    (
        "cancellation:phi=0.75,penalty=0.1,trigger=3",
        "cancellation:phi=0.75,penalty=0.1,trigger=3",
    ),
    ("online:phi=0.75,name=mine", "online:phi=0.75,name=mine"),
]


class TestGrammar:
    @pytest.mark.parametrize("text,canonical", CANONICAL_CASES)
    def test_canonical_form(self, text, canonical):
        assert PolicySpec(text).canonical() == canonical

    @pytest.mark.parametrize("text,canonical", CANONICAL_CASES)
    def test_canonical_is_a_fixed_point(self, text, canonical):
        again = PolicySpec(canonical)
        assert again.canonical() == canonical
        assert again == PolicySpec(text)

    def test_whitespace_is_tolerated(self):
        assert (
            PolicySpec("  online: phi = 0.75 , scale = 1.0 ").canonical()
            == "online:phi=0.75"
        )

    def test_get_returns_normalised_parameters(self):
        spec = PolicySpec("randomized:seed=7")
        assert spec.get("seed") == 7
        assert spec.get("spots") == (0.25, 0.5, 0.75)  # default applied
        assert spec.get("weights") is None
        with pytest.raises(KeyError):
            spec.get("phi")

    def test_float_repr_round_trips_exactly(self):
        # repr formatting is the exact shortest round-trip, so an
        # awkward float survives string → spec → string unchanged.
        phi = 0.30000000000000004
        spec = PolicySpec({"kind": "online", "phi": phi})
        assert PolicySpec(spec.canonical()).get("phi") == phi


class TestRoundTrips:
    @pytest.mark.parametrize("text,_", CANONICAL_CASES)
    def test_repr_round_trips(self, text, _):
        spec = PolicySpec(text)
        assert eval(repr(spec), {"PolicySpec": PolicySpec}) == spec

    @pytest.mark.parametrize("text,_", CANONICAL_CASES)
    def test_json_payload_round_trips(self, text, _):
        spec = PolicySpec(text)
        payload = json.loads(json.dumps(spec.to_payload()))
        assert PolicySpec.from_payload(payload) == spec

    def test_dict_form_equals_string_form(self):
        by_text = PolicySpec("randomized:seed=7,spots=0.5|0.75")
        by_dict = PolicySpec(
            {"kind": "randomized", "seed": 7, "spots": [0.5, 0.75]}
        )
        assert by_text == by_dict
        assert hash(by_text) == hash(by_dict)

    def test_copy_constructor(self):
        spec = PolicySpec("cancellation:phi=0.5,penalty=0.1")
        assert PolicySpec(spec) == spec

    def test_content_digest_keyed_by_canonical_form(self):
        defaulted = PolicySpec("online:phi=0.75,scale=1.0")
        plain = PolicySpec("online:phi=0.75")
        assert defaulted.content_digest() == plain.content_digest()
        assert (
            PolicySpec("online:phi=0.5").content_digest()
            != plain.content_digest()
        )

    def test_specs_are_immutable(self):
        spec = PolicySpec("keep")
        with pytest.raises(AttributeError):
            spec.kind = "online"


class TestBuild:
    def test_keep(self):
        policy = PolicySpec("keep").build()
        assert isinstance(policy, KeepReservedPolicy)
        assert policy.name == POLICY_KEEP

    def test_online(self):
        policy = PolicySpec("online:phi=0.5,scale=1.25").build()
        assert isinstance(policy, OnlineSellingPolicy)
        assert policy.phi == 0.5
        assert policy.threshold_scale == 1.25
        assert policy.name == POLICY_A_T2

    def test_all_selling(self):
        policy = PolicySpec("all-selling:phi=0.25").build()
        assert isinstance(policy, AllSellingPolicy)
        assert policy.phi == 0.25

    def test_randomized(self):
        policy = PolicySpec(
            "randomized:seed=7,spots=0.5|0.75,weights=1|3"
        ).build()
        assert isinstance(policy, RandomizedSellingPolicy)
        assert policy.seed == 7
        assert policy.spots == (0.5, 0.75)
        assert policy.probabilities == (0.25, 0.75)  # normalised
        assert policy.name == POLICY_RANDOMIZED

    def test_cancellation(self):
        policy = PolicySpec(
            "cancellation:phi=0.75,penalty=0.1,trigger=3"
        ).build()
        assert isinstance(policy, CancellationAwareSellingPolicy)
        assert policy.phi == 0.75
        assert policy.penalty == 0.1
        assert policy.trigger_hours == 3

    def test_name_parameter_overrides_display_name(self):
        assert PolicySpec("online:phi=0.75,name=mine").build().name == "mine"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "nope",
            "online",  # phi is required
            "all-selling",
            "cancellation",
            "online:phi=0.75,phi=0.5",  # repeated parameter
            "online:phi",  # not key=value
            "online:=0.75",
            "online:phi=0.75,turbo=1",  # unknown parameter
            "online:phi=zero",
            "randomized:seed=1.5",  # non-integer seed
            "randomized:spots=",  # empty menu
            "online:phi=1.5",  # invalid decision fraction
            "cancellation:phi=0.5,penalty=-1",
            "cancellation:phi=0.5,trigger=0",
        ],
    )
    def test_bad_strings_raise_policy_error(self, text):
        with pytest.raises(PolicyError):
            PolicySpec(text)

    def test_bad_dicts_raise_policy_error(self):
        with pytest.raises(PolicyError):
            PolicySpec({"phi": 0.5})  # no kind
        with pytest.raises(PolicyError):
            PolicySpec({"kind": 7})
        with pytest.raises(PolicyError):
            PolicySpec(42)  # type: ignore[arg-type]


class TestMakePolicy:
    def test_string_dict_spec_and_policy_forms_agree(self):
        text = "cancellation:phi=0.5,penalty=0.1"
        by_text = make_policy(text)
        by_spec = make_policy(PolicySpec(text))
        by_dict = make_policy(
            {"kind": "cancellation", "phi": 0.5, "penalty": 0.1}
        )
        assert spec_for(by_text) == spec_for(by_spec) == spec_for(by_dict)
        # An already-built policy passes through unchanged.
        assert make_policy(by_text) is by_text

    def test_bare_float_is_rejected(self):
        with pytest.raises(PolicyError, match="must be a string"):
            make_policy(0.75)

    def test_display_name_is_rejected(self):
        with pytest.raises(PolicyError, match="unknown policy spec kind"):
            make_policy(POLICY_A_T2)

    def test_bool_is_rejected(self):
        with pytest.raises(PolicyError):
            make_policy(True)


class TestSpecFor:
    @pytest.mark.parametrize(
        "text",
        [
            "keep",
            "online:phi=0.75",
            "online:phi=0.5,scale=1.25",
            "all-selling:phi=0.25",
            "randomized:seed=7",
            "randomized:spots=0.5|0.75,weights=0.25|0.75",
            "cancellation:phi=0.75,penalty=0.1,trigger=3",
        ],
    )
    def test_build_then_spec_for_round_trips(self, text):
        spec = PolicySpec(text)
        assert spec_for(spec.build()) == spec

    def test_uniform_randomized_stays_canonical(self):
        # Uniform weights are the default; the reverse map must omit
        # them or the canonical form would stop being a fixed point.
        policy = RandomizedSellingPolicy(spots=(0.25, 0.5, 0.75), seed=3)
        assert spec_for(policy).canonical() == "randomized:seed=3"

    def test_scripted_policies_have_no_spec(self):
        with pytest.raises(PolicyError):
            spec_for(ScriptedSellingPolicy({}))


class TestParsePolicies:
    def test_semicolon_separated_list(self):
        specs = parse_policies(
            "online:phi=0.75; randomized:seed=7 ;"
            "cancellation:phi=0.5,penalty=0.1"
        )
        assert [spec.kind for spec in specs] == [
            "online",
            "randomized",
            "cancellation",
        ]

    def test_empty_list_is_rejected(self):
        with pytest.raises(PolicyError, match="at least one"):
            parse_policies(" ; ;")

    def test_duplicate_display_names_are_rejected(self):
        with pytest.raises(PolicyError, match="duplicate"):
            parse_policies("online:phi=0.75;online:phi=0.75,scale=1.25")
        # distinct name= parameters resolve the clash
        specs = parse_policies(
            "online:phi=0.75;online:phi=0.75,scale=1.25,name=strict"
        )
        assert len(specs) == 2
