"""Every decision the stream emits equals the pseudocode's, KEEP rows too.

``tests/serve/test_stream_differential.py`` compares only the SELL rows
(``stream.sales``) with ``run_fast``, which records no KEEP decisions.
Here every decided instance — hour, batch index, working hours and
verdict — is checked against the pseudocode-literal loop of
``tests/core/fastsim_reference.py``, and so is the tuple each
``observe`` call returns. A KEEP row after its batch's first keep sees
the ``sold`` history rewrites of the batch's sales plus its own ``i −
1``, not the ``2(i − 1)`` of a row whose predecessors all sold; this
file is what pins those working hours. Clearing never changes the
decision sequence, so one reference serves runs with and without it.
"""

import pytest

from repro.core.breakeven import PAPER_DECISION_FRACTIONS
from repro.core.clearing import ClearingModel
from repro.core.fastsim import FastPolicyKind
from repro.serve.state import StreamDecision, StreamTracker, Verdict
from tests.core.fastsim_reference import literal_run
from tests.serve.test_stream_differential import SEEDS, random_case


def expected_decisions(seed: int, phi: float, kind: FastPolicyKind):
    demands, reservations, model, scale = random_case(seed)
    _result, literal = literal_run(
        demands, reservations, model, phi=phi, kind=kind, threshold_scale=scale
    )
    return [
        StreamDecision(
            reserved_at=record.reserved_at,
            batch_index=record.batch_index,
            hour=record.hour,
            working_hours=record.working_hours,
            verdict=Verdict.SELL if record.sell else Verdict.KEEP,
        )
        for record in literal
    ]


@pytest.mark.parametrize("regime", [None, "normal"], ids=["no-clearing", "normal"])
@pytest.mark.parametrize("phi", PAPER_DECISION_FRACTIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_stream_decision_matches_the_pseudocode(seed, phi, regime):
    demands, reservations, model, scale = random_case(seed)
    clearing = None if regime is None else ClearingModel.for_regime(regime, seed=seed)
    for kind in FastPolicyKind:
        expected = expected_decisions(seed, phi, kind)
        tracker = StreamTracker(
            model,
            phi=phi,
            kind=kind,
            threshold_scale=scale,
            clearing=clearing,
            clearing_key=seed,
        )
        for hour, (demand, arriving) in enumerate(
            zip(demands.tolist(), reservations.tolist())
        ):
            emitted = tracker.observe(demand, arriving)
            due = tuple(decision for decision in expected if decision.hour == hour)
            assert emitted == due, (seed, phi, kind, hour)
        assert tracker.decisions == tuple(expected), (seed, phi, kind)


def test_the_corpus_reaches_keep_rows_after_a_sale():
    """The case the test above exists for: a KEEP row at batch index
    ``i > sold + 1`` in a batch that sold, whose shift ``(i − 1) + sold``
    differs from ``2(i − 1)``."""
    reached = 0
    for seed in SEEDS:
        for phi in PAPER_DECISION_FRACTIONS:
            sold: "dict[int, int]" = {}
            for decision in expected_decisions(seed, phi, FastPolicyKind.ONLINE):
                if decision.verdict is Verdict.SELL:
                    sold[decision.reserved_at] = decision.batch_index
                elif decision.batch_index > sold.get(decision.reserved_at, 0) + 1:
                    reached += decision.reserved_at in sold
    assert reached > 0
