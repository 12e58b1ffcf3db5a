"""perfbench's tracer still finds every attribute it wraps.

perfbench traces the sweep and serving layers by patching module and
class attributes by name (``fastsim.run_fast``, ``popsim.apply_rebuys``,
``ClearingModel.profile``, ...). A refactor that renames or drops one
breaks only ``python -m pytest perfbench``, which this suite does not
collect; installing both span sets here fails on the first name gone.
A name can also stay bound while the runner stops calling through it,
which leaves a traced layer at zero; a tiny traced sweep per engine
catches that. Both engines prepare each user's row or each block once
for all its columns through ``popsim.prepare``, so a runner that stops
sharing the prepared row fails here too.
"""

from types import SimpleNamespace

import pytest

from perfbench import serving, sweeps
from perfbench.spans import Tracer
from repro.core.clearing import ClearingModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import build_experiment_population
from repro.experiments.runner import run_sweep


def test_every_traced_attribute_is_bound():
    tracer = Tracer()
    router = SimpleNamespace(
        ingest_with_status=lambda *args: None,
        decisions=lambda *args: None,
        costs=lambda *args: None,
    )
    try:
        sweeps.install_spans(tracer, cache=None)
        serving.install_spans(tracer, router)
    finally:
        tracer.restore()


SHARED_LAYERS = ("offline.run", "clearing", "cancellation")


@pytest.mark.parametrize(
    "engine, layers",
    [
        ("user", ("fastsim.run", "popsim.prepare") + SHARED_LAYERS),
        (
            "population",
            ("popsim.prepare", "popsim.run", "popsim.randomized") + SHARED_LAYERS,
        ),
    ],
)
def test_the_runner_calls_through_every_traced_layer(engine, layers):
    config = ExperimentConfig.quick(seed=5).scaled(
        users_per_group=1,
        policies=(
            "randomized:seed=5,spots=0.25|0.5|0.75",
            "cancellation:phi=0.5,penalty=0.1,trigger=1",
        ),
    )
    users = build_experiment_population(config)
    tracer = Tracer()
    try:
        sweeps.install_spans(tracer, cache=None)
        tracer.enabled = True
        run_sweep(
            config,
            users=users,
            engine=engine,
            include_opt=True,
            clearing=ClearingModel.for_regime("normal", seed=5),
        )
    finally:
        tracer.restore()
    _, counts = tracer.take()
    assert [layer for layer in layers if not counts[layer + ".calls"]] == []
