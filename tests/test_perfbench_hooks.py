"""perfbench's tracer still finds every attribute it wraps.

perfbench traces the sweep and serving layers by patching module and
class attributes by name (``fastsim.run_fast``, ``popsim.apply_rebuys``,
``ClearingModel.profile``, ...). A refactor that renames or drops one
breaks only ``python -m pytest perfbench``, which this suite does not
collect; installing both span sets here fails on the first name gone.
"""

from types import SimpleNamespace

from perfbench import serving, sweeps
from perfbench.spans import Tracer


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
