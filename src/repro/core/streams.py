"""Per-key deterministic uniform streams shared by every random draw.

The clearing engine (PR 9) established the repository's randomness
contract: every stochastic draw comes from a ``numpy`` generator rooted
on ``(seed, key)``, where the key is a stable per-entity identity — a
user id in the sweeps, an instance id in the serving layer. Python's
built-in ``hash`` is randomised per process, so string keys are folded
through SHA-256 instead; the same key yields the same stream in every
process and session, which is what makes the population tensor engine,
the per-user engine, and a killed-and-restored server draw *identical*
values.

This module is the single home of that contract. ``repro.core.clearing``
draws its listing delays from here, and the randomized selling policy
(the paper's §VII future-work direction) draws its per-entity decision
spots from here — one uniform per entity, inverted through the spot
distribution's CDF with ``searchsorted``, exactly the clearing model's
delay-draw idiom.

Because ``Generator.random(size=k)`` consumes the stream identically to
``k`` scalar ``random()`` calls, vectorised and scalar consumers of the
same key agree bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro._arrays import as_int
from repro.errors import SimulationError


def key_to_int(key: object) -> int:
    """Deterministic non-negative integer identity for a stream key.

    Python's built-in ``hash`` is randomised per process, so string keys
    (user ids, serve instance ids) are folded through SHA-256 instead —
    the same key yields the same stream in every process and session.
    """
    if isinstance(key, bool):
        raise SimulationError(f"stream key must not be a bool: {key!r}")
    if isinstance(key, (int, np.integer)):
        value = int(key)
        if value < 0:
            raise SimulationError(
                f"integer stream keys must be >= 0, got {value!r}"
            )
        return value
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "big")
    raise SimulationError(
        f"stream key must be an int or str, got {type(key).__name__}"
    )


def validate_seed(seed: object) -> int:
    """A non-negative integer stream seed; bools and floats are rejected."""
    return as_int(seed, "seed", SimulationError, minimum=0)


def stream(seed: int, key: object) -> np.random.Generator:
    """The seeded per-key uniform stream.

    Every consumer — clearing delays, randomized decision spots — gets
    its own generator per ``(seed, key)`` pair; distinct seeds give
    statistically independent draw families over the same keys.
    """
    return np.random.default_rng((int(seed), key_to_int(key)))


def uniform(seed: int, key: object) -> float:
    """One uniform in ``[0, 1)`` from the per-key stream's head.

    The scalar form of the contract: consuming exactly one draw leaves
    the stream positioned identically to ``stream(seed, key).random()``,
    so a caller that later needs more draws from the same key can
    recreate the generator and skip one.
    """
    return float(stream(seed, key).random())
