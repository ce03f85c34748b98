"""Deterministic random-stream construction.

All randomness flows through numpy Generators seeded from a 64-bit master
seed. A measure draws points with its one row sampler, ``sample_rows(rng,
size)``, and a row's draws do not depend on the rows drawn with it, so
results never depend on how the points are split into blocks.
``decompose`` draws all its points from one child stream, ``(0xD0, 0)``,
and ``ergodicity_test`` its probes from another, ``(0xE6, 0)``, a block at a
time in point order. Only Monte Carlo levels derive one child stream per
point index with ``substream(seed, index)``. A one-int key k is point k's
stream, so the shared point streams take two-int keys. Runs take one
process: ``--workers`` changes nothing.
"""
from __future__ import annotations

import numpy as np

RandomStream = np.random.Generator


def substream(seed: int, *key: int) -> RandomStream:
    """Child stream for (seed, key...); identical for any split into blocks."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
