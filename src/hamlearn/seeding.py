"""Stateless seed splitting.

Every random draw in the package comes from a Generator produced by
`split(master_seed, DOMAIN, *indices)`.  Splits are independent and
order-free, so parallel and serial generation of the same objects agree,
and any object (task #4217, episode #55) can be re-derived in isolation.
"""

from __future__ import annotations

import numpy as np

# spawn-key domains
TASK = 0          # meta-train task index
TEST_SYSTEM = 1   # held-out evaluation system index
EPISODE = 2       # outer-loop episode index
ROLLOUT = 4       # rollout initial states
ABLATE = 5        # per-task-count ablation reseeding


def split(seed: int, *key: int) -> np.random.Generator:
    """Independent Generator for (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))
