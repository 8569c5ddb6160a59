"""Deterministic many-arm instance generator for the benchmark.

Draws come from Python's ``random.Random`` seeded with a string (stable
across Python versions), never from numpy or from ``repmab.randomness``,
so a change to the program's random layer cannot change the benchmark's
inputs.
"""

from __future__ import annotations

import random

# Thresholds sit this far above the uniform strategy's cost.
MARGIN = 0.05


def many_arm_instance(k: int, m: int, seed: int, horizon: int) -> dict:
    """Instance payload with K arms, m constraints and a strictly safe margin.

    Every threshold is the uniform strategy's cost plus ``MARGIN``, so the
    uniform strategy is strictly safe (non-empty safe set, margin > 0, as
    ``debora-h`` requires), while the costliest arm of every constraint is
    unsafe, so the oracle LP cannot take the whole-simplex shortcut.
    """
    if k < 2 or m < 1:
        raise ValueError("need at least two arms and one constraint")
    rng = random.Random(f"repmab-bench/many-arms/{k}/{m}/{seed}")
    rewards = [round(rng.uniform(0.05, 0.95), 4) for _ in range(k)]
    costs = [[round(rng.uniform(0.05, 0.95), 4) for _ in range(k)] for _ in range(m)]
    thresholds = [round(sum(row) / k + MARGIN, 4) for row in costs]
    for row, bound in zip(costs, thresholds):
        if not (sum(row) / k < bound <= 1.0 and max(row) > bound):
            raise ValueError(f"generated threshold {bound} does not split the arms")
    return {
        "K": k,
        "m": m,
        "reward_means": rewards,
        "cost_means": costs,
        "thresholds": thresholds,
        "horizon": horizon,
        "family": "bernoulli",
    }
