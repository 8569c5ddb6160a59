"""Bandit policies: three replicable epoch-doubling variants and UCB1.

The replicable policies freeze their strategy for the length of an
epoch and close the epoch once some arm has doubled its pull count
since the epoch started.  At a close they refresh mean estimates
through the randomized-grid estimator, with the grid cell width matched
to each arm's sample count (the same width that serves as the
exploration bonus), then reselect:

* ``debora-s``    plays the strategy maximizing the optimistic reward over
  the optimistically safe polytope;
* ``debora``      solves the same program with no constraint rows, whose
  answer is the arm with the highest optimistic index, lowest first;
* ``debora-h``    additionally blends the ``debora-s`` strategy toward a
  known strictly safe strategy whenever some constraint looks at risk,
  which keeps every played strategy safe with high probability.

One ``_select`` on the shared base serves all three; ``debora-h`` adds
its blend over it.

The trial engine plays whatever strategy an epoch policy holds in
``x_current``; it never asks which variant produced it, so the
one-hot strategies of ``debora`` take the same path as any other.

``ucb1`` is the classic per-round index policy, included as a
non-replicable contrast; it shares no epoch machinery and is driven
through ``pick(t)`` and ``observe(arm, reward)``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import polytope
from .environment import InstanceSpec, OracleSolution, shown
from .estimator import confidence_widths, snap_to_grid
from .polytope import Infeasible, SimplexPolytopeLP
from .randomness import RandomSource, field_words, finish_uniforms, label_states

__all__ = [
    "ALGORITHM_NAMES",
    "ConfigError",
    "Ucb1",
    "ceil_log2",
    "check_delta_rho",
    "epoch_budget",
    "make_policy",
    "mixing_coefficient",
    "policy_class",
]

# epochs whose grid offsets are hashed in one pass: about 100 KB at
# K=50, m=3, where a table over the whole epoch budget would be MBs
OFFSET_BLOCK = 64


class ConfigError(ValueError):
    """Algorithm and instance/parameters are incompatible."""


def ceil_log2(n: int) -> int:
    """Exact ceil(log2(n)) for n >= 1, with ceil_log2(1) = 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1).bit_length()


def epoch_budget(k: int, horizon: int) -> int:
    """Upper bound on the final epoch index: K * ceil(log2(T))."""
    return k * ceil_log2(horizon)


def check_delta_rho(delta: float, rho: float) -> None:
    """Reject a failure probability and replicability target that are not
    real numbers with 0 < 2*delta < rho < 1 (NaN included), whatever the
    algorithm."""
    real = all(isinstance(v, numbers.Real) for v in (delta, rho))
    if not (real and 0.0 < 2.0 * delta < rho < 1.0):
        raise ConfigError(f"need 0 < 2*delta < rho < 1, got delta={shown(delta)}, rho={shown(rho)}")


def _solve_optimistic(lp: SimplexPolytopeLP) -> tuple[np.ndarray, bool]:
    """Argmax of the optimistic reward over the optimistic safe polytope
    that ``lp`` describes.

    Returns (strategy, fallback_used).  Off the high-probability event
    the polytope can be empty; the fallback then plays the strategy with
    the least worst-case excess instead of crashing the run.
    """
    try:
        x, _ = polytope.solve(lp)
        return x, False
    except Infeasible:
        x, _ = polytope.least_violation_strategy(lp.constraint_matrix, lp.bounds)
        return x, True


def mixing_coefficient(
    optimistic_costs: np.ndarray,
    thresholds: np.ndarray,
    margins: np.ndarray,
) -> float:
    """Blend weight toward the strictly safe strategy.

    ``optimistic_costs`` holds the upper cost estimates of the candidate
    strategy per constraint.  Constraints whose estimate exceeds the
    threshold are at risk; the weight is the largest ratio of capped
    excess over (capped excess + safe-strategy margin), and 0 when
    nothing is at risk.
    """
    ratios = []  # the same float operations as numpy's, one constraint at a time
    rows = zip(optimistic_costs.tolist(), thresholds.tolist(), margins.tolist())
    for cost, bound, margin in rows:
        if cost > bound:  # at risk
            excess = min(cost, 1.0) - bound
            ratios.append(excess / (excess + margin))
    return max(ratios, default=0.0)


class _EpochDoublingPolicy:
    """Shared machinery: counts, success sums, doubling targets, closes.

    The strategy is frozen between closes, so the trial engine plays a
    whole epoch at a time: it adds the pulls per arm to ``counts`` and,
    in a trial whose closes can read data, the 1s each tracked signal
    gave per arm to ``sums`` before every close.  An epoch ends at the
    first round where some arm's pull count reaches its target, twice
    its count at the epoch start.

    Tracked signals are indexed by row: row 0 is the reward and row i+1
    the cost of constraint i.
    """

    def __init__(
        self,
        spec: InstanceSpec,
        horizon: int,
        delta: float,
        rho: float,
        xi: RandomSource,
        oracle: OracleSolution,
        denominator: int,
        track_costs: bool,
    ):
        k = spec.k
        m = spec.m if track_costs else 0
        self.spec = spec
        self.budget = epoch_budget(k, horizon)
        self.xi = xi
        self.oracle = oracle
        self.m = m
        self.delta_prime, self.rho_prime = delta / denominator, rho / denominator
        self.h = 0  # epoch index
        self.counts = np.zeros(k, dtype=np.int64)  # pulls per arm so far
        self.r_hat = np.full(k, 0.5)
        self.g_hat = np.full((m, k), 0.5)
        self.zeta = confidence_widths(self.counts, self.delta_prime, self.rho_prime)
        self.x_current = np.zeros(k)
        self.sigma = 0.0
        self.targets = np.ones(k, dtype=np.int64)
        # feedback is 0/1, so these float sums are exact success counts
        self.sums = np.zeros((m + 1, k))
        self._offsets_base = -1  # first epoch of the block in _offsets
        self._offsets = None
        # one program per trial, validated once: each select rewrites its
        # objective and rows in place, finite by construction
        self._lp = SimplexPolytopeLP(np.zeros(k), np.zeros((m, k)), spec.thresholds[:m])
        self._select()

    # -- epoch boundary -----------------------------------------------

    def close_epoch(self) -> None:
        """Advance to the next epoch: refresh estimates and reselect."""
        counts = self.counts
        if (counts > self.targets).any():
            raise RuntimeError("doubling discipline violated inside an epoch")
        self.h += 1
        if self.h > self.budget:
            raise RuntimeError(f"epoch index {self.h} exceeded budget {self.budget}")
        self.zeta = confidence_widths(counts, self.delta_prime, self.rho_prime)
        self._update_estimates()
        self._select()
        self.targets = np.maximum(2 * counts, 1)

    def _refresh(self, arms: np.ndarray) -> None:
        """Snap the estimates of ``arms`` (all sampled) to this epoch's grid.

        Each (arm, signal) grid offset is the first uniform of its own
        labeled stream, scaled by the arm's cell width.
        """
        if arms.size == self.counts.size:
            arms = slice(None)  # every arm: views instead of gathered copies
        cell = self.zeta[arms]
        offset = self._offset_uniforms(arms) * cell
        est = snap_to_grid(self.sums[:, arms] / self.counts[arms], cell, offset)
        self.r_hat[arms] = est[0]
        self.g_hat[:, arms] = est[1:]

    def _offset_uniforms(self, arms: np.ndarray) -> np.ndarray:
        """First uniforms of this epoch's grid-offset labels, (m+1, n):
        ``offset-reward`` in row 0, ``offset-cost`` of constraint i in
        row i+1, one column per arm.

        The offsets depend on the labels alone, never on the data, so
        the first close in each block of ``OFFSET_BLOCK`` epochs hashes
        the whole block for every arm in one pass; a close gathers its
        epoch's row of that block.
        """
        h = self.h
        base = h - h % OFFSET_BLOCK
        if base != self._offsets_base:
            self._offsets = self._offset_block(base)
            self._offsets_base = base
        return self._offsets[h - base][:, arms]

    def _offset_block(self, base: int) -> np.ndarray:
        """Grid-offset uniforms of epochs base..base+OFFSET_BLOCK-1,
        (OFFSET_BLOCK, m+1, K): the full label prefixes of the block,
        one grid per purpose, finished with the unset ``rnd`` word."""
        epochs = np.arange(base, base + OFFSET_BLOCK)[:, None, None]
        arms = np.arange(self.spec.k)
        rows = [label_states(self.xi, "offset-reward", epoch=epochs, arm=arms)]
        if self.m:
            cons = np.arange(self.m)[:, None]
            rows.append(label_states(self.xi, "offset-cost", epoch=epochs, arm=arms, cons=cons))
        return finish_uniforms(np.concatenate(rows, axis=1), field_words(None, "rnd"))

    def _select(self) -> None:
        """Play the optimistic program's answer: reward r_hat + zeta over
        the strategies whose costs g_hat - zeta meet the thresholds."""
        lp = self._lp
        np.add(self.r_hat, self.zeta, out=lp.objective)
        np.subtract(self.g_hat, self.zeta, out=lp.constraint_matrix)
        self.x_current, self.last_fallback = _solve_optimistic(lp)


class Debora(_EpochDoublingPolicy):
    """Unconstrained variant: one optimistic arm per epoch, chosen
    deterministically; its one-hot strategy makes every action that arm."""

    name = "debora"

    def __init__(self, spec, horizon, delta, rho, xi, oracle):
        denominator = 2 * spec.k * max(1, ceil_log2(horizon))
        super().__init__(spec, horizon, delta, rho, xi, oracle, denominator, track_costs=False)

    def _update_estimates(self) -> None:
        # only the arm just played has new samples
        self._refresh(self.x_current.nonzero()[0])


class DeboraS(_EpochDoublingPolicy):
    """Soft-constraint variant: optimistic strategy over the
    optimistically safe polytope, action sampled from it."""

    name = "debora-s"

    def __init__(self, spec, horizon, delta, rho, xi, oracle):
        denominator = 2 * (spec.m + 1) * spec.k * spec.k * max(1, ceil_log2(horizon))
        super().__init__(spec, horizon, delta, rho, xi, oracle, denominator, track_costs=True)

    def _update_estimates(self) -> None:
        # never-played arms keep the symmetric prior
        self._refresh(self.counts.nonzero()[0])


class DeboraH(DeboraS):
    """Hard-constraint variant: blends the soft variant's strategy with
    the known strictly safe strategy whenever a constraint is at risk."""

    name = "debora-h"

    def __init__(self, spec, horizon, delta, rho, xi, oracle):
        if spec.m > 0 and not oracle.lambda_min > 0.0:
            raise ConfigError(
                "hard-constraint variant requires a strictly feasible strategy "
                f"(margin {oracle.lambda_min!r} is not positive)"
            )
        self.margins = np.asarray(spec.thresholds, dtype=np.float64) - oracle.lam
        self.sigma_cap = 1.0 / (1.0 + oracle.lambda_min) if spec.m else 0.0
        super().__init__(spec, horizon, delta, rho, xi, oracle)

    def _select(self) -> None:
        super()._select()
        if self.m == 0:
            return  # nothing at risk: sigma stays 0
        x_tilde = self.x_current
        optimistic_costs = (self.g_hat + self.zeta[None, :]) @ x_tilde
        sigma = mixing_coefficient(optimistic_costs, self.spec.thresholds, self.margins)
        if sigma > self.sigma_cap:
            raise RuntimeError(f"mixing coefficient {sigma} exceeded 1/(1+margin)")
        self.sigma = sigma
        self.x_current = sigma * self.oracle.x_diamond + (1.0 - sigma) * x_tilde


class Ucb1:
    """Plain per-round UCB index policy (non-replicable comparator).

    Round-robin over the arms once, then argmax of mean + sqrt(2 ln t /
    n); ties go to the lowest index.  Deterministic given the realized
    feedback, but carries no device to absorb resampled feedback, which
    is exactly the contrast being measured.
    """

    name = "ucb1"

    def __init__(self, spec, horizon, delta, rho, xi, oracle):
        self.k = spec.k
        self.sums = [0.0] * spec.k
        self.n = [0] * spec.k

    def pick(self, t: int) -> int:
        if t <= self.k:
            return t - 1
        log_term = 2.0 * math.log(t)
        best_arm = 0
        best_index = -math.inf
        for a in range(self.k):
            n = self.n[a]
            index = self.sums[a] / n + math.sqrt(log_term / n)
            if index > best_index:
                best_index = index
                best_arm = a
        return best_arm

    def observe(self, arm: int, reward: float) -> None:
        self.sums[arm] += reward
        self.n[arm] += 1


_POLICIES = {
    "debora": Debora,
    "debora-s": DeboraS,
    "debora-h": DeboraH,
    "ucb1": Ucb1,
}
ALGORITHM_NAMES = tuple(_POLICIES)


def make_policy(
    name: str,
    spec: InstanceSpec,
    horizon: int,
    delta: float,
    rho: float,
    xi: RandomSource,
    oracle: OracleSolution,
):
    """Instantiate the named policy, validating compatibility."""
    cls = policy_class(name)
    check_delta_rho(delta, rho)
    return cls(spec, horizon, delta, rho, xi, oracle)


def policy_class(name: str) -> type:
    """The policy class of an algorithm name; the one algorithm rule."""
    try:
        return _POLICIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown algorithm {shown(name)}; choose from {', '.join(ALGORITHM_NAMES)}"
        ) from None
