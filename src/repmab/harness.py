"""Experiment runner: single trials, batches, paired-replicability runs.

A trial is deterministic given (instance, algorithm, algorithm seed,
environment seed): algorithm randomness and environment randomness come
from two separate labeled-stream roots, so paired trials can fix the
former while redrawing the latter.  The replicable policies freeze
their strategy between epoch closes, so their trials are resolved an
epoch at a time with array operations.  An epoch whose strategy has one
positive-mass arm, whichever policy chose it, lasts until that arm's
doubling target; any other takes its actions from the labeled per-round
action uniforms (drawn only once some strategy has two positive-mass
arms) up to the first target hit.  The label work that every epoch
would repeat is tabulated: the feedback label prefixes once per trial,
the round words once per horizon.  Only the per-round UCB1 baseline
loops over rounds in Python, to pick and observe.

A trial is a schedule (actions, and an epoch policy's epoch table) and
feedback, which one function, ``_draw``, draws for the (round, arm)
pairs played over a range of rounds, ``_RUN_ROUNDS`` rounds at a time,
writing each signal's byte into one boolean (m+1, T) table whose rows
are the log's ``rewards`` and ``costs``.  One number decides what an
epoch trial reads: ζ(T), the width of an arm pulled in every round,
the narrowest any close can see (widths never rise with the count).
If ζ(T) <= 1, the trial draws each epoch before its close, folding the
successes into the policy's sums.  Otherwise no close reads data: the
trial draws nothing until its end, and its schedule depends on the
algorithm seed alone, so the log, less what the seeds decide, is held;
the second trial of a pair copies it and draws only its own feedback.
If ζ(T) >= 2 and every strategy is one-hot, the schedule depends on no
seed at all, and any algorithm seed copies it.  ``run_trial`` draws
the rest of every trial at its end.

The epoch policies write one row per epoch into a struct-of-arrays
epoch table preallocated to the epoch budget: start round, strategy,
widths, estimates, sigma, fallback, and the clean and x*-containment
flags, judged against the instance column-wise once the trial ends.

A log stores only what it cannot derive: the actions, the feedback
table and the epoch table.  Each round plays the strategy of a key, the
epoch index for the epoch policies (whose strategies are the table's
``x`` column), or the arm for UCB1 (whose strategy is the one-hot of
its pick).  Every trial ends in one gather: expected regret, violation
and safety are evaluated once per distinct strategy and kept once per
key.  Per-round arrays, the epoch of each round among them, are
expanded from per-key tables on demand, by repeating each epoch's entry
over its run of rounds, or, for UCB1, through the actions.

``run_trial``, ``run_batch`` and ``run_replicability_experiment`` check
every input in one prologue, ``_check_inputs``, before the oracle's LPs
run or a policy is made; ``run_trial`` checks its two seeds by building
their ``RandomSource``s right after it.

Every output file goes through one of two writers: ``_write_csv`` for
``rounds.csv``, ``regret_curve.csv`` and ``pairs.csv``, ``_write_json``
for ``summary.json`` and ``replicability.json``.  ``rounds.csv`` is
built column by column; the cells that depend on the round only through
its key are formatted once per key and gathered through the keys.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import environment
from .algorithms import Ucb1, check_delta_rho, epoch_budget, make_policy, policy_class
from .environment import (
    HORIZON_LIMIT,
    FeedbackStreams,
    InstanceSpec,
    OracleSolution,
    shown,
    solve_oracle,
)
from .estimator import confidence_widths
from .randomness import (
    RandomSource,
    StreamLabel,
    finish_ready_bits,
    finish_uniforms,
    index_from_cdf,
    label_states,
    round_words,
    validate_strategy,
)
from .environment import feedback_tables  # noqa: F401  (perfbench/tracer.py wraps it by name)
from .randomness import first_uniforms  # noqa: F401  (perfbench/tracer.py wraps it by name)

__all__ = [
    "ReplicabilityReport",
    "TrialLog",
    "aggregate_and_export",
    "export_replicability",
    "run_batch",
    "run_replicability_experiment",
    "run_trial",
]

SAFETY_TOL = environment.SAFETY_TOL


def _epoch_table(rows: int, k: int, m: int) -> np.recarray:
    """An empty epoch table: one row per epoch, the state at its start.

    ``g_hat`` has one row per tracked constraint (none for ``debora``);
    ``clean`` and ``contains_x_star`` are judged against the instance
    once the trial ends.
    """
    dtype = [
        ("h", np.int64),
        ("t_start", np.int64),
        ("x", np.float64, (k,)),
        ("zeta", np.float64, (k,)),
        ("r_hat", np.float64, (k,)),
        ("g_hat", np.float64, (m, k)),
        ("sigma", np.float64),
        ("fallback", np.bool_),
        ("clean", np.bool_),
        ("contains_x_star", np.bool_),
    ]
    return np.zeros(rows, dtype).view(np.recarray)


@dataclass
class TrialLog:
    """Complete record of one trial.

    Per-round arrays are parallel over t = 1..T: ``actions`` (int32),
    and the rows of the trial's feedback table, ``rewards`` (bool, T)
    and ``costs`` (bool, (m, T)).  ``epochs`` is the epoch table (empty
    for the per-round baseline).  Round t played the strategy of its
    key, a row of ``strategies``: the epoch index for the epoch
    policies, the arm for the per-round baseline.  Expected regret,
    violation and safety are kept per key and expanded to rounds on
    demand (``per_round``).  So a log holds 4 + (m+1) bytes per round,
    7 with two constraints.
    """

    algo: str
    horizon: int
    k: int
    m: int
    xi_seed: int
    env_seed: int
    actions: np.ndarray
    rewards: np.ndarray
    costs: np.ndarray
    epochs: np.recarray | None = None
    regret: np.ndarray | None = None
    violation: np.ndarray | None = None
    unsafe: np.ndarray | None = None
    regret_total: float = 0.0
    violation_total: float = 0.0
    epoch_count: int = 0
    fallback_count: int = 0
    unsafe_rounds: int = 0
    any_unsafe: bool = False
    clean_all: bool = True
    containment_ok: bool = True

    @property
    def inst_regret(self) -> np.ndarray:
        """Expected regret of each round, (T,)."""
        return self.per_round(self.regret)

    @property
    def inst_violation(self) -> np.ndarray:
        """Clamped expected excess of each round, (m, T), in C order, so
        its row sums equal _gather's, taken one expanded row at a time,
        bit for bit."""
        return self.per_round(self.violation, axis=1)

    @property
    def strategies(self) -> np.ndarray:
        """Strategy of each key, (keys, K): the epoch table's ``x``
        column, or the one-hots of the per-round baseline's arms."""
        if len(self.epochs):
            return self.epochs.x
        return np.eye(self.k)

    @property
    def epoch_of_round(self) -> np.ndarray:
        """Epoch index of each round, (T,): the strategy key of the epoch
        policies; the per-round baseline counts every round as an epoch."""
        if len(self.epochs):
            return self.per_round(np.arange(len(self.epochs), dtype=np.int32))
        return np.arange(self.horizon, dtype=np.int32)

    def per_round(self, table, axis: int = 0) -> np.ndarray:
        """Expand a table with one entry per strategy key along ``axis``
        to one per round.

        The epoch policies' keys are consecutive runs, one per epoch, so
        their tables are repeated by epoch length; the per-round
        baseline's are gathered through its keys, the arms it pulled.
        """
        table = np.asarray(table)
        epochs = self.epochs
        if len(epochs):
            lengths = np.diff(epochs.t_start, append=self.horizon + 1)
            return table.repeat(lengths, axis=axis)
        return table.take(self.actions, axis=axis)

    def strategy_matrix(self) -> np.ndarray:
        """Per-round strategies as a (T, K) matrix."""
        return self.per_round(self.strategies)

    def _strategy_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Start round and strategy of each maximal run of rounds that
        play equal strategies, equal as ``np.array_equal`` compares them
        (so -0.0 equals 0.0): the epoch table with equal neighbours
        merged, or the runs of the baseline's repeated picks."""
        if len(self.epochs):
            starts, x = self.epochs.t_start, self.epochs.x
            new = np.ones(len(x), dtype=bool)
            new[1:] = (x[1:] != x[:-1]).any(axis=1)
            return starts[new], x[new]
        new = np.ones(self.horizon, dtype=bool)
        new[1:] = self.actions[1:] != self.actions[:-1]
        return np.flatnonzero(new) + 1, self.strategies[self.actions[new]]

    def same_strategy_sequence(self, other: "TrialLog") -> bool:
        """Whether both logs play equal strategies at every round, as
        ``np.array_equal`` of their strategy matrices, without building
        them: their strategy runs are equal, the per-round baseline's
        runs of repeated picks included."""
        if (self.horizon, self.k) != (other.horizon, other.k):
            return False
        runs = zip(self._strategy_runs(), other._strategy_runs())
        return all(np.array_equal(a, b) for a, b in runs)

    def same_action_sequence(self, other: "TrialLog") -> bool:
        return bool(np.array_equal(self.actions, other.actions))

    def equals(self, other: "TrialLog") -> bool:
        """Bit-exact equality of every field (replay checks): arrays in
        dtype, shape and bytes, the rest by ``==``."""
        def same(a, b):
            if isinstance(a, np.ndarray):
                return (isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
                        and a.tobytes() == b.tobytes())
            return a == b

        return all(same(getattr(self, f.name), getattr(other, f.name)) for f in fields(TrialLog))


def run_trial(
    spec: InstanceSpec,
    algo: str,
    xi_seed: int,
    env_seed: int,
    *,
    delta: float,
    rho: float,
    horizon: int | None = None,
    oracle: OracleSolution | None = None,
) -> TrialLog:
    """Play one trial of ``algo`` on ``spec`` for T rounds.

    Deterministic in the full argument tuple; two calls with equal
    arguments produce bit-identical logs.  An epoch policy's width ζ(T)
    under its own split decides the trial once: at most 1, every close
    folds the feedback before it; above 1, the log, less the seeds and
    the feedback, is held, and the next trial with equal arguments but
    its seeds copies it: a trial with the same ``xi_seed``, or with any
    ``xi_seed`` when the schedule is seed-free (ζ(T) >= 2, and every
    strategy one-hot).  UCB1 has no width: every pick reads its reward
    table, so it is never held.  Every trial ends with one ``_draw`` of
    the feedback not drawn yet: all of it for a copy, for UCB1 and for
    a trial that folded nothing.
    """
    horizon = _check_inputs(spec, algo, delta, rho, horizon)
    xi = RandomSource(xi_seed)  # a bad seed raises here, copy or not
    env = RandomSource(env_seed)
    if oracle is None:
        oracle = solve_oracle(spec)
    streams, rnd_words = FeedbackStreams(spec, env), round_words(horizon)
    # one row per signal, reward first; the draws write straight into it
    feedback = np.empty((spec.m + 1, horizon), dtype=bool)
    given = dict(xi_seed=xi_seed, env_seed=env_seed, rewards=feedback[0], costs=feedback[1:])
    key = (algo, delta, rho, horizon, spec.k, spec.m, oracle.opt_value, oracle.lambda_min)
    arrays = (spec.reward_means, spec.cost_means, spec.thresholds,
              oracle.x_star, oracle.x_diamond, oracle.lam)
    held = _schedules(key + tuple(a.tobytes() for a in arrays))
    drawn = 0  # rounds 1..drawn have their feedback drawn
    if held and held["xi_seed"] in (None, xi_seed):
        # the held seed is only a marker: the log takes the given one
        log = TrialLog(**({name: copy.copy(value) for name, value in held.items()} | given))
    else:
        held.clear()  # a schedule of another seed goes before play, as an old key's does
        log = TrialLog(
            algo=algo,
            horizon=horizon,
            k=spec.k,
            m=spec.m,
            actions=np.empty(horizon, dtype=np.int32),
            **given,
        )
        policy = make_policy(algo, spec, horizon, delta, rho, xi, oracle)
        if isinstance(policy, Ucb1):
            zeta = 0.0  # no width: every pick reads the rewards
            _play_per_round(log, policy, streams, rnd_words)
        else:
            zeta = confidence_widths(horizon, policy.delta_prime, policy.rho_prime)
            drawn = _play_epochs(log, policy, streams, rnd_words, feedback, zeta <= 1.0)
        _gather(log, spec, oracle)
        if zeta > 1.0:
            # ζ >= 2 snaps every estimate to 1.0; a one-hot strategy reads no action uniform
            seed_free = zeta >= 2.0 and (np.count_nonzero(log.epochs.x, axis=1) == 1).all()
            names = (f.name for f in fields(TrialLog) if f.name not in given)
            held.update((name, copy.copy(getattr(log, name))) for name in names)
            held["xi_seed"] = None if seed_free else xi_seed
    _draw(drawn, horizon, log, streams, rnd_words, feedback)
    return log


def _check_inputs(spec: InstanceSpec, algo, delta, rho, horizon, *seeds, **counts) -> int:
    """Check the algorithm, δ and ρ, each count (an integer, at least 1),
    the horizon and each seed of a run before any work, and return the
    trial horizon: ``spec.horizon`` if ``horizon`` is None, else
    ``horizon``, a whole number of rounds from 1 to below 2**53 given as
    an integer or an integral real (never a string)."""
    policy_class(algo)
    check_delta_rho(delta, rho)
    # a bool is an int to Python, but no count of trials, pairs or rounds
    for name, count in counts.items():
        noun = "trial" if name == "trials" else "pair"
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValueError(f"need a whole number of {noun}s, got {name}={shown(count)}")
        if count < 1:
            raise ValueError(f"need at least one {noun}, got {name}={shown(count)}")
    # an int is never cast to a float, which could overflow
    whole = horizon is None or isinstance(horizon, numbers.Integral)
    if not whole and isinstance(horizon, numbers.Real):
        whole = float(horizon).is_integer()
    if isinstance(horizon, bool) or not whole:
        raise ValueError(f"horizon must be a whole number of rounds, got {shown(horizon)}")
    horizon = spec.horizon if horizon is None else int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {shown(horizon)}")
    if horizon >= HORIZON_LIMIT:
        raise ValueError(f"horizon must be below 2**53, got {shown(horizon)}")
    for seed in seeds:
        RandomSource(seed)  # raises on a bad seed
    return horizon


@functools.lru_cache(maxsize=1)
def _schedules(key: tuple) -> dict:
    """The kept schedule of the trials ``key`` names (algorithm, δ, ρ, T,
    instance and oracle, but no seed), empty until one is stored; asking
    for a new key drops the old entry before play.  Its ``xi_seed`` is
    the algorithm seed that made it, or None when it serves any seed:
    with every width at least 2 each estimate is the cap 1.0 whatever
    the grid offset, and one-hot strategies read no action uniform."""
    return {}


def _gather(log, spec, oracle) -> None:
    """Fill the per-key regret, violation and unsafe tables of ``log``,
    one entry per row of ``log.strategies``, judge its epoch table and
    total up.  The totals and the unsafe-round count add the per-round
    values, which ``TrialLog.per_round`` expands from the per-key tables.

    The dot products stay one per strategy, as ``instant_regret`` and
    ``instant_violation`` take them: one product over all keys at once
    may round differently.  They are taken once per distinct strategy
    (keyed on its bytes), since consecutive epochs often repeat one."""
    means = {}  # strategy bytes -> expected reward and costs
    rewards, costs = [], []
    for x in log.strategies:
        key = x.tobytes()
        if key not in means:
            means[key] = (spec.reward_means @ x, spec.cost_means @ x)
        reward, cost = means[key]
        rewards.append(reward)
        costs.append(cost)
    log.regret = oracle.opt_value - np.array(rewards)
    expected_costs = np.stack(costs, axis=1)
    thresholds = spec.thresholds[:, None]
    log.violation = np.maximum(expected_costs - thresholds, 0.0)
    log.unsafe = ~(expected_costs <= thresholds + SAFETY_TOL).all(axis=0)
    epochs = log.epochs
    _judge_epochs(epochs, spec, oracle)
    log.regret_total = float(np.sum(log.inst_regret))
    if log.m:
        # max over constraints of the summed clamped excess, never
        # the sum of per-round maxima; one row expanded at a time
        log.violation_total = max(float(np.sum(log.per_round(row))) for row in log.violation)
    log.epoch_count = int(epochs.h[-1]) if len(epochs) else 0
    log.fallback_count = int(np.count_nonzero(epochs.fallback))
    log.clean_all = bool(epochs.clean.all())
    log.containment_ok = bool(epochs.contains_x_star.all())
    log.unsafe_rounds = int(np.count_nonzero(log.per_round(log.unsafe)))
    log.any_unsafe = log.unsafe_rounds > 0


def _judge_epochs(epochs: np.recarray, spec, oracle) -> None:
    """Fill the ``clean`` and ``contains_x_star`` columns.

    An epoch is clean while every estimate of a played arm lies within
    its width of the true mean.  Unplayed arms need no mask: they keep
    the prior 0.5, and the zero-count width exceeds 1.  The optimistic
    safe set contains x* when x* meets every pessimistic constraint.
    """
    m = epochs.g_hat.shape[1]  # constraints the policy tracks
    zeta = epochs.zeta[:, None, :]
    r_err = np.abs(epochs.r_hat - spec.reward_means) > epochs.zeta
    g_err = np.abs(epochs.g_hat - spec.cost_means[:m]) > zeta
    epochs.clean = ~(r_err.any(axis=1) | g_err.any(axis=(1, 2)))
    pessimistic = (epochs.g_hat - zeta) @ oracle.x_star
    epochs.contains_x_star = (pessimistic <= spec.thresholds[:m] + SAFETY_TOL).all(axis=1)


def _play_epochs(log, policy, streams, rnd_words, feedback, fold) -> int:
    """Epoch policies: the strategy is frozen between closes, so each
    epoch is resolved as a whole: its row of the epoch table (the row
    index is its strategy key), its actions (a fill for a one-hot
    strategy, which maps every uniform to its arm; else the action
    uniforms, drawn on first read, up to the first target hit), and its
    pulls, added to the policy's counts.

    Given ``fold`` (ζ(T) at most 1), ``_draw`` fills each epoch's
    columns of ``feedback`` and adds their successes to ``policy.sums``
    before its close, and the start of the last epoch is returned;
    otherwise nothing is drawn and 0 is returned.  The trial draws the
    rest, unfolded.  Drawing nothing is exact: every cell ζ then
    exceeds 1, and for any mean in [0, 1] and offset >= 0, (mean -
    offset)/ζ rounds to less than 1, so z = 0 and the estimate is
    min(offset + ζ/2, 1) bit for bit, whatever the sums hold.
    """
    horizon = log.horizon
    k = log.k
    action_u = None
    table = _epoch_table(epoch_budget(k, horizon) + 1, k, policy.m)
    lo = 0  # rounds lo+1..hi form the current epoch
    while True:
        x = validate_strategy(policy.x_current)
        table[policy.h] = (
            policy.h, lo + 1, x, policy.zeta, policy.r_hat, policy.g_hat, policy.sigma,
            policy.last_fallback, True, True,
        )
        support = x.nonzero()[0]
        if support.size == 1:
            arm = support[0]
            hi = lo + min(int(policy.targets[arm] - policy.counts[arm]), horizon - lo)
            log.actions[lo:hi] = arm
            policy.counts[arm] += hi - lo
        else:
            if action_u is None:
                action_u = finish_uniforms(label_states(policy.xi, "action"), rnd_words)
            need = policy.targets - policy.counts
            arms = _epoch_actions(x, support, need, action_u, lo, horizon)
            hi = lo + arms.size
            log.actions[lo:hi] = arms
            policy.counts += np.bincount(arms, minlength=k)
        if hi == horizon:
            # a target hit at round T would close at round T+1, which never comes
            log.epochs = table[: policy.h + 1].copy()
            return lo if fold else 0
        if fold:
            _draw(lo, hi, log, streams, rnd_words, feedback, policy.sums)
        policy.close_epoch()
        lo = hi


# the most rounds one feedback draw covers, so its temporaries (48 bytes
# a round of a one-arm chunk, up to 120 of a folded multi-arm one, on
# three signals) never grow with the range; the K=5, T=1e5 one-arm
# trials drew 6-8 % slower in chunks of 4096 and 11-21 % in 16384
_RUN_ROUNDS = 8192


def _draw(lo, hi, log, streams, rnd_words, feedback, sums=None) -> None:
    """Draw the feedback of the pairs ``log`` played at rounds lo+1..hi
    into ``feedback``, at most ``_RUN_ROUNDS`` rounds at a time; given
    ``sums``, (rows, K), add the successes of the first ``rows`` signals
    per arm.  A chunk that played one arm draws that arm's state columns
    against its round words and counts along the rounds; any other draws
    the played pairs in one gather and folds them with one ``bincount``,
    exact because the sums are integer counts below 2^53."""
    for a in range(lo, hi, _RUN_ROUNDS):
        b = min(a + _RUN_ROUNDS, hi)
        played = log.actions[a:b]
        arms = played[:1] if played.min() == played.max() else played
        drawn = streams.draw(arms, rnd_words[a:b], out=feedback[:, a:b])
        if sums is None:
            continue
        rows, k = sums.shape
        if arms.size == 1:
            sums[:, arms[0]] += np.count_nonzero(drawn[:rows], axis=1)
        else:
            cells = (played + k * np.arange(rows)[:, None]).ravel()
            sums += np.bincount(cells, drawn[:rows].ravel(), rows * k).reshape(rows, k)


# the first chunk of action uniforms a multi-arm epoch maps: on K=50
# trials whose epochs last a few rounds, a start of 256 maps about 49
# uniforms per round played and 64 about 13, while on K=5 trials with
# epochs of thousands of rounds the two run equally fast
_MIN_CHUNK = 64


def _epoch_actions(x, support, need, action_u, lo, horizon) -> np.ndarray:
    """Arms pulled in the epoch that starts at round lo+1 under a
    strategy ``x`` whose positive-mass arms, ``support``, number two or
    more.

    The epoch lasts until the first round at which some arm's count
    reaches its doubling target (``need`` more pulls), or until the
    horizon.  Zero-mass arms are never drawn, so the shortest remaining
    distance to a target over the arms with positive mass bounds the
    epoch from below; the uniforms are mapped in chunks that start
    there and double until a target is hit.
    """
    left = horizon - lo
    cdf = x.cumsum()
    n = min(max(int(need[support].min()), _MIN_CHUNK), left)
    while True:
        arms = index_from_cdf(cdf, action_u[lo : lo + n])
        hit = _first_target_hit(arms, need)
        if hit >= 0:
            return arms[: hit + 1]
        if n == left:
            return arms
        n = min(2 * n, left)


def _first_target_hit(arms: np.ndarray, need: np.ndarray) -> int:
    """Index of the first pull that is the need[a]-th pull of its arm a,
    or -1 if no arm is pulled that often."""
    per_arm = np.bincount(arms, minlength=need.size)
    reached = per_arm >= need
    if not reached.any():
        return -1
    order = arms.argsort(kind="stable")
    nth = per_arm.cumsum() - per_arm + need - 1
    return int(order[nth[reached]].min())


def _play_per_round(log, policy, streams, rnd_words) -> None:
    """Per-round baseline: each pick depends on the rewards seen so far.
    Its strategy is the one-hot of the pick, so the key is the arm.

    The picks read a boolean (rounds, K) reward table (a True reward adds
    exactly 1.0), finished from the streams' absorb-ready states
    ``_RUN_ROUNDS`` rounds at a time; the trial then draws the played
    pairs' feedback as it draws an epoch trial's.  The log gets an empty
    epoch table.
    """
    picks = []
    for lo in range(0, log.horizon, _RUN_ROUNDS):
        words = rnd_words[lo : lo + _RUN_ROUNDS, None]
        rewards = finish_ready_bits(streams.ready[0], words) < streams.limits[0]
        for t, row in enumerate(rewards.tolist(), start=lo + 1):
            a = policy.pick(t)
            policy.observe(a, row[a])
            picks.append(a)
    log.actions[:] = picks
    log.epochs = _epoch_table(0, log.k, log.m)


def trial_seeds(master_seed: int, trial: int) -> tuple[int, int]:
    """Algorithm and environment seeds for one trial of a batch."""
    master = RandomSource(master_seed)
    xi = master.derive_stream(StreamLabel("trial-xi", rnd=trial)).next_raw64()
    env = master.derive_stream(StreamLabel("trial-env", rnd=trial)).next_raw64()
    return xi, env


def pair_seeds(master_seed: int, pair: int) -> tuple[int, int, int]:
    """One shared algorithm seed plus two environment seeds for a pair."""
    master = RandomSource(master_seed)
    xi = master.derive_stream(StreamLabel("pair-xi", rnd=pair)).next_raw64()
    env_a = master.derive_stream(StreamLabel("pair-env", cons=0, rnd=pair)).next_raw64()
    env_b = master.derive_stream(StreamLabel("pair-env", cons=1, rnd=pair)).next_raw64()
    return xi, env_a, env_b


def run_batch(
    spec: InstanceSpec,
    algo: str,
    *,
    delta: float,
    rho: float,
    trials: int,
    seed: int,
    horizon: int | None = None,
) -> list[TrialLog]:
    """Run ``trials`` independent trials, seeds derived from one master."""
    horizon = _check_inputs(spec, algo, delta, rho, horizon, seed, trials=trials)
    kwargs = dict(delta=delta, rho=rho, horizon=horizon, oracle=solve_oracle(spec))
    return [run_trial(spec, algo, *trial_seeds(seed, j), **kwargs) for j in range(trials)]


# the fields of each pair's record, in the order of pairs.csv's columns
_PAIRS_HEADER = [
    "pair", "xi_seed", "env_seed_1", "env_seed_2", "strategies_match", "actions_match"
]


@dataclass
class ReplicabilityReport:
    """Empirical estimate of the probability that paired runs diverge."""

    pairs: int
    mismatches: int
    rate: float
    rho_target: float
    half_width: float
    action_mismatches: int
    action_rate: float
    pair_results: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report's fields without the per-pair results."""
        report = asdict(self)
        del report["pair_results"]
        return report


def run_replicability_experiment(
    spec: InstanceSpec,
    algo: str,
    *,
    rho: float,
    delta: float,
    n_pairs: int,
    seed: int,
    horizon: int | None = None,
) -> ReplicabilityReport:
    """Paired trials with shared algorithm randomness.

    Each pair runs the algorithm twice with the same algorithm seed and
    independent environment seeds, then compares the full strategy
    sequences element-wise (exact equality; the sequences come from
    deterministic code paths).  Action sequences are compared as well
    and reported separately.
    """
    horizon = _check_inputs(spec, algo, delta, rho, horizon, seed, n_pairs=n_pairs)
    kwargs = dict(delta=delta, rho=rho, horizon=horizon, oracle=solve_oracle(spec))
    results = []
    for p in range(n_pairs):
        xi_seed, env_a, env_b = pair_seeds(seed, p)
        log_a = run_trial(spec, algo, xi_seed, env_a, **kwargs)
        log_b = run_trial(spec, algo, xi_seed, env_b, **kwargs)
        same_seq = log_a.same_strategy_sequence(log_b)
        same_act = log_a.same_action_sequence(log_b)
        results.append(dict(zip(_PAIRS_HEADER, (p, xi_seed, env_a, env_b, same_seq, same_act))))
    mismatches = sum(not pair["strategies_match"] for pair in results)
    action_mismatches = sum(not pair["actions_match"] for pair in results)
    half_width = 3.0 * math.sqrt(rho * (1.0 - rho) / n_pairs)
    return ReplicabilityReport(
        pairs=n_pairs,
        mismatches=mismatches,
        rate=mismatches / n_pairs,
        rho_target=rho,
        half_width=half_width,
        action_mismatches=action_mismatches,
        action_rate=action_mismatches / n_pairs,
        pair_results=results,
    )


# -- export ------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header`` and ``rows`` (each a sequence of cell strings)
    to ``path`` as UTF-8 with LF line ends, cells joined by commas."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


def _write_json(path: Path, payload: dict) -> Path:
    """Write ``payload`` to ``path`` as UTF-8 JSON with sorted keys, an
    indent of 2 and a final newline."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _rounds_rows(trial_idx: int, log: TrialLog):
    """The rounds.csv rows of one trial, built column by column.

    The strategy, regret and violation cells depend on the round only
    through its strategy key, so each is formatted once per key and
    gathered through each round's key, ``per_round`` of the key indices.
    """
    strategies = log.strategies.tolist()
    keys = log.per_round(np.arange(len(strategies))).tolist()

    def by_key(cells):
        return map(cells.__getitem__, keys)

    signals = (log.rewards.tolist(), *log.costs.tolist())
    signal_cell = ("0.0", "1.0").__getitem__  # a signal's bool indexes its cell
    per_key = (log.regret.tolist(), *log.violation.tolist())
    return zip(
        itertools.repeat(str(trial_idx), log.horizon),
        map(str, range(1, log.horizon + 1)),
        map(str, log.epoch_of_round.tolist()),
        map(str, log.actions.tolist()),
        by_key([";".join(map(repr, x)) for x in strategies]),
        *(map(signal_cell, signal) for signal in signals),
        *(by_key(list(map(repr, column))) for column in per_key),
    )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty vector, the mean of its middle one or
    two sorted values, without the ``numpy.ma`` import that
    ``np.median`` costs on its first call in a process."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(np.mean(ordered[mid - 1 + ordered.size % 2 : mid + 1]))


def aggregate_and_export(logs: list[TrialLog], out_dir: str | Path) -> list[Path]:
    """Write per-round CSV, summary JSON, and the regret-curve CSV.

    Output bytes are a pure function of the inputs: floats are rendered
    with repr (shortest round-trip form), and every file goes through
    ``_write_csv`` or ``_write_json``.  Violation columns are omitted
    for unconstrained runs.  The logs must come from one configuration:
    the same algorithm, arm count, constraint count and horizon.
    """
    if not logs:
        raise ValueError("need at least one trial log")
    first = logs[0]
    config = (first.algo, first.k, first.m, first.horizon)
    if any((log.algo, log.k, log.m, log.horizon) != config for log in logs):
        raise ValueError(
            "trial logs must share one algorithm, arm count, constraint count and horizon"
        )
    m = first.m
    horizon = first.horizon
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    header = ["trial", "t", "epoch", "action", "x_t", "reward"]
    header += [f"cost_{i + 1}" for i in range(m)]
    header += ["inst_regret"]
    header += [f"inst_violation_{i + 1}" for i in range(m)]
    rows = itertools.chain.from_iterable(
        _rounds_rows(trial_idx, log) for trial_idx, log in enumerate(logs)
    )
    rounds_path = _write_csv(out / "rounds.csv", header, rows)

    regrets = np.array([log.regret_total for log in logs])
    violations = np.array([log.violation_total for log in logs])
    epoch_counts = np.array([log.epoch_count for log in logs])
    summary = {
        "trials": len(logs),
        "algo": logs[0].algo,
        "horizon": horizon,
        "constraints": m,
        "regret": {
            "mean": float(np.mean(regrets)),
            "median": _median(regrets),
        },
        "violation": {
            "mean": float(np.mean(violations)),
            "median": _median(violations),
        },
        "epochs": {
            "mean": float(np.mean(epoch_counts)),
            "median": _median(epoch_counts),
            "max": int(np.max(epoch_counts)),
        },
        "safety_failure_rate": float(np.mean([log.any_unsafe for log in logs])),
        "fallback_total": int(sum(log.fallback_count for log in logs)),
        "clean_event_flag_rate": float(
            np.mean([0.0 if log.clean_all else 1.0 for log in logs])
        ),
        "replicability": None,
    }
    summary_path = _write_json(out / "summary.json", summary)

    cum_regret = np.zeros(horizon)
    cum_violation = np.zeros(horizon)
    for log in logs:
        cum_regret += np.cumsum(log.inst_regret)
        if m:
            cum_violation += np.max(np.cumsum(log.inst_violation, axis=1), axis=0)
    cum_regret /= len(logs)
    cum_violation /= len(logs)
    rows = zip(
        map(str, range(1, horizon + 1)),
        map(repr, cum_regret.tolist()),
        map(repr, cum_violation.tolist()),
    )
    curve_path = _write_csv(
        out / "regret_curve.csv", ["t", "mean_cum_regret", "mean_cum_violation"], rows
    )
    return [rounds_path, summary_path, curve_path]


def export_replicability(report: ReplicabilityReport, out_dir: str | Path) -> list[Path]:
    """Write the report to out_dir/replicability.json and one row per
    trial pair (match flags as 0/1) to out_dir/pairs.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ([str(int(pair[name])) for name in _PAIRS_HEADER] for pair in report.pair_results)
    return [
        _write_json(out / "replicability.json", report.to_dict()),
        _write_csv(out / "pairs.csv", _PAIRS_HEADER, rows),
    ]
