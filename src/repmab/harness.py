"""Experiment runner: single trials, batches, paired-replicability runs.

A trial is deterministic given (instance, algorithm, algorithm seed,
environment seed): algorithm randomness and environment randomness come
from two separate labeled-stream roots, so paired trials can fix the
former while redrawing the latter.  The replicable policies freeze
their strategy between epoch closes, so their trials are resolved an
epoch at a time with array operations: the epoch's actions from the
labeled per-round action uniforms (in closed form when the strategy
has one positive-mass arm, whichever policy chose it; the uniforms are
drawn only once some strategy has two), its end from
the first doubling target hit, and feedback only for the (round, arm)
pairs played.  Estimates are refreshed once per epoch, and the label
work that every epoch would repeat (round words, feedback label
prefixes) is tabulated once per trial.  Only the per-round UCB1
baseline loops over rounds in Python, and only to pick and observe.

The epoch policies write one row per epoch into a struct-of-arrays
epoch table preallocated to the epoch budget: start round, strategy,
widths, estimates, sigma, fallback, and the clean and x*-containment
flags, judged against the instance column-wise once the trial ends.

Every trial ends in one gather: play yields a strategy key per round
(the epoch index, or the arm for UCB1, whose strategy is the one-hot
of its pick) and a table of strategies per key (the epoch table's
``x`` column).  Expected regret, violation and safety are evaluated and
kept once per key; per-round arrays are expanded from them on demand.

Exports format each cell that depends on the round only through its
key once, and write each trial's rows with one join.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import environment
from .algorithms import Ucb1, epoch_budget, make_policy
from .environment import (
    FeedbackStreams,
    InstanceSpec,
    OracleSolution,
    feedback_tables,
    instant_regret,
    instant_violation,
    solve_oracle,
)
from .randomness import (
    RandomSource,
    StreamLabel,
    field_words,
    finish_uniforms,
    index_from_cdf,
    label_states,
    validate_strategy,
)
from .randomness import first_uniforms  # noqa: F401  (perfbench/tracer.py wraps it by name)

__all__ = [
    "ReplicabilityReport",
    "TrialLog",
    "aggregate_and_export",
    "run_batch",
    "run_replicability_experiment",
    "run_trial",
    "write_pairs_csv",
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

    Per-round arrays are parallel over t = 1..T.  ``epochs`` is the epoch
    table (empty for the per-round baseline).  Round t played the
    strategy ``strategies[keys[t-1]]``: the key is the epoch index for
    the epoch policies, whose strategies are the table's ``x`` column,
    and the arm for the per-round baseline, whose strategy is the
    one-hot of its pick.  Expected regret, violation and safety are kept
    per key and expanded to rounds on demand.
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
    epoch_of_round: np.ndarray
    epochs: np.recarray | None = None
    keys: np.ndarray | None = None
    strategies: np.ndarray | None = None
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
        """Clamped expected excess of each round, (m, T)."""
        # take keeps C order, on which finalize's row sums depend bit for bit
        return self.violation.take(self.keys, axis=1)

    def finalize(self) -> None:
        self.regret_total = float(np.sum(self.inst_regret))
        if self.m:
            # max over constraints of the summed clamped excess, never
            # the sum of per-round maxima
            self.violation_total = float(np.max(np.sum(self.inst_violation, axis=1)))
        else:
            self.violation_total = 0.0
        epochs = self.epochs
        self.epoch_count = int(epochs.h[-1]) if len(epochs) else 0
        self.fallback_count = int(np.count_nonzero(epochs.fallback))
        self.clean_all = bool(epochs.clean.all())
        self.containment_ok = bool(epochs.contains_x_star.all())
        self.unsafe_rounds = int(np.count_nonzero(self.per_round(self.unsafe)))
        self.any_unsafe = self.unsafe_rounds > 0

    def per_round(self, table) -> np.ndarray:
        """Expand a table with one entry per strategy key to one per round."""
        return np.asarray(table)[self.keys]

    def strategy_matrix(self) -> np.ndarray:
        """Per-round strategies as a (T, K) matrix."""
        return self.per_round(self.strategies)

    def clean_flags(self) -> np.ndarray:
        """Per-round clean-event flag (True while estimates stay inside
        their widths); the per-round baseline keeps no estimates."""
        clean = np.ones(len(self.strategies), dtype=bool)
        clean[: len(self.epochs)] = self.epochs.clean
        return self.per_round(clean)

    def same_strategy_sequence(self, other: "TrialLog") -> bool:
        return bool(np.array_equal(self.strategy_matrix(), other.strategy_matrix()))

    def same_action_sequence(self, other: "TrialLog") -> bool:
        return bool(np.array_equal(self.actions, other.actions))

    def equals(self, other: "TrialLog") -> bool:
        """Bit-exact equality of everything recorded (replay checks)."""
        config = (self.algo, self.horizon, self.k, self.m)
        if config != (other.algo, other.horizon, other.k, other.m):
            return False
        arrays = (
            (self.actions, other.actions),
            (self.rewards, other.rewards),
            (self.costs, other.costs),
            (self.epoch_of_round, other.epoch_of_round),
            (self.regret, other.regret),
            (self.violation, other.violation),
            (self.epochs, other.epochs),
        )
        return all(np.array_equal(a, b) for a, b in arrays)


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
    arguments produce bit-identical logs.
    """
    horizon = spec.horizon if horizon is None else int(horizon)
    if oracle is None:
        oracle = solve_oracle(spec)
    xi = RandomSource(xi_seed)
    env = RandomSource(env_seed)
    policy = make_policy(algo, spec, horizon, delta, rho, xi, oracle)
    log = TrialLog(
        algo=algo,
        horizon=horizon,
        k=spec.k,
        m=spec.m,
        xi_seed=xi_seed,
        env_seed=env_seed,
        actions=np.empty(horizon, dtype=np.int32),
        rewards=np.empty(horizon),
        costs=np.empty((spec.m, horizon)),
        epoch_of_round=np.empty(horizon, dtype=np.int32),
    )
    play = _play_per_round if isinstance(policy, Ucb1) else _play_epochs
    _gather(log, spec, oracle, *play(log, policy, spec, oracle, xi, env))
    log.finalize()
    if log.epoch_count > epoch_budget(spec.k, horizon):
        raise RuntimeError("epoch budget exceeded")
    return log


def _gather(log, spec, oracle, keys: np.ndarray, strategies: np.ndarray) -> None:
    """Fill the per-key regret, violation and unsafe tables of ``log``
    (each row of ``strategies`` is evaluated once; ``keys`` names the
    row that each round played) and judge its epoch table."""
    log.keys = keys
    log.strategies = strategies
    log.regret = np.array([instant_regret(spec, oracle, x) for x in strategies])
    log.violation = np.stack([instant_violation(spec, x) for x in strategies], axis=1)
    tol = spec.thresholds + SAFETY_TOL
    log.unsafe = np.array([not (spec.cost_means @ x <= tol).all() for x in strategies])
    _judge_epochs(log.epochs, spec, oracle)


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


def _play_epochs(log, policy, spec, oracle, xi, env) -> tuple[np.ndarray, np.ndarray]:
    """Epoch policies: the strategy is frozen between closes, so each
    epoch is resolved as a whole.  Its actions come from the per-round
    labeled action uniforms, and feedback is drawn only for the (round,
    arm) pairs actually played.  The strategy key is the epoch index,
    which is also the epoch's row in the epoch table.

    The round words are mixed once per trial and serve both the action
    uniforms and the feedback, whose label-prefix states are tabulated
    once per trial too; an epoch's feedback is then one gather plus two
    mixes over (m+1, L).  A strategy with one positive-mass arm reads no
    action uniform, so the T uniforms are drawn on first read, at the
    first epoch whose strategy has two positive-mass arms: never in a
    ``debora`` trial, nor in one whose strategies all stay one-hot.
    """
    horizon = log.horizon
    rnd_words = field_words(np.arange(1, horizon + 1), "rnd")
    action_u = None
    streams = FeedbackStreams(spec, env)
    table = _epoch_table(epoch_budget(spec.k, horizon) + 1, spec.k, policy.m)
    st = policy.state
    lo = 0  # rounds lo+1..hi form the current epoch
    while True:
        x = validate_strategy(st.x_current)
        table[st.h] = (
            st.h, lo + 1, x, st.zeta, st.r_hat, st.g_hat, st.sigma,
            policy.last_fallback, True, True,
        )
        need = policy.targets - st.counts
        if action_u is None and np.count_nonzero(x) > 1:
            action_u = finish_uniforms(label_states(xi, "action"), rnd_words)
        arms = _epoch_actions(x, need, action_u, lo, horizon)
        hi = lo + arms.size
        log.actions[lo:hi] = arms
        log.epoch_of_round[lo:hi] = st.h
        feedback = streams.draw(arms, rnd_words[lo:hi])
        log.rewards[lo:hi] = feedback[0]
        log.costs[:, lo:hi] = feedback[1:]
        policy.observe_epoch(arms, feedback)
        if hi == horizon:
            # a target hit at round T would close at round T+1, which never comes
            log.epochs = table[: st.h + 1].copy()
            return log.epoch_of_round, log.epochs.x
        policy.close_epoch()
        lo = hi


_MIN_CHUNK = 256


def _epoch_actions(x, need, action_u, lo, horizon) -> np.ndarray:
    """Arms pulled in the epoch that starts at round lo+1.

    The epoch lasts until the first round at which some arm's count
    reaches its doubling target (``need`` more pulls), or until the
    horizon.  A strategy with one positive-mass arm plays that arm
    whatever the uniform, so its epoch is known in closed form.
    Otherwise zero-mass arms are never drawn, so the shortest remaining
    distance to a target over the arms with positive mass bounds the
    epoch from below; the uniforms are mapped in chunks that start
    there and double until a target is hit.
    """
    left = horizon - lo
    support = np.flatnonzero(x)
    if support.size == 1:
        arm = support[0]
        return np.full(min(int(need[arm]), left), arm, dtype=np.int32)
    cdf = np.cumsum(x)
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
    order = np.argsort(arms, kind="stable")
    nth = np.cumsum(per_arm) - per_arm + need - 1
    return int(order[nth[reached]].min())


def _play_per_round(log, policy, spec, oracle, xi, env) -> tuple[np.ndarray, np.ndarray]:
    """Per-round baseline: each pick depends on the rewards seen so far.
    Its strategy is the one-hot of the pick, so the key is the arm."""
    horizon = log.horizon
    rewards, costs = feedback_tables(spec, env, horizon)
    picks = []
    for t, row in enumerate(rewards.tolist(), start=1):
        a = policy.pick(t)
        policy.observe(a, row[a])
        picks.append(a)
    log.actions[:] = picks
    rounds = np.arange(horizon)
    log.rewards[:] = rewards[rounds, log.actions]
    log.costs[:] = costs[:, rounds, log.actions]
    log.epoch_of_round[:] = rounds
    log.epochs = _epoch_table(0, spec.k, spec.m)
    return log.actions, np.eye(spec.k)


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
    oracle = solve_oracle(spec)
    logs = []
    for j in range(trials):
        xi_seed, env_seed = trial_seeds(seed, j)
        logs.append(
            run_trial(
                spec,
                algo,
                xi_seed,
                env_seed,
                delta=delta,
                rho=rho,
                horizon=horizon,
                oracle=oracle,
            )
        )
    return logs


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
        return {
            "pairs": self.pairs,
            "mismatches": self.mismatches,
            "rate": self.rate,
            "rho_target": self.rho_target,
            "half_width": self.half_width,
            "action_mismatches": self.action_mismatches,
            "action_rate": self.action_rate,
        }


def run_replicability_experiment(
    spec: InstanceSpec,
    algo: str,
    *,
    rho: float,
    delta: float,
    n_pairs: int,
    seed: int,
    horizon: int | None = None,
    keep_pair_results: bool = True,
) -> ReplicabilityReport:
    """Paired trials with shared algorithm randomness.

    Each pair runs the algorithm twice with the same algorithm seed and
    independent environment seeds, then compares the full strategy
    sequences element-wise (exact equality; the sequences come from
    deterministic code paths).  Action sequences are compared as well
    and reported separately.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    oracle = solve_oracle(spec)
    mismatches = 0
    action_mismatches = 0
    results = []
    for p in range(n_pairs):
        xi_seed, env_a, env_b = pair_seeds(seed, p)
        kwargs = dict(delta=delta, rho=rho, horizon=horizon, oracle=oracle)
        log_a = run_trial(spec, algo, xi_seed, env_a, **kwargs)
        log_b = run_trial(spec, algo, xi_seed, env_b, **kwargs)
        same_seq = log_a.same_strategy_sequence(log_b)
        same_act = log_a.same_action_sequence(log_b)
        mismatches += 0 if same_seq else 1
        action_mismatches += 0 if same_act else 1
        if keep_pair_results:
            results.append(
                {
                    "pair": p,
                    "xi_seed": xi_seed,
                    "env_seed_1": env_a,
                    "env_seed_2": env_b,
                    "strategies_match": same_seq,
                    "actions_match": same_act,
                }
            )
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


def _rounds_rows(trial_idx: int, log: TrialLog) -> str:
    """The rounds.csv rows of one trial.

    The strategy, regret and violation cells depend on the round only
    through its strategy key, so each is formatted once per key.
    """
    x_cells = [";".join(map(repr, x)) for x in log.strategies.tolist()]
    tails = [
        ",".join(map(repr, tail))
        for tail in zip(log.regret.tolist(), *log.violation.tolist())
    ]
    signals = zip(log.rewards.tolist(), *log.costs.tolist())
    return "".join(
        f"{trial_idx},{t},{epoch},{action},{x_cells[key]},"
        f"{','.join(map(repr, signal))},{tails[key]}\n"
        for t, epoch, action, key, signal in zip(
            range(1, log.horizon + 1),
            log.epoch_of_round.tolist(),
            log.actions.tolist(),
            log.keys.tolist(),
            signals,
        )
    )


_PAIRS_HEADER = "pair,xi_seed,env_seed_1,env_seed_2,strategies_match,actions_match\n"


def write_pairs_csv(report: ReplicabilityReport, out_dir: str | Path) -> Path:
    """Write one row per trial pair of ``report`` to out_dir/pairs.csv."""
    path = Path(out_dir) / "pairs.csv"
    rows = "".join(
        f"{row['pair']},{row['xi_seed']},{row['env_seed_1']},"
        f"{row['env_seed_2']},{int(row['strategies_match'])},"
        f"{int(row['actions_match'])}\n"
        for row in report.pair_results
    )
    path.write_text(_PAIRS_HEADER + rows, encoding="utf-8", newline="\n")
    return path


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty vector, the mean of its middle one or
    two sorted values, without the ``numpy.ma`` import that
    ``np.median`` costs on its first call in a process."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(np.mean(ordered[mid - 1 + ordered.size % 2 : mid + 1]))


def aggregate_and_export(
    logs: list[TrialLog],
    report: ReplicabilityReport | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write per-round CSV, summary JSON, and the regret-curve CSV.

    Output bytes are a pure function of the inputs: floats are rendered
    with repr (shortest round-trip form), JSON keys are sorted, newlines
    are fixed.  Violation columns are omitted for unconstrained runs.
    The logs must come from one configuration: the same algorithm, arm
    count, constraint count and horizon.
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
    written = []

    rounds_path = out / "rounds.csv"
    header = ["trial", "t", "epoch", "action", "x_t", "reward"]
    header += [f"cost_{i + 1}" for i in range(m)]
    header += ["inst_regret"]
    header += [f"inst_violation_{i + 1}" for i in range(m)]
    with rounds_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for trial_idx, log in enumerate(logs):
            fh.write(_rounds_rows(trial_idx, log))
    written.append(rounds_path)

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
        "replicability": None if report is None else report.to_dict(),
    }
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(summary_path)

    curve_path = out / "regret_curve.csv"
    cum_regret = np.zeros(horizon)
    cum_violation = np.zeros(horizon)
    for log in logs:
        cum_regret += np.cumsum(log.inst_regret)
        if m:
            cum_violation += np.max(np.cumsum(log.inst_violation, axis=1), axis=0)
    cum_regret /= len(logs)
    cum_violation /= len(logs)
    with curve_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,mean_cum_regret,mean_cum_violation\n")
        fh.write("".join(
            f"{t},{regret!r},{violation!r}\n"
            for t, regret, violation in zip(
                range(1, horizon + 1), cum_regret.tolist(), cum_violation.tolist()
            )
        ))
    written.append(curve_path)

    if report is not None and report.pair_results:
        written.append(write_pairs_csv(report, out))
    return written
