"""Experiment runner: single trials, batches, paired-replicability runs.

A trial is deterministic given (instance, algorithm, algorithm seed,
environment seed): algorithm randomness and environment randomness come
from two separate labeled-stream roots, so paired trials can fix the
former while redrawing the latter.  The replicable policies freeze
their strategy between epoch closes, so their trials are resolved an
epoch at a time with array operations: the epoch's actions from the
labeled per-round action uniforms, its end from the first doubling
target hit, and feedback only for the (round, arm) pairs played.
Everything epoch-shaped (estimate refreshes, oracle monitors, expected
regret and violation) happens once per epoch, and the label work that
every epoch would repeat (round words, feedback label prefixes) is
tabulated once per trial.  Only the per-round UCB1 baseline loops over
rounds in Python.

Exports format each cell that is constant within an epoch (for UCB1,
for an arm) once, and write each trial's rows with one join.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import environment
from .algorithms import epoch_budget, make_policy
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
    "EpochRecord",
    "ReplicabilityReport",
    "TrialLog",
    "aggregate_and_export",
    "run_batch",
    "run_replicability_experiment",
    "run_trial",
    "write_pairs_csv",
]

SAFETY_TOL = environment.SAFETY_TOL


@dataclass
class EpochRecord:
    """State snapshot taken when an epoch begins."""

    h: int
    t_start: int
    x: np.ndarray
    zeta: np.ndarray
    r_hat: np.ndarray
    g_hat: np.ndarray
    sigma: float
    x_tilde: np.ndarray | None
    fallback: bool
    clean: bool
    contains_x_star: bool
    safe: bool


@dataclass
class TrialLog:
    """Complete record of one trial.

    Per-round arrays are parallel over t = 1..T; epoch records carry the
    strategies, so the per-round strategy is epochs[epoch_of_round[t-1]].x
    (or the one-hot of the action for the per-round baseline).
    """

    algo: str
    horizon: int
    m: int
    xi_seed: int
    env_seed: int
    actions: np.ndarray
    rewards: np.ndarray
    costs: np.ndarray
    epoch_of_round: np.ndarray
    inst_regret: np.ndarray
    inst_violation: np.ndarray
    epochs: list[EpochRecord]
    per_round_strategy: bool
    _k_hint: int = 1
    regret_total: float = 0.0
    violation_total: float = 0.0
    epoch_count: int = 0
    fallback_count: int = 0
    unsafe_rounds: int = 0
    any_unsafe: bool = False
    clean_all: bool = True
    containment_ok: bool = True

    def finalize(self) -> None:
        self.regret_total = float(np.sum(self.inst_regret))
        if self.m:
            # max over constraints of the summed clamped excess, never
            # the sum of per-round maxima
            self.violation_total = float(np.max(np.sum(self.inst_violation, axis=1)))
        else:
            self.violation_total = 0.0
        self.epoch_count = self.epochs[-1].h if self.epochs else 0
        self.fallback_count = sum(1 for e in self.epochs if e.fallback)
        self.clean_all = all(e.clean for e in self.epochs)
        self.containment_ok = all(e.contains_x_star for e in self.epochs)
        self.any_unsafe = self.unsafe_rounds > 0

    def strategy_matrix(self) -> np.ndarray:
        """Per-round strategies as a (T, K) matrix."""
        if self.per_round_strategy:
            out = np.zeros((self.horizon, self._k_hint))
            out[np.arange(self.horizon), self.actions] = 1.0
            return out
        stack = np.vstack([e.x for e in self.epochs])
        return stack[self.epoch_of_round]

    def clean_flags(self) -> np.ndarray:
        """Per-round clean-event flag (True while estimates stay inside
        their widths), expanded from the epoch records."""
        if self.per_round_strategy:
            return np.ones(self.horizon, dtype=bool)
        per_epoch = np.array([e.clean for e in self.epochs], dtype=bool)
        return per_epoch[self.epoch_of_round]

    def same_strategy_sequence(self, other: "TrialLog") -> bool:
        return bool(np.array_equal(self.strategy_matrix(), other.strategy_matrix()))

    def same_action_sequence(self, other: "TrialLog") -> bool:
        return bool(np.array_equal(self.actions, other.actions))

    def equals(self, other: "TrialLog") -> bool:
        """Bit-exact equality of everything recorded (replay checks)."""
        if (
            self.algo != other.algo
            or self.horizon != other.horizon
            or self.m != other.m
            or len(self.epochs) != len(other.epochs)
        ):
            return False
        arrays = (
            (self.actions, other.actions),
            (self.rewards, other.rewards),
            (self.costs, other.costs),
            (self.epoch_of_round, other.epoch_of_round),
            (self.inst_regret, other.inst_regret),
            (self.inst_violation, other.inst_violation),
        )
        if not all(np.array_equal(a, b) for a, b in arrays):
            return False
        for mine, theirs in zip(self.epochs, other.epochs):
            if mine.h != theirs.h or mine.t_start != theirs.t_start:
                return False
            if not np.array_equal(mine.x, theirs.x):
                return False
            if mine.sigma != theirs.sigma:
                return False
        return True


def _epoch_record(policy, oracle, spec, t_start: int) -> EpochRecord:
    st = policy.state
    h = st.h
    clean = True
    if h >= 1:
        played = st.epoch_start_counts >= 1
        if played.any():
            r_err = np.abs(st.r_hat - spec.reward_means) > st.zeta
            clean = not r_err[played].any()
            if clean and policy.m:
                g_err = np.abs(st.g_hat - spec.cost_means) > st.zeta
                clean = not g_err[:, played].any()
    if policy.m:
        lower = st.g_hat - st.zeta
        contains = bool((lower @ oracle.x_star <= spec.thresholds + SAFETY_TOL).all())
    else:
        contains = True
    if spec.m:
        safe = bool((spec.cost_means @ st.x_current <= spec.thresholds + SAFETY_TOL).all())
    else:
        safe = True
    return EpochRecord(
        h=h,
        t_start=t_start,
        x=st.x_current.copy(),
        zeta=st.zeta.copy(),
        r_hat=st.r_hat.copy(),
        g_hat=st.g_hat.copy(),
        sigma=st.sigma,
        x_tilde=None if st.x_tilde is None else st.x_tilde.copy(),
        fallback=policy.last_fallback,
        clean=clean,
        contains_x_star=contains,
        safe=safe,
    )


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
    k = spec.k
    m = spec.m
    per_round = policy.kind == "per-round"
    log = TrialLog(
        algo=algo,
        horizon=horizon,
        m=m,
        xi_seed=xi_seed,
        env_seed=env_seed,
        actions=np.empty(horizon, dtype=np.int32),
        rewards=np.empty(horizon),
        costs=np.empty((m, horizon)),
        epoch_of_round=np.empty(horizon, dtype=np.int32),
        inst_regret=np.empty(horizon),
        inst_violation=np.empty((m, horizon)),
        epochs=[],
        per_round_strategy=per_round,
    )
    log._k_hint = k
    if per_round:
        _run_per_round(log, policy, spec, oracle, env)
    else:
        _run_epochs(log, policy, spec, oracle, xi, env)
    log.finalize()
    if log.epoch_count > epoch_budget(k, horizon):
        raise RuntimeError("epoch budget exceeded")
    return log


def _run_epochs(log, policy, spec, oracle, xi, env) -> None:
    """Epoch policies: the strategy is frozen between closes, so each
    epoch is resolved as a whole.  Its actions come from the per-round
    labeled action uniforms (none for the deterministic policy), and
    feedback is drawn only for the (round, arm) pairs actually played.

    The round words are mixed once per trial and serve both the action
    uniforms and the feedback, whose label-prefix states are tabulated
    once per trial too; an epoch's feedback is then one gather plus two
    mixes over (m+1, L).
    """
    horizon = log.horizon
    rnd_words = field_words(np.arange(1, horizon + 1), "rnd")
    action_u = (
        None
        if policy.kind == "deterministic"
        else finish_uniforms(label_states(xi, "action"), rnd_words)
    )
    streams = FeedbackStreams(spec, env)
    lo = 0  # rounds lo+1..hi form the current epoch
    while True:
        rec = _epoch_record(policy, oracle, spec, lo + 1)
        log.epochs.append(rec)
        x = validate_strategy(rec.x)
        arms = _epoch_actions(policy, x, action_u, lo, horizon)
        hi = lo + arms.size
        log.actions[lo:hi] = arms
        log.epoch_of_round[lo:hi] = rec.h
        log.inst_regret[lo:hi] = instant_regret(spec, oracle, x)
        log.inst_violation[:, lo:hi] = instant_violation(spec, x)[:, None]
        feedback = streams.draw(arms, rnd_words[lo:hi])
        log.rewards[lo:hi] = feedback[0]
        log.costs[:, lo:hi] = feedback[1:]
        if not rec.safe:
            log.unsafe_rounds += hi - lo
        policy.observe_epoch(arms, feedback)
        if hi == horizon:
            # a target hit at round T would close at round T+1, which never comes
            return
        policy.close_epoch()
        lo = hi


_MIN_CHUNK = 256


def _epoch_actions(policy, x, action_u, lo, horizon) -> np.ndarray:
    """Arms pulled in the epoch that starts at round lo+1.

    The epoch lasts until the first round at which some arm's count
    reaches its doubling target, or until the horizon.  Zero-mass arms
    are never drawn, so the shortest remaining distance to a target over
    the arms with positive mass bounds the epoch from below; the
    uniforms are mapped in chunks that start there and double until a
    target is hit.
    """
    need = policy.targets - policy.state.counts
    left = horizon - lo
    if action_u is None:
        arm = policy.current_arm
        return np.full(min(int(need[arm]), left), arm, dtype=np.int32)
    cdf = np.cumsum(x)
    n = min(max(int(need[x > 0].min()), _MIN_CHUNK), left)
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


def _run_per_round(log, policy, spec, oracle, env) -> None:
    """Baseline path: strategy is the one-hot of the per-round pick."""
    m = spec.m
    horizon = log.horizon
    rewards_tab, costs_tab = feedback_tables(spec, env, horizon)
    reward_rows = rewards_tab.tolist()
    cost_rows = [costs_tab[i].tolist() for i in range(m)]
    regret_of_arm = [
        instant_regret(spec, oracle, _onehot(spec.k, a)) for a in range(spec.k)
    ]
    viol_of_arm = [instant_violation(spec, _onehot(spec.k, a)) for a in range(spec.k)]
    eye = np.eye(spec.k)
    unsafe_arm = [
        bool(np.any(spec.cost_means @ eye[a] > spec.thresholds + SAFETY_TOL))
        for a in range(spec.k)
    ]
    unsafe = 0
    for t in range(1, horizon + 1):
        a = policy.pick(t)
        tm1 = t - 1
        r = reward_rows[tm1][a]
        c_row = [cost_rows[i][tm1][a] for i in range(m)]
        policy.observe(a, r, c_row)
        log.actions[tm1] = a
        log.rewards[tm1] = r
        for i in range(m):
            log.costs[i, tm1] = c_row[i]
        log.epoch_of_round[tm1] = tm1
        log.inst_regret[tm1] = regret_of_arm[a]
        for i in range(m):
            log.inst_violation[i, tm1] = viol_of_arm[a][i]
        if unsafe_arm[a]:
            unsafe += 1
    log.unsafe_rounds = unsafe


def _onehot(k: int, a: int) -> np.ndarray:
    x = np.zeros(k)
    x[a] = 1.0
    return x


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


def _fmt(value: float) -> str:
    return repr(float(value))


def _strategy_cell(x: np.ndarray) -> str:
    return ";".join(_fmt(v) for v in x)


def _rounds_rows(trial_idx: int, log: TrialLog) -> str:
    """The rounds.csv rows of one trial.

    The strategy, regret and violation cells are constant within an
    epoch (for the per-round baseline, for each arm), so each is
    formatted once, from the first round it applies to.
    """
    keys = log.actions if log.per_round_strategy else log.epoch_of_round
    uniq, first = np.unique(keys, return_index=True)
    strategies = log.strategy_matrix()
    x_cells = {}
    tails = {}
    for key, t0 in zip(uniq.tolist(), first.tolist()):
        x_cells[key] = _strategy_cell(strategies[t0])
        tail = [log.inst_regret[t0], *log.inst_violation[:, t0]]
        tails[key] = ",".join(map(_fmt, tail))
    signals = zip(log.rewards.tolist(), *log.costs.tolist())
    return "".join(
        f"{trial_idx},{t},{epoch},{action},{x_cells[key]},"
        f"{','.join(map(repr, signal))},{tails[key]}\n"
        for t, epoch, action, key, signal in zip(
            range(1, log.horizon + 1),
            log.epoch_of_round.tolist(),
            log.actions.tolist(),
            keys.tolist(),
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
    config = (first.algo, first._k_hint, first.m, first.horizon)
    if any((log.algo, log._k_hint, log.m, log.horizon) != config for log in logs):
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
            "median": float(np.median(regrets)),
        },
        "violation": {
            "mean": float(np.mean(violations)),
            "median": float(np.median(violations)),
        },
        "epochs": {
            "mean": float(np.mean(epoch_counts)),
            "median": float(np.median(epoch_counts)),
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
